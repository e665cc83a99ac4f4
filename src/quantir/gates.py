"""Gate kinds and their static properties.

The enum value of each kind doubles as its wire opcode in the binary
instruction stream: the high 3 bits are the operand class, the low 5 bits
the id within that class, which each member also carries as the plain
attribute ``opclass``.  The daggered X1 is not a separate kind (it is an X1
instruction with the dagger flag set) but owns the dedicated wire opcode
``X1_DAGGER_OPCODE`` in class 0.
"""
from __future__ import annotations

from enum import Enum

# operand classes (opcode >> 5)
CLS_1Q = 0        # one qubit, no params
CLS_ROT = 1       # one qubit, one angle
CLS_U3 = 2        # one qubit, three angles
CLS_2Q = 3        # two qubits, no params
CLS_MEASURE = 4   # one qubit, one cbit
CLS_BARRIER = 5   # variable qubit list


class GateKind(Enum):
    I = 0x00
    H = 0x01
    X = 0x02
    Y = 0x03
    Z = 0x04
    S = 0x05
    SDG = 0x06
    T = 0x07
    TDG = 0x08
    X1 = 0x09
    RX = 0x20
    RY = 0x21
    RZ = 0x22
    U3 = 0x40
    CNOT = 0x60
    CZ = 0x61
    SWAP = 0x62
    MEASURE = 0x80
    BARRIER = 0xA0

    def __init__(self, value: int):
        # a plain member attribute: the codec reads it, and the opcode as
        # ``_value_`` rather than through the ``value`` property, once per
        # instruction, and an Enum property read costs several times that
        self.opclass = value >> 5


X1_DAGGER_OPCODE = 0x0A

KIND_BY_OPCODE: dict[int, GateKind] = {k.value: k for k in GateKind}
KIND_BY_OPCODE[X1_DAGGER_OPCODE] = GateKind.X1

KIND_BY_NAME: dict[str, GateKind] = {k.name: k for k in GateKind}

# parameters per operand class: Instruction checks its params against it,
# and the .bis codec sizes each record's angles by it
PARAM_COUNT = {CLS_1Q: 0, CLS_ROT: 1, CLS_U3: 3, CLS_2Q: 0, CLS_MEASURE: 0,
               CLS_BARRIER: 0}

# dagger partners; rotations negate params, U3 maps (t,p,l) -> (-t,-l,-p),
# X1 keeps its dagger flag, everything listed here swaps kind only
DAGGER_SWAP = {
    GateKind.S: GateKind.SDG, GateKind.SDG: GateKind.S,
    GateKind.T: GateKind.TDG, GateKind.TDG: GateKind.T,
}
SELF_INVERSE = frozenset({
    GateKind.I, GateKind.H, GateKind.X, GateKind.Y, GateKind.Z,
    GateKind.CNOT, GateKind.CZ, GateKind.SWAP, GateKind.BARRIER,
})
