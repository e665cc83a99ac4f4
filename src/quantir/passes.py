"""Circuit rewrites: rotation merging, inverse cancellation, basis lowering.

All passes take and return circuits (inputs are flattened first) and preserve
the overall unitary up to global phase.  Two drivers run them all.

``_peephole`` runs merging and cancellation, each a rule over two
instructions.  It walks the body and offers the rule each instruction of
the rule's kinds together with the one before it, when a single instruction
is the last on all of its wires.  The rule keeps both, replaces the pair
with one instruction, or drops both.  Pairs are thus adjacent on
every wire they share, so barriers and measurements fence them.  The walk
repeats until it changes nothing.

``_lower`` runs basis lowering: each instruction of the given kinds becomes
its rule's sequence in one of two native sets, and every other passes
through.  ``decompose_to_basis`` lowers every gate, ``expand_swaps`` only
SWAPs.

* ``rz-x1-cz``: RZ rotations, the X1 (sqrt-X) pulse, and CZ.
* ``rz-rx-cnot``: RZ/RX rotations and CNOT.

MEASURE and BARRIER pass through; I disappears.  Lowered sequences equal the
original gate up to global phase (covered by the simulator-backed tests).
"""
from __future__ import annotations

import math

from .circuit import Circuit, Instruction, flatten
from .gates import GateKind

__all__ = [
    "BASES", "PassError",
    "merge_adjacent_rotations", "cancel_adjacent_inverses",
    "decompose_to_basis", "expand_swaps",
]

BASES = ("none", "rz-x1-cz", "rz-rx-cnot")

_PI = math.pi
# members bound once: a GateKind.<name> lookup on the Enum class costs
# several times a module global's, and the passes make one per gate
_I, _H, _X, _Y, _Z = GateKind.I, GateKind.H, GateKind.X, GateKind.Y, GateKind.Z
_S, _SDG, _T, _TDG = GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG
_X1, _U3 = GateKind.X1, GateKind.U3
_RX, _RY, _RZ = GateKind.RX, GateKind.RY, GateKind.RZ
_CNOT, _CZ, _SWAP = GateKind.CNOT, GateKind.CZ, GateKind.SWAP
_raw = Instruction._raw


class PassError(ValueError):
    """Pass input or configuration is invalid."""


def _opcodes(kinds) -> frozenset:
    # kind sets are tested by opcode: an int hashes in C, and hashing an
    # Enum member calls Python code
    return frozenset(k._value_ for k in kinds)


def _peephole(c: Circuit, kinds, combine) -> Circuit:
    """Apply ``combine`` to adjacent pairs until a walk changes nothing.

    An instruction whose kind is in ``kinds`` (one- and two-qubit gates)
    meets ``prev``, the last instruction on its wires, when that is the same
    one on each of them.  ``combine(prev, ins)`` returns ``ins`` to keep
    both, an instruction on the same wires to replace the pair, or None to
    drop both; it drops only pairs on the same wires.
    """
    codes = _opcodes(kinds)
    flat = flatten(c)
    body: list = flat.body
    changed = True
    while changed:
        changed = False
        out: list = []
        last: dict[int, int] = {}  # wire -> index in out of its last instruction
        for ins in body:
            if ins.kind._value_ in codes:
                qs = ins.qubits
                li = last.get(qs[0], -1)
                if li >= 0 and (len(qs) == 1 or last.get(qs[1], -1) == li):
                    new = combine(out[li], ins)
                    if new is not ins:
                        out[li] = new
                        if new is None:
                            for q in qs:
                                last[q] = -1
                        changed = True
                        continue
            out.append(ins)
            idx = len(out) - 1
            for q in ins.qubits:
                last[q] = idx
        body = [ins for ins in out if ins is not None]
    return Circuit._from_items(flat.num_qubits, flat.num_cbits, body, flat.name)


# -- rotation merging ----------------------------------------------------------

def merge_adjacent_rotations(c: Circuit, *, tol: float = 1e-12) -> Circuit:
    """Sum runs of same-axis rotations on a wire; drop full turns.

    Two rotations merge when nothing else touches their qubit between them.
    A merged angle equal to 0 (mod 2pi, within ``tol``) deletes the pair.
    """
    def merge(prev, ins):
        if prev.kind is not ins.kind:
            return ins
        total = prev.params[0] + ins.params[0]
        if abs(math.remainder(total, math.tau)) <= tol:
            return None
        return _raw(ins.kind, ins.qubits, (total,), None, False)

    return _peephole(c, (_RX, _RY, _RZ), merge)


# -- inverse cancellation -------------------------------------------------------

# CZ and SWAP are symmetric, and the driver pairs a two-qubit gate only with
# one on both of its wires
_SELF_CANCEL = _opcodes((_H, _X, _Y, _Z, _CZ, _SWAP))
_PHASE_INVERSE = {k._value_: inv for k, inv in
                  ((_S, _SDG), (_SDG, _S), (_T, _TDG), (_TDG, _T))}
_CANCELLABLE = (_H, _X, _Y, _Z, _S, _SDG, _T, _TDG, _X1, _CNOT, _CZ, _SWAP)


def _cancel(prev: Instruction, ins: Instruction) -> Instruction | None:
    pk, k = prev.kind, ins.kind
    if pk is not k:
        inverse = _PHASE_INVERSE.get(pk._value_) is k
    elif pk is _X1:
        inverse = prev.dagger != ins.dagger
    elif pk is _CNOT:
        inverse = prev.qubits == ins.qubits  # same control and target
    else:
        inverse = pk._value_ in _SELF_CANCEL
    return None if inverse else ins


def cancel_adjacent_inverses(c: Circuit) -> Circuit:
    """Delete adjacent gate/inverse pairs (fixpoint).

    One-qubit pairs need a clear wire between them; two-qubit pairs must be
    adjacent on both wires.
    """
    return _peephole(c, _CANCELLABLE, _cancel)


# -- basis lowering -------------------------------------------------------------

def _rz(q, a):
    return _raw(_RZ, (q,), (a,), None, False)


def _rx(q, a):
    return _raw(_RX, (q,), (a,), None, False)


def _x1(q):
    return _raw(_X1, (q,), (), None, False)


def _h_as_x1(q):
    return [_rz(q, _PI / 2), _x1(q), _rz(q, _PI / 2)]


def _h_as_rx(q):
    return [_rz(q, _PI / 2), _rx(q, _PI / 2), _rz(q, _PI / 2)]


def _cnot_as_cz(c, t):
    cz = _raw(_CZ, (c, t), (), None, False)
    return [*_h_as_x1(t), cz, *_h_as_x1(t)]


def _swap_as_cnots(a, b):
    return [_raw(_CNOT, (a, b), (), None, False),
            _raw(_CNOT, (b, a), (), None, False),
            _raw(_CNOT, (a, b), (), None, False)]


def _lower_rz_x1_cz(ins: Instruction) -> list[Instruction]:
    k = ins.kind
    q = ins.qubits[0]
    if k is _RZ:
        return [ins]
    if k is _X1:
        if not ins.dagger:
            return [ins]
        return [_rz(q, _PI), _x1(q), _rz(q, _PI)]
    if k is _I:
        return []
    if k is _H:
        return _h_as_x1(q)
    if k is _X:
        return [_x1(q), _x1(q)]
    if k is _Y:
        return [_x1(q), _x1(q), _rz(q, _PI)]
    if k is _Z:
        return [_rz(q, _PI)]
    if k is _S:
        return [_rz(q, _PI / 2)]
    if k is _SDG:
        return [_rz(q, -_PI / 2)]
    if k is _T:
        return [_rz(q, _PI / 4)]
    if k is _TDG:
        return [_rz(q, -_PI / 4)]
    if k is _RX:
        t = ins.params[0]
        return [_rz(q, _PI / 2), _x1(q), _rz(q, t + _PI), _x1(q), _rz(q, _PI / 2)]
    if k is _RY:
        t = ins.params[0]
        return [_x1(q), _rz(q, t + _PI), _x1(q), _rz(q, _PI)]
    if k is _U3:
        t, p, l = ins.params
        return [_rz(q, l), _x1(q), _rz(q, t + _PI), _x1(q), _rz(q, p + _PI)]
    if k is _CZ:
        return [ins]
    if k is _CNOT:
        return _cnot_as_cz(*ins.qubits)
    if k is _SWAP:
        out = []
        for cnot in _swap_as_cnots(*ins.qubits):
            out.extend(_cnot_as_cz(*cnot.qubits))
        return out
    raise PassError(f"no rz-x1-cz rule for {k.name}")  # pragma: no cover


def _lower_rz_rx_cnot(ins: Instruction) -> list[Instruction]:
    k = ins.kind
    q = ins.qubits[0]
    if k is _RZ or k is _RX or k is _CNOT:
        return [ins]
    if k is _I:
        return []
    if k is _X1:
        return [_rx(q, -_PI / 2 if ins.dagger else _PI / 2)]
    if k is _H:
        return _h_as_rx(q)
    if k is _X:
        return [_rx(q, _PI)]
    if k is _Y:
        return [_rz(q, -_PI / 2), _rx(q, _PI), _rz(q, _PI / 2)]
    if k is _Z:
        return [_rz(q, _PI)]
    if k is _S:
        return [_rz(q, _PI / 2)]
    if k is _SDG:
        return [_rz(q, -_PI / 2)]
    if k is _T:
        return [_rz(q, _PI / 4)]
    if k is _TDG:
        return [_rz(q, -_PI / 4)]
    if k is _RY:
        t = ins.params[0]
        return [_rz(q, -_PI / 2), _rx(q, t), _rz(q, _PI / 2)]
    if k is _U3:
        t, p, l = ins.params
        return [_rz(q, l - _PI / 2), _rx(q, t), _rz(q, p + _PI / 2)]
    if k is _CZ:
        a, b = ins.qubits
        cnot = _raw(_CNOT, (a, b), (), None, False)
        return [*_h_as_rx(b), cnot, *_h_as_rx(b)]
    if k is _SWAP:
        return _swap_as_cnots(*ins.qubits)
    raise PassError(f"no rz-rx-cnot rule for {k.name}")  # pragma: no cover


_LOWERERS = {
    "rz-x1-cz": _lower_rz_x1_cz,
    "rz-rx-cnot": _lower_rz_rx_cnot,
}


def _lower(c: Circuit, basis: str, kinds) -> Circuit:
    """Rewrite each instruction of ``kinds`` into ``basis``; keep the rest."""
    if basis not in BASES:
        raise PassError(f"unknown basis {basis!r}; choose from {BASES}")
    flat = flatten(c)
    if basis == "none":
        return flat
    rule = _LOWERERS[basis]
    codes = _opcodes(kinds)
    items: list = []
    keep = items.append
    for ins in flat.body:
        if ins.kind._value_ in codes:
            items += rule(ins)
        else:
            keep(ins)
    return Circuit._from_items(flat.num_qubits, flat.num_cbits, items, flat.name)


_GATES = tuple(k for k in GateKind if k.opclass < 4)  # all but MEASURE, BARRIER


def decompose_to_basis(c: Circuit, basis: str) -> Circuit:
    """Rewrite every gate into the named basis (``none`` is a flatten)."""
    return _lower(c, basis, _GATES)


def expand_swaps(c: Circuit, basis: str) -> Circuit:
    """Rewrite only SWAP gates into the named basis, leaving the rest alone.

    Used after routing, where inserted SWAPs are the only off-basis gates.
    """
    return _lower(c, basis, (_SWAP,))
