"""Circuit rewrites: rotation merging, inverse cancellation, basis lowering.

All passes take and return circuits (inputs are flattened first) and preserve
the overall unitary up to global phase.  Merging and cancellation only ever
combine instructions that are adjacent on every wire they share, so barriers
and measurements fence them.  Both run to a fixpoint.

Basis lowering rewrites every gate into one of two native sets:

* ``rz-x1-cz``: RZ rotations, the X1 (sqrt-X) pulse, and CZ.
* ``rz-rx-cnot``: RZ/RX rotations and CNOT.

MEASURE and BARRIER pass through; I disappears.  Lowered sequences equal the
original gate up to global phase (covered by the simulator-backed tests).
"""
from __future__ import annotations

import math

from .circuit import Circuit, CircuitError, Instruction, flatten
from .gates import CLS_1Q, CLS_2Q, GateKind

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
_ROTS = (_RX, _RY, _RZ)
_raw = Instruction._raw


class PassError(ValueError):
    """Pass input or configuration is invalid."""


def _rebuild(template: Circuit, body) -> Circuit:
    out = Circuit(template.num_qubits, template.num_cbits, name=template.name)
    for ins in body:
        out._append_fast(ins)
    return out


# -- rotation merging ----------------------------------------------------------

def merge_adjacent_rotations(c: Circuit, *, tol: float = 1e-12) -> Circuit:
    """Sum runs of same-axis rotations on a wire; drop full turns.

    Two rotations merge when nothing else touches their qubit between them.
    A merged angle equal to 0 (mod 2pi, within ``tol``) deletes the pair.
    """
    flat = flatten(c)
    body: list = flat.body
    changed = True
    while changed:
        changed = False
        out: list = []
        last_idx: dict[int, int] = {}
        for ins in body:
            if ins.kind in _ROTS:
                q = ins.qubits[0]
                li = last_idx.get(q, -1)
                if li >= 0:
                    prev = out[li]
                    if prev is not None and prev.kind is ins.kind:
                        total = prev.params[0] + ins.params[0]
                        if abs(math.remainder(total, math.tau)) <= tol:
                            out[li] = None
                            last_idx[q] = -1
                        else:
                            out[li] = _raw(ins.kind, ins.qubits, (total,),
                                           None, False)
                        changed = True
                        continue
            out.append(ins)
            idx = len(out) - 1
            for q in ins.qubits:
                last_idx[q] = idx
        body = [ins for ins in out if ins is not None]
    return _rebuild(flat, body)


# -- inverse cancellation -------------------------------------------------------

_SELF_CANCEL = frozenset({_H, _X, _Y, _Z})
_PHASE_PAIRS = frozenset({(_S, _SDG), (_SDG, _S), (_T, _TDG), (_TDG, _T)})


def _cancels(prev: Instruction, cur: Instruction) -> bool:
    pk, ck = prev.kind, cur.kind
    if pk is ck:
        if pk in _SELF_CANCEL:
            return True
        if pk is _X1:
            return prev.dagger != cur.dagger
        if pk is _CNOT:
            return prev.qubits == cur.qubits  # same control and target
        if pk is _CZ or pk is _SWAP:
            return set(prev.qubits) == set(cur.qubits)
        return False
    return (pk, ck) in _PHASE_PAIRS


def cancel_adjacent_inverses(c: Circuit) -> Circuit:
    """Delete adjacent gate/inverse pairs (fixpoint).

    One-qubit pairs need a clear wire between them; two-qubit pairs must be
    adjacent on both wires.
    """
    flat = flatten(c)
    body: list = flat.body
    changed = True
    while changed:
        changed = False
        out: list = []
        last_idx: dict[int, int] = {}
        for ins in body:
            cls = ins.kind.opclass
            if cls == CLS_1Q and ins.kind is not _I:
                li = last_idx.get(ins.qubits[0], -1)
                if li >= 0 and out[li] is not None and _cancels(out[li], ins):
                    out[li] = None
                    last_idx[ins.qubits[0]] = -1
                    changed = True
                    continue
            elif cls == CLS_2Q:
                a, b = ins.qubits
                la = last_idx.get(a, -1)
                lb = last_idx.get(b, -1)
                if la == lb and la >= 0 and out[la] is not None \
                        and _cancels(out[la], ins):
                    out[la] = None
                    last_idx[a] = last_idx[b] = -1
                    changed = True
                    continue
            out.append(ins)
            idx = len(out) - 1
            for q in ins.qubits:
                last_idx[q] = idx
        body = [ins for ins in out if ins is not None]
    return _rebuild(flat, body)


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


def _check_basis(basis: str):
    if basis not in BASES:
        raise PassError(f"unknown basis {basis!r}; choose from {BASES}")


def decompose_to_basis(c: Circuit, basis: str) -> Circuit:
    """Rewrite every gate into the named basis (``none`` is a flatten)."""
    _check_basis(basis)
    flat = flatten(c)
    if basis == "none":
        return flat
    lower = _LOWERERS[basis]
    out = Circuit(flat.num_qubits, flat.num_cbits, name=flat.name)
    emit = out._append_fast
    for ins in flat.body:
        cls = ins.kind.opclass
        if cls >= 4:  # measure, barrier
            emit(ins)
            continue
        for low in lower(ins):
            emit(low)
    return out


def expand_swaps(c: Circuit, basis: str) -> Circuit:
    """Rewrite only SWAP gates into the named basis, leaving the rest alone.

    Used after routing, where inserted SWAPs are the only off-basis gates.
    """
    _check_basis(basis)
    flat = flatten(c)
    if basis == "none":
        return flat
    lower = _LOWERERS[basis]
    out = Circuit(flat.num_qubits, flat.num_cbits, name=flat.name)
    emit = out._append_fast
    for ins in flat.body:
        if ins.kind is _SWAP:
            for low in lower(ins):
                emit(low)
        else:
            emit(ins)
    return out
