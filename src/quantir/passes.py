"""Circuit rewrites: rotation merging, inverse cancellation, basis lowering.

All passes take and return circuits (inputs are flattened first) and preserve
the overall unitary up to global phase.  Two drivers run them all.

``_peephole`` runs merging and cancellation, each a rule over two
instructions.  It walks the body and offers the rule each instruction of
the rule's kinds together with the one before it, when a single instruction
is the last on all of its wires and is of a kind the rule declares can
combine with it: the same axis for merging, the same kind or its
``DAGGER_SWAP`` partner for cancellation.  Every other pair the rule would
keep, so it is not called for them.  The rule keeps both, replaces the pair
with one instruction of the same kind, or drops both.  Pairs are thus
adjacent on every wire they share, so barriers and measurements fence them.
Only a drop makes two instructions newly adjacent, so a further walk can
change something only where a drop's wire resumes.  After each walk with a
drop, a bounded check at each drop site decides whether the rule would take
the pair that meets there; the walk repeats only if it would, or if the
check cannot settle a site within its scan.

``_lower`` runs basis lowering.  Each of the two native sets has one rule
table, keyed by gate kind; a rule maps one instruction to its sequence in
that set, as plain ``(kind, qubits, params)`` triples.  The rules both
tables share (RZ kept, I dropped, Z, S, S†, T and T† as one RZ) are written
once.  Each instruction of the given kinds becomes its rule's sequence, and
every other passes through.  ``decompose_to_basis`` lowers every gate,
``expand_swaps`` only SWAPs.  Within one lowering, a rule runs once per
distinct input object, and ``_lower`` alone makes the instructions: one
object per lowered value (those that hold a zero angle aside), so the route
builder after it maps each value once.

* ``rz-x1-cz``: RZ rotations, the X1 (sqrt-X) pulse, and CZ.
* ``rz-rx-cnot``: RZ/RX rotations and CNOT.

MEASURE and BARRIER pass through.  Lowered sequences equal the original gate
up to global phase (covered by the simulator-backed tests).
"""
from __future__ import annotations

import math

from .circuit import Circuit, Instruction, flatten
from .gates import DAGGER_SWAP, GateKind

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
_new = tuple.__new__


class PassError(ValueError):
    """Pass input or configuration is invalid."""


def _opcodes(kinds) -> frozenset:
    # kind sets are tested by opcode: an int hashes in C, and hashing an
    # Enum member calls Python code
    return frozenset(k._value_ for k in kinds)


def _peephole(c: Circuit, meets: dict, combine) -> Circuit:
    """Apply ``combine`` to adjacent pairs until a walk would change nothing.

    ``meets`` maps the opcode of each of the rule's kinds (one- and
    two-qubit gates) to the opcodes of the kinds it can combine with.  An
    instruction of the rule's kinds meets ``prev``, the last instruction on
    its wires, when that is the same one on each of them;
    ``combine(prev, ins)`` is called only when ``prev``'s opcode is in
    ``meets[ins opcode]``, since for every other pair it would keep both.  It returns ``ins`` to keep both, an
    instruction of the same kind on the same wires to replace the pair, or
    None to drop both; it drops only pairs on the same wires.  A
    replacement meets later instructions in the same walk and exposes no new
    pair, so it needs no further walk.  A drop leaves its wires with no last
    instruction for the rest of the walk, so a further walk differs from
    this one only where a drop's wire resumes; ``_exposed`` checks those
    sites, and the walk repeats only when one of them would change.
    """
    flat = flatten(c)
    body: list = flat.body
    while True:
        out, drops = _walk(body, flat.num_qubits, meets, combine)
        if not drops:
            body = out
            break
        body = [ins for ins in out if ins is not None]
        if not _exposed(out, drops, meets, combine):
            break
    return Circuit._from_items(flat.num_qubits, flat.num_cbits, body, flat.name)


def _walk(body: list, num_qubits: int, meets: dict, combine) -> tuple[list, list]:
    """One ``_peephole`` walk: its output, with None where a drop's
    ``prev`` stood, and each drop as ``(prev index, ins index, wires)``."""
    out: list = []
    keep = out.append
    drops: list = []
    # wire -> index in out of its last instruction, or -1; one slot per
    # wire, as depth and CircuitDag keep
    last = [-1] * num_qubits
    partners = meets.get
    for ins in body:
        qs = ins.qubits
        codes = partners(ins.kind._value_)
        if codes is not None:
            li = last[qs[0]]
            if (li >= 0 and (len(qs) == 1 or last[qs[1]] == li)
                    and out[li].kind._value_ in codes):
                new = combine(out[li], ins)
                if new is not ins:
                    out[li] = new
                    if new is None:
                        for q in qs:
                            last[q] = -1
                        drops.append((li, len(out), qs))
                    continue
        idx = len(out)
        keep(ins)
        for q in qs:
            last[q] = idx
    return out, drops


# rows a drop-site check scans, each way, before it counts the site exposed
_REACH = 128


def _scan(out: list, w: int, i: int, stop: int, step: int) -> int:
    """The first index from ``i`` toward ``stop`` whose instruction is left
    in ``out`` and on wire ``w``; ``stop`` when there is none."""
    while i != stop and (out[i] is None or w not in out[i].qubits):
        i += step
    return i


def _exposed(out: list, drops: list, meets: dict, combine) -> bool:
    """Whether a further walk over ``out`` could change it.

    On each wire ``w`` of a drop, the next walk offers ``N``, the first
    instruction left on ``w`` after the dropped pair, to ``P``, the last one
    left before it, when ``N`` and ``P`` are kinds the rule combines and
    ``P`` is last on all of ``N``'s wires.  Everywhere else it meets the
    pairs this walk met and keeps them.  So the next walk changes something
    only if some drop site has ``combine(P, N) is not N``.  Each scan stops
    after ``_REACH`` rows, and a site it cannot settle counts as exposed: the
    caller then walks again, which is never wrong.
    """
    end = len(out)
    for li, d, qs in drops:
        for w in qs:
            stop = min(end, d + _REACH)
            j = _scan(out, w, d, stop, 1)
            if j == stop:
                if stop < end:
                    return True
                continue  # nothing follows on w
            nxt = out[j]
            codes = meets.get(nxt.kind._value_)
            if codes is None:
                continue
            stop = max(-1, li - 1 - _REACH)
            i = _scan(out, w, li - 1, stop, -1)
            if i == stop:
                if stop >= 0:
                    return True
                continue  # nothing precedes on w
            prv = out[i]
            if len(nxt.qubits) == 2:
                v = nxt.qubits[1] if nxt.qubits[0] == w else nxt.qubits[0]
                if v not in prv.qubits:
                    continue  # P is not last on v
                # P is last on v if the next instruction on v is N
                stop = min(j, i + 1 + _REACH)
                k = _scan(out, v, i + 1, stop, 1)
                if k < j:
                    if k == stop:
                        return True
                    continue  # something on v comes between
            if prv.kind._value_ in codes and combine(prv, nxt) is not nxt:
                return True
    return False


# -- rotation merging ----------------------------------------------------------

_FULL_TURN_TOL = 1e-12
# a rotation merges only with one about the same axis
_MERGE_MEETS = {k._value_: _opcodes((k,)) for k in (_RX, _RY, _RZ)}


def merge_adjacent_rotations(c: Circuit) -> Circuit:
    """Sum runs of same-axis rotations on a wire; drop full turns.

    Two rotations merge when nothing else touches their qubit between them.
    A merged angle equal to 0 (mod 2pi, within ``_FULL_TURN_TOL``) deletes
    the pair.
    """
    def merge(prev, ins):
        total = prev.params[0] + ins.params[0]
        if abs(math.remainder(total, math.tau)) <= _FULL_TURN_TOL:
            return None
        # always a new object, never one from a table: ``_peephole`` reads
        # a result that ``is ins`` as "keep both"
        return _new(Instruction, (ins.kind, ins.qubits, (total,), None, False))

    return _peephole(c, _MERGE_MEETS, merge)


# -- inverse cancellation -------------------------------------------------------

# CZ and SWAP are symmetric, and the driver pairs a two-qubit gate only with
# one on both of its wires
_SELF_CANCEL = _opcodes((_H, _X, _Y, _Z, _CZ, _SWAP))
_PHASE_INVERSE = {k._value_: inv for k, inv in DAGGER_SWAP.items()}
# a gate cancels only against its own kind or its DAGGER_SWAP partner
_CANCEL_MEETS = {k._value_: _opcodes((k, DAGGER_SWAP.get(k, k))) for k in (
    _H, _X, _Y, _Z, _S, _SDG, _T, _TDG, _X1, _CNOT, _CZ, _SWAP)}


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
    return _peephole(c, _CANCEL_MEETS, _cancel)


# -- basis lowering -------------------------------------------------------------

# Each rule maps its input instruction to its sequence as plain ``(kind,
# qubits, params)`` triples, and ``_lower`` makes the instructions.  A rule
# builds its sequence on the input's operand tuple, so a lowered sequence
# makes no new one-qubit tuple.  The two-qubit rules make one ``(t,)`` for
# the target side of each CNOT.

_QUARTER, _HALF, _BACK_QUARTER = (_PI / 2,), (_PI,), (-_PI / 2,)


def _h_as_x1(qs):
    return [(_RZ, qs, _QUARTER), (_X1, qs, ()), (_RZ, qs, _QUARTER)]


def _h_as_rx(qs):
    return [(_RZ, qs, _QUARTER), (_RX, qs, _QUARTER), (_RZ, qs, _QUARTER)]


def _cnot_as_cz(qs):
    t = (qs[1],)
    return [*_h_as_x1(t), (_CZ, qs, ()), *_h_as_x1(t)]


def _swap_as_pairs(qs):
    """The operands of the three CNOTs that make a SWAP."""
    return qs, (qs[1], qs[0]), qs


def _keep(ins):
    return [(ins.kind, ins.qubits, ins.params)]


def _one_q(build):
    """The rule for a one-qubit kind whose sequence is ``build(qs, *params)``."""
    return lambda ins: build(ins.qubits, *ins.params)


def _phase(a):
    a = (a,)
    return _one_q(lambda qs: [(_RZ, qs, a)])


def _x1_as_pulses(ins):
    if not ins.dagger:
        return _keep(ins)
    qs = ins.qubits
    return [(_RZ, qs, _HALF), (_X1, qs, ()), (_RZ, qs, _HALF)]


def _x1_as_rx(ins):
    return [(_RX, ins.qubits, _BACK_QUARTER if ins.dagger else _QUARTER)]


def _cz_as_cnot(ins):
    qs = ins.qubits
    t = (qs[1],)
    return [*_h_as_rx(t), (_CNOT, qs, ()), *_h_as_rx(t)]


_SHARED_RULES = {
    _RZ: _keep, _I: lambda ins: [],
    _Z: _phase(_PI), _S: _phase(_PI / 2), _SDG: _phase(-_PI / 2),
    _T: _phase(_PI / 4), _TDG: _phase(-_PI / 4),
}


def _by_opcode(rules):
    # looked up by opcode, for the reason _opcodes gives
    return {k._value_: rule for k, rule in rules.items()}


# basis -> opcode -> rule; every gate kind has a rule in both bases
_RULES = {
    "rz-x1-cz": _by_opcode({
        **_SHARED_RULES,
        _X1: _x1_as_pulses,
        _H: _one_q(_h_as_x1),
        _X: _one_q(lambda qs: [(_X1, qs, ()), (_X1, qs, ())]),
        _Y: _one_q(lambda qs: [(_X1, qs, ()), (_X1, qs, ()), (_RZ, qs, _HALF)]),
        _RX: _one_q(lambda qs, t: [
            (_RZ, qs, _QUARTER), (_X1, qs, ()), (_RZ, qs, (t + _PI,)),
            (_X1, qs, ()), (_RZ, qs, _QUARTER)]),
        _RY: _one_q(lambda qs, t: [
            (_X1, qs, ()), (_RZ, qs, (t + _PI,)), (_X1, qs, ()), (_RZ, qs, _HALF)]),
        _U3: _one_q(lambda qs, t, p, l: [
            (_RZ, qs, (l,)), (_X1, qs, ()), (_RZ, qs, (t + _PI,)), (_X1, qs, ()),
            (_RZ, qs, (p + _PI,))]),
        _CZ: _keep,
        _CNOT: lambda ins: _cnot_as_cz(ins.qubits),
        _SWAP: lambda ins: [g for qs in _swap_as_pairs(ins.qubits)
                            for g in _cnot_as_cz(qs)],
    }),
    "rz-rx-cnot": _by_opcode({
        **_SHARED_RULES,
        _RX: _keep, _CNOT: _keep,
        _X1: _x1_as_rx,
        _H: _one_q(_h_as_rx),
        _X: _one_q(lambda qs: [(_RX, qs, _HALF)]),
        _Y: _one_q(lambda qs: [(_RZ, qs, _BACK_QUARTER), (_RX, qs, _HALF),
                               (_RZ, qs, _QUARTER)]),
        _RY: _one_q(lambda qs, t: [(_RZ, qs, _BACK_QUARTER), (_RX, qs, (t,)),
                                   (_RZ, qs, _QUARTER)]),
        _U3: _one_q(lambda qs, t, p, l: [(_RZ, qs, (l - _PI / 2,)), (_RX, qs, (t,)),
                                         (_RZ, qs, (p + _PI / 2,))]),
        _CZ: _cz_as_cnot,
        _SWAP: lambda ins: [(_CNOT, qs, ()) for qs in _swap_as_pairs(ins.qubits)],
    }),
}


def _lower(c: Circuit, basis: str, kinds) -> Circuit:
    """Rewrite each instruction of ``kinds`` into ``basis``; keep the rest.

    A rule runs once per distinct instruction object: ``lowered`` maps
    ``id(ins)`` to the instructions made from its rule's triples, and every
    later position of the same object (bodies from the QASM reader or the
    route builder hold one object at many positions) reuses them.  An id is
    unique only while its object lives; ``flat.body`` holds every keyed
    object until this call returns, and the table dies with the call, so no
    id is reused inside it.

    Equal lowered instructions are one object too, whichever inputs they
    come from: ``made`` maps ``(opcode, qubits, params)`` to the one
    instruction of that value, the first one made.  A kept input is made
    anew like any other row.  An instruction that holds a zero angle is
    never keyed: 0.0 == -0.0 and both hash alike, and the output is
    bit-exact, so each is made where its rule puts it.
    """
    if basis not in BASES:
        raise PassError(f"unknown basis {basis!r}; choose from {BASES}")
    flat = flatten(c)
    if basis == "none":
        return flat
    rules = _RULES[basis]
    codes = _opcodes(kinds)
    lowered: dict[int, list] = {}
    made: dict = {}
    items: list = []
    keep = items.append
    for ins in flat.body:
        code = ins.kind._value_
        if code not in codes:
            keep(ins)
            continue
        seq = lowered.get(id(ins))
        if seq is None:
            seq = lowered[id(ins)] = []
            for kind, qs, params in rules[code](ins):
                # a zero angle is never keyed, and None finds nothing
                key = None if 0.0 in params else (kind._value_, qs, params)
                new = made.get(key)
                if new is None:
                    new = _new(Instruction, (kind, qs, params, None, False))
                    if key:
                        made[key] = new
                seq.append(new)
        items += seq
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
