"""Rewrite passes: rotation merging, inverse cancellation, basis lowering."""
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantir import bis, passes
from quantir.bench import random_circuit
from quantir.circuit import Circuit, Instruction, flatten, gate_counts
from quantir.gates import CLS_2Q, PARAM_COUNT, GateKind
from quantir.passes import (BASES, PassError, cancel_adjacent_inverses,
                            decompose_to_basis, expand_swaps,
                            merge_adjacent_rotations)
from quantir.sim import circuit_unitary, equivalent

from conftest import circuits, count_walks, shared_copy

PI = math.pi


def kinds_of(c):
    return [ins.kind for ins in c.body]


def unitaries_match(a, b, tol=1e-9):
    ua, ub = circuit_unitary(a), circuit_unitary(b)
    return abs(np.trace(ua.conj().T @ ub)) / ua.shape[0] > 1 - tol


# -- merge_adjacent_rotations --------------------------------------------------

def test_merge_same_axis():
    c = Circuit(1).rz(0, 0.3).rz(0, 0.4)
    m = merge_adjacent_rotations(c)
    assert kinds_of(m) == [GateKind.RZ]
    assert m.body[0].params[0] == pytest.approx(0.7)


def test_merge_keeps_other_axes_apart():
    c = Circuit(1).rz(0, 0.3).rx(0, 0.4)
    m = merge_adjacent_rotations(c)
    assert kinds_of(m) == [GateKind.RZ, GateKind.RX]


def test_merge_long_run_collapses():
    c = Circuit(1)
    for a in (0.1, 0.2, 0.3, 0.4):
        c.ry(0, a)
    m = merge_adjacent_rotations(c)
    assert kinds_of(m) == [GateKind.RY]
    assert m.body[0].params[0] == pytest.approx(1.0)


def test_merge_blocked_by_gate_on_same_wire():
    c = Circuit(1).rz(0, 0.3).h(0).rz(0, 0.4)
    m = merge_adjacent_rotations(c)
    assert kinds_of(m) == [GateKind.RZ, GateKind.H, GateKind.RZ]


def test_merge_blocked_by_two_qubit_gate():
    c = Circuit(2).rz(0, 0.3).cnot(0, 1).rz(0, 0.4)
    m = merge_adjacent_rotations(c)
    assert len(m.body) == 3


def test_merge_unblocked_on_other_wire():
    c = Circuit(2).rz(0, 0.3).h(1).rz(0, 0.4)
    m = merge_adjacent_rotations(c)
    counts = gate_counts(m)
    assert counts[GateKind.RZ] == 1 and counts[GateKind.H] == 1


def test_merge_blocked_by_barrier_and_measure():
    c = Circuit(1, 1).rz(0, 0.3).barrier(0).rz(0, 0.4)
    assert len(merge_adjacent_rotations(c).body) == 3
    c = Circuit(1, 1).rz(0, 0.3).measure(0, 0)
    c2 = Circuit(1, 1).rz(0, 0.3).measure(0, 0).rz(0, 0.4)
    assert len(merge_adjacent_rotations(c2).body) == 3


def test_merge_cancels_full_turn():
    c = Circuit(1).rz(0, 1.25).rz(0, -1.25)
    assert merge_adjacent_rotations(c).body == []
    c = Circuit(1).rx(0, PI).rx(0, PI)  # 2*pi
    assert merge_adjacent_rotations(c).body == []
    c = Circuit(1).ry(0, 3 * PI).ry(0, PI)  # 4*pi
    assert merge_adjacent_rotations(c).body == []


def test_merge_full_turn_tolerance():
    c = Circuit(1).rz(0, PI).rz(0, PI + 5e-13)
    assert merge_adjacent_rotations(c).body == []
    c = Circuit(1).rz(0, PI).rz(0, PI + 5e-9)
    assert len(merge_adjacent_rotations(c).body) == 1


def test_merge_lone_zero_rotation_survives():
    c = Circuit(1).rz(0, 0.0)
    assert len(merge_adjacent_rotations(c).body) == 1


def test_merge_fixpoint_across_deletion():
    # deleting the middle pair exposes a second merge
    c = Circuit(1).rx(0, 0.5).rz(0, 0.7).rz(0, -0.7).rx(0, 0.5)
    m = merge_adjacent_rotations(c)
    assert kinds_of(m) == [GateKind.RX]
    assert m.body[0].params[0] == pytest.approx(1.0)


def test_merge_combines_its_own_result_with_a_zero_rotation():
    # the drop of the RX pair makes RZ(0.0) meet the merged RZ(0.5) in a
    # second walk; that walk must replace the pair with a new instruction,
    # not read a merged result it returns again as "keep both"
    c = Circuit(1).rz(0, 0.0).rx(0, PI).rx(0, PI).rz(0, 0.2).rz(0, 0.3)
    m = merge_adjacent_rotations(c)
    assert kinds_of(m) == [GateKind.RZ]
    assert m.body[0].params == (0.0 + (0.2 + 0.3),)


def test_merge_flattens_input():
    inner = Circuit(1).rz(0, 0.25)
    c = Circuit(1).rz(0, 0.25).sub(inner)
    m = merge_adjacent_rotations(c)
    assert kinds_of(m) == [GateKind.RZ]
    assert m.body[0].params[0] == pytest.approx(0.5)


@settings(max_examples=30, deadline=None)
@given(circuits(max_qubits=4, max_len=16, measures=False, barriers=True))
def test_merge_preserves_unitary(c):
    m = merge_adjacent_rotations(c)
    stripped = Circuit(c.num_qubits)
    for ins in flatten(c).body:
        if ins.kind is not GateKind.BARRIER:
            stripped.append(ins)
    m_stripped = Circuit(c.num_qubits)
    for ins in m.body:
        if ins.kind is not GateKind.BARRIER:
            m_stripped.append(ins)
    assert unitaries_match(stripped, m_stripped)


# -- cancel_adjacent_inverses --------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda c: c.h(0).h(0),
    lambda c: c.x(0).x(0),
    lambda c: c.y(0).y(0),
    lambda c: c.z(0).z(0),
    lambda c: c.s(0).sdg(0),
    lambda c: c.sdg(0).s(0),
    lambda c: c.t(0).tdg(0),
    lambda c: c.tdg(0).t(0),
    lambda c: c.x1(0).x1(0, dagger=True),
    lambda c: c.x1(0, dagger=True).x1(0),
])
def test_cancel_one_qubit_pairs(build):
    c = Circuit(1)
    build(c)
    assert cancel_adjacent_inverses(c).body == []


@pytest.mark.parametrize("build,n_left", [
    (lambda c: c.x1(0).x1(0), 2),          # sqrt-X squared is X, not identity
    (lambda c: c.s(0).s(0), 2),
    (lambda c: c.t(0).t(0), 2),
    (lambda c: c.h(0).x(0), 2),
    (lambda c: c.i(0).i(0), 2),            # identity gates are left alone
])
def test_cancel_leaves_non_inverse_pairs(build, n_left):
    c = Circuit(1)
    build(c)
    assert len(cancel_adjacent_inverses(c).body) == n_left


def test_cancel_two_qubit_pairs():
    assert cancel_adjacent_inverses(Circuit(2).cnot(0, 1).cnot(0, 1)).body == []
    assert cancel_adjacent_inverses(Circuit(2).cz(0, 1).cz(1, 0)).body == []
    assert cancel_adjacent_inverses(Circuit(2).swap(0, 1).swap(1, 0)).body == []
    assert cancel_adjacent_inverses(Circuit(2).swap(0, 1).swap(0, 1)).body == []


def test_cancel_cnot_orientation_matters():
    c = Circuit(2).cnot(0, 1).cnot(1, 0)
    assert len(cancel_adjacent_inverses(c).body) == 2


def test_cancel_two_qubit_needs_both_wires_clear():
    c = Circuit(2).cnot(0, 1).h(1).cnot(0, 1)
    assert len(cancel_adjacent_inverses(c).body) == 3
    # a spectator on an unrelated wire does not block
    c = Circuit(3).cnot(0, 1).h(2).cnot(0, 1)
    out = cancel_adjacent_inverses(c)
    assert kinds_of(out) == [GateKind.H]


def test_cancel_blocked_by_barrier():
    c = Circuit(1).h(0).barrier(0).h(0)
    assert len(cancel_adjacent_inverses(c).body) == 3


def test_cancel_fixpoint_nesting():
    c = Circuit(1).h(0).x(0).x(0).h(0)
    assert cancel_adjacent_inverses(c).body == []
    c = Circuit(2).cnot(0, 1).h(0).h(0).cnot(0, 1)
    assert cancel_adjacent_inverses(c).body == []


def test_cancel_keeps_rotations():
    c = Circuit(1).rz(0, 0.5).rz(0, -0.5)
    assert len(cancel_adjacent_inverses(c).body) == 2  # merging's job


def test_passes_on_one_object_at_two_adjacent_positions():
    # lowering leaves one object at every position of a value, so a rule
    # may meet the very object it already holds as ``prev``
    rz = Instruction(GateKind.RZ, (0,), (0.25,))
    h = Instruction(GateKind.H, (0,))
    x1 = Instruction(GateKind.X1, (0,))
    x1_dg = Instruction(GateKind.X1, (0,), dagger=True)

    def twice(a, b):
        return Circuit._from_items(1, 0, [a, b])

    assert merge_adjacent_rotations(twice(rz, rz)).body == \
        [Instruction(GateKind.RZ, (0,), (0.5,))]
    assert cancel_adjacent_inverses(twice(h, h)).body == []
    kept = cancel_adjacent_inverses(twice(x1, x1)).body
    assert kept == [x1, x1] and kept[0] is kept[1] is x1
    assert cancel_adjacent_inverses(twice(x1, x1_dg)).body == []


@settings(max_examples=30, deadline=None)
@given(circuits(max_qubits=4, max_len=16, measures=False, barriers=False))
def test_cancel_preserves_unitary(c):
    out = cancel_adjacent_inverses(c)
    assert unitaries_match(flatten(c), out)


# -- decompose_to_basis ---------------------------------------------------------

ALLOWED = {
    "rz-x1-cz": {GateKind.RZ, GateKind.X1, GateKind.CZ,
                 GateKind.MEASURE, GateKind.BARRIER},
    "rz-rx-cnot": {GateKind.RZ, GateKind.RX, GateKind.CNOT,
                   GateKind.MEASURE, GateKind.BARRIER},
}

FIXED_GATES = [
    (GateKind.H, ()), (GateKind.X, ()), (GateKind.Y, ()), (GateKind.Z, ()),
    (GateKind.S, ()), (GateKind.SDG, ()), (GateKind.T, ()), (GateKind.TDG, ()),
    (GateKind.X1, ()),
    (GateKind.RX, (0.77,)), (GateKind.RY, (-1.3,)), (GateKind.RZ, (2.2,)),
    (GateKind.U3, (0.4, -0.9, 1.6)),
]


@pytest.mark.parametrize("basis", ["rz-x1-cz", "rz-rx-cnot"])
@pytest.mark.parametrize("kind,params", FIXED_GATES)
def test_lowered_one_qubit_gates_match(basis, kind, params):
    c = Circuit(1)
    c.append_gate(kind, (0,), params)
    low = decompose_to_basis(c, basis)
    assert all(ins.kind in ALLOWED[basis] for ins in low.body)
    assert not any(ins.dagger for ins in low.body)
    assert unitaries_match(c, low)


@pytest.mark.parametrize("basis", ["rz-x1-cz", "rz-rx-cnot"])
@pytest.mark.parametrize("kind", [GateKind.CNOT, GateKind.CZ, GateKind.SWAP])
@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_lowered_two_qubit_gates_match(basis, kind, order):
    c = Circuit(2)
    c.append_gate(kind, order)
    low = decompose_to_basis(c, basis)
    assert all(ins.kind in ALLOWED[basis] for ins in low.body)
    assert unitaries_match(c, low)


@pytest.mark.parametrize("basis", ["rz-x1-cz", "rz-rx-cnot"])
def test_lowered_daggered_x1_matches(basis):
    c = Circuit(1).x1(0, dagger=True)
    low = decompose_to_basis(c, basis)
    assert all(ins.kind in ALLOWED[basis] for ins in low.body)
    assert not any(ins.dagger for ins in low.body)
    assert unitaries_match(c, low)


def test_exact_h_sequence_in_x1_basis():
    low = decompose_to_basis(Circuit(1).h(0), "rz-x1-cz")
    assert kinds_of(low) == [GateKind.RZ, GateKind.X1, GateKind.RZ]
    assert low.body[0].params[0] == PI / 2
    assert low.body[2].params[0] == PI / 2


def test_exact_cnot_sequence_in_x1_basis():
    low = decompose_to_basis(Circuit(2).cnot(0, 1), "rz-x1-cz")
    assert kinds_of(low) == [GateKind.RZ, GateKind.X1, GateKind.RZ,
                             GateKind.CZ,
                             GateKind.RZ, GateKind.X1, GateKind.RZ]
    assert low.body[3].qubits == (0, 1)
    assert {ins.qubits for ins in low.body if ins.kind is not GateKind.CZ} \
        == {(1,)}


@pytest.mark.parametrize("basis", ["rz-x1-cz", "rz-rx-cnot"])
def test_lowered_sequences_share_their_operand_tuples(basis):
    # a one-qubit rule builds its whole sequence on its input's tuple
    for ins in (Circuit(2).h(0).x(1).y(0).rx(1, 0.5).ry(0, 0.25)
                .u3(1, 0.1, 0.2, 0.3).s(0).t(1).x1(0, dagger=True).body):
        seq = decompose_to_basis(Circuit._from_items(2, 0, [ins]), basis).body
        assert seq and all(out.qubits is ins.qubits for out in seq)
    # a two-qubit rule makes one tuple for the one-qubit rows of its target
    for build in (lambda c: c.cnot(0, 1), lambda c: c.cz(0, 1)):
        c = build(Circuit(2))
        seq = decompose_to_basis(c, basis).body
        ones = {id(out.qubits) for out in seq if len(out.qubits) == 1}
        assert len(ones) <= 1


@pytest.mark.parametrize("basis", ["rz-x1-cz", "rz-rx-cnot"])
def test_every_rule_returns_valid_triples_that_lowering_makes(basis):
    # each rule maps an instruction to (kind, qubits, params) triples of its
    # basis, every one a valid Instruction on the input's operands; the
    # lowered body holds those values, in that order
    inputs = []
    for kind in GateKind:
        if kind.opclass < 4:
            c = Circuit(2)
            qs = (1, 0) if kind.opclass == CLS_2Q else (1,)
            c.append_gate(kind, qs, (0.25, -1.5, 2.0)[:PARAM_COUNT[kind.opclass]])
            inputs += c.body
    inputs += Circuit(1).x1(0, dagger=True).body
    for ins in inputs:
        triples = list(passes._RULES[basis][ins.kind.value](ins))
        made = [Instruction(kind, qs, params) for kind, qs, params in triples]
        assert all(out.kind in ALLOWED[basis] for out in made), ins
        assert all(set(qs) <= set(ins.qubits) for _, qs, _ in triples), ins
        assert (ins.kind is GateKind.I) == (not triples)
        lowered = decompose_to_basis(Circuit._from_items(2, 0, [ins]), basis)
        assert lowered.body == made, ins


def test_lowering_keeps_signed_zero_angles_apart():
    # 0.0 == -0.0, so a zero angle is never keyed by value: each sign keeps
    # its own instruction, and both reach the encoded bytes
    c = Circuit(1, 0).u3(0, 0.3, 0.7, 0.0).u3(0, 0.3, 0.7, -0.0)
    lowered = decompose_to_basis(c, "rz-x1-cz")
    body = lowered.body
    assert len(body) == 10
    plus, minus = body[0], body[5]
    assert plus.kind is minus.kind is GateKind.RZ and plus is not minus
    assert math.copysign(1.0, plus.params[0]) == 1.0
    assert math.copysign(1.0, minus.params[0]) == -1.0
    # the rest of the two sequences are equal values, so one object each
    assert all(a is b for a, b in zip(body[1:5], body[6:]))
    for compress in (False, True):
        back = bis.decode(bis.encode(lowered, compress=compress))[0].body
        assert back == body  # bit-exact angles
        assert math.copysign(1.0, back[5].params[0]) == -1.0


@pytest.mark.parametrize("basis", ["rz-x1-cz", "rz-rx-cnot"])
def test_lowered_body_holds_one_object_per_value(basis):
    c = random_circuit(5, 30, seed=7)
    # equal inputs as distinct objects, and inputs that lower to equal rows
    c.rz(0, 0.5).rz(0, 0.5).h(1).h(1).x1(2).x(2).rx(3, PI / 2).cnot(3, 4).cnot(3, 4)
    c.rz(4, 0.0).rz(4, -0.0).u3(0, 0.0, 0.2, 0.0)
    body = decompose_to_basis(c, basis).body
    ids = {}
    for ins in body:
        if 0.0 not in ins.params:
            key = (ins.kind, ins.qubits, ins.params, ins.dagger)
            ids.setdefault(key, set()).add(id(ins))
    assert ids and all(len(objects) == 1 for objects in ids.values())
    zeros = [ins for ins in body if 0.0 in ins.params]
    assert len({id(ins) for ins in zeros}) == len(zeros)  # never shared by value


def test_identity_gate_dropped():
    for basis in ("rz-x1-cz", "rz-rx-cnot"):
        assert decompose_to_basis(Circuit(1).i(0), basis).body == []


def test_measure_barrier_pass_through():
    c = Circuit(2, 1).h(0).barrier(0, 1).measure(0, 0)
    for basis in ("rz-x1-cz", "rz-rx-cnot"):
        low = decompose_to_basis(c, basis)
        assert low.body[-1].kind is GateKind.MEASURE
        assert low.body[-1].cbit == 0
        assert any(ins.kind is GateKind.BARRIER for ins in low.body)


def test_none_basis_flattens_only():
    inner = Circuit(2).cnot(0, 1)
    c = Circuit(2).h(0).sub(inner)
    out = decompose_to_basis(c, "none")
    assert kinds_of(out) == [GateKind.H, GateKind.CNOT]


def test_unknown_basis_rejected():
    with pytest.raises(PassError):
        decompose_to_basis(Circuit(1).h(0), "clifford")
    with pytest.raises(PassError):
        expand_swaps(Circuit(1).h(0), "u-cx")


def test_bases_tuple():
    assert BASES == ("none", "rz-x1-cz", "rz-rx-cnot")


@pytest.mark.parametrize("basis", ["rz-x1-cz", "rz-rx-cnot"])
@settings(max_examples=20, deadline=None)
@given(c=circuits(max_qubits=3, max_len=12, measures=False, barriers=False))
def test_lowering_preserves_unitary(basis, c):
    low = decompose_to_basis(c, basis)
    assert all(ins.kind in ALLOWED[basis] for ins in low.body)
    assert unitaries_match(flatten(c), low)


# -- expand_swaps ----------------------------------------------------------------

@pytest.mark.parametrize("basis", ["rz-x1-cz", "rz-rx-cnot"])
def test_expand_swaps_rewrites_only_swaps(basis):
    c = Circuit(3).h(0).swap(0, 1).cnot(1, 2).swap(2, 0)
    out = expand_swaps(c, basis)
    assert all(ins.kind is not GateKind.SWAP for ins in out.body)
    # non-swap gates are untouched, in order
    kept = [ins.kind for ins in out.body
            if ins.kind in (GateKind.H, GateKind.CNOT)]
    if basis == "rz-x1-cz":
        assert kept == [GateKind.H, GateKind.CNOT]
    assert unitaries_match(flatten(c), out)


def test_expand_swaps_none_passthrough():
    c = Circuit(2).swap(0, 1)
    assert expand_swaps(c, "none") == flatten(c)


def test_expand_swaps_in_cnot_basis_is_three_cnots():
    out = expand_swaps(Circuit(2).swap(0, 1), "rz-rx-cnot")
    assert kinds_of(out) == [GateKind.CNOT] * 3
    assert [ins.qubits for ins in out.body] == [(0, 1), (1, 0), (0, 1)]


# -- differential check against the loops the passes were written as -----------
# Test-local copies of each pass's loop as first written: one fixpoint loop
# for merging, one for cancellation, and one lowering loop each for
# ``decompose_to_basis`` and ``expand_swaps``.  The per-gate lowering rules
# are the library's own, and each triple they return is built through the
# validating ``Instruction``.

from quantir.passes import _RULES  # noqa: E402

_REF_ROTS = (GateKind.RX, GateKind.RY, GateKind.RZ)
_REF_SELF_CANCEL = {GateKind.H, GateKind.X, GateKind.Y, GateKind.Z}
_REF_PHASE_PAIRS = {(GateKind.S, GateKind.SDG), (GateKind.SDG, GateKind.S),
                    (GateKind.T, GateKind.TDG), (GateKind.TDG, GateKind.T)}


def _ref_rebuild(template, body):
    out = Circuit(template.num_qubits, template.num_cbits, name=template.name)
    for ins in body:
        out.append(ins)
    return out


def _ref_merge(c, tol=1e-12):
    flat = flatten(c)
    body = flat.body
    changed = True
    while changed:
        changed = False
        out = []
        last_idx = {}
        for ins in body:
            if ins.kind in _REF_ROTS:
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
                            out[li] = Instruction(ins.kind, ins.qubits, (total,))
                        changed = True
                        continue
            out.append(ins)
            for q in ins.qubits:
                last_idx[q] = len(out) - 1
        body = [ins for ins in out if ins is not None]
    return _ref_rebuild(flat, body)


def _ref_cancels(prev, cur):
    pk, ck = prev.kind, cur.kind
    if pk is ck:
        if pk in _REF_SELF_CANCEL:
            return True
        if pk is GateKind.X1:
            return prev.dagger != cur.dagger
        if pk is GateKind.CNOT:
            return prev.qubits == cur.qubits
        if pk is GateKind.CZ or pk is GateKind.SWAP:
            return set(prev.qubits) == set(cur.qubits)
        return False
    return (pk, ck) in _REF_PHASE_PAIRS


def _ref_cancel(c):
    flat = flatten(c)
    body = flat.body
    changed = True
    while changed:
        changed = False
        out = []
        last_idx = {}
        for ins in body:
            cls = ins.kind.opclass
            if cls == 0 and ins.kind is not GateKind.I:
                li = last_idx.get(ins.qubits[0], -1)
                if li >= 0 and out[li] is not None and _ref_cancels(out[li], ins):
                    out[li] = None
                    last_idx[ins.qubits[0]] = -1
                    changed = True
                    continue
            elif cls == CLS_2Q:
                a, b = ins.qubits
                la, lb = last_idx.get(a, -1), last_idx.get(b, -1)
                if la == lb and la >= 0 and out[la] is not None \
                        and _ref_cancels(out[la], ins):
                    out[la] = None
                    last_idx[a] = last_idx[b] = -1
                    changed = True
                    continue
            out.append(ins)
            for q in ins.qubits:
                last_idx[q] = len(out) - 1
        body = [ins for ins in out if ins is not None]
    return _ref_rebuild(flat, body)


def _ref_lower(basis, ins):
    return [Instruction(kind, qubits, params)
            for kind, qubits, params in _RULES[basis][ins.kind.value](ins)]


def _ref_decompose(c, basis):
    flat = flatten(c)
    if basis == "none":
        return flat
    body = []
    for ins in flat.body:
        body.extend([ins] if ins.kind.opclass >= 4 else _ref_lower(basis, ins))
    return _ref_rebuild(flat, body)


def _ref_expand_swaps(c, basis):
    flat = flatten(c)
    if basis == "none":
        return flat
    body = []
    for ins in flat.body:
        body.extend(_ref_lower(basis, ins) if ins.kind is GateKind.SWAP else [ins])
    return _ref_rebuild(flat, body)


_NEAR_TURNS = [PI / 2, -PI / 2, PI, -PI, 3 * PI / 2, 2 * PI, -2 * PI, 0.0,
               PI / 2 + 1e-13, 0.25]


@st.composite
def rewritable(draw):
    """Short circuits over few wires and turn-sized angles, so pairs meet."""
    n = draw(st.integers(min_value=1, max_value=3))
    c = Circuit(n, name=draw(st.sampled_from([None, "r"])))
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        q = draw(st.integers(min_value=0, max_value=n - 1))
        which = draw(st.sampled_from(["1q", "1q", "rot", "rot", "2q", "2q",
                                      "u3", "measure", "barrier"]))
        if which == "1q":
            c.append_gate(draw(st.sampled_from(
                [GateKind.I, GateKind.H, GateKind.X, GateKind.Y, GateKind.Z,
                 GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG,
                 GateKind.X1])), (q,), dagger=draw(st.booleans()))
        elif which == "rot":
            c.append_gate(draw(st.sampled_from(_REF_ROTS)), (q,),
                          (draw(st.sampled_from(_NEAR_TURNS)),),
                          dagger=draw(st.booleans()))
        elif which == "u3":
            c.u3(q, *draw(st.lists(st.sampled_from(_NEAR_TURNS), min_size=3,
                                   max_size=3)))
        elif which == "2q" and n >= 2:
            q2 = draw(st.integers(min_value=0, max_value=n - 1).filter(
                lambda x: x != q))
            c.append_gate(draw(st.sampled_from(
                [GateKind.CNOT, GateKind.CZ, GateKind.SWAP])), (q, q2))
        elif which == "measure":
            c.measure(q, q)
        elif which == "barrier":
            c.barrier(*range(draw(st.integers(min_value=1, max_value=n))))
    return c


def _same_output(got, want):
    assert (got.num_qubits, got.num_cbits, got.name) == \
        (want.num_qubits, want.num_cbits, want.name)
    assert got.body == want.body  # Instruction equality is bit-exact


@settings(max_examples=150, deadline=None)
@given(c=st.one_of(rewritable(), circuits(max_qubits=4, max_len=24,
                                           measures=True, barriers=True)),
       basis=st.sampled_from(BASES))
def test_passes_match_reference_loops(c, basis):
    _same_output(merge_adjacent_rotations(c), _ref_merge(c))
    _same_output(cancel_adjacent_inverses(c), _ref_cancel(c))
    _same_output(decompose_to_basis(c, basis), _ref_decompose(c, basis))
    _same_output(expand_swaps(c, basis), _ref_expand_swaps(c, basis))
    # the pipeline order, where each pass sees another's output
    lowered = decompose_to_basis(c, basis)
    _same_output(cancel_adjacent_inverses(merge_adjacent_rotations(lowered)),
                 _ref_cancel(_ref_merge(_ref_decompose(c, basis))))


@settings(max_examples=100, deadline=None)
@given(c=st.one_of(rewritable(), circuits(max_qubits=4, max_len=24,
                                           measures=True, barriers=True)),
       basis=st.sampled_from(BASES))
def test_passes_on_shared_instructions_match_reference_loops(c, basis):
    # one object for all equal instructions, as the QASM reader, lowering
    # and the route builder may leave them; the reference loops keep no
    # table, so an instruction's output must not depend on another's
    s = shared_copy(c)
    _same_output(merge_adjacent_rotations(s), _ref_merge(c))
    _same_output(cancel_adjacent_inverses(s), _ref_cancel(c))
    _same_output(decompose_to_basis(s, basis), _ref_decompose(c, basis))
    _same_output(expand_swaps(s, basis), _ref_expand_swaps(c, basis))
    lowered = shared_copy(decompose_to_basis(s, basis))
    _same_output(cancel_adjacent_inverses(merge_adjacent_rotations(lowered)),
                 _ref_cancel(_ref_merge(_ref_decompose(c, basis))))


# -- fixed points and the drop-site check ---------------------------------------
# ``_peephole`` walks again only when a drop site would change in the next
# walk.  Its outputs must still be fixed points of their pass, and equal the
# reference loops, which always walk once more to confirm.  Wide bodies with
# long idle stretches put a drop's neighbours on its wire far apart, which
# is where the check's bounded scans give up.

_WIDE_1Q = [GateKind.H, GateKind.X, GateKind.Z, GateKind.S, GateKind.SDG,
            GateKind.T, GateKind.TDG, GateKind.X1]
_WIDE_INVERSE = {GateKind.S: GateKind.SDG, GateKind.SDG: GateKind.S,
                 GateKind.T: GateKind.TDG, GateKind.TDG: GateKind.T}


def _wide_gate(rng, wires):
    """One gate on ``wires`` as ``(kind, qubits, params, dagger)``."""
    roll = rng.random()
    if roll < 0.3 and len(wires) >= 2:
        kind = rng.choice([GateKind.CNOT, GateKind.CZ, GateKind.SWAP])
        return kind, tuple(rng.sample(wires, 2)), (), False
    q = rng.choice(wires)
    if roll < 0.6:
        return rng.choice(_REF_ROTS), (q,), (rng.choice(_NEAR_TURNS),), False
    return rng.choice(_WIDE_1Q), (q,), (), rng.random() < 0.3


def _wide_inverse(gate):
    kind, qs, params, dagger = gate
    if kind in _REF_ROTS:
        return kind, qs, (-params[0],), dagger
    if kind is GateKind.CZ or kind is GateKind.SWAP:
        return kind, qs[::-1], params, dagger  # symmetric
    if kind is GateKind.X1:
        return kind, qs, params, not dagger
    return _WIDE_INVERSE.get(kind, kind), qs, params, dagger


@st.composite
def wide_bodies(draw):
    """Up to 12 wires and about 200 gates, in stretches on few wires.

    Each stretch plays a few gates on one to three wires, then often their
    inverses in reverse order, so drops nest and each exposes the next pair.
    Between them, gates land on wires outside the stretch, which are idle
    otherwise, so a drop's neighbours on its wire lie far apart.
    """
    # one seed, not a draw per gate: per-gate draws make the smallest
    # example too large for Hypothesis
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = rng.randint(2, 12)
    c = Circuit(n)
    while len(c) < 200:
        wires = rng.sample(range(n), rng.randint(1, min(3, n)))
        run = [_wide_gate(rng, wires) for _ in range(rng.randint(1, 12))]
        if rng.random() < 0.6:
            # now and then one gate is no inverse, and the nest stops there
            run += [_wide_gate(rng, wires) if rng.random() < 0.1
                    else _wide_inverse(g) for g in reversed(run)]
        for kind, qs, params, dagger in run:
            c.append_gate(kind, qs, params, dagger=dagger)
            for _ in range(rng.choice([0, 0, 1, 3, 8])):
                kind, qs, params, dagger = _wide_gate(rng, range(n))
                c.append_gate(kind, qs, params, dagger=dagger)
        if rng.random() < 0.1:
            c.barrier(*wires)
    return c


_BODIES = st.one_of(rewritable(), wide_bodies())
# the scan length of the drop-site check: the library's, and ones so short
# that most checks give up and walk again
_REACHES = (passes._REACH, 1, 4)


@settings(max_examples=120, deadline=None)
@given(c=_BODIES)
def test_peephole_outputs_are_fixed_points(c):
    for reach in _REACHES:
        with mock.patch.object(passes, "_REACH", reach):
            for run in (merge_adjacent_rotations, cancel_adjacent_inverses):
                once = run(c)
                _same_output(run(once), once)
            merged = merge_adjacent_rotations(c)
            both = cancel_adjacent_inverses(merged)
            if len(both) == len(merged):
                # the case in which transpile skips its post-route passes
                _same_output(merge_adjacent_rotations(both), both)


@settings(max_examples=60, deadline=None)
@given(c=wide_bodies())
def test_peephole_on_wide_bodies_matches_reference_loops(c):
    want_merge, want_cancel = _ref_merge(c), _ref_cancel(c)
    for reach in _REACHES:
        with mock.patch.object(passes, "_REACH", reach):
            _same_output(merge_adjacent_rotations(c), want_merge)
            _same_output(cancel_adjacent_inverses(c), want_cancel)
            _same_output(cancel_adjacent_inverses(merge_adjacent_rotations(c)),
                         _ref_cancel(want_merge))


@pytest.mark.parametrize("build,walks", [
    # the X pair's drop leaves H next to S: nothing to cancel, one walk
    (lambda: Circuit(1).h(0).x(0).x(0).s(0), [1]),
    # ... and H next to H: a second walk drops them, and nothing is left
    (lambda: Circuit(1).h(0).x(0).x(0).h(0), [1, 1]),
    # the CNOT pair meets again only if nothing on wire 1 comes between
    (lambda: Circuit(2).cnot(0, 1).h(0).h(0).x(1).cnot(0, 1), [1]),
    (lambda: Circuit(2).cnot(0, 1).h(0).h(0).cnot(0, 1), [1, 1]),
    # a CNOT the other way round is no inverse
    (lambda: Circuit(2).cnot(0, 1).h(1).h(1).cnot(1, 0), [1]),
    # the CZ before the drop is not on wire 1, so the next walk never offers
    # it the CZ after, though the two would cancel as a pair
    (lambda: Circuit(3).cz(0, 2).h(0).h(0).cz(0, 1), [1]),
])
def test_cancel_walks_again_only_at_an_exposed_drop(monkeypatch, build, walks):
    drops = count_walks(monkeypatch)
    cancel_adjacent_inverses(build())
    assert drops == walks


@pytest.mark.parametrize("build", [
    # the first instruction after the drop lies past the scan
    lambda: Circuit(2).h(0).x(0).x(0).y(1).h(0),
    # the last one before it does
    lambda: Circuit(2).h(0).y(1).x(0).x(0).h(0),
    # the scan for a gate on the CNOT's other wire ends before the CNOT
    lambda: Circuit(3).cnot(0, 1).h(0).t(2).t(2).t(2).h(0).cnot(0, 1),
])
def test_a_drop_site_check_that_gives_up_walks_again(monkeypatch, build):
    monkeypatch.setattr(passes, "_REACH", 1)
    drops = count_walks(monkeypatch)
    c = build()
    _same_output(cancel_adjacent_inverses(c), _ref_cancel(c))
    assert drops == [1, 1]


def test_merge_walks_again_only_at_an_exposed_drop(monkeypatch):
    drops = count_walks(monkeypatch)
    m = merge_adjacent_rotations(Circuit(1).rz(0, 0.5).rx(0, PI).rx(0, PI)
                                 .ry(0, 0.25))
    assert kinds_of(m) == [GateKind.RZ, GateKind.RY]
    assert drops == [1]
    drops.clear()
    m = merge_adjacent_rotations(Circuit(1).rz(0, 0.5).rx(0, PI).rx(0, PI)
                                 .rz(0, 0.25).ry(0, 0.5).ry(0, -0.5).rz(0, 1.0))
    assert kinds_of(m) == [GateKind.RZ] and m.body[0].params == (0.5 + 0.25 + 1.0,)
    # walk 1 drops the RX and RY pairs; walk 2 meets RZ(0.5) and RZ(0.25),
    # then RZ(1.0), and drops nothing, so it is the last
    assert drops == [2, 0]
