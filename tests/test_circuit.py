import copy
import math
import operator
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantir import bis
from quantir.bench import random_circuit
from quantir.circuit import (
    Circuit, CircuitError, Instruction, SubcircuitInstance,
    dagger_instruction, depth, flatten, gate_counts, split_trailing_measures,
)
from quantir.gates import (
    CLS_2Q, CLS_BARRIER, CLS_MEASURE, PARAM_COUNT, GateKind, KIND_BY_OPCODE,
    X1_DAGGER_OPCODE,
)

from conftest import angles, circuits, ghz


class TestInstruction:
    def test_arity_validation(self):
        with pytest.raises(CircuitError):
            Instruction(GateKind.H, (0, 1))
        with pytest.raises(CircuitError):
            Instruction(GateKind.CNOT, (0,))
        with pytest.raises(CircuitError):
            Instruction(GateKind.CNOT, (1, 1))
        with pytest.raises(CircuitError):
            Instruction(GateKind.BARRIER, ())

    def test_param_validation(self):
        with pytest.raises(CircuitError):
            Instruction(GateKind.RX, (0,))
        with pytest.raises(CircuitError):
            Instruction(GateKind.H, (0,), (1.0,))
        with pytest.raises(CircuitError):
            Instruction(GateKind.U3, (0,), (1.0, 2.0))
        with pytest.raises(CircuitError):
            Instruction(GateKind.RZ, (0,), (float("nan"),))
        with pytest.raises(CircuitError):
            Instruction(GateKind.RZ, (0,), (float("inf"),))

    def test_measure_validation(self):
        with pytest.raises(CircuitError):
            Instruction(GateKind.MEASURE, (0,))  # no cbit
        with pytest.raises(CircuitError):
            Instruction(GateKind.MEASURE, (0,), cbit=0, dagger=True)
        with pytest.raises(CircuitError):
            Instruction(GateKind.H, (0,), cbit=0)

    def test_immutable(self):
        ins = Instruction(GateKind.H, (0,))
        with pytest.raises(AttributeError):
            ins.kind = GateKind.X

    def test_opcode(self):
        assert Instruction(GateKind.X1, (0,)).opcode == 0x09
        assert Instruction(GateKind.X1, (0,), dagger=True).opcode == X1_DAGGER_OPCODE
        assert Instruction(GateKind.CNOT, (0, 1)).opcode == 0x60

    def test_equality_bit_exact(self):
        a = Instruction(GateKind.RZ, (0,), (0.0,))
        b = Instruction(GateKind.RZ, (0,), (-0.0,))
        assert a != b
        assert a == Instruction(GateKind.RZ, (0,), (0.0,))


_FIELDS = ("kind", "qubits", "params", "cbit", "dagger")


def _samples():
    """One instruction of each shape, each field set to a non-default."""
    return [Instruction(GateKind.H, (0,)),
            Instruction(GateKind.X1, (1,), dagger=True),
            Instruction(GateKind.RZ, (2,), (-0.0,)),
            Instruction(GateKind.U3, (0,), (0.1, 0.0, -2.5)),
            Instruction(GateKind.CNOT, (1, 0)),
            Instruction(GateKind.MEASURE, (1,), cbit=3),
            Instruction(GateKind.BARRIER, (2, 0, 1))]


class TestInstructionSemantics:
    """Comparison, hashing and immutability, whatever the record's layout."""

    def test_equality_is_bit_exact_on_every_angle(self):
        for params in [(0.0, 0.0, 0.0), (-0.0, 0.0, 0.0), (0.0, -0.0, 0.0),
                       (0.0, 0.0, -0.0)]:
            a = Instruction(GateKind.U3, (0,), params)
            for other in [(0.0, 0.0, 0.0), (-0.0, 0.0, 0.0),
                          (0.0, -0.0, 0.0), (0.0, 0.0, -0.0)]:
                b = Instruction(GateKind.U3, (0,), other)
                same = [math.copysign(1, p) for p in params] == \
                    [math.copysign(1, p) for p in other]
                assert (a == b) is same and (a != b) is (not same)

    def test_ne_follows_eq(self):
        ins = _samples()
        for x in ins:
            for y in ins + _samples():
                assert (x != y) is (not (x == y))
        assert (ins[0] == Instruction(GateKind.H, (0,))) is True
        assert (ins[0] != Instruction(GateKind.H, (0,))) is False
        assert (ins[0] != Instruction(GateKind.H, (1,))) is True
        assert (ins[1] != Instruction(GateKind.X1, (1,))) is True
        assert (ins[5] != Instruction(GateKind.MEASURE, (1,), cbit=2)) is True

    def test_unhashable(self):
        for ins in _samples():
            with pytest.raises(TypeError):
                hash(ins)
            with pytest.raises(TypeError):
                {ins}

    def test_never_equals_a_plain_tuple(self):
        for ins in _samples():
            fields = tuple(getattr(ins, name) for name in _FIELDS)
            for other in (fields, fields[:2], ()):
                assert (ins == other) is False and (other == ins) is False
                assert (ins != other) is True and (other != ins) is True
            assert ins not in [fields]
            assert [ins] != [fields] and [fields] != [ins]

    @pytest.mark.parametrize("cmp", [operator.lt, operator.le, operator.gt,
                                     operator.ge])
    def test_unordered(self, cmp):
        ins = _samples()
        for x in ins:
            fields = tuple(getattr(x, name) for name in _FIELDS)
            for y in (x, ins[0], fields, ()):
                with pytest.raises(TypeError):
                    cmp(x, y)
                with pytest.raises(TypeError):
                    cmp(y, x)
        with pytest.raises(TypeError):
            sorted(ins)

    def test_fields_and_new_attributes_refuse_assignment(self):
        for ins in _samples():
            before = [getattr(ins, name) for name in _FIELDS]
            for name in _FIELDS:
                with pytest.raises(AttributeError):
                    setattr(ins, name, getattr(ins, name))
            for name in ("extra", "opcode", "__dict__"):
                with pytest.raises(AttributeError):
                    setattr(ins, name, 1)
            assert [getattr(ins, name) for name in _FIELDS] == before

    def test_fields_refuse_deletion(self):
        for ins in _samples():
            for name in _FIELDS:
                with pytest.raises(AttributeError):
                    delattr(ins, name)

    def test_no_unvalidated_builder(self):
        # only the constructor, which validates, makes an instruction from
        # outside the package: no namedtuple-style _make or _replace
        for name in ("_make", "_replace"):
            assert not hasattr(Instruction, name)
        with pytest.raises(CircuitError):
            Instruction(GateKind.CNOT, (1, 1))

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_and_pickles_equal_their_source(self, clone):
        for ins in _samples():
            out = clone(ins)
            assert type(out) is Instruction and out == ins
        built = Circuit(2, 1).h(0).cnot(0, 1).rz(1, -0.0).measure(1, 0)
        decoded = bis.decode(bis.encode([built]))[0]
        assert decoded._items is None  # packed columns only
        for c in (built, decoded):
            out = clone(c)
            assert out == c and out.body == built.body

    def test_unpickling_validates(self):
        # a copy or an unpickle calls the class with the five fields, so a
        # stream holding bad fields fails as the constructor does
        build, args = Instruction(GateKind.CNOT, (1, 0)).__reduce_ex__(2)[:2]
        assert args == (Instruction, GateKind.CNOT, (1, 0), (), None, False)
        with pytest.raises(CircuitError, match="distinct"):
            build(Instruction, GateKind.CNOT, (1, 1), (), None, False)


class TestDagger:
    def test_self_inverse(self):
        for k in (GateKind.I, GateKind.H, GateKind.X, GateKind.Y, GateKind.Z):
            ins = Instruction(k, (0,))
            assert dagger_instruction(ins) == ins

    def test_phase_pairs(self):
        assert dagger_instruction(Instruction(GateKind.S, (0,))).kind is GateKind.SDG
        assert dagger_instruction(Instruction(GateKind.SDG, (0,))).kind is GateKind.S
        assert dagger_instruction(Instruction(GateKind.T, (0,))).kind is GateKind.TDG
        assert dagger_instruction(Instruction(GateKind.TDG, (0,))).kind is GateKind.T

    def test_rotation_negates(self):
        out = dagger_instruction(Instruction(GateKind.RX, (0,), (0.5,)))
        assert out == Instruction(GateKind.RX, (0,), (-0.5,))

    def test_u3_swaps_phi_lambda(self):
        out = dagger_instruction(Instruction(GateKind.U3, (0,), (0.1, 0.2, 0.3)))
        assert out == Instruction(GateKind.U3, (0,), (-0.1, -0.3, -0.2))

    def test_x1_toggles_flag(self):
        ins = Instruction(GateKind.X1, (0,))
        d = dagger_instruction(ins)
        assert d.kind is GateKind.X1 and d.dagger
        assert dagger_instruction(d) == ins

    def test_measure_rejected(self):
        with pytest.raises(CircuitError):
            dagger_instruction(Instruction(GateKind.MEASURE, (0,), cbit=0))


class TestCircuitBuilding:
    def test_builders_chain(self):
        c = Circuit(2).h(0).cnot(0, 1).rz(1, 0.5).measure(0, 0)
        assert len(c) == 4
        assert c.body[0].kind is GateKind.H

    def test_default_cbits(self):
        assert Circuit(3).num_cbits == 3
        assert Circuit(3, 1).num_cbits == 1

    @pytest.mark.parametrize("args", [(-1,), (2, -1)])
    def test_negative_width_rejected(self, args):
        with pytest.raises(CircuitError, match="must be >= 0"):
            Circuit(*args)

    def test_operand_range_checks(self):
        c = Circuit(2, 1)
        with pytest.raises(CircuitError):
            c.h(2)
        with pytest.raises(CircuitError):
            c.cnot(0, 5)
        with pytest.raises(CircuitError):
            c.measure(0, 1)

    def test_subcircuit_width_check(self):
        small = Circuit(2)
        big = Circuit(3).h(0)
        with pytest.raises(CircuitError):
            small.sub(big)

    def test_circular_containment_rejected(self):
        a = Circuit(2)
        b = Circuit(2)
        a.sub(b)
        with pytest.raises(CircuitError):
            b.sub(a)
        with pytest.raises(CircuitError):
            a.sub(a)

    def test_append_rejects_junk(self):
        with pytest.raises(CircuitError):
            Circuit(1).append("H 0")


class TestFlatten:
    def test_flat_circuit_returned_as_is(self):
        c = ghz()
        assert flatten(c) is c

    def test_nested_expansion(self):
        inner = Circuit(2).h(0).cnot(0, 1)
        outer = Circuit(2).x(1).sub(inner).z(0)
        flat = flatten(outer)
        kinds = [i.kind for i in flat.body]
        assert kinds == [GateKind.X, GateKind.H, GateKind.CNOT, GateKind.Z]

    @pytest.mark.parametrize("compress", [False, True])
    def test_decoded_sub_circuit_expands(self, compress):
        inner = Circuit(2).h(0).cnot(0, 1).rz(1, 0.5)
        decoded = bis.decode(bis.encode([inner], compress=compress))[0]
        assert decoded._items is None  # columns only, until a body is read
        outer = Circuit(2).x(1).sub(decoded)
        assert flatten(outer).body == [Instruction(GateKind.X, (1,))] + inner.body

    def test_dagger_block_reverses_and_adjoints(self):
        inner = Circuit(2).s(0).rx(1, 0.5).cnot(0, 1)
        flat = flatten(Circuit(2).sub(inner, dagger=True))
        assert [i.kind for i in flat.body] == [GateKind.CNOT, GateKind.RX, GateKind.SDG]
        assert flat.body[1].params == (-0.5,)

    def test_double_dagger_cancels(self):
        inner = Circuit(1).t(0).x1(0)
        mid = Circuit(1).sub(inner, dagger=True)
        flat = flatten(Circuit(1).sub(mid, dagger=True))
        assert flat == flatten(inner)

    def test_instruction_level_dagger_resolves(self):
        c = Circuit(1)
        c.append(Instruction(GateKind.S, (0,), dagger=True))
        c.append(Instruction(GateKind.RZ, (0,), (1.5,), dagger=True))
        flat = flatten(c)
        assert flat.body[0].kind is GateKind.SDG
        assert flat.body[1] == Instruction(GateKind.RZ, (0,), (-1.5,))

    def test_measure_in_dagger_block_rejected(self):
        inner = Circuit(1, 1).measure(0, 0)
        c = Circuit(1, 1).sub(inner, dagger=True)
        with pytest.raises(CircuitError):
            flatten(c)

    def test_x1_dagger_survives_flatten(self):
        flat = flatten(Circuit(1).sub(Circuit(1).x1(0), dagger=True))
        assert flat.body[0].kind is GateKind.X1 and flat.body[0].dagger


class TestSplitTrailingMeasures:
    def test_splits_off_the_trailing_run(self):
        c = Circuit(2, 3, name="m").h(0).sub(Circuit(2).cnot(0, 1), dagger=True)
        c.measure(1, 2).measure(0, 0)
        gates, measures = split_trailing_measures(c)
        assert gates == Circuit(2, 3).h(0).cnot(0, 1)
        assert gates.name == "m"
        assert measures == [Instruction(GateKind.MEASURE, (1,), cbit=2),
                            Instruction(GateKind.MEASURE, (0,), cbit=0)]

    def test_without_measures_returns_the_flat_circuit(self):
        c = Circuit(2).h(0).cnot(0, 1)
        gates, measures = split_trailing_measures(c)
        assert gates is c and measures == []

    def test_measure_only(self):
        gates, measures = split_trailing_measures(Circuit(1).measure(0, 0))
        assert len(gates) == 0 and len(measures) == 1

    def test_mid_circuit_measure_rejected(self):
        with pytest.raises(CircuitError, match="measurement must be final"):
            split_trailing_measures(Circuit(2).measure(0, 0).h(1).measure(1, 1))


class TestDepth:
    def test_empty(self):
        assert depth(Circuit(3)) == 0

    def test_ghz3(self):
        assert depth(ghz(3)) == 3

    def test_parallel_singles(self):
        c = Circuit(3).h(0).h(1).h(2)
        assert depth(c) == 1

    def test_measure_and_barrier_count(self):
        c = Circuit(2).h(0).barrier(0, 1).measure(0, 0)
        assert depth(c) == 3

    @settings(max_examples=150, deadline=None)
    @given(circuits(max_qubits=8, max_len=40, measures=True))
    def test_matches_per_wire_layering(self, c):
        # peel layers: each round removes every instruction that comes first
        # on all of its wires; the number of rounds is the depth
        wires = [[] for _ in range(c.num_qubits)]
        body = flatten(c).body
        for i, ins in enumerate(body):
            for q in ins.qubits:
                wires[q].append(i)
        left, rounds = set(range(len(body))), 0
        while left:
            heads = [w[0] for w in wires if w]
            layer = {i for i in heads
                     if all(wires[q][0] == i for q in body[i].qubits)}
            for i in layer:
                for q in body[i].qubits:
                    wires[q].pop(0)
            left -= layer
            rounds += 1
        assert depth(c) == rounds
        # packed columns are layered as they are, without building a body
        packed = Circuit._from_columns(c.num_qubits, c.num_cbits,
                                       flatten(c)._columns())
        assert depth(packed) == rounds
        assert packed._items is None


class TestEquality:
    def test_columnar_vs_object_paths_agree(self):
        a = ghz()
        b = ghz()
        assert a == b
        b.rz(2, 0.25)
        assert a != b

    def test_signed_zero_distinguished(self):
        a = Circuit(1).rz(0, 0.0)
        b = Circuit(1).rz(0, -0.0)
        assert a != b

    def test_width_matters(self):
        assert Circuit(2) != Circuit(3)

    def test_nested_equality(self):
        inner = Circuit(2).h(0)
        a = Circuit(2).sub(inner, name="blk")
        b = Circuit(2).sub(Circuit(2).h(0), name="blk")
        assert a == b
        assert a != Circuit(2).sub(Circuit(2).h(0), name="other")

    def test_unresolved_dagger_flags_distinguished(self):
        s_dg = Circuit(1).append_gate(GateKind.S, (0,), dagger=True)
        rz_dg = Circuit(1).append_gate(GateKind.RZ, (0,), (0.3,), dagger=True)
        assert s_dg != Circuit(1).s(0)
        assert rz_dg != Circuit(1).rz(0, 0.3)
        assert s_dg == Circuit(1).append_gate(GateKind.S, (0,), dagger=True)
        assert flatten(s_dg) == Circuit(1).sdg(0)

    @settings(max_examples=100, deadline=None)
    @given(circuits(measures=True), st.data())
    def test_equality_is_registers_and_body(self, a, data):
        how = data.draw(st.sampled_from(["copy", "flip", "flat", "columns",
                                         "other"]))
        if how == "other":
            b = data.draw(circuits(measures=True))
        elif how == "flat":
            b = flatten(a)
        elif how == "columns":
            flat = flatten(a)
            b = Circuit._from_columns(flat.num_qubits, flat.num_cbits,
                                      flat._columns())
        else:
            body = list(a.body)
            flippable = [i for i, ins in enumerate(body)
                         if ins.kind is not GateKind.MEASURE]
            if how == "flip" and flippable:
                i = data.draw(st.sampled_from(flippable))
                ins = body[i]
                body[i] = Instruction(ins.kind, ins.qubits, ins.params,
                                      ins.cbit, not ins.dagger)
            b = Circuit(a.num_qubits, a.num_cbits)
            b.extend(body)
        want = ((a.num_qubits, a.num_cbits) == (b.num_qubits, b.num_cbits)
                and a.body == b.body)
        assert (a == b) == want
        assert (b == a) == want


class TestGateCounts:
    def test_counts(self):
        c = ghz()
        assert gate_counts(c) == {GateKind.H: 1, GateKind.CNOT: 2}

    def test_daggered_x1_counts_as_x1(self):
        c = Circuit(1).x1(0).x1(0, dagger=True)
        assert gate_counts(c) == {GateKind.X1: 2}

    @pytest.mark.parametrize("compress", [False, True])
    def test_decoded_circuit_counts_as_its_source(self, compress):
        inner = Circuit(3, 0).x1(0, dagger=True).cnot(0, 2)
        c = (Circuit(3, 1).h(0).x1(1).rz(2, 0.5).sub(inner).barrier(0, 1)
             .measure(2, 0))
        (back,) = bis.decode(bis.encode(c, compress=compress))
        want = {GateKind.H: 1, GateKind.X1: 2, GateKind.RZ: 1, GateKind.CNOT: 1,
                GateKind.BARRIER: 1, GateKind.MEASURE: 1}
        assert gate_counts(c) == want
        assert gate_counts(back) == want
        assert back.body == flatten(c).body


class TestColumnarRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(circuits(measures=True))
    def test_pack_unpack_identity(self, c):
        from quantir.circuit import _pack_body, _unpack_body
        body = flatten(c).body
        assert _unpack_body(_pack_body(body)) == body

    @settings(max_examples=60, deadline=None)
    @given(circuits(measures=True))
    def test_columns_circuit_equals_original(self, c):
        flat = flatten(c)
        rebuilt = Circuit._from_columns(flat.num_qubits, flat.num_cbits,
                                        flat._columns())
        assert rebuilt == flat
        assert rebuilt.body == flat.body


def test_opcode_table_is_fixed():
    expected = {
        GateKind.I: 0x00, GateKind.H: 0x01, GateKind.X: 0x02, GateKind.Y: 0x03,
        GateKind.Z: 0x04, GateKind.S: 0x05, GateKind.SDG: 0x06, GateKind.T: 0x07,
        GateKind.TDG: 0x08, GateKind.X1: 0x09, GateKind.RX: 0x20,
        GateKind.RY: 0x21, GateKind.RZ: 0x22, GateKind.U3: 0x40,
        GateKind.CNOT: 0x60, GateKind.CZ: 0x61, GateKind.SWAP: 0x62,
        GateKind.MEASURE: 0x80, GateKind.BARRIER: 0xA0,
    }
    for kind, op in expected.items():
        assert kind.value == op
    assert X1_DAGGER_OPCODE == 0x0A
    assert KIND_BY_OPCODE[0x0A] is GateKind.X1
    for kind, op in expected.items():
        assert kind.opclass == op >> 5


class TestFastPaths:
    """The trusted constructor and the shared instructions decode returns."""

    @pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.name)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_raw_equals_validating_constructor(self, kind, data):
        cls = kind.opclass
        n = (2 if cls == CLS_2Q
             else data.draw(st.integers(1, 4)) if cls == CLS_BARRIER else 1)
        qubits = tuple(data.draw(st.permutations(range(6)))[:n])
        params = tuple(data.draw(angles) for _ in range(PARAM_COUNT[cls]))
        cbit = data.draw(st.integers(0, 5)) if cls == CLS_MEASURE else None
        dagger = cls != CLS_MEASURE and data.draw(st.booleans())
        raw = Instruction._raw(kind, qubits, params, cbit, dagger)
        full = Instruction(kind, qubits, params, cbit, dagger)
        assert raw == full
        assert raw.opcode == full.opcode
        for name in _FIELDS:
            assert getattr(raw, name) == getattr(full, name)
        assert kind.opclass == kind.value >> 5

    @staticmethod
    def _assert_immutable(ins):
        for name in _FIELDS:
            with pytest.raises(AttributeError):
                setattr(ins, name, getattr(ins, name))
        with pytest.raises(AttributeError):
            ins.extra = 1

    def test_raw_instructions_are_immutable(self):
        self._assert_immutable(Instruction._raw(GateKind.H, (0,), (), None, False))
        self._assert_immutable(Instruction._raw(GateKind.MEASURE, (0,), (), 0, False))

    def test_decoded_instructions_are_immutable(self):
        c = (Circuit(3).h(0).rz(1, 0.5).u3(2, 0.1, 0.2, 0.3).cnot(0, 1)
             .x1(2, dagger=True).barrier(0, 2).measure(0, 0))
        (out,) = bis.decode(bis.encode(c))
        assert out == c
        for ins in out.body:
            self._assert_immutable(ins)

    @pytest.mark.parametrize("compress", [False, True])
    def test_decode_shares_parameter_free_instructions(self, compress):
        c = (Circuit(3)
             .h(0).h(0).cnot(0, 1).cnot(0, 1).measure(2, 1).measure(2, 1)
             .x1(1).x1(1, dagger=True).x1(1).x1(1, dagger=True)
             .rz(0, 0.5).rz(0, 0.5).u3(2, 0.1, 0.2, 0.3).u3(2, 0.1, 0.2, 0.3)
             .barrier(0, 1).barrier(0, 1).h(1).cnot(1, 0))
        (out,) = bis.decode(bis.encode(c, compress=compress))
        assert out == c
        body = out.body
        for i in (0, 2, 4):
            assert body[i] is body[i + 1]
        x1, x1_dag = body[6], body[7]
        assert x1 is body[8] and x1_dag is body[9]
        assert x1 is not x1_dag
        assert (x1.dagger, x1.opcode) == (False, GateKind.X1.value)
        assert (x1_dag.dagger, x1_dag.opcode) == (True, X1_DAGGER_OPCODE)
        for i in (10, 12, 14):  # rotations, U3 and barriers are built per row
            assert body[i] == body[i + 1] and body[i] is not body[i + 1]
        assert body[16] is not body[0] and body[17] is not body[2]

    @pytest.mark.parametrize("compress", [False, True])
    def test_decoded_body_shares_one_qubit_operands(self, compress):
        c = Circuit(3, 3)
        for q in (0, 1, 2, 0, 1):
            (c.h(q).rz(q, 0.25 * q).u3(q, 0.1, 0.2, q).x1(q, dagger=True)
             .rz(q, -0.5).measure(q, q))
        c.cnot(0, 1).barrier(1, 0)
        (out,) = bis.decode(bis.encode(c, compress=compress))
        assert out == c
        by_qubit = {}
        for ins in out.body:
            if len(ins.qubits) == 1:
                assert by_qubit.setdefault(ins.qubits[0], ins.qubits) is ins.qubits
        assert sorted(by_qubit) == [0, 1, 2]

    @staticmethod
    def _two_circuits():
        # the same rows in either circuit, in another order in the second
        a = (Circuit(3).h(0).cnot(0, 1).measure(2, 1).x1(1, dagger=True)
             .rz(0, 0.5).u3(2, 0.1, 0.2, 0.3).barrier(0, 1))
        b = (Circuit(3).barrier(0, 1).u3(2, 0.1, 0.2, 0.3).rz(0, 0.5)
             .x1(1, dagger=True).measure(2, 1).cnot(0, 1).h(0))
        return a, b

    @staticmethod
    def _assert_shared_across(first, second):
        # rows 0-3 of the first circuit are parameter-free, rows 4-6 are not
        one, two = first.body, second.body[::-1]
        for i in range(4):
            assert one[i] is two[i]
        for i in range(4, 7):
            assert one[i] == two[i] and one[i] is not two[i]

    @pytest.mark.parametrize("compress", [False, True])
    def test_one_decode_shares_rows_across_circuits(self, compress):
        cs = self._two_circuits()
        first, second = bis.decode(bis.encode(cs, compress=compress))
        assert (first, second) == cs
        self._assert_shared_across(first, second)

    @pytest.mark.parametrize("compress", [False, True])
    def test_one_stream_decoder_shares_rows_across_feeds(self, compress):
        cs = self._two_circuits()
        data = bis.encode(cs, compress=compress)
        dec = bis.StreamDecoder()
        out = []
        for i in range(0, len(data), 7):
            out += dec.feed(data[i:i + 7])
        dec.finish()
        assert tuple(out) == cs
        self._assert_shared_across(*out)

    def test_built_body_lets_go_of_the_read_table(self):
        first, second = bis.decode(bis.encode(self._two_circuits()))
        table = first._cols.shared
        assert table is not None and second._cols.shared is table
        first.body
        assert first._cols.shared is None and second._cols.shared is table
        second.body
        assert second._cols.shared is None

    def test_separate_decodes_share_nothing(self):
        data = bis.encode(Circuit(2).h(0).cnot(0, 1).measure(1, 1))
        (one,), (two,) = bis.decode(data), bis.decode(data)
        assert one == two
        for x, y in zip(one.body, two.body):
            assert x is not y

    def test_append_to_one_decoded_circuit_leaves_the_others(self):
        c = Circuit(2).h(0).cnot(0, 1).h(0).measure(1, 1)
        out = bis.decode(bis.encode([c, c, c]))
        out[0].h(1)
        out[0].append(out[1].body[0])
        out[2].body  # materialized before the append, too
        out[1].append(Instruction(GateKind.CNOT, (1, 0)))
        assert out[0] == Circuit(2).h(0).cnot(0, 1).h(0).measure(1, 1).h(1).h(0)
        assert out[1] == Circuit(2).h(0).cnot(0, 1).h(0).measure(1, 1).cnot(1, 0)
        assert out[2] == c
        assert [len(x) for x in out] == [6, 5, 4]


# -- builders that write columns -----------------------------------------------

_ONE_Q = ("i", "h", "x", "y", "z", "s", "sdg", "t", "tdg")
_ROT = ("rx", "ry", "rz")
_TWO_Q = ("cnot", "cz", "swap")
_KIND_OF = {name: GateKind[name.upper()] for name in _ONE_Q + _ROT + _TWO_Q}

# operands and angles a caller may pass, valid or not: out of range, bools,
# NumPy integers, non-integers; non-finite angles and angle strings
_operands = st.one_of(
    st.integers(0, 3), st.integers(-2, 6),
    st.sampled_from([True, False, 1.0, 2.5, "1", None,
                     np.int64(1), np.int32(0), np.uint8(2)]))
_odd_angles = st.one_of(
    angles,
    st.sampled_from([0.0, -0.0, 1, -2, math.inf, -math.inf, math.nan,
                     "0.5", "nan", "pi", None, np.float64(0.25)]))


@st.composite
def _builder_calls(draw):
    """``(builder, oracle)`` pairs: a builder call, and the same row as
    ``append(Instruction(...))`` makes it; or a body read, or a sub()."""
    calls = []
    inner = Circuit(2).h(0).s(1)
    for _ in range(draw(st.integers(0, 14))):
        # a read or a sub() ends the columns, so they come less often
        what = draw(st.sampled_from(
            ["1q", "rot", "u3", "2q", "measure", "barrier", "x1",
             "append_gate"] * 3 + ["read", "sub"]))
        if what == "read":
            calls.append(("read", None))
            continue
        if what == "sub":
            args = (inner, draw(st.booleans()))
            calls.append((("sub", args), ("sub", args)))
            continue
        q = draw(_operands)
        if what == "1q":
            name = draw(st.sampled_from(_ONE_Q))
            call, fields = (name, (q,)), (_KIND_OF[name], (q,), (), None, False)
        elif what == "rot":
            name, theta = draw(st.sampled_from(_ROT)), draw(_odd_angles)
            call = (name, (q, theta))
            fields = (_KIND_OF[name], (q,), (theta,), None, False)
        elif what == "u3":
            ps = tuple(draw(_odd_angles) for _ in range(3))
            call, fields = ("u3", (q, *ps)), (GateKind.U3, (q,), ps, None, False)
        elif what == "2q":
            name, b = draw(st.sampled_from(_TWO_Q)), draw(_operands)
            call, fields = (name, (q, b)), (_KIND_OF[name], (q, b), (), None, False)
        elif what == "measure":
            cbit = draw(_operands)
            call = ("measure", (q, cbit))
            fields = (GateKind.MEASURE, (q,), (), cbit, False)
        elif what == "barrier":
            qs = tuple(draw(st.lists(_operands, max_size=3)))
            call, fields = ("barrier", qs), (GateKind.BARRIER, qs, (), None, False)
        elif what == "x1":
            dagger = draw(st.booleans())
            call = ("x1", (q, dagger))
            fields = (GateKind.X1, (q,), (), None, dagger)
        else:
            fields = (draw(st.sampled_from(list(GateKind))),
                      tuple(draw(st.lists(_operands, max_size=3))),
                      tuple(draw(st.lists(_odd_angles, max_size=3))),
                      draw(st.one_of(st.none(), _operands)),
                      draw(st.booleans()))
            call = ("append_gate", fields)
        calls.append((call, ("append", fields)))
    return calls


def _outcome(f, *args):
    try:
        f(*args)
    except Exception as e:  # compared by class and text
        return type(e), str(e)
    return None


def _views(c):
    """What a caller can see of a circuit, body last: reading it ends the
    columns."""
    return (len(c), _outcome(bis.encode, c) or bis.encode(c),
            _outcome(depth, c) or depth(c), c.body)


class TestBuilderColumns:
    """Gate methods and append_gate write rows into columns, and behave as
    ``append(Instruction(...))`` does."""

    @staticmethod
    def _starts():
        built = Circuit(4, 3).h(0).cnot(0, 1).rz(2, 0.5)
        return {
            "fresh": lambda: Circuit(4, 3),
            "generated": lambda: random_circuit(4, 3, seed=7),
            "decoded": lambda: bis.decode(bis.encode([built, built]))[1],
        }

    @pytest.mark.parametrize("start", ["fresh", "generated", "decoded"])
    @settings(max_examples=100, deadline=None)
    @given(calls=_builder_calls())
    def test_builders_match_appended_instructions(self, start, calls):
        make = self._starts()[start]
        built, oracle = make(), make()
        for call, want in calls:
            if call == "read":
                assert built.body == oracle.body
                continue
            name, args = call
            got = _outcome(getattr(built, name), *args)
            how, args = want
            if how == "append":
                exp = _outcome(lambda f: oracle.append(Instruction(*f)), args)
            else:
                exp = _outcome(oracle.sub, *args)
            assert got == exp
            assert len(built) == len(oracle)
        assert built == oracle
        assert _views(built) == _views(oracle)

    def test_builders_at_the_edges(self):
        # every operand and angle at and past each edge, on a circuit whose
        # columns already take rows
        qubits = [-1, 0, 3, 4, 1.0, True, np.int64(3)]
        thetas = [0.5, -0.0, 1, math.inf, -math.inf, math.nan, "0.5"]
        cbits = [-1, 0, 2, 3, True, np.int32(2)]
        cases = [(name, (q,), (_KIND_OF[name], (q,), (), None, False))
                 for name in _ONE_Q for q in qubits]
        cases += [(name, (q, t), (_KIND_OF[name], (q,), (t,), None, False))
                  for name in _ROT for q in qubits for t in thetas]
        cases += [(name, (a, b), (_KIND_OF[name], (a, b), (), None, False))
                  for name in _TWO_Q for a in qubits for b in qubits]
        cases += [("measure", (q, c), (GateKind.MEASURE, (q,), (), c, False))
                  for q in qubits for c in cbits]
        for name, args, fields in cases:
            built, oracle = Circuit(4, 3).h(0), Circuit(4, 3).h(0)
            want = (_outcome(Instruction, *fields)
                    or _outcome(oracle.append, Instruction(*fields)))
            assert _outcome(getattr(built, name), *args) == want, (name, args)
            assert built._items is None and built == oracle, (name, args)

    def test_fresh_circuit_holds_columns_until_body_is_read(self):
        c = Circuit(3, 2).h(0).cnot(0, 1).rz(2, 0.5).measure(1, 1).x1(2, True)
        c.u3(0, 0.1, 0.2, 0.3).barrier(0, 2).append_gate(GateKind.SWAP, (1, 2))
        assert c._items is None and len(c) == 8
        data = bis.encode(c)
        assert depth(c) == 5 and c == bis.decode(data)[0]
        assert c._items is None  # the encode packed nothing
        body = c.body
        c.h(0).cnot(1, 2)  # after a read, appends go to that body
        assert c.body is body and len(body) == 10
        assert body[-2:] == [Instruction(GateKind.H, (0,)),
                             Instruction(GateKind.CNOT, (1, 2))]

    def test_appends_leave_finalized_columns(self):
        c = Circuit(2).h(0)
        cols = c._columns()
        code = cols.code.copy()
        snapshot = bis.encode(c)
        c.cnot(0, 1)
        assert c._columns() is not cols
        assert cols.code.tobytes() == code.tobytes() and len(cols) == 1
        assert bis.encode(Circuit(2).h(0)) == snapshot and len(c) == 2

    def test_decoded_row_table_carries_to_the_new_columns(self):
        a, b = bis.decode(bis.encode([Circuit(2).h(0), Circuit(2).h(0)]))
        table = a._cols.shared
        a.h(1)
        assert a._columns().shared is table
        assert a.body[0] is b.body[0]

    def test_flags_columns_cannot_hold_go_to_the_list(self):
        c = Circuit(2).h(0)
        c.append_gate(GateKind.S, (1,), dagger=True)
        assert c._items is not None
        assert flatten(c).body == [Instruction(GateKind.H, (0,)),
                                   Instruction(GateKind.SDG, (1,))]
        x1 = Circuit(1).x1(0, dagger=True)
        assert x1._items is None and x1.body[0].dagger

    def test_width_past_int64_keeps_a_list(self):
        wide = 2**64
        c = Circuit(wide, 1).h(wide - 1).measure(2**63, 0)
        assert c.body == [Instruction(GateKind.H, (wide - 1,)),
                          Instruction(GateKind.MEASURE, (2**63,), cbit=0)]

    def test_numpy_integers_accepted(self):
        c = Circuit(np.int64(3), np.int32(2)).h(np.int64(2))
        c.measure(np.int32(1), np.uint8(1)).cnot(np.int64(0), 2)
        assert (c.num_qubits, c.num_cbits) == (3, 2)
        assert c == Circuit(3, 2).h(2).measure(1, 1).cnot(0, 2)
        assert all(type(q) is int for ins in c.body for q in ins.qubits)


class TestBoolOperands:
    """A bool is not a width, a qubit or a classical bit."""

    @pytest.mark.parametrize("args, what", [((True,), "num_qubits"),
                                            ((2, False), "num_cbits")])
    def test_width(self, args, what):
        with pytest.raises(CircuitError) as e:
            Circuit(*args)
        assert str(e.value) == f"{what} must be an integer, got {args[-1]}"

    def test_gate_method(self):
        with pytest.raises(CircuitError) as e:
            Circuit(2).h(True)
        assert str(e.value) == "qubits must be integers, got (True,)"

    def test_append_gate(self):
        with pytest.raises(CircuitError) as e:
            Circuit(2).append_gate(GateKind.CNOT, (0, True))
        assert str(e.value) == "qubits must be integers, got (0, True)"

    def test_instruction(self):
        with pytest.raises(CircuitError) as e:
            Instruction(GateKind.BARRIER, (False, 1))
        assert str(e.value) == "qubits must be integers, got (False, 1)"

    def test_measure_cbit(self):
        with pytest.raises(CircuitError) as e:
            Circuit(2).measure(0, True)
        assert str(e.value) == "cbit must be an integer, got True"


_NAN, _INF = math.nan, math.inf

# (fields of Instruction(...) and append_gate, class, text): every raise of
# the one field check, then the width check that append and append_gate make
_FIELD_RAISES = [
    ((GateKind.H, (0, 1)), CircuitError, "H takes 1 qubit, got 2"),
    ((GateKind.MEASURE, (), (), 0), CircuitError, "MEASURE takes 1 qubit, got 0"),
    ((GateKind.CNOT, (0,)), CircuitError, "CNOT takes 2 qubits, got 1"),
    ((GateKind.SWAP, (0, 1, 2)), CircuitError, "SWAP takes 2 qubits, got 3"),
    ((GateKind.BARRIER, ()), CircuitError, "BARRIER needs at least one qubit"),
    ((GateKind.CZ, (1, 1)), CircuitError, "CZ qubits must be distinct: (1, 1)"),
    ((GateKind.BARRIER, (0, 1, 0)), CircuitError,
     "BARRIER qubits must be distinct: (0, 1, 0)"),
    ((GateKind.RZ, (0,)), CircuitError, "RZ takes 1 params, got 0"),
    ((GateKind.H, (0,), (0.5,)), CircuitError, "H takes 0 params, got 1"),
    ((GateKind.U3, (0,), (0.1, 0.2)), CircuitError, "U3 takes 3 params, got 2"),
    ((GateKind.RX, (0,), (_NAN,)), CircuitError, "RX param not finite: nan"),
    ((GateKind.U3, (0,), (0.1, -_INF, 0.3)), CircuitError,
     "U3 param not finite: -inf"),
    ((GateKind.RY, (0,), ("x",)), ValueError,
     "could not convert string to float: 'x'"),
    ((GateKind.MEASURE, (0,)), CircuitError, "MEASURE needs a classical bit"),
    ((GateKind.H, (0,), (), 0), CircuitError, "H takes no classical bit"),
    ((GateKind.MEASURE, (0,), (), 0, True), CircuitError,
     "MEASURE cannot be daggered"),
    ((GateKind.H, (True,)), CircuitError, "qubits must be integers, got (True,)"),
    ((GateKind.MEASURE, (0,), (), False), CircuitError,
     "cbit must be an integer, got False"),
    ((GateKind.H, (1.0,)), TypeError,
     "'float' object cannot be interpreted as an integer"),
    ((GateKind.MEASURE, (0,), (), "0"), TypeError,
     "'str' object cannot be interpreted as an integer"),
]
_WIDTH_RAISES = [
    ((GateKind.H, (2,)), "qubit 2 out of range for 2-qubit circuit"),
    ((GateKind.CNOT, (0, -1)), "qubit -1 out of range for 2-qubit circuit"),
    ((GateKind.BARRIER, (0, 5)), "qubit 5 out of range for 2-qubit circuit"),
    ((GateKind.MEASURE, (1,), (), 1), "cbit 1 out of range for 1 cbits"),
    ((GateKind.MEASURE, (0,), (), -1), "cbit -1 out of range for 1 cbits"),
]


class TestFieldChecks:
    """The class and text of each raise, whichever entry point makes it."""

    @pytest.mark.parametrize("fields, cls, text", _FIELD_RAISES)
    def test_instruction(self, fields, cls, text):
        with pytest.raises(cls) as e:
            Instruction(*fields)
        assert type(e.value) is cls and str(e.value) == text

    @pytest.mark.parametrize("read", [False, True])
    @pytest.mark.parametrize("fields, cls, text", _FIELD_RAISES)
    def test_append_gate(self, fields, cls, text, read):
        c = Circuit(2, 1).h(0)
        if read:  # the body is a list
            c.body
        with pytest.raises(cls) as e:
            c.append_gate(*fields)
        assert type(e.value) is cls and str(e.value) == text
        assert len(c) == 1

    @pytest.mark.parametrize("read", [False, True])
    @pytest.mark.parametrize("fields, text", _WIDTH_RAISES)
    def test_widths(self, fields, text, read):
        c = Circuit(2, 1).h(0)
        if read:
            c.body
        for add in (c.append_gate, lambda *f: c.append(Instruction(*f))):
            with pytest.raises(CircuitError) as e:
                add(*fields)
            assert type(e.value) is CircuitError and str(e.value) == text
        assert len(c) == 1

    @pytest.mark.parametrize("name, args, cls, text", [
        ("h", (2,), CircuitError, "qubit 2 out of range for 2-qubit circuit"),
        ("x", (0.0,), TypeError,
         "'float' object cannot be interpreted as an integer"),
        ("rz", (0, _INF), CircuitError, "RZ param not finite: inf"),
        ("rx", (0, "0.5x"), ValueError,
         "could not convert string to float: '0.5x'"),
        ("cnot", (1, 1), CircuitError, "CNOT qubits must be distinct: (1, 1)"),
        ("swap", (0, 2), CircuitError,
         "qubit 2 out of range for 2-qubit circuit"),
        ("measure", (0, 1), CircuitError, "cbit 1 out of range for 1 cbits"),
        ("measure", (2, 0), CircuitError,
         "qubit 2 out of range for 2-qubit circuit"),
        ("measure", (0, None), CircuitError, "MEASURE needs a classical bit"),
        ("barrier", (), CircuitError, "BARRIER needs at least one qubit"),
    ])
    def test_gate_method(self, name, args, cls, text):
        c = Circuit(2, 1).h(0)
        with pytest.raises(cls) as e:
            getattr(c, name)(*args)
        assert type(e.value) is cls and str(e.value) == text
        assert len(c) == 1


class TestContainment:
    """``sub`` refuses a cycle, visiting each definition once."""

    def test_shared_chain(self):
        # each level places the one below twice: 2**levels containment
        # paths, one definition per level
        c = Circuit(1).h(0)
        for _ in range(40):
            c = Circuit(1).sub(c).sub(c)
        top = Circuit(1).sub(c)
        with pytest.raises(CircuitError, match="^circular sub-circuit containment$"):
            c.sub(top)

    def test_deep_linear_chain(self):
        root = cur = Circuit(1)
        for _ in range(5000):
            nxt = Circuit(1).x(0)
            cur.sub(nxt)
            cur = nxt
        Circuit(1).sub(root)  # walks the whole chain
        with pytest.raises(CircuitError, match="^circular sub-circuit containment$"):
            cur.sub(root)
