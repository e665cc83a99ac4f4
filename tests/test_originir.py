import math

import pytest
from hypothesis import given, settings

from quantir.circuit import Circuit, Instruction, flatten
from quantir.gates import GateKind
from quantir.originir import OriginIRError, emit, parse

from conftest import circuits, ghz


class TestEmit:
    def test_ghz(self):
        assert emit(ghz(3)) == (
            "QINIT 3\nCREG 3\nH q[0]\nCNOT q[0],q[1]\nCNOT q[1],q[2]\n")

    def test_rotation_and_u3(self):
        c = Circuit(1).rz(0, 0.5).u3(0, 1.0, -2.0, 0.25)
        assert emit(c) == (
            "QINIT 1\nCREG 1\nRZ q[0],(0.5)\nU3 q[0],(1.0,-2.0,0.25)\n")

    def test_measure_and_barrier(self):
        c = Circuit(2, 2).barrier(0, 1).measure(1, 0)
        assert emit(c) == (
            "QINIT 2\nCREG 2\nBARRIER q[0],q[1]\nMEASURE q[1],c[0]\n")

    def test_daggered_x1_block(self):
        c = Circuit(1).x1(0, dagger=True)
        assert emit(c) == "QINIT 1\nCREG 1\nDAGGER\nX1 q[0]\nENDDAGGER\n"

    def test_emit_flattens(self):
        inner = Circuit(2).s(0).cnot(0, 1)
        outer = Circuit(2).sub(inner, dagger=True)
        assert emit(outer) == "QINIT 2\nCREG 2\nCNOT q[0],q[1]\nSDG q[0]\n"

    def test_angles_shortest_roundtrip(self):
        c = Circuit(1).rx(0, math.pi)
        assert "(3.141592653589793)" in emit(c)


class TestParse:
    def test_basic(self):
        c = parse("QINIT 2\nCREG 2\nH q[0]\nCNOT q[0],q[1]\n")
        assert c == ghz(2)

    def test_creg_optional(self):
        c = parse("QINIT 2\nH q[0]\n")
        assert c.num_qubits == 2 and c.num_cbits == 0

    def test_whitespace_tolerant(self):
        c = parse("QINIT 2\nCREG 2\n  CNOT   q[ 0 ] ,  q[ 1 ]  \n")
        assert c.body[0] == Instruction(GateKind.CNOT, (0, 1))

    def test_line_comments(self):
        c = parse("QINIT 1 // one wire\nCREG 1\nH q[0] // mix\n// whole line\n")
        assert len(c) == 1

    def test_block_comments_preserve_lines(self):
        text = "QINIT 1\nCREG 1\n/* spanning\nseveral\nlines */\nH q[5]\n"
        with pytest.raises(OriginIRError) as exc:
            parse(text)
        assert exc.value.line == 6

    def test_block_comment_inline(self):
        c = parse("QINIT 1\nCREG 1\nH /* gap */ q[0]\n")
        assert c.body[0].kind is GateKind.H

    def test_unterminated_block_comment(self):
        with pytest.raises(OriginIRError) as exc:
            parse("QINIT 1\nCREG 1\n/* oops\nH q[0]\n")
        assert exc.value.line == 3

    def test_dagger_block(self):
        c = parse("QINIT 1\nCREG 1\nDAGGER\nT q[0]\nRZ q[0],(0.5)\nENDDAGGER\n")
        assert c.body[0] == Instruction(GateKind.RZ, (0,), (-0.5,))
        assert c.body[1].kind is GateKind.TDG

    def test_nested_dagger(self):
        text = ("QINIT 1\nCREG 1\nDAGGER\nS q[0]\nDAGGER\nT q[0]\n"
                "ENDDAGGER\nENDDAGGER\n")
        c = parse(text)
        # inner resolves to TDG, then outer reverses/adjoints: T first? no --
        # outer block contains [S, TDG]; daggered it becomes [T, SDG]
        assert [i.kind for i in c.body] == [GateKind.T, GateKind.SDG]

    def test_x1_in_dagger(self):
        c = parse("QINIT 1\nCREG 1\nDAGGER\nX1 q[0]\nENDDAGGER\n")
        assert c.body[0].kind is GateKind.X1 and c.body[0].dagger


class TestParseErrors:
    @pytest.mark.parametrize("text,line,frag", [
        ("H q[0]\n", 1, "QINIT"),
        ("QINIT 1\nQINIT 2\n", 2, "duplicate QINIT"),
        ("QINIT 1\nH q[0]\nCREG 1\n", 3, "CREG"),
        ("CREG 1\nQINIT 1\n", 1, "CREG before QINIT"),
        ("QINIT 1\nCREG 1\nCREG 2\n", 3, "duplicate CREG"),
        ("QINIT 1\nCREG 1\nFOO q[0]\n", 3, "unknown gate"),
        ("QINIT 1\nCREG 1\nH q[0],q[0]\n", 3, "qubit"),
        ("QINIT 1\nCREG 1\nCNOT q[0]\n", 3, "2 qubits"),
        ("QINIT 1\nCREG 1\nH q[5]\n", 3, "out of range"),
        ("QINIT 1\nCREG 1\nMEASURE q[0],c[4]\n", 3, "out of range"),
        ("QINIT 1\nCREG 1\nMEASURE q[0]\n", 3, "c[...]"),
        ("QINIT 1\nCREG 1\nH q[0],c[0]\n", 3, "only valid for MEASURE"),
        ("QINIT 1\nCREG 1\nRZ q[0],(pi)\n", 3, "bad angle"),
        ("QINIT 1\nCREG 1\nRZ q[0],(inf)\n", 3, "bad angle"),
        ("QINIT 1\nCREG 1\nRZ q[0],(nan)\n", 3, "bad angle"),
        ("QINIT 1\nCREG 1\nRZ q[0]\n", 3, "1 params"),
        ("QINIT 1\nCREG 1\nU3 q[0],(1,2)\n", 3, "3 params"),
        ("QINIT 1\nCREG 1\nENDDAGGER\n", 3, "ENDDAGGER without"),
        ("QINIT 1\nCREG 1\nDAGGER\nH q[0]\n", 3, "DAGGER without"),
        ("QINIT 1\nCREG 1\nDAGGER\nMEASURE q[0],c[0]\nENDDAGGER\n", 4, "dagger"),
        ("QINIT 1\nCREG 1\nH (q[0]\n", 3, "unbalanced"),
        ("QINIT 1\nCREG 1\n%%%\n", 3, "cannot parse"),
        ("", 1, "QINIT"),
        # more digits than int() converts
        ("QINIT 1\nCREG 1\nH q[" + "1" * 5000 + "]\n", 3,
         "qubit index has too many digits"),
        ("QINIT 1\nCREG 1\nMEASURE q[0],c[" + "1" * 5000 + "]\n", 3,
         "cbit index has too many digits"),
        ("QINIT " + "1" * 5000 + "\n", 1, "QINIT size has too many digits"),
        ("QINIT 1\nCREG " + "1" * 5000 + "\n", 2, "CREG size has too many digits"),
    ])
    def test_error_lines(self, text, line, frag):
        with pytest.raises(OriginIRError) as exc:
            parse(text)
        assert exc.value.line == line
        assert frag.lower() in str(exc.value).lower()

    @pytest.mark.parametrize("text,line,message", [
        # an out-of-range qubit before an unknown gate
        ("QINIT 2\nH q[5]\nFOO q[0]\n", 2,
         "line 2: qubit 5 out of range for 2-qubit circuit"),
        # a daggered MEASURE before an unknown gate in the same block
        ("QINIT 1\nCREG 1\nDAGGER\nMEASURE q[0],c[0]\nFOO\nENDDAGGER\n", 4,
         "line 4: MEASURE cannot be daggered"),
    ])
    def test_first_fault_in_document_order(self, text, line, message):
        with pytest.raises(OriginIRError) as exc:
            parse(text)
        assert exc.value.line == line
        assert str(exc.value) == message

    @pytest.mark.parametrize("text,line,message", [
        ("QINIT 1\nCREG 2\nH q[0])\n", 3, "unbalanced ')'"),
        ("QINIT 1\nCREG 2\nMEASURE c[0],q[0]\n", 3,
         "qubit operand after classical operand"),
        ("QINIT 1\nCREG 2\nMEASURE q[0],c[0],c[1]\n", 3,
         "duplicate classical operand"),
        ("QINIT 1\nCREG 2\nRZ q[0],(0.5),(0.25)\n", 3,
         "duplicate parameter list"),
        # no body line comes before QINIT, so a late one is a duplicate
        ("QINIT 1\nCREG 1\nH q[0]\nQINIT 2\n", 4, "duplicate QINIT"),
    ], ids=["close-paren", "qubit-after-cbit", "two-cbits", "two-param-lists",
            "late-qinit"])
    def test_operand_and_header_faults_pinned(self, text, line, message):
        with pytest.raises(OriginIRError) as exc:
            parse(text)
        assert type(exc.value) is OriginIRError
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"

    def test_angle_rejects_exponent_only(self):
        with pytest.raises(OriginIRError):
            parse("QINIT 1\nCREG 1\nRZ q[0],(e5)\n")

    @pytest.mark.parametrize("text,line,message", [
        # Arabic-Indic digits (U+0660..U+0669): int() and float() convert
        # them, the text IR does not take them
        ("QINIT \u0662\nCREG 0\n", 1, "expected QINIT header"),
        ("QINIT 1\nCREG 0\nH q[\u0660]\n", 3, "bad operand 'q[\u0660]'"),
        ("QINIT 1\nCREG 0\nRZ q[0],(\u0661.\u0665)\n", 3,
         "bad angle literal '\u0661.\u0665'"),
    ], ids=["size", "index", "angle"])
    def test_rejects_non_ascii_digits(self, text, line, message):
        with pytest.raises(OriginIRError) as exc:
            parse(text)
        assert type(exc.value) is OriginIRError
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"

    @pytest.mark.parametrize("text", [
        "QINIT\u00a02\nCREG 0\nH q[1]\n",
        "QINIT 2\nCREG 0\nCNOT q[0],\u00a0q[1]\n",
    ], ids=["header", "operand"])
    def test_no_break_space_is_blank_everywhere(self, text):
        # U+00A0 is blank inside a statement as at its edges (str.isspace)
        assert parse(text) == parse(text.replace("\u00a0", " "))


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(circuits(measures=True))
    def test_parse_emit_is_flatten(self, c):
        assert parse(emit(c)) == flatten(c)

    @settings(max_examples=40, deadline=None)
    @given(circuits(measures=True))
    def test_emit_stable(self, c):
        text = emit(c)
        assert emit(parse(text)) == text

    def test_scientific_notation_roundtrip(self):
        c = Circuit(1).rz(0, 1e-300).rz(0, -2.5e17)
        assert parse(emit(c)) == c
