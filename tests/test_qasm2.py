"""OpenQASM 2 importer and renderer."""
import hashlib
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantir import bis, qasm2
from quantir.bench import random_circuit
from quantir.circuit import Circuit, flatten
from quantir.gates import GateKind
from quantir.qasm2 import QasmError, UnsupportedFeature, emit_qasm2, import_qasm2
from quantir.sim import fidelity_up_to_phase, simulate

from conftest import circuits, turn_angles


def fidelity(a, b):
    return fidelity_up_to_phase(simulate(a), simulate(b))


HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


# -- importer: structure ----------------------------------------------------------

def test_import_minimal():
    c = import_qasm2(HEADER + "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\n")
    assert c.num_qubits == 2 and c.num_cbits == 2
    assert [i.kind for i in c.body] == [GateKind.H, GateKind.CNOT]
    assert c.body[1].qubits == (0, 1)


def test_import_registers_concatenate_in_declaration_order():
    text = HEADER + "qreg a[1];\nqreg b[1];\ncx a[0],b[0];\n"
    c = import_qasm2(text)
    assert c.num_qubits == 2
    assert c.body[0].kind is GateKind.CNOT and c.body[0].qubits == (0, 1)


def test_import_three_registers_offsets():
    text = HEADER + "qreg a[2]; qreg b[3]; qreg c[1]; x b[2]; z c[0]; y a[1];"
    c = import_qasm2(text)
    assert c.num_qubits == 6
    assert [(i.kind, i.qubits[0]) for i in c.body] == [
        (GateKind.X, 4), (GateKind.Z, 5), (GateKind.Y, 1)]


def test_import_measure_and_barrier():
    text = HEADER + "qreg q[2];\ncreg m[2];\nbarrier q[0],q[1];\nmeasure q[1] -> m[0];\n"
    c = import_qasm2(text)
    bar, mea = c.body
    assert bar.kind is GateKind.BARRIER and bar.qubits == (0, 1)
    assert mea.kind is GateKind.MEASURE and mea.qubits == (1,) and mea.cbit == 0


def test_import_ignores_comments_and_blank_lines():
    text = ("// leading comment\nOPENQASM 2.0;\n\ninclude \"qelib1.inc\";\n"
            "qreg q[1]; // trailing\n// h q[0];\nx q[0];\n")
    c = import_qasm2(text)
    assert [i.kind for i in c.body] == [GateKind.X]


def test_import_statement_may_span_lines():
    c = import_qasm2("OPENQASM 2.0;\nqreg q[2];\ncx\n  q[0],\n  q[1];\n")
    assert c.body[0].kind is GateKind.CNOT


def test_import_accepts_crlf():
    c = import_qasm2("OPENQASM 2.0;\r\nqreg q[1];\r\nh q[0];\r\n")
    assert c.body[0].kind is GateKind.H


def test_import_include_is_optional():
    c = import_qasm2("OPENQASM 2.0;\nqreg q[1];\ns q[0];\n")
    assert c.body[0].kind is GateKind.S


# -- importer: gate and angle mappings --------------------------------------------

@pytest.mark.parametrize("name,kind", [
    ("h", GateKind.H), ("x", GateKind.X), ("y", GateKind.Y), ("z", GateKind.Z),
    ("s", GateKind.S), ("sdg", GateKind.SDG), ("t", GateKind.T),
    ("tdg", GateKind.TDG), ("sx", GateKind.X1),
])
def test_import_fixed_gate_names(name, kind):
    c = import_qasm2(HEADER + f"qreg q[1];\n{name} q[0];\n")
    assert c.body[0].kind is kind and not c.body[0].dagger


@pytest.mark.parametrize("name,kind", [
    ("rx", GateKind.RX), ("ry", GateKind.RY), ("rz", GateKind.RZ)])
def test_import_rotations(name, kind):
    c = import_qasm2(HEADER + f"qreg q[1];\n{name}(0.25) q[0];\n")
    assert c.body[0].kind is kind and c.body[0].params == (0.25,)


def test_import_u1_maps_to_rz():
    c = import_qasm2(HEADER + "qreg q[1];\nu1(0.5) q[0];\n")
    assert c.body[0].kind is GateKind.RZ and c.body[0].params == (0.5,)


def test_import_u2_maps_to_u3_with_half_pi_theta():
    c = import_qasm2(HEADER + "qreg q[1];\nu2(0.5,1.5) q[0];\n")
    ins = c.body[0]
    assert ins.kind is GateKind.U3 and ins.params == (math.pi / 2, 0.5, 1.5)


def test_import_u3():
    c = import_qasm2(HEADER + "qreg q[1];\nu3(1.0,2.0,3.0) q[0];\n")
    assert c.body[0].params == (1.0, 2.0, 3.0)


@pytest.mark.parametrize("name,kind", [
    ("cx", GateKind.CNOT), ("cz", GateKind.CZ), ("swap", GateKind.SWAP)])
def test_import_two_qubit_gates(name, kind):
    c = import_qasm2(HEADER + f"qreg q[3];\n{name} q[2],q[0];\n")
    assert c.body[0].kind is kind and c.body[0].qubits == (2, 0)


@pytest.mark.parametrize("expr,value", [
    ("0", 0.0), ("1.5", 1.5), (".5", 0.5), ("2.", 2.0), ("1e-3", 1e-3),
    ("-0.5", -0.5), ("pi", math.pi), ("-pi", -math.pi),
    ("pi/2", math.pi / 2), ("-pi/4", -math.pi / 4),
    ("3*pi/4", 3 * math.pi / 4), ("-7*pi/8", -7 * math.pi / 8),
    (" pi / 2 ", math.pi / 2),
])
def test_import_angle_forms(expr, value):
    c = import_qasm2(HEADER + f"qreg q[1];\nrz({expr}) q[0];\n")
    assert c.body[0].params[0] == pytest.approx(value, abs=0, rel=1e-15)


# -- importer: rejections ---------------------------------------------------------

def test_import_rejects_gate_definition():
    text = HEADER + "qreg q[1];\ngate g a { h a; }\ng q[0];\n"
    with pytest.raises(UnsupportedFeature) as err:
        import_qasm2(text)
    assert err.value.feature == "gate" and err.value.line == 4


def test_import_rejects_if_statement():
    text = HEADER + "qreg q[1];\ncreg c[1];\nif (c==1) x q[0];\n"
    with pytest.raises(UnsupportedFeature) as err:
        import_qasm2(text)
    assert err.value.feature == "if"


def test_import_rejects_opaque():
    with pytest.raises(UnsupportedFeature) as err:
        import_qasm2(HEADER + "opaque magic q;\n")
    assert err.value.feature == "opaque"


def test_import_rejects_unknown_gate_name():
    with pytest.raises(UnsupportedFeature) as err:
        import_qasm2(HEADER + "qreg q[3];\nccx q[0],q[1],q[2];\n")
    assert err.value.feature == "ccx"


def test_import_rejects_wrong_version():
    with pytest.raises(UnsupportedFeature) as err:
        import_qasm2("OPENQASM 3.0;\nqreg q[1];\n")
    assert "3.0" in err.value.feature


def test_import_rejects_missing_header():
    with pytest.raises(QasmError, match="OPENQASM"):
        import_qasm2("qreg q[1];\nh q[0];\n")
    with pytest.raises(QasmError, match="missing OPENQASM header"):
        import_qasm2("// nothing here\n")


def test_import_rejects_register_broadcast():
    with pytest.raises(UnsupportedFeature) as err:
        import_qasm2(HEADER + "qreg q[2];\nh q;\n")
    assert err.value.feature == "register broadcast"


def test_import_rejects_other_includes():
    with pytest.raises(UnsupportedFeature):
        import_qasm2('OPENQASM 2.0;\ninclude "other.inc";\n')


@pytest.mark.parametrize("stmt,match", [
    ("h q[5];", "out of range"),
    ("h r[0];", "unknown register"),
    ("cx q[0];", "2 qubit"),
    ("h q[0],q[1];", "1 qubit"),
    ("rz() q[0];", "1 parameter"),
    ("rz(0.1,0.2) q[0];", "1 parameter"),
    ("u2(0.1) q[0];", "2 parameters"),
    ("u3(0.1) q[0];", "3 parameters"),
    ("h(0.5) q[0];", "no parameters"),
    ("cx q[0],q[0];", "distinct"),
    ("measure q[0];", "->"),
    ("barrier;", "at least one"),
])
def test_import_rejects_malformed_statements(stmt, match):
    with pytest.raises(QasmError, match=match):
        import_qasm2(HEADER + "qreg q[2];\ncreg c[2];\n" + stmt + "\n")


def test_import_rejects_duplicate_register():
    with pytest.raises(QasmError, match="already declared"):
        import_qasm2(HEADER + "qreg q[1];\nqreg q[2];\n")


def test_import_rejects_richer_expression():
    with pytest.raises(UnsupportedFeature, match="angle expression"):
        import_qasm2(HEADER + "qreg q[1];\nrz(2*pi/3+1) q[0];\n")


def test_import_rejects_missing_semicolon():
    with pytest.raises(QasmError, match="missing ';'"):
        import_qasm2(HEADER + "qreg q[1];\nh q[0]\n")


def test_import_error_lines_are_one_based():
    text = 'OPENQASM 2.0;\nqreg q[1];\nh q[0];\nbadgate q[0];\n'
    with pytest.raises(QasmError) as err:
        import_qasm2(text)
    assert err.value.line == 4 and "line 4" in str(err.value)


def test_import_measure_creg_qreg_mixup():
    text = HEADER + "qreg q[1];\ncreg c[1];\nmeasure c[0] -> c[0];\n"
    with pytest.raises(QasmError, match="unknown register"):
        import_qasm2(text)



# -- importer: pinned rejections --------------------------------------------------
# The exact class, 1-based line and message of each rejection, pinned so a
# rewrite of the statement splitter, the parenthesis match or the gate
# dispatch keeps every one of them.

_REG2 = HEADER + "qreg q[2];\ncreg c[2];\n"


def _at5(stmt):
    return _REG2 + stmt + "\n"


_PINNED_REJECTIONS = [
    (_at5("h q[5];"), QasmError, 5, "index 5 out of range for q[2]"),
    (_at5("h r[0];"), QasmError, 5, "unknown register 'r'"),
    (_at5("cx q[0];"), QasmError, 5, "cx takes 2 qubit operand(s)"),
    (_at5("h q[0],q[1];"), QasmError, 5, "h takes 1 qubit operand(s)"),
    (_at5("rz() q[0];"), QasmError, 5, "rz takes 1 parameter"),
    (_at5("rz(0.1,0.2) q[0];"), QasmError, 5, "rz takes 1 parameter"),
    (_at5("u2(0.1) q[0];"), QasmError, 5, "u2 takes 2 parameters"),
    (_at5("u3(0.1) q[0];"), QasmError, 5, "u3 takes 3 parameters"),
    (_at5("h(0.5) q[0];"), QasmError, 5, "h takes no parameters"),
    (_at5("cx q[0],q[0];"), QasmError, 5,
     "CNOT qubits must be distinct: (0, 0)"),
    (_at5("measure q[0];"), QasmError, 5, "measure needs 'q[i] -> c[j]'"),
    (_at5("barrier;"), QasmError, 5, "barrier needs at least one qubit"),
    (_at5("rz((pi)) q[0];"), UnsupportedFeature, 5,
     "unsupported feature: angle expression '(pi)'"),
    (_at5("rz((pi) q[0];"), QasmError, 5, "unbalanced parentheses"),
    (_at5("u3(1,(2),3) q[0];"), UnsupportedFeature, 5,
     "unsupported feature: angle expression '(2)'"),
    (_at5("rz(pi)) q[0];"), QasmError, 5, "bad operand ') q[0]'"),
    (_at5("foo(bad) q[0];"), UnsupportedFeature, 5,
     "unsupported feature: angle expression 'bad'"),
    (_at5("u1(0.1,0.2) q[0];"), QasmError, 5, "u1 takes 1 parameter"),
    (_at5("cz q[0];"), QasmError, 5, "cz takes 2 qubit operand(s)"),
    # a statement spanning lines reports the line it starts on
    ("OPENQASM 2.0;\nqreg q[2];\ncx\n  q[0],\n  q[5];\n", QasmError, 3,
     "index 5 out of range for q[2]"),
    ("OPENQASM 2.0;\nqreg q[2];\n\n\n  cx q[0],\n\n q[0];\n", QasmError, 5,
     "CNOT qubits must be distinct: (0, 0)"),
    # CRLF line ends
    ("OPENQASM 2.0;\r\nqreg q[1];\r\nh q[3];\r\n", QasmError, 3,
     "index 3 out of range for q[1]"),
    ("OPENQASM 2.0;\r\nqreg q[1];\r\nh q[0]\r\n", QasmError, 3,
     "statement missing ';'"),
    # leading comment lines, one of them holding a ';'
    ("// one\n// two\nOPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n",
     UnsupportedFeature, 5, "unsupported feature: foo"),
    ("// one\n// two;\nqreg q[1];\n", QasmError, 3,
     "first statement must be 'OPENQASM 2.0'"),
    # a ';'-less tail reports the line of its own first non-blank character
    (_REG2 + "h q[0];\n\n\nh q[1]\n", QasmError, 8, "statement missing ';'"),
    (_REG2 + "h q[0];\n\n\n  // note\n  h q[1]\n", QasmError, 9,
     "statement missing ';'"),
    # U+00A0 (no-break space) is blank, as str.isspace says
    (_REG2 + "\u00a0badgate q[0];\n", UnsupportedFeature, 5,
     "unsupported feature: badgate"),
    (_REG2 + "\u00a0\n\u00a0\u00a0h q[0]\n", QasmError, 6,
     "statement missing ';'"),
    # integers past int() or the double range
    (_at5("rz(" + "9" * 400 + "*pi) q[0];"), QasmError, 5,
     "angle integer out of range"),
    (_at5("rz(pi/" + "7" * 400 + ") q[0];"), QasmError, 5,
     "angle integer out of range"),
    (_at5("rz(pi/" + "7" * 5000 + ") q[0];"), QasmError, 5,
     "angle integer has too many digits"),
    (_at5("h q[" + "1" * 5000 + "];"), QasmError, 5, "index has too many digits"),
    (HEADER + "qreg q[" + "1" * 5000 + "];\n", QasmError, 3,
     "register size has too many digits"),
    (_at5("rz(pi/0) q[0];"), QasmError, 5, "division by zero in angle"),
    (_at5("1x q[0];"), QasmError, 5, "bad statement '1x q[0]'"),
    (_at5("OPENQASM 2.0;"), QasmError, 5, "duplicate OPENQASM header"),
    (HEADER + "qreg q[0];\n", QasmError, 3, "register size must be >= 1"),
]


@pytest.mark.parametrize("text,cls,line,message", _PINNED_REJECTIONS)
def test_import_rejection_pinned(text, cls, line, message):
    with pytest.raises(QasmError) as err:
        import_qasm2(text)
    assert type(err.value) is cls
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"



@pytest.mark.parametrize("stmt,message", [
    ("cx q[0],q[0];", "CNOT qubits must be distinct: (0, 0)"),
    ("rz(1e999) q[0];", "RZ param not finite: inf"),
])
def test_import_reports_first_fault_in_document_order(stmt, message):
    # an operand or angle fault is reported at its own statement, ahead of
    # a later syntax fault
    with pytest.raises(QasmError) as err:
        import_qasm2(_at5(stmt) + "badgate q[0];\n")
    assert type(err.value) is QasmError
    assert err.value.line == 5
    assert str(err.value) == f"line 5: {message}"

@pytest.mark.parametrize("text,cls,line,message", [
    # Arabic-Indic digits (U+0660..U+0669): int() and float() convert them,
    # the grammar does not take them
    (HEADER + "qreg q[\u0662];\n", QasmError, 3,
     "bad register declaration 'qreg q[\u0662]'"),
    (_at5("h q[\u0660];"), QasmError, 5, "bad operand 'q[\u0660]'"),
    (_at5("rz(\u0661.\u0665) q[0];"), UnsupportedFeature, 5,
     "unsupported feature: angle expression '\u0661.\u0665'"),
    (_at5("rz(pi/\u0662) q[0];"), UnsupportedFeature, 5,
     "unsupported feature: angle expression 'pi/\u0662'"),
], ids=["size", "index", "angle", "pi-form"])
def test_import_rejects_non_ascii_digits(text, cls, line, message):
    with pytest.raises(QasmError) as err:
        import_qasm2(text)
    assert type(err.value) is cls
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize("text", [
    HEADER + "qreg\u00a0q[2];\nh q[1];\n",
    HEADER + "qreg q[2];\nrz(pi\u00a0/ 2) q[0];\n",
    HEADER + "qreg q[2];\ncx q[0],\u00a0q[1];\n",
], ids=["declaration", "angle", "operand"])
def test_import_no_break_space_is_blank_everywhere(text):
    # U+00A0 is blank inside a statement as at its edges (str.isspace)
    assert import_qasm2(text) == import_qasm2(text.replace("\u00a0", " "))


# -- importer: one instruction per repeated statement -----------------------------

def test_import_repeated_statement_text_is_one_object():
    b = import_qasm2(_REG2 + "rz(0.5) q[0];\nh q[1];\nrz(0.5) q[0];\n"
                     "measure q[0] -> c[1];\nmeasure q[0] -> c[1];\n").body
    assert b[0] is b[2] and b[3] is b[4]
    assert b[0] is not b[1]


def test_import_signed_zero_angles_stay_distinct():
    c = import_qasm2(_REG2 + "rz(0.0) q[0];\nrz(-0.0) q[0];\n" * 2)
    b = c.body
    assert [math.copysign(1.0, ins.params[0]) for ins in b] == [1.0, -1.0] * 2
    assert b[0] is b[2] and b[1] is b[3] and b[0] is not b[1]
    want = Circuit(2, 2).rz(0, 0.0).rz(0, -0.0).rz(0, 0.0).rz(0, -0.0)
    assert bis.encode([c]) == bis.encode([want])


def test_import_register_declared_twice_raises_at_its_line():
    # a declaration is checked at every line, even when its text repeats
    with pytest.raises(QasmError) as err:
        import_qasm2(_REG2 + "h q[0];\nh q[0];\nqreg q[2];\n")
    assert err.value.line == 7
    assert str(err.value) == "line 7: register 'q' already declared"


@pytest.mark.parametrize("decls", ["qreg q[2];\ncreg q[2];\n",
                                   "creg q[2];\nqreg q[2];\n"],
                         ids=["qreg-then-creg", "creg-then-qreg"])
def test_import_register_name_is_shared_by_qreg_and_creg(decls):
    with pytest.raises(QasmError) as err:
        import_qasm2(HEADER + decls)
    assert type(err.value) is QasmError
    assert str(err.value) == "line 4: register 'q' already declared"


def test_import_measure_may_span_lines():
    c = import_qasm2(_REG2 + "measure q[1]\n  ->\n  c[0];\nmeasure\nq[0] -> c\n[1];\n")
    assert [(i.kind, i.qubits, i.cbit) for i in c.body] == [
        (GateKind.MEASURE, (1,), 0), (GateKind.MEASURE, (0,), 1)]


def test_import_fault_after_repeated_statements_reports_its_line():
    with pytest.raises(QasmError) as err:
        import_qasm2(_REG2 + "cx q[0],q[1];\n" * 3 + "cx q[1],q[1];\n")
    assert type(err.value) is QasmError
    assert str(err.value) == "line 8: CNOT qubits must be distinct: (1, 1)"


def _spaced(text):
    # i spaces after the first word of line i: no two statement texts are
    # equal, so the reader builds a new instruction for every statement
    return "\n".join(re.sub(r"\A([A-Za-z_0-9]+)", r"\1" + " " * i, line)
                     for i, line in enumerate(text.split("\n")))


@settings(max_examples=60, deadline=None)
@given(circuits(max_qubits=4, max_len=30, measures=True,
                angle_values=turn_angles))
def test_import_with_repeats_matches_import_of_unique_texts(c):
    text = emit_qasm2(c)
    ref = import_qasm2(_spaced(text))
    assert len({id(ins) for ins in ref.body}) == len(ref)
    got = import_qasm2(text)
    assert got == ref
    assert bis.encode([got]) == bis.encode([ref])


# -- importer: compiled fast path against the careful path ------------------------
# The oracle is the same reader with the compiled pattern matching nothing, so
# every statement goes through qasm2._careful.

_NEVER = re.compile(r"(?!)")


def _outcome(text):
    """The .bis bytes of what the reader builds, or its fault's class, text
    and line."""
    try:
        return bis.encode(import_qasm2(text))
    except QasmError as exc:
        return type(exc), str(exc), exc.line


def _careful_outcome(text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qasm2, "_FAST", _NEVER)
        return _outcome(text)


_ANGLE_TEXTS = st.one_of(
    st.sampled_from(["0", "0.0", "-0.0", "pi", "-pi", "pi/2", "-pi/4",
                     "3*pi/4", "-7*pi/8", " pi / 3 ", "2 * pi / 5", "1e-3",
                     ".5", "2."]),
    st.integers(min_value=1, max_value=64).map(lambda d: f"pi/{d}"),
    st.tuples(st.integers(min_value=0, max_value=99),
              st.integers(min_value=1, max_value=99)).map(
                  lambda t: f"{t[0]}*pi/{t[1]}"),
    turn_angles.map(repr))

_QREGS = [("q", 3), ("r", 2)]
_CREGS = [("c", 2), ("d", 3)]
_FAULTS = [
    "h r[2]", "cx q[0],r[2]", "measure r[1] -> d[3]",  # index out of range
    "cz q[1],q[1]",  # equal operands
    "x s[0]", "swap q[0],s[0]", "measure q[0] -> e[0]",  # unknown register
    "u1(1e999) r[0]", "u3(0.1,-1e999,0) q[2]",  # angle not finite
    "u3(0.1,0.2) q[0]", "rx q[1]", "u2(0,0,0) r[0]",  # parameter count
    "h q[0],q[1]", "cx q[2]", "measure q[0], c[0]",  # operand count or form
    "xr[1]",  # name and register run together: no gate 'xr'
    "cx late[0],q[0]",  # register used before its declaration
]


@st.composite
def _gate_statement(draw):
    refs = [f"{n}[{i}]" for n, size in _QREGS for i in range(size)]
    a, b = draw(st.permutations(refs))[:2]
    form = draw(st.sampled_from(["1q", "rot", "u2", "u3", "2q", "measure",
                                 "barrier", "zeros"]))
    if form == "1q":
        return f"{draw(st.sampled_from(['h', 'x', 'y', 'z', 's', 'sdg', 't', 'tdg', 'sx']))} {a}"
    if form == "rot":
        name = draw(st.sampled_from(["rx", "ry", "rz", "u1"]))
        return f"{name}({draw(_ANGLE_TEXTS)}) {a}"
    if form in ("u2", "u3"):
        angles = [draw(_ANGLE_TEXTS) for _ in range(int(form[1]))]
        return f"{form}({','.join(angles)}) {a}"
    if form == "2q":
        return f"{draw(st.sampled_from(['cx', 'cz', 'swap']))} {a},{b}"
    if form == "measure":
        name, size = draw(st.sampled_from(_CREGS))
        return f"measure {a} -> {name}[{draw(st.integers(0, size - 1))}]"
    if form == "barrier":
        return f"barrier {a},{b}"
    # u3(0.0,...) beside u3(-0.0,...), which the angle table must tell apart
    return f"u3(0.0,-0.0,{draw(_ANGLE_TEXTS)}) {a};\nu3(-0.0,0.0,0.0) {a}"


def _layout(draw, stmt):
    """``stmt;`` as written: plain, spread over lines, or commented."""
    style = draw(st.sampled_from(["plain", "lines", "comment", "comment_line"]))
    if style == "lines":
        stmt = stmt.replace(",", ",\n  ").replace(" ", "\n   ")
    elif style == "comment":
        return stmt + "; // trailing; comment"
    elif style == "comment_line":
        return "// " + stmt + ";\n" + stmt + ";"
    return stmt + ";"


@st.composite
def _fault_documents(draw):
    """(text, fault-free text): emitted and written statements over two
    registers of each kind, one of them faulty."""
    c = draw(circuits(max_qubits=3, max_len=12, measures=True,
                      angle_values=turn_angles))
    emitted = emit_qasm2(c).splitlines()[3:]
    if c.num_cbits:
        emitted = emitted[1:]
    emitted = [line.rstrip(";") for line in emitted]
    written = draw(st.lists(_gate_statement(), max_size=12))
    stmts = draw(st.permutations(emitted + written))
    stmts += draw(st.lists(st.sampled_from(stmts), max_size=4)) if stmts else []
    body = [_layout(draw, stmt) for stmt in stmts]
    fault = draw(st.sampled_from(_FAULTS))
    at = draw(st.integers(min_value=0, max_value=len(body)))
    decls = [f"qreg q[{max(c.num_qubits, 3)}];", "qreg r[2];",
             f"creg c[{max(c.num_cbits, 2)}];", "creg d[3];"]
    head = [HEADER.rstrip("\n"), *draw(st.permutations(decls))]
    late = ["qreg late[1];"]
    spaced = draw(st.booleans())

    def document(lines):
        text = "\n".join(head + lines + late) + "\n"
        return _spaced(text) if spaced else text

    return (document(body[:at] + [_layout(draw, fault)] + body[at:]),
            document(body))


@settings(max_examples=300, deadline=None)
@given(_fault_documents())
def test_fast_path_matches_careful_path(docs):
    text, clean = docs
    got = _outcome(text)
    assert isinstance(got, tuple)
    assert got == _careful_outcome(text)
    got = _outcome(clean)
    assert isinstance(got, bytes)
    assert got == _careful_outcome(clean)


def test_fast_path_takes_every_emitted_gate_statement(monkeypatch):
    careful = []
    qasm2_careful = qasm2._careful

    def counted(stmt, *args):
        careful.append(stmt)
        return qasm2_careful(stmt, *args)

    monkeypatch.setattr(qasm2, "_careful", counted)
    c = random_circuit(5, 30, 7)
    for q in range(5):
        c.measure(q, q)
    text = emit_qasm2(c)
    assert import_qasm2(text) == import_qasm2(_spaced(text))
    # the header, include and declarations only, in both documents
    assert [s.split()[0] for s in careful] == ["OPENQASM", "include", "qreg",
                                               "creg"] * 2


# -- importer: golden bodies ------------------------------------------------------
# sha256 of the .bis encoding of what the importer builds, pinned so a rewrite
# of the importer keeps every instruction byte for byte.

def _fenced_random(seed):
    c = random_circuit(5, 20, seed).barrier(0, 2, 4)
    for q in range(5):
        c.measure(q, 4 - q)
    return emit_qasm2(c)


_TWO_REGISTERS = HEADER + """qreg a[2];
qreg b[3];
creg m[1];
creg n[2];
h a[1];
u2(0.5,-pi/4) b[0];
u1(3*pi/4) b[2];
rx(-0.25) a[0]; ry(1e-3) b[1];
sx a[0];
cx a[1],b[2];
cz b[0],a[0];
swap a[0],b[1];
barrier a[0],b[0],b[2];
measure b[2] -> n[1];
measure a[0] -> m[0];
"""

_GOLDEN_IMPORT = [
    ("random_5x20_seed0_fenced", lambda: _fenced_random(0),
     "3fe419bb4b19ff91cd8bbecc838c2ffb40c228ebe49ac7baa45b67cd3ae2567e"),
    ("random_5x20_seed1_fenced", lambda: _fenced_random(1),
     "92150ca5f294e6b2d9a5f7ce99672f335d14812c2fbcd35e31ba2324c4e016d2"),
    ("random_5x20_seed2_fenced", lambda: _fenced_random(2),
     "3eab1d4b2122cfc98a891fe88a380d4a8a35be8c6d59822d96b0d2e2a985f939"),
    ("two_registers", lambda: _TWO_REGISTERS,
     "8e84eeae69bf004d170d4c2eb3b355fb52b31f836c615ef3a6099b85d70480ca"),
]


@pytest.mark.parametrize("name,text,digest", _GOLDEN_IMPORT,
                         ids=[case[0] for case in _GOLDEN_IMPORT])
def test_golden_import(name, text, digest):
    data = bis.encode(import_qasm2(text()))
    assert hashlib.sha256(data).hexdigest() == digest

# -- renderer ---------------------------------------------------------------------

def test_emit_header_and_registers():
    c = Circuit(3, 2)
    c.h(0)
    text = emit_qasm2(c)
    lines = text.splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert lines[2] == "qreg q[3];"
    assert lines[3] == "creg c[2];"
    assert text.endswith("\n")


def test_emit_omits_empty_creg():
    c = Circuit(1, 0)
    c.x(0)
    assert "creg" not in emit_qasm2(c)


def test_emit_known_forms():
    c = Circuit(2, 1)
    c.h(0)
    c.rz(0, 0.5)
    c.cnot(0, 1)
    c.cz(0, 1)
    c.measure(1, 0)
    text = emit_qasm2(c)
    assert "u2(0,pi) q[0];" in text
    assert "u1(0.5) q[0];" in text
    assert "cx q[0],q[1];" in text
    assert "cz q[0],q[1];" in text
    assert "measure q[1] -> c[0];" in text


def test_emit_swap_as_three_cx():
    c = Circuit(2, 0)
    c.swap(0, 1)
    body = emit_qasm2(c).splitlines()[3:]
    assert body == ["cx q[0],q[1];", "cx q[1],q[0];", "cx q[0],q[1];"]


def test_emit_barrier():
    c = Circuit(3, 0)
    c.barrier(2, 0)
    assert "barrier q[2],q[0];" in emit_qasm2(c)


def test_emit_flattens_subcircuits():
    inner = Circuit(1, 0)
    inner.t(0)
    outer = Circuit(1, 0)
    outer.sub(inner)
    outer.sub(inner, dagger=True)
    text = emit_qasm2(outer)
    assert "u1(pi/4) q[0];" in text and "u1(-pi/4) q[0];" in text


# -- round trip -------------------------------------------------------------------

ALL_GATES = Circuit(3, 2)
ALL_GATES.i(0)
ALL_GATES.h(0)
ALL_GATES.x(1)
ALL_GATES.y(2)
ALL_GATES.z(0)
ALL_GATES.s(1)
ALL_GATES.sdg(2)
ALL_GATES.t(0)
ALL_GATES.tdg(1)
ALL_GATES.x1(2)
ALL_GATES.x1(0, dagger=True)
ALL_GATES.rx(1, 0.3)
ALL_GATES.ry(2, -1.2)
ALL_GATES.rz(0, 2.5)
ALL_GATES.u3(1, 0.4, 1.1, -0.7)
ALL_GATES.cnot(0, 1)
ALL_GATES.cz(1, 2)
ALL_GATES.swap(0, 2)


def test_round_trip_every_gate_kind_preserves_state():
    back = import_qasm2(emit_qasm2(ALL_GATES))
    assert back.num_qubits == 3
    assert fidelity(ALL_GATES, back) > 1 - 1e-9


@pytest.mark.parametrize("kind", list(GateKind))
def test_u_forms_match_each_gate(kind):
    if kind in (GateKind.MEASURE, GateKind.BARRIER):
        pytest.skip("not a unitary gate")
    from quantir.gates import CLS_2Q, PARAM_COUNT
    n = 2 if kind.opclass == CLS_2Q else 1
    c = Circuit(n, 0)
    params = {1: (0.37,), 3: (0.37, -1.4, 2.2)}.get(PARAM_COUNT[kind.opclass], ())
    c.append_gate(kind, tuple(range(n)), params)
    back = import_qasm2(emit_qasm2(c))
    assert fidelity(c, back) > 1 - 1e-12


def test_u_form_of_daggered_x1():
    c = Circuit(1, 0)
    c.x1(0, dagger=True)
    back = import_qasm2(emit_qasm2(c))
    assert fidelity(c, back) > 1 - 1e-12


def test_round_trip_preserves_measure_targets():
    c = Circuit(2, 2)
    c.h(0)
    c.measure(0, 1)
    c.measure(1, 0)
    back = import_qasm2(emit_qasm2(c))
    tail = back.body[-2:]
    assert [(i.qubits[0], i.cbit) for i in tail] == [(0, 1), (1, 0)]


def test_emitted_angles_reimport_bit_exact():
    c = Circuit(1, 0)
    for theta in (1e-300, 0.1 + 0.2, math.pi, -5e-324, 123456.789):
        c.rz(0, theta)
    back = import_qasm2(emit_qasm2(c))
    assert [i.params[0] for i in back.body] == [i.params[0] for i in c.body]


@settings(max_examples=60, deadline=None)
@given(circuits(max_qubits=4, max_len=25, measures=False))
def test_round_trip_random_circuits_equivalent(c):
    back = import_qasm2(emit_qasm2(c))
    assert back.num_qubits == flatten(c).num_qubits
    assert fidelity(c, back) > 1 - 1e-9


# -- golden renderer output ------------------------------------------------------
# sha256 of the emitted text, pinned so a refactor of the renderer keeps every
# byte: every gate kind (plus a barrier and measurements) and three random
# circuits.

def _fenced_all_gates():
    c = Circuit(3, 2)
    for ins in ALL_GATES.body:
        c.append(ins)
    return c.barrier(0, 1, 2).measure(0, 0).measure(2, 1)


_GOLDEN_QASM = [
    ("all_gates", lambda: ALL_GATES,
     "51ac273d4ed2487b8d92c70b0623782348a5fe3ec4efdd76dcde7b9e52d18a0d"),
    ("all_gates_fenced", _fenced_all_gates,
     "ac3e74a40d5b925b162c317e996e4f34c397e4a8a4c45c516dff2505f41b16cb"),
    ("random_5x20_seed0", lambda: random_circuit(5, 20, 0),
     "967dfdda00c44e9fe698bef3723171b02a6ddb68a1366496e0f7a25e4d1d7b8f"),
    ("random_5x20_seed1", lambda: random_circuit(5, 20, 1),
     "b57dac40029a00154fbd91d6960da3280a3c22008bd916b53d969b56998f51a0"),
    ("random_5x20_seed2", lambda: random_circuit(5, 20, 2),
     "dd131211ec3470ee6b2b3e7090aa9687a74479e89fbf3fe5043916cbd4f16c72"),
]


@pytest.mark.parametrize("name,build,digest", _GOLDEN_QASM,
                         ids=[case[0] for case in _GOLDEN_QASM])
def test_golden_emit(name, build, digest):
    assert hashlib.sha256(emit_qasm2(build()).encode()).hexdigest() == digest
