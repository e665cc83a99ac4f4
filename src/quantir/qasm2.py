"""OpenQASM 2 subset: importer and a matching text renderer.

The importer accepts the common single-file subset: an ``OPENQASM 2.0;``
header, ``include "qelib1.inc";`` (ignored), ``qreg``/``creg`` declarations
(multiple registers concatenate into one index space in declaration order),
and the statements h, x, y, z, s, sdg, t, tdg, sx, rx, ry, rz, u1, u2, u3,
cx, cz, swap, measure, barrier.  Mappings: ``u1(l) -> RZ(l)``,
``u2(p,l) -> U3(pi/2,p,l)``, ``sx -> X1``.  Angle expressions are decimal
literals, ``pi``, unary minus, and the forms ``pi/INT`` / ``INT*pi/INT``.

Anything outside the subset — ``gate`` definitions, ``if``, ``opaque``,
other versions, unknown statement names, whole-register (broadcast)
operands, richer expressions — raises :class:`UnsupportedFeature`.  Plain
syntax problems raise :class:`QasmError`.  Both carry a 1-based line number:
the line of the statement's first non-blank character, or for text after the
last ``;`` the line where that text starts.  Each statement is checked in
full, down to distinct operands and finite angles, before the next one is
read, so a document reports its first fault in document order.

A gate, ``measure`` or ``barrier`` statement whose stripped text repeats an
earlier one of the same document reuses the ``Instruction`` that statement
built, so the returned body may hold one (immutable) instruction at many
positions.  A new text next tries one compiled pattern (a gate on indexed
operands, or ``measure q[i] -> c[j]``), checked inline and built directly;
angle texts go through a table keyed by text, never value (0.0 == -0.0).
Headers, declarations, barriers and whatever the pattern or a check refuses
take the careful per-statement code, the only code that raises.  Both tables
live for one call.

The renderer emits the same subset back, writing every one-qubit gate in
u1/u2/u3 form (so a fixed three-gate vocabulary covers the whole gate set)
and SWAP as three ``cx``.  ``import_qasm2(emit_qasm2(c))`` reproduces the
flattened circuit up to that rewriting, verified against the simulator.
"""
from __future__ import annotations

import math
import re

from .circuit import Circuit, CircuitError, Instruction, flatten
from .gates import GateKind
from .originir import _ANGLE_RE

__all__ = ["QasmError", "UnsupportedFeature", "import_qasm2", "emit_qasm2"]


class QasmError(ValueError):
    """Malformed QASM input; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class UnsupportedFeature(QasmError):
    """Valid OpenQASM 2 that falls outside the supported subset."""

    def __init__(self, feature: str, line: int | None = None):
        self.feature = feature
        super().__init__(f"unsupported feature: {feature}", line)


# -- importer --------------------------------------------------------------------

# name -> (kind, parameter count, qubit count); u2 also gains a leading pi/2
_GATES = {
    "h": (GateKind.H, 0, 1), "x": (GateKind.X, 0, 1), "y": (GateKind.Y, 0, 1),
    "z": (GateKind.Z, 0, 1), "s": (GateKind.S, 0, 1), "sdg": (GateKind.SDG, 0, 1),
    "t": (GateKind.T, 0, 1), "tdg": (GateKind.TDG, 0, 1), "sx": (GateKind.X1, 0, 1),
    "rx": (GateKind.RX, 1, 1), "ry": (GateKind.RY, 1, 1), "rz": (GateKind.RZ, 1, 1),
    "u1": (GateKind.RZ, 1, 1), "u2": (GateKind.U3, 2, 1), "u3": (GateKind.U3, 3, 1),
    "cx": (GateKind.CNOT, 0, 2), "cz": (GateKind.CZ, 0, 2),
    "swap": (GateKind.SWAP, 0, 2),
}
# name -> (kind, parameter count, separator before a second operand)
_FAST_FORMS = {n: (k, p, "," if q == 2 else None) for n, (k, p, q) in _GATES.items()}
_FAST_FORMS["measure"] = (GateKind.MEASURE, 0, "->")
_PARAMETERS = ("no parameters", "1 parameter", "2 parameters", "3 parameters")

# digits are written [0-9]: \d matches any Unicode decimal digit, and int()
# and float() convert them, but the grammar takes ASCII digits only.  No
# re.ASCII, so \s is the blank set of str.isspace, as in strip() and split()
_PI_FORM = re.compile(r"([+-])?\s*(?:([0-9]+)\s*\*\s*)?pi(?:\s*/\s*([0-9]+))?\Z")
_REG_DECL = re.compile(r"(qreg|creg)\s+([A-Za-z_][A-Za-z0-9_]*)\s*"
                       r"\[\s*([0-9]+)\s*\]\Z")
_REF = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[\s*([0-9]+)\s*\])?\Z")
_HEAD = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)")
_MEASURE_ARGS = re.compile(r"(.+?)->(.+)\Z", re.DOTALL)
_COMMENT = re.compile(r"//[^\n]*")
# name(angles) reg[i] (',' or '->') reg[j]; an index of 9 digits always fits int()
_FAST = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\s*\(([^()]*)\)\s*|\s+)"
                   r"([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*([0-9]{1,9})\s*\]"
                   r"(?:\s*(,|->)\s*([A-Za-z_][A-Za-z0-9_]*)"
                   r"\s*\[\s*([0-9]{1,9})\s*\])?\Z")


def _first_line(line: int, part: str) -> int:
    """Line of ``part``'s first non-blank character; ``part`` starts on ``line``."""
    return line + part.count("\n", 0, len(part) - len(part.lstrip()))


def _statements(text: str):
    """Yield (line, part, statement) splitting on ';' outside comments.

    ``part`` is the raw text before the ';', starting on ``line``, and
    ``statement`` is it stripped; :func:`_first_line` gives the statement's
    own line.  It is left to the caller, which needs it only for a statement
    it parses: a repeat that reuses an earlier instruction cannot raise.
    """
    *parts, tail = _COMMENT.sub("", text).split(";")
    line = 1
    for part in parts:
        stmt = part.strip()
        if stmt:
            yield line, part, stmt
        line += part.count("\n")
    if tail.strip():
        raise QasmError("statement missing ';'", _first_line(line, tail))


def _int(digits: str, what: str, line: int) -> int:
    try:
        return int(digits)
    except ValueError:  # int() refuses over sys.get_int_max_str_digits()
        raise QasmError(f"{what} has too many digits", line) from None


def _parse_angle(expr: str, line: int) -> float:
    expr = expr.strip()
    if _ANGLE_RE.match(expr):
        return float(expr)
    m = _PI_FORM.match(expr)
    if m:
        sign, mul, div = m.groups()
        value = math.pi
        try:
            if mul is not None:
                value *= _int(mul, "angle integer", line)
            if div is not None:
                div = _int(div, "angle integer", line)
                if div == 0:
                    raise QasmError("division by zero in angle", line)
                value /= div
        except OverflowError:  # an integer beyond the double range
            raise QasmError("angle integer out of range", line) from None
        return -value if sign == "-" else value
    raise UnsupportedFeature(f"angle expression {expr!r}", line)


def _split_args(text: str) -> list[str]:
    parts = [p.strip() for p in text.split(",")]
    return parts if parts != [""] else []


class _Registers:
    def __init__(self):
        self.offsets: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.total = 0

    def declare(self, name: str, size: int, line: int, other: _Registers):
        if name in self.offsets or name in other.offsets:
            raise QasmError(f"register {name!r} already declared", line)
        self.offsets[name] = (self.total, size)
        self.total += size

    def resolve(self, ref: str, line: int) -> int:
        m = _REF.match(ref.strip())
        if not m:
            raise QasmError(f"bad operand {ref!r}", line)
        name, idx = m.groups()
        if name not in self.offsets:
            raise QasmError(f"unknown register {name!r}", line)
        if idx is None:
            raise UnsupportedFeature("register broadcast", line)
        offset, size = self.offsets[name]
        i = _int(idx, "index", line)
        if i >= size:
            raise QasmError(f"index {i} out of range for {name}[{size}]", line)
        return offset + i


def _careful(stmt: str, line: int, qregs: _Registers, cregs: _Registers,
             saw_header: bool) -> Instruction | None:
    """Check one statement in full and return its instruction, if any."""
    head_m = _HEAD.match(stmt)
    if not head_m:
        raise QasmError(f"bad statement {stmt!r}", line)
    head = head_m.group(1)
    rest = stmt[head_m.end():].strip()

    if not saw_header:
        if head != "OPENQASM":
            raise QasmError("first statement must be 'OPENQASM 2.0'", line)
        if rest != "2.0":
            raise UnsupportedFeature(f"version {rest!r}", line)
        return None

    if head == "OPENQASM":
        raise QasmError("duplicate OPENQASM header", line)
    if head == "include":
        if rest != '"qelib1.inc"':
            raise UnsupportedFeature(f"include {rest}", line)
        return None
    if head in ("qreg", "creg"):
        m = _REG_DECL.match(stmt)
        if not m:
            raise QasmError(f"bad register declaration {stmt!r}", line)
        _, name, size = m.groups()
        size = _int(size, "register size", line)
        if size < 1:
            raise QasmError("register size must be >= 1", line)
        regs, other = (qregs, cregs) if head == "qreg" else (cregs, qregs)
        regs.declare(name, size, line, other)
        return None
    if head in ("gate", "if", "opaque"):
        raise UnsupportedFeature(head, line)

    params: tuple[float, ...] = ()
    cbit = None
    if head == "measure":
        m = _MEASURE_ARGS.match(rest)
        if not m:
            raise QasmError("measure needs 'q[i] -> c[j]'", line)
        kind = GateKind.MEASURE
        qs = (qregs.resolve(m.group(1), line),)
        cbit = cregs.resolve(m.group(2), line)
    elif head == "barrier":
        kind = GateKind.BARRIER
        qs = tuple(qregs.resolve(a, line) for a in _split_args(rest))
        if not qs:
            raise QasmError("barrier needs at least one qubit", line)
    else:
        if rest.startswith("("):
            # the matching ')' is the first whose prefix holds one more '(' than ')'
            close = rest.find(")")
            while (close >= 0 and rest.count("(", 0, close)
                   != rest.count(")", 0, close) + 1):
                close = rest.find(")", close + 1)
            if close < 0:
                raise QasmError("unbalanced parentheses", line)
            params = tuple(_parse_angle(p, line) for p in _split_args(rest[1:close]))
            rest = rest[close + 1:].strip()
        if head not in _GATES:
            raise UnsupportedFeature(head, line)
        kind, n_params, n_qubits = _GATES[head]
        if len(params) != n_params:
            raise QasmError(f"{head} takes {_PARAMETERS[n_params]}", line)
        if head == "u2":
            params = (math.pi / 2, *params)
        qs = tuple(qregs.resolve(a, line) for a in _split_args(rest))
        if len(qs) != n_qubits:
            raise QasmError(f"{head} takes {n_qubits} qubit operand(s)", line)
    try:
        return Instruction(kind, qs, params, cbit)
    except CircuitError as exc:
        raise QasmError(str(exc), line) from exc


def _fast(stmt: str, qregs: _Registers, cregs: _Registers,
          angles: dict[str, float]) -> Instruction | None:
    """``stmt``'s instruction if ``_FAST`` takes it and every check holds."""
    m = _FAST.match(stmt)
    if m is None:
        return None
    name, args, reg, i, sep, reg2, j = m.groups()
    form = _FAST_FORMS.get(name)
    at = qregs.offsets.get(reg)
    if form is None or at is None or sep != form[2] or int(i) >= at[1]:
        return None
    kind, n_params, _ = form
    qs = (at[0] + int(i),)
    cbit = None
    if sep:
        at = (cregs if sep == "->" else qregs).offsets.get(reg2)
        if at is None or int(j) >= at[1] or (sep == "," and at[0] + int(j) == qs[0]):
            return None
        if sep == "->":
            cbit = at[0] + int(j)
        else:
            qs = (qs[0], at[0] + int(j))
    parts = args.split(",") if args is not None else []
    if len(parts) != n_params:
        return None
    params = [math.pi / 2] if name == "u2" else []
    for a in parts:
        value = angles.get(a)
        if value is None:
            try:
                value = _parse_angle(a, None)
            except QasmError:
                return None
            if not math.isfinite(value):
                return None
            angles[a] = value
        params.append(value)
    return Instruction._raw(kind, qs, tuple(params), cbit, False)


def import_qasm2(text: str) -> Circuit:
    """Parse the OpenQASM 2 subset into a flat circuit."""
    qregs = _Registers()
    cregs = _Registers()
    items: list[Instruction] = []
    # statement text -> the Instruction it built.  Registers only grow and
    # never change, so a text that built an instruction builds the same one
    # at any later line.  Keyed by text, never by angle values: 0.0 == -0.0
    # and the two hash alike.  Declarations and headers are never stored,
    # so they are checked at every line.
    built: dict[str, Instruction] = {}
    angles: dict[str, float] = {}  # angle text -> its finite value, likewise
    saw_header = False

    for start, part, stmt in _statements(text):
        ins = built.get(stmt)
        if ins is None:
            ins = _fast(stmt, qregs, cregs, angles)
            if ins is None:
                ins = _careful(stmt, _first_line(start, part), qregs, cregs, saw_header)
                saw_header = True  # _careful raises on any other first statement
                if ins is None:
                    continue
            built[stmt] = ins
        items.append(ins)

    if not saw_header:
        raise QasmError("missing OPENQASM header", None)
    # every operand was checked against the register totals
    return Circuit._from_items(qregs.total, cregs.total, items)


# -- renderer --------------------------------------------------------------------

def _ang(value: float) -> str:
    return repr(float(value))


# the parameter-free one-qubit gates with a fixed u-form
_FIXED_FORMS = {
    GateKind.I: "u1(0)", GateKind.H: "u2(0,pi)", GateKind.X: "u3(pi,0,pi)",
    GateKind.Y: "u3(pi,pi/2,pi/2)", GateKind.Z: "u1(pi)", GateKind.S: "u1(pi/2)",
    GateKind.SDG: "u1(-pi/2)", GateKind.T: "u1(pi/4)", GateKind.TDG: "u1(-pi/4)",
}


def emit_qasm2(circuit: Circuit) -> str:
    """Render a circuit as importable OpenQASM 2 text (u-form dialect)."""
    flat = flatten(circuit)
    out = ["OPENQASM 2.0;", 'include "qelib1.inc";',
           f"qreg q[{max(flat.num_qubits, 1)}];"]
    if flat.num_cbits:
        out.append(f"creg c[{flat.num_cbits}];")
    emit = out.append
    for ins in flat.body:
        k = ins.kind
        q = ins.qubits[0]
        form = _FIXED_FORMS.get(k)
        if form is not None:
            emit(f"{form} q[{q}];")
        elif k is GateKind.RZ:
            emit(f"u1({_ang(ins.params[0])}) q[{q}];")
        elif k is GateKind.CNOT:
            a, b = ins.qubits
            emit(f"cx q[{a}],q[{b}];")
        elif k is GateKind.CZ:
            a, b = ins.qubits
            emit(f"cz q[{a}],q[{b}];")
        elif k is GateKind.RX:
            emit(f"u3({_ang(ins.params[0])},-pi/2,pi/2) q[{q}];")
        elif k is GateKind.RY:
            emit(f"u3({_ang(ins.params[0])},0,0) q[{q}];")
        elif k is GateKind.U3:
            t, p, l = ins.params
            emit(f"u3({_ang(t)},{_ang(p)},{_ang(l)}) q[{q}];")
        elif k is GateKind.X1:
            theta = "-pi/2" if ins.dagger else "pi/2"
            emit(f"u3({theta},-pi/2,pi/2) q[{q}];")
        elif k is GateKind.SWAP:
            a, b = ins.qubits
            emit(f"cx q[{a}],q[{b}];")
            emit(f"cx q[{b}],q[{a}];")
            emit(f"cx q[{a}],q[{b}];")
        elif k is GateKind.MEASURE:
            emit(f"measure q[{q}] -> c[{ins.cbit}];")
        elif k is GateKind.BARRIER:
            emit("barrier " + ",".join(f"q[{i}]" for i in ins.qubits) + ";")
        else:  # pragma: no cover
            raise QasmError(f"no rendering for {k.name}")
    return "\n".join(out) + "\n"
