"""Human-readable text IR: emit and parse.

Document shape::

    QINIT 3
    CREG 3
    H q[0]
    CNOT q[0],q[1]
    RZ q[2],(0.5)
    DAGGER
    X1 q[1]
    ENDDAGGER
    MEASURE q[0],c[0]

``//`` starts a line comment; ``/* ... */`` block comments may span lines.
DAGGER/ENDDAGGER blocks nest and apply the adjoint of their (reversed)
contents.  ``parse`` returns a flat circuit, so ``parse(emit(c))`` equals
``flatten(c)`` exactly, including bit-exact angles (angles are emitted as
shortest round-trip decimal literals).  Parse errors carry a 1-based
``line`` attribute.
"""
from __future__ import annotations

import re

from .circuit import (Circuit, CircuitError, Instruction, check_operands,
                      dagger_instruction, flatten)
from .gates import CLS_1Q, CLS_2Q, CLS_MEASURE, CLS_ROT, CLS_U3, GateKind, KIND_BY_NAME

__all__ = ["OriginIRError", "emit", "parse"]


class OriginIRError(ValueError):
    """Malformed text IR; ``line`` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


_NAME_BY_OPCODE = [""] * 256
for _k in GateKind:
    _NAME_BY_OPCODE[_k.value] = _k.name

# digits are written [0-9]: \d matches any Unicode decimal digit, and int()
# and float() convert them, but the text IR takes ASCII digits only.  No
# re.ASCII, so \s is the blank set of str.isspace, as in strip() and split()
# decimal literal, optionally signed, optional exponent; no inf/nan/pi names
_ANGLE_RE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\Z")
_QREF_RE = re.compile(r"q\s*\[\s*([0-9]+)\s*\]\Z")
_CREF_RE = re.compile(r"c\s*\[\s*([0-9]+)\s*\]\Z")
_HEADER_RE = re.compile(r"(QINIT|CREG)\s+([0-9]+)\Z")
_STMT_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*(.*)\Z")


def emit(c: Circuit) -> str:
    """Render a circuit as a text IR document (flattens first)."""
    flat = flatten(c)
    names = _NAME_BY_OPCODE
    parts = [f"QINIT {flat.num_qubits}\nCREG {flat.num_cbits}\n"]
    append = parts.append
    for ins in flat.body:
        kind = ins.kind
        op = kind._value_
        cls = op >> 5
        q = ins.qubits
        if cls == CLS_1Q:
            if ins.dagger:  # only X1 carries a dagger after flatten()
                append(f"DAGGER\nX1 q[{q[0]}]\nENDDAGGER\n")
            else:
                append(f"{names[op]} q[{q[0]}]\n")
        elif cls == CLS_ROT:
            append(f"{names[op]} q[{q[0]}],({ins.params[0]!r})\n")
        elif cls == CLS_2Q:
            append(f"{names[op]} q[{q[0]}],q[{q[1]}]\n")
        elif cls == CLS_U3:
            t, p, l = ins.params
            append(f"U3 q[{q[0]}],({t!r},{p!r},{l!r})\n")
        elif cls == CLS_MEASURE:
            append(f"MEASURE q[{q[0]}],c[{ins.cbit}]\n")
        else:
            append("BARRIER " + ",".join(f"q[{i}]" for i in q) + "\n")
    return "".join(parts)


def _strip_block_comments(text: str) -> str:
    """Replace /* ... */ spans with their newlines, keeping line numbers."""
    if "/*" not in text:
        return text
    out = []
    i = 0
    while True:
        j = text.find("/*", i)
        if j < 0:
            out.append(text[i:])
            return "".join(out)
        k = text.find("*/", j + 2)
        if k < 0:
            raise OriginIRError("unterminated block comment",
                                1 + text.count("\n", 0, j))
        out.append(text[i:j])
        out.append("\n" * text.count("\n", j, k))
        i = k + 2


def _split_operands(rest: str, line: int) -> list[str]:
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in rest:
        if ch == "(":
            depth += 1
            cur.append(ch)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise OriginIRError("unbalanced ')'", line)
            cur.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise OriginIRError("unbalanced '('", line)
    parts.append("".join(cur).strip())
    return parts


def _int(digits: str, what: str, line: int) -> int:
    try:
        return int(digits)
    except ValueError:  # int() refuses over sys.get_int_max_str_digits()
        raise OriginIRError(f"{what} has too many digits", line) from None


def _parse_angles(tok: str, line: int) -> list[float]:
    inner = tok[1:-1]
    vals = []
    for piece in inner.split(","):
        piece = piece.strip()
        if not _ANGLE_RE.match(piece):
            raise OriginIRError(f"bad angle literal {piece!r}", line)
        vals.append(float(piece))
    return vals


def parse(text: str) -> Circuit:
    """Parse a text IR document into a flat circuit."""
    text = _strip_block_comments(text)
    num_qubits: int | None = None
    num_cbits = 0
    seen_creg = False
    in_body = False
    # each stack frame is a list of instructions, each checked at its own
    # line; frame 0 is the body
    stack: list[list[Instruction]] = [[]]
    dagger_lines: list[int] = []

    for lineno, rawline in enumerate(text.split("\n"), start=1):
        stmt = rawline.split("//", 1)[0].strip()
        if not stmt:
            continue
        m = _HEADER_RE.match(stmt)
        if m:
            word = m.group(1)
            count = _int(m.group(2), f"{word} size", lineno)
            if word == "QINIT":
                # no body line is taken before QINIT, so a late one is a
                # duplicate
                if num_qubits is not None:
                    raise OriginIRError("duplicate QINIT", lineno)
                num_qubits = count
            else:
                if num_qubits is None:
                    raise OriginIRError("CREG before QINIT", lineno)
                if seen_creg:
                    raise OriginIRError("duplicate CREG", lineno)
                if in_body:
                    raise OriginIRError("CREG must precede the body", lineno)
                num_cbits = count
                seen_creg = True
            continue
        if num_qubits is None:
            raise OriginIRError("expected QINIT header", lineno)
        in_body = True
        if stmt == "DAGGER":
            stack.append([])
            dagger_lines.append(lineno)
            continue
        if stmt == "ENDDAGGER":
            if len(stack) == 1:
                raise OriginIRError("ENDDAGGER without DAGGER", lineno)
            block = stack.pop()
            dagger_lines.pop()
            stack[-1].extend([dagger_instruction(ins) for ins in reversed(block)])
            continue
        m = _STMT_RE.match(stmt)
        if not m:
            raise OriginIRError(f"cannot parse statement {stmt!r}", lineno)
        name, rest = m.group(1), m.group(2)
        kind = KIND_BY_NAME.get(name)
        if kind is None:
            raise OriginIRError(f"unknown gate {name!r}", lineno)
        operands = _split_operands(rest, lineno) if rest.strip() else []
        qubits: list[int] = []
        cbit: int | None = None
        params: list[float] = []
        for tok in operands:
            qm = _QREF_RE.match(tok)
            if qm:
                if cbit is not None:
                    raise OriginIRError("qubit operand after classical operand", lineno)
                qubits.append(_int(qm.group(1), "qubit index", lineno))
                continue
            cm = _CREF_RE.match(tok)
            if cm:
                if kind is not GateKind.MEASURE:
                    raise OriginIRError(
                        f"c[...] operand only valid for MEASURE, not {name}", lineno)
                if cbit is not None:
                    raise OriginIRError("duplicate classical operand", lineno)
                cbit = _int(cm.group(1), "cbit index", lineno)
                continue
            if tok.startswith("(") and tok.endswith(")"):
                if params:
                    raise OriginIRError("duplicate parameter list", lineno)
                params = _parse_angles(tok, lineno)
                continue
            raise OriginIRError(f"bad operand {tok!r}", lineno)
        if kind is GateKind.MEASURE and cbit is None:
            raise OriginIRError("MEASURE needs a c[...] operand", lineno)
        try:
            ins = Instruction(kind, qubits, params, cbit)
            if kind is GateKind.MEASURE and len(stack) > 1:
                raise OriginIRError("MEASURE cannot be daggered", lineno)
            check_operands(ins, num_qubits, num_cbits)
        except CircuitError as e:
            raise OriginIRError(str(e), lineno) from None
        stack[-1].append(ins)

    if num_qubits is None:
        raise OriginIRError("empty document: expected QINIT header",
                            1 + text.count("\n"))
    if len(stack) > 1:
        raise OriginIRError("DAGGER without ENDDAGGER", dagger_lines[-1])

    return Circuit._from_items(num_qubits, num_cbits, stack[0])
