"""ASCII circuit rendering: one line per qubit wire, boxed gate labels.

Convenience output for terminals; the exact glyph layout is not a stability
contract.  Two-qubit gates occupy every wire between their operands in a
column (controls draw as ``*``, CNOT targets as ``+``, SWAP ends as ``x``,
crossed wires as ``|``), so columns read unambiguously even when operands
are far apart.
"""
from __future__ import annotations

from .circuit import Circuit, flatten
from .gates import CLS_2Q, GateKind

__all__ = ["draw"]

_MEASURE, _BARRIER, _X1 = GateKind.MEASURE, GateKind.BARRIER, GateKind.X1
_CNOT, _CZ = GateKind.CNOT, GateKind.CZ


def _label(ins) -> str:
    k = ins.kind
    if k is _MEASURE:
        return f"M->c{ins.cbit}"
    if ins.params:
        args = ",".join(f"{p:g}" for p in ins.params)
        return f"{k.name}({args})"
    if k is _X1 and ins.dagger:
        return "X1'"
    return k.name


def draw(circuit: Circuit) -> str:
    """Render the flattened circuit as fixed-width ASCII art."""
    flat = flatten(circuit)
    n = flat.num_qubits
    if n == 0:
        return ""

    # assign each instruction a column; a gate blocks its whole wire span so
    # connectors never cross another gate drawn in the same column
    level = [0] * n
    columns: list[list[str]] = []
    for ins in flat.body:
        lo, hi = min(ins.qubits), max(ins.qubits)
        col = max(level[lo:hi + 1])
        if col == len(columns):
            columns.append([""] * n)
        cells = columns[col]
        kind = ins.kind
        if kind is _BARRIER:
            for q in ins.qubits:
                cells[q] = ":"
        elif kind.opclass == CLS_2Q:
            a, b = ins.qubits
            if kind is _CNOT:
                cells[a], cells[b] = "*", "+"
            elif kind is _CZ:
                cells[a], cells[b] = "*", "*"
            else:
                cells[a], cells[b] = "x", "x"
            for q in range(lo + 1, hi):
                cells[q] = "|"
        else:
            cells[ins.qubits[0]] = f"[{_label(ins)}]"
        for q in range(lo, hi + 1):
            level[q] = col + 1

    margin = len(f"q{n - 1}: ")
    lines = [f"q{i}: ".rjust(margin) + "-" for i in range(n)]
    for cells in columns:
        width = max((len(s) for s in cells if s), default=1)
        for i in range(n):
            lines[i] += (cells[i] or "").center(width, "-") + "-"
    return "\n".join(lines) + "\n"
