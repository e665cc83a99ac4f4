"""Wire-dependency DAG over a flat circuit body.

Node ``i`` is the i-th body instruction.  Edges follow program order along
every wire an instruction touches: qubit wires for gates and barriers, and
the classical wire for measurements.  Body order is a topological order.
``pairs[i]`` holds the two logical operands of a two-qubit gate node and is
None for every other node, so the router never re-derives gate classes.

The build keeps only what the router reads: ``succs``, ``pairs`` and one
in-degree per node, which ``pred_counts`` and ``front_layer`` read; it keeps
no predecessor lists.  A node on one qubit wire with no classical bit has at
most one edge in, so it takes a short branch with no duplicate-edge check.
"""
from __future__ import annotations

from .circuit import Circuit, flatten
from .gates import GateKind

__all__ = ["CircuitDag"]


class CircuitDag:
    """Dependency structure of a flat circuit."""

    __slots__ = ("circuit", "body", "succs", "pairs", "_indeg")

    def __init__(self, circuit: Circuit):
        flat = flatten(circuit)
        self.circuit = flat
        body = self.body = flat.body
        n = len(body)
        succs: list[list[int]] = [[] for _ in range(n)]
        pairs: list[tuple[int, int] | None] = [None] * n
        indeg = [0] * n
        last_q = [-1] * flat.num_qubits
        last_c = [-1] * flat.num_cbits
        barrier = GateKind.BARRIER
        for i, ins in enumerate(body):
            qs = ins.qubits
            cb = ins.cbit
            if len(qs) == 1 and cb is None:
                q = qs[0]
                p = last_q[q]
                if p >= 0:
                    succs[p].append(i)
                    indeg[i] = 1
                last_q[q] = i
                continue
            # two operands: a two-qubit gate, or a barrier that happens to span two
            if len(qs) == 2 and ins.kind is not barrier:
                pairs[i] = qs
            d = 0
            for q in qs:
                p = last_q[q]
                if p >= 0 and (not succs[p] or succs[p][-1] != i):
                    succs[p].append(i)
                    d += 1
                last_q[q] = i
            if cb is not None:
                p = last_c[cb]
                if p >= 0 and (not succs[p] or succs[p][-1] != i):
                    succs[p].append(i)
                    d += 1
                last_c[cb] = i
            indeg[i] = d
        self.succs = succs
        self.pairs = pairs
        self._indeg = indeg

    def __len__(self) -> int:
        return len(self.body)

    def pred_counts(self) -> list[int]:
        """Mutable copy of per-node predecessor counts."""
        return self._indeg.copy()

    def front_layer(self) -> list[int]:
        """Nodes with no predecessors, in body order."""
        return [i for i, d in enumerate(self._indeg) if not d]

    def two_qubit_nodes(self) -> list[int]:
        return [i for i, pair in enumerate(self.pairs) if pair is not None]

    def reversed_circuit(self) -> Circuit:
        """The body in reverse order (gates unchanged), for reverse routing."""
        return Circuit._from_items(self.circuit.num_qubits,
                                   self.circuit.num_cbits, self.body[::-1])
