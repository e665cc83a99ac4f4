"""Wire-dependency DAG over a flat circuit body.

Node ``i`` is the i-th body instruction.  Edges follow program order along
every wire an instruction touches: qubit wires for gates and barriers, and
the classical wire for measurements.  Body order is a topological order.
``pairs[i]`` holds the two logical operands of a two-qubit gate node and is
None for every other node, so the router never re-derives gate classes.
"""
from __future__ import annotations

from .circuit import Circuit, flatten
from .gates import GateKind

__all__ = ["CircuitDag"]


class CircuitDag:
    """Dependency structure of a flat circuit."""

    __slots__ = ("circuit", "body", "preds", "succs", "pairs")

    def __init__(self, circuit: Circuit):
        flat = flatten(circuit)
        self.circuit = flat
        body = self.body = flat.body
        n = len(body)
        preds: list[list[int]] = [[] for _ in range(n)]
        succs: list[list[int]] = [[] for _ in range(n)]
        pairs: list[tuple[int, int] | None] = [None] * n
        last_q = [-1] * flat.num_qubits
        last_c = [-1] * flat.num_cbits
        barrier = GateKind.BARRIER
        for i, ins in enumerate(body):
            qs = ins.qubits
            # two operands: a two-qubit gate, or a barrier that happens to span two
            if len(qs) == 2 and ins.kind is not barrier:
                pairs[i] = qs
            for q in qs:
                p = last_q[q]
                if p >= 0 and (not succs[p] or succs[p][-1] != i):
                    succs[p].append(i)
                    preds[i].append(p)
                last_q[q] = i
            cb = ins.cbit
            if cb is not None:
                p = last_c[cb]
                if p >= 0 and (not succs[p] or succs[p][-1] != i):
                    succs[p].append(i)
                    preds[i].append(p)
                last_c[cb] = i
        self.preds = preds
        self.succs = succs
        self.pairs = pairs

    def __len__(self) -> int:
        return len(self.body)

    def pred_counts(self) -> list[int]:
        """Mutable copy of per-node predecessor counts."""
        return [len(p) for p in self.preds]

    def front_layer(self) -> list[int]:
        """Nodes with no predecessors, in body order."""
        return [i for i, p in enumerate(self.preds) if not p]

    def two_qubit_nodes(self) -> list[int]:
        return [i for i, pair in enumerate(self.pairs) if pair is not None]

    def reversed_circuit(self) -> Circuit:
        """The body in reverse order (gates unchanged), for reverse routing."""
        return Circuit._from_items(self.circuit.num_qubits,
                                   self.circuit.num_cbits, self.body[::-1])
