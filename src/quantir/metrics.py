"""Normalized structural features of a circuit (five-component vector).

All five components are ratios in [0, 1], computed on the flattened body
with MEASURE and BARRIER removed.  With N qubits, G gates, depth d (greedy
wire layering, ``circuit.depth``), and e two-qubit gates:

* ``communication``  — interaction-graph density: sum of qubit degrees over
  N(N-1), where qubits are adjacent iff some two-qubit gate couples them.
* ``critical_depth`` — two-qubit gates on a longest dependency path, over e;
  among equally long paths the one with the most two-qubit gates counts.
* ``entanglement_ratio`` — e / G.
* ``parallelism``    — (G/d - 1) / (N - 1): how densely layers are filled.
* ``liveness``       — active (qubit, layer) cells over N * d.

One walk over the body finds every count, d and the critical path.

Degenerate inputs clamp to 0: communication and parallelism need N > 1,
critical_depth and entanglement_ratio need e > 0, liveness and parallelism
need d > 0.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

from .circuit import Circuit, flatten
from .gates import CLS_2Q, GateKind

__all__ = ["MetricsVector", "circuit_metrics"]


@dataclass(frozen=True)
class MetricsVector:
    communication: float
    critical_depth: float
    entanglement_ratio: float
    parallelism: float
    liveness: float

    def to_dict(self) -> dict[str, float]:
        return asdict(self)

    def __iter__(self):
        yield from (self.communication, self.critical_depth,
                    self.entanglement_ratio, self.parallelism, self.liveness)


def circuit_metrics(c: Circuit) -> MetricsVector:
    flat = flatten(c)
    n = flat.num_qubits
    measure, barrier = GateKind.MEASURE, GateKind.BARRIER
    # With MEASURE and BARRIER skipped, a gate depends only on the last gate
    # on each of its wires.  Each wire keeps (length, two-qubit gates) of the
    # best path that ends at its last gate; a gate's length is its greedy
    # layer, and every path ends at some wire's last gate.
    best = [(0, 0)] * n
    g = active = e = 0
    degree_pairs: set[tuple[int, int]] = set()
    for ins in flat.body:
        kind = ins.kind
        if kind is measure or kind is barrier:
            continue
        qs = ins.qubits
        g += 1
        # each gate is active on each of its qubits in exactly one layer
        active += len(qs)
        l, t = max([best[q] for q in qs])
        if kind.opclass == CLS_2Q:
            e += 1
            t += 1
            a, b = qs
            degree_pairs.add((a, b) if a < b else (b, a))
        top = (l + 1, t)
        for q in qs:
            best[q] = top
    d, critical = max(best, default=(0, 0))
    return MetricsVector(
        communication=(2 * len(degree_pairs) / (n * (n - 1))
                       if n > 1 and degree_pairs else 0.0),
        critical_depth=critical / e if e else 0.0,
        entanglement_ratio=e / g if g else 0.0,
        parallelism=(g / d - 1) / (n - 1) if n > 1 and d > 0 else 0.0,
        liveness=active / (n * d) if d > 0 else 0.0,
    )
