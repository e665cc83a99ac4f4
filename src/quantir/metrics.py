"""Normalized structural features of a circuit (five-component vector).

All five components are ratios in [0, 1], computed on the flattened body
with MEASURE and BARRIER removed.  With N qubits, G gates, depth d (greedy
wire layering, ``circuit.depth``), and e two-qubit gates:

* ``communication``  — interaction-graph density: sum of qubit degrees over
  N(N-1), where qubits are adjacent iff some two-qubit gate couples them.
* ``critical_depth`` — two-qubit gates on a longest dependency path, over e;
  one wire walk finds the path, as it finds d.
* ``entanglement_ratio`` — e / G.
* ``parallelism``    — (G/d - 1) / (N - 1): how densely layers are filled.
* ``liveness``       — active (qubit, layer) cells over N * d.

Degenerate inputs clamp to 0: communication and parallelism need N > 1,
critical_depth and entanglement_ratio need e > 0, liveness and parallelism
need d > 0.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

from .circuit import Circuit, depth, flatten
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


def _strip(c: Circuit) -> Circuit:
    flat = flatten(c)
    measure, barrier = GateKind.MEASURE, GateKind.BARRIER
    return Circuit._from_items(flat.num_qubits, flat.num_cbits, [
        ins for ins in flat.body
        if ins.kind is not measure and ins.kind is not barrier])


def _critical_two_q(c: Circuit, e: int) -> float:
    """Two-qubit gates on a longest path of the dependency DAG, over ``e``.

    Among equally long paths the one with the most two-qubit gates counts.
    ``c`` holds no MEASURE or BARRIER, so a gate depends only on the last
    gate on each of its wires, and one walk finds the path: each wire keeps
    ``(length, two-qubit gates)`` of the best path that ends at its last
    gate.  Every path ends at some wire's last gate.
    """
    if e == 0:
        return 0.0
    best = [(0, 0)] * c.num_qubits
    for ins in c.body:
        qs = ins.qubits
        l, t = max([best[q] for q in qs])
        top = (l + 1, t + (ins.kind.opclass == CLS_2Q))
        for q in qs:
            best[q] = top
    return max(best)[1] / e


def circuit_metrics(c: Circuit) -> MetricsVector:
    stripped = _strip(c)
    n = stripped.num_qubits
    body = stripped.body
    g = len(body)

    d = depth(stripped)
    # each gate is active on each of its qubits in exactly one layer
    active = sum(len(ins.qubits) for ins in body)
    degree_pairs: set[tuple[int, int]] = set()
    e = 0
    for ins in body:
        if ins.kind.opclass == CLS_2Q:
            e += 1
            a, b = ins.qubits
            degree_pairs.add((a, b) if a < b else (b, a))

    communication = 0.0
    if n > 1 and degree_pairs:
        communication = 2 * len(degree_pairs) / (n * (n - 1))
    entanglement = e / g if g else 0.0
    parallelism = 0.0
    if n > 1 and d > 0:
        parallelism = (g / d - 1) / (n - 1)
    liveness = active / (n * d) if d > 0 else 0.0
    return MetricsVector(
        communication=communication,
        critical_depth=_critical_two_q(stripped, e),
        entanglement_ratio=entanglement,
        parallelism=parallelism,
        liveness=liveness,
    )
