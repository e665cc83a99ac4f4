"""Swap-based routing and initial placement (Sabre-style heuristic search).

Routing keeps a logical-to-physical layout and executes gates whose physical
operands are adjacent on the device.  When every front-layer gate is blocked,
one SWAP is inserted, chosen to minimize

    mean front-layer distance + weight * mean extended-set distance,

scaled by the larger decay factor of the swap's endpoints.  Decay penalizes
recently swapped wires and resets on every gate execution and every
``decay_reset_interval`` swaps.  Candidate swaps are the coupling edges
touching any blocked gate's operands; ties break on the lexicographically
smallest edge, so routing is fully deterministic.

Placement runs a few trials: from a random initial permutation, route the
circuit forward, route its reversal back (yielding a layout adapted to both
ends), then score a final forward pass by inserted swaps and depth.  The best
trial's layout is returned.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .circuit import Circuit, Instruction, depth, flatten
from .dag import CircuitDag
from .gates import CLS_2Q, GateKind
from .topology import CouplingGraph

__all__ = ["Layout", "SabreConfig", "RoutingError", "sabre_route", "sabre_layout",
           "naive_swap_count"]


class RoutingError(ValueError):
    """Routing input is inconsistent (width, layout shape, ...)."""


class Layout:
    """Bijection between logical and physical wires of equal count."""

    __slots__ = ("_l2p", "_p2l")

    def __init__(self, l2p):
        l2p = [int(p) for p in l2p]
        n = len(l2p)
        if sorted(l2p) != list(range(n)):
            raise RoutingError(f"not a permutation of 0..{n - 1}: {l2p}")
        self._l2p = l2p
        p2l = [0] * n
        for l, p in enumerate(l2p):
            p2l[p] = l
        self._p2l = p2l

    @classmethod
    def identity(cls, n: int) -> "Layout":
        return cls(range(n))

    @classmethod
    def shuffled(cls, n: int, rng: random.Random) -> "Layout":
        perm = list(range(n))
        rng.shuffle(perm)
        return cls(perm)

    def phys(self, logical: int) -> int:
        return self._l2p[logical]

    def log(self, physical: int) -> int:
        return self._p2l[physical]

    def swap_physical(self, a: int, b: int) -> None:
        """Exchange whatever logical wires sit on physical ``a`` and ``b``."""
        la, lb = self._p2l[a], self._p2l[b]
        self._p2l[a], self._p2l[b] = lb, la
        self._l2p[la], self._l2p[lb] = b, a

    def copy(self) -> "Layout":
        new = object.__new__(Layout)
        new._l2p = list(self._l2p)
        new._p2l = list(self._p2l)
        return new

    def __iter__(self):
        return iter(self._l2p)

    def __len__(self):
        return len(self._l2p)

    def __getitem__(self, logical: int) -> int:
        return self._l2p[logical]

    def __eq__(self, other):
        if not isinstance(other, Layout):
            return NotImplemented
        return self._l2p == other._l2p

    __hash__ = None

    def __repr__(self):
        return f"Layout({self._l2p})"


@dataclass(frozen=True)
class SabreConfig:
    layout_trials: int = 4
    extended_set_size: int = 20
    extended_weight: float = 0.5
    decay_delta: float = 0.001
    decay_reset_interval: int = 5

    def __post_init__(self):
        for name, low in (("layout_trials", 1), ("extended_set_size", 0),
                          ("extended_weight", 0), ("decay_delta", 0),
                          ("decay_reset_interval", 1)):
            if not getattr(self, name) >= low:  # also rejects NaN
                raise ValueError(f"{name} must be >= {low}")


def _extended_set(dag: CircuitDag, front, size: int) -> list[int]:
    """Up to ``size`` upcoming two-qubit gates, BFS order from the front."""
    body = dag.body
    succs = dag.succs
    ext: list[int] = []
    seen = set(front)
    queue = deque(sorted(front))
    while queue and len(ext) < size:
        u = queue.popleft()
        for v in succs[u]:
            if v in seen:
                continue
            seen.add(v)
            queue.append(v)
            if body[v].kind.opclass == CLS_2Q:
                ext.append(v)
                if len(ext) >= size:
                    break
    return ext


def sabre_route(dag: CircuitDag, graph: CouplingGraph, initial_layout,
                config: SabreConfig = SabreConfig()) -> tuple[Circuit, Layout]:
    """Route a circuit onto ``graph``; returns (physical circuit, final layout).

    The output circuit acts on ``graph.num_qubits`` wires; logical wire ``l``
    starts at physical ``initial_layout[l]`` and ends at the returned
    layout's ``phys(l)``.
    """
    circ = dag.circuit
    n_phys = graph.num_qubits
    if circ.num_qubits > n_phys:
        raise RoutingError(
            f"circuit has {circ.num_qubits} qubits but device has {n_phys}")
    layout = initial_layout.copy() if isinstance(initial_layout, Layout) \
        else Layout(initial_layout)
    if len(layout) != n_phys:
        raise RoutingError(
            f"layout covers {len(layout)} wires, device has {n_phys}")

    body = dag.body
    succs = dag.succs
    indeg = dag.pred_counts()
    front = set(dag.front_layer())
    dist = graph.distance_matrix().tolist()
    l2p = layout._l2p
    out = Circuit(n_phys, circ.num_cbits)
    emit = out._append_fast
    raw = Instruction._raw

    decay = [1.0] * n_phys
    swaps_since_reset = 0
    swaps_since_progress = 0
    stall_limit = max(50, 10 * n_phys)
    w = config.extended_weight
    delta = config.decay_delta

    while front:
        # execute everything executable, in node order
        executed = False
        queue = deque(sorted(front))
        while queue:
            node = queue.popleft()
            if node not in front:
                continue
            ins = body[node]
            qs = ins.qubits
            if len(qs) == 2 and ins.kind.opclass == CLS_2Q \
                    and dist[l2p[qs[0]]][l2p[qs[1]]] != 1:
                continue  # blocked two-qubit gate
            front.discard(node)
            emit(raw(ins.kind, tuple(l2p[q] for q in qs), ins.params,
                     ins.cbit, ins.dagger))
            executed = True
            for s in succs[node]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    front.add(s)
                    queue.append(s)
        if executed:
            decay = [1.0] * n_phys
            swaps_since_reset = 0
            swaps_since_progress = 0
        if not front:
            break

        # every front gate is a blocked two-qubit gate: insert one SWAP
        front_list = sorted(front)
        if swaps_since_progress >= stall_limit:
            # safeguard: march the oldest blocked gate together greedily
            g = body[front_list[0]]
            p0, p1 = l2p[g.qubits[0]], l2p[g.qubits[1]]
            step = min(graph.neighbors(p0), key=lambda nb: (dist[nb][p1], nb))
            best_edge = (p0, step) if p0 < step else (step, p0)
        else:
            active = set()
            for node in front_list:
                g = body[node]
                active.add(l2p[g.qubits[0]])
                active.add(l2p[g.qubits[1]])
            candidates = set()
            for p in active:
                for nb in graph.neighbors(p):
                    candidates.add((p, nb) if p < nb else (nb, p))
            ext = _extended_set(dag, front_list, config.extended_set_size)
            best_edge = None
            best_score = None
            inv_f = 1.0 / len(front_list)
            inv_e = 1.0 / len(ext) if ext else 0.0
            for a, b in sorted(candidates):
                layout.swap_physical(a, b)
                s = 0.0
                for node in front_list:
                    g = body[node]
                    s += dist[l2p[g.qubits[0]]][l2p[g.qubits[1]]]
                score = s * inv_f
                if ext:
                    s = 0.0
                    for node in ext:
                        g = body[node]
                        s += dist[l2p[g.qubits[0]]][l2p[g.qubits[1]]]
                    score += w * s * inv_e
                layout.swap_physical(a, b)  # undo
                score *= decay[a] if decay[a] >= decay[b] else decay[b]
                if best_score is None or score < best_score:
                    best_score = score
                    best_edge = (a, b)
        a, b = best_edge
        emit(raw(GateKind.SWAP, (a, b), (), None, False))
        layout.swap_physical(a, b)
        decay[a] += delta
        decay[b] += delta
        swaps_since_reset += 1
        swaps_since_progress += 1
        if swaps_since_reset >= config.decay_reset_interval:
            decay = [1.0] * n_phys
            swaps_since_reset = 0

    return out, layout


def _swap_cost(original: Circuit, routed: Circuit) -> int:
    def count(c: Circuit) -> int:
        n = 0
        for ins in c.body:
            if ins.kind is GateKind.SWAP:
                n += 1
        return n

    return count(routed) - count(original)


def sabre_layout(dag: CircuitDag, graph: CouplingGraph,
                 config: SabreConfig = SabreConfig(),
                 seed: int = 0) -> Layout:
    """Pick an initial layout by bidirectional routing trials."""
    circ = dag.circuit
    if circ.num_qubits > graph.num_qubits:
        raise RoutingError(
            f"circuit has {circ.num_qubits} qubits but device has "
            f"{graph.num_qubits}")
    if not dag.two_qubit_nodes():
        # nothing to place; any permutation routes identically
        return Layout.identity(graph.num_qubits)
    rng = random.Random(seed)
    rev_dag = CircuitDag(dag.reversed_circuit())
    best = None
    for trial in range(config.layout_trials):
        l0 = Layout.shuffled(graph.num_qubits, rng)
        _, l1 = sabre_route(dag, graph, l0, config)
        _, l2 = sabre_route(rev_dag, graph, l1, config)
        routed, _ = sabre_route(dag, graph, l2, config)
        key = (_swap_cost(circ, routed), depth(routed), trial)
        if best is None or key < best[0]:
            best = (key, l2)
    return best[1]


def naive_swap_count(circuit: Circuit, graph: CouplingGraph) -> int:
    """Baseline router: swaps a per-gate shortest-path walk inserts.

    From the identity layout, each two-qubit gate's first operand walks
    toward the second along a shortest path (lowest-numbered neighbour first)
    until the two are adjacent.
    """
    l2p = list(range(graph.num_qubits))
    p2l = list(range(graph.num_qubits))
    swaps = 0
    for ins in flatten(circuit).body:
        if ins.kind.opclass != CLS_2Q:
            continue
        a, b = l2p[ins.qubits[0]], l2p[ins.qubits[1]]
        while graph.distance(a, b) > 1:
            step = min(nb for nb in graph.neighbors(a)
                       if graph.distance(nb, b) < graph.distance(a, b))
            la, ls = p2l[a], p2l[step]
            l2p[la], l2p[ls] = step, a
            p2l[a], p2l[step] = ls, la
            a = step
            swaps += 1
    return swaps
