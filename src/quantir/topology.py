"""Device coupling graphs: construction, distances, JSON interchange.

A coupling graph is an undirected, connected graph over physical qubits.
Builders cover the usual shapes: a line, a rectangular grid, all-to-all,
a uniform random tree with extra edges, and the brick-like heavy-hex lattice
(rows of qubits joined by dedicated bridge qubits).
"""
from __future__ import annotations

import heapq
import json
import math
import operator
import random
from collections import deque

import numpy as np

__all__ = [
    "TopologyError", "CouplingGraph",
    "linear", "square", "full", "random_topology", "heavy_hex", "build",
]


class TopologyError(ValueError):
    """Invalid coupling graph or construction parameter."""


def _index(value, what: str) -> int:
    # any integer, NumPy's too; int() would take a float, a string or a bool
    try:
        if type(value) is bool:
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise TopologyError(f"{what} must be an integer, got {value!r}") from None


class CouplingGraph:
    """Undirected connected graph over qubits ``0..num_qubits-1``."""

    __slots__ = ("num_qubits", "edges", "_adj", "_dist", "_routing")

    def __init__(self, num_qubits: int, edges):
        num_qubits = _index(num_qubits, "qubit count")
        if num_qubits < 1:
            raise TopologyError("coupling graph needs at least one qubit")
        canon = set()
        for e in edges:
            a, b = e
            a, b = _index(a, "edge entry"), _index(b, "edge entry")
            if not (0 <= a < num_qubits and 0 <= b < num_qubits):
                raise TopologyError(f"edge ({a},{b}) out of range for {num_qubits} qubits")
            if a == b:
                raise TopologyError(f"self-loop on qubit {a}")
            canon.add((a, b) if a < b else (b, a))
        self.num_qubits = num_qubits
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(canon))
        adj: list[list[int]] = [[] for _ in range(num_qubits)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        self._adj = tuple(tuple(sorted(ns)) for ns in adj)
        self._dist: np.ndarray | None = None
        self._routing: tuple | None = None
        # connectivity
        seen = [False] * num_qubits
        seen[0] = True
        queue = deque([0])
        found = 1
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if not seen[v]:
                    seen[v] = True
                    found += 1
                    queue.append(v)
        if found != num_qubits:
            raise TopologyError(
                f"coupling graph is not connected ({found} of {num_qubits} reachable)")

    def neighbors(self, q: int) -> tuple[int, ...]:
        return self._adj[q]

    def degree(self, q: int) -> int:
        return len(self._adj[q])

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adj[a]

    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path hop counts (BFS per node, cached)."""
        if self._dist is None:
            n = self.num_qubits
            dist = np.zeros((n, n), dtype=np.int32)
            for src in range(n):
                row = dist[src]
                seen = [False] * n
                seen[src] = True
                queue = deque([(src, 0)])
                while queue:
                    u, du = queue.popleft()
                    row[u] = du
                    for v in self._adj[u]:
                        if not seen[v]:
                            seen[v] = True
                            queue.append((v, du + 1))
            self._dist = dist
        return self._dist

    def _routing_tables(self) -> tuple[tuple, tuple]:
        """``(rows, incident)`` as the router reads them, built once per graph.

        ``rows[a][b]`` is the hop count from ``a`` to ``b``, as Python ints;
        ``incident[p]`` holds the edges at ``p`` as ``(low, high)`` pairs,
        sorted.
        """
        if self._routing is None:
            rows = tuple(map(tuple, self.distance_matrix().tolist()))
            incident = tuple(tuple((p, nb) if p < nb else (nb, p) for nb in adj)
                             for p, adj in enumerate(self._adj))
            self._routing = (rows, incident)
        return self._routing

    def distance(self, a: int, b: int) -> int:
        return int(self.distance_matrix()[a, b])

    def __eq__(self, other):
        if not isinstance(other, CouplingGraph):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self.edges == other.edges

    __hash__ = None

    def __repr__(self):
        return f"<CouplingGraph {self.num_qubits} qubits, {len(self.edges)} edges>"

    # -- JSON interchange: {"n": int, "edges": [[a, b], ...]} ---------------

    def to_json(self) -> str:
        return json.dumps({"n": self.num_qubits,
                           "edges": [list(e) for e in self.edges]})

    @classmethod
    def from_json(cls, text: str) -> "CouplingGraph":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise TopologyError(f"invalid topology JSON: {e}") from None
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise TopologyError('topology JSON needs "n" and "edges" keys')
        n = obj["n"]
        edges = obj["edges"]
        # JSON true and false load as bools, which isinstance takes for ints
        if type(n) is not int or not isinstance(edges, list):
            raise TopologyError('"n" must be an int and "edges" a list')
        for e in edges:
            if (not isinstance(e, list) or len(e) != 2
                    or not all(type(x) is int for x in e)):
                raise TopologyError(f"edge entries must be [int, int], got {e!r}")
        return cls(n, edges)


def linear(n: int) -> CouplingGraph:
    """A path: i -- i+1."""
    return CouplingGraph(n, [(i, i + 1) for i in range(n - 1)])


def square(n: int) -> CouplingGraph:
    """Rectangular grid: floor(sqrt(n)) rows, row-major, first n cells."""
    if n < 1:
        raise TopologyError("square topology needs at least one qubit")
    rows = int(math.isqrt(n))
    cols = -(-n // rows)
    edges = []
    for i in range(n):
        r, c = divmod(i, cols)
        if c + 1 < cols and i + 1 < n:
            edges.append((i, i + 1))
        if (r + 1) * cols + c < n:
            edges.append((i, i + cols))
    return CouplingGraph(n, edges)


def full(n: int) -> CouplingGraph:
    """All-to-all."""
    return CouplingGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_topology(n: int, extra_edge_fraction: float = 0.1,
                    seed: int = 0) -> CouplingGraph:
    """Uniform random spanning tree plus ``round(fraction*n)`` extra edges."""
    if n < 1:
        raise TopologyError("random topology needs at least one qubit")
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    if n == 2:
        edges.add((0, 1))
    elif n > 2:
        seq = [rng.randrange(n) for _ in range(n - 2)]
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        leaves = [i for i in range(n) if degree[i] == 1]
        heapq.heapify(leaves)
        for x in seq:
            leaf = heapq.heappop(leaves)
            edges.add((leaf, x) if leaf < x else (x, leaf))
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves, x)
        u = heapq.heappop(leaves)
        v = heapq.heappop(leaves)
        edges.add((u, v) if u < v else (v, u))
    want_extra = round(extra_edge_fraction * n)
    max_edges = n * (n - 1) // 2
    want_extra = min(want_extra, max_edges - len(edges))
    added = 0
    while added < want_extra:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            continue
        e = (a, b) if a < b else (b, a)
        if e in edges:
            continue
        edges.add(e)
        added += 1
    return CouplingGraph(n, sorted(edges))


def heavy_hex(d: int) -> CouplingGraph:
    """Heavy-hex lattice of odd distance ``d`` >= 3.

    ``d`` rows of ``2d-1`` qubits form horizontal paths; each pair of
    adjacent rows is joined by ``(d+1)/2`` bridge qubits sitting at columns
    0, 4, ..., 2d-2.  Total qubits: ``(5*d*d - 2*d - 1) // 2``.
    """
    if d < 3 or d % 2 == 0:
        raise TopologyError("heavy-hex distance must be odd and >= 3")
    row_len = 2 * d - 1
    edges = []
    for r in range(d):
        base = r * row_len
        for j in range(row_len - 1):
            edges.append((base + j, base + j + 1))
    bridge = d * row_len
    per_gap = (d + 1) // 2
    for gap in range(d - 1):
        for k in range(per_gap):
            col = 4 * k
            edges.append((bridge, gap * row_len + col))
            edges.append((bridge, (gap + 1) * row_len + col))
            bridge += 1
    return CouplingGraph(bridge, edges)


_BUILDERS = {
    "linear": linear,
    "square": square,
    "full": full,
    "heavy_hex": heavy_hex,
}


def build(kind: str, param: int) -> CouplingGraph:
    """Build a named topology; ``param`` is the qubit count (distance for
    heavy_hex).  The random kind needs a seed, so it has no ``build`` entry."""
    fn = _BUILDERS.get(kind)
    if fn is None:
        raise TopologyError(
            f"unknown topology kind {kind!r}; choose from {sorted(_BUILDERS)}")
    return fn(param)
