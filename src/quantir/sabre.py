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

Routing is split in two.  The core (``_route_core``) makes every decision
and records only what it emits, in order: a node index, or a negative code
for a SWAP on a physical pair.  It returns that order list, its swap count
and the final layout.  The body builder (``_build``) is the one place routed
``Instruction``s are made: it replays the SWAPs on a copy of the initial
layout and maps each node through it.  ``sabre_route`` is the core followed
by the builder.

Placement runs a few trials: from a random initial permutation, route the
circuit forward, route its reversal back (yielding a layout adapted to both
ends), then score a final forward pass by inserted swaps and depth.  Trials
run the core alone; the depth comes from the order list (``_depth``, the
same per-wire layering as ``circuit.depth``), so no trial builds a body.
The best trial's layout is returned; ``transpile`` also keeps that trial's
final forward pass as its route, built once, instead of routing the layout
a second time.  The search stops at the first trial that inserts no SWAP,
because no later trial can beat it: every swap-free route has the same
depth.  Depth counts qubit wires only, and the DAG orders every two
instructions that share a qubit, so every order the router can emit, on any
relabeling of the wires, layers each wire the same way.  A later swap-free
trial ties and loses on its index.  A trial whose first forward pass is
swap-free ends there, since its reverse and final passes would route from
the same layout again; on a complete graph that is one route per circuit
instead of three per trial.

Scoring a candidate swap costs work in proportion to the gates on its two
wires, not to the size of the front and extended set (after LightSABRE, Zou
et al., arXiv:2409.08368), and a decision recomputes the deltas only of the
candidates its last swap or front change touched.

A route keeps one state: the front and extended set it describes, their
integer distance sums, per logical wire its front gate and that gate's other
operand and the other operands of its extended-set gates, and each
candidate swap's integer deltas.  It is built once, empty, before the first
decision, and from then on only updated by difference; nothing rebuilds it:

* a new front, the first included, is taken by its difference from the
  last: the gates that left or joined the front or the extended set adjust
  the distance sums and the per-wire tables;
* the extended set depends on the front alone, so it changes only when a
  gate executes.  It comes from a search of the sorted front until a search
  stops short of ``extended_set_size``.  That search has found every
  unexecuted two-qubit gate outside the front, since each descends from a
  front gate, and later fronts can only have fewer, so from then on the set
  is those gates still outside the front, with no search.  Either way the
  new set is taken by its set difference from the last; only membership is
  used, so the order a search would give does not matter;
* a swap on (a, b) moves only the gates with an operand on a or b, so each
  candidate scores as the integer front and extended-set distance sums plus
  those gates' integer distance deltas.  It changes the deltas only of the
  candidates at a and b and at the positions of the other operands of the
  swapped wires' gates, and a new front only those on the wires of the gates
  that joined or left the front or the extended set.  Only those are
  recomputed, before each swap is chosen, and the two sums advance by the
  chosen swap's deltas.  A stall-fallback swap is applied the same way: it
  touches a front gate's operand, so it is a candidate;
* after a swap only the front gates on the two swapped wires are re-checked
  for execution; every other front gate is still blocked.

A graph's distance rows and each qubit's sorted incident edges are built
once per ``CouplingGraph`` and kept on it.  Distances are integers, so these
sums equal a float re-sum over every gate exactly: scores, tie-breaks and the
routed output are the same, byte for byte, as routing that applies each
candidate swap and re-sums the front and extended set.  README (Transpiler)
gives the current timings and the ``scripts/routing_quality.py --time``
command that takes them.
"""
from __future__ import annotations

import math
import operator
import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .circuit import Circuit, Instruction, flatten, layered_depth
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
        entries = list(l2p)
        # any integer, NumPy's too; int() would take a float, a string or a
        # bool for some wire
        try:
            if any(type(p) is bool for p in entries):
                raise TypeError
            l2p = [operator.index(p) for p in entries]
        except TypeError:
            raise RoutingError(f"layout entries must be integers: {entries}") from None
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
        for name in ("layout_trials", "extended_set_size", "decay_reset_interval"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, "
                                 f"got {getattr(self, name)!r}") from None
        for name, low in (("layout_trials", 1), ("extended_set_size", 0),
                          ("extended_weight", 0), ("decay_delta", 0),
                          ("decay_reset_interval", 1)):
            if not getattr(self, name) >= low:  # also rejects NaN
                raise ValueError(f"{name} must be >= {low}")
        if self.extended_weight == math.inf:
            # it would score a candidate that brings the extended set to
            # distance 0 as inf * 0, NaN, which no tie-break can order
            raise ValueError("extended_weight must be finite")


def _extended_set(dag: CircuitDag, front: list[int], size: int) -> list[int]:
    """Up to ``size`` upcoming two-qubit gates, BFS order from the sorted front."""
    pairs = dag.pairs
    succs = dag.succs
    ext: list[int] = []
    if size:
        seen = set(front)
        queue = list(front)
        for u in queue:  # the queue grows as the search runs
            for v in succs[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
                    if pairs[v] is not None:
                        ext.append(v)
                        if len(ext) == size:
                            return ext
    return ext


def _route_core(dag: CircuitDag, graph: CouplingGraph, initial_layout: Layout,
                config: SabreConfig) -> tuple[list[int], int, Layout]:
    """Route without building a body; returns (order, swaps, final layout).

    ``order`` lists the emitted elements in sequence: a node index, or
    ``-1 - (a * n + b)`` for a SWAP on physical ``(a, b)`` of an ``n``-wire
    device.  ``swaps`` counts the SWAPs.  ``_build`` turns the order into
    the routed circuit and ``_depth`` gives that circuit's depth.
    """
    circ = dag.circuit
    n_phys = graph.num_qubits
    if circ.num_qubits > n_phys:
        raise RoutingError(
            f"circuit has {circ.num_qubits} qubits but device has {n_phys}")
    layout = initial_layout.copy()
    if len(layout) != n_phys:
        raise RoutingError(
            f"layout covers {len(layout)} wires, device has {n_phys}")

    succs = dag.succs
    pairs = dag.pairs
    indeg = dag.pred_counts()
    front = set(dag.front_layer())
    dist, edges = graph._routing_tables()
    l2p, p2l = layout._l2p, layout._p2l
    order: list[int] = []
    emit = order.append

    stall_limit = max(50, 10 * n_phys)
    size = config.extended_set_size
    w = config.extended_weight
    delta = config.decay_delta
    # The kept state, built once here and from then on updated only by
    # difference: the front and extended set it describes, their integer
    # distance sums, per logical wire its front node, the other operand of
    # that gate and the other operands of its extended-set gates, and each
    # candidate swap's integer (front, extended-set) distance deltas.
    # ``dirty`` holds the edges whose membership or deltas may have changed
    # since they were last scored.
    front_set, ext_set = set(), set()
    ext_is_rest = False
    base_f = base_e = 0
    front_node = [-1] * n_phys
    front_mate = [-1] * n_phys
    ext_mates = [[] for _ in range(n_phys)]
    deltas = {}
    dirty = set()
    ready = sorted(front)  # front nodes whose executability may have changed
    new_front = True  # the first front is a difference from the empty state

    while front:
        # execute everything executable, in node order
        queue = deque(ready)
        while queue:
            node = queue.popleft()
            pair = pairs[node]
            if pair is not None and dist[l2p[pair[0]]][l2p[pair[1]]] != 1:
                continue  # blocked two-qubit gate
            front.discard(node)
            emit(node)
            new_front = True
            for s in succs[node]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    front.add(s)
                    queue.append(s)
        if not front:
            break
        if new_front:
            # Reset decay and take the front and the extended set by their
            # difference from the last: only the gates that left or joined
            # them change the state, and the candidates on their wires are
            # the only ones whose deltas change.
            new_front = False
            decay = [1.0] * n_phys
            swaps_since_reset = 0
            swaps_since_progress = 0
            if ext_is_rest:
                # the extended set is every unexecuted two-qubit gate outside
                # the front, so it only loses the gates that reached the front
                new_e = {v for v in ext_set if indeg[v]}
            else:
                new_e = set(_extended_set(dag, sorted(front), size))
                # A search that stops short of ``size`` found every
                # unexecuted two-qubit gate outside the front (each descends
                # from a front gate), and later fronts can only have fewer:
                # from here on it would return those still outside.
                ext_is_rest = len(new_e) < size
            f_left = front_set - front
            f_joined = front - front_set
            e_left = ext_set - new_e
            e_joined = new_e - ext_set
            front_set = set(front)
            ext_set = new_e
            for node in f_left:
                q0, q1 = pairs[node]
                p0, p1 = l2p[q0], l2p[q1]
                base_f -= dist[p0][p1]
                front_node[q0] = front_node[q1] = -1
                front_mate[q0] = front_mate[q1] = -1
                dirty.update(edges[p0])
                dirty.update(edges[p1])
            for node in e_left:
                q0, q1 = pairs[node]
                p0, p1 = l2p[q0], l2p[q1]
                base_e -= dist[p0][p1]
                ext_mates[q0].remove(q1)
                ext_mates[q1].remove(q0)
                dirty.update(edges[p0])
                dirty.update(edges[p1])
            for node in f_joined:
                q0, q1 = pairs[node]
                p0, p1 = l2p[q0], l2p[q1]
                base_f += dist[p0][p1]
                front_node[q0] = front_node[q1] = node
                front_mate[q0], front_mate[q1] = q1, q0
                dirty.update(edges[p0])
                dirty.update(edges[p1])
            for node in e_joined:
                q0, q1 = pairs[node]
                p0, p1 = l2p[q0], l2p[q1]
                base_e += dist[p0][p1]
                ext_mates[q0].append(q1)
                ext_mates[q1].append(q0)
                dirty.update(edges[p0])
                dirty.update(edges[p1])
            inv_f = 1.0 / len(front)
            inv_e = 1.0 / len(ext_set) if ext_set else 0.0

        # Every front gate is a blocked two-qubit gate: insert one SWAP.  A
        # swap on (a, b) moves only the gates with an operand on a or b, so
        # each candidate scores as the integer base sums plus those gates'
        # distance deltas; only the dirty ones are recomputed.
        for e in dirty:
            a, b = e
            la, lb = p2l[a], p2l[b]
            ma, mb = front_mate[la], front_mate[lb]
            if ma < 0 and mb < 0:
                deltas.pop(e, None)  # no front gate on it: no candidate
                continue
            da, db = dist[a], dist[b]
            s = 0
            if ma >= 0 and ma != lb:
                o = l2p[ma]
                s += db[o] - da[o]
            if mb >= 0 and mb != la:
                o = l2p[mb]
                s += da[o] - db[o]
            t = 0
            for m in ext_mates[la]:
                if m != lb:
                    o = l2p[m]
                    t += db[o] - da[o]
            for m in ext_mates[lb]:
                if m != la:
                    o = l2p[m]
                    t += da[o] - db[o]
            deltas[e] = (s, t)
        dirty.clear()
        # Distances are integers, so the float scores equal a full re-sum's
        # bit for bit (with no extended set, base_e, t and inv_e are 0 and
        # the term adds 0.0); ties go to the smallest edge, as in a scan of
        # the sorted candidates.
        best_edge = None
        best_score = math.inf
        if swaps_since_progress >= stall_limit:
            # safeguard: march the oldest blocked gate together greedily,
            # until the front changes; its swap touches a front operand, so
            # it is a candidate and the state advances as for a scored one
            q0, q1 = pairs[min(front)]
            p0, p1 = l2p[q0], l2p[q1]
            step = min(graph.neighbors(p0), key=lambda nb: (dist[nb][p1], nb))
            best_edge = (p0, step) if p0 < step else (step, p0)
        elif swaps_since_reset:
            for e, (s, t) in deltas.items():
                a, b = e
                score = ((base_f + s) * inv_f + w * (base_e + t) * inv_e) \
                    * (decay[a] if decay[a] >= decay[b] else decay[b])
                if score < best_score or \
                        (score == best_score and e < best_edge):
                    best_score = score
                    best_edge = e
        else:
            # every decay is 1.0 here, and x * 1.0 is x
            for e, (s, t) in deltas.items():
                score = (base_f + s) * inv_f + w * (base_e + t) * inv_e
                if score < best_score or \
                        (score == best_score and e < best_edge):
                    best_score = score
                    best_edge = e
        a, b = best_edge
        emit(-1 - (a * n_phys + b))
        la, lb = p2l[a], p2l[b]
        p2l[a], p2l[b] = lb, la
        l2p[la], l2p[lb] = b, a
        decay[a] += delta
        decay[b] += delta
        swaps_since_reset += 1
        swaps_since_progress += 1
        if swaps_since_reset >= config.decay_reset_interval:
            decay = [1.0] * n_phys
            swaps_since_reset = 0
        s, t = deltas[best_edge]
        base_f += s
        base_e += t
        # the swap moves the gates on la and lb: the candidates at a and b
        # and at the positions of those gates' other operands
        dirty.update(edges[a])
        dirty.update(edges[b])
        for l in (la, lb):
            m = front_mate[l]
            if m >= 0:
                dirty.update(edges[l2p[m]])
            for m in ext_mates[l]:
                dirty.update(edges[l2p[m]])
        # only front gates on the two swapped wires can have become executable
        fa, fb = front_node[la], front_node[lb]
        if fa > fb:
            fa, fb = fb, fa
        ready = (fa, fb) if 0 <= fa != fb else (fb,) if fb >= 0 else ()

    return order, len(order) - len(dag), layout


def _build(dag: CircuitDag, n_phys: int, initial_layout: Layout,
           order: list[int]) -> Circuit:
    """The routed circuit of ``order`` from ``initial_layout``.

    Replays the SWAPs on a copy of the layout and maps each node's operands
    through it; the only place routed instructions are made.  A body may
    hold one instruction object at many nodes (the QASM reader and lowering
    make them so), and ``routed`` maps ``id(ins)`` of a node's instruction
    to its routed copy, so each object is mapped once while the layout
    stands.  The mapping changes at every SWAP, so the table is cleared
    there.  ``dag.body`` holds every keyed object until this call returns
    and the table dies with the call, so no id is reused inside it.
    """
    body = dag.body
    layout = initial_layout.copy()
    l2p = layout._l2p
    items: list[Instruction] = []
    emit = items.append
    new = tuple.__new__
    swap = GateKind.SWAP
    routed: dict[int, Instruction] = {}
    # every output instruction on a qubit, or an ordered pair, shares one
    # operand tuple
    ones = _physical_singles(n_phys)
    pair = {}.setdefault
    for x in order:
        if x >= 0:
            ins = body[x]
            out = routed.get(id(ins))
            if out is None:
                qs = ins.qubits
                if len(qs) == 1:
                    qs = ones[l2p[qs[0]]]
                elif len(qs) == 2:
                    qs = (l2p[qs[0]], l2p[qs[1]])
                    qs = pair(qs, qs)
                else:
                    qs = tuple([l2p[q] for q in qs])
                out = routed[id(ins)] = new(Instruction, (
                    ins.kind, qs, ins.params, ins.cbit, ins.dagger))
            emit(out)
        else:
            a, b = divmod(-1 - x, n_phys)
            qs = (a, b)
            emit(new(Instruction, (swap, pair(qs, qs), (), None, False)))
            layout.swap_physical(a, b)
            routed.clear()
    return Circuit._from_items(n_phys, dag.circuit.num_cbits, items)


@lru_cache(maxsize=8)
def _physical_singles(n_phys: int) -> tuple:
    """``(p,)`` for each physical qubit ``p``, one object per width.

    The operand tuple of every routed one-qubit instruction and of every
    measurement ``transpile`` re-targets, so compiles on one device share
    them.
    """
    return tuple([(p,) for p in range(n_phys)])


def _depth(dag: CircuitDag, initial_layout: Layout, order: list[int]) -> int:
    """``depth`` of ``_build``'s circuit for ``order``, without building it.

    Layered per logical wire, so nodes need no mapping: a SWAP puts both its
    wires on one level, so it is layered on the logical pair that sits on
    its physical wires when it runs.
    """
    n = len(initial_layout)
    p2l = list(initial_layout._p2l)
    body = dag.body
    operands = []
    emit = operands.append
    for x in order:
        if x >= 0:
            emit(body[x].qubits)
        else:
            a, b = divmod(-1 - x, n)
            la, lb = p2l[a], p2l[b]
            p2l[a], p2l[b] = lb, la
            emit((la, lb))
    return layered_depth(n, operands)


def sabre_route(dag: CircuitDag, graph: CouplingGraph, initial_layout,
                config: SabreConfig = SabreConfig()) -> tuple[Circuit, Layout]:
    """Route a circuit onto ``graph``; returns (physical circuit, final layout).

    The output circuit acts on ``graph.num_qubits`` wires; logical wire ``l``
    starts at physical ``initial_layout[l]`` and ends at the returned
    layout's ``phys(l)``.
    """
    if not isinstance(initial_layout, Layout):
        initial_layout = Layout(initial_layout)
    order, _, final = _route_core(dag, graph, initial_layout, config)
    return _build(dag, graph.num_qubits, initial_layout, order), final


def _best_trial(dag: CircuitDag, graph: CouplingGraph, config: SabreConfig,
                seed: int) -> tuple[Layout, Circuit, Layout]:
    """Layout trials; the winner's initial layout and its forward route.

    Each pass runs the routing core alone, which returns the emitted order,
    its swap count and its final layout, not a body.  A trial is scored by
    the swap count and the depth of its last forward pass, the depth taken
    from the order (``_depth``).  That pass is exactly the route
    ``transpile`` needs for the trial's layout, so only the winner's order
    is built into a circuit, once, and no route is recomputed.

    The search stops at the first trial that inserts no SWAP.  A later trial
    that inserts swaps scores worse; one that inserts none has the same depth
    (a swap-free route relabels the wires of a topological order of the DAG,
    and every such order has the same per-wire layering), so it ties and
    loses on the trial index.  When a trial's first forward pass is already
    swap-free, its reverse and final passes would repeat that route from the
    same layout, so they are skipped and that first pass is built.
    """
    n_phys = graph.num_qubits
    if not dag.two_qubit_nodes():
        # nothing to place; any permutation routes identically
        initial = Layout.identity(n_phys)
        return (initial, *sabre_route(dag, graph, initial, config))
    rng = random.Random(seed)
    rev_dag = None
    best = None
    for trial in range(config.layout_trials):
        l0 = Layout.shuffled(n_phys, rng)
        order, swaps, l1 = _route_core(dag, graph, l0, config)
        if not swaps:
            return l0, _build(dag, n_phys, l0, order), l1
        if rev_dag is None:
            rev_dag = CircuitDag(dag.reversed_circuit())
        _, _, l2 = _route_core(rev_dag, graph, l1, config)
        order, swaps, final = _route_core(dag, graph, l2, config)
        key = (swaps, _depth(dag, l2, order), trial)
        if best is None or key < best[0]:
            best = (key, l2, order, final)
        if not swaps:
            break
    _, initial, order, final = best
    return initial, _build(dag, n_phys, initial, order), final


def sabre_layout(dag: CircuitDag, graph: CouplingGraph,
                 config: SabreConfig = SabreConfig(),
                 seed: int = 0) -> Layout:
    """Pick an initial layout by bidirectional routing trials."""
    return _best_trial(dag, graph, config, seed)[0]


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
