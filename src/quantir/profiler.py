"""Time profiling over the circuit containment graph.

``profile`` walks the *unflattened* circuit once, children first, and counts
each definition's direct gates and children as it visits them.  Every
distinct sub-circuit definition (by object identity) becomes a node, as does
every gate kind that appears.  Given a device time table (gate name ->
duration), it accounts:

* a definition's per-instance time = its direct gates' time plus its direct
  children's per-instance time scaled by multiplicity;
* a definition's expansion count = how many times it ends up instantiated
  when the root is expanded (root = 1);
* a gate-kind node's calls = total instances over all expansions; its self
  and cumulative time are ``calls * duration``;
* an edge parent->child carries ``calls`` = parent expansion x direct count.

Time shares are cumulative-time fractions of the total, so gate-kind shares
sum to 1 and the root is 100%.  Definitions without a name are auto-named
``QCircuit_k`` with ``k`` assigned children-first, so the innermost earliest
definition is ``QCircuit_0``.

BARRIER carries no duration and is ignored; MEASURE is timed like a gate.
Instance dagger flags do not change the accounting: a definition's gate
profile is read as written.

``report_gprof`` renders a flat profile (ranked by self time) plus a call
graph section; ``report_dot`` renders the graph in DOT with ``name\\n<pct>%``
node labels and ``<N>x`` edge labels.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .circuit import Circuit, SubcircuitInstance
from .gates import KIND_BY_NAME, GateKind

__all__ = ["ProfilerError", "ProfileNode", "ProfileEdge", "ProfileReport",
           "profile", "report_gprof", "report_dot"]

_GATE_NAMES = frozenset(KIND_BY_NAME)


class ProfilerError(ValueError):
    """Bad time table or ambiguous circuit names."""


@dataclass(frozen=True)
class ProfileNode:
    name: str
    kind: str  # "circuit" or "gate"
    calls: int
    self_time: float
    cumulative_time: float
    time_share: float


@dataclass(frozen=True)
class ProfileEdge:
    parent: str
    child: str
    calls: int


@dataclass(frozen=True)
class ProfileReport:
    nodes: tuple[ProfileNode, ...]
    edges: tuple[ProfileEdge, ...]
    total_time: float


def _collect_defs(root: Circuit):
    """All reachable definitions, children before parents (postorder), and
    each one's direct contents: gate counts by name and child counts by id,
    both in the order the body first names them."""
    order: list[Circuit] = []
    gate_counts: dict[int, Counter] = {}
    child_mults: dict[int, Counter] = {}

    def visit(c: Circuit):
        gc = gate_counts[id(c)] = Counter()
        cm = child_mults[id(c)] = Counter()
        for el in c.body:
            if isinstance(el, SubcircuitInstance):
                if id(el.circuit) not in gate_counts:
                    visit(el.circuit)
                cm[id(el.circuit)] += 1
            elif el.kind is not GateKind.BARRIER:
                gc[el.kind.name] += 1
        order.append(c)

    visit(root)
    return order, gate_counts, child_mults


def _name_defs(defs: list[Circuit]) -> dict[int, str]:
    names: dict[int, str] = {}
    taken: set[str] = set()
    for c in defs:
        if c.name is None:
            continue
        if c.name in taken:
            raise ProfilerError(f"duplicate circuit name {c.name!r}")
        if c.name in _GATE_NAMES:
            raise ProfilerError(
                f"circuit name {c.name!r} collides with a gate name")
        taken.add(c.name)
        names[id(c)] = c.name
    k = 0
    for c in defs:
        if id(c) in names:
            continue
        while f"QCircuit_{k}" in taken:
            k += 1
        names[id(c)] = f"QCircuit_{k}"
        taken.add(f"QCircuit_{k}")
        k += 1
    return names


def _check_times(times) -> dict[str, float]:
    checked: dict[str, float] = {}
    for name, dur in times.items():
        if name not in _GATE_NAMES:
            raise ProfilerError(f"unknown gate name in time table: {name!r}")
        dur = float(dur)
        if not dur > 0:
            raise ProfilerError(f"duration for {name} must be > 0, got {dur}")
        checked[name] = dur
    return checked


def profile(circuit: Circuit, times: dict[str, float]) -> ProfileReport:
    """Account device time over the containment graph of ``circuit``."""
    times = _check_times(times)
    defs, gate_counts, child_mults = _collect_defs(circuit)  # children first
    names = _name_defs(defs)

    # expansion counts, parents first (reverse postorder is topological);
    # a definition's count is final when the loop reaches it
    expansion: dict[int, int] = {id(c): 0 for c in defs}
    expansion[id(circuit)] = 1
    gate_calls: Counter = Counter()
    for c in reversed(defs):
        ex = expansion[id(c)]
        for cid, m in child_mults[id(c)].items():
            expansion[cid] += ex * m
        for k, n in gate_counts[id(c)].items():
            gate_calls[k] += ex * n

    # every present gate kind needs a duration
    missing = [k for k in sorted(gate_calls) if k not in times]
    if missing:
        raise ProfilerError(
            "no duration for gate(s): " + ", ".join(missing))

    # per-instance cumulative time, children first
    per_instance: dict[int, float] = {}
    for c in defs:
        own = sum(n * times[k] for k, n in gate_counts[id(c)].items())
        kids = sum(m * per_instance[cid]
                   for cid, m in child_mults[id(c)].items())
        per_instance[id(c)] = own + kids

    total = per_instance[id(circuit)]

    def share(t: float) -> float:
        return t / total if total > 0 else 0.0

    nodes: list[ProfileNode] = []
    rev = list(reversed(defs))             # root first
    for c in rev:
        cum = expansion[id(c)] * per_instance[id(c)]
        nodes.append(ProfileNode(
            name=names[id(c)], kind="circuit", calls=expansion[id(c)],
            self_time=0.0, cumulative_time=cum, time_share=share(cum)))
    for k in sorted(gate_calls):
        t = gate_calls[k] * times[k]
        nodes.append(ProfileNode(
            name=k, kind="gate", calls=gate_calls[k],
            self_time=t, cumulative_time=t, time_share=share(t)))

    def_pos = {id(c): i for i, c in enumerate(rev)}
    edges: list[ProfileEdge] = []
    for c in rev:
        ex = expansion[id(c)]
        for cid in sorted(child_mults[id(c)], key=def_pos.__getitem__):
            edges.append(ProfileEdge(
                parent=names[id(c)], child=names[cid],
                calls=ex * child_mults[id(c)][cid]))
        for k in sorted(gate_counts[id(c)]):
            edges.append(ProfileEdge(
                parent=names[id(c)], child=k,
                calls=ex * gate_counts[id(c)][k]))

    return ProfileReport(nodes=tuple(nodes), edges=tuple(edges),
                         total_time=total)


# -- text renderings ------------------------------------------------------------


def _fmt(t: float) -> str:
    return f"{t:.3f}"


def report_gprof(report: ProfileReport) -> str:
    """Flat profile plus call-graph section, plain text."""
    lines = ["Flat profile:", ""]
    header = f"{'%time':>6}  {'cumulative':>10}  {'self':>10}  {'calls':>8}  name"
    lines.append(header)
    flat = sorted(report.nodes, key=lambda n: (-n.self_time, n.name))
    running = 0.0
    total = report.total_time
    for n in flat:
        running += n.self_time
        pct = 100.0 * n.self_time / total if total > 0 else 0.0
        lines.append(f"{pct:>6.1f}  {_fmt(running):>10}  {_fmt(n.self_time):>10}"
                     f"  {n.calls:>8}  {n.name}")
    lines.append("")
    lines.append("Call graph:")
    lines.append("")
    parents: dict[str, list[ProfileEdge]] = {}
    children: dict[str, list[ProfileEdge]] = {}
    for e in report.edges:
        children.setdefault(e.parent, []).append(e)
        parents.setdefault(e.child, []).append(e)
    index = {n.name: i + 1 for i, n in enumerate(report.nodes)}
    rule = "-" * 48
    for n in report.nodes:
        lines.append(rule)
        for e in parents.get(n.name, []):
            lines.append(f"{'':>16}{e.calls:>8}/{n.calls:<8}    {e.parent} "
                         f"[{index[e.parent]}]")
        pct = 100.0 * n.time_share
        lines.append(f"[{index[n.name]}] {pct:>6.1f} {_fmt(n.self_time):>10} "
                     f"{_fmt(n.cumulative_time):>10} {n.calls:>8}    {n.name}")
        for e in children.get(n.name, []):
            lines.append(f"{'':>16}{e.calls:>8}        {e.child} "
                         f"[{index[e.child]}]")
    if report.nodes:
        lines.append(rule)
    lines.append("")
    return "\n".join(lines)


_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _dot_id(name: str) -> str:
    if _DOT_ID.match(name):
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def report_dot(report: ProfileReport) -> str:
    """The containment graph in DOT, labels ``name\\n<pct>%`` and ``<N>x``."""
    if not report.nodes:
        return "digraph { }"
    lines = ["digraph {"]
    for n in report.nodes:
        pct = f"{100.0 * n.time_share:.1f}"
        lines.append(f'  {_dot_id(n.name)} [label="{n.name}\\n{pct}%"];')
    for e in report.edges:
        lines.append(f'  {_dot_id(e.parent)} -> {_dot_id(e.child)} '
                     f'[label="{e.calls}x"];')
    lines.append("}")
    return "\n".join(lines)
