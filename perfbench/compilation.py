"""Compile workloads: text -> circuit -> transpile -> compressed .bis.

The untraced run times what a user calls: read the text document, call
``transpile``, write the result with ``bis.encode(compress=True)``.  The
traced run replays ``transpile``'s stage order through the modules' public
functions, one span per call, and checks on every circuit that the replica's
output equals ``transpile(...).circuit``, so the replica cannot drift from
the real pipeline.
"""
from __future__ import annotations

import hashlib
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

from quantir import bis, originir, qasm2, sabre, topology
from quantir.bench import random_circuit
from quantir.circuit import Circuit, Instruction, depth, flatten
from quantir.dag import CircuitDag
from quantir.gates import GateKind
from quantir.passes import (cancel_adjacent_inverses, expand_swaps,
                            merge_adjacent_rotations)
from quantir.sim import MAX_SIM_QUBITS, equivalent
from quantir.transpile import TranspileConfig, preprocess, transpile

from .measure import (Checks, Pace, Result, cycle, input_seeds, median, ratio,
                      tail)
from .trace import LayerSamples, Tracer


@dataclass(frozen=True)
class CompileSpec:
    name: str
    topology: tuple[str, int]   # topology.build arguments; circuits use its full width
    count: int                  # circuits per batch
    depth: int
    text: str                   # format the circuits are read from
    basis: str


ROUTE = CompileSpec("compile_route", ("heavy_hex", 5), count=48, depth=5,
                    text="originir", basis="none")
LOWER = CompileSpec("compile_lower", ("full", 10), count=30, depth=60,
                    text="qasm2", basis="rz-x1-cz")

LEVEL = 2
SETUPS = 15

# format -> (writer, reader span name, reader)
_TEXT = {
    "originir": (originir.emit, "originir.parse", originir.parse),
    "qasm2": (qasm2.emit_qasm2, "qasm2.import", qasm2.import_qasm2),
}

_STAGES = ("circuit.depth", "transpile.preprocess", "passes.merge_pre",
           "passes.cancel_pre", "dag.build", "sabre.layout", "sabre.trial_route",
           "sabre.route", "passes.merge_post", "passes.cancel_post",
           "passes.expand_swaps", "bis.write")


def _setup(spec: CompileSpec, seeds, tracer: Tracer | None):
    """Topology with its cold distance matrix, and one text document per circuit."""
    graph = topology.build(*spec.topology)
    if tracer is None:
        graph.distance_matrix()
    else:
        with tracer.span("topology.distance_matrix"):
            graph.distance_matrix()
    emit = _TEXT[spec.text][0]
    docs = []
    for s in seeds:
        c = random_circuit(graph.num_qubits, spec.depth, s)
        for q in range(graph.num_qubits):
            c.measure(q, q)
        docs.append(emit(c))
    return graph, docs


def _count_swaps(c: Circuit) -> int:
    return sum(1 for ins in c.body if ins.kind is GateKind.SWAP)


def _two_qubit_gates(c: Circuit) -> int:
    return sum(1 for ins in c.body
               if len(ins.qubits) == 2 and ins.kind is not GateKind.BARRIER)


def _off_coupling(c: Circuit, graph) -> str | None:
    for k, ins in enumerate(c.body):
        if (len(ins.qubits) == 2 and ins.kind is not GateKind.BARRIER
                and not graph.has_edge(*ins.qubits)):
            return f"gate {k} {ins!r} is not on a coupling edge"
    return None


@contextmanager
def _traced_trial_routes(tracer: Tracer):
    """Span every ``sabre_route`` call that ``sabre_layout`` makes."""
    original = sabre.sabre_route

    def traced_route(*args, **kwargs):
        with tracer.span("sabre.trial_route"):
            return original(*args, **kwargs)

    sabre.sabre_route = traced_route
    try:
        yield
    finally:
        sabre.sabre_route = original


@dataclass
class Staged:
    circuit: Circuit
    blob: bytes
    initial: sabre.Layout
    final: sabre.Layout
    routed_input: Circuit    # what sabre_route was given
    routed: list             # what it returned, before post-route passes
    depth_before: int
    depth_after: int
    counts: dict


def staged_compile(tracer: Tracer, spec: CompileSpec, doc: str, graph,
                   config: TranspileConfig) -> Staged:
    """``transpile`` stage by stage, then the write; one span per call."""
    span = tracer.span
    _, read_name, read = _TEXT[spec.text]
    with span(read_name):
        circuit = read(doc)
    with span("circuit.flatten"):
        flat = flatten(circuit)
    with span("circuit.depth"):
        depth_before = depth(flat)
    with span("transpile.preprocess"):
        pre = preprocess(flat, config)
    counts = {"transpile.preprocess_gates_in": len(flat),
              "transpile.preprocess_gates_out": len(pre)}
    added = len(pre) - len(flat)
    # transpile routes without the trailing measurements and re-attaches
    # them through the final layout
    body = pre.body
    cut = len(body)
    while cut and body[cut - 1].kind is GateKind.MEASURE:
        cut -= 1
    measures = body[cut:]
    if measures:
        gates = Circuit(pre.num_qubits, pre.num_cbits, name=pre.name)
        gates.extend(body[:cut])
        pre = gates
    before = len(pre)
    if config.level >= 1:
        with span("passes.merge_pre"):
            pre = merge_adjacent_rotations(pre)
    if config.level >= 2:
        with span("passes.cancel_pre"):
            pre = cancel_adjacent_inverses(pre)
    counts["passes.gates_removed_pre"] = before - len(pre)
    with span("dag.build"):
        dag = CircuitDag(pre)
    counts["dag.nodes"] = len(dag)
    sabre_cfg = config.sabre()
    with span("sabre.layout"), _traced_trial_routes(tracer):
        initial = sabre.sabre_layout(dag, graph, sabre_cfg, seed=config.seed)
    with span("sabre.route"):
        routed, final = sabre.sabre_route(dag, graph, initial, sabre_cfg)
    routed_body = list(routed.body)
    counts["sabre.swaps"] = _count_swaps(routed) - _count_swaps(pre)
    out = routed
    before = len(out)
    if config.level >= 1:
        with span("passes.merge_post"):
            out = merge_adjacent_rotations(out)
    if config.level >= 2:
        with span("passes.cancel_post"):
            out = cancel_adjacent_inverses(out)
    counts["passes.gates_removed_post"] = before - len(out)
    if config.basis != "none":
        before = len(out)
        with span("passes.expand_swaps"):
            out = expand_swaps(out, config.basis)
        added += len(out) - before
    counts["passes.gates_added_lower"] = added
    for m in measures:
        out.append(Instruction(GateKind.MEASURE, (final.phys(m.qubits[0]),),
                               cbit=m.cbit))
    with span("circuit.depth"):
        depth_after = depth(out)
    with span("bis.write"):
        blob = bis.encode(out, compress=True)
    return Staged(out, blob, initial, final, pre, routed_body, depth_before,
                  depth_after, counts)


def replay_routing(routed_input: Circuit, routed_body, graph, initial,
                   final) -> str | None:
    """Map the router's output back to logical wires through its SWAPs.

    Every routed gate must be the next input gate on each of its logical
    wires; a SWAP that is not is one the router inserted, and moves the
    layout.  At the end every input gate must have been seen, in order on
    every wire, and the layout must equal the returned final layout.  A
    router SWAP never coincides with an executable input SWAP on the same
    wires, because the router runs every executable gate before it swaps.
    """
    nq = routed_input.num_qubits
    p2l = [0] * graph.num_qubits
    for l, p in enumerate(initial):
        p2l[p] = l
    body = routed_input.body
    wires = [deque() for _ in range(graph.num_qubits)]
    for i, ins in enumerate(body):
        for q in ins.qubits:
            wires[q].append(i)
    for k, ins in enumerate(routed_body):
        logical = tuple(p2l[p] for p in ins.qubits)
        nxt = wires[logical[0]][0] if wires[logical[0]] else None
        if nxt is not None and all(wires[l] and wires[l][0] == nxt for l in logical):
            want = body[nxt]
            if (want.kind is ins.kind and want.qubits == logical
                    and want.params == ins.params and want.cbit == ins.cbit
                    and want.dagger == ins.dagger):
                for l in logical:
                    wires[l].popleft()
                continue
        if ins.kind is not GateKind.SWAP or not graph.has_edge(*ins.qubits):
            return f"routed gate {k} {ins!r} is not the next input gate on its wires"
        a, b = ins.qubits
        p2l[a], p2l[b] = p2l[b], p2l[a]
    left = sum(len(w) for w in wires[:nq])
    if left:
        return f"{left} input gate operands never appeared in the routed circuit"
    if any(final.phys(l) != p for p, l in enumerate(p2l)):
        return "replayed layout differs from the returned final layout"
    return None


def _circuit_median(per_circuit) -> float:
    """Median over circuits of each circuit's median sample."""
    return median([median(xs) for xs in per_circuit if xs])


def run(spec: CompileSpec, seed: int, seconds: float,
        tracer: Tracer | None = None) -> tuple[Result, Checks]:
    seeds = input_seeds(spec.name, seed, spec.count)
    res, checks, pace = Result(), Checks(), Pace()
    config = TranspileConfig(level=LEVEL, basis=spec.basis)
    _, read_name, read = _TEXT[spec.text]
    setup, dm = [], []
    for _ in range(SETUPS):
        mark = tracer.mark() if tracer else 0
        t, (graph, docs) = pace.timed(_setup, spec, seeds, tracer)
        setup.append(t)
        if tracer:
            dm.append(tracer.duration(mark) * pace.factors[-1])
    oracle = graph.num_qubits <= MAX_SIM_QUBITS

    # reference seconds per circuit: each circuit weighs the same in a median,
    # however many passes the run made over the first circuits
    per_circuit = [[] for _ in docs]     # read to write
    reads = [[] for _ in docs]
    writes = [[] for _ in docs]
    plain_reads = [[] for _ in docs]     # untraced reference in the traced run
    all_paths, plain = [], []
    layers, route_calls = LayerSamples(), []
    outputs = [None] * len(docs)
    stats = {"two_qubit_in": 0, "swaps": 0, "depth_in": 0, "depth_out": 0}
    counts: dict[str, int] = {}
    for p, i, doc in cycle(docs, seconds):
        with checks.operation(f"circuit {i}") as problems:
            if tracer is None:
                pace.start()
                t0 = time.perf_counter()
                c = read(doc)
                t1 = time.perf_counter()
                r = transpile(c, graph, config)
                t2 = time.perf_counter()
                blob = bis.encode(r.circuit, compress=True)
                t3 = time.perf_counter()
                factor = pace.stop()
                reads[i].append((t1 - t0) * factor)
                writes[i].append((t3 - t2) * factor)
                path = (t3 - t0) * factor
                out, depths = r.circuit, (r.stats.depth_before, r.stats.depth_after)
            else:
                mark = tracer.mark()
                pace.start()
                t0 = time.perf_counter()
                st = staged_compile(tracer, spec, doc, graph, config)
                t1 = time.perf_counter()
                factor = pace.stop()
                path = (t1 - t0) * factor
                spans, calls = tracer.totals(mark)
                secs = layers.add(spans, factor)
                route_calls.append(calls["sabre.trial_route"])
                reads[i].append(secs[read_name])
                pace.start()
                t0 = time.perf_counter()
                c = read(doc)
                t1 = time.perf_counter()
                r = transpile(c, graph, config)
                blob = bis.encode(r.circuit, compress=True)
                t2 = time.perf_counter()
                factor = pace.stop()
                plain.append((t2 - t0) * factor)
                plain_reads[i].append((t1 - t0) * factor)
                out, depths = st.circuit, (st.depth_before, st.depth_after)
                if st.blob != blob or st.circuit != r.circuit:
                    problems.append(f"circuit {i}: staged replica differs from transpile")
                if st.initial != r.initial_layout or st.final != r.final_layout:
                    problems.append(f"circuit {i}: staged replica layouts differ")
                if p == 0:
                    problems.append(replay_routing(st.routed_input, st.routed, graph,
                                                   st.initial, st.final))
                    for k, v in st.counts.items():
                        counts[k] = counts.get(k, 0) + v
            per_circuit[i].append(path)
            all_paths.append(path)
            if p == 0:
                problems.append(_off_coupling(out, graph))
                # one random input state: a wrong unitary passes with probability 0
                if oracle and not equivalent(c, r.circuit, r.initial_layout,
                                             r.final_layout, trials=1, tol=1e-9):
                    problems.append(f"circuit {i}: not equivalent to its input")
                outputs[i] = out
                stats["two_qubit_in"] += _two_qubit_gates(c)
                stats["swaps"] += r.stats.swaps_inserted
                stats["depth_in"] += depths[0]
                stats["depth_out"] += depths[1]

    batch = [c for c in outputs if c is not None]
    wire = bis.encode(batch, compress=True)
    gates_out = sum(len(c) for c in batch)
    res.record["counts"] = {**stats, **counts, "gates_out": gates_out,
                            "wire_bytes": len(wire)}
    res.record["digest"] = hashlib.sha256(wire).hexdigest()
    res.record["pace"] = pace.factors
    res.report.append(f"  compiled batch sha256 {res.record['digest'][:16]}")

    if tracer is None:
        tv, tp, tn = tail(all_paths)
        res.put("setup_s", median(setup), "s",
                f"median of {len(setup)} set-ups, topology + text documents")
        res.put("path_s", _circuit_median(per_circuit), "s",
                f"compile_s: per circuit read to write, median of {len(docs)} "
                f"circuits, {len(all_paths)} samples")
        res.line("compile_tail_s", tv, "s", f"p{tp:.0f} of {tn} samples")
        res.put("encode_s", _circuit_median(writes), "s",
                "the write: bis.encode, cold; median over circuits")
        res.put("decode_s", _circuit_median(reads), "s",
                f"the read: {read_name}; median over circuits")
    else:
        for name in _STAGES:
            res.put(f"{name}_s", layers.median(name), "s", "per circuit, median")
        res.put(f"{read_name}_s", layers.median(read_name), "s", "per circuit, median")
        res.put("topology.distance_matrix_s", median(dm), "s", "cold, in set-up")
        res.put("sabre.route_calls", median(route_calls), "count",
                "sabre_route calls inside sabre_layout, per circuit")
        for k, v in counts.items():
            res.put(k, v, "count", "whole batch")
        res.put("trace.compile_overhead_s", median(all_paths) - median(plain), "s",
                "traced replica minus untraced compile")
        res.put("trace.decode_overhead_s",
                _circuit_median(reads) - _circuit_median(plain_reads), "s",
                "traced minus untraced read")
    swaps_per_2q = ratio(stats["swaps"], stats["two_qubit_in"])
    res.line("swaps_per_2q", swaps_per_2q, "ratio",
             f"{stats['swaps']} swaps, {stats['two_qubit_in']} input 2q gates")
    res.put("wire_bytes_per_gate", ratio(len(wire), gates_out), "B/gate",
            f"{len(wire)} bytes, {gates_out} gates compiled")
    res.put("depth_ratio", ratio(stats["depth_out"], stats["depth_in"]), "ratio",
            "output over input depth, batch sums")
    return res, checks
