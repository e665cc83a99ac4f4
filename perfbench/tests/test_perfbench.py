"""The benchmark's own tests: determinism of its counts and its output checks.

    python3 -m pytest -q perfbench/tests
"""
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import compilation, transmission  # noqa: E402
from perfbench.measure import input_seeds, tail  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from quantir.gates import GateKind  # noqa: E402
from quantir.transpile import TranspileConfig  # noqa: E402

SMALL = {
    "transmit_bulk": (transmission.run, replace(transmission.BULK, count=4, depth=20)),
    "transmit_stream": (transmission.run, replace(transmission.STREAM, count=40)),
    "compile_route": (compilation.run, replace(compilation.ROUTE, count=2, depth=4)),
    "compile_lower": (compilation.run, replace(compilation.LOWER, count=3, depth=10)),
}


def _repeatable(result):
    """Everything a run reports that is not a time."""
    values = {k: v for k, (v, unit) in result.metrics.items() if unit not in ("s", "x")}
    return values, result.record.get("counts"), result.record.get("digest")


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("traced", [False, True])
def test_same_seed_same_bytes_and_counts(workload, traced):
    run, spec = SMALL[workload]
    first = run(spec, 7, 0.0, Tracer() if traced else None)
    second = run(spec, 7, 0.0, Tracer() if traced else None)
    for res, checks in (first, second):
        assert checks.failed == 0, checks.errors
    assert _repeatable(first[0]) == _repeatable(second[0])


@pytest.mark.parametrize("workload", ["compile_route", "compile_lower"])
def test_traced_and_untraced_compile_write_the_same_bytes(workload):
    run, spec = SMALL[workload]
    plain, _ = run(spec, 3, 0.0)
    traced, _ = run(spec, 3, 0.0, Tracer())
    assert plain.record["digest"] == traced.record["digest"]
    assert plain.metrics["depth_ratio"] == traced.metrics["depth_ratio"]


def test_other_seed_other_inputs():
    assert input_seeds("compile_route", 1, 3) != input_seeds("compile_route", 2, 3)
    assert input_seeds("compile_route", 1, 3) != input_seeds("compile_lower", 1, 3)


def _staged_route():
    spec = SMALL["compile_route"][1]
    graph, docs = compilation._setup(spec, input_seeds(spec.name, 5, 1), None)
    staged = compilation.staged_compile(Tracer(), spec, docs[0], graph,
                                        TranspileConfig(level=2))
    return graph, staged


def test_route_replay_accepts_the_router_output():
    graph, st = _staged_route()
    assert compilation.replay_routing(st.routed_input, st.routed, graph,
                                      st.initial, st.final) is None


def test_route_replay_rejects_a_dropped_swap():
    graph, st = _staged_route()
    k = next(i for i, ins in enumerate(st.routed) if ins.kind is GateKind.SWAP)
    tampered = st.routed[:k] + st.routed[k + 1:]
    assert compilation.replay_routing(st.routed_input, tampered, graph,
                                      st.initial, st.final) is not None


def test_route_replay_rejects_reordered_gates_on_a_wire():
    graph, st = _staged_route()
    body = st.routed
    k = next(i for i in range(len(body) - 1)
             if body[i].kind is not GateKind.SWAP
             and body[i + 1].kind is not GateKind.SWAP
             and set(body[i].qubits) & set(body[i + 1].qubits)
             and body[i] != body[i + 1])
    tampered = body[:k] + [body[k + 1], body[k]] + body[k + 2:]
    assert compilation.replay_routing(st.routed_input, tampered, graph,
                                      st.initial, st.final) is not None


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_failing_operations_are_counted_not_raised(workload, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(transmission, "_encode", broken)
    monkeypatch.setattr(compilation, "transpile", broken)
    run, spec = SMALL[workload]
    res, checks = run(spec, 1, 0.0)
    assert checks.attempted > 0 and checks.failed == checks.attempted
    assert res.metrics["depth_ratio"][0] == 0.0
    assert "broken on purpose" in checks.errors[0]


def test_tail_keeps_ten_samples_beyond():
    xs = list(range(100))
    value, pct, n = tail(xs)
    assert (value, n) == (89, 100) and sum(x > value for x in xs) == 10
    assert tail([3.0, 1.0]) == (3.0, 100.0, 2)
    assert tail([]) == (0.0, 0.0, 0)
