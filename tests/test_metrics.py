"""Structural metrics: pinned values and range invariants."""
import math
import random

import pytest
from hypothesis import given, settings

from quantir.circuit import Circuit, flatten
from quantir.gates import CLS_2Q, GateKind
from quantir.metrics import MetricsVector, circuit_metrics

from conftest import circuits


def test_ghz3_vector():
    c = Circuit(3).h(0).cnot(0, 1).cnot(1, 2)
    m = circuit_metrics(c)
    assert m.communication == pytest.approx(0.667, abs=1e-3)
    assert m.critical_depth == pytest.approx(1.0, abs=1e-3)
    assert m.entanglement_ratio == pytest.approx(0.667, abs=1e-3)
    assert m.parallelism == pytest.approx(0.0, abs=1e-3)
    assert m.liveness == pytest.approx(0.556, abs=1e-3)


def test_single_h_on_one_qubit():
    m = circuit_metrics(Circuit(1).h(0))
    assert tuple(m) == (0.0, 0.0, 0.0, 0.0, 1.0)


def test_parallel_h_layer():
    c = Circuit(4).h(0).h(1).h(2).h(3)
    m = circuit_metrics(c)
    assert m.parallelism == 1.0
    assert m.liveness == 1.0
    assert m.communication == 0.0
    assert m.entanglement_ratio == 0.0


def test_empty_circuit_all_zero():
    assert tuple(circuit_metrics(Circuit(3))) == (0.0,) * 5


def test_measure_and_barrier_excluded():
    bare = Circuit(2, 2).h(0).cnot(0, 1)
    dressed = Circuit(2, 2).h(0).barrier(0, 1).cnot(0, 1)
    dressed.measure(0, 0).measure(1, 1)
    assert circuit_metrics(bare) == circuit_metrics(dressed)


def test_full_communication():
    c = Circuit(3).cz(0, 1).cz(1, 2).cz(0, 2)
    assert circuit_metrics(c).communication == 1.0


def test_communication_counts_pairs_once():
    c = Circuit(3).cnot(0, 1).cnot(1, 0).cz(0, 1)
    assert circuit_metrics(c).communication == pytest.approx(2 / 6)


def test_critical_depth_partial():
    # chain of 2 CNOTs plus one CNOT off the critical path
    c = Circuit(4).cnot(0, 1).cnot(1, 2).cnot(0, 3)
    # longest path: CNOT(0,1) -> {CNOT(1,2), CNOT(0,3)} length 2, 2 two-q
    assert circuit_metrics(c).critical_depth == pytest.approx(2 / 3)


def test_critical_depth_prefers_two_qubit_rich_path():
    # two paths of equal node length; one carries more 2q gates
    c = Circuit(3)
    c.h(0).h(0).h(0)          # wire 0: 3 one-qubit nodes
    c.cnot(1, 2).cnot(1, 2).cnot(1, 2)  # wire 1-2: 3 two-qubit nodes
    assert circuit_metrics(c).critical_depth == 1.0


def test_critical_depth_longer_path_outranks_two_qubit_gates():
    # a four-gate one-qubit chain outranks a three-gate two-qubit chain
    c = Circuit(3)
    c.h(0).x(0).h(0).x(0)
    c.cnot(1, 2).cnot(1, 2).cnot(1, 2)
    assert circuit_metrics(c).critical_depth == 0.0


def test_critical_depth_gate_takes_the_better_of_its_wires():
    # the CZ joins a two-gate path with two CNOTs (wires 0-1) and a
    # three-gate path of one-qubit gates (wire 2); the longer one counts,
    # then the CZ and the CNOT after it on wire 2
    c = Circuit(4)
    c.cnot(0, 1).cnot(0, 1)
    c.h(2).x(2).h(2)
    c.cz(1, 2).cnot(2, 3)
    assert circuit_metrics(c).critical_depth == 2 / 4


def test_vector_iter_and_dict():
    m = circuit_metrics(Circuit(2).cnot(0, 1))
    assert list(m) == [m.communication, m.critical_depth,
                       m.entanglement_ratio, m.parallelism, m.liveness]
    d = m.to_dict()
    assert set(d) == {"communication", "critical_depth",
                      "entanglement_ratio", "parallelism", "liveness"}


def test_random_circuits_stay_in_unit_interval():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(1, 8)
        c = Circuit(n, n)
        for _ in range(rng.randint(0, 30)):
            roll = rng.random()
            if roll < 0.35 and n >= 2:
                a, b = rng.sample(range(n), 2)
                c.append_gate(rng.choice([GateKind.CNOT, GateKind.CZ,
                                          GateKind.SWAP]), (a, b))
            elif roll < 0.7:
                c.append_gate(rng.choice([GateKind.RX, GateKind.RY,
                                          GateKind.RZ]),
                              (rng.randrange(n),), (rng.uniform(-7, 7),))
            elif roll < 0.9:
                c.append_gate(rng.choice([GateKind.H, GateKind.X,
                                          GateKind.S, GateKind.T]),
                              (rng.randrange(n),))
            else:
                c.barrier(*sorted(rng.sample(range(n), rng.randint(1, n))))
        m = circuit_metrics(c)
        for v in m:
            assert 0.0 <= v <= 1.0, (tuple(m), len(c))


@settings(max_examples=40, deadline=None)
@given(circuits(max_qubits=5, max_len=20, measures=True, barriers=True))
def test_metrics_in_unit_interval_property(c):
    for v in circuit_metrics(c):
        assert 0.0 <= v <= 1.0


# -- differential check against the loop the metrics were written as -----------
# A test-local copy of ``circuit_metrics`` as first written: one greedy
# wire-layering loop that also collects the two-qubit pairs, then a second
# walk for the critical path.  Floats must match bit for bit.

def _ref_metrics(c):
    flat = flatten(c)
    body = [ins for ins in flat.body
            if ins.kind not in (GateKind.MEASURE, GateKind.BARRIER)]
    n = flat.num_qubits
    g = len(body)
    wire = [0] * n
    active = 0
    d = 0
    pairs = set()
    e = 0
    for ins in body:
        qs = ins.qubits
        layer = max(wire[q] for q in qs) + 1
        for q in qs:
            wire[q] = layer
        active += len(qs)
        if layer > d:
            d = layer
        if ins.kind.opclass == CLS_2Q:
            e += 1
            a, b = qs
            pairs.add((a, b) if a < b else (b, a))
    communication = 2 * len(pairs) / (n * (n - 1)) if n > 1 and pairs else 0.0
    parallelism = (g / d - 1) / (n - 1) if n > 1 and d > 0 else 0.0
    # the critical path: each wire keeps (length, two-qubit gates) of the
    # best path that ends at its last gate
    best = [(0, 0)] * n
    for ins in body:
        l, t = max(best[q] for q in ins.qubits)
        for q in ins.qubits:
            best[q] = (l + 1, t + (ins.kind.opclass == CLS_2Q))
    critical = max(best, default=(0, 0))[1] / e if e else 0.0
    return (communication, critical,
            e / g if g else 0.0, parallelism,
            active / (n * d) if d > 0 else 0.0)


@settings(max_examples=150, deadline=None)
@given(circuits(max_qubits=5, max_len=30, measures=True, barriers=True))
def test_metrics_match_reference_loop(c):
    assert tuple(circuit_metrics(c)) == _ref_metrics(c)
