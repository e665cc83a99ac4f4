"""End-to-end acceptance suite: one test per shipped guarantee.

Each test is self-contained and asserts the guarantee at its stated
tolerance, so the ``pytest -v`` report reads as a checklist.
"""
import gc
import itertools
import math
import random
import time
from collections import deque

import numpy as np
import pytest

from quantir import bis, originir
from quantir.bench import BenchConfig, FORMATS, random_circuit, run_transmission_bench
from quantir.circuit import Circuit, flatten, gate_counts
from quantir.dag import CircuitDag
from quantir.gates import CLS_2Q, GateKind
from quantir.metrics import circuit_metrics
from quantir.profiler import profile, report_dot, report_gprof
from quantir.qasm2 import UnsupportedFeature, emit_qasm2, import_qasm2
from quantir.sabre import naive_swap_count
from quantir.sim import equivalent
from quantir.topology import CouplingGraph, full, linear, random_topology, square
from quantir.transpile import TranspileConfig, transpile

from conftest import parse_dot


def _same_circuit(a: Circuit, b: Circuit) -> bool:
    a, b = flatten(a), flatten(b)
    return (a.num_qubits == b.num_qubits and a.num_cbits == b.num_cbits
            and a.body == b.body)


def _inversions(seq) -> int:
    return sum(1 for x, y in zip(seq, seq[1:]) if y < x)


def _r_squared(xs, ys) -> float:
    return float(np.corrcoef(np.asarray(xs, float), np.asarray(ys, float))[0, 1] ** 2)


# -- 1: serialization round trips --------------------------------------------------

def test_c01_text_and_binary_round_trips_bit_exact_under_60s():
    start = time.perf_counter()
    rng = random.Random(101)
    batch = [random_circuit(72, 500, seed=rng.randrange(2 ** 32))]
    for _ in range(499):
        n, d = rng.randint(1, 72), rng.randint(1, 120)
        batch.append(random_circuit(n, d, seed=rng.randrange(2 ** 32)))

    for c in batch:
        assert _same_circuit(originir.parse(originir.emit(c)), c)
    for compress in (False, True):
        decoded = bis.decode(bis.encode(batch, compress=compress))
        assert len(decoded) == len(batch)
        for got, want in zip(decoded, batch):
            assert _same_circuit(got, want)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"round-trip suite took {elapsed:.1f}s"


# -- 2: transpiler preserves semantics ---------------------------------------------

def test_c02_transpile_200_circuits_coupled_and_equivalent_under_10min():
    start = time.perf_counter()
    rng = random.Random(202)
    levels = (0, 1, 2)
    bases = ("none", "rz-x1-cz", "rz-rx-cnot")

    def topo(name: str, n: int, seed: int) -> CouplingGraph:
        if name == "linear":
            return linear(n)
        if name == "square":
            return square(n)
        if name == "full":
            return full(n)
        return random_topology(n, seed=seed)

    combos = list(itertools.product(levels, bases,
                                    ("linear", "square", "full", "random")))
    for i in range(200):
        level, basis, kind = combos[i % len(combos)]
        n = rng.randint(2, 8)
        c = random_circuit(n, rng.randint(2, 20), seed=rng.randrange(2 ** 32))
        graph = topo(kind, n, seed=i)
        result = transpile(c, graph, TranspileConfig(level=level, basis=basis,
                                                     seed=i))
        for ins in flatten(result.circuit).body:
            if ins.kind.opclass == CLS_2Q:
                assert graph.has_edge(*ins.qubits), \
                    f"{ins} violates coupling (case {i})"
        assert equivalent(c, result.circuit, result.initial_layout,
                          result.final_layout, tol=1e-9), f"case {i} diverged"

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"semantic sweep took {elapsed:.1f}s"


# -- 3: worked optimization examples ------------------------------------------------

def test_c03_rotation_merge_and_swap_pair_examples():
    # consecutive RZ(0.3), RZ(0.4): kept at level 0, merged at levels 1 and 2
    two_rz = Circuit(1)
    two_rz.rz(0, 0.3)
    two_rz.rz(0, 0.4)
    line1 = linear(1)
    at0 = transpile(two_rz, line1, TranspileConfig(level=0)).circuit
    assert [(i.kind, i.params) for i in at0.body] == \
        [(GateKind.RZ, (0.3,)), (GateKind.RZ, (0.4,))]
    for level in (1, 2):
        merged = transpile(two_rz, line1, TranspileConfig(level=level)).circuit
        assert len(merged.body) == 1
        ins = merged.body[0]
        assert ins.kind is GateKind.RZ and ins.qubits == (0,)
        assert ins.params[0] == pytest.approx(0.7, abs=1e-12)

    # adjacent SWAP pair: kept below level 2, removed at level 2
    swap_pair = Circuit(3)
    swap_pair.swap(0, 1)
    swap_pair.swap(0, 1)
    line3 = linear(3)
    for level in (0, 1):
        kept = transpile(swap_pair, line3, TranspileConfig(level=level)).circuit
        assert sum(1 for i in kept.body if i.kind is GateKind.SWAP) == 2
    removed = transpile(swap_pair, line3, TranspileConfig(level=2))
    assert len(removed.circuit.body) == 0
    assert list(removed.initial_layout) == list(removed.final_layout)


# -- 4 & 5: binary beats text on size and speed -------------------------------------

@pytest.fixture(scope="module")
def size_profile_batch():
    rng = random.Random(404)
    return [random_circuit(72, 200, seed=rng.randrange(2 ** 32))
            for _ in range(100)]


def test_c04_size_ratios_text_over_binary(size_profile_batch):
    batch = size_profile_batch
    bis_size = len(bis.encode(batch, compress=True))
    oir_size = sum(len(originir.emit(c).encode("utf-8")) for c in batch)
    qasm_size = sum(len(emit_qasm2(c).encode("utf-8")) for c in batch)
    assert oir_size >= 3.0 * bis_size, \
        f"text IR only {oir_size / bis_size:.2f}x the binary size"
    assert qasm_size >= 5.0 * bis_size, \
        f"QASM only {qasm_size / bis_size:.2f}x the binary size"


def test_c05_speed_ratios_binary_over_text():
    rng = random.Random(505)
    batch = [random_circuit(72, 100, seed=rng.randrange(2 ** 32))
             for _ in range(30)]
    blob = bis.encode(batch, compress=True)
    bis.decode(blob)  # warm caches
    oir_docs = [originir.emit(c) for c in batch]
    qasm_docs = [emit_qasm2(c) for c in batch]
    # binary and text alternate inside each repetition, so a slow spell of
    # the machine reaches both sides of a ratio
    jobs = {
        "bis_enc": lambda: bis.encode(batch, compress=True),
        "oir_enc": lambda: [originir.emit(c) for c in batch],
        "qasm_enc": lambda: [emit_qasm2(c) for c in batch],
        "bis_dec": lambda: bis.decode(blob),
        "oir_dec": lambda: [originir.parse(d) for d in oir_docs],
        "qasm_dec": lambda: [import_qasm2(d) for d in qasm_docs],
    }
    pairs = [("encode vs text IR", "oir_enc", "bis_enc"),
             ("encode vs QASM", "qasm_enc", "bis_enc"),
             ("decode vs text IR", "oir_dec", "bis_dec"),
             ("decode vs QASM", "qasm_dec", "bis_dec")]
    ratios: dict[str, list] = {label: [] for label, _, _ in pairs}
    for _ in range(5):
        took = {}
        for name, job in jobs.items():
            t0 = time.perf_counter()
            job()
            took[name] = time.perf_counter() - t0
        for label, text, binary in pairs:
            ratios[label].append(took[text] / took[binary])

    for label, rs in ratios.items():
        ratio = sorted(rs)[2]
        assert ratio >= 5.0, f"{label}: only {ratio:.1f}x faster"


def test_c05_cold_encode_and_materialized_decode_over_text():
    # c05 encodes circuits whose packed columns are cached and stops decoding
    # at the columns.  Here every timed encode gets circuits never encoded
    # before, and every timed decode ends after each .body is iterated.
    rng = random.Random(506)
    seeds = [rng.randrange(2 ** 32) for _ in range(6)]

    def fresh():
        return [random_circuit(72, 100, seed=s) for s in seeds]

    def timed(fn, arg):
        gc.collect()
        t0 = time.perf_counter()
        out = fn(arg)
        return time.perf_counter() - t0, out

    def decode_bodies(blob):
        out = bis.decode(blob)
        for c in out:
            deque(c.body, maxlen=0)
        return out

    times = {"encode": [], "decode": [], "emit": [], "parse": []}
    for _ in range(9):
        batch = fresh()
        t, blob = timed(lambda b: bis.encode(b, compress=True), batch)
        times["encode"].append(t)
        t, out = timed(decode_bodies, blob)
        times["decode"].append(t)
        t, docs = timed(lambda b: [originir.emit(c) for c in b], fresh())
        times["emit"].append(t)
        t, _ = timed(lambda d: [originir.parse(doc) for doc in d], docs)
        times["parse"].append(t)
    assert out == batch
    med = {k: sorted(v)[4] for k, v in times.items()}

    for label, text_time, bis_time, bound in [
            ("cold encode vs text IR emit", med["emit"], med["encode"], 1.5),
            ("decode to bodies vs text IR parse", med["parse"], med["decode"], 5.0)]:
        assert text_time >= bound * bis_time, \
            f"{label}: only {text_time / bis_time:.2f}x faster (bound {bound}x)"


# -- 6: scaling trends ---------------------------------------------------------------

def test_c06_trends_monotone_sizes_linear_gate_counts():
    bis_formats = ("bis_compressed", "bis_uncompressed")
    sweeps = {
        "circuit_count": BenchConfig(
            sweep="circuit_count", sweep_values=(10, 20, 40, 80),
            fixed_depth=60, fixed_qubits=16, formats=bis_formats, seed=1),
        "circuit_depth": BenchConfig(
            sweep="circuit_depth", sweep_values=(15, 30, 60, 120),
            fixed_circuit_count=20, fixed_qubits=16, formats=bis_formats, seed=2),
        "qubit_count": BenchConfig(
            sweep="qubit_count", sweep_values=(6, 12, 24, 48),
            fixed_circuit_count=10, fixed_depth=30, formats=bis_formats, seed=3),
    }
    results = {name: run_transmission_bench(cfg) for name, cfg in sweeps.items()}

    # BIS time and size non-decreasing in count and depth (<= 1 inversion each)
    for name in ("circuit_count", "circuit_depth"):
        for fmt in bis_formats:
            series = [r for r in results[name] if r.format == fmt]
            assert _inversions([r.encode_time for r in series]) <= 1, \
                f"{name}/{fmt} encode times not monotone"
            assert _inversions([r.decode_time for r in series]) <= 1, \
                f"{name}/{fmt} decode times not monotone"
            assert _inversions([r.post_encoding_size for r in series]) <= 1, \
                f"{name}/{fmt} sizes not monotone"

    # gate count linear in every swept parameter
    for name, rows in results.items():
        series = [r for r in rows if r.format == "bis_compressed"]
        xs = [r.sweep_value for r in series]
        ys = [r.gate_count for r in series]
        assert _r_squared(xs, ys) >= 0.99, f"gate count not linear in {name}"

    # BIS size affine in gate count
    pairs = [(r.gate_count, r.post_encoding_size)
             for rows in results.values() for r in rows
             if r.format == "bis_compressed"]
    assert _r_squared(*zip(*pairs)) >= 0.999, "size not affine in gate count"


# -- 7: structure metrics ------------------------------------------------------------

def test_c07_metrics_ghz_vector_and_unit_range():
    c = Circuit(3)
    c.h(0)
    c.cnot(0, 1)
    c.cnot(1, 2)
    got = tuple(circuit_metrics(c))
    want = (0.667, 1.0, 0.667, 0.0, 0.556)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-3, f"GHZ-3 metrics {got} != {want}"

    rng = random.Random(707)
    for _ in range(1000):
        n = rng.randint(1, 8)
        c = random_circuit(n, rng.randint(1, 15), seed=rng.randrange(2 ** 32))
        for component in circuit_metrics(c):
            assert 0.0 <= component <= 1.0


# -- 8: profiler accounting ----------------------------------------------------------

def _random_nested(rng: random.Random) -> Circuit:
    n = rng.randint(2, 4)
    defs = []
    for _ in range(rng.randint(1, 3)):
        leaf = Circuit(n)
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.5:
                leaf.h(rng.randrange(n))
            else:
                a = rng.randrange(n)
                b = (a + 1 + rng.randrange(n - 1)) % n
                leaf.cnot(a, b)
        defs.append(leaf)
    root = Circuit(n)
    root.rz(0, 0.5)
    for _ in range(rng.randint(1, 4)):
        root.sub(rng.choice(defs), dagger=rng.random() < 0.3)
    return root


def test_c08_profiler_shares_edge_labels_and_dot():
    cir1 = Circuit(2, name="cir1")
    cir1.h(0)
    cir1.cnot(0, 1)
    cir2 = Circuit(2, name="cir2")
    cir2.sub(cir1)
    report = profile(cir2, {"H": 40.0, "CNOT": 200.0})

    share = {node.name: node.time_share for node in report.nodes}
    assert abs(share["CNOT"] * 100 - 83.3) <= 0.1
    assert abs(share["H"] * 100 - 16.7) <= 0.1
    dot = report_dot(report)
    assert '[label="1x"]' in dot
    assert "Flat profile:" in report_gprof(report)

    rng = random.Random(808)
    for _ in range(100):
        c = _random_nested(rng)
        rep = profile(c, {"H": 40.0, "CNOT": 200.0, "RZ": 10.0})
        total = sum(node.time_share for node in rep.nodes
                    if node.kind == "gate")
        assert abs(total - 1.0) <= 1e-9
        parse_dot(report_dot(rep))  # raises on malformed output


# -- 9: routing quality --------------------------------------------------------------

def test_c09_sabre_beats_naive_router_and_respects_lower_bound():
    graph = linear(6)
    wins = 0
    for seed in range(50):
        c = random_circuit(6, 30, seed=seed)
        result = transpile(c, graph, TranspileConfig(level=0, seed=seed))
        if result.stats.swaps_inserted <= naive_swap_count(c, graph):
            wins += 1
    assert wins >= 45, f"routing beat the naive baseline on only {wins}/50 seeds"

    # all-pairs CZ on a 3-vertex path: no layout couples all pairs, so any
    # correct routing must insert at least one swap — verified exhaustively
    path = CouplingGraph(3, [(0, 2), (1, 2)])
    pairs = [(0, 1), (0, 2), (1, 2)]
    for perm in itertools.permutations(range(3)):
        assert any(not path.has_edge(perm[a], perm[b]) for a, b in pairs)
    all_pairs = Circuit(3)
    for a, b in pairs:
        all_pairs.cz(a, b)
    routed = transpile(all_pairs, path, TranspileConfig(level=0))
    assert routed.stats.swaps_inserted >= 1
    for ins in routed.circuit.body:
        if ins.kind.opclass == CLS_2Q:
            assert path.has_edge(*ins.qubits)


# -- 10: decoder robustness ----------------------------------------------------------

def test_c10_fuzzed_streams_fail_closed_and_qasm_rejects_extensions():
    ghz = Circuit(3)
    ghz.h(0)
    ghz.cnot(0, 1)
    ghz.cnot(1, 2)
    ghz.measure(0, 0)
    wide = random_circuit(72, 3, seed=1)
    barriers = Circuit(4)
    barriers.barrier(0, 1, 2, 3)
    barriers.u3(2, 0.1, 0.2, 0.3)
    bases = [bis.encode([ghz], compress=False),
             bis.encode([ghz], compress=True),
             bis.encode([ghz, wide, barriers], compress=True),
             bis.encode([], compress=False),
             bis.encode([barriers, ghz], compress=False)]

    rng = random.Random(1010)
    outcomes = {"ok": 0, "rejected": 0}
    for _ in range(100_000):
        blob = bytearray(rng.choice(bases))
        op = rng.randrange(4)
        if op == 0 and blob:
            blob = blob[:rng.randrange(len(blob))]
        elif op == 1:
            for _ in range(rng.randint(1, 8)):
                if blob:
                    blob[rng.randrange(len(blob))] ^= rng.randint(1, 255)
        elif op == 2:
            blob.insert(rng.randint(0, len(blob)), rng.randrange(256))
        elif op == 3 and blob:
            del blob[rng.randrange(len(blob))]
        try:
            bis.decode(bytes(blob))
            outcomes["ok"] += 1
        except bis.BisDecodeError:
            outcomes["rejected"] += 1
        # anything else propagates and fails the test
    assert sum(outcomes.values()) == 100_000
    assert outcomes["rejected"] > 0

    with pytest.raises(UnsupportedFeature) as err:
        import_qasm2("OPENQASM 2.0;\nqreg q[1];\ngate g a { h a; }\n")
    assert err.value.feature == "gate"
    with pytest.raises(UnsupportedFeature) as err:
        import_qasm2("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c==1) x q[0];\n")
    assert err.value.feature == "if"
