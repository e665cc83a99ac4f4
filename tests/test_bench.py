"""Random-circuit generator and the transmission benchmark harness."""
import hashlib
import io
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from quantir import bench, bis
from quantir.bench import (
    CSV_HEADER, FORMATS, SWEEPS, BenchConfig, BenchError, BenchRow,
    random_circuit, run_transmission_bench, write_csv,
)
from quantir.circuit import Circuit, Instruction, depth, gate_counts
from quantir.gates import CLS_2Q, CLS_ROT, GateKind

ONE_Q = {GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.S,
         GateKind.T, GateKind.X1, GateKind.RX, GateKind.RY, GateKind.RZ}
TWO_Q = {GateKind.CNOT, GateKind.CZ, GateKind.SWAP}


# -- random_circuit ---------------------------------------------------------------

def test_generator_is_deterministic():
    a = random_circuit(6, 20, seed=42)
    b = random_circuit(6, 20, seed=42)
    assert a.body == b.body
    assert bis.encode([a]) == bis.encode([b])


def test_generator_seed_changes_output():
    a = random_circuit(6, 20, seed=1)
    b = random_circuit(6, 20, seed=2)
    assert a.body != b.body


def test_single_qubit_single_layer_is_one_gate():
    c = random_circuit(1, 1, seed=9)
    assert len(c.body) == 1
    ins = c.body[0]
    assert ins.kind in ONE_Q and ins.qubits == (0,)


@pytest.mark.parametrize("n,d", [(1, 7), (2, 5), (5, 12), (8, 30)])
def test_depth_is_exact(n, d):
    assert depth(random_circuit(n, d, seed=3)) == d


def test_depth_exact_at_bench_profile_width():
    c = random_circuit(72, 500, seed=11)
    assert depth(c) == 500


def test_every_layer_covers_every_qubit():
    n, d = 9, 15
    c = random_circuit(n, d, seed=5)
    touched = sum(len(ins.qubits) for ins in c.body)
    assert touched == n * d


def test_gate_vocabulary_and_operands():
    c = random_circuit(10, 40, seed=8)
    for ins in c.body:
        assert ins.kind in ONE_Q | TWO_Q
        assert ins.cbit is None and not ins.dagger
        assert all(0 <= q < 10 for q in ins.qubits)
        if ins.kind.opclass == CLS_2Q:
            assert len(set(ins.qubits)) == 2
        if ins.kind.opclass == CLS_ROT:
            assert 0.0 <= ins.params[0] < 2 * math.pi
        else:
            assert ins.params == ()


def test_mixture_is_roughly_seventy_thirty():
    c = random_circuit(20, 200, seed=13)
    counts = gate_counts(c)
    total = sum(counts.values())
    two_q = sum(counts.get(k, 0) for k in TWO_Q)
    assert 0.2 < two_q / total < 0.4


def test_gate_total_matches_flat_length():
    c = random_circuit(72, 500, seed=7)
    assert sum(gate_counts(c).values()) == len(c)


@pytest.mark.parametrize("n,d", [(0, 5), (3, 0), (-1, 1)])
def test_generator_rejects_nonpositive_shape(n, d):
    with pytest.raises(BenchError):
        random_circuit(n, d, seed=0)


def _stdlib_random_circuit(num_qubits, depth, seed):
    """Reference generator: the same draws through random.Random's own
    randrange, shuffle and uniform, one Instruction per gate."""
    rng = random.Random(seed)
    one_q = bench._ONE_Q
    two_q = bench._TWO_Q
    items = []
    order = list(range(num_qubits))
    for _ in range(depth):
        rng.shuffle(order)
        i = 0
        while i < num_qubits:
            if num_qubits - i >= 2 and rng.random() >= 0.7:
                j = rng.randrange(i + 1, num_qubits)
                order[i + 1], order[j] = order[j], order[i + 1]
                kind = two_q[rng.randrange(3)]
                items.append(Instruction(kind, (order[i], order[i + 1])))
                i += 2
            else:
                kind = one_q[rng.randrange(10)]
                params = ((rng.uniform(0.0, 2 * math.pi),)
                          if kind.opclass == CLS_ROT else ())
                items.append(Instruction(kind, (order[i],), params))
                i += 1
    return Circuit._from_items(num_qubits, num_qubits, items)


# sha256 of the compressed encoding: the four benchmark workload shapes, then
# widths at the edges of the bounded-draw redraw loop (1, 2, 3, 64, 65, 128,
# 129 are powers of two and one past them) and of the compressed index,
# which takes two bytes from 128 on
PINNED = [
    (72, 100, 1, "d13a1b4ce610dad643fe9e6db7365660bf790212c143ca97190493900658339c"),
    (12, 20, 2, "99d744c0eaf9fb8a4c9d1e02a086eda939ee445febf4dd0a18f888b98d631fc4"),
    (57, 5, 3, "cc84d0baa1f05cb8260402a4a9c608da2e0d96197bbb3218f2fb934617745b61"),
    (10, 60, 4, "4ab3c6549b883c71aa6838bf828eed38351aef21d9dc13ba2f18259e6af99952"),
    (1, 30, 5, "db647c2a240d75a6a108518c47ce81d7697bcb12764d04ec5f9cb8497f6feefe"),
    (2, 30, 6, "8e2834f9c20c7d54196c118b6257fd688695e07b25bd455bffdeada683549379"),
    (3, 30, 7, "632c79642fa9529b677ebd183c35007285beb63d46600f18e08b4c44de270b2e"),
    (64, 10, 8, "f8f839abd76c179fe2aa836aca34bd1d91b33ea286a70fec953d7686c19541fb"),
    (65, 10, 9, "e399d75a86fa315da900f41edb0a6f5d0ad1336e0386dc3864b679dcee30057a"),
    (128, 4, 10, "43ae318f499b8fcb3438cb8fb415349e0826fdfdfa211f48d2d355e721bc4213"),
    (129, 4, 11, "234f9bfd26d0b71d9436abef3fd45024cc3bd8b15a5a18d86c9f3c40e1e475e3"),
]


@pytest.mark.parametrize("n,d,seed,digest", PINNED)
def test_generator_output_is_pinned(n, d, seed, digest):
    blob = bis.encode(random_circuit(n, d, seed), compress=True)
    assert hashlib.sha256(blob).hexdigest() == digest


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=140), st.integers(min_value=1, max_value=6),
       st.integers(min_value=-2 ** 70, max_value=2 ** 70))
def test_generator_matches_stdlib_draws(n, d, seed):
    got = random_circuit(n, d, seed)
    want = _stdlib_random_circuit(n, d, seed)
    assert bis.encode(got) == bis.encode(want)
    assert got.body == want.body


def test_built_circuit_holds_columns_until_body_is_read():
    c = random_circuit(8, 12, seed=4)
    assert c._items is None
    bis.encode(c)
    assert len(c) == len(c._cols) and c._items is None
    body = c.body
    assert c._items is body
    assert body == _stdlib_random_circuit(8, 12, 4).body


def test_appending_to_one_circuit_leaves_its_twin():
    a = random_circuit(6, 10, seed=21)
    b = random_circuit(6, 10, seed=21)
    want = bis.encode(b)
    a.h(0).cnot(1, 2)
    assert len(a) == len(b) + 2
    assert bis.encode(b) == want
    assert b.body == _stdlib_random_circuit(6, 10, 21).body


# -- BenchConfig ------------------------------------------------------------------

def test_config_defaults():
    cfg = BenchConfig(sweep="qubit_count", sweep_values=[4, 8])
    assert cfg.sweep_values == (4, 8)
    assert cfg.fixed_circuit_count == 500
    assert cfg.fixed_depth == 500
    assert cfg.fixed_qubits == 72
    assert cfg.formats == FORMATS
    assert cfg.repetitions == 5
    assert cfg.sweep in SWEEPS


@pytest.mark.parametrize("kwargs,match", [
    (dict(sweep="gates", sweep_values=[1]), "unknown sweep"),
    (dict(sweep="circuit_count", sweep_values=[]), "non-empty"),
    (dict(sweep="circuit_count", sweep_values=[3, 0]), "positive"),
    (dict(sweep="circuit_count", sweep_values=[2.5]), "positive"),
    (dict(sweep="circuit_count", sweep_values=[True]), "positive"),
    (dict(sweep="circuit_count", sweep_values=[1], fixed_qubits=0), "fixed_qubits"),
    (dict(sweep="circuit_count", sweep_values=[1], formats=()), "non-empty"),
    (dict(sweep="circuit_count", sweep_values=[1], formats=("json",)), "unknown format"),
    (dict(sweep="circuit_count", sweep_values=[1],
          formats=("originir", "originir")), "duplicate"),
    (dict(sweep="circuit_count", sweep_values=[1], repetitions=2), ">= 3"),
])
def test_config_rejections(kwargs, match):
    with pytest.raises(BenchError, match=match):
        BenchConfig(**kwargs)


# -- run_transmission_bench -------------------------------------------------------

DESK = dict(fixed_circuit_count=4, fixed_depth=6, fixed_qubits=5,
            repetitions=3, seed=0)


def test_rows_in_sweep_order_value_major():
    cfg = BenchConfig(sweep="qubit_count", sweep_values=[3, 6], **DESK)
    rows = run_transmission_bench(cfg)
    assert len(rows) == 2 * len(FORMATS)
    assert [r.sweep_value for r in rows] == [3] * 4 + [6] * 4
    assert [r.format for r in rows[:4]] == list(FORMATS)


def test_row_fields_are_positive_and_consistent():
    cfg = BenchConfig(sweep="circuit_depth", sweep_values=[4, 8], **DESK)
    rows = run_transmission_bench(cfg)
    for row in rows:
        assert isinstance(row, BenchRow)
        assert row.encode_time > 0 and row.decode_time > 0
        assert row.post_encoding_size > 0 and row.gate_count > 0
    by_value = {}
    for row in rows:
        by_value.setdefault(row.sweep_value, set()).add(row.gate_count)
    assert all(len(s) == 1 for s in by_value.values())


def test_gate_count_grows_with_each_axis():
    for sweep in SWEEPS:
        cfg = BenchConfig(sweep=sweep, sweep_values=[2, 5, 9],
                          formats=("bis_compressed",), **DESK)
        rows = run_transmission_bench(cfg)
        counts = [r.gate_count for r in rows]
        assert counts == sorted(counts) and counts[0] < counts[-1]


def test_size_ordering_bis_originir_qasm():
    cfg = BenchConfig(sweep="circuit_count", sweep_values=[2, 6], **DESK)
    rows = run_transmission_bench(cfg)
    for value in (2, 6):
        size = {r.format: r.post_encoding_size
                for r in rows if r.sweep_value == value}
        assert size["bis_compressed"] < size["originir"] < size["qasm2"]
        assert size["bis_compressed"] < size["bis_uncompressed"]


def test_bis_size_nondecreasing_in_count_and_depth():
    for sweep in ("circuit_count", "circuit_depth"):
        cfg = BenchConfig(sweep=sweep, sweep_values=[1, 3, 6, 12],
                          formats=("bis_compressed", "bis_uncompressed"), **DESK)
        rows = run_transmission_bench(cfg)
        for fmt in ("bis_compressed", "bis_uncompressed"):
            sizes = [r.post_encoding_size for r in rows if r.format == fmt]
            assert sizes == sorted(sizes)


def test_sizes_reproducible_across_runs():
    cfg = BenchConfig(sweep="qubit_count", sweep_values=[4, 7], **DESK)
    a = run_transmission_bench(cfg)
    b = run_transmission_bench(cfg)
    assert [(r.post_encoding_size, r.gate_count) for r in a] == \
           [(r.post_encoding_size, r.gate_count) for r in b]


def test_formats_subset_respected():
    cfg = BenchConfig(sweep="circuit_count", sweep_values=[3],
                      formats=("originir",), **DESK)
    rows = run_transmission_bench(cfg)
    assert len(rows) == 1 and rows[0].format == "originir"


@pytest.mark.parametrize("fmt", ["bis_compressed", "bis_uncompressed", "originir"])
def test_round_trip_that_drops_a_gate_is_rejected(monkeypatch, fmt):
    encode, decode = bench._CODECS[fmt]

    def lossy(payload):
        out = decode(payload)
        body = out[-1].body
        out[-1] = Circuit(out[-1].num_qubits, out[-1].num_cbits)
        out[-1].extend(body[:-1])
        return out

    monkeypatch.setitem(bench._CODECS, fmt, (encode, lossy))
    cfg = BenchConfig(sweep="circuit_count", sweep_values=[3], formats=(fmt,), **DESK)
    with pytest.raises(BenchError, match="changed a circuit"):
        run_transmission_bench(cfg)


def test_round_trip_that_drops_a_circuit_is_rejected(monkeypatch):
    encode, decode = bench._CODECS["bis_compressed"]
    monkeypatch.setitem(bench._CODECS, "bis_compressed",
                        (encode, lambda payload: decode(payload)[:-1]))
    cfg = BenchConfig(sweep="circuit_count", sweep_values=[3],
                      formats=("bis_compressed",), **DESK)
    with pytest.raises(BenchError) as e:
        run_transmission_bench(cfg)
    assert str(e.value) == "bis_compressed round trip lost circuits"


# -- CSV --------------------------------------------------------------------------

def test_csv_header_and_shape():
    cfg = BenchConfig(sweep="qubit_count", sweep_values=[3],
                      formats=("bis_compressed", "originir"), **DESK)
    rows = run_transmission_bench(cfg)
    buf = io.StringIO()
    write_csv(cfg, rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[0] == "qubit_count" and first[1] == "3"
    assert first[2] == "bis_compressed"
    assert float(first[3]) == rows[0].encode_time
    assert float(first[4]) == rows[0].decode_time
    assert int(first[5]) == rows[0].post_encoding_size
    assert int(first[6]) == rows[0].gate_count
