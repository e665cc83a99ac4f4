"""Random-circuit generator and the transmission benchmark harness."""
import io
import math

import pytest

from quantir import bench, bis
from quantir.bench import (
    CSV_HEADER, FORMATS, SWEEPS, BenchConfig, BenchError, BenchRow,
    random_circuit, run_transmission_bench, write_csv,
)
from quantir.circuit import Circuit, depth, gate_counts
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


def test_csv_accepts_path(tmp_path):
    cfg = BenchConfig(sweep="circuit_count", sweep_values=[2],
                      formats=("bis_compressed",), **DESK)
    rows = run_transmission_bench(cfg)
    out = tmp_path / "bench.csv"
    write_csv(cfg, rows, out)
    text = out.read_text(encoding="utf-8")
    assert text.startswith("sweep,value,format,")
    assert text.count("\n") == 2
