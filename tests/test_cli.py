"""Command-line surface: exit codes, file plumbing, atomic writes."""
import csv
import io
import json
import math
import subprocess
import sys

import pytest

from quantir import bench, bis, originir
from quantir.cli import app
from quantir.circuit import Circuit

from conftest import ghz, parse_dot

GHZ_OIR = originir.emit(ghz(3))

ALL_PAIRS_CZ = """QINIT 3
CREG 3
CZ q[0],q[1]
CZ q[0],q[2]
CZ q[1],q[2]
"""

SWAPSWAP = """QINIT 3
CREG 3
SWAP q[0],q[1]
SWAP q[0],q[1]
"""


@pytest.fixture
def ghz_oir(tmp_path):
    path = tmp_path / "ghz.oir"
    path.write_text(GHZ_OIR, encoding="utf-8")
    return path


# -- exit codes and usage ---------------------------------------------------------

def test_no_arguments_is_usage_error(capsys):
    assert app([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert app(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert app(["--help"]) == 0
    assert "convert" in capsys.readouterr().out


def test_missing_input_file_is_data_error(tmp_path, capsys):
    assert app(["metrics", "--in", str(tmp_path / "nope.oir")]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_extension_is_usage_error(tmp_path, capsys):
    path = tmp_path / "circuit.txt"
    path.write_text(GHZ_OIR, encoding="utf-8")
    assert app(["metrics", "--in", str(path)]) == 1
    assert "--format" in capsys.readouterr().err


def test_format_override_rescues_unknown_extension(tmp_path):
    path = tmp_path / "circuit.txt"
    path.write_text(GHZ_OIR, encoding="utf-8")
    assert app(["metrics", "--in", str(path), "--format", "oir",
                "--json", str(tmp_path / "m.json")]) == 0


# -- convert ----------------------------------------------------------------------

def test_convert_oir_bis_oir_is_byte_identical(tmp_path, ghz_oir):
    mid = tmp_path / "ghz.bis"
    back = tmp_path / "ghz2.oir"
    assert app(["convert", "--in", str(ghz_oir), "--out", str(mid)]) == 0
    assert app(["convert", "--in", str(mid), "--out", str(back)]) == 0
    assert back.read_text(encoding="utf-8") == GHZ_OIR


def test_convert_qasm_to_oir(tmp_path):
    src = tmp_path / "bell.qasm"
    src.write_text("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n",
                   encoding="utf-8")
    out = tmp_path / "bell.oir"
    assert app(["convert", "--in", str(src), "--out", str(out)]) == 0
    c = originir.parse(out.read_text(encoding="utf-8"))
    assert c.num_qubits == 2 and c.body[0].kind.name == "CNOT"


def test_convert_compress_shrinks_bis(tmp_path, ghz_oir):
    plain = tmp_path / "a.bis"
    packed = tmp_path / "b.bis"
    assert app(["convert", "--in", str(ghz_oir), "--out", str(plain)]) == 0
    assert app(["convert", "--in", str(ghz_oir), "--out", str(packed),
                "--compress"]) == 0
    assert packed.stat().st_size < plain.stat().st_size
    assert bis.decode(packed.read_bytes())[0].body == ghz(3).body


def test_convert_corrupt_bis_reports_offset(tmp_path, capsys):
    bad = tmp_path / "bad.bis"
    blob = bytearray(bis.encode([ghz(3)]))
    blob[6] ^= 0xFF
    bad.write_bytes(bytes(blob))
    assert app(["convert", "--in", str(bad),
                "--out", str(tmp_path / "o.oir")]) == 2
    assert "at byte" in capsys.readouterr().err


def test_convert_multi_circuit_stream_to_text_fails(tmp_path, capsys):
    multi = tmp_path / "two.bis"
    multi.write_bytes(bis.encode([ghz(2), ghz(3)]))
    assert app(["convert", "--in", str(multi),
                "--out", str(tmp_path / "o.oir")]) == 2
    assert "2 circuits" in capsys.readouterr().err


def test_convert_multi_circuit_stream_to_bis_ok(tmp_path):
    multi = tmp_path / "two.bis"
    multi.write_bytes(bis.encode([ghz(2), ghz(3)]))
    out = tmp_path / "packed.bis"
    assert app(["convert", "--in", str(multi), "--out", str(out),
                "--compress"]) == 0
    assert [c.num_qubits for c in bis.decode(out.read_bytes())] == [2, 3]


def test_convert_rejects_qasm_output(tmp_path, ghz_oir, capsys):
    assert app(["convert", "--in", str(ghz_oir),
                "--out", str(tmp_path / "x.qasm")]) == 1
    assert ".oir or .bis" in capsys.readouterr().err


def test_failed_write_leaves_no_partial_output(tmp_path, capsys):
    multi = tmp_path / "two.bis"
    multi.write_bytes(bis.encode([ghz(2), ghz(3)]))
    target = tmp_path / "out.oir"
    assert app(["convert", "--in", str(multi), "--out", str(target)]) == 2
    assert not target.exists()
    assert list(tmp_path.glob(".quantir-tmp-*")) == []


def test_write_onto_a_directory_leaves_no_temporary_file(tmp_path, ghz_oir,
                                                          capsys):
    target = tmp_path / "out.bis"
    target.mkdir()
    assert app(["convert", "--in", str(ghz_oir), "--out", str(target)]) == 2
    assert "error" in capsys.readouterr().err
    assert target.is_dir() and list(target.iterdir()) == []
    assert list(tmp_path.glob(".quantir-tmp-*")) == []


# -- transpile --------------------------------------------------------------------

def test_transpile_writes_circuit_and_stats(tmp_path, ghz_oir):
    out = tmp_path / "routed.oir"
    stats_path = tmp_path / "stats.json"
    assert app(["transpile", "--in", str(ghz_oir), "--topology", "linear:3",
                "--level", "2", "--out", str(out),
                "--stats", str(stats_path)]) == 0
    routed = originir.parse(out.read_text(encoding="utf-8"))
    assert routed.num_qubits == 3
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    for key in ("swaps_inserted", "depth_before", "depth_after",
                "two_q_count", "two_q_depth", "elapsed",
                "initial_layout", "final_layout"):
        assert key in stats
    assert sorted(stats["initial_layout"]) == [0, 1, 2]


def test_transpile_refuses_a_stream_of_two_circuits(tmp_path, capsys):
    multi = tmp_path / "two.bis"
    multi.write_bytes(bis.encode([ghz(2), ghz(3)]))
    assert app(["transpile", "--in", str(multi), "--topology", "linear:3"]) == 2
    assert "holds 2 circuits; expected exactly 1" in capsys.readouterr().err


def test_transpile_all_pairs_cz_on_path_inserts_swaps(tmp_path):
    src = tmp_path / "allpairs.oir"
    src.write_text(ALL_PAIRS_CZ, encoding="utf-8")
    stats_path = tmp_path / "stats.json"
    assert app(["transpile", "--in", str(src), "--topology", "linear:3",
                "--level", "0", "--out", str(tmp_path / "o.oir"),
                "--stats", str(stats_path)]) == 0
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    assert stats["swaps_inserted"] >= 1


def test_transpile_level2_removes_swap_pair(tmp_path):
    src = tmp_path / "swapswap.oir"
    src.write_text(SWAPSWAP, encoding="utf-8")
    out = tmp_path / "clean.oir"
    assert app(["transpile", "--in", str(src), "--topology", "linear:3",
                "--level", "2", "--out", str(out)]) == 0
    assert len(originir.parse(out.read_text(encoding="utf-8")).body) == 0


def test_transpile_full_topology_needs_no_swaps(tmp_path):
    c = Circuit(5)
    for a in range(5):
        for b in range(a + 1, 5):
            c.cz(a, b)
    src = tmp_path / "dense.oir"
    src.write_text(originir.emit(c), encoding="utf-8")
    stats_path = tmp_path / "stats.json"
    assert app(["transpile", "--in", str(src), "--topology", "full:5",
                "--out", str(tmp_path / "o.oir"),
                "--stats", str(stats_path)]) == 0
    assert json.loads(stats_path.read_text())["swaps_inserted"] == 0


def test_transpile_topology_json_file(tmp_path, ghz_oir):
    topo = tmp_path / "line.json"
    assert app(["gen", "topology", "--kind", "linear", "--n", "3",
                "--out", str(topo)]) == 0
    assert app(["transpile", "--in", str(ghz_oir), "--topology", str(topo),
                "--out", str(tmp_path / "o.oir")]) == 0


def test_transpile_topology_json_with_a_boolean_index(tmp_path, ghz_oir, capsys):
    topo = tmp_path / "line.json"
    topo.write_text('{"n": 3, "edges": [[0, 1], [true, 2]]}', encoding="utf-8")
    assert app(["transpile", "--in", str(ghz_oir), "--topology", str(topo),
                "--out", str(tmp_path / "o.oir")]) == 2
    assert "edge entries must be [int, int]" in capsys.readouterr().err


def test_transpile_bad_topology_spec(tmp_path, ghz_oir, capsys):
    assert app(["transpile", "--in", str(ghz_oir), "--topology", "ring:x",
                "--out", str(tmp_path / "o.oir")]) == 1
    capsys.readouterr()
    assert app(["transpile", "--in", str(ghz_oir), "--topology", "ring:5",
                "--out", str(tmp_path / "o.oir")]) == 2
    assert "unknown topology kind" in capsys.readouterr().err


def test_transpile_stdout_when_no_out(ghz_oir, capsys):
    assert app(["transpile", "--in", str(ghz_oir),
                "--topology", "full:3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("QINIT 3")


# -- profile and metrics ----------------------------------------------------------

def test_profile_writes_dot_and_gprof(tmp_path):
    cir2 = Circuit(4, name="cir2")
    cir2.h(0)
    for t in (1, 2, 3):
        cir2.cnot(0, t)
    src = tmp_path / "cir2.oir"
    src.write_text(originir.emit(cir2), encoding="utf-8")
    times = tmp_path / "times.json"
    times.write_text(json.dumps({"H": 40, "CNOT": 200}), encoding="utf-8")
    dot = tmp_path / "graph.dot"
    gprof = tmp_path / "flat.txt"
    assert app(["profile", "--in", str(src), "--times", str(times),
                "--dot", str(dot), "--gprof", str(gprof)]) == 0
    nodes, edges = parse_dot(dot.read_text(encoding="utf-8"))
    assert any(attrs.get("label") == "1x" for _, _, attrs in edges)
    assert "Flat profile:" in gprof.read_text(encoding="utf-8")


def test_profile_missing_duration_names_gate(tmp_path, ghz_oir, capsys):
    times = tmp_path / "times.json"
    times.write_text(json.dumps({"H": 40}), encoding="utf-8")
    assert app(["profile", "--in", str(ghz_oir), "--times", str(times)]) == 2
    assert "CNOT" in capsys.readouterr().err


def test_profile_time_table_must_be_an_object(tmp_path, ghz_oir, capsys):
    times = tmp_path / "times.json"
    times.write_text(json.dumps([["H", 40], ["CNOT", 200]]), encoding="utf-8")
    assert app(["profile", "--in", str(ghz_oir), "--times", str(times)]) == 2
    assert "time table must be a JSON object" in capsys.readouterr().err


def test_profile_defaults_to_stdout_gprof(tmp_path, ghz_oir, capsys):
    times = tmp_path / "times.json"
    times.write_text(json.dumps({"H": 40, "CNOT": 200}), encoding="utf-8")
    assert app(["profile", "--in", str(ghz_oir), "--times", str(times)]) == 0
    assert "Call graph:" in capsys.readouterr().out


def test_metrics_json_matches_module(tmp_path, ghz_oir):
    from quantir.metrics import circuit_metrics

    out = tmp_path / "m.json"
    assert app(["metrics", "--in", str(ghz_oir), "--json", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc == circuit_metrics(ghz(3)).to_dict()
    assert doc["communication"] == pytest.approx(2 / 3, abs=1e-3)


def test_metrics_stdout(ghz_oir, capsys):
    assert app(["metrics", "--in", str(ghz_oir)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"communication", "critical_depth",
                        "entanglement_ratio", "parallelism", "liveness"}


# -- gen --------------------------------------------------------------------------

def test_gen_topology_linear_edges(capsys):
    assert app(["gen", "topology", "--kind", "linear", "--n", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["edges"] == [[0, 1], [1, 2]]


def test_gen_topology_random_is_seeded(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert app(["gen", "topology", "--kind", "random", "--n", "8",
                    "--seed", "5", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_circuit_deterministic_files(tmp_path):
    a = tmp_path / "a.oir"
    b = tmp_path / "b.oir"
    for path in (a, b):
        assert app(["gen", "circuit", "--qubits", "6", "--depth", "8",
                    "--seed", "7", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(originir.parse(a.read_text(encoding="utf-8"))) > 0


def test_gen_circuit_stdout_is_text_ir(capsys):
    assert app(["gen", "circuit", "--qubits", "4", "--depth", "5",
                "--seed", "1"]) == 0
    text = capsys.readouterr().out
    assert text == originir.emit(bench.random_circuit(4, 5, 1))
    assert originir.parse(text).num_qubits == 4


def test_gen_circuit_bis_compress(tmp_path):
    out = tmp_path / "c.bis"
    assert app(["gen", "circuit", "--qubits", "4", "--depth", "5",
                "--seed", "1", "--out", str(out), "--compress"]) == 0
    assert len(bis.decode(out.read_bytes())) == 1


def test_gen_circuit_bad_shape_is_data_error(tmp_path, capsys):
    assert app(["gen", "circuit", "--qubits", "0", "--depth", "5",
                "--out", str(tmp_path / "c.oir")]) == 2
    assert "num_qubits" in capsys.readouterr().err


# -- bench ------------------------------------------------------------------------

def test_bench_writes_csv_rows(tmp_path):
    out = tmp_path / "bench.csv"
    assert app(["bench", "--sweep", "qubits", "--values", "2,3",
                "--count", "2", "--depth", "3", "--reps", "3",
                "--formats", "bis_compressed,originir",
                "--csv", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "sweep,value,format,encode_s,decode_s,size_bytes,gate_count"
    assert len(lines) == 1 + 2 * 2
    assert lines[1].startswith("qubit_count,2,bis_compressed,")


def test_bench_stdout_and_full_sweep_names(capsys):
    assert app(["bench", "--sweep", "circuit_count", "--values", "2",
                "--count", "2", "--depth", "2", "--qubits", "2",
                "--reps", "3", "--formats", "bis_uncompressed"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sweep,value,format,")
    assert "circuit_count,2,bis_uncompressed," in out


def test_bench_defaults_are_bench_config_defaults(monkeypatch):
    seen = []
    monkeypatch.setattr(bench, "run_transmission_bench",
                        lambda config: seen.append(config) or [])
    assert app(["bench", "--sweep", "count", "--values", "1"]) == 0
    assert seen == [bench.BenchConfig(sweep="circuit_count", sweep_values=(1,))]


def test_bench_csv_matches_the_library_for_the_same_config(tmp_path):
    # flags left unset take BenchConfig's defaults, the seed among them
    out = tmp_path / "bench.csv"
    assert app(["bench", "--sweep", "depth", "--values", "2,4", "--count", "3",
                "--qubits", "4", "--reps", "3", "--csv", str(out)]) == 0
    config = bench.BenchConfig(sweep="circuit_depth", sweep_values=(2, 4),
                               fixed_circuit_count=3, fixed_qubits=4,
                               repetitions=3)
    buf = io.StringIO()
    bench.write_csv(config, bench.run_transmission_bench(config), buf)

    def untimed(text):
        return [row[:3] + row[5:] for row in csv.reader(io.StringIO(text))]

    assert untimed(out.read_text(encoding="utf-8")) == untimed(buf.getvalue())


def test_bench_bad_values_is_usage_error(capsys):
    assert app(["bench", "--sweep", "qubits", "--values", "2,x"]) == 1
    assert "comma-separated" in capsys.readouterr().err


def test_bench_bad_format_is_data_error(capsys):
    assert app(["bench", "--sweep", "qubits", "--values", "2",
                "--formats", "json"]) == 2
    assert "unknown format" in capsys.readouterr().err


# -- sim and draw -----------------------------------------------------------------

def test_sim_ghz_amplitudes(tmp_path, ghz_oir):
    out = tmp_path / "state.json"
    assert app(["sim", "--in", str(ghz_oir), "--json", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["num_qubits"] == 3
    amps = doc["amplitudes"]
    assert len(amps) == 8
    assert amps[0][0] == pytest.approx(1 / math.sqrt(2))
    assert amps[7][0] == pytest.approx(1 / math.sqrt(2))
    assert sum(re * re + im * im for re, im in amps) == pytest.approx(1.0)


def test_sim_strips_trailing_measures(tmp_path):
    c = ghz(2)
    c.measure(0, 0)
    c.measure(1, 1)
    src = tmp_path / "m.oir"
    src.write_text(originir.emit(c), encoding="utf-8")
    assert app(["sim", "--in", str(src), "--json",
                str(tmp_path / "s.json")]) == 0


def test_sim_rejects_mid_circuit_measure(tmp_path, capsys):
    src = tmp_path / "mid.oir"
    src.write_text("QINIT 2\nCREG 2\nMEASURE q[0],c[0]\nH q[1]\n",
                   encoding="utf-8")
    assert app(["sim", "--in", str(src)]) == 2
    assert "final" in capsys.readouterr().err


def test_sim_rejects_wide_circuit(tmp_path, capsys):
    wide = Circuit(13)
    wide.h(12)
    src = tmp_path / "wide.oir"
    src.write_text(originir.emit(wide), encoding="utf-8")
    assert app(["sim", "--in", str(src)]) == 2
    assert "12" in capsys.readouterr().err


def test_draw_stdout_and_file(tmp_path, ghz_oir, capsys):
    assert app(["draw", "--in", str(ghz_oir)]) == 0
    assert "[H]" in capsys.readouterr().out
    out = tmp_path / "art.txt"
    assert app(["draw", "--in", str(ghz_oir), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").count("\n") == 3


# -- module entry point -----------------------------------------------------------

def test_python_dash_m_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "quantir.cli", "gen", "topology",
         "--kind", "linear", "--n", "3"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["edges"] == [[0, 1], [1, 2]]
