"""scripts/bench_record.py: the median change per metric, the claim rule,
the digests and the source line count."""
import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

LOWER = {"better": "lower", "bound": 0.15}
HIGHER = {"better": "higher", "bound": 0.1}


@pytest.mark.parametrize("pr,parent,metric,relative,within", [
    (1.10, 1.0, LOWER, 0.10, True),    # worse, inside the bound
    (1.20, 1.0, LOWER, 0.20, False),   # worse, past the bound
    (0.50, 1.0, LOWER, -0.50, True),   # better by any amount
    (0.85, 1.0, HIGHER, -0.15, False),  # a drop is worse when higher is better
    (1.50, 1.0, HIGHER, 0.50, True),
    (2.00, 2.0, LOWER, 0.0, True),
])
def test_median_change(pr, parent, metric, relative, within):
    got = bench_record.median_change(pr, parent, metric)
    assert got["relative"] == pytest.approx(relative)
    assert got["within_bound"] is within
    assert got["bound"] == metric["bound"]


def test_median_change_from_a_zero_parent():
    assert bench_record.median_change(0.0, 0.0, LOWER) == \
        {"relative": None, "bound": 0.15, "within_bound": True}
    assert bench_record.median_change(0.1, 0.0, LOWER)["within_bound"] is False
    assert bench_record.median_change(0.1, 0.0, HIGHER)["within_bound"] is True


def _fake_run(digest):
    """What perfbench/run.py prints: a report, then one JSON line."""
    report = ["perfbench compile_lower seed=1 seconds=20 trace=0",
              "  path_s                                 0.0081 s       compile_s"]
    if digest:
        report.append(f"  compiled batch sha256 {digest}")
    report.append('{"correct": true, "attempted": 75, "failed": 0, '
                  '"metrics": {"path_s": {"value": 0.0081, "unit": "s"}}}')
    return "\n".join(report) + "\n"


def test_parse_run_reads_the_compiled_batch_digest():
    got = bench_record.parse_run(_fake_run("dedd0783b1509284"))
    assert got["digest"] == "dedd0783b1509284"
    assert got["metrics"]["path_s"]["value"] == 0.0081
    assert got["attempted"] == 75
    assert bench_record.parse_run(_fake_run(None))["digest"] is None


@pytest.mark.parametrize("pr,parent,match", [
    (["aa", "bb"], ["aa", "bb"], True),
    (["aa", "bb"], ["aa", "bc"], False),  # one seed differs
    (["aa", None], ["aa", None], False),  # a seed without a digest proves nothing
    ([None, None], [None, None], None),   # a workload that prints none
])
def test_digests_match(pr, parent, match):
    runs = {side: [bench_record.parse_run(_fake_run(d)) for d in digests]
            for side, digests in (("pr", pr), ("parent", parent))}
    assert bench_record.digests_match(runs["pr"], runs["parent"]) is match


_PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


@pytest.mark.parametrize("pr,metric,wins,nine_tenths,gap_exceeds", [
    # nine wins of ten, with a median gap past the parent's q3 - q1
    ([0.90] * 9 + [1.05], LOWER, 9, True, True),
    # eight wins: the median gap alone does not make a claim
    ([0.90] * 8 + [1.05, 1.05], LOWER, 8, False, True),
    # ten wins, but by less than the parent's own spread
    ([p - 0.001 for p in _PARENT], LOWER, 10, True, False),
    # a tie counts for neither side
    ([0.90] * 8 + [1.05, _PARENT[9]], LOWER, 8, False, True),
    # higher is better: the same figures are a loss
    ([0.90] * 9 + [1.05], HIGHER, 1, False, False),
    ([1.10] * 10, HIGHER, 10, True, True),
])
def test_claim_rule(pr, metric, wins, nine_tenths, gap_exceeds):
    got = bench_record.claim(pr, _PARENT, metric)
    assert got["wins"] == wins and got["pairs"] == 10
    assert got["wins_nine_tenths"] is nine_tenths
    assert got["gap_exceeds_spread"] is gap_exceeds
    assert got["holds"] is (nine_tenths and gap_exceeds)
    q1, _, q3 = statistics.quantiles(_PARENT, n=4)
    assert got["parent_spread"] == pytest.approx(q3 - q1)


def test_src_lines_counts_python_files_under_src(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "sub" / "b.py").write_text("z = 3\n")
    (pkg / "notes.txt").write_text("not code\n" * 5)
    (tmp_path / "top.py").write_text("outside src\n")
    assert bench_record.src_lines(tmp_path) == 4
