"""scripts/bench_record.py: the median change it records per metric."""
import importlib.util
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
