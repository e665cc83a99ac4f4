"""scripts/routing_quality.py: the spread it prints for ``--time N``."""
import importlib.util
import re
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "routing_quality.py"
_spec = importlib.util.spec_from_file_location("routing_quality", _PATH)
routing_quality = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(routing_quality)

_NUM = r"(\d+\.\d{3})"
_SPREAD = re.compile(rf"transpile median {_NUM} \(min {_NUM}, quartiles {_NUM}-"
                     rf"{_NUM}, max {_NUM}\) reference s over 3 runs; "
                     r"\d+ swaps, depth \d+$")


def test_time_prints_median_beside_min_quartiles_and_max(capsys):
    assert routing_quality.main(["--time", "3", "--topology", "linear:4"]) == 0
    line = capsys.readouterr().out.strip()
    m = _SPREAD.search(line)
    assert m, line
    median, low, q1, q3, high = map(float, m.groups())
    assert low <= q1 <= median <= q3 <= high


def test_spread_of_known_times():
    assert routing_quality.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == \
        "median 3.000 (min 1.000, quartiles 1.500-4.500, max 5.000)"
    assert routing_quality.spread([0.5]) == \
        "median 0.500 (min 0.500, quartiles 0.500-0.500, max 0.500)"
