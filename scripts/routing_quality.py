#!/usr/bin/env python3
"""Routing quality experiment: heuristic router vs a naive shortest-path walk.

For each seed, generate a random circuit, route it with the swap-search
router (layout trials included), and compare the inserted-swap count against
a greedy baseline that walks each two-qubit gate's operands together along a
shortest path from the identity placement.

    python3 scripts/routing_quality.py
    python3 scripts/routing_quality.py --topology square:9 --depth 60 --per-seed

With ``--time N`` it instead times ``transpile`` of seed 0's circuit N times
and prints the median in reference seconds (``perfbench.measure.Pace``)
beside the minimum, quartiles (``statistics.quantiles(times, n=4)``) and
maximum, with the output's swaps and depth.  The ROADMAP's router case is

    python3 scripts/routing_quality.py --time 10 --topology heavy_hex:5 \
        --depth 60 --level 2
"""
from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.measure import Pace  # noqa: E402
from quantir import TranspileConfig, transpile  # noqa: E402
from quantir.bench import random_circuit  # noqa: E402
from quantir.sabre import naive_swap_count  # noqa: E402
from quantir.topology import build  # noqa: E402


def time_transpile(circuit, graph, config, runs: int) -> tuple[list, object]:
    """Reference seconds of ``runs`` calls, sorted, and the last call's result."""
    pace = Pace()
    times = []
    for _ in range(runs):
        t, result = pace.timed(transpile, circuit, graph, config)
        times.append(t)
    return sorted(times), result


def spread(times: list) -> str:
    """Median, then minimum, quartiles and maximum of sorted ``times``."""
    q1, median, q3 = (statistics.quantiles(times, n=4) if len(times) > 1
                      else times * 3)
    return (f"median {median:.3f} (min {times[0]:.3f}, quartiles {q1:.3f}-"
            f"{q3:.3f}, max {times[-1]:.3f})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--topology", default="linear:6",
                        help="kind:param, e.g. linear:6, square:9, heavy_hex:3")
    parser.add_argument("--qubits", type=int, default=None,
                        help="circuit width (default: device width)")
    parser.add_argument("--depth", type=int, default=30)
    parser.add_argument("--seeds", type=int, default=50)
    parser.add_argument("--level", type=int, default=0, choices=(0, 1, 2))
    parser.add_argument("--per-seed", action="store_true",
                        help="print one line per seed")
    parser.add_argument("--time", type=int, default=0, metavar="N",
                        help="time N transpile calls of seed 0's circuit instead")
    args = parser.parse_args(argv)

    kind, _, param = args.topology.partition(":")
    graph = build(kind, int(param))
    width = args.qubits if args.qubits is not None else graph.num_qubits

    if args.time > 0:
        times, result = time_transpile(random_circuit(width, args.depth, seed=0),
                                       graph, TranspileConfig(level=args.level),
                                       args.time)
        print(f"{args.topology}, {width} qubits, depth {args.depth}, seed 0, "
              f"level {args.level}: transpile {spread(times)} reference s "
              f"over {args.time} runs; {result.stats.swaps_inserted} swaps, "
              f"depth {result.stats.depth_after}")
        return 0

    routed, walked, wins = [], [], 0
    for seed in range(args.seeds):
        circuit = random_circuit(width, args.depth, seed=seed)
        result = transpile(circuit, graph,
                           TranspileConfig(level=args.level, seed=seed))
        baseline = naive_swap_count(circuit, graph)
        routed.append(result.stats.swaps_inserted)
        walked.append(baseline)
        wins += result.stats.swaps_inserted <= baseline
        if args.per_seed:
            marker = "<=" if result.stats.swaps_inserted <= baseline else " >"
            print(f"  seed {seed:>3}: router {result.stats.swaps_inserted:>4} "
                  f"{marker} walk {baseline:>4}")

    print(f"{args.topology}, {width} qubits, depth {args.depth}, "
          f"{args.seeds} seeds, level {args.level}")
    print(f"  router: mean {statistics.fmean(routed):6.2f}  "
          f"median {statistics.median(routed):5.1f}  max {max(routed)}")
    print(f"  walk:   mean {statistics.fmean(walked):6.2f}  "
          f"median {statistics.median(walked):5.1f}  max {max(walked)}")
    print(f"  router <= walk on {wins}/{args.seeds} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
