#!/usr/bin/env python3
"""Routing quality experiment: heuristic router vs a naive shortest-path walk.

For each seed, generate a random circuit, route it with the swap-search
router (layout trials included), and compare the inserted-swap count against
a greedy baseline that walks each two-qubit gate's operands together along a
shortest path from the identity placement.

    python3 scripts/routing_quality.py
    python3 scripts/routing_quality.py --topology square:9 --depth 60 --per-seed
"""
from __future__ import annotations

import argparse
import statistics
import sys

from quantir import TranspileConfig, transpile
from quantir.bench import random_circuit
from quantir.sabre import naive_swap_count
from quantir.topology import build


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
    args = parser.parse_args(argv)

    kind, _, param = args.topology.partition(":")
    graph = build(kind, int(param))
    width = args.qubits if args.qubits is not None else graph.num_qubits

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
