#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compile_lower --seed 1 --seconds 15 --trace 0

Run it from the repository root; quantir is imported from ``src/`` next to
this directory, never from an installed copy.  The output is a readable
report, then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the ``end_to_end`` ones of ``BENCHMARK.json``; with ``--trace 1`` they are
the ``per_layer`` ones, measured by spans around calls into each module, and
the spans go to ``perfbench/out/trace-<workload>-<seed>.json``.  A layer
that a workload never calls reads 0 in its traced run.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _load_quantir():
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import quantir
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import quantir from {SRC}: {e}")
    if SRC not in Path(quantir.__file__).resolve().parents:
        raise SystemExit(f"perfbench: quantir came from {quantir.__file__}, "
                         f"not from {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    _load_quantir()
    from perfbench import compilation, transmission
    from perfbench.measure import median, peak_rss_mb
    from perfbench.trace import Tracer

    workloads = {
        "transmit_bulk": (transmission.run, transmission.BULK),
        "transmit_stream": (transmission.run, transmission.STREAM),
        "compile_route": (compilation.run, compilation.ROUTE),
        "compile_lower": (compilation.run, compilation.LOWER),
    }
    if args.workload not in workloads:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    runner, spec = workloads[args.workload]
    tracer = Tracer() if args.trace else None
    res, checks = runner(spec, args.seed, args.seconds, tracer)
    res.put("peak_rss_mb", peak_rss_mb(), "MB", "this process")
    res.line("pace", median(res.record["pace"]), "x",
             "machine speed against the reference loop; times are scaled by it")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("\n".join(res.report))
    rate = checks.failed / checks.attempted
    print(f"  {'error_rate':<34} {rate:>14.6g} ratio   "
          f"{checks.failed} failed of {checks.attempted} checked operations")
    for problem in checks.errors:
        print(f"  FAILED: {problem}")

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value, unit = res.metrics.get(m["name"], (0.0, m["unit"]))
        if args.trace == 0 and m["name"] not in res.metrics:
            raise SystemExit(f"perfbench: {args.workload} did not measure {m['name']}")
        if unit != m["unit"]:
            raise SystemExit(f"perfbench: {m['name']} measured in {unit}, "
                             f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    if tracer is not None:
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "metrics": {k: v for k, (v, _) in res.metrics.items()},
            **res.record, "spans": tracer.dump(),
        }))
        print(f"  spans written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
