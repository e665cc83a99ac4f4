#!/usr/bin/env python3
"""Record benchmark figures for one change: BENCH_<pr>.json.

    python3 scripts/bench_record.py --pr 4 --compare ../quantir-parent
    python3 scripts/bench_record.py --pr 4 --compare ../quantir-parent \\
        --workloads transmit_bulk --seeds 1-10

Runs ``perfbench/run.py --trace 0`` for the run length ``BENCHMARK.json``
sets, in a subprocess, one run at a time, for each workload and seed: in
this checkout (recorded as ``pr``) and in the parent checkout given by
``--compare`` (recorded as ``parent``), alternating which side runs first
from seed to seed.  For each side, workload and end-to-end metric it writes
the median and quartiles (``statistics.quantiles(values, n=4)``) with the
per-seed values, next to the side's commit id as it was when the runs
started, to ``BENCH_<pr>.json`` in this checkout.  It also counts, per
metric, the seeds on which this checkout did better than the parent, using
the metric's direction in ``BENCHMARK.json``.  Under ``claim`` it records,
per workload and metric, whether this checkout meets the rule a claimed
gain must meet: it wins on at least nine tenths of the seeds run (a tie
counts for neither side), and its median is better than the parent's by
more than the parent's q3 - q1.  Under ``median_change`` it gives, per
workload and metric, the relative change of this checkout's median against
the parent's and whether it lies within the metric's ``bound``: a change
for the better always does, a change for the worse when it is at most
``bound``.  Failed operations are summed per side and
workload.  Where a run's report prints a ``compiled batch sha256`` (the
compile workloads do), each side records that digest per seed, and
``digests_match`` says per workload whether every seed's digest is the same
on both sides (None when the workload prints none): a change that claims to
keep the compiled bytes shows here that it did.  ``src_lines`` gives the
lines of ``src/**/*.py`` in each checkout and their change, the figure of
the aim to keep the same behaviour in less code.  After each run it prints
that run's end-to-end metrics, so the signal of any of them shows while the
record runs.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from spread import seed_list  # noqa: E402


def commit_of(checkout: Path) -> str:
    # a "-dirty" suffix marks a run on uncommitted changes
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always",
                           "--dirty", "--abbrev=40"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


_DIGEST = re.compile(r"^\s*compiled batch sha256 ([0-9a-f]+)\s*$", re.MULTILINE)


def src_lines(checkout: Path) -> int:
    """Lines of the Python files under ``checkout``'s ``src``, as ``wc -l``
    counts them."""
    return sum(p.read_bytes().count(b"\n")
               for p in (checkout / "src").rglob("*.py"))


def parse_run(stdout: str) -> dict:
    """A run's last-line JSON, plus ``digest``: the compiled batch sha256
    its report prints, or None when it prints none."""
    result = json.loads(stdout.strip().splitlines()[-1])
    found = _DIGEST.search(stdout)
    result["digest"] = found.group(1) if found else None
    return result


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
        timeout=600 + 10 * seconds)
    return parse_run(proc.stdout)


def digests_match(pr: list[dict], parent: list[dict]) -> bool | None:
    """Whether every seed's digest is the same on both sides; None when
    no run of either side printed one."""
    pairs = [(a["digest"], b["digest"]) for a, b in zip(pr, parent)]
    if all(a is None and b is None for a, b in pairs):
        return None
    return all(a is not None and a == b for a, b in pairs)


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def median_change(pr: float, parent: float, metric: dict) -> dict:
    """``(pr - parent) / parent`` and whether it is within ``metric``'s bound."""
    worse = pr > parent if metric["better"] == "lower" else pr < parent
    relative = (pr - parent) / abs(parent) if parent else None
    within = not worse or (relative is not None
                           and abs(relative) <= metric["bound"])
    return {"relative": relative, "bound": metric["bound"],
            "within_bound": within}


def claim(pr: list[float], parent: list[float], metric: dict) -> dict:
    """Whether ``pr``'s seeds, paired in order with ``parent``'s, meet the
    rule for claiming a gain in ``metric``: wins on at least nine tenths of
    the pairs, ties counting for neither side, and a median better by more
    than the parent's q3 - q1."""
    sign = 1 if metric["better"] == "lower" else -1
    wins = sum(sign * a < sign * b for a, b in zip(pr, parent))
    base = summarize(parent)
    gap = sign * (base["median"] - summarize(pr)["median"])
    spread = base["q3"] - base["q1"]
    return {"wins": wins, "pairs": len(pr),
            "wins_nine_tenths": 10 * wins >= 9 * len(pr),
            "median_gap": gap, "parent_spread": spread,
            "gap_exceeds_spread": gap > spread,
            "holds": 10 * wins >= 9 * len(pr) and gap > spread}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--compare", type=Path, required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    sides = [("pr", ROOT), ("parent", args.compare.resolve())]
    commits = {name: commit_of(checkout) for name, checkout in sides}

    runs = {name: {w: [] for w in args.workloads} for name, _ in sides}
    for workload in args.workloads:
        for i, seed in enumerate(args.seeds):
            order = sides if i % 2 else sides[::-1]
            for name, checkout in order:
                result = run_once(checkout, workload, seed, seconds)
                runs[name][workload].append(result)
                values = " ".join(
                    f"{m['name']} {result['metrics'][m['name']]['value']:.6g}"
                    for m in metrics)
                if result["digest"]:
                    values += f" digest {result['digest']}"
                print(f"{workload} seed {seed} {name}: {values}"
                      f"{'' if result['correct'] else '  FAILED CHECKS'}", flush=True)

    record = {
        "pr": args.pr,
        "command": f"perfbench/run.py --seconds {seconds:g} --trace 0",
        "seeds": args.seeds,
        "sides": {},
    }
    for name, _ in sides:
        per_workload = {}
        for workload, results in runs[name].items():
            per_workload[workload] = {
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {m["name"]: {"unit": m["unit"], **summarize(
                    [r["metrics"][m["name"]]["value"] for r in results])}
                    for m in metrics},
                "digests": [r["digest"] for r in results],
            }
        record["sides"][name] = {"commit": commits[name], "workloads": per_workload}
    medians = {name: record["sides"][name]["workloads"] for name, _ in sides}
    claims = {
        workload: {m["name"]: claim(
            medians["pr"][workload]["metrics"][m["name"]]["values"],
            medians["parent"][workload]["metrics"][m["name"]]["values"], m)
            for m in metrics}
        for workload in args.workloads}
    record["sides"]["parent"]["pr_better_on_seeds"] = {
        workload: {name: c["wins"] for name, c in per_metric.items()}
        for workload, per_metric in claims.items()}
    record["claim"] = claims
    record["median_change"] = {
        workload: {m["name"]: median_change(
            medians["pr"][workload]["metrics"][m["name"]]["median"],
            medians["parent"][workload]["metrics"][m["name"]]["median"], m)
            for m in metrics}
        for workload in args.workloads}

    record["digests_match"] = {
        workload: digests_match(runs["pr"][workload], runs["parent"][workload])
        for workload in args.workloads}
    lines = {name: src_lines(checkout) for name, checkout in sides}
    record["src_lines"] = {**lines, "change": lines["pr"] - lines["parent"]}

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
