#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage: python3 scripts/ab_bench.py PARENT_DIR CHANGE_DIR --workload W
           --seed S --pairs N

Each pair runs `perfbench/run.py --workload W --seed S --seconds T` once
in each checkout, T being the benchmark's `run_seconds` from the
BENCHMARK.json of this script's repository.  Before the first pair it
prints whether PYTHONDONTWRITEBYTECODE is set and how many .pyc files
each checkout's src/ holds, so a reader can tell whether the comparison
measured cold imports or cached ones.  The parent runs first in
odd pairs and the change first in even ones, so a host that speeds up
or slows down during the comparison weighs on both sides alike.  For
every pair it prints both sides' execs_per_s, wall_s, setup_s and
peak_rss_mb; at the end the wins of the change on execs_per_s, the
medians and their ratio, the parent's interquartile range, the median
and interquartile range of the per-pair change/parent ratios, and, for
each end-to-end metric of BENCHMARK.json, both medians, the relative
change and "worse than bound" when the change's median is worse than
the parent's by more than the metric's bound times the parent's median;
then whether every run gave the same output digest and exact outcomes.
The per-pair ratios compare runs made a minute apart, so a host that
swings between fast and slow states for minutes at a time moves both
sides of a ratio together.
It exits 1 if any run failed or the outputs differ.  Standard library
only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
RUN_SECONDS = SPEC["run_seconds"]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `checkout`: its info line and result line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: run.py exited {proc.returncode}\n{proc.stderr}")
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    info = json.loads(info_line)["info"]
    result = json.loads(result_line)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {
        "metrics": metrics,
        "failed": result["failed"],
        "output": (info["digest"], json.dumps(info["outcomes"], sort_keys=True)),
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()

    flag = "set" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "not set"
    pycs = [len(list((d / "src").rglob("*.pyc"))) for d in (args.parent, args.change)]
    print(
        f"PYTHONDONTWRITEBYTECODE {flag}; .pyc files under src/:"
        f" parent {pycs[0]}, change {pycs[1]}",
        flush=True,
    )
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(run_once(checkout, args.workload, args.seed, RUN_SECONDS))
        p, c = runs["parent"][-1]["metrics"], runs["change"][-1]["metrics"]
        print(
            f"pair {k:2d} ({order[0]} first): execs_per_s {p['execs_per_s']:9.1f} ->"
            f" {c['execs_per_s']:9.1f}   wall_s {p['wall_s']:.4f} -> {c['wall_s']:.4f}"
            f"   setup_s {p['setup_s']:.4f} -> {c['setup_s']:.4f}"
            f"   peak_rss_mb {p['peak_rss_mb']:6.2f} -> {c['peak_rss_mb']:6.2f}",
            flush=True,
        )

    def values(side: str, name: str) -> list[float]:
        return [r["metrics"][name] for r in runs[side]]

    par, chg = values("parent", "execs_per_s"), values("change", "execs_per_s")
    wins = sum(c > p for p, c in zip(par, chg))
    q1, q3 = quartiles(par)
    ratios = [c / p for p, c in zip(par, chg)]
    r1, r3 = quartiles(ratios)
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs")
    print(f"execs_per_s: change won {wins}/{args.pairs}")
    print(
        f"execs_per_s median {statistics.median(par):.1f} (parent IQR {q1:.1f}-{q3:.1f})"
        f" -> {statistics.median(chg):.1f}, ratio"
        f" {statistics.median(chg) / statistics.median(par):.3f}"
    )
    print(
        f"execs_per_s per-pair ratio median {statistics.median(ratios):.3f}"
        f" (IQR {r1:.3f}-{r3:.3f})"
    )
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        p = statistics.median(values("parent", name))
        c = statistics.median(values("change", name))
        worse = (c - p if metric["better"] == "lower" else p - c) > metric["bound"] * abs(p)
        change = f"{(c - p) / p:+.3f}" if p else "n/a"
        print(
            f"{name} median {p:.4f} -> {c:.4f}, relative change {change}"
            f" (better {metric['better']}, bound {metric['bound']})"
            + ("   worse than bound" if worse else "")
        )
    outputs = {r["output"] for side in runs.values() for r in side}
    failed = sum(r["failed"] for side in runs.values() for r in side)
    same = len(outputs) == 1
    print(f"digests and outcomes match: {same}; failed operations: {failed}")
    return 0 if same and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
