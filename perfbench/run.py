"""Benchmark entry point: one workload, one seed, a fixed measuring time.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs fixed-budget rounds of the workload one after another, each in a
fresh worker process (perfbench/worker.py), until S seconds have passed
and at least MIN_ROUNDS rounds have run.  The load is one process with
one thread in a closed loop: a batch fuzzer, not a server.  Every round
uses the same seed, so every round must produce the same outputs; a
round whose output digest or exact outcomes differ from the first
round's counts all its fixture runs as failed, as does a fixture run
whose output checks fail.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json: the
median over rounds of each timing, and the exact outcomes of the seed.
--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics (medians over the traced rounds) with trace.overhead, the traced
over the untraced median wall time.

Before the result it prints one info line (host, seed, output digest,
exact outcomes, per-round times).  The last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
When a round cannot run at all it exits non-zero without a result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"

MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 120
# the self times of a traced round must add up to its wall time within this
ACCOUNTED_TOLERANCE = 0.01


class BenchError(RuntimeError):
    """A round could not run, or produced no value for a metric."""


def run_worker(workload: str, seed: int, traced: bool) -> dict:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"round exceeded {ROUND_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values) -> float:
    return statistics.median(list(values))


def summarize(rounds: list[dict], trace: bool) -> tuple[dict, dict]:
    """Fold rounds into (result, info).  result holds every metric this
    mode computes, by name (select_metrics keeps the ones BENCHMARK.json
    lists); info records what a reader needs to compare
    runs: host, digest, outcomes and each round's times."""
    first = rounds[0]
    attempted = failed = 0
    errors: list[str] = []
    for i, r in enumerate(rounds):
        attempted += r["attempted"]
        bad = r["failed"]
        errors += r["errors"]
        if r["digest"] != first["digest"] or r["outcomes"] != first["outcomes"]:
            bad = r["attempted"]
            errors.append(f"round {i} outputs differ from round 0 for the same seed")
        if r["traced"] and abs(sum(r["shares"].values()) - 1) > ACCOUNTED_TOLERANCE:
            bad = r["attempted"]
            errors.append(f"round {i}: span self times do not add up to its wall time")
        failed += bad

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    wall = _median(r["wall_s"] for r in plain)
    values = dict(first["outcomes"])
    if trace:
        for name in traced[0]["layers"]:
            values[name] = _median(r["layers"][name] for r in traced)
        values["trace.overhead"] = _median(r["wall_s"] for r in traced) / wall
    else:
        values["setup_s"] = _median(r["setup_s"] for r in plain)
        values["wall_s"] = wall
        values["execs_per_s"] = _median(r["executions"] / r["camp_s"] for r in plain)
        values["peak_rss_mb"] = _median(r["peak_rss_mb"] for r in plain)
    info = {
        "workload": first["workload"],
        "seed": first["seed"],
        "host": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "backend": first["backend"],
        },
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "digest": first["digest"],
        "outcomes": first["outcomes"],
        "setup_s": [r["setup_s"] for r in plain],
        "wall_s": [r["wall_s"] for r in plain],
        "errors": errors,
    }
    if traced:
        info["traced_wall_s"] = [r["wall_s"] for r in traced]
        shares = traced[0]["shares"]
        info["self_share"] = dict(sorted(shares.items(), key=lambda kv: -kv[1]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }
    return result, info


def select_metrics(values: dict, specs: list[dict]) -> dict:
    """The metrics BENCHMARK.json names, with their units."""
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (SPEC, ROOT / "src" / "sctest", ROOT / "fixtures"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} is missing", file=sys.stderr)
            return 2
    spec = json.loads(SPEC.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    rounds: list[dict] = []
    deadline = time.monotonic() + args.seconds
    try:
        while len(rounds) < MIN_ROUNDS or time.monotonic() < deadline:
            # traced runs alternate so both kinds see the same conditions
            traced = trace and len(rounds) % 2 == 1
            rounds.append(run_worker(args.workload, args.seed, traced))
        result, info = summarize(rounds, trace)
        result["metrics"] = select_metrics(
            result["metrics"], spec["per_layer" if trace else "end_to_end"]
        )
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for line in info["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
