"""Run one benchmark round in a fresh process and print its figures.

Usage: python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

A fresh process per round means caches the program keeps per process
start cold in every round, as they do for a user running one campaign.
Set-up time is measured from the start of this script, so it includes
importing sctest.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    out = workloads.run_round(args.workload, args.seed, bool(args.trace), start=START)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
