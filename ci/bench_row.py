#!/usr/bin/env python3
"""Append one trajectory row to BENCH_<workload>.json at the repo root.

Usage: bench_row.py --workload <w> --pr <n> --commit <sha> --side parent|change
                    [--seconds 10] <output of `benchmark --workload <w> --trace 0`>...

Every JSON result line in the files is one run. The row holds, per end-to-end
metric, the median and quartiles over the runs:

  {"pr", "commit", "side", "runs", "seconds",
   "metrics": {name: {"median", "q1", "q3", "unit"}}}

Rows are a record, not a gate: hosts differ, so CI gates on `--repeat 2` on
the runner itself and nothing compares against these files.
"""

import argparse
import json
import os
import statistics
import sys

from commit_floor import clean_runs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def six(x):
    """Six significant digits: rows stay readable and diff-stable."""
    return None if x is None else float(f"{x:.6g}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pr", required=True, type=int)
    ap.add_argument("--commit", required=True)
    ap.add_argument("--side", required=True, choices=["parent", "change"])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("files", nargs="+")
    args = ap.parse_args()

    runs = clean_runs(args.files, "bench-row")
    if runs is None:
        return 1

    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        # One run has no quartiles: the row then says so instead of inventing a spread.
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (None, None, None)
        metrics[name] = {
            "median": six(statistics.median(values)),
            "q1": six(q1),
            "q3": six(q3),
            "unit": first["unit"],
        }
    row = {
        "pr": args.pr,
        "commit": args.commit,
        "side": args.side,
        "runs": len(runs),
        "seconds": args.seconds,
        "metrics": metrics,
    }
    path = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(path, "a") as f:
        f.write(json.dumps(row) + "\n")
    print(f"bench-row: {args.side} row of {len(runs)} runs appended to {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
