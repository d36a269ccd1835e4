#!/usr/bin/env python3
"""Append one trajectory row to BENCH_<workload>.json at the repo root.

Usage: bench_row.py --workload <w> --pr <n> --commit <sha> --side parent|change
                    [--seconds 10] <output of `benchmark --workload <w> --trace 0`>...
       bench_row.py --table --pr <n>


Every JSON result line in the files is one run. The row holds, per end-to-end
metric, the median and quartiles over the runs:

  {"pr", "commit", "side", "runs", "seconds",
   "metrics": {name: {"median", "q1", "q3", "unit"}}}

Rows are a record, not a gate: hosts differ, so CI gates on `--repeat 2` on
the runner itself and nothing compares against these files.

`--table` prints, as markdown, PR <n>'s parent and change rows of every
BENCH_<workload>.json side by side: median [q1, q3] and the change/parent
ratio of the medians.
"""

import argparse
import glob
import json
import os
import statistics
import sys

from commit_floor import clean_runs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def six(x):
    """Six significant digits: rows stay readable and diff-stable."""
    return None if x is None else float(f"{x:.6g}")


def num(x):
    return f"{x:.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def cell(m):
    spread = "" if m["q1"] is None else f" [{num(m['q1'])}, {num(m['q3'])}]"
    return num(m["median"]) + spread


def table(pr):
    print("| workload (runs) | metric | parent median [q1, q3] | change median [q1, q3] | change/parent |")
    print("|---|---|---|---|---|")
    for path in sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json"))):
        workload = os.path.basename(path)[len("BENCH_"):-len(".json")]
        with open(path) as f:
            rows = {r["side"]: r for r in map(json.loads, filter(str.strip, f)) if r["pr"] == pr}
        if set(rows) != {"parent", "change"}:
            continue
        parent, change = rows["parent"], rows["change"]
        label = f"{workload} ({parent['runs']}+{change['runs']})"
        for name, p in parent["metrics"].items():
            c = change["metrics"][name]
            ratio = f"{c['median'] / p['median']:.3f}" if p["median"] else "-"
            print(f"| {label} | {name} | {cell(p)} | {cell(c)} | {ratio} |")
            label = ""
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--table", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--pr", required=True, type=int)
    ap.add_argument("--commit")
    ap.add_argument("--side", choices=["parent", "change"])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("files", nargs="*")
    args = ap.parse_args()
    if args.table:
        return table(args.pr)
    if not (args.workload and args.commit and args.side and args.files):
        ap.error("a row needs --workload, --commit, --side and at least one file")

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
