#!/usr/bin/env python3
"""Commit-floor gate: `commit_p50_us` of a repo benchmark workload must not
exceed `--factor` times that workload's device sync (`--device-us`).

Usage: commit_floor.py [--device-us 100] [--factor 5] <output of `benchmark --workload <w> --trace 0`>...

Defaults gate `wire_mixed_open`: it runs below saturation on a 100 us device
(BENCHMARK.json), so its commit p50 is the unloaded floor. The flush daemon
starts on a commit as soon as a flusher is idle, so that floor is the device
plus the wakeup chain (268 us measured, median of four runs on a 2-core
host). A group-commit timer back on the path costs `max_wait` = 1 ms on top,
which is ten syncs; the default 5x is what notices.

`--device-us 1000 --factor 1.6` gates `wire_pipelined_disk`: saturated on a
1 ms device, a commit that arrives during a sync starts the next flush beside
it, so p50 is about 1.4 syncs. With one sync at a time a commit waits the
sync in progress out and then its own, about 2.08 syncs.

Every JSON result line in the files counts as one run; the best run is judged.
"""

import argparse
import json
import sys


def clean_runs(paths, gate):
    """Every JSON result line in `paths`, or None (after saying why) when
    there is none or a run failed a check or an op."""
    runs = []
    for path in paths:
        with open(path) as f:
            runs += [json.loads(line) for line in f if line.startswith("{")]
    if not runs:
        print(f"::error::{gate}: no benchmark result line in {', '.join(paths)}")
        return None
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    if bad:
        print(f"::error::{gate}: {len(bad)} of {len(runs)} runs failed a check or an op")
        return None
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--device-us", type=float, default=100)
    ap.add_argument("--factor", type=float, default=5)
    ap.add_argument("files", nargs="+")
    args = ap.parse_args()
    runs = clean_runs(args.files, "commit-floor")
    if runs is None:
        return 1
    best = min(r["metrics"]["commit_p50_us"]["value"] for r in runs)
    limit = args.factor * args.device_us
    verdict = "ok" if best <= limit else "FAIL"
    print(
        f"commit floor: best commit_p50_us {best:.0f} us of {len(runs)} runs, "
        f"device {args.device_us:.0f} us, limit {args.factor:g} x = {limit:.0f} us: {verdict}"
    )
    if verdict != "ok":
        print("::error::a commit waits for more than the device allows: a timer back on the flush path, or syncs no longer overlapping?")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
