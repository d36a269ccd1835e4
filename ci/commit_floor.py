#!/usr/bin/env python3
"""Unloaded-commit-floor gate: `commit_p50_us` of the repo benchmark's
`wire_mixed_open` workload must not exceed 5x that workload's device sync.

Usage: commit_floor.py <output of `benchmark --workload wire_mixed_open --trace 0`>...

The workload runs below saturation on a 100 us device (BENCHMARK.json), so
its commit p50 is the unloaded floor. The flush daemon starts on a commit as
soon as it is idle, so that floor is the device plus the wakeup chain
(327-345 us measured). A group-commit timer back on the path costs
`max_wait` = 1 ms on top, which is ten syncs; this gate is what notices.
Every JSON result line in the files counts as one run; the best run is judged.
"""

import json
import sys

DEVICE_SYNC_US = 100
FACTOR = 5


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


def main(paths):
    if not paths:
        print(__doc__)
        return 1
    runs = clean_runs(paths, "commit-floor")
    if runs is None:
        return 1
    best = min(r["metrics"]["commit_p50_us"]["value"] for r in runs)
    limit = FACTOR * DEVICE_SYNC_US
    verdict = "ok" if best <= limit else "FAIL"
    print(
        f"commit floor: best wire_mixed_open commit_p50_us {best:.0f} us of {len(runs)} runs, "
        f"device {DEVICE_SYNC_US} us, limit {limit} us: {verdict}"
    )
    if verdict != "ok":
        print("::error::an unloaded commit waits for more than the device: is a timer back on the flush path?")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
