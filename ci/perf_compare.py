#!/usr/bin/env python3
"""Perf-regression gate: diff the bounded perf-smoke's JSON-lines output
against the committed baselines in bench/baselines/.

Two checks, matched on the row keys that identify a configuration:

* BENCH_fig8.json    — insert throughput; fail when `mb_per_s` drops more
                       than PERF_MAX_TPUT_DROP_PCT (default 25%).
* BENCH_latency.json — commit latency; fail when `p99_us` grows more than
                       PERF_MAX_P99_GROWTH_PCT (default 50%).

The thresholds are deliberately loose: shared CI runners jitter by tens of
percent, and this gate exists to catch the step-function regressions (a
lock on the insert path, a lost group-commit amortization), not 5% drift.
A legitimate perf-profile change ships new baselines in the same commit,
or carries the `[skip-perf-gate]` override label in the commit message /
PR title (documented in README.md).

Baseline keys missing from the current run only warn — bench shapes may
narrow — but a run where *nothing* matches is a broken gate and fails.
"""

import json
import os
import sys


def load(path):
    try:
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]
    except OSError as e:
        print(f"::error::perf-compare: cannot read {path}: {e}")
        sys.exit(1)


def index(rows, keys, metric, direction):
    # The bench files are append-mode JSON-lines, so a key may appear once
    # per run. Keep each key's best row: CI runs the latency bench several
    # times and gates best-of-N, because a genuine regression raises the
    # *minimum* achievable p99 while scheduler noise only raises the tail.
    best = {}
    for row in rows:
        key = tuple((k, row.get(k)) for k in keys)
        val = row.get(metric)
        if val is None:
            continue
        if key not in best or (
            val > best[key].get(metric) if direction == "higher" else val < best[key].get(metric)
        ):
            best[key] = row
    return best


CHECKS = [
    {
        "name": "fig8 insert throughput",
        "baseline": "bench/baselines/BENCH_fig8.json",
        "current": "BENCH_fig8.json",
        "keys": ("bench", "mode", "variant", "threads", "record_bytes"),
        "metric": "mb_per_s",
        # "higher" is better: fail on a drop beyond the threshold.
        "direction": "higher",
        # Every variant, both modes: no insert-path wait sleeps any more, so
        # no row is "scheduler noise" that has to be hidden from the gate.
        "pct": float(os.environ.get("PERF_MAX_TPUT_DROP_PCT", "25")),
    },
    {
        "name": "commit p99 latency",
        "baseline": "bench/baselines/BENCH_latency.json",
        "current": "BENCH_latency.json",
        "keys": ("bench", "policy"),
        "metric": "p99_us",
        # "lower" is better: fail on growth beyond the threshold.
        "direction": "lower",
        "pct": float(os.environ.get("PERF_MAX_P99_GROWTH_PCT", "50")),
        # Async isolates the local commit path, where a code regression
        # shows; SemiSync/Quorum p99 is dominated by simulated-link
        # scheduling jitter on shared runners. Widen via the env knob when
        # hunting a replication-path regression locally.
        "row_filter": lambda r: r["policy"]
        in os.environ.get("PERF_LATENCY_POLICIES", "async").split(","),
    },
]


def main():
    compared = 0
    failures = []
    for check in CHECKS:
        metric, pct = check["metric"], check["pct"]
        base = index(load(check["baseline"]), check["keys"], metric, check["direction"])
        cur = index(load(check["current"]), check["keys"], metric, check["direction"])
        for key, brow in sorted(base.items(), key=str):
            label = ", ".join(f"{k}={v}" for k, v in key if v is not None)
            if not check.get("row_filter", lambda r: True)(brow):
                continue
            if key not in cur:
                print(f"warning: {check['name']}: no current row for [{label}]")
                continue
            bval, cval = brow.get(metric), cur[key].get(metric)
            if not bval or bval <= 0 or cval is None:
                print(f"warning: {check['name']}: unusable values for [{label}]")
                continue
            compared += 1
            if check["direction"] == "higher":
                delta = (bval - cval) / bval * 100.0
                desc = f"{metric} {bval:.1f} -> {cval:.1f} ({delta:+.1f}% drop, limit {pct:.0f}%)"
            else:
                delta = (cval - bval) / bval * 100.0
                desc = f"{metric} {bval:.1f} -> {cval:.1f} ({delta:+.1f}% growth, limit {pct:.0f}%)"
            if delta > pct:
                failures.append(f"{check['name']} [{label}]: {desc}")
                print(f"::error::perf-compare: {check['name']} [{label}]: {desc}")
            else:
                print(f"ok: {check['name']} [{label}]: {desc}")
    if compared == 0:
        print("::error::perf-compare: no baseline key matched the current run — gate is broken")
        sys.exit(1)
    if failures:
        print(
            f"::error::perf-compare: {len(failures)} regression(s). If this perf profile "
            "change is intended, refresh bench/baselines/ in this commit or add "
            "[skip-perf-gate] to the commit message (see README.md)."
        )
        sys.exit(1)
    print(f"perf-compare: {compared} configurations within thresholds")


if __name__ == "__main__":
    main()
