#!/usr/bin/env python3
"""Unloaded-commit-floor gate: the best `async` p50 in a BENCH_latency.json
must not exceed 5x the device sync latency the run was configured with.

The flush daemon starts on a commit as soon as it is idle, so an unloaded
pipelined commit costs the device (plus the wakeup chain, plus the residue
of the other client's flush). A group-commit timer back on that path costs
`max_wait` = 1 ms on top, which on the 200 us device CI configures is more
than five syncs; this gate is what notices.
"""

import json
import sys

FACTOR = 5


def main(path):
    with open(path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    rows = [r for r in rows if r.get("bench") == "latency" and r.get("policy") == "async"]
    if not rows:
        print(f"::error::commit-floor: no async latency rows in {path}")
        return 1
    best = min(rows, key=lambda r: r["p50_us"])
    dev_us = best.get("dev_us", 0)
    if dev_us <= 0:
        print("::error::commit-floor: rows carry no dev_us; run bench_latency with AETHER_DEV_US > 0")
        return 1
    limit = FACTOR * dev_us
    verdict = "ok" if best["p50_us"] <= limit else "FAIL"
    print(
        f"commit floor: best async p50 {best['p50_us']:.0f} us of {len(rows)} passes, "
        f"device {dev_us} us, limit {limit} us: {verdict}"
    )
    if verdict != "ok":
        print("::error::an unloaded commit waits for more than the device: is a timer back on the flush path?")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_latency.json"))
