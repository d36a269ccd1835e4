#!/usr/bin/env python3
"""Fig. 8 gate: with two threads racing for the insert lock, consolidation +
decoupled fill (CD) must not lose to the single-mutex baseline (B).

Usage: fig8_holds.py <fig8_threads TSV>...

Each argument is the stdout of one `fig8_threads` pass (telemetry off, thread
list including 2). The medians over the passes of the direct-mode, 2-thread
`mb_per_s` of B and CD are compared; D and CDME are printed beside them.
"""

import statistics
import sys


def rows(path):
    with open(path) as f:
        for line in f:
            cols = line.rstrip("\n").split("\t")
            if len(cols) >= 4 and cols[0] == "direct" and cols[2] == "2":
                yield cols[1], float(cols[3])


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        sys.exit(1)
    samples = {}
    for path in sys.argv[1:]:
        for variant, mbps in rows(path):
            samples.setdefault(variant, []).append(mbps)
    if not samples.get("B") or not samples.get("CD"):
        print("::error::fig8-holds: no direct-mode 2-thread rows for B and CD")
        sys.exit(1)
    median = {v: statistics.median(xs) for v, xs in samples.items()}
    print(
        "direct mode, 2 threads, median MB/s of %d passes: " % len(samples["B"])
        + ", ".join(f"{v} {median[v]:.1f}" for v in ("B", "C", "D", "CD", "CDME") if v in median)
    )
    if median["CD"] < median["B"]:
        print("::error::fig8-holds: direct-mode CD is below B at 2 threads (Fig. 8 inverted)")
        sys.exit(1)
    print(f"fig8-holds: CD/B = {median['CD'] / median['B']:.2f}")


if __name__ == "__main__":
    main()
