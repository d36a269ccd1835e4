#!/usr/bin/env python3
"""Telemetry-overhead smoke: fully-on telemetry may not cost the direct-mode
CD buffer more than 15% at 2 threads, and the off path may not be slower
than the on path by that much either.

Usage: telemetry_overhead.py --off <fig8_threads TSV>... --on <fig8_threads TSV>...

Each file is the stdout of one `fig8_threads` pass with a thread list that
includes 2: `--off` passes ran with AETHER_TELEMETRY=0, `--on` passes with
AETHER_TELEMETRY=1 AETHER_TELEMETRY_SAMPLE=8. The disabled path is one
relaxed load per instrumented site (<2% locally; the alloc/unit tests pin the
mechanism). Shared runners are too noisy for a 2% gate, so the medians are
compared and only a gross gap fails, which would mean the off path stopped
being a cheap early-out.
"""

import argparse
import statistics
import sys

from fig8_holds import rows

MAX_GAP = 0.15


def median_cd(paths):
    values = [mbps for path in paths for variant, mbps in rows(path) if variant == "CD"]
    return statistics.median(values) if values else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--off", nargs="+", required=True)
    ap.add_argument("--on", nargs="+", required=True)
    args = ap.parse_args()
    m_off, m_on = median_cd(args.off), median_cd(args.on)
    if m_off <= 0 or m_on <= 0:
        print("::error::telemetry-overhead: degenerate overhead smoke (no direct-mode CD 2-thread row)")
        return 1
    delta = (m_off - m_on) / m_off * 100
    print(f"fig8 CD/2-thread MB/s: telemetry off={m_off:.1f} on={m_on:.1f} (enabled costs {delta:.1f}%)")
    if m_on < m_off * (1 - MAX_GAP):
        print(f"::error::enabled telemetry costs {delta:.1f}% (>15%): sampling is not cheap anymore")
        return 1
    if m_off < m_on * (1 - MAX_GAP):
        print("::error::telemetry-off run is >15% slower than telemetry-on: the disabled early-out regressed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
