#!/usr/bin/env python3
"""Reject empty or degenerate perf-smoke output.

Usage: check_outputs.py <file>...

Each file is checked by its name, as the bounded runs in README.md write it:

  fig5_throughput.tsv   header + >=2 rows, a nonzero `tps`
  fig8_threads.tsv      header + >=2 rows, a nonzero `mb_per_s`
  fig15_truncation.tsv  the same on `tps`, and a checkpointed row that recycled segments
  BENCH_fig8.json       >=4 JSON rows from both fig8 bins, a nonzero `mb_per_s`
  telemetry.jsonl       the buffer counters, the insert histogram and a recycled segment
  BENCH_fig16.json      reads at 1 and 2 replicas, monotone, >=1.6x at 2 replicas
"""

import json
import os
import sys


class Degenerate(Exception):
    pass


def require(ok, message):
    if not ok:
        raise Degenerate(message)


def tsv_rows(path):
    with open(path) as f:
        lines = [l.rstrip("\n").split("\t") for l in f if l.strip() and not l.startswith("#")]
    require(len(lines) >= 3, f"expected >=1 header + >=2 data rows, got {len(lines)} non-comment lines")
    return [dict(zip(lines[0], row)) for row in lines[1:]]


def number(row, column):
    try:
        return float(row[column])
    except (KeyError, ValueError):
        return 0.0


def metric_rows(path, column):
    rows = tsv_rows(path)
    require(column in rows[0], f"no column named {column}")
    require(
        any(number(r, column) > 0 for r in rows),
        f"column {column} is zero/NaN in every row — degenerate run",
    )
    return rows


def tsv_metric(column):
    def check(path):
        metric_rows(path, column)

    return check


def fig15(path):
    rows = metric_rows(path, "tps")
    require(
        any(number(r, "ckpt_every") > 0 and number(r, "recycled_segments") > 0 for r in rows),
        "no segments recycled in any checkpointed row",
    )


def json_rows(path):
    require(os.path.getsize(path) > 0, "empty")
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def fig8_json(path):
    rows = json_rows(path)
    require(len(rows) >= 4, f"expected >=4 fig8 JSON rows, got {len(rows)}")
    require({r["bench"] for r in rows} == {"fig8_threads", "fig8_sizes"}, "both fig8 bins must contribute")
    require(any(r["mb_per_s"] and r["mb_per_s"] > 0 for r in rows), "degenerate fig8 run: mb_per_s is 0 everywhere")
    return f"{len(rows)} rows"


def telemetry(path):
    rows = json_rows(path)
    scalars = {r["name"] for r in rows if r["telemetry"] in ("counter", "gauge")}
    for name in ("log.inserts", "truncation.truncations", "truncation.segments_recycled"):
        require(name in scalars, f"missing {name}")
    require(
        any(r["telemetry"] == "hist" and r["name"] == "log.insert_ns" for r in rows),
        "missing log.insert_ns histogram",
    )
    require(
        any(
            r["telemetry"] == "counter" and r["name"] == "truncation.segments_recycled" and r["value"] > 0
            for r in rows
        ),
        "no snapshot saw a recycled segment",
    )
    return f"{len(rows)} rows, {len(scalars)} scalar metrics"


def fig16_json(path):
    by_n = {r["replicas"]: r for r in json_rows(path)}
    require({1, 2} <= set(by_n), f"expected replicas 1 and 2, got {sorted(by_n)}")
    for n, r in sorted(by_n.items()):
        require(r["reads"] > 0, f"degenerate fig16 run: zero reads at {n} replicas")
    rates = [by_n[n]["reads_per_s"] for n in sorted(by_n)]
    require(
        all(a <= b for a, b in zip(rates, rates[1:])),
        f"read throughput must be monotone non-decreasing in replicas: {rates}",
    )
    scale = by_n[2]["reads_per_s"] / by_n[1]["reads_per_s"]
    require(scale >= 1.6, f"2-replica scale-out only {scale:.2f}x (< 1.6x): router is not spreading load")
    return f"{scale:.2f}x read throughput at 2 replicas"


CHECKS = {
    "fig5_throughput.tsv": tsv_metric("tps"),
    "fig8_threads.tsv": tsv_metric("mb_per_s"),
    "fig15_truncation.tsv": fig15,
    "BENCH_fig8.json": fig8_json,
    "telemetry.jsonl": telemetry,
    "BENCH_fig16.json": fig16_json,
}


def main(paths):
    if not paths:
        print(__doc__)
        return 1
    failed = 0
    for path in paths:
        name = os.path.basename(path)
        try:
            require(name in CHECKS, f"no check for a file of this name (known: {', '.join(CHECKS)})")
            require(os.path.exists(path), "missing")
            detail = CHECKS[name](path)
        except Degenerate as e:
            print(f"::error::{path}: {e}")
            failed += 1
        else:
            print(f"{path} sane" + (f": {detail}" if detail else ""))
    if not failed:
        print("perf-smoke output sane")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
