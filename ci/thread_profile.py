#!/usr/bin/env python3
"""Per-thread-group CPU and context switches of one benchmark run.

Usage: thread_profile.py [--interval 0.25] -- <benchmark command>...

e.g.   thread_profile.py -- benchmark/target/release/aether-benchmark \\
           --workload wire_pipelined_ram --seed 1 --seconds 10 --trace 0

Runs the command (a built benchmark binary, or `cargo run` of one), passes
its output through, and samples /proc/<pid>/task/*/{stat,status} of the
benchmark process every `--interval` seconds. The measured phase is the
lifetime of the load threads (unnamed threads, named like the process): the
ones that live longest. The report covers the middle half of that phase,
between the two samples closest to its quartiles, so set-up, warm-up and
the post-run recovery stay out.

Threads are grouped by name with a trailing `-<n>` folded to `-*`
(`server-conn-*`, `server-write-*`, `aether-flushd`, ...); `load` is the load
threads and `main` the process's first thread. Per group it prints the user
and sys share of a core, voluntary and involuntary context switches a second,
and each of those per op, from the run's `ops_per_s` (its last JSON line).

Report-only: nothing is gated on it.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time

TICK = os.sysconf("SC_CLK_TCK")


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def children():
    """pid -> child pids, for every process."""
    kids = {}
    for entry in os.listdir("/proc"):
        stat = entry.isdigit() and read(f"/proc/{entry}/stat")
        if stat:
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            kids.setdefault(ppid, []).append(int(entry))
    return kids


def leaf(root):
    """The last process down `root`'s first line of descent: the benchmark
    itself whether it was started directly or by `cargo run`."""
    kids = children()
    pid = root
    while kids.get(pid):
        pid = max(kids[pid])
    return pid


def tasks(pid):
    """tid -> (name, user ticks, sys ticks, voluntary, involuntary switches)."""
    out = {}
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        stat, status = read(f"/proc/{pid}/task/{tid}/stat"), read(f"/proc/{pid}/task/{tid}/status")
        if not stat or not status:
            continue
        name = stat[stat.index("(") + 1 : stat.rindex(")")]
        fields = stat.rsplit(")", 1)[1].split()
        cs = dict(re.findall(r"^(\w*ctxt_switches):\s+(\d+)", status, re.M))
        out[int(tid)] = (
            name,
            int(fields[11]),
            int(fields[12]),
            int(cs["voluntary_ctxt_switches"]),
            int(cs["nonvoluntary_ctxt_switches"]),
        )
    return out


def group(pid, tid, name, proc_name):
    if tid == pid:
        return "main"
    if name == proc_name:
        return "load"
    return re.sub(r"-\d+$", "-*", name)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--interval", type=float, default=0.25)
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        ap.error("no benchmark command")

    samples = []  # (time, pid, process name, tasks)
    with tempfile.TemporaryFile("w+") as out:
        child = subprocess.Popen(command, stdout=out)
        while child.poll() is None:
            pid = leaf(child.pid)
            now, snap = time.monotonic(), tasks(pid)
            if snap:
                samples.append((now, pid, (read(f"/proc/{pid}/comm") or "").strip(), snap))
            time.sleep(args.interval)
        out.seek(0)
        text = out.read()
    sys.stdout.write(text)
    if child.returncode != 0:
        print(f"thread profile: the command exited {child.returncode}")
        return child.returncode
    results = [json.loads(line) for line in text.splitlines() if line.startswith("{")]
    if not results or not samples:
        print("thread profile: no benchmark result line, or no sample taken")
        return 1
    ops = results[-1]["metrics"]["ops_per_s"]["value"]

    # The benchmark process is the one alive at the end; its load threads
    # that were seen longest are the measured lanes.
    pid = samples[-1][1]
    samples = [s for s in samples if s[1] == pid]
    seen = {}
    for t, _, proc_name, snap in samples:
        for tid, row in snap.items():
            if group(pid, tid, row[0], proc_name) == "load":
                first, _ = seen.get(tid, (t, t))
                seen[tid] = (first, t)
    if not seen:
        print("thread profile: no load threads seen")
        return 1
    start, end = max(seen.values(), key=lambda span: span[1] - span[0])

    def at(target):
        return min(samples, key=lambda s: abs(s[0] - target))

    (t0, _, _, a), (t1, _, proc_name, b) = at(start + (end - start) / 4), at(end - (end - start) / 4)
    wall = t1 - t0
    if wall <= 0:
        print("thread profile: the run was too short to sample")
        return 1

    groups = {}
    for tid, row in b.items():
        if tid not in a:
            continue
        g = groups.setdefault(group(pid, tid, row[0], proc_name), [0, 0, 0, 0, 0])
        g[0] += 1
        for i in range(1, 5):
            g[i] += row[i] - a[tid][i]
    print(f"\nthread profile: {wall:.2f} s mid-run, {ops:.0f} ops/s")
    print("| threads | n | user core | sys core | vol cs/s | invol cs/s | user us/op | sys us/op | vol cs/op | invol cs/op |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for name, (n, user, sys_, vol, invol) in sorted(groups.items(), key=lambda kv: -(kv[1][1] + kv[1][2])):
        user, sys_ = user / TICK / wall, sys_ / TICK / wall
        vol, invol = vol / wall, invol / wall
        print(
            f"| {name} | {n} | {user:.3f} | {sys_:.3f} | {vol:.0f} | {invol:.0f} | "
            f"{user * 1e6 / ops:.2f} | {sys_ * 1e6 / ops:.2f} | {vol / ops:.3f} | {invol / ops:.3f} |"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
