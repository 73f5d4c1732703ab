#!/usr/bin/env python3
"""Validate xmlsort's Chrome Trace Event export.

Generates a document large enough that a parallel (--threads 2) cached run
spills runs and partitions its buffer sorts across the worker threads,
sorts it with --chrome-trace + --timeline-out + --stats-json, checks that
the stats report parallel_sorts > 0, and asserts the trace is well-formed
Trace Event JSON:

  - the file is one JSON array that json.load accepts;
  - every event has a known phase; every "B" has a matching "E" on the
    same (pid, tid) lane (the exporter emits complete "X" events, so this
    doubles as a guard against a future half-open regression);
  - timestamps are non-negative, durations non-negative, and per-lane
    timestamps non-decreasing;
  - the session process has >= 2 thread lanes carrying spans (foreground
    plus at least one worker), each named by "M" metadata;
  - there is >= 1 counter track (ph "C") with numeric series.

The companion timeline stream is validated with the same record-by-record
checker the telemetry schema gate uses. Wired into ctest as
`chrome_trace_check`.

Usage:
  check_chrome_trace.py --xmlsort BIN [--keep DIR]
"""

import argparse
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_telemetry_schema as schema

check = schema.check
FAILURES = schema.FAILURES

KNOWN_PHASES = {"M", "X", "C", "i", "B", "E"}


def make_input(path, elements=20000):
    """A flat document of shuffled numeric ids: big enough (over a MB) that
    small blocks + a small budget force external sorting, with buffers
    large enough that each spill's sort is partitioned across the worker
    threads."""
    ids = list(range(elements))
    random.seed(7)
    random.shuffle(ids)
    with path.open("w") as out:
        out.write("<employees>\n")
        for n in ids:
            out.write(f'  <employee id="{n}"><name>n{n:06d}</name>'
                      f"<dept>d{n % 17}</dept></employee>\n")
        out.write("</employees>\n")


def check_chrome_trace(path):
    try:
        events = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        check(False, f"chrome trace: cannot parse {path}: {err}")
        return
    check(isinstance(events, list), "chrome trace: top level is not a list")
    if not isinstance(events, list):
        return
    check(len(events) > 0, "chrome trace: no events")

    lane_last_ts = {}
    open_b = {}  # (pid, tid) -> stack of "B" names
    process_names = {}  # pid -> name
    thread_names = {}  # (pid, tid) -> name
    span_lanes = {}  # pid -> set of tids that carried "X"/"B" events
    counter_pids = set()

    for i, event in enumerate(events):
        where = f"chrome trace event {i}"
        check(isinstance(event, dict), f"{where}: not an object")
        if not isinstance(event, dict):
            continue
        ph = event.get("ph")
        check(ph in KNOWN_PHASES, f"{where}: unknown phase {ph!r}")
        for key in ("pid", "tid"):
            check(isinstance(event.get(key), int), f"{where}: missing {key}")
        pid, tid = event.get("pid"), event.get("tid")
        name = event.get("name")

        if ph == "M":
            args = event.get("args", {})
            if name == "process_name":
                process_names[pid] = args.get("name")
            elif name == "thread_name":
                thread_names[(pid, tid)] = args.get("name")
            continue

        ts = event.get("ts")
        check(isinstance(ts, (int, float)) and ts >= 0,
              f"{where}: ts is not a non-negative number")
        if isinstance(ts, (int, float)):
            lane = (pid, tid)
            check(ts >= lane_last_ts.get(lane, 0.0),
                  f"{where}: ts went backwards on lane pid={pid} tid={tid}")
            lane_last_ts[lane] = ts

        if ph == "X":
            check(isinstance(event.get("dur"), (int, float))
                  and event.get("dur", -1) >= 0,
                  f"{where}: complete event with bad dur")
            span_lanes.setdefault(pid, set()).add(tid)
        elif ph == "B":
            open_b.setdefault((pid, tid), []).append(name)
            span_lanes.setdefault(pid, set()).add(tid)
        elif ph == "E":
            stack = open_b.get((pid, tid), [])
            check(bool(stack),
                  f"{where}: 'E' with no open 'B' on pid={pid} tid={tid}")
            if stack:
                stack.pop()
        elif ph == "C":
            args = event.get("args", {})
            check(isinstance(args, dict) and args,
                  f"{where}: counter event without series values")
            for series, value in (args or {}).items():
                check(isinstance(value, (int, float)),
                      f"{where}: counter '{series}' is not numeric")
            counter_pids.add(pid)

    for (pid, tid), stack in open_b.items():
        check(not stack,
              f"chrome trace: {len(stack)} unclosed 'B' event(s) on "
              f"pid={pid} tid={tid}: {stack}")

    # Lanes: at least one process must carry spans on >= 2 threads
    # (foreground + a worker), every span lane must be named, and at
    # least one counter track must exist.
    multi_lane = {pid: tids for pid, tids in span_lanes.items()
                  if len(tids) >= 2}
    check(bool(multi_lane),
          f"chrome trace: no process has >= 2 thread lanes with spans "
          f"(got {({p: sorted(t) for p, t in span_lanes.items()})})")
    for pid, tids in span_lanes.items():
        check(pid in process_names, f"chrome trace: pid {pid} unnamed")
        for tid in tids:
            check((pid, tid) in thread_names,
                  f"chrome trace: lane pid={pid} tid={tid} unnamed")
    check(bool(counter_pids), "chrome trace: no counter track (ph 'C')")
    counter_lanes = counter_pids - set(span_lanes)
    check(bool(counter_lanes),
          "chrome trace: counter events share a pid with span lanes "
          "(each counter track should be its own process)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--xmlsort", required=True,
                        help="path to the xmlsort binary")
    parser.add_argument("--keep", default=None,
                        help="write artifacts into this directory and keep "
                             "them (default: a temp dir)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(args.keep) if args.keep else Path(tmp)
        workdir.mkdir(parents=True, exist_ok=True)

        input_path = workdir / "input.xml"
        make_input(input_path)
        output_path = workdir / "sorted.xml"
        trace_path = workdir / "chrome-trace.json"
        timeline_path = workdir / "timeline.jsonl"
        stats_path = workdir / "stats.json"
        sample_interval_ms = 2

        # Small blocks plus a pinned 128-block sort allowance force the big
        # flat element list through external merge sort in buffers of
        # thousands of records; --threads 2 partitions each buffer's sort
        # across the workers, which is what puts spans on worker lanes.
        command = [
            args.xmlsort, "--numeric",
            "--block-kb", "4", "--memory-mb", "1",
            "--sort-memory-blocks", "128",
            "--cache-blocks", "32", "--threads", "2",
            "--sample-interval-ms", str(sample_interval_ms),
            "--chrome-trace", str(trace_path),
            "--timeline-out", str(timeline_path),
            f"--stats-json={stats_path}",
            "--check",
            str(input_path), str(output_path),
        ]
        result = subprocess.run(command, capture_output=True, text=True)
        if result.returncode != 0:
            print(f"FAIL: xmlsort exited {result.returncode}",
                  file=sys.stderr)
            sys.stderr.write(result.stderr)
            return 1

        check_chrome_trace(trace_path)
        schema.check_timeline(timeline_path, sample_interval_ms)
        try:
            stats = json.loads(stats_path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            check(False, f"cannot parse {stats_path}: {err}")
        else:
            schema.check_parallel_metrics(stats.get("telemetry", {}),
                                          expect_parallel_sorts=True)

    if FAILURES:
        for failure in FAILURES:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("chrome trace OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
