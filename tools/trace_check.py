#!/usr/bin/env python3
"""Validate tigat observability artifacts (src/obs/).

Checks, per artifact kind:
  --trace FILE     Chrome trace-event JSON: well-formed, a process_name
                   metadata event, at least one thread_name metadata
                   event, every B/E pair balanced per tid with matching
                   names, and zero spans dropped to the buffer cap.
  --metrics FILE   metrics snapshot: schema "tigat.metrics" version 1,
                   the solver counters run_model always publishes
                   (solver.keys / reach_zones / edges / rounds) present
                   and positive, every histogram shaped as
                   len(counts) == len(bounds) + 1 with count == the
                   bucket total.
  --progress FILE  heartbeat JSONL (one JSON object per line with the
                   tigat_hb / elapsed_s / phase / rss_mb keys); at
                   least one line.
  --serve FILE     tigat-serve metrics snapshot: same schema/version
                   as --metrics, the serve.* counters present with
                   connections/requests positive and errors zero,
                   decide.latency_ns populated (well-shaped, count > 0,
                   no more samples than requests) and tgs.view.opens
                   exactly 1 (cold start really was one mmap).

Any subset of the flags may be given; CI runs the first three against
a `run_model --trace-out --metrics-out --progress` solve and --serve
against a tigat-serve --metrics-out shutdown snapshot.

Exit code 0 = every requested artifact validated, 1 = any failure.
"""

import argparse
import json
import sys
from pathlib import Path

failures = []


def check(name, ok, detail=""):
    if ok:
        print(f"  ok: {name}")
    else:
        failures.append(f"{name}: {detail}")
        print(f"  FAIL: {name}: {detail}")


def check_trace(path):
    print(f"trace {path}")
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        check("trace parses as JSON", False, str(e))
        return
    events = doc.get("traceEvents")
    check("traceEvents array present", isinstance(events, list))
    if not isinstance(events, list):
        return

    dropped = doc.get("otherData", {}).get("dropped_spans")
    check("no spans dropped to the buffer cap", dropped == 0,
          f"dropped_spans = {dropped}")

    saw_process_name = False
    thread_names = {}
    stacks = {}
    durations = 0
    for i, e in enumerate(events):
        ph, name, tid = e.get("ph"), e.get("name"), e.get("tid")
        if ph == "M":
            if name == "process_name":
                saw_process_name = True
            elif name == "thread_name":
                thread_names[tid] = e.get("args", {}).get("name", "")
            continue
        if ph not in ("B", "E"):
            check(f"event {i} has a known phase", False, f"ph = {ph!r}")
            continue
        durations += 1
        stack = stacks.setdefault(tid, [])
        if ph == "B":
            stack.append(name)
        elif not stack:
            check(f"event {i} (tid {tid})", False, "E without a matching B")
        elif stack[-1] != name:
            check(f"event {i} (tid {tid})", False,
                  f"E '{name}' closes B '{stack[-1]}'")
        else:
            stack.pop()

    check("process_name metadata present", saw_process_name)
    check("thread_name metadata present", bool(thread_names))
    check("duration events present", durations > 0)
    unbalanced = {tid: s for tid, s in stacks.items() if s}
    check("B/E balanced on every thread", not unbalanced,
          f"open spans: {unbalanced}")


REQUIRED_COUNTERS = ["solver.keys", "solver.reach_zones", "solver.edges",
                     "solver.rounds"]


def check_metrics(path):
    print(f"metrics {path}")
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        check("metrics parse as JSON", False, str(e))
        return
    check("schema is tigat.metrics", doc.get("schema") == "tigat.metrics",
          f"schema = {doc.get('schema')!r}")
    check("version is 1", doc.get("version") == 1,
          f"version = {doc.get('version')!r}")
    counters = doc.get("counters", {})
    for name in REQUIRED_COUNTERS:
        value = counters.get(name)
        check(f"counter {name} present and positive",
              isinstance(value, int) and value > 0, f"value = {value!r}")
    for name, h in doc.get("histograms", {}).items():
        bounds, counts = h.get("bounds"), h.get("counts")
        shaped = (isinstance(bounds, list) and isinstance(counts, list)
                  and len(counts) == len(bounds) + 1
                  and bounds == sorted(bounds))
        check(f"histogram {name} shape", shaped,
              f"bounds×{len(bounds or [])} counts×{len(counts or [])}")
        if shaped:
            check(f"histogram {name} count consistent",
                  h.get("count") == sum(counts),
                  f"count = {h.get('count')} vs sum = {sum(counts)}")


def check_serve(path):
    print(f"serve metrics {path}")
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        check("serve metrics parse as JSON", False, str(e))
        return
    check("schema is tigat.metrics", doc.get("schema") == "tigat.metrics",
          f"schema = {doc.get('schema')!r}")
    check("version is 1", doc.get("version") == 1,
          f"version = {doc.get('version')!r}")
    counters = doc.get("counters", {})

    connections = counters.get("serve.connections")
    requests = counters.get("serve.requests")
    check("counter serve.connections positive",
          isinstance(connections, int) and connections > 0,
          f"value = {connections!r}")
    check("counter serve.requests positive",
          isinstance(requests, int) and requests > 0,
          f"value = {requests!r}")
    check("counter serve.errors is zero", counters.get("serve.errors") == 0,
          f"value = {counters.get('serve.errors')!r}")

    # The v3 acceptance number: a daemon's cold start is ONE mmap.
    check("tgs.view.opens is exactly 1", counters.get("tgs.view.opens") == 1,
          f"value = {counters.get('tgs.view.opens')!r}")

    h = doc.get("histograms", {}).get("decide.latency_ns")
    check("decide.latency_ns histogram present", isinstance(h, dict))
    if not isinstance(h, dict):
        return
    bounds, counts = h.get("bounds"), h.get("counts")
    shaped = (isinstance(bounds, list) and isinstance(counts, list)
              and len(counts) == len(bounds) + 1
              and bounds == sorted(bounds))
    check("decide.latency_ns shape", shaped,
          f"bounds×{len(bounds or [])} counts×{len(counts or [])}")
    if shaped:
        total = sum(counts)
        check("decide.latency_ns count consistent", h.get("count") == total,
              f"count = {h.get('count')} vs sum = {total}")
        check("decide.latency_ns populated", total > 0, "zero samples")
        if isinstance(requests, int):
            # Every sample is a decide request; pings/info add requests
            # but no samples.
            check("decide samples <= serve.requests", total <= requests,
                  f"{total} samples vs {requests} requests")


def check_progress(path):
    print(f"progress {path}")
    try:
        lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    except OSError as e:
        check("progress file readable", False, str(e))
        return
    check("at least one heartbeat line", bool(lines))
    for i, line in enumerate(lines):
        try:
            hb = json.loads(line)
        except json.JSONDecodeError as e:
            check(f"line {i + 1} parses as JSON", False, str(e))
            continue
        missing = [k for k in ("tigat_hb", "elapsed_s", "phase", "rss_mb")
                   if k not in hb]
        check(f"line {i + 1} has the heartbeat keys", not missing,
              f"missing {missing}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", help="Chrome trace-event JSON to validate")
    ap.add_argument("--metrics", help="metrics snapshot JSON to validate")
    ap.add_argument("--progress", help="heartbeat JSONL to validate")
    ap.add_argument("--serve", help="tigat-serve metrics snapshot to validate")
    args = ap.parse_args()
    if not (args.trace or args.metrics or args.progress or args.serve):
        ap.error("give at least one of --trace / --metrics / --progress "
                 "/ --serve")

    if args.trace:
        check_trace(args.trace)
    if args.metrics:
        check_metrics(args.metrics)
    if args.progress:
        check_progress(args.progress)
    if args.serve:
        check_serve(args.serve)

    if failures:
        print(f"\n{len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("\nall artifacts valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
