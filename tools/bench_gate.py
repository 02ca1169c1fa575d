#!/usr/bin/env python3
"""CI perf regression gate: compare fresh BENCH_*.json against committed
baselines (bench/baselines/*.json) with generous thresholds.

The benches emit two JSON shapes (see bench/bench_json.h):
  * BenchReport: {"bench": "...", <root fields>, "rows": [{...}, ...]}
  * Google Benchmark: {"benchmarks": [{"name": ..., "real_time": ...,
    <counters>}, ...]}

What is gated:
  * table1 cells (matched by purpose+n): a cell that completed in the
    baseline must still complete, verdicts must match, the
    deterministic shape counters (keys, reach_zones, winning_zones,
    edges, rounds) may drift at most COUNT_RATIO, and wall time at most
    TIME_RATIO; the 1-vs-N speedup blob must keep verdicts_equal and
    stay above SPEEDUP_FLOOR.
  * speedup_vs_walk (bench_test_execution counters, bench_fig5_strategy
    root): may shrink at most SPEEDUP_RATIO.
  * gbench real_time per benchmark: at most TIME_RATIO.

Thresholds (environment overrides):
  BENCH_GATE_TIME_RATIO     default 1.5   (CI sets it looser: runner
                                           machines vary)
  BENCH_GATE_COUNT_RATIO    default 1.3
  BENCH_GATE_SPEEDUP_RATIO  default 1.3
  BENCH_GATE_SPEEDUP_FLOOR  default 0.8   (1-vs-N must not go below)

Re-blessing after an intentional change:
  python3 tools/bench_gate.py --current build/bench-json --bless
copies the fresh JSON over bench/baselines/ (commit the result), or
download a Release leg's bench-json artifact and copy it manually.

Exit code 0 = all gates passed (or only warnings), 1 = regression.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

TIME_RATIO = float(os.environ.get("BENCH_GATE_TIME_RATIO", "1.5"))
COUNT_RATIO = float(os.environ.get("BENCH_GATE_COUNT_RATIO", "1.3"))
SPEEDUP_RATIO = float(os.environ.get("BENCH_GATE_SPEEDUP_RATIO", "1.3"))
SPEEDUP_FLOOR = float(os.environ.get("BENCH_GATE_SPEEDUP_FLOOR", "0.8"))

TABLE1_COUNTERS = ["keys", "reach_zones", "winning_zones", "edges", "rounds"]

failures = []
warnings = []
checks = []  # (name, baseline, current, verdict)


def check(name, ok, detail, warn_only=False):
    checks.append((name, detail, "ok" if ok else ("warn" if warn_only else "FAIL")))
    if not ok:
        (warnings if warn_only else failures).append(f"{name}: {detail}")


def info(name, detail):
    # Carried into the summary table but never gated (machine-dependent
    # figures like peak RSS).
    checks.append((name, detail, "info"))


def info_peak_rss(name, base, cur):
    b, c = base.get("peak_rss_mb"), cur.get("peak_rss_mb")
    if c is None:
        return
    detail = (f"baseline {b:.1f} MB -> current {c:.1f} MB"
              if isinstance(b, (int, float)) else f"current {c:.1f} MB")
    info(f"{name} peak_rss_mb", detail)


def describe_host(doc):
    host = doc.get("host")
    if not isinstance(host, dict):
        return "unrecorded"
    return (f"{host.get('cpus')} cpus, {host.get('compiler')}, "
            f"{host.get('build_type')}")


def info_host(name, base, cur):
    # Ratios against a baseline from another host class or build type
    # mean less; show both so a reader can tell.
    info(f"{name} host",
         f"baseline {describe_host(base)} -> current {describe_host(cur)}")


def ratio_check(name, base, cur, max_ratio, warn_only=False):
    if base is None or cur is None:
        return
    if base <= 0:
        return
    r = cur / base
    check(name, r <= max_ratio,
          f"baseline {base:g} -> current {cur:g} ({r:.2f}x, limit {max_ratio:g}x)",
          warn_only)


def gate_table1(base, cur):
    def cells(doc):
        return {(row.get("purpose"), row.get("n")): row
                for row in doc.get("rows", [])}

    bcells, ccells = cells(base), cells(cur)
    for key, brow in sorted(bcells.items(), key=str):
        label = f"table1[{key[0]} n={key[1]}]"
        crow = ccells.get(key)
        if crow is None:
            # The current run may legitimately scan fewer columns
            # (e.g. TIGAT_TABLE1_MAX_N); warn, don't fail.
            check(label, False, "cell missing from current run", warn_only=True)
            continue
        if brow.get("completed"):
            check(f"{label} completed", bool(crow.get("completed")),
                  "was in budget at baseline, now out of budget")
            if not crow.get("completed"):
                continue
            check(f"{label} winning", brow.get("winning") == crow.get("winning"),
                  f"verdict flipped: {brow.get('winning')} -> {crow.get('winning')}")
            for counter in TABLE1_COUNTERS:
                ratio_check(f"{label} {counter}", brow.get(counter),
                            crow.get(counter), COUNT_RATIO)
            ratio_check(f"{label} seconds", brow.get("seconds"),
                        crow.get("seconds"), TIME_RATIO)

    bs, cs = base.get("speedup"), cur.get("speedup")
    if isinstance(bs, dict) and isinstance(cs, dict):
        check("table1 speedup verdicts_equal", cs.get("verdicts_equal") is True,
              "1-thread and N-thread verdicts diverged")
        if cs.get("speedup") is not None:
            check("table1 speedup floor", cs["speedup"] >= SPEEDUP_FLOOR,
                  f"1-vs-N speedup {cs['speedup']:.2f} below floor "
                  f"{SPEEDUP_FLOOR:g} (serial merge regression?)")


def gate_gbench(name, base, cur):
    def bench_map(doc):
        out = {}
        for b in doc.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue
            out[b.get("name")] = b
        return out

    bmap, cmap = bench_map(base), bench_map(cur)
    for bname, bb in sorted(bmap.items(), key=str):
        cb = cmap.get(bname)
        label = f"{name}[{bname}]"
        if cb is None:
            check(label, False, "benchmark disappeared", warn_only=True)
            continue
        ratio_check(f"{label} real_time", bb.get("real_time"),
                    cb.get("real_time"), TIME_RATIO)
        if "speedup_vs_walk" in bb and "speedup_vs_walk" in cb:
            sb, sc = bb["speedup_vs_walk"], cb["speedup_vs_walk"]
            if sb > 0:
                check(f"{label} speedup_vs_walk", sc >= sb / SPEEDUP_RATIO,
                      f"baseline {sb:.2f} -> current {sc:.2f} "
                      f"(limit /{SPEEDUP_RATIO:g})")


def gate_serve(base, cur):
    # bench_serve: the serving-path numbers.  Throughput may shrink at
    # most SPEEDUP_RATIO and must stay above an absolute floor (the
    # v3 redesign's acceptance number); cold start may grow at most
    # TIME_RATIO.  p99 latency is warn-only: shared runners make tail
    # latency too noisy to hard-gate.
    ratio_check("serve cold_start_ms", base.get("cold_start_ms"),
                cur.get("cold_start_ms"), TIME_RATIO)
    for field in ("decide_per_s", "socket_decide_per_s"):
        b, c = base.get(field), cur.get(field)
        if b and c and b > 0:
            check(f"serve {field}", c >= b / SPEEDUP_RATIO,
                  f"baseline {b:.0f}/s -> current {c:.0f}/s "
                  f"(limit /{SPEEDUP_RATIO:g})")
    floor = float(os.environ.get("BENCH_GATE_SERVE_DECIDE_FLOOR", "1e6"))
    c = cur.get("decide_per_s")
    if c is not None:
        check("serve decide_per_s floor", c >= floor,
              f"{c:.0f}/s below the {floor:.0f}/s floor")
    ratio_check("serve decide_p99_ns", base.get("decide_p99_ns"),
                cur.get("decide_p99_ns"), TIME_RATIO, warn_only=True)


def gate_report(name, base, cur):
    # Generic BenchReport: gate any root speedup_vs_walk; everything
    # else is informational.
    if "speedup_vs_walk" in base and "speedup_vs_walk" in cur:
        sb, sc = base["speedup_vs_walk"], cur["speedup_vs_walk"]
        if sb > 0:
            check(f"{name} speedup_vs_walk", sc >= sb / SPEEDUP_RATIO,
                  f"baseline {sb:.2f} -> current {sc:.2f} "
                  f"(limit /{SPEEDUP_RATIO:g})")


def gate_file(path_base, path_cur):
    base = json.loads(path_base.read_text())
    cur = json.loads(path_cur.read_text())
    name = path_base.name
    if base.get("bench") == "table1":
        gate_table1(base, cur)
    elif base.get("bench") == "serve":
        gate_serve(base, cur)
    elif "benchmarks" in base:
        gate_gbench(name, base, cur)
    else:
        gate_report(name, base, cur)
    info_peak_rss(name, base, cur)
    info_host(name, base, cur)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default="bench/baselines",
                    help="directory with committed BENCH_*.json baselines")
    ap.add_argument("--current", default="build/bench-json",
                    help="directory with freshly produced BENCH_*.json")
    ap.add_argument("--summary", default=None,
                    help="write a markdown comparison summary here")
    ap.add_argument("--bless", action="store_true",
                    help="copy current JSON over the baselines instead of "
                         "gating (then commit bench/baselines/)")
    args = ap.parse_args()

    baseline_dir, current_dir = Path(args.baseline), Path(args.current)
    if args.bless:
        baseline_dir.mkdir(parents=True, exist_ok=True)
        blessed = 0
        for cur in sorted(current_dir.glob("BENCH_*.json")):
            shutil.copy(cur, baseline_dir / cur.name)
            print(f"blessed {baseline_dir / cur.name}")
            blessed += 1
        if blessed == 0:
            print(f"no BENCH_*.json under {current_dir}", file=sys.stderr)
            return 1
        return 0

    if not baseline_dir.is_dir():
        print(f"no baseline directory {baseline_dir}; nothing to gate "
              f"(bless one with --bless)", file=sys.stderr)
        return 0

    for base_path in sorted(baseline_dir.glob("BENCH_*.json")):
        cur_path = current_dir / base_path.name
        if not cur_path.exists():
            check(base_path.name, False,
                  "baseline exists but the current run produced no such file")
            continue
        try:
            gate_file(base_path, cur_path)
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            check(base_path.name, False, f"unreadable bench JSON: {e}")

    lines = [
        "# bench gate",
        "",
        f"thresholds: time {TIME_RATIO:g}x · counters {COUNT_RATIO:g}x · "
        f"speedup_vs_walk /{SPEEDUP_RATIO:g} · 1-vs-N floor {SPEEDUP_FLOOR:g}",
        "",
        "| check | detail | verdict |",
        "|---|---|---|",
    ]
    for name, detail, verdict in checks:
        icon = {"ok": "✅", "warn": "⚠️", "FAIL": "❌", "info": "ℹ️"}[verdict]
        lines.append(f"| {name} | {detail} | {icon} {verdict} |")
    lines.append("")
    lines.append(f"**{len(failures)} regression(s), {len(warnings)} "
                 f"warning(s), {len(checks)} check(s).**")
    if failures:
        lines.append("")
        lines.append("Intentional change? Re-bless with "
                     "`python3 tools/bench_gate.py --current <dir> --bless` "
                     "and commit `bench/baselines/`.")
    summary = "\n".join(lines) + "\n"
    print(summary)
    if args.summary:
        Path(args.summary).write_text(summary)

    if failures:
        print("bench gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
