#!/usr/bin/env python3
"""Runs one workload of the tigat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (a CMake package compiling this checkout's src/ in
Release) on first use, into $CARGO_TARGET_DIR/perfbench or
.bench_build/perfbench, then runs the benchmark binary from the checkout
root.  Standard output carries a host stamp, the binary's stamp and
progress lines, and as its last line the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metric names and units are checked against BENCHMARK.json: every
end-to-end metric with --trace 0, every per-layer metric with --trace 1.
Exits non-zero without a result line when the sources are missing, the
build fails or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("synth_lep4", "serve_lep4", "campaign_smartlight")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail(f"build timed out, see {log_path}")
            if done.returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed, see {log_path}")
    return build_dir / "tigat_perfbench"


def host_stamp(root):
    """CPU count plus the commit, or a digest of the sources when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")) + sorted(
            (root / "perfbench").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {"nproc": os.cpu_count(), "commit": commit,
            "source_sha256": digest.hexdigest()}


def check_metrics(root, result, trace):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        fail(f"metrics drift from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    models = root / "examples" / "models"
    if not (root / "src" / "game" / "solver.h").is_file() or not (
            models / "lep.tg").is_file():
        fail(f"tigat sources not found under {root}")
    if not (root / "BENCHMARK.json").is_file():
        fail(f"{root / 'BENCHMARK.json'} not found")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = root / build_root
    binary = build(root, build_root / "perfbench")

    # Scratch for .tgs files and the socket; relative to the root so
    # the socket path stays short.
    work = build_root / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        print(json.dumps({"host": host_stamp(root)}), flush=True)
        command = [str(binary), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", args.trace,
                   "--model-dir", os.path.relpath(models, root),
                   "--data-dir", os.path.relpath(root / "perfbench", root),
                   "--work-dir", os.path.relpath(work, root)]
        proc = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE,
                                text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
        lines = out.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(out)
            fail(f"benchmark binary exited with {proc.returncode}")
        result = json.loads(lines[-1])
        check_metrics(root, result, args.trace == "1")
        print("\n".join(lines[:-1]))
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
