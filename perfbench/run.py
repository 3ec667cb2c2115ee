#!/usr/bin/env python3
"""Builds and runs the Coconut end-to-end benchmark.

    python3 perfbench/run.py --workload <bulk_build|store_query|ingest_query>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a checkout of the repository. The first call
configures perfbench/ in Release mode under .bench_build/cmake (it pulls in
the repository's CMakeLists.txt for the library target) and builds only the
perfbench target; later calls rebuild incrementally. Scratch data lives
under .bench_build/ and is removed after each run. Span files from traced
runs (.bench_build/state/spans-*.json) and the work-counter files used to
detect drift between runs are kept there.

The last line of standard output is the benchmark binary's JSON result. The
script exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "cmake"
STATE_DIR = BUILD_ROOT / "state"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
         "--target", "perfbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    binary = BUILD_DIR / "perfbench"
    return binary if binary.is_file() else None


def source_id():
    """Digest of the library and benchmark sources: keys the stored
    work-counter digests, so runs of different code are never compared."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["bulk_build", "store_query", "ingest_query"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    started = time.monotonic()
    binary = build()
    if binary is None:
        return 1
    log(f"build ready in {time.monotonic() - started:.1f} s")

    STATE_DIR.mkdir(parents=True, exist_ok=True)
    work_dir = BUILD_ROOT / f"run-{os.getpid()}"
    cmd = [str(binary),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", str(work_dir),
           "--state-dir", str(STATE_DIR),
           "--source-id", source_id(),
           "--git-commit", git_commit()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        log(f"benchmark exited with code {done.returncode}")
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
