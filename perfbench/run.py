#!/usr/bin/env python3
"""The repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds `exp` (the repo's
`release-lto` profile) and the measuring harness under
`perfbench/harness` (its own workspace) into `$CARGO_TARGET_DIR`
(default `.bench_build`), prints one line recording the host, then runs
the harness, whose last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
ones. Scratch files go under `.bench_work/` and are removed afterwards.
Workloads, metrics and their meaning: perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

WORKLOADS = ("core-default", "it-assoc", "figures", "service")

# A measured run must end within this many seconds of the harness start.
HARNESS_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cargo(args, target):
    """Builds quietly; cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(["cargo", *args], env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail(f"build failed: cargo {' '.join(args)}")


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        return out.strip().splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        return "unknown"


def host_identity():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "rustc": first_line(["rustc", "-V"]),
        "profile": "exp: release-lto; harness: release, fat LTO, 1 codegen unit",
    }


def main():
    p = argparse.ArgumentParser(description="The repo benchmark (see perfbench/README.md).")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    for needed in ("Cargo.toml", "crates", "specs", "perfbench/harness/Cargo.toml"):
        if not os.path.exists(needed):
            fail(f"run from the root of a full checkout: `{needed}` is missing")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cargo(["build", "-q", "--offline", "--profile", "release-lto", "-p", "rix-bench", "--bin", "exp"], target)
    cargo(["build", "-q", "--offline", "--release", "--manifest-path", "perfbench/harness/Cargo.toml"], target)
    exp = os.path.join(target, "release-lto", "exp")
    harness = os.path.join(target, "release", "perfbench")

    work = os.path.join(".bench_work", f"{a.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    print(json.dumps({"record": "perfbench-host/1", "host": host_identity()}), flush=True)
    cmd = [harness, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--exp", exp, "--work", work]
    started = time.monotonic()
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail(f"the harness ran past {HARNESS_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass
    if proc.returncode != 0:
        fail(f"the harness exited with {proc.returncode} after {time.monotonic() - started:.1f} s")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the harness printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the harness result has unexpected keys")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
