#!/usr/bin/env python3
"""Build probcons from source and run one benchmark workload.

Run from the root of a probcons checkout:

    python3 perfbench/run.py --workload analyze-miss --seed 1 --seconds 10 --trace 0

Builds bin/main.exe and perfbench/pbench.exe with dune (profile
"perfbench", build directory .perfbench_build), runs pbench in
its own process group, stamps host provenance, and checks that no
process it started outlives the run. The last line of standard output
is the JSON result pbench printed (marked incorrect if anything
survived). Exits 0 only for a correct run; exits 2 without a result
when the directory is not a buildable checkout.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

WORKLOADS = ("analyze-miss", "serve-zipf", "replicated-rw")
NEEDED = ("dune-project", "bin/main.ml", "bin/dune", "lib", "perfbench/dune", "BENCHMARK.json")
RUN_TIMEOUT_S = 170
BUILD_DIR = ".perfbench_build"


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def source_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # Not a git checkout: identify the sources by content.
    h = hashlib.sha256()
    for top in ("dune-project", "bin", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def fs_type(path):
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", path], capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        fail("not a probcons checkout (missing %s); run from its root" % ", ".join(missing))

    # The shared dune cache lives outside the checkout; build without it.
    # pbench is enabled only in the "perfbench" profile, which gets its
    # own build directory so it never invalidates the default _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "perfbench", "--build-dir", BUILD_DIR,
         "./bin/main.exe", "./perfbench/pbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed", 1)

    os.makedirs(".perfbench_run", exist_ok=True)
    cmd = [
        os.path.join(BUILD_DIR, "default", "perfbench", "pbench.exe"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--bin", os.path.join(BUILD_DIR, "default", "bin", "main.exe"),
        "--fs-type", fs_type(".perfbench_run"),
        "--commit", source_revision(),
        "--nproc", str(len(os.sched_getaffinity(0))),
        "--cpus", ",".join(str(c) for c in sorted(os.sched_getaffinity(0))),
    ]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def forward(signo, _frame):
        try:
            child.send_signal(signo)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGINT, forward)
    signal.signal(signal.SIGTERM, forward)

    # A run that outlives its budget is stopped (pbench cleans up on
    # SIGTERM) and fails without a result.
    watchdog = threading.Timer(RUN_TIMEOUT_S, lambda: forward(signal.SIGTERM, None))
    watchdog.start()
    last = None
    for line in child.stdout:
        if last is not None:
            sys.stdout.write(last)
        last = line
    code = child.wait()
    watchdog.cancel()

    # Everything pbench spawned shares its process group; after pbench
    # has cleaned up, nothing may be left in it.
    survivors = group_alive(child.pid)
    if survivors:
        os.killpg(child.pid, signal.SIGKILL)
        end = time.monotonic() + 5
        while group_alive(child.pid) and time.monotonic() < end:
            time.sleep(0.05)
        print("error  a child process outlived the run", flush=True)

    try:
        result = json.loads(last) if last else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        if last:
            sys.stdout.write(last)
        fail("pbench exited %d without a result" % code, 1)
    if survivors:
        result["correct"] = False
        result["failed"] = max(1, result.get("failed", 0))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
