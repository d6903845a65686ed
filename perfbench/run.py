#!/usr/bin/env python3
"""Builds the Typilus stack from source and runs one benchmark workload.

    python3 perfbench/run.py --workload serve_miss --seed 1 --seconds 24 --trace 0

Run it from the root of a checkout. The first run configures and builds a
Release tree in .bench_build/ (the library, typilus_serve, typilus_lsp and
the benchmark runner); later runs only check that it is up to date. The
runner's record line (provenance and every metric with its sample count)
and, last, its result line go to stdout; build output goes to stderr.
Per-run scratch files, the record and the traced run's spans land in
.bench_build/runs/<workload>-seed<N>-trace<T>/.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("serve_miss", "edit_loop", "train")
# The runner itself needs well under a minute; this only stops a hung run.
RUNNER_TIMEOUT_S = 160
# Source trees whose contents the record's source digest covers.
DIGEST_PATHS = ("CMakeLists.txt", "src", "tools", "perfbench")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(here, build_dir):
    """Configures once, then builds the runner and the programs it runs."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", here, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_runner", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def provenance(root):
    """The git commit when there is one, and a digest of the sources."""
    try:
        commit = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    h = hashlib.sha256()
    for top in DIGEST_PATHS:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return commit, h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(root, ".bench_build")
    if not build(here, build_dir):
        log("error: build failed")
        return 1
    runner = os.path.join(build_dir, "perfbench_runner")
    work = os.path.join(build_dir, "runs",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(work, exist_ok=True)
    commit, digest = provenance(root)

    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--commit", commit, "--source-digest", digest]
    # Its own session, so a hung run can be stopped with everything it
    # spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"error: the runner did not finish within {RUNNER_TIMEOUT_S} s")
        return 1
    if proc.returncode:
        log(f"error: the runner exited with status {proc.returncode}")
        return proc.returncode
    lines = out.decode().strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("error: malformed result line")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
