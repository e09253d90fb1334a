#!/usr/bin/env python3
"""Run one benchmark workload of the DML checker, its server and its generated code.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the script changes to it anyway).  It builds
the benchmark and dmld from source with dune into _build/, keeps every scratch
file (temp files, sockets, native builds) under
.perfbench_work/, which it removes afterwards, and relays the benchmark's
output: progress on stderr, and as the last line of stdout one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is the
benchmark's: 0 when every operation gave its known answer, 1 otherwise.  In a
directory without the repository's sources it exits non-zero at once.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("check-batch", "serve-edit", "run-kernels")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def stop_group(pgid):
    """SIGKILL whatever is left of the benchmark's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        sys.exit("perfbench: no repository sources here (dune-project, lib/, bin/); nothing to measure")

    work_root = ".perfbench_work"
    work = os.path.join(work_root, "run-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    abs_work = os.path.abspath(work)
    # the OCaml toolchain's temporary files stay inside the checkout too
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=abs_work, TMP=abs_work, TEMP=abs_work)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/dmld.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if build.returncode != 0:
            sys.exit("perfbench: build failed")
        cmd = ["_build/default/perfbench/bench.exe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work", work, "--dmld", "_build/default/bin/dmld.exe"]
        # Every process of a run shares one CPU: each loop is closed, so nothing
        # runs in parallel, and wake-ups across CPUs only add noise.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stop_group(proc.pid)
            proc.wait()
            sys.exit("perfbench: the run took longer than %d s" % RUN_TIMEOUT_S)
        stop_group(proc.pid)
        sys.stdout.write(out)
        sys.stdout.flush()
        return proc.returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
