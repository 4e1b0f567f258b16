#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload lubm|durable \
        --seed N --seconds S --trace 0|1 [--spans FILE]

Builds perfbench/perfbench.exe from the checkout's sources with dune
(release profile, build directory .bench_build, dune cache off), runs it
with the same arguments, and prints its JSON result as the last line of
standard output. With --spans, a traced run also writes its spans to
FILE as JSON lines. Exits non-zero without a result line when the build,
the run or the result fails.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, env):
    """Run cmd to completion (killing it on timeout); return (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["lubm", "durable"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spans")
    args = ap.parse_args()

    # dune from PATH, else from an opam switch that is not activated.
    dune = shutil.which("dune") or next(
        iter(sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))), None)
    if dune is None:
        fail("dune not found")
    # The compilers and ocamlfind sit beside dune in its switch.
    env = dict(os.environ, DUNE_CACHE="disabled",
               PATH=os.path.dirname(dune) + os.pathsep + os.environ.get("PATH", ""))
    code, out = run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--display", "quiet", TARGET],
        BUILD_TIMEOUT_S, env)
    sys.stderr.write(out)
    if code != 0:
        fail(f"build failed (exit {code})")

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.spans:
        cmd += ["--spans", args.spans]
    code, out = run(cmd, args.seconds + 150, env)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(f"benchmark failed (exit {code})")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail(f"malformed result: {lines[-1]}")
    print(lines[-1])


if __name__ == "__main__":
    main()
