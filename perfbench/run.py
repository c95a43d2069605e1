#!/usr/bin/env python3
"""Build and run the two-clock benchmark.

    python3 perfbench/run.py --workload kv|extend|smp_flows --seed N \
        --seconds S --trace 0|1

Run from the root of a source tree. It builds perfbench/pbench.exe with
dune (the first build compiles the whole system), runs one workload,
and passes the program's output through. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; it is printed only when the run succeeded and the object is
well formed. Any failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv", "extend", "smp_flows")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    dune = shutil.which("dune")
    if dune is None and os.environ.get("OPAM_SWITCH_PREFIX"):
        candidate = os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin", "dune")
        if os.access(candidate, os.X_OK):
            dune = candidate
    if dune is None:
        fail("dune not found on PATH")
    return dune


def build():
    # the shared dune cache lives outside the tree; keep every build
    # product inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [find_dune(), "build", "--root", ROOT, "--display", "quiet",
           "./perfbench/pbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed")
    return os.path.join(ROOT, "_build", "default", "perfbench", "pbench.exe")


def check_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        fail("last line is not a JSON result")
    if not isinstance(res, dict) or sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has the wrong keys")
    if res["correct"] is not True or res["attempted"] < 1 or res["failed"] < 0:
        fail("result reports an incorrect run")
    for name, m in res["metrics"].items():
        if sorted(m) != ["unit", "value"] or not isinstance(m["value"], (int, float)):
            fail("metric %s is malformed" % name)


def main():
    ap = argparse.ArgumentParser(description="Run one workload of the two-clock benchmark.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    ap.add_argument("--metric", action="append", default=[],
                    help="print only this metric (repeatable)")
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (known: %s)" % (args.workload, ", ".join(WORKLOADS)), 2)
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    for name in args.metric:
        cmd += ["--metric", name]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s run timed out" % args.workload)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("%s run exited with code %d" % (args.workload, r.returncode))
    check_result(lines[-1])
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
