#!/usr/bin/env python3
"""Build and run the layered benchmark (one workload per call).

    python3 layerbench/run.py --workload kv_read --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
layerbench/ (which compiles the engine from src/) under .bench_build/;
later calls only re-check the build. The benchmark binary prints its
measurements and, as the last line of stdout, the result JSON:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 1 the Chrome trace is checked with tools/trace_view.py --check
(when that tool is present) and kept under .bench_build/layerbench/traces/.
Every run also stores its result and details under
.bench_build/layerbench/results/ for compare.py. Stdlib only.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "layerbench")
BUILD = os.path.join(OUT, "build")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "layerbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("layerbench: build failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def check_trace(path):
    """Returns True when tools/trace_view.py finds no nesting violation."""
    tool = os.path.join(ROOT, "tools", "trace_view.py")
    if not os.path.exists(tool):
        print("layerbench: %s missing; trace not checked" % tool,
              file=sys.stderr)
        return True
    proc = subprocess.run([sys.executable, tool, "--check", path],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        print("layerbench: trace check failed:\n%s" % proc.stderr[-2000:],
              file=sys.stderr)
    return proc.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["kv_read", "kv_write", "resp_mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        return 2
    work = os.path.join(OUT, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(BUILD, "layerbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("layerbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print("layerbench: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return 4
    result = json.loads(lines[-1])
    detail = {}
    for line in lines[:-1]:
        if line.startswith("detail: "):
            detail = json.loads(line[len("detail: "):])
        else:
            print(line)

    if args.trace:
        traces = os.path.join(OUT, "traces")
        os.makedirs(traces, exist_ok=True)
        kept = os.path.join(traces, "%s-seed%d.trace.json" %
                            (args.workload, args.seed))
        shutil.move(os.path.join(work, "trace.json"), kept)
        print("trace: %s" % kept)
        if not check_trace(kept):
            result["correct"] = False
    shutil.rmtree(work, ignore_errors=True)

    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    detail["result"] = result
    with open(os.path.join(results, "%s-seed%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(detail, f, indent=1)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
