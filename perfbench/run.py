#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, print one result.

    python3 perfbench/run.py --workload nba_discover --seed 1 --seconds 30 --trace 0

Run from the repository root. The perfbench binary is built with CMake into
$CARGO_TARGET_DIR (default .bench_build); runs write scratch files under
.bench_work/ and remove them, except the span dumps of traced runs
(.bench_work/traces/). The last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; a per-layer metric of a layer the workload does
not exercise reads 0. The run's check details, errors and notes go to
standard error on a line starting with "perfbench-detail ". The exit code is
0 only for a correct run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build_binary():
    """Configures once and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no program sources under", os.path.join(ROOT, "src"))
        return None
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    build = ["cmake", "--build", build_dir, "--target", "perfbench",
             "-j", jobs]
    steps = [build]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps = [configure, build]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("build failed")
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-digest",
                        help="hex digest replacing the reference facts "
                             "digest (a planted wrong one must fail the run)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny streams, for the benchmark's own tests")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log("unknown workload", args.workload)
        return 2
    binary = build_binary()
    if binary is None:
        return 1

    work_dir = os.path.join(ROOT, ".bench_work",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.expect_digest:
        cmd += ["--expect-digest", args.expect_digest]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out after", RUN_TIMEOUT_S, "s")
        shutil.rmtree(work_dir, ignore_errors=True)
        return 1
    if args.trace:
        spans = os.path.join(work_dir, "spans.json")
        if os.path.isfile(spans):
            traces = os.path.join(ROOT, ".bench_work", "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(spans, os.path.join(
                traces, "%s-seed%d.spans.json" % (args.workload, args.seed)))
    shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("benchmark exited with", proc.returncode)
        return 1
    raw = json.loads(lines[-1])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = raw["metrics"]
    errors = list(raw["errors"])
    metrics = {}
    for m in wanted:
        if m["name"] in got:
            if got[m["name"]]["unit"] != m["unit"]:
                errors.append("unit of %s is %s, not %s" % (
                    m["name"], got[m["name"]]["unit"], m["unit"]))
            metrics[m["name"]] = {"value": got[m["name"]]["value"],
                                  "unit": m["unit"]}
        elif args.trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            errors.append("missing end-to-end metric " + m["name"])
    unknown = sorted(set(got) - {m["name"] for m in wanted})
    if unknown:
        errors.append("metrics not in BENCHMARK.json: " + ", ".join(unknown))
    failed = raw["failed"] + (len(errors) - len(raw["errors"]))
    correct = raw["correct"] and failed == 0
    print("perfbench-detail " + json.dumps(
        {"workload": args.workload, "seed": args.seed, "detail": raw["detail"],
         "errors": errors, "notes": raw["notes"]}), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
