#!/usr/bin/env python3
"""Builds the benchmark binary from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. The build goes to
.bench_build/perfbench (incremental after the first run); temporary stores,
listings and the service socket go to .bench_build/work-<workload> and are
removed afterwards; a traced run leaves its Chrome trace at
.bench_build/trace-<workload>.json. Build output goes to stderr, so the last
line of stdout is the result object.

The binary prints metric values by name; the names, their order and units
come from BENCHMARK.json, the one list of metrics. An untraced run must
measure every end-to-end metric. A traced run reports every per-layer
metric: those of a layer the workload does not have (the scheduler on a
batch workload) are 0 and are listed on an "n/a" line.

Exits non-zero, without a result, when the sources are missing, the build
fails, an answer disagrees with the oracle, or the binary's metrics do not
fit BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; kills it on timeout."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources under {ROOT}; run from a source checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                 "-j", jobs], BUILD_TIMEOUT_S)


def result_metrics(values, trace):
    """The result's metrics, in BENCHMARK.json's order and units."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"no {spec_path}")
    spec = json.loads(spec_path.read_text())
    group = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    unknown = sorted(set(values) - set(units))
    if unknown:
        fail(f"metrics {unknown} are not in BENCHMARK.json", 1)
    absent = [name for name in units if name not in values]
    if absent and not trace:
        fail(f"end-to-end metrics {absent} were not measured", 1)
    if absent:
        print("n/a " + " ".join(absent) + " (no such layer on this workload; "
              "reported as 0)")
    metrics = {}
    for name, unit in units.items():
        value = values.get(name, 0)
        print(f"metric {name} = {value} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--perturb_expected", type=int, default=0,
                        help="added to every expected count; a correct "
                             "program must then fail the oracle check")
    args = parser.parse_args()

    build()
    work_dir = BUILD_ROOT / f"work-{args.workload}"
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work_dir", str(work_dir),
           "--trace_out", str(BUILD_ROOT / f"trace-{args.workload}.json")]
    if args.perturb_expected:
        cmd += ["--perturb_expected", str(args.perturb_expected)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = done.stdout.rstrip("\n").split("\n")
    # Everything but the binary's result object is for reading.
    print("\n".join(lines[:-1]))
    if done.returncode != 0:
        fail(f"{args.workload} exited with {done.returncode}", 1)
    result = json.loads(lines[-1])
    metrics = result_metrics(result["values"], args.trace)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics},
                     separators=(",", ":")))


if __name__ == "__main__":
    main()
