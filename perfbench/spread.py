#!/usr/bin/env python3
"""Repeats one workload and prints each metric's median and quartiles.

    python3 perfbench/spread.py --workload W [--seeds 1-10] [--trace 0|1]
                                [--second_seed S]

Runs perfbench/run.py once per seed in --seeds (a list such as 1,4,9 or a
range such as 1-10) for BENCHMARK.json's run_seconds, then prints, per
metric, the median, the first and third quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median. For end-to-end metrics it also
prints the bound from BENCHMARK.json and flags a spread above the bound or
above a third of it. This is the evidence behind the bounds.

--second_seed re-runs the workload five times on one seed not used during
development and prints its medians beside the first set's, for claims that
must also hold on a fresh seed. Run it from the checkout root.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECOND_SEED_RUNS = 5


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(args, seconds, seed):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"spread: seed {seed} failed with {done.returncode}")
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in
                                      values.items()), file=sys.stderr)
    return values


def summarize(runs):
    table = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        table[name] = (median, q1, q3, (q3 - q1) / median if median else 0)
    return table


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--second_seed", type=int)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = [run_once(args, seconds, seed) for seed in parse_seeds(args.seeds)]
    table = summarize(runs)
    print(f"{args.workload}: {len(runs)} runs of {seconds} s, "
          f"seeds {args.seeds}")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name, (median, q1, q3, spread) in table.items():
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = ("WIDE" if spread > bound
                    else "ok" if spread < bound / 3 else "over 1/3 bound")
        print(f"{name:34} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:7.3f} {bound if bound is not None else '':>6} {flag}")

    if args.second_seed is not None:
        second = [run_once(args, seconds, args.second_seed)
                  for _ in range(SECOND_SEED_RUNS)]
        other = summarize(second)
        print(f"\nseed {args.second_seed}: {len(second)} runs")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'vs first':>9}")
        for name, (median, q1, q3, _) in other.items():
            base = table[name][0]
            ratio = f"{median / base:9.3f}" if base else ""
            print(f"{name:34} {median:12.6g} {q1:12.6g} {q3:12.6g} {ratio}")


if __name__ == "__main__":
    main()
