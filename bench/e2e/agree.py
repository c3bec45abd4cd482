#!/usr/bin/env python3
"""Collect and compare sets of end-to-end benchmark runs (README.md).

Compare two sets of runs:

    python3 bench/e2e/agree.py A.json B.json

For every (workload, metric) it prints each side's median and quartiles,
the change of B's median against A's as a share of A's, and a verdict:

    ok          the medians differ by no more than the metric's bound
    DIFFERS     they differ by more (exit status 1)
    unresolved  either side's own spread, (q3 - q1) / median, exceeds the
                bound, so the runs cannot tell a change of that size
                from noise

It also counts, over runs paired by seed, how often B was better than A.

Collect runs of one checkout, or of two alternating, one seed per pair:

    python3 bench/e2e/agree.py --collect A.json [--checkout DIR] [--runs 10]
        [--first-seed 1] [--workload W ...] [--trace 0|1]
    python3 bench/e2e/agree.py --collect A.json B.json --checkout DIR_A DIR_B ...

Each run calls that checkout's bench/e2e/run.py from its root. With two
checkouts, the side that runs first alternates from one pair to the next.
A set is a JSON list of {"workload", "seed", "trace", "result"} objects.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds, trace):
    command = [sys.executable, os.path.join("bench", "e2e", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("agree.py: %s %s seed %d failed (exit %d)" % (checkout, workload, seed, done.returncode))
    return {"workload": workload, "seed": seed, "trace": trace, "result": json.loads(lines[-1])}


def collect(args, spec):
    if len(args.files) != len(args.checkout):
        sys.exit("agree.py: give one output file per checkout")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sets = [[] for _ in args.files]
    for pair in range(args.runs):
        seed = args.first_seed + pair
        for workload in workloads:
            order = list(range(len(sets)))
            if pair % 2 == 1:
                order.reverse()
            for side in order:
                run = run_once(args.checkout[side], workload, seed, spec["run_seconds"], args.trace)
                sets[side].append(run)
                print("%s %s seed %d: %s" % (args.files[side], workload, seed,
                                             "ok" if run["result"]["correct"] else "INCORRECT"))
    for path, runs in zip(args.files, sets):
        with open(path, "w") as f:
            json.dump(runs, f, indent=1)


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def compare(paths, spec):
    sets = []
    for path in paths:
        with open(path) as f:
            sets.append(json.load(f))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    failed = unresolved = 0
    print("%-13s %-18s %24s %24s %8s %6s  %s" % ("workload", "metric", "A median [q1, q3]",
                                                "B median [q1, q3]", "change", "bound", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, metric in metrics.items():
            sides = []
            for runs in sets:
                sides.append({r["seed"]: r["result"]["metrics"][name]["value"]
                              for r in runs if r["workload"] == workload and name in r["result"]["metrics"]})
            if not sides[0] or not sides[1]:
                continue
            a, b = summary(list(sides[0].values())), summary(list(sides[1].values()))
            change = (b[0] - a[0]) / a[0] if a[0] else 0.0
            sign = 1.0 if metric["better"] == "lower" else -1.0
            seeds = sorted(set(sides[0]) & set(sides[1]))
            wins = sum(1 for s in seeds if sign * (sides[1][s] - sides[0][s]) < 0)
            if abs(change) > metric["bound"]:
                verdict, failed = "DIFFERS", failed + 1
            elif max(a[3], b[3]) > metric["bound"]:
                verdict, unresolved = "unresolved", unresolved + 1
            else:
                verdict = "ok"
            print("%-13s %-18s %24s %24s %+7.2f%% %6.3f  %s (B better in %d/%d pairs)"
                  % (workload, name, "%.4g [%.4g, %.4g]" % a[:3], "%.4g [%.4g, %.4g]" % b[:3],
                     100 * change, metric["bound"], verdict, wins, len(seeds)))
    print("%d differ, %d unresolved" % (failed, unresolved))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--collect", action="store_true")
    parser.add_argument("--checkout", nargs="+", default=["."])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    spec = load_spec()
    if args.collect:
        collect(args, spec)
        return 0
    if len(args.files) != 2:
        parser.error("compare takes exactly two files")
    return compare(args.files, spec)


if __name__ == "__main__":
    sys.exit(main())
