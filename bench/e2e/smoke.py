#!/usr/bin/env python3
"""CTest smoke test of the end-to-end benchmark.

    smoke.py SEVULDET_BENCH BENCHMARK_JSON WORK_DIR

Runs every workload with --smoke (tiny set-up and inputs, 2 s measured,
every correctness check on), once untraced and once traced, and checks
that each run passes and prints every metric BENCHMARK.json names, with
its unit: the end-to-end metrics untraced, the per-layer ones traced.
"""
import json
import os
import subprocess
import sys


def main():
    bench, spec_path, work = sys.argv[1:4]
    with open(spec_path) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    failures = []
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        run = subprocess.run(
            [bench, "--workload", "all", "--smoke", "--seconds", "2", "--trace", trace,
             "--work", os.path.join(work, "trace" + trace),
             "--results", os.path.join(work, "results-trace%s.json" % trace)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(run.stdout)
        if run.returncode != 0:
            failures.append("--trace %s exited %d" % (trace, run.returncode))
        printed = {}
        for line in run.stdout.splitlines():
            fields = line.split()
            if len(fields) == 4 and fields[0] in workloads:
                printed[(fields[0], fields[1])] = fields[3]
        for workload in workloads:
            for metric in spec[kind]:
                unit = printed.get((workload, metric["name"]))
                if unit != metric["unit"]:
                    failures.append("%s %s: printed unit %r, expected %r"
                                    % (workload, metric["name"], unit, metric["unit"]))
    for failure in failures:
        print("FAIL:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
