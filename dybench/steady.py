#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload (or those named) several times with distinct seeds and
prints, per end-to-end metric, the median, the quartiles and the spread: the
distance between the first and third quartile as a share of the median. A
spread must stay within the metric's bound from BENCHMARK.json; setup_s is
reported but not held to it.

    python3 dybench/steady.py [--runs 10] [--seed0 1000] [--workloads a,b]

Run it from the repository root. Each run's result line is appended to
.bench_build/steady-runs.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(".bench_build", exist_ok=True)

    failed = False
    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for name in names:
        values = {}
        for i in range(args.runs):
            seed = args.seed0 + i
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.stderr.write(out.stderr)
                sys.exit("%s seed %d exited %d" % (name, seed, out.returncode))
            res = json.loads(lines[-1])
            diag = [l for l in out.stderr.splitlines() if l.startswith("dybench: ")]
            with open(".bench_build/steady-runs.jsonl", "a") as log:
                log.write(json.dumps({"workload": name, "seed": seed, "result": res, "log": diag}) + "\n")
            if not res["correct"]:
                sys.exit("%s seed %d: output check failed" % (name, seed))
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        for metric in sorted(values):
            vs = values[metric]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(metric, float("nan"))
            mark = ""
            if metric != "setup_s" and spread > bound:
                mark = " over"
                failed = True
            print("| %s | %s | %.6g | %.6g | %.6g | %.4f%s | %.2f |" % (
                name, metric, med, q1, q3, spread, mark, bound))
        sys.stdout.flush()
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
