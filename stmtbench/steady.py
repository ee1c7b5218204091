#!/usr/bin/env python3
"""Steadiness check for stmtbench: the evidence for the bounds.

Runs each workload several times and prints, for every end-to-end metric,
the median, the quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json, and the
share of failed statements.  By default each workload runs --runs times on
--seed and once more on --second-seed; with --distinct-seeds every run
takes its own seed, starting at --seed.

    python3 stmtbench/steady.py [--workloads oltp,analytic,adhoc] [--runs 5]
        [--seed 1] [--second-seed 2] [--distinct-seeds] [--seconds S]

Run it from the root of a checkout.  Raw results are written as JSON lines
to stmtbench/out/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--second-seed", type=int, default=2)
    ap.add_argument("--distinct-seeds", action="store_true")
    ap.add_argument("--seconds", type=int, default=None)
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = opts.seconds or bench["run_seconds"]
    os.makedirs(os.path.join("stmtbench", "out"), exist_ok=True)
    raw = open(os.path.join("stmtbench", "out", "steady.jsonl"), "a")

    worst = 0.0
    for w in workloads:
        if opts.distinct_seeds:
            seeds = [opts.seed + i for i in range(opts.runs)]
            other = []
        else:
            seeds = [opts.seed] * opts.runs
            other = [opts.second_seed]
        results = []
        for s in seeds + other:
            r = run_once(bench["command"], w, s, seconds)
            raw.write(json.dumps({"workload": w, "seed": s, "result": r}) + "\n")
            raw.flush()
            results.append(r)
            print(f"  {w} seed {s}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", flush=True)
        main_runs = results[:len(seeds)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{w}: {len(seeds)} runs on seed(s) {seeds[0]}..{seeds[-1]}"
              + (f", one on seed {other[0]}" if other else "")
              + f"; failed share {shares}; all correct: {all(r['correct'] for r in results)}")
        print(f"  {'metric':<14} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} "
              f"{'bound':>6} {'spread/bound':>12}" + ("  second seed / median" if other else ""))
        for m in bench["end_to_end"]:
            name = m["name"]
            values = [r["metrics"][name]["value"] for r in main_runs]
            q1, med, q3, sp = spread(values)
            ratio = sp / m["bound"]
            if name != "setup_s":
                worst = max(worst, ratio)
            line = (f"  {name:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {sp:>8.3f} "
                    f"{m['bound']:>6.2f} {ratio:>12.2f}")
            if other:
                line += f"  {results[-1]['metrics'][name]['value'] / med:>8.3f}"
            print(line, flush=True)
        print()
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
