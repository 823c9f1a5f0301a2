#!/usr/bin/env python3
"""Repeats the end-to-end benchmark and summarizes its spread.

Run from the root of a checkout:

    python3 e2ebench/repeat.py --runs 10 --sets 2 [--workloads hot,wide,fleet]
        [--seconds 30] [--trace 0] [--save results.json]
    python3 e2ebench/repeat.py --compare parent.json change.json

Each set runs every workload --runs times, interleaved (hot, wide, fleet,
hot, ...), each run with its own seed; set k uses seeds k*1000+1 ... For
every workload and metric it prints the median, the quartiles, min/max and
the spread (quartile distance over the median) of each set, then compares
the sets. A spread under a third of its bound prints "ok", one within the
bound "WIDE", a larger one "OVER BOUND". It exits non-zero when a spread
exceeds its bound from BENCHMARK.json, when a later set's median differs
from the first's by more than the bound in either direction (the sets run
the same code), or when the share of failed operations differs between
sets. --compare checks two saved result files one way (e.g. a parent
commit against a change): only a median that got worse by more than the
bound fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        metrics[m["name"]] = m
    return spec, metrics


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, check=False)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exited {result.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": spread}


def print_set(name, results, metrics):
    """Prints one set's summary; returns the count of spreads over bound."""
    over = 0
    print(f"== {name}")
    for workload, runs in results.items():
        failed = [r["failed"] / r["attempted"] for r in runs]
        print(f"  {workload}: {len(runs)} runs, correct="
              f"{all(r['correct'] for r in runs)}, failed share "
              f"{sorted(set(failed))}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            s = summarize(values)
            bound = metrics.get(metric, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = "  ok" if s["spread"] < bound / 3 else (
                    "  WIDE" if s["spread"] <= bound else "  OVER BOUND")
                over += s["spread"] > bound
            print(f"    {metric:34s} median {s['median']:14.6g}  "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  "
                  f"min {s['min']:12.6g}  max {s['max']:12.6g}  "
                  f"spread {s['spread']:7.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
    return over


def compare(first, second, metrics, two_sided):
    """Prints the median shift of every bounded metric; returns failures.

    With two_sided (two sets of the same code) a shift either way beyond
    the bound fails; otherwise only a shift for the worse does.
    """
    bad = 0
    print("== comparison (second vs first)")
    for workload in first:
        if workload not in second:
            continue
        share = [{r["failed"] / r["attempted"] for r in s[workload]}
                 for s in (first, second)]
        if share[0] != share[1]:
            print(f"  {workload}: failed share differs {share}")
            bad += 1
        for metric, spec in metrics.items():
            if "bound" not in spec or metric not in first[workload][0]["metrics"]:
                continue
            a = statistics.median(r["metrics"][metric]["value"]
                                  for r in first[workload])
            b = statistics.median(r["metrics"][metric]["value"]
                                  for r in second[workload])
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            ok = (abs(worse) if two_sided else worse) <= spec["bound"]
            bad += 0 if ok else 1
            print(f"  {workload:6s} {metric:22s} {a:14.6g} -> {b:14.6g}  "
                  f"worse by {100 * worse:+7.2f}% (bound "
                  f"{'±' if two_sided else ''}{100 * spec['bound']:.0f}%) "
                  f"{'ok' if ok else 'FAIL'}")
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default="")
    parser.add_argument("--compare", nargs=2, metavar="RESULTS")
    args = parser.parse_args()
    spec, metrics = load_spec()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f)[0])
        sys.exit(1 if compare(sets[0], sets[1], metrics, two_sided=False)
                 else 0)

    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    sets = []
    bad = 0
    for k in range(args.sets):
        results = {w: [] for w in workloads}
        for i in range(args.runs):
            for w in workloads:
                seed = (k + 1) * 1000 + i + 1
                start = time.monotonic()
                results[w].append(run_once(w, seed, seconds, args.trace))
                print(f"set {k} run {i} {w} seed {seed}: "
                      f"{time.monotonic() - start:.1f} s", file=sys.stderr,
                      flush=True)
        sets.append(results)
        bad += print_set(f"set {k} ({seconds} s runs)", results, metrics)
        sys.stdout.flush()
    if args.save:
        with open(args.save, "w") as f:
            json.dump(sets, f)
    for k in range(1, len(sets)):
        bad += compare(sets[0], sets[k], metrics, two_sided=True)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
