#!/usr/bin/env python3
"""Steadiness report: run workloads repeatedly, each run with its own
seed, and print every metric's run-to-run spread next to its bound.

    python3 servebench/steady.py [--workload NAME|all] [--runs 5]
                                 [--seed0 1] [--seconds S] [--trace 0|1]

Spread is the distance between the first and third quartile of the
runs' values (Python's statistics.quantiles(values, n=4)) as a share of
their median.  Bounds and the default run length come from
BENCHMARK.json.  A metric is flagged NOISY when its spread reaches a
third of its bound, and OVER when it exceeds the bound (setup_s's
spread is reported but is not held to its bound; its median is).
Exits 1 if any run fails or any answer is wrong, 0 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "servebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, p.returncode
    return json.loads(lines[-1]), 0


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf"), med, q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    ok = True
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.seed0 + i
            res, code = run_once(w, seed, seconds, args.trace)
            if res is None:
                print("%s seed=%d: run failed (exit %d)" % (w, seed, code))
                ok = False
                continue
            if not res["correct"] or res["failed"]:
                print("%s seed=%d: %d of %d answers failed" % (w, seed, res["failed"], res["attempted"]))
                ok = False
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print("%s seed=%d: %s" % (w, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())), flush=True)
        print("\n%s: %d runs of %d s" % (w, len(next(iter(values.values()), [])), seconds))
        print("  %-24s %12s %12s %12s %8s %7s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for k, vs in values.items():
            if len(vs) < 2:
                continue
            s, med, q1, q3 = spread(vs)
            b = bounds.get(k)
            flag = ""
            if b is not None:
                if s > b and k != "setup_s":
                    flag, ok = "OVER", False
                elif s >= b / 3:
                    flag = "NOISY"
            print("  %-24s %12.5g %12.5g %12.5g %8.3f %7s %s" % (
                k, med, q1, q3, s, "-" if b is None else "%.3f" % b, flag))
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
