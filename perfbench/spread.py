#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each end-to-end metric's
median and spread (interquartile range as a share of the median).

    python3 perfbench/spread.py WORKLOAD [--seeds 1,2,3] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Bounds and run length come from
BENCHMARK.json unless overridden.
"""
import argparse
import json
import statistics
import subprocess
import sys

ap = argparse.ArgumentParser()
ap.add_argument("workload")
ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
ap.add_argument("--seconds", type=int)
ap.add_argument("--trace", default="0")
args = ap.parse_args()

bench = json.load(open("BENCHMARK.json"))
seconds = args.seconds or bench["run_seconds"]
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
values = {}
for seed in args.seeds.split(","):
    out = subprocess.run(bench["command"] + ["--workload", args.workload, "--seed", seed,
                          "--seconds", str(seconds), "--trace", args.trace],
                         stdout=subprocess.PIPE, text=True, timeout=900)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
    for k, v in res["metrics"].items():
        values.setdefault(k, []).append(v["value"])

for k, vs in sorted(values.items()):
    med = statistics.median(vs)
    if len(vs) >= 2 and med:
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
    else:
        spread = float("nan")
    b = bounds.get(k)
    flag = "" if b is None or spread < b / 3 else "  <-- above bound/3"
    print(f"{k:24s} median {med:12.5g}  spread {spread:7.3%}  bound {b}{flag}")
