#!/usr/bin/env python3
"""Repeat benchmark runs over several seeds and summarise them.

    python3 pipebench/collect.py --workloads survey30,verify37 --seeds 1-10
    python3 pipebench/collect.py --seeds 1-10 --traced-seeds 1,1 --out pipebench/baseline.json

Runs ``run.py`` once per (workload, seed), one process at a time, and prints
each metric's median, quartiles and spread (interquartile distance over the
median, from ``statistics.quantiles(values, n=4)``) next to a third of the
bound that ``BENCHMARK.json`` fixes.  ``--traced-seeds`` adds traced runs and
checks that their ``.calls`` and counters repeat exactly.  ``--out`` writes
the summary, with the environment, as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from tracer import TIMED_SUFFIXES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("pipebench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    env = next((ln for ln in lines if " env: " in ln), "")
    return json.loads(lines[-1]), env


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="survey30,construct160,roundtrip,verify37")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced-seeds", default="", help="seeds of traced runs, e.g. 1,1 to test repeatability")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    seeds = seed_list(args.seeds)
    traced_seeds = seed_list(args.traced_seeds) if args.traced_seeds else []
    result = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        env = ""
        for seed in seeds:
            out, env = run_once(workload, seed, seconds, 0)
            runs.append(out)
            print(f"{workload} seed {seed}: correct={out['correct']} failed={out['failed']}/{out['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in out["metrics"].items()), flush=True)
        entry = {
            "env": env.split(" env: ", 1)[-1],
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        ok &= entry["correct"]
        for name in runs[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            limit = bounds.get(name, 0) / 3
            steady = name == "setup_s" or s["spread"] < limit
            ok &= steady
            print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}  (bound/3 {limit:.4f}){'' if steady else '  NOT STEADY'}", flush=True)
        if traced_seeds:
            traced = [run_once(workload, seed, seconds, 1)[0] for seed in traced_seeds]
            metrics = [t["metrics"] for t in traced]
            exact = {k: v["value"] for k, v in metrics[0].items() if not k.endswith(TIMED_SUFFIXES)}
            for seed, m in zip(traced_seeds[1:], metrics[1:]):
                if seed == traced_seeds[0]:
                    differ = [k for k, v in exact.items() if m[k]["value"] != v]
                    print(f"  {workload} traced seed {seed} twice: {len(exact)} counts, "
                          f"{len(differ)} differ {differ[:5]}", flush=True)
                    ok &= not differ
            entry["per_layer"] = {k: summarise([m[k]["value"] for m in metrics]) | {"unit": v["unit"]}
                                  for k, v in metrics[0].items()}
            entry["traced_correct"] = all(t["correct"] for t in traced)
            ok &= entry["traced_correct"]
            print(f"  {workload} trace.overhead {entry['per_layer']['trace.overhead']['median']:.4f}", flush=True)
        result["workloads"][workload] = entry
    result["python"] = platform.python_version()
    result["nproc"] = os.cpu_count()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("ALL STEADY AND CORRECT" if ok else "SOME RUN FAILED ITS GATE, REPEAT CHECK OR STEADINESS BOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
