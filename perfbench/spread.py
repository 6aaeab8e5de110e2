#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and
quartile spread, the figures a regression bound is judged against.

Usage:
  python3 perfbench/spread.py --workload NAME [--seeds 1-10|42,7] [--trace 0|1]
                              [--out FILE]

Each seed is one ``run.py`` invocation in a fresh process, measuring for
BENCHMARK.json's ``run_seconds``.  The spread of a metric is
(Q3 - Q1) / median over the seeds, with the quartiles of
``statistics.quantiles(values, n=4)``.  ``--out`` writes every invocation's
result and provenance line plus the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_from(text):
    """"1-10" or "42,7" or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def invoke(workload, seed, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
            str(seed), "--trace", str(trace)]
    res = subprocess.run(argv, capture_output=True, text=True, check=True)
    lines = res.stdout.splitlines()
    prov = next(json.loads(line[len("provenance "):]) for line in lines
                if line.startswith("provenance "))
    return {"seed": seed, "provenance": prov, "lines": lines[:-1],
            "result": json.loads(lines[-1])}


def summarize(runs):
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0,
                         "unit": runs[0]["result"]["metrics"][name]["unit"]}
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    runs = []
    for seed in seeds_from(args.seeds):
        runs.append(invoke(args.workload, seed, args.trace))
        r = runs[-1]["result"]
        print(f"seed {seed}: attempted {r['attempted']} failed {r['failed']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()
            if args.trace == 0 or k.startswith("trace.")), flush=True)
    summary = summarize(runs)
    for name, s in summary.items():
        print(f"{name:<30} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    failed = sum(r["result"]["failed"] for r in runs)
    print(f"runs attempted {sum(r['result']['attempted'] for r in runs)}  failed {failed}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "invocations": runs,
             "summary": summary}, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
