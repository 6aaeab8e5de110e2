#!/usr/bin/env python3
"""semflow benchmark: run a workload through the real ``semflow`` CLI, one
fresh child process at a time, check every run's artifacts, and print the
metrics.  See perfbench/README.md for the workloads and metrics.

Usage:
  python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--workload`` defaults to ``all``, the four workloads in turn.  ``--seconds``
defaults to ``run_seconds`` in BENCHMARK.json.

``--trace 0`` measures the end-to-end metrics on untraced runs.  ``--trace 1``
alternates untraced runs with runs under perfbench/traced.py and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from traced import APPLY_SPANS, IO_SPANS, METRIC_OF, span_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"
MB = 2.0 ** 20

# workload -> semflow subcommand; the config is perfbench/configs/<workload>.json
WORKLOADS = {
    "matrix-admissibility": "admissibility",
    "translation-simulate": "simulate",
    "neutral-admissibility": "admissibility",
    "scalar-asymptotics": "asymptotics",
}
SETUP_REPEATS = 5   # set-up probes per --trace 0 invocation, at least
SETUP_PER_RUN = 2   # set-up probes before each untraced timed run
MIN_RUNS = 2        # untraced runs per --trace 0 invocation, even past --seconds

# per-layer time metric -> what it should move; traced.METRIC_OF says which
# spans' self times each one sums
LAYER_TIMES = {
    "cli.build_s": "setup_s",
    "translation.observation_row_s": "setup_s",
    "neutral.build_s": "setup_s",
    "cli.write_s": "wall_s, output_mb",
    "maps.observe_s": "wall_s",
    "maps.solve_s": "wall_s",
    "maps.io_norm_s": "wall_s",
    "maps.orbit_s": "wall_s, peak_rss_mb",
    "kernels.matrix_apply_s": "wall_s",
    "kernels.matrix_solve_s": "wall_s",
    "kernels.delay_solve_s": "wall_s",
    "kernels.neutral_apply_s": "wall_s",
    "semigroups.orbit_s": "wall_s",
    "admissibility.estimate_s": "wall_s",
    "admissibility.mv_s": "wall_s",
    "asymptotics.robustness_s": "wall_s",
    "asymptotics.checker_s": "wall_s",
    "asymptotics.harness_s": "wall_s",
    "asymptotics.cesaro_track_s": "wall_s",
}
if set(LAYER_TIMES) != set(METRIC_OF.values()) - {None}:
    raise SystemExit("LAYER_TIMES and traced.METRIC_OF name different metrics")
# per-layer count metric -> (unit, what it should move)
LAYER_COUNTS = {
    "cli.bytes_written": ("bytes", "output_mb"),
    "cli.csv_values": ("count", "wall_s, output_mb"),
    "maps.io_norm_calls": ("count", "wall_s"),
    "maps.io_applies": ("count", "wall_s"),
    "kernels.matrix_apply_rows": ("count", "wall_s"),
    "kernels.matrix_solve_rows": ("count", "wall_s"),
    "core.norm_calls": ("count", "wall_s"),
    "core.matexp_calls": ("count", "wall_s"),
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # children may write bytecode, so set-up is timed with a warm cache, as a
    # user's second run is, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # one BLAS thread, so library threads do not compete with the load
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv, log):
    """Run a child to completion; return (wall seconds, peak RSS MB, exit code)."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / MB, proc.returncode


def config_path(workload):
    return HERE / "configs" / f"{workload}.json"


def probe(workload, seed, log, extra=()):
    argv = [sys.executable, str(HERE / "probe.py"), str(config_path(workload)),
            WORKLOADS[workload], str(seed), *extra]
    _, _, code = spawn(argv, log)
    if code != 0:
        raise RuntimeError(f"set-up probe failed, see {log.with_suffix('.err')}")
    return json.loads(log.with_suffix(".out").read_text().splitlines()[-1])


def layer_metrics(trace):
    """Per-layer metrics from one traced run: self times summed by layer,
    plus counts."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    metrics = dict.fromkeys(LAYER_TIMES, 0.0)
    for s, child in zip(spans, covered):
        metric = METRIC_OF[s["name"]]
        if metric is not None:
            metrics[metric] += s["end"] - s["start"] - child

    def inside_io(s):
        while s["parent"] is not None:
            s = spans[s["parent"]]
            if s["name"] in IO_SPANS:
                return True
        return False

    counts = trace["counts"]
    metrics.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    io_norm = span_name("maps", "estimate_io_norm")
    metrics["maps.io_norm_calls"] = sum(1 for s in spans if s["name"] == io_norm)
    metrics["maps.io_applies"] = sum(1 for s in spans
                                     if s["name"] in APPLY_SPANS and inside_io(s))
    return metrics


def one_run(workload, cfg, seed, index, ref, traced):
    out = WORK / workload / f"run{index}"
    shutil.rmtree(out, ignore_errors=True)
    args = [WORKLOADS[workload], "--config", str(config_path(workload)),
            "--out", str(out), "--seed", str(seed)]
    trace_file = WORK / workload / f"trace{index}.json"
    if traced:
        argv = [sys.executable, str(HERE / "traced.py"), str(trace_file),
                f"{workload}/{seed}/{index}", *args]
    else:
        argv = [sys.executable, "-m", "semflow", *args]
    wall, rss, code = spawn(argv, WORK / workload / f"run{index}")
    size = sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) if out.is_dir() else 0
    problems = [f"exit code {code}"] if code else checks.check(workload, cfg, out, ref)
    run = {"traced": traced, "wall_s": wall, "peak_rss_mb": rss, "output_mb": size / MB,
           "problems": problems}
    if traced and not code:
        run["layers"] = layer_metrics(json.loads(trace_file.read_text()))
    if not problems:
        shutil.rmtree(out)
    return run


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def reference(workload, config, seed, work):
    """The check reference for ``config``, computed in a child process."""
    out = work / "reference.json"
    argv = [sys.executable, str(HERE / "checks.py"), workload, str(config), str(seed), str(out)]
    _, _, code = spawn(argv, work / "reference")
    if code != 0:
        raise RuntimeError(f"reference failed, see {work / 'reference.err'}")
    return json.loads(out.read_text())


def run_workload(workload, seed, seconds, traced):
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = json.loads(config_path(workload).read_text())
    cfg["seed"] = seed
    # the first probe also warms the bytecode cache; its time is not used
    prov = probe(workload, seed, work / "provenance", ["--provenance"])["provenance"]
    prov.update({"git_commit": git_commit(), "src_sha256": src_digest(),
                 "workload": workload, "seed": seed, "seconds": seconds, "trace": traced})
    ref = reference(workload, config_path(workload), seed, work)

    def time_setup():
        setups.append(probe(workload, seed, work / f"setup{len(setups)}")["setup_s"])

    # set-up is probed between the timed runs, so that it samples the same
    # stretch of time as wall_s does
    setups, runs = [], []
    kinds = (False, True) if traced else (False,)
    start = time.perf_counter()
    while True:
        for kind in kinds:
            if not traced:
                for _ in range(SETUP_PER_RUN):
                    time_setup()
            runs.append(one_run(workload, cfg, seed, len(runs), ref, kind))
        elapsed = time.perf_counter() - start
        rounds = len(runs) // len(kinds)
        if rounds >= (1 if traced else MIN_RUNS) and elapsed * (rounds + 1) / rounds > seconds:
            break
    while not traced and len(setups) < SETUP_REPEATS:
        time_setup()
    return summarize(workload, prov, setups, runs, traced)


def median_of(runs, key):
    return statistics.median(r[key] for r in runs)


def summarize(workload, prov, setups, runs, traced):
    failed = [r for r in runs if r["problems"]]
    plain = [r for r in runs if not r["traced"]]
    lines = [f"workload {workload}  seed {prov['seed']}  runs {len(runs)}  "
             f"failed {len(failed)}"]
    for r in failed:
        lines.append(f"  FAILED run: {'; '.join(r['problems'][:3])}")
    if not traced:
        metrics = {
            "wall_s": (median_of(plain, "wall_s"), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (median_of(plain, "peak_rss_mb"), "MB"),
            "output_mb": (median_of(plain, "output_mb"), "MB"),
        }
        lines += [f"  {k:<14} {v:12.6g} {u:<5} (median of "
                  f"{len(setups) if k == 'setup_s' else len(plain)})"
                  for k, (v, u) in metrics.items()]
        lines.append("  wall_s of each run: " + " ".join(f"{r['wall_s']:.3f}" for r in plain))
    else:
        layered = [r["layers"] for r in runs if "layers" in r]
        wall = median_of([r for r in runs if r["traced"]], "wall_s")
        metrics = {"trace.wall_s": (wall, "s"),
                   "trace.overhead_s": (wall - median_of(plain, "wall_s"), "s")}
        for name, moves in LAYER_TIMES.items():
            v = statistics.median(m[name] for m in layered) if layered else 0.0
            metrics[name] = (v, "s")
            lines.append(f"  {name:<30} {v:10.4f} s   {100 * v / wall:5.1f}% of traced "
                         f"wall  moves {moves}")
        for name, (unit, moves) in LAYER_COUNTS.items():
            values = [m[name] for m in layered] or [0]
            v = statistics.median_low(values)
            metrics[name] = (v, unit)
            repeats = "same in every traced run" if len(set(values)) == 1 else f"varies {values}"
            lines.append(f"  {name:<30} {v:>12} {unit:<5}  moves {moves}; {repeats}")
        lines.append(f"  trace.wall_s {wall:.4f} s  trace.overhead_s "
                     f"{metrics['trace.overhead_s'][0]:.4f} s")
    result = {"correct": not failed, "attempted": len(runs), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return lines, prov, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=42)
    # by default, measure for as long as the benchmark declares
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so spawn() stops the child it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "semflow" / "cli.py").is_file():
        print(f"error: no semflow sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        lines, prov, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
        print("provenance " + json.dumps(prov, sort_keys=True))
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
