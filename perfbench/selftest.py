#!/usr/bin/env python3
"""Show that every artifact check accepts good artifacts and rejects
corrupted ones.

Usage: python3 perfbench/selftest.py

Each workload runs once through the CLI on a reduced copy of its config (the
same system on a coarser grid or shorter horizon, so this takes well under
a minute).  Its artifacts must pass the check; then each corruption below is
applied to a fresh copy and must be rejected.  Exits 1 otherwise.
"""

import json
import shutil
import sys

import checks
from run import WORK, WORKLOADS, config_path, reference, spawn

# workload -> changes that make the config smaller while keeping its system
REDUCED = {
    "matrix-admissibility": {"grid": {"step": 0.01}},
    "translation-simulate": {"grid": {"step": 0.02}},
    "neutral-admissibility": {"system": {"history_steps": 32},
                              "grid": {"step": 0.03125, "horizon": 2.0},
                              "admissibility": {"horizon": 2.0}},
    "scalar-asymptotics": {"grid": {"step": 0.05}},
}


def _merge(base, changes):
    for key, value in changes.items():
        if isinstance(value, dict):
            _merge(base[key], value)
        else:
            base[key] = value


def _edit_json(name, edit):
    def corrupt(out):
        path = out / name
        report = json.loads(path.read_text())
        edit(report)
        path.write_text(json.dumps(report))
    return corrupt


def _edit_csv_line(index, edit):
    """Corrupt line ``index`` of orbit.csv (0 is the header)."""
    def corrupt(out):
        path = out / "orbit.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[index] = edit(lines[index])
        path.write_text("".join(line for line in lines if line))
    return corrupt


def _scale_norm(line):
    t, norm, rest = line.split(",", 2)
    return f"{t},{float(norm) * (1 + 1e-6)!r},{rest}"


def _set_verdict(name, value):
    return lambda r: r["verdicts"][name].__setitem__("verdict", value)


CORRUPTIONS = {
    "matrix-admissibility": {
        "q_est off by 1e-6": _edit_json("admissibility.json",
                                        lambda r: r.update(q_est=r["q_est"] * (1 + 1e-6))),
        "io_contraction FAIL": _edit_json("admissibility.json",
                                          _set_verdict("io_contraction", "FAIL")),
        "miyadera_voigt FAIL": _edit_json("admissibility.json",
                                          lambda r: r["miyadera_voigt"].update(verdict="FAIL")),
    },
    "translation-simulate": {
        "last row missing": _edit_csv_line(-1, lambda line: ""),
        "norm off by 1e-6 at row 0": _edit_csv_line(1, _scale_norm),
        "extra column in row 7": _edit_csv_line(8, lambda line: line.rstrip("\n") + ",0\n"),
    },
    "neutral-admissibility": {
        "sup_inv_obs_est off by 1e-3": _edit_json(
            "admissibility.json",
            lambda r: r.update(sup_inv_obs_est=r["sup_inv_obs_est"] * 1.001)),
        "io_contraction FAIL": _edit_json("admissibility.json",
                                          _set_verdict("io_contraction", "FAIL")),
    },
    "scalar-asymptotics": {
        "all_pass false": _edit_json("asymptotics.json", lambda r: r.update(all_pass=False)),
        "one biinvariance violation": _edit_json(
            "asymptotics.json",
            lambda r: r["verdicts"]["BOUNDED"]["biinvariance_violations"].append(
                {"checker": "BOUNDED", "orbit": 0, "shift": 5.0})),
    },
}


def selftest(workload, work):
    cfg = json.loads(config_path(workload).read_text())
    _merge(cfg, REDUCED[workload])
    config = work / "config.json"
    config.write_text(json.dumps(cfg))
    cfg["seed"] = 42
    good = work / "good"
    argv = [sys.executable, "-m", "semflow", WORKLOADS[workload], "--config", str(config),
            "--out", str(good), "--seed", "42"]
    _, _, code = spawn(argv, work / "cli")
    ref = reference(workload, config, 42, work)
    failures = []
    problems = [f"exit code {code}"] if code else checks.check(workload, cfg, good, ref)
    print(f"{workload}: intact artifacts -> {problems or 'accepted'}")
    if problems:
        failures.append(f"{workload}: intact artifacts rejected")
    for name, corrupt in CORRUPTIONS[workload].items():
        bad = work / "bad"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(good, bad)
        corrupt(bad)
        problems = checks.check(workload, cfg, bad, ref)
        print(f"{workload}: {name} -> {problems or 'ACCEPTED'}")
        if not problems:
            failures.append(f"{workload}: {name} accepted")
    return failures


def main():
    failures = []
    for workload in WORKLOADS:
        work = WORK / "selftest" / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        failures += selftest(workload, work)
    shutil.rmtree(WORK / "selftest")
    print("selftest " + ("FAILED: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
