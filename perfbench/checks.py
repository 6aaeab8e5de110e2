"""Correctness checks of each workload's artifacts against a reference that
does not come from the route the CLI took.

``reference(workload, cfg, seed)`` computes what the artifacts must match;
it depends only on the configuration and seed, so one reference serves every
run of a benchmark invocation.  It runs in its own process:

  python perfbench/checks.py WORKLOAD CONFIG SEED OUT_JSON

so that the benchmark process never loads numpy and its resident set stays
below that of the runs it measures (a child's ``ru_maxrss`` starts from the
parent's).  ``check(...)`` is plain Python and returns a list of problems,
empty when the artifacts pass.  Both run outside the timed region.
"""

import json
import sys

# relative agreement demanded of each reference; each is far above the
# rounding of its route and far below what a wrong result would give
Q_REL_TOL = 1e-9          # q_est: library matexp stepping vs scipy expm
NEUMANN_REL_TOL = 1e-6    # direct forward substitution vs Neumann series (tol 1e-10)
NORM_REL_TOL = 1e-8       # orbit.csv norms vs the Neumann-route orbit
NORM_SAMPLES = 41


def _close(value, ref, rel):
    return abs(value - ref) <= rel * max(abs(ref), 1e-12)


def _grid_count(horizon, step):
    return int(round(horizon / step))


def _matrix_q_reference(cfg):
    """max over the probes of int_0^{2H} ||C exp(sA) x||_sup ds (trapezoid)."""
    import numpy as np
    from scipy.linalg import expm

    a = np.asarray(cfg["system"]["a"], dtype=float)
    c = np.asarray(cfg["system"]["c"], dtype=float)
    step = float(cfg["grid"]["step"])
    count = int(cfg["probes"]["count"])
    if count > a.shape[0]:
        raise ValueError("the reference covers unit-vector probes only (count <= dim)")
    n = _grid_count(2.0 * float(cfg["admissibility"]["horizon"]), step)
    ts = step * np.arange(n + 1)
    obs = c @ expm(ts[:, None, None] * a)[:, :, :count]    # columns C T(t) e_i
    pn = np.max(np.abs(obs), axis=1)
    return float(np.max(0.5 * step * np.sum(pn[1:] + pn[:-1], axis=0)))


def _neutral_sup_inv_reference(cfg, seed):
    """sup_inv_obs_est recomputed with the Neumann series in place of the
    direct solve the workload runs."""
    import numpy as np
    from semflow import cli, maps, neutral

    target = cli.build_system(cfg)
    triple = neutral.build_perturbation(target)
    horizon = 2.0 * float(cfg["admissibility"]["horizon"])
    step = float(cfg["grid"]["step"])
    best = 0.0
    for x in cli.build_probes(cfg, target, seed):
        v = maps.observation_map(triple, horizon, x, step=step)
        w = maps.invert_io(triple, horizon, v, maps.Neumann())
        best = max(best, float(np.max(w.running_l1())) / x.norm())
    return best


def _translation_norms_reference(cfg):
    """Orbit norms at sampled rows, by the Neumann route (the workload uses
    the direct delay solve)."""
    import numpy as np
    from semflow import cli, core, maps

    target = cli.build_system(cfg)
    x = cli.build_initial(cfg, target)
    grid = core.time_grid(float(cfg["grid"]["horizon"]), float(cfg["grid"]["step"]))
    norms = maps.perturbed_orbit(target, x, grid, maps.Neumann()).norms
    rows = np.unique(np.linspace(0, grid.count, NORM_SAMPLES).round().astype(int))
    return {str(k): float(norms[k]) for k in rows}


def reference(workload, cfg, seed):
    if workload == "matrix-admissibility":
        return _matrix_q_reference(cfg)
    if workload == "neutral-admissibility":
        return _neutral_sup_inv_reference(cfg, seed)
    if workload == "translation-simulate":
        return _translation_norms_reference(cfg)
    return None


def _failed_verdicts(report, names):
    return [f"verdict {k} is {report['verdicts'].get(k, {}).get('verdict')}"
            for k in names if report["verdicts"].get(k, {}).get("verdict") != "PASS"]


def _check_matrix(cfg, out, ref):
    report = json.loads((out / "admissibility.json").read_text())
    problems = _failed_verdicts(report, ("infinite_time_control",
                                         "uniform_inverse_observation",
                                         "io_contraction"))
    if report.get("miyadera_voigt", {}).get("verdict") != "PASS":
        problems.append("miyadera_voigt verdict is not PASS")
    if not _close(report["q_est"], ref, Q_REL_TOL):
        problems.append(f"q_est {report['q_est']!r} != expm reference {ref!r}")
    return problems


def _check_neutral(cfg, out, ref):
    report = json.loads((out / "admissibility.json").read_text())
    problems = _failed_verdicts(report, ("io_contraction",))
    if not _close(report["sup_inv_obs_est"], ref, NEUMANN_REL_TOL):
        problems.append(f"sup_inv_obs_est {report['sup_inv_obs_est']!r} "
                        f"!= Neumann route {ref!r}")
    return problems


def _check_translation(cfg, out, ref):
    step = float(cfg["grid"]["step"])
    n = _grid_count(float(cfg["grid"]["horizon"]), step)
    N = _grid_count(float(cfg["system"]["L"]), step)
    problems = []
    with open(out / "orbit.csv", "rb") as fh:
        header = fh.readline().decode().rstrip("\n").split(",")
        if header != ["t", "norm"] + [f"x{j}" for j in range(N + 1)]:
            problems.append(f"orbit.csv header has {len(header)} columns, not {N + 3}")
        rows = 0
        for k, line in enumerate(fh):
            rows += 1
            if line.count(b",") != N + 2:
                problems.append(f"orbit.csv row {k} has {line.count(b',') + 1} columns")
                break
            if str(k) in ref:
                norm = float(line.split(b",", 2)[1])
                if not _close(norm, ref[str(k)], NORM_REL_TOL):
                    problems.append(f"orbit.csv norm at row {k}: {norm!r} != {ref[str(k)]!r}")
    if rows != n + 1:
        problems.append(f"orbit.csv has {rows} rows, not {n + 1}")
    return problems


def _check_asymptotics(cfg, out, ref):
    report = json.loads((out / "asymptotics.json").read_text())
    problems = [] if report["all_pass"] is True else ["all_pass is not true"]
    props = cfg["asymptotics"]["properties"]
    if sorted(report["verdicts"]) != sorted(props):
        problems.append(f"verdicts cover {sorted(report['verdicts'])}, not {sorted(props)}")
    for prop, entry in report["verdicts"].items():
        if entry["biinvariance_violations"]:
            problems.append(f"{prop}: {len(entry['biinvariance_violations'])} "
                            "biinvariance violations")
    return problems


CHECKS = {
    "matrix-admissibility": _check_matrix,
    "translation-simulate": _check_translation,
    "neutral-admissibility": _check_neutral,
    "scalar-asymptotics": _check_asymptotics,
}


def check(workload, cfg, out, ref):
    """Problems found in the artifacts under ``out``; a missing or malformed
    artifact is a problem, not a crash."""
    try:
        return CHECKS[workload](cfg, out, ref)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable artifact: {exc!r}"]


if __name__ == "__main__":
    workload, config, seed, out = sys.argv[1:5]
    cfg = json.loads(open(config, encoding="utf-8").read())
    cfg["seed"] = int(seed)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(reference(workload, cfg, int(seed)), fh)
