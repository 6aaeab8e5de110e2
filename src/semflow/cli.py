"""Command-line front end: load a JSON run configuration, simulate orbits,
estimate admissibility constants, run asymptotic-property experiments.

Exit codes: 0 success, 1 numerical failure, 2 validation failure.  CSV output
uses 17-significant-digit floats; JSON output is UTF-8 with stable key order,
so identical configurations and seeds reproduce byte-identical artifacts
(timing fields aside).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import admissibility as adm
from . import asymptotics as asy
from . import neutral as nt
from .core import Grid, StateVector, time_grid
from .errors import (ConfigurationError, ContractionViolation, DimensionError,
                     DomainError, GridAlignmentError, NoConvergence,
                     NumericalFailure, PreconditionError, SemflowError)
from .maps import (BoundedControl, DirectSolve, DirichletControl,
                   IdentityControl, Neumann, PerturbationTriple,
                   perturbed_orbit)
from .semigroups import LeftTranslation, MatrixSemigroup
from .translation import DirichletSpec, MeasureSpec

_VALIDATION_ERRORS = (ConfigurationError, DimensionError, DomainError,
                      GridAlignmentError, KeyError, TypeError, ValueError)
_NUMERICAL_ERRORS = (ContractionViolation, NoConvergence, NumericalFailure,
                     PreconditionError, FloatingPointError, np.linalg.LinAlgError)

_TOP_KEYS = {"system", "grid", "method", "neumann", "seed", "initial", "probes",
             "signals", "admissibility", "asymptotics"}
_SYSTEM_KEYS = {
    "scalar": {"kind", "a", "b", "c"},
    "matrix": {"kind", "a", "b", "c"},
    "translation": {"kind", "lambda", "L", "atoms", "density"},
    "neutral": {"kind", "a", "c", "p_atoms", "p_density", "k_atoms", "k_density",
                "history_steps"},
}


def _reject_unknown(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(unknown)}")


def _reject_constant(name: str):
    raise ConfigurationError(f"config holds the non-finite number {name}; "
                             "every number must be finite")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        _reject_constant(text)
    return value


def _check_grid(grid) -> None:
    """grid.step and grid.horizon, where given, must be finite and positive."""
    if not isinstance(grid, dict):
        raise ConfigurationError("'grid' must be a JSON object")
    _reject_unknown(grid, {"step", "horizon"}, "grid")
    for key in ("step", "horizon"):
        if key not in grid:
            continue
        try:
            value = float(grid[key])
        except (TypeError, ValueError):
            value = math.nan
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigurationError(
                f"grid.{key} must be a finite positive number, got {grid[key]!r}")


def load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    with open(p, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh, parse_constant=_reject_constant,
                            parse_float=_finite_float)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")
    _reject_unknown(cfg, _TOP_KEYS, "config")
    system = cfg.get("system")
    if not isinstance(system, dict) or "kind" not in system:
        raise ConfigurationError("config needs a 'system' object with a 'kind'")
    kind = system["kind"]
    if kind not in _SYSTEM_KEYS:
        raise ConfigurationError(f"unknown system kind {kind!r}")
    _reject_unknown(system, _SYSTEM_KEYS[kind], "system")
    if "grid" not in cfg:
        raise ConfigurationError("config needs a 'grid' object")
    _check_grid(cfg["grid"])
    return cfg


def _measure_from(atoms, density) -> MeasureSpec:
    return MeasureSpec(atoms=tuple((float(a), float(w)) for a, w in (atoms or [])),
                       density=tuple((float(a), float(b), float(v))
                                     for a, b, v in (density or [])))


def build_system(cfg: dict):
    """Build the triple (or neutral system) described by the config."""
    system = cfg["system"]
    kind = system["kind"]
    step = float(cfg["grid"]["step"])
    if kind in ("scalar", "matrix"):
        a = np.atleast_2d(np.asarray(system["a"], dtype=float))
        sg = MatrixSemigroup(a)
        b = system.get("b", "identity")
        control = IdentityControl() if b == "identity" else \
            BoundedControl(np.atleast_2d(np.asarray(b, dtype=float)))
        c = np.atleast_2d(np.asarray(system["c"], dtype=float))
        return PerturbationTriple(sg, control, c)
    if kind == "translation":
        L = float(system.get("L", 10.0))
        n = int(round(L / step))
        grid = Grid(-n * step, step, n)
        base = LeftTranslation(grid)
        mu = _measure_from(system.get("atoms"), system.get("density"))
        row = mu.observation_row(grid, point_dim=1)
        control = DirichletControl(DirichletSpec(float(system.get("lambda", 1.0))))
        return PerturbationTriple(base, control, row)
    # neutral
    N = int(system.get("history_steps", round(1.0 / step)))
    if abs(N * step - 1.0) > 1e-9:
        raise ConfigurationError("history_steps * step must equal the unit delay")
    hist = Grid(-1.0, step, N)
    a = np.atleast_2d(np.asarray(system["a"], dtype=float))
    c = np.atleast_2d(np.asarray(system["c"], dtype=float))
    return nt.NeutralSystem(
        a=a,
        p_kernel=_measure_from(system.get("p_atoms"), system.get("p_density")),
        k_kernel=_measure_from(system.get("k_atoms"), system.get("k_density")),
        c=c, history_grid=hist)


def build_initial(cfg: dict, target):
    """Initial state for a simulation run."""
    init = cfg.get("initial", {})
    system = cfg["system"]
    if system["kind"] in ("scalar", "matrix"):
        _reject_unknown(init, {"x"}, "initial")
        x = np.asarray(init.get("x", np.ones(target.base.space.dim)), dtype=float)
        return StateVector.sup(x)
    if system["kind"] == "translation":
        _reject_unknown(init, {"f_kind", "amplitude", "values"}, "initial")
        grid = target.base.grid
        s = grid.points()
        fk = init.get("f_kind", "exp")
        if fk == "exp":
            vals = float(init.get("amplitude", 1.0)) * np.exp(s)
        elif fk == "values":
            vals = np.asarray(init["values"], dtype=float)
        else:
            raise ConfigurationError(f"unknown translation profile {fk!r}")
        return StateVector.grid_function(vals, grid)
    _reject_unknown(init, {"f_kind", "amplitude", "frequency", "offset",
                           "values", "y"}, "initial")
    s = target.history_grid.points()
    fk = init.get("f_kind", "cosine")
    if fk == "cosine":
        vals = (float(init.get("amplitude", 1.0))
                * np.cos(float(init.get("frequency", 2.0)) * s)
                + float(init.get("offset", 0.5)))
        f = np.tile(vals[:, None], (1, target.dim))
    elif fk == "values":
        f = np.asarray(init["values"], dtype=float).reshape(-1, target.dim)
    else:
        raise ConfigurationError(f"unknown neutral profile {fk!r}")
    yspec = init.get("y", "compatible")
    y = nt.compatible_y(target, f) if yspec == "compatible" \
        else np.asarray(yspec, dtype=float)
    return y, f


def build_probes(cfg: dict, target, seed: int):
    probes_cfg = cfg.get("probes", {})
    _reject_unknown(probes_cfg, {"count", "kind"}, "probes")
    count = int(probes_cfg.get("count", 3))
    if count < 1:
        raise ConfigurationError("probe count must be positive")
    rng = np.random.default_rng(seed)
    out = []
    if isinstance(target, nt.NeutralSystem):
        s = target.history_grid.points()
        for _ in range(count):
            coef = rng.standard_normal(3)
            f = np.tile((coef[0] + coef[1] * np.sin(2 * s)
                         + coef[2] * np.cos(s))[:, None], (1, target.dim))
            y = nt.compatible_y(target, f)
            out.append(nt.pack_initial(target, y, f))
        return out
    space = target.base.space
    if isinstance(target.base, MatrixSemigroup):
        d = space.dim
        for i in range(min(d, count)):
            out.append(StateVector.sup(np.eye(d)[i]))
        while len(out) < count:
            out.append(StateVector.sup(rng.standard_normal(d)))
        return out
    grid = target.base.grid
    s = grid.points()
    out.append(StateVector.grid_function(np.exp(s), grid))
    while len(out) < count:
        coef = rng.standard_normal(2)
        out.append(StateVector.grid_function(
            np.exp(s) * (coef[0] + coef[1] * np.sin(3 * s)), grid))
    return out


def method_from(cfg: dict):
    name = cfg.get("method", "direct")
    if name == "direct":
        return DirectSolve()
    if name == "neumann":
        ncfg = cfg.get("neumann", {})
        _reject_unknown(ncfg, {"tol", "max_terms"}, "neumann")
        return Neumann(**ncfg)
    raise ConfigurationError(f"unknown method {name!r}")


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


_CSV_BLOCK_ROWS = 128
_CSV_BUFFER_BYTES = 256 * 1024


def write_csv(path: Path, header, columns, *, trajectory=None, stride=1):
    """One row per sample of ``columns``, each value formatted by ``fmt``.

    With a ``trajectory``, the trailing columns are windows of it: row k's
    are ``trajectory[k*stride : k*stride + width]``, the last window ending
    the trajectory.  Each trajectory value is then formatted once, and row
    k's window is written as a zero-copy slice of those bytes; only the
    leading columns are formatted per row.  Either way the rows go to the
    file as bytes through one buffer, and the file is closed on return.
    """
    # b"%.17g" % v is fmt(v), encoded, for every float
    with open(path, "wb", buffering=_CSV_BUFFER_BYTES) as fh:
        fh.write((",".join(header) + "\n").encode())
        if trajectory is None:
            # one block of rows is stacked into python floats and formatted
            # by one % operation
            line = b",".join([b"%.17g"] * len(columns)) + b"\n"
            cols = [np.asarray(c, dtype=float) for c in columns]
            for a in range(0, len(cols[0]) if cols else 0, _CSV_BLOCK_ROWS):
                block = np.stack([c[a: a + _CSV_BLOCK_ROWS] for c in cols], axis=1)
                fh.write((line * len(block)) % tuple(block.ravel().tolist()))
            return
        rows = len(columns[0])
        width = len(trajectory) - (rows - 1) * stride
        heads = len(columns) - width
        # (rows, heads): the leading columns, row by row
        head = np.asarray([np.asarray(c, dtype=float) for c in columns[:heads]]
                          ).reshape(heads, rows).T
        # every trajectory value, each followed by a comma (no formatted value
        # holds one)
        text = memoryview((b"%.17g," * len(trajectory)) % tuple(trajectory.tolist()))
        # starts[i] is the offset of value i in text, starts[-1] = len(text)
        commas = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord(","))
        starts = [0] + (commas + 1).tolist()
        head_fmt = b"%.17g," * heads
        for k in range(rows):
            a = k * stride
            fh.write(head_fmt % tuple(head[k].tolist()))
            fh.write(text[starts[a]: starts[a + width] - 1])
            fh.write(b"\n")


def _numpy_json(obj):
    """numpy arrays and scalars as JSON lists and numbers."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _strict_json(name: str, obj) -> str:
    """Sorted-key strict JSON text: an inf or nan anywhere in ``obj`` is a
    numerical failure."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                          default=_numpy_json)
    except ValueError as exc:
        raise NumericalFailure(f"{name} would hold a non-finite number") from exc


def write_json(path: Path, obj: dict):
    """``obj`` as strict JSON; if it is not finite nothing is written."""
    text = _strict_json(path.name, obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _require_finite(*orbits):
    """Refuse to write an orbit holding inf or nan."""
    if not all(orb.all_finite() for orb in orbits):
        raise NumericalFailure("the orbit is not finite (overflow or nan); "
                               "nothing is written")


def _orbit_csv(path: Path, orb):
    cols = [orb.grid.points(), orb.norms]
    header = ["t", "norm"]
    for j in range(orb.states.shape[1]):
        header.append(f"x{j}")
        cols.append(orb.states[:, j])
    write_csv(path, header, cols, trajectory=orb.trajectory, stride=orb.stride)


def _manifest(cfg, seed, grid, diagnostics, started):
    return {
        "config": cfg,
        "seed": seed,
        "grid": {"step": grid.step, "horizon": grid.end, "count": grid.count},
        "diagnostics": diagnostics,
        "timing_seconds": time.time() - started,
    }


def cmd_simulate(cfg: dict, out: Path, seed: int) -> int:
    started = time.time()
    target = build_system(cfg)
    grid = time_grid(float(cfg["grid"]["horizon"]), float(cfg["grid"]["step"]))
    method = method_from(cfg)
    diagnostics = {}
    if isinstance(target, nt.NeutralSystem):
        initial = build_initial(cfg, target)
        res = nt.neutral_orbit(target, initial, grid, method=method)
        oracle = nt.method_of_steps(target, initial, grid)
        _require_finite(res.orbit, oracle)
        _orbit_csv(out / "orbit_formula.csv", res.orbit)
        _orbit_csv(out / "orbit_oracle.csv", oracle)
        diagnostics = {
            "compatibility_residual": res.compatibility_residual,
            "compatible": bool(res.compatible),
            "max_norm_deviation": float(np.max(np.abs(res.orbit.norms - oracle.norms))),
            "max_state_deviation": float(np.max(np.abs(res.orbit.states - oracle.states))),
        }
    else:
        x = build_initial(cfg, target)
        orb = perturbed_orbit(target, x, grid, method=method)
        _require_finite(orb)
        _orbit_csv(out / "orbit.csv", orb)
        diagnostics = {"initial_norm": orb.initial_norm(),
                       "final_norm": float(orb.norms[-1])}
        if isinstance(target.base, LeftTranslation):
            diagnostics["truncation_exact"] = bool(grid.end <= target.base.horizon)
    write_json(out / "manifest.json", _manifest(cfg, seed, grid, diagnostics, started))
    return 0


def cmd_admissibility(cfg: dict, out: Path, seed: int) -> int:
    started = time.time()
    target = build_system(cfg)
    acfg = cfg.get("admissibility", {})
    _reject_unknown(acfg, {"horizon", "q_threshold"}, "admissibility")
    if isinstance(target, nt.NeutralSystem):
        triple = nt.build_perturbation(target)
    else:
        triple = target
    probes = build_probes(cfg, target, seed)
    step = float(cfg["grid"]["step"])
    horizon = float(acfg.get("horizon", cfg["grid"]["horizon"]))
    grid = time_grid(horizon, step)
    scfg = cfg.get("signals", {})
    _reject_unknown(scfg, {"count"}, "signals")
    signals = adm.probe_signals(triple, grid, int(scfg.get("count", 3)), seed=seed)
    report = adm.estimate_constants(triple, probes, signals, horizon, step=step,
                                    method=method_from(cfg), io_probe_seed=seed)
    payload = report.to_dict()
    if "q_threshold" in acfg:
        mv = adm.check_miyadera_voigt(triple, probes, horizon,
                                      float(acfg["q_threshold"]), step=step)
        payload["miyadera_voigt"] = {"verdict": mv.verdict,
                                     "ratio": mv.details["ratio"],
                                     "q_threshold": mv.details["q_threshold"]}
    payload["manifest"] = _manifest(cfg, seed, grid, {}, started)
    write_json(out / "admissibility.json", payload)
    return 0


# asymptotics keys passed on to RobustnessConfig only when the config gives
# them, so each of their defaults, and their validation, lives in
# RobustnessConfig alone
_ASYMPTOTICS_KEYS = ("tol", "ergodic_tol", "uniform_window", "shifts", "n_synthetic")


def cmd_asymptotics(cfg: dict, out: Path, seed: int) -> int:
    started = time.time()
    target = build_system(cfg)
    if isinstance(target, nt.NeutralSystem):
        triple = nt.build_perturbation(target)
    else:
        triple = target
    probes = build_probes(cfg, target, seed)
    acfg = cfg.get("asymptotics", {})
    _reject_unknown(acfg, {"properties", "tail_window", "bound_hint", *_ASYMPTOTICS_KEYS},
                    "asymptotics")
    props = acfg.get("properties", ["BOUNDED", "STRONGLY_STABLE", "MEAN_ERGODIC"])
    grid_cfg = cfg["grid"]
    given = {key: acfg[key] for key in _ASYMPTOTICS_KEYS if key in acfg}
    config = asy.RobustnessConfig(
        horizon=float(grid_cfg["horizon"]), step=float(grid_cfg["step"]),
        tail_window=acfg.get("tail_window", 0.25 * float(grid_cfg["horizon"])),
        bound_hint=acfg.get("bound_hint"), seed=seed, method=method_from(cfg),
        **given)
    grid = time_grid(config.horizon, config.step)
    run = asy.asymptotics_run(triple, props, probes, config, tracks=True)
    matrix = {}
    all_pass = True
    for prop in props:
        rep = run.reports[prop]
        matrix[prop] = {
            "passes": bool(rep.passes),
            "per_probe": [{"base": p["base"]._asdict(), "perturbed": p["perturbed"]._asdict(),
                           "ok": bool(p["ok"])} for p in rep.per_probe],
            "biinvariance_violations": rep.biinvariance_violations,
        }
        all_pass &= rep.passes
    # plot data: norms and Cesaro residuals of base/perturbed orbits
    ts = grid.points()
    norm_cols, norm_head = [ts], ["t"]
    ces_cols, ces_head = [ts], ["t"]
    for i, tr in enumerate(run.tracks):
        norm_cols += [tr.base_norms, tr.pert_norms]
        norm_head += [f"base_norm_{i}", f"pert_norm_{i}"]
        ces_cols += [tr.base_cesaro, tr.pert_cesaro]
        ces_head += [f"base_cesaro_{i}", f"pert_cesaro_{i}"]
    # every artifact is checked before any is written
    if not all(np.all(np.isfinite(col)) for col in norm_cols + ces_cols):
        raise NumericalFailure("the plot data is not finite (overflow or nan); "
                               "nothing is written")
    _strict_json("asymptotics.json", matrix)
    write_csv(out / "plot_norms.csv", norm_head, norm_cols)
    write_csv(out / "plot_cesaro.csv", ces_head, ces_cols)
    payload = {"schema_version": 1, "verdicts": matrix, "all_pass": bool(all_pass),
               "manifest": _manifest(cfg, seed, grid, {}, started)}
    write_json(out / "asymptotics.json", payload)
    return 0


def cmd_neutral_compare(cfg: dict, out: Path, seed: int) -> int:
    started = time.time()
    target = build_system(cfg)
    if not isinstance(target, nt.NeutralSystem):
        raise ConfigurationError("neutral-compare requires a neutral system")
    step = float(cfg["grid"]["step"])
    horizon = float(cfg["grid"]["horizon"])
    method = method_from(cfg)
    runs = {}
    for tag, factor in (("coarse", 1), ("fine", 2)):
        sys_f = target if factor == 1 else nt.NeutralSystem(
            target.a, target.p_kernel, target.k_kernel, target.c,
            target.history_grid.refine(factor))
        grid = time_grid(horizon, step / factor)
        initial = build_initial(cfg, sys_f)
        res = nt.neutral_orbit(sys_f, initial, grid, method=method)
        runs[tag] = (res.orbit, nt.method_of_steps(sys_f, initial, grid))
    _require_finite(*(orb for pair in runs.values() for orb in pair))
    devs = {}
    for tag, (formula, oracle) in runs.items():
        _orbit_csv(out / f"orbit_formula_{tag}.csv", formula)
        _orbit_csv(out / f"orbit_oracle_{tag}.csv", oracle)
        devs[tag] = float(np.max(np.abs(formula.norms - oracle.norms)))
    # undefined (null) when a route agrees exactly with the oracle
    order = float(np.log2(devs["coarse"] / devs["fine"])) \
        if devs["coarse"] > 0 and devs["fine"] > 0 else None
    diagnostics = {"deviation": devs, "empirical_order": order}
    write_json(out / "manifest.json",
               _manifest(cfg, seed, time_grid(horizon, step), diagnostics, started))
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "admissibility": cmd_admissibility,
    "asymptotics": cmd_asymptotics,
    "neutral-compare": cmd_neutral_compare,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="semflow",
        description="simulate C0-semigroups under admissible feedback perturbations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--horizon", type=float, default=None)
        p.add_argument("--step", type=float, default=None)
        p.add_argument("--method", choices=["neumann", "direct"], default=None)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.horizon is not None:
            cfg["grid"]["horizon"] = args.horizon
        if args.step is not None:
            cfg["grid"]["step"] = args.step
        if args.method is not None:
            cfg["method"] = args.method
        _check_grid(cfg["grid"])
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 42))
        cfg["seed"] = seed
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, seed)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except _VALIDATION_ERRORS as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except SemflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
