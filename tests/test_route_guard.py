"""Route guard: the CLI routes, run in process under ``sys.setprofile`` at
short horizons, reach every public function of semflow but those that
``KEPT`` names with the reason they stay.  A public function that no route
runs belongs in ``tests/oracles.py``; a ``KEPT`` name that a route runs has
gone stale.  Both fail."""

import inspect
import json
import sys
from pathlib import Path

import semflow
from semflow.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"

TRACED = "wrapped by name in the traced benchmark (perfbench/traced.py SPANNED)"
KEPT = {name: TRACED for name in (
    "orbit", "check_bounded", "check_strongly_stable", "check_weakly_stable",
    "check_mean_ergodic", "check_uniformly_ergodic", "robustness_experiment")}
KEPT.update(control_map="one call into the compose step of the Neumann route",
            io_map="one call into the F application of the routes",
            perturbed_apply="one call into perturbed_orbit, read at t")


def workload(name, horizon, **sections):
    """A benchmark workload's config on [0, horizon], its sections updated."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    cfg["grid"]["horizon"] = horizon
    if "admissibility" in cfg:
        cfg["admissibility"]["horizon"] = horizon
    for key, value in sections.items():
        cfg[key] = {**cfg.get(key, {}), **value}
    return cfg


def routes():
    """(name, command, config, extra arguments) of every run."""
    matrix = workload("matrix-admissibility", 0.1)
    translation = workload("translation-simulate", 0.2)
    scalar = workload("scalar-asymptotics", 10.0,
                      asymptotics={"tail_window": 2.5, "n_synthetic": 8})
    # the neutral workload's system on 16 history steps, as CI's %.17g step
    system = workload("neutral-admissibility", 2.0)["system"]
    neutral = {"system": {**system, "history_steps": 16},
               "grid": {"step": 0.0625, "horizon": 2.0}, "initial": {"f_kind": "cosine"}}
    neumann = ["--method", "neumann"]
    return [
        ("matrix-admissibility", "admissibility", matrix, []),
        ("translation-simulate", "simulate", translation, []),
        ("neutral-admissibility", "admissibility", workload("neutral-admissibility", 0.25), []),
        ("scalar-asymptotics", "asymptotics", scalar, []),
        ("scalar-asymptotics-neumann", "asymptotics", scalar, neumann),
        ("matrix-simulate-direct", "simulate", matrix, ["--method", "direct"]),
        ("matrix-simulate-neumann", "simulate", matrix, neumann),
        ("translation-simulate-neumann", "simulate", translation, neumann),
        ("translation-admissibility", "admissibility", translation, []),
        ("neutral-simulate", "simulate", neutral, []),
        ("neutral-simulate-neumann", "simulate", neutral, neumann),
        ("neutral-compare", "neutral-compare", neutral, []),
        ("neutral-asymptotics", "asymptotics", neutral, []),
    ]


def run_routes(root: Path) -> set:
    """The code of every Python function that the routes run, their artifacts
    written under ``root``."""
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    for name, command, cfg, extra in routes():
        path = root / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        sys.setprofile(profile)
        try:
            code = main([command, "--config", str(path), "--out", str(root / name), *extra])
        finally:
            sys.setprofile(None)
        assert code == 0, name
    return ran


def test_every_public_function_is_run_by_a_route_or_kept(tmp_path):
    # a decorated function counts by the code it wraps
    functions = {name: inspect.unwrap(getattr(semflow, name)) for name in semflow.__all__}
    codes = {name: fn.__code__ for name, fn in functions.items() if inspect.isfunction(fn)}
    assert set(KEPT) <= set(codes)
    ran = run_routes(tmp_path)
    reached = {name for name, code in codes.items() if code in ran}
    assert sorted(set(codes) - reached - set(KEPT)) == []
    assert sorted(reached & set(KEPT)) == []
