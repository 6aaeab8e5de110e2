import gc
import importlib
import json
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from semflow import asymptotics as asy
from semflow import cli, maps, semigroups
from semflow.cli import build_probes, build_system, main
from semflow.core import time_grid
from helpers import count_calls

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"

def write_cfg(path, cfg):
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def scalar_cfg(c=0.0, horizon=5.0, step=1e-3):
    return {
        "system": {"kind": "scalar", "a": -1.0, "b": "identity", "c": c},
        "grid": {"step": step, "horizon": horizon},
        "method": "direct",
        "seed": 42,
        "initial": {"x": [1.0]},
    }


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(v) for v in line.split(",")] for line in fh])
    return header, rows


def test_simulate_unperturbed_scalar_matches_exponential(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", scalar_cfg(c=0.0))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "orbit.csv")
    assert header == ["t", "norm", "x0"]
    assert np.max(np.abs(rows[:, 2] - np.exp(-rows[:, 0]))) <= 1e-8
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 42
    assert "timing_seconds" in manifest


def test_simulate_missing_config_exits_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    assert "not found" in capsys.readouterr().err


def test_simulate_unknown_key_rejected(tmp_path):
    cfg = scalar_cfg()
    cfg["surprise"] = 1
    path = write_cfg(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 2


def test_simulate_neutral_writes_both_routes(tmp_path):
    cfg = {
        "system": {"kind": "neutral", "a": [[-1.0]], "c": [[0.2]],
                   "p_atoms": [[-1.0, 0.3]], "k_atoms": [[-1.0, 0.3]],
                   "history_steps": 128},
        "grid": {"step": 1.0 / 128, "horizon": 3.0},
        "seed": 42,
        "initial": {"f_kind": "cosine", "y": "compatible"},
    }
    path = write_cfg(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "orbit_formula.csv").exists()
    assert (tmp_path / "orbit_oracle.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["diagnostics"]["compatible"] is True
    assert manifest["diagnostics"]["max_norm_deviation"] <= 5e-3


def test_admissibility_report(tmp_path):
    cfg = scalar_cfg(c=0.5, horizon=20.0)
    cfg["probes"] = {"count": 2}
    cfg["signals"] = {"count": 2}
    cfg["admissibility"] = {"q_threshold": 0.9}
    del cfg["initial"]
    path = write_cfg(tmp_path / "cfg.json", cfg)
    assert main(["admissibility", "--config", path, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "admissibility.json").read_text())
    assert rep["schema_version"] == 1
    assert rep["q_est"] == pytest.approx(0.5, abs=1e-5)
    assert rep["miyadera_voigt"]["verdict"] == "PASS"
    assert rep["verdicts"]["io_contraction"]["verdict"] == "PASS"


def test_q_threshold_with_a_bounded_b_exits_2_and_writes_nothing(tmp_path, capsys):
    # the Miyadera-Voigt check is stated for B = Id; a bounded b is refused,
    # not skipped
    cfg = {"system": {"kind": "matrix", "a": [[-1.0, 0.2], [0.0, -1.5]],
                      "b": [[1.0, 0.0], [0.5, 1.0]], "c": [[0.3, 0.0], [0.1, 0.2]]},
           "grid": {"step": 0.01, "horizon": 2.0},
           "probes": {"count": 1}, "signals": {"count": 1},
           "admissibility": {"q_threshold": 0.9}}
    path = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["admissibility", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("validation failure: the Miyadera-Voigt check "
                                       "requires B = Id\n")
    assert list(out.iterdir()) == []


def test_admissibility_zero_control_reports_zeros(tmp_path):
    cfg = scalar_cfg(horizon=10.0)
    cfg["system"]["b"] = [[0.0]]
    cfg["system"]["c"] = 0.7
    del cfg["initial"]
    path = write_cfg(tmp_path / "cfg.json", cfg)
    assert main(["admissibility", "--config", path, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "admissibility.json").read_text())
    assert rep["m_b_est"] == 0.0
    assert rep["m_bc_est"] == 0.0
    assert rep["io_norm_est"] == 0.0


def test_admissibility_contraction_violation_reported(tmp_path):
    cfg = scalar_cfg(c=1.5, horizon=20.0, step=1e-2)
    del cfg["initial"]
    path = write_cfg(tmp_path / "cfg.json", cfg)
    assert main(["admissibility", "--config", path, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "admissibility.json").read_text())
    assert rep["io_norm_est"] > 1.0
    assert rep["verdicts"]["io_contraction"]["verdict"] == "FAIL"


def test_io_contraction_fails_on_a_delay_line_of_norm_above_one(tmp_path):
    # |mu| = 0.85 + 0.25 = 1.1; a sampled lower bound read 0.939 and PASS here
    cfg = {"system": {"kind": "translation", "lambda": 1.0, "L": 4.0,
                      "atoms": [[-1.0, 0.85]], "density": [[-3.0, -0.5, 0.1]]},
           "grid": {"step": 0.002, "horizon": 8.0},
           "probes": {"count": 3}, "signals": {"count": 3},
           "admissibility": {"horizon": 4.0}}
    path = write_cfg(tmp_path / "cfg.json", cfg)
    reps = []
    for seed in ("42", "7"):
        out = tmp_path / seed
        assert main(["admissibility", "--config", path, "--out", str(out),
                     "--seed", seed]) == 0
        reps.append(json.loads((out / "admissibility.json").read_text()))
    assert reps[0]["io_norm_est"] == pytest.approx(1.1, rel=1e-12)
    assert reps[0]["verdicts"]["io_contraction"]["verdict"] == "FAIL"
    # the bound draws nothing, so the seed does not move it
    assert reps[1]["io_norm_est"] == reps[0]["io_norm_est"]
    assert reps[1]["verdicts"]["io_contraction"] == reps[0]["verdicts"]["io_contraction"]


def test_asymptotics_verdict_matrix_and_plots(tmp_path):
    cfg = scalar_cfg(c=0.5, horizon=60.0, step=0.01)
    del cfg["initial"]
    cfg["probes"] = {"count": 2}
    cfg["asymptotics"] = {"properties": ["BOUNDED", "STRONGLY_STABLE",
                                         "MEAN_ERGODIC"],
                          "tail_window": 15.0, "n_synthetic": 10}
    path = write_cfg(tmp_path / "cfg.json", cfg)
    assert main(["asymptotics", "--config", path, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "asymptotics.json").read_text())
    assert rep["all_pass"] is True
    for prop in ("BOUNDED", "STRONGLY_STABLE", "MEAN_ERGODIC"):
        assert rep["verdicts"][prop]["passes"] is True
    # on [0, 60] the tail is still above 1e-14 of the peak: a slope is fitted
    witness = rep["verdicts"]["BOUNDED"]["per_probe"][0]["perturbed"]["witness"]
    assert witness["tail_decayed"] is False and witness["log_slope"] < 0.0
    header, rows = read_csv(tmp_path / "plot_norms.csv")
    assert header[0] == "t" and "base_norm_0" in header
    header2, _ = read_csv(tmp_path / "plot_cesaro.csv")
    assert "pert_cesaro_0" in header2


def _no_constant(token):
    raise AssertionError(f"non-standard JSON constant {token}")


def test_decayed_tail_writes_strict_json(tmp_path):
    # on [0, 100] the orbit's tail falls below 1e-14 of its peak, so the
    # bounded checker has no slope to fit and reports the decay instead
    cfg = scalar_cfg(c=0.5, horizon=100.0, step=0.05)
    del cfg["initial"]
    cfg["probes"] = {"count": 1}
    cfg["asymptotics"] = {"properties": ["BOUNDED"], "tail_window": 25.0,
                          "n_synthetic": 10}
    path = write_cfg(tmp_path / "cfg.json", cfg)
    assert main(["asymptotics", "--config", path, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "asymptotics.json").read_text(),
                     parse_constant=_no_constant)
    probe = rep["verdicts"]["BOUNDED"]["per_probe"][0]
    for side in ("base", "perturbed"):
        assert probe[side]["verdict"] == "PASS"
        assert probe[side]["witness"]["log_slope"] is None
        assert probe[side]["witness"]["tail_decayed"] is True
    assert rep["all_pass"] is True


def test_asymptotics_runs_harness_and_each_orbit_once(tmp_path, monkeypatch):
    cfg = scalar_cfg(c=0.5, horizon=20.0, step=0.01)
    del cfg["initial"]
    cfg["probes"] = {"count": 3}
    cfg["asymptotics"] = {"properties": list(asy.PROPERTIES), "tail_window": 5.0,
                          "n_synthetic": 6}
    path = write_cfg(tmp_path / "cfg.json", cfg)
    harness = count_calls(monkeypatch, asy.biinvariance_harness)
    base = count_calls(monkeypatch, maps.free_orbit)
    pert = count_calls(monkeypatch, maps.perturbed_orbit)
    assert main(["asymptotics", "--config", path, "--out", str(tmp_path)]) == 0
    assert (len(harness), len(base), len(pert)) == (1, 3, 3)
    rep = json.loads((tmp_path / "asymptotics.json").read_text())
    assert sorted(rep["verdicts"]) == sorted(asy.PROPERTIES)
    assert all(len(v["per_probe"]) == 3 for v in rep["verdicts"].values())
    # every plot column is the track of its own orbit
    triple = build_system(cfg)
    grid = time_grid(20.0, 0.01)
    _, norms = read_csv(tmp_path / "plot_norms.csv")
    _, cesaro = read_csv(tmp_path / "plot_cesaro.csv")
    assert norms.shape == cesaro.shape == (2001, 7)
    for i, x in enumerate(build_probes(cfg, triple, 42)):
        orbs = (semigroups.orbit(triple.base, x, grid),
                maps.perturbed_orbit(triple, x, grid))
        for j, orb in enumerate(orbs):
            assert np.array_equal(norms[:, 1 + 2 * i + j], orb.norms)
            assert np.array_equal(cesaro[:, 1 + 2 * i + j],
                                  asy.cesaro_residual_track(orb))


@pytest.mark.parametrize("command", ["simulate", "admissibility", "asymptotics"])
def test_each_run_encodes_its_json_once(tmp_path, monkeypatch, command):
    # the one writer checks the artifacts, encodes the JSON and writes that
    # text; before it, asymptotics encoded its verdicts a second time
    cfg = scalar_cfg(c=0.5, horizon=10.0, step=0.01)
    cfg["probes"] = {"count": 1}
    cfg["asymptotics"] = {"tail_window": 2.5, "n_synthetic": 4}
    path = write_cfg(tmp_path / "cfg.json", cfg)
    encoded = count_calls(monkeypatch, cli._strict_json)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 0
    name = {"simulate": "manifest.json"}.get(command, f"{command}.json")
    assert [args[0] for args in encoded] == [name]


def test_asymptotics_empty_probes_exit_2(tmp_path):
    cfg = scalar_cfg(c=0.5, horizon=10.0, step=0.01)
    del cfg["initial"]
    cfg["probes"] = {"count": 0}
    path = write_cfg(tmp_path / "cfg.json", cfg)
    assert main(["asymptotics", "--config", path, "--out", str(tmp_path)]) == 2


def test_neutral_compare_reports_order(tmp_path):
    cfg = {
        "system": {"kind": "neutral", "a": [[-1.0]], "c": [[0.2]],
                   "p_atoms": [[-1.0, 0.3]], "k_atoms": [[-1.0, 0.3]],
                   "history_steps": 64},
        "grid": {"step": 1.0 / 64, "horizon": 3.0},
        "seed": 42,
        "initial": {"f_kind": "cosine", "y": "compatible"},
    }
    path = write_cfg(tmp_path / "cfg.json", cfg)
    assert main(["neutral-compare", "--config", path, "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["diagnostics"]["empirical_order"] >= 0.9
    for tag in ("coarse", "fine"):
        assert (tmp_path / f"orbit_formula_{tag}.csv").exists()
        assert (tmp_path / f"orbit_oracle_{tag}.csv").exists()


def test_flag_overrides(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", scalar_cfg(c=0.0, horizon=5.0))
    out = tmp_path / "short"
    out.mkdir()
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--horizon", "1.0", "--step", "0.01", "--method", "neumann"]) == 0
    _, rows = read_csv(out / "orbit.csv")
    assert rows[-1, 0] == pytest.approx(1.0)
    assert rows.shape[0] == 101


def test_determinism_byte_identical(tmp_path):
    cfg = scalar_cfg(c=0.5, horizon=10.0, step=1e-3)
    cfg["probes"] = {"count": 2}
    del cfg["initial"]
    cfg["asymptotics"] = {"properties": ["STRONGLY_STABLE"], "tail_window": 2.5,
                          "n_synthetic": 6}
    path = write_cfg(tmp_path / "cfg.json", cfg)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        assert main(["asymptotics", "--config", path, "--out", str(out),
                     "--seed", "7"]) == 0
        outs.append(out)
    for fname in ("plot_norms.csv", "plot_cesaro.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    reports = []
    for out in outs:
        rep = json.loads((out / "asymptotics.json").read_text())
        rep["manifest"].pop("timing_seconds")
        reports.append(json.dumps(rep, sort_keys=True))
    assert reports[0] == reports[1]


def test_console_entry_point(tmp_path):
    # 0 on a run that succeeds, 1 on a blow-up orbit, 2 on a bad config
    def run(cfg):
        return subprocess.run([sys.executable, "-m", "semflow", "simulate",
                               "--config", cfg, "--out", str(tmp_path / "out")],
                              capture_output=True, text=True)

    proc = run(write_cfg(tmp_path / "ok.json", scalar_cfg(c=0.5, horizon=1.0)))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "out" / "orbit.csv").is_file()
    proc = run(write_cfg(tmp_path / "blowup.json", overflowing_scalar_cfg(50.0)))
    assert proc.returncode == 1
    assert proc.stderr.startswith("numerical failure: ")
    proc = run("does-not-exist.json")
    assert proc.returncode == 2
    assert "validation failure" in proc.stderr


def test_in_process_main_leaves_the_collector_unfrozen(tmp_path):
    frozen = gc.get_freeze_count()
    path = write_cfg(tmp_path / "cfg.json", scalar_cfg(c=0.5, horizon=0.5))
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == frozen


def test_module_entry_runs_main_on_a_frozen_heap(monkeypatch):
    seen = []

    def stub(argv=None):
        seen.append(gc.get_freeze_count())
        return 3

    monkeypatch.setattr(cli, "main", stub)
    frozen = gc.get_freeze_count()
    try:
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("semflow", run_name="__main__")
    finally:
        gc.unfreeze()
    assert exit_.value.code == 3
    # the objects that existed before main ran, the test process's too
    assert len(seen) == 1 and seen[0] > frozen


def test_installed_script_target_freezes_and_runs(tmp_path, monkeypatch):
    # the [project.scripts] target of pyproject.toml, which the installed
    # semflow command calls: importing it runs nothing, calling it runs main
    # on a frozen heap, and as a process of its own it runs a config
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module, name = target["semflow"].split(":")
    entry = getattr(importlib.import_module(module), name)
    seen = []

    def stub(argv=None):
        seen.append(gc.get_freeze_count())
        return 3

    monkeypatch.setattr(sys.modules[module], "main", stub)
    frozen = gc.get_freeze_count()
    try:
        with pytest.raises(SystemExit) as exit_:
            entry()
    finally:
        gc.unfreeze()
    assert exit_.value.code == 3 and len(seen) == 1 and seen[0] > frozen
    path = write_cfg(tmp_path / "cfg.json", scalar_cfg(c=0.5, horizon=1.0))
    code = f"import sys; from {module} import {name}; sys.exit({name}())"
    proc = subprocess.run([sys.executable, "-c", code, "simulate", "--config", path,
                           "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "out" / "orbit.csv").is_file()


@pytest.mark.parametrize("out", ["a-file", "a-file/sub"])
def test_out_that_cannot_be_a_directory_exits_2_and_names_it(tmp_path, capsys, out):
    (tmp_path / "a-file").write_text("not a directory")
    path = write_cfg(tmp_path / "cfg.json", scalar_cfg(horizon=0.5))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation failure: --out ") and err.count("\n") == 1
    assert str(tmp_path / out) in err
    assert (tmp_path / "a-file").read_text() == "not a directory"


def test_simulate_translation_system(tmp_path):
    cfg = {
        "system": {"kind": "translation", "lambda": 1.0, "L": 4.0,
                   "atoms": [[-1.0, 0.6]]},
        "grid": {"step": 0.005, "horizon": 3.0},
        "seed": 42,
        "initial": {"f_kind": "exp", "amplitude": 1.0},
    }
    path = write_cfg(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["diagnostics"]["truncation_exact"] is True
    _, rows = read_csv(tmp_path / "orbit.csv")
    assert rows.shape[0] == 601


@pytest.mark.parametrize("value, token", [(float("inf"), "Infinity"),
                                          (float("-inf"), "-Infinity"),
                                          (float("nan"), "NaN"),
                                          ("1e999", "1e999")])
def test_non_finite_config_number_exits_2(tmp_path, capsys, value, token):
    cfg = scalar_cfg(c=0.5)
    cfg["probes"] = {"count": 1}
    cfg["grid"]["horizon"] = "HORIZON"
    path = tmp_path / "cfg.json"
    # json.dumps writes inf and nan as bare tokens; 1e999 overflows a float
    path.write_text(json.dumps(cfg).replace('"HORIZON"', token))
    assert main(["admissibility", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"non-finite number {token}" in capsys.readouterr().err
    assert not (tmp_path / "admissibility.json").exists()


@pytest.mark.parametrize("key, value", [("step", 0), ("step", -1e-3),
                                        ("horizon", 0.0), ("step", "fast")])
def test_nonpositive_grid_value_exits_2(tmp_path, capsys, key, value):
    cfg = scalar_cfg()
    cfg["grid"][key] = value
    path = write_cfg(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"validation failure: grid.{key} must be a finite number > 0, got " in err
    assert "Traceback" not in err
    assert not (tmp_path / "orbit.csv").exists()


def test_zero_step_flag_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path / "cfg.json", scalar_cfg())
    assert main(["simulate", "--config", path, "--out", str(tmp_path),
                 "--step", "0"]) == 2
    assert "grid.step must be a finite number > 0, got 0.0" in capsys.readouterr().err


@pytest.mark.parametrize("command, a", [("simulate", 1e308), ("admissibility", -1e308)])
def test_out_of_range_matrix_exponential_exits_2(tmp_path, capsys, command, a):
    # exp(t*a) for ||t*a|| near the float limit cannot be scaled and squared;
    # a finite config that gets there is rejected, not a traceback
    cfg = {"system": {"kind": "matrix", "a": [[a]], "b": "identity", "c": [[0.5]]},
           "grid": {"step": 1.0, "horizon": 2.0}, "method": "direct"}
    path = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", path, "--out", str(out)]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("validation failure: matrix exponential out of range")
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_non_finite_translation_orbit_exits_1_and_writes_nothing(tmp_path, capsys):
    cfg = {
        "system": {"kind": "translation", "lambda": 1.0, "L": 4.0,
                   "atoms": [[-1.0, 0.5]], "density": [[-3.0, -0.5, 0.1]]},
        "grid": {"step": 0.002, "horizon": 1.0},
        "initial": {"f_kind": "exp", "amplitude": 1e308},
    }
    path = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", path, "--out", str(out)]) == 1
    # outside a test harness a numpy warning would print to stderr as well
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ("numerical failure: the orbit is not finite "
                                       "(overflow or nan); nothing is written\n")
    assert not (out / "orbit.csv").exists()
    assert not (out / "manifest.json").exists()


def neutral_cfg(**system):
    cfg = {
        "system": {"kind": "neutral", "a": [[-1.0, 0.3], [0.0, -1.5]],
                   "c": [[0.5, 0.0], [0.1, 0.4]], "p_atoms": [[-1.0, 0.3]],
                   "k_atoms": [[-1.0, 0.25]], "history_steps": 16},
        "grid": {"step": 0.0625, "horizon": 1.0},
        "initial": {"f_kind": "cosine"},
    }
    cfg["system"].update(system)
    return cfg


def test_neutral_alpha_key_exits_2_and_names_it(tmp_path, capsys):
    path = write_cfg(tmp_path / "cfg.json", neutral_cfg(alpha=2.0))
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert "unknown keys in system: ['alpha']" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_non_finite_neutral_compare_exits_1_and_writes_nothing(tmp_path, capsys):
    cfg = neutral_cfg()
    cfg["initial"]["amplitude"] = 1e308
    path = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["neutral-compare", "--config", path, "--out", str(out)]) == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ("numerical failure: the orbit is not finite "
                                       "(overflow or nan); nothing is written\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "neutral-compare"])
def test_overflowing_neutral_routes_exit_1_quietly(tmp_path, capsys, command):
    # both routes overflow to inf, so the deviation between them, taken
    # before the writer refuses the orbits, meets inf - inf
    path = write_cfg(tmp_path / "cfg.json", neutral_cfg(a=[[800.0, 0.3], [0.0, 800.0]]))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", path, "--out", str(out)]) == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ("numerical failure: the orbit is not finite "
                                       "(overflow or nan); nothing is written\n")
    assert list(out.iterdir()) == []


def overflowing_scalar_cfg(horizon):
    # exp(20 t) overflows long before t = 50
    return {
        "system": {"kind": "scalar", "a": 20.0, "b": "identity", "c": 0.5},
        "grid": {"step": 0.01, "horizon": horizon},
        "probes": {"count": 1},
        "signals": {"count": 1},
    }


@pytest.mark.parametrize("extra", [{}, {"admissibility": {"q_threshold": 0.9}}],
                         ids=["constants", "miyadera_voigt"])
def test_overflowing_admissibility_exits_1_and_writes_nothing(tmp_path, capsys, extra):
    path = write_cfg(tmp_path / "cfg.json", {**overflowing_scalar_cfg(50.0), **extra})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["admissibility", "--config", path, "--out", str(out)]) == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ("numerical failure: admissibility.json would "
                                       "hold a non-finite number\n")
    assert list(out.iterdir()) == []


def test_overflowing_asymptotics_exits_1_and_writes_nothing(tmp_path, capsys):
    path = write_cfg(tmp_path / "cfg.json", overflowing_scalar_cfg(100.0))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["asymptotics", "--config", path, "--out", str(out)]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert err.endswith("\n")
    assert list(out.iterdir()) == []


def test_memory_error_exits_1_in_one_line_and_writes_nothing(tmp_path):
    # grid.step 1e-9 asks numpy for about 30 GiB of probe signals; the child
    # caps its own address space at 2 GiB, so the allocation fails at once
    cfg = json.loads((CONFIGS / "matrix-admissibility.json").read_text())
    cfg["grid"]["step"] = 1e-9
    path = write_cfg(tmp_path / "cfg.json", cfg)
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from semflow.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", code, "admissibility", "--config", path,
                           "--out", str(out)], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 1
    assert proc.stderr.startswith("numerical failure: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert list(out.iterdir()) == []


def test_singular_c_with_compatible_y_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path / "cfg.json", neutral_cfg(c=[[1.0, 0.0], [0.0, 0.0]]))
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "validation failure: a compatible y needs an invertible C" in err
    assert not (tmp_path / "orbit_formula.csv").exists()


def test_neutral_compare_exact_agreement_writes_null_order(tmp_path):
    # zero data: both routes give the zero orbit, so the order is undefined
    cfg = neutral_cfg()
    cfg["initial"].update({"amplitude": 0.0, "offset": 0.0})
    path = write_cfg(tmp_path / "cfg.json", cfg)
    assert main(["neutral-compare", "--config", path, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "manifest.json").read_text()
    assert "Infinity" not in text and "NaN" not in text
    manifest = json.loads(text)
    assert manifest["diagnostics"]["deviation"] == {"coarse": 0.0, "fine": 0.0}
    assert manifest["diagnostics"]["empirical_order"] is None


@pytest.mark.parametrize("key, value", [("max_terms", 0), ("max_terms", -3),
                                        ("max_terms", 2.5), ("tol", -1.0)])
def test_malformed_neumann_setting_exits_2_and_names_it(tmp_path, capsys, key, value):
    # max_terms 0 used to fail on formatting a missing residual, and tol -1
    # ran all 300 terms and exited 1 as a numerical failure
    cfg = scalar_cfg(c=0.5)
    cfg["method"] = "neumann"
    cfg["neumann"] = {key: value}
    path = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation failure: Neumann {key} must be ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("n_synthetic", -1), ("n_synthetic", 2.5), ("tail_window", -1.0),
    ("tail_window", 0.0), ("uniform_window", -1.0), ("tol", -1.0), ("tol", 0.0),
    ("ergodic_tol", -1.0), ("shifts", [5.0, 40.0]), ("bound_hint", -1.0),
    ("bound_hint", "x")])
def test_malformed_asymptotics_setting_exits_2_and_names_it(tmp_path, capsys, key, value):
    # each of these used to exit 0 (n_synthetic -1 ran an empty zoo; with
    # bound_hint -1 every BOUNDED verdict failed), or 2 with a message that
    # names no key: a numpy broadcast error (uniform_window -1), "shift
    # removes the entire orbit" (shift 40), a failed product (bound_hint "x")
    cfg = scalar_cfg(c=0.5, horizon=20.0, step=0.01)
    del cfg["initial"]
    cfg["asymptotics"] = {"properties": list(asy.PROPERTIES), key: value}
    path = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["asymptotics", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation failure: {key} must be ")
    assert "Traceback" not in err
    assert not out.exists()


COMMANDS = list(cli._COMMANDS)
SECTIONS = ["grid", "initial", "neumann", "probes", "signals", "admissibility", "asymptotics"]


@pytest.mark.parametrize("value", [[], "exp", 3], ids=["list", "string", "number"])
@pytest.mark.parametrize("key", SECTIONS)
def test_config_section_that_is_no_object_exits_2_and_names_it(tmp_path, capsys, key, value):
    # "initial": [] used to end in an AttributeError traceback, and "exp"
    # was read as its characters ("unknown keys in initial: ['e', 'p', 'x']");
    # every command checks every section, also one it does not read: a
    # simulate with "signals": "exp", or a direct run with "neumann": 3,
    # used to exit 0
    for command in COMMANDS:
        for method in ("direct", "neumann"):
            cfg = scalar_cfg(c=0.5, horizon=1.0, step=0.01)
            cfg["method"] = method
            cfg[key] = value
            path = write_cfg(tmp_path / "cfg.json", cfg)
            out = tmp_path / "out"
            assert main([command, "--config", path, "--out", str(out)]) == 2, (command, method)
            err = capsys.readouterr().err
            assert err.startswith(f"validation failure: '{key}' must be a JSON object, got ")
            assert "Traceback" not in err
            assert not out.exists()


@pytest.mark.parametrize("command, section, key, value, must", [
    ("admissibility", "probes", "count", "3", "be an integer >= 1"),
    ("admissibility", "probes", "count", 2.5, "be an integer >= 1"),
    ("admissibility", "signals", "count", True, "be an integer >= 1"),
    ("asymptotics", "asymptotics", "properties", "BOUNDED", "be a list of property names"),
    ("asymptotics", "asymptotics", "properties", ["BOUNDED", 1],
     "be a list of property names")])
def test_malformed_count_or_properties_exits_2_and_names_it(tmp_path, capsys, command,
                                                            section, key, value, must):
    # "3" and 2.5 used to be read as 3 and 2, and the string "BOUNDED" as its
    # characters ("unknown property 'B'")
    cfg = scalar_cfg(c=0.5, horizon=20.0, step=0.01)
    cfg[section] = {key: value}
    path = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation failure: {section}.{key} must {must}, got ")
    assert not out.exists()


@pytest.mark.parametrize("seed, flag", [
    (3.7, []), (True, []), ("abc", []), (None, []), ([1], []), (-4, []),
    (42, ["--seed", "-1"])], ids=["float", "bool", "string", "null", "list", "negative",
                                  "negative-flag"])
@pytest.mark.parametrize("command", ["simulate", "admissibility"])
def test_malformed_seed_exits_2_and_names_it(tmp_path, capsys, command, seed, flag):
    # 3.7 and true used to run as seeds 3 and 1 and exit 0; "abc", null and
    # [1] exited 2 with int()'s message, and -4 only once numpy refused it
    cfg = scalar_cfg(c=0.5, horizon=1.0, step=0.01)
    cfg["seed"] = seed
    path = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out), *flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation failure: seed must be an integer >= 0, got ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, section, key", [
    ("admissibility", "probes", "kind"),
    ("admissibility", "signals", "kind"),
    ("simulate", "grid", "surprise"),
    # a section the command does not read, each of which used to exit 0
    ("simulate", "admissibility", "hoizon"),
    ("simulate", "asymptotics", "bogus"),
    ("admissibility", "initial", "xx"),
    ("asymptotics", "initial", "xx"),
    # "neumann" on a direct run, the method of scalar_cfg
    ("simulate", "neumann", "tool"),
    ("admissibility", "neumann", "tool"),
    ("asymptotics", "neumann", "tool"),
    ("neutral-compare", "neumann", "tool")])
def test_unknown_section_key_exits_2_and_names_it(tmp_path, capsys, command, section, key):
    cfg = scalar_cfg(c=0.5, horizon=1.0, step=0.01)
    cfg.setdefault(section, {})[key] = "no-such-kind"
    path = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert f"unknown keys in {section}: ['{key}']" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def number_bases():
    """A valid config of each command that reads a number of the README
    schema, and the numbers of the schema in it, one path each."""
    scalar = scalar_cfg(c=0.5, horizon=1.0, step=0.1)
    neumann = {**scalar, "method": "neumann", "neumann": {"tol": 1e-10, "max_terms": 300}}
    matrix = {**scalar, "system": {"kind": "matrix", "a": [[-1.0]], "b": [[1.0]],
                                   "c": [[0.5]]}}
    admissibility = {**scalar, "probes": {"count": 1}, "signals": {"count": 1},
                     "admissibility": {"horizon": 1.0, "q_threshold": 0.9}}
    asymptotics = {**scalar_cfg(c=0.5, horizon=20.0, step=0.01),
                   "asymptotics": {"tail_window": 5.0, "tol": 1e-3, "ergodic_tol": 1e-2,
                                   "uniform_window": 6.2832, "bound_hint": 2.0,
                                   "shifts": [5.0], "n_synthetic": 4}}
    translation = {"system": {"kind": "translation", "lambda": 1.0, "L": 1.0,
                              "atoms": [[-0.5, 0.5]], "density": [[-1.0, -0.5, 0.1]]},
                   "grid": {"step": 0.1, "horizon": 0.5},
                   "initial": {"f_kind": "exp", "amplitude": 1.0}}
    neutral = neutral_cfg(p_density=[[-0.75, -0.25, 0.2]], k_density=[[-1.0, -0.5, 0.1]])
    neutral["initial"] = {"f_kind": "cosine", "amplitude": 1.0, "frequency": 2.0,
                          "offset": 0.5, "y": [1.0, 1.0]}
    measures = [(key, i) for key in ("atoms", "density") for i in range(2 + (key == "density"))]
    return [
        ("simulate", scalar, [("system", "a"), ("system", "c"), ("initial", "x", 0),
                              ("grid", "step"), ("grid", "horizon"), ("seed",)]),
        ("simulate", {**scalar, "system": {**scalar["system"], "b": 1.0}}, [("system", "b")]),
        ("simulate", matrix, [("system", key, 0, 0) for key in "abc"]),
        ("simulate", neumann, [("neumann", "tol"), ("neumann", "max_terms")]),
        ("admissibility", admissibility,
         [("probes", "count"), ("signals", "count"), ("admissibility", "horizon"),
          ("admissibility", "q_threshold")]),
        ("asymptotics", asymptotics,
         [("asymptotics", key) for key in asymptotics["asymptotics"] if key != "shifts"]
         + [("asymptotics", "shifts", 0)]),
        ("simulate", translation,
         [("system", "lambda"), ("system", "L"), ("initial", "amplitude")]
         + [("system", key, 0, i) for key, i in measures]),
        ("simulate", {**translation, "initial": {"f_kind": "values", "values": [1.0] * 11}},
         [("initial", "values", 0)]),
        ("simulate", neutral,
         [("system", "a", 0, 0), ("system", "c", 0, 0), ("system", "history_steps"),
          ("initial", "amplitude"), ("initial", "frequency"), ("initial", "offset"),
          ("initial", "y", 0)]
         + [("system", side + key, 0, i) for side in ("p_", "k_") for key, i in measures]),
        ("simulate", {**neutral, "initial": {"f_kind": "values", "values": [0.5] * 34}},
         [("initial", "values", 0)]),
    ]


INTEGER_KEYS = {"seed", "probes.count", "signals.count", "neumann.max_terms",
                "asymptotics.n_synthetic", "system.history_steps"}


def malformed_numbers():
    """(command, config, dotted key) with one number of the config replaced
    by true, by false, by its text, and for an integer key by 1.5."""
    for command, base, paths in number_bases():
        for path in paths:
            key = ".".join(p for p in path if isinstance(p, str))
            *parents, last = path
            here = base
            for p in parents:
                here = here[p]
            bad = [True, False, str(here[last])] + [1.5] * (key in INTEGER_KEYS)
            for value in bad:
                cfg = json.loads(json.dumps(base))
                here = cfg
                for p in parents:
                    here = here[p]
                here[last] = value
                yield pytest.param(command, cfg, key,
                                   id=f"{'.'.join(map(str, path))}={value!r}")


@pytest.mark.parametrize("command, cfg, key", malformed_numbers())
def test_a_number_that_is_a_bool_a_string_or_a_fraction_exits_2_and_names_it(
        tmp_path, capsys, command, cfg, key):
    # true and false used to run as 1.0 and 0.0 where float() or numpy read
    # them, "0.1" as 0.1, and an integer key's 1.5 as 1
    path = write_cfg(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    section, name = key.split(".")[0], key.split(".")[-1]
    shown = {"neumann": f"Neumann {name}", "asymptotics": name}.get(section, key)
    assert err.startswith(f"validation failure: {shown} must be ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]


def test_tol_true_is_no_tolerance_of_one(tmp_path, capsys):
    # the perturbed orbit of a = -1, c = 1.5 grows like exp(t / 2): at the
    # default tol neither stability survives the perturbation, and tol true,
    # once run as tol 1.0, reported both as robust
    cfg = scalar_cfg(c=1.5, horizon=20.0, step=0.01)
    cfg["asymptotics"] = {"properties": ["STRONGLY_STABLE", "WEAKLY_STABLE"]}
    path = write_cfg(tmp_path / "cfg.json", cfg)
    assert main(["asymptotics", "--config", path, "--out", str(tmp_path / "default")]) == 0
    verdicts = json.loads((tmp_path / "default" / "asymptotics.json").read_text())["verdicts"]
    assert [v["passes"] for v in verdicts.values()] == [False, False]
    cfg["asymptotics"]["tol"] = True
    path = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "true"
    assert main(["asymptotics", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "validation failure: tol must be a finite number > 0, got True\n"
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("section, key, value, message", [
    ("neumann", "tol", True, "Neumann tol must be a finite number >= 0, got True"),
    ("asymptotics", "tol", True, "tol must be a finite number > 0, got True"),
    ("admissibility", "horizon", "x",
     "admissibility.horizon must be a finite number > 0, got 'x'"),
    ("probes", "count", 0, "probes.count must be an integer >= 1, got 0"),
    ("asymptotics", "properties", "BOUNDED",
     "asymptotics.properties must be a list of property names, got 'BOUNDED'")])
def test_a_section_the_command_does_not_read_is_checked_in_full(tmp_path, capsys, section,
                                                                key, value, message):
    # a direct simulate reads none of these sections, and each used to exit 0
    cfg = scalar_cfg(c=0.5, horizon=1.0, step=0.01)
    cfg[section] = {key: value}
    path = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"validation failure: {message}\n"
    assert not out.exists()


def translation_cfg(**system):
    return {"system": {"kind": "translation", "L": 4.0, "atoms": [[-1.0, 0.5]], **system},
            "grid": {"step": 0.001, "horizon": 0.5}}


def misshapen_configs():
    """(config, message) of configs that miss a required key or hold a list
    of the wrong shape, or an L off the step."""
    no_horizon, no_a = scalar_cfg(), scalar_cfg()
    del no_horizon["grid"]["horizon"], no_a["system"]["a"]
    no_values = {**translation_cfg(), "initial": {"f_kind": "values"}}
    ragged = [[1.0, 2.0], [3.0]]
    return [
        (no_horizon, "config needs grid.horizon"),
        (no_a, "config needs system.a"),
        (no_values, "config needs initial.values when initial.f_kind is 'values'"),
        (translation_cfg(atoms=[[-1.0, 0.5, 2.0]]),
         "system.atoms must be a list of rows of 2 numbers, got [[-1.0, 0.5, 2.0]]"),
        (neutral_cfg(p_density=[[-0.75, 0.2]]),
         "system.p_density must be a list of rows of 3 numbers, got [[-0.75, 0.2]]"),
        ({**scalar_cfg(), "system": {"kind": "matrix", "a": ragged, "c": [[0.5]]}},
         f"system.a must be a number or lists of numbers of equal lengths, got {ragged}"),
        ({**neutral_cfg(), "initial": {"f_kind": "values", "values": ragged}},
         f"initial.values must be a number or lists of numbers of equal lengths, got {ragged}"),
        ({**neutral_cfg(), "initial": {"f_kind": "values", "values": [0.5] * 33}},
         "initial.values must be k * 2 numbers, got 33"),
        # L used to be rounded to the grid: 4.0004 ran as 4.000, 1.0006 as 1.001
        (translation_cfg(L=4.0004), "system.L 4.0004 is not a positive multiple of step 0.001"),
        (translation_cfg(L=1.0006), "system.L 1.0006 is not a positive multiple of step 0.001"),
    ]


@pytest.mark.parametrize("cfg, message", misshapen_configs())
def test_a_missing_key_a_misshapen_list_or_an_l_off_the_step_exits_2_and_names_it(
        tmp_path, capsys, cfg, message):
    # each of these but L used to reach exit 2 only through a catch-all of
    # KeyError, TypeError and ValueError, with messages such as 'horizon' or
    # "too many values to unpack (expected 2)"
    path = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"validation failure: {message}\n"
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]
