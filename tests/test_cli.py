import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from semflow import asymptotics as asy
from semflow import maps, semigroups
from semflow.cli import build_probes, build_system, main
from semflow.core import time_grid
from helpers import count_calls


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


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "semflow", "simulate",
                           "--config", "does-not-exist.json"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "validation failure" in proc.stderr


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
    assert f"validation failure: grid.{key} must be a finite positive number" in err
    assert "Traceback" not in err
    assert not (tmp_path / "orbit.csv").exists()


def test_zero_step_flag_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path / "cfg.json", scalar_cfg())
    assert main(["simulate", "--config", path, "--out", str(tmp_path),
                 "--step", "0"]) == 2
    assert "grid.step must be a finite positive number" in capsys.readouterr().err


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
    assert list(out.iterdir()) == []


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
    assert list(out.iterdir()) == []


# the command that reads each optional config section
SECTION_COMMANDS = {"grid": "simulate", "initial": "simulate", "neumann": "simulate",
                    "probes": "admissibility", "signals": "admissibility",
                    "admissibility": "admissibility", "asymptotics": "asymptotics"}


@pytest.mark.parametrize("value", [[], "exp", 3], ids=["list", "string", "number"])
@pytest.mark.parametrize("key", list(SECTION_COMMANDS))
def test_config_section_that_is_no_object_exits_2_and_names_it(tmp_path, capsys, key, value):
    # "initial": [] used to end in an AttributeError traceback, and "exp"
    # was read as its characters ("unknown keys in initial: ['e', 'p', 'x']")
    cfg = scalar_cfg(c=0.5, horizon=1.0, step=0.01)
    cfg["method"] = "neumann"
    cfg[key] = value
    path = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert main([SECTION_COMMANDS[key], "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation failure: '{key}' must be a JSON object, got ")
    assert "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("command, section, key, value, must", [
    ("admissibility", "probes", "count", "3", "be an integer"),
    ("admissibility", "probes", "count", 2.5, "be an integer"),
    ("admissibility", "signals", "count", True, "be an integer"),
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
    assert list(out.iterdir()) == []


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
    assert err.startswith("validation failure: seed must be a non-negative integer, got ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, section, key", [
    ("admissibility", "probes", "kind"),
    ("admissibility", "signals", "kind"),
    ("simulate", "grid", "surprise")])
def test_unknown_section_key_exits_2_and_names_it(tmp_path, capsys, command, section, key):
    cfg = scalar_cfg(c=0.5, horizon=1.0, step=0.01)
    cfg.setdefault(section, {})[key] = "no-such-kind"
    path = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert f"unknown keys in {section}: ['{key}']" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []
