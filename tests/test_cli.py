import json
import subprocess
import sys

import numpy as np
import pytest

from semflow.cli import main


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
    header, rows = read_csv(tmp_path / "plot_norms.csv")
    assert header[0] == "t" and "base_norm_0" in header
    header2, _ = read_csv(tmp_path / "plot_cesaro.csv")
    assert "pert_cesaro_0" in header2


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
