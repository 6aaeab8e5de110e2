"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.
"""

import json
import math

import numpy as np
import pytest
import scipy.linalg

import semflow as sf
from semflow import asymptotics as asy
from semflow import neutral as nt
from semflow.cli import main as cli_main
from helpers import atom_system, block_deviation, neutral_initial, scalar_mv
from oracles import (boundary_control_by_quadrature, boundary_control_closed_form,
                     check_desch_schappacher, io_infty_closed_form, scaling_conjugation,
                     total_variation)


def report(num, label, ok, detail):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_scalar_exactness():
    q = 0.5
    triple = scalar_mv(q)
    x = sf.StateVector.sup([1.0])
    errs = {}
    for h in (1e-3, 5e-4):
        grid = sf.time_grid(10.0, h)
        orb = sf.perturbed_orbit(triple, x, grid)
        errs[h] = float(np.max(np.abs(orb.states[:, 0]
                                      - np.exp((q - 1.0) * grid.points()))))
    ratio = errs[5e-4] / errs[1e-3]
    ok = errs[1e-3] <= 1e-4 and ratio <= 0.65
    report(1, "scalar exactness vs exp((q-1)t)", ok,
           f"Linf={errs[1e-3]:.3e} (tol 1e-4), halving ratio={ratio:.3f}")


def test_criterion_2_matrix_bounded_equivalence():
    rng = np.random.default_rng(3)
    h = 2e-4
    grid = sf.time_grid(5.0, h)
    worst = 0.0
    for _ in range(5):
        d = 4
        a = np.diag(-(1.0 + rng.uniform(0, 1, d)))
        off = 0.25 * rng.standard_normal((d, d))
        a = a + off - np.diag(np.diag(off))
        c = 0.05 * rng.standard_normal((d, d))
        x = rng.standard_normal(d)
        triple = sf.PerturbationTriple(sf.MatrixSemigroup(a),
                                       sf.IdentityControl(), c)
        orb = sf.perturbed_orbit(triple, sf.StateVector.sup(x), grid)
        e = scipy.linalg.expm(h * (a + c))
        ref = np.empty((grid.count + 1, d))
        v = x.copy()
        for k in range(grid.count + 1):
            ref[k] = v
            v = e @ v
        worst = max(worst, float(np.max(np.abs(orb.states - ref))))
    ok = worst <= 1e-3
    report(2, "4x4 bounded perturbation vs expm(A+C)", ok,
           f"worst Linf={worst:.3e} (tol 1e-3, 5 seeded instances)")


def test_criterion_3_miyadera_voigt_bound():
    h = 1e-3
    worst_excess = -np.inf
    for q in (0.1, 0.5, 0.9):
        triple = scalar_mv(q)
        bound = q / (1.0 - q)
        for xval in (1.0, -2.0, 0.5):
            x = sf.StateVector.sup([xval])
            v = sf.observation_map(triple, 60.0, x, step=h)
            w = sf.invert_io(triple, 60.0, v)
            sup = float(np.max(w.running_l1()))
            worst_excess = max(worst_excess, sup - bound * abs(xval))
    ok = worst_excess <= 1e-6
    report(3, "MV chain sup ||(I-F)^-1 C x|| <= q/(1-q) ||x||", ok,
           f"worst excess={worst_excess:.3e} (tol 1e-6, q in {{0.1,0.5,0.9}})")


def test_criterion_4_neumann_geometric_bound():
    rng = np.random.default_rng(11)
    rhos = [0.25, 0.5, 0.75]
    worst_term_margin = np.inf
    worst_total_margin = np.inf
    for i in range(10):
        rho = rhos[i % 3]
        d = 1 + (i % 2)
        diag = -(0.8 + 0.8 * rng.uniform(size=d))
        omega = float(-np.max(diag))
        a = np.diag(diag)
        b = rho * omega * np.eye(d)
        x = sf.StateVector.sup(rng.uniform(0.5, 2.0, size=d)
                               * rng.choice([-1.0, 1.0], size=d))
        triple = sf.PerturbationTriple(sf.MatrixSemigroup(a),
                                       sf.BoundedControl(b), np.eye(d))
        horizon = math.ceil(40.0 / omega / 0.5) * 0.5  # grid-commensurate
        # the trapezoid overshoot of the n=0 term is h^2 w ||x|| / 12; the
        # step keeps it well inside the 1e-8 per-term slack
        res = check_desch_schappacher(triple, [x], omega=omega, m=1.0,
                                      horizon=horizon, step=1e-4,
                                      n_terms=20, term_tol=1e-8)
        assert res.verdict == "PASS"
        probe = res.details["per_probe"][0]
        worst_term_margin = min(worst_term_margin, probe["min_term_margin"])
        worst_total_margin = min(worst_total_margin,
                                 probe["total_bound"] - probe["total"])
    ok = worst_term_margin >= 0.0 and worst_total_margin >= 0.0
    report(4, "Neumann terms under rho^n (M/w)||x|| and total under M/(w-m||B||)",
           ok, f"min term margin={worst_term_margin:.2e} (slack 1e-8/term), "
               f"min total margin={worst_total_margin:.2e} (strict)")


def test_criterion_5_translation_example():
    h = 1e-3
    L = 10.0
    g = sf.Grid(-L, h, int(round(L / h)))
    spec = sf.DirichletSpec(1.0)
    tg = sf.time_grid(2.0, h)
    t = tg.points()
    u = sf.InputSignal.scalar(tg, np.sin(np.pi * t) ** 2 * (1.0 + 0.3 * t))
    cf = boundary_control_closed_form(spec, 1.5, u, g)
    qd = boundary_control_by_quadrature(spec, 1.5, u, g)
    l1_dev = cf.space.norm(cf.coords - qd.coords)
    quad_ok = l1_dev <= 5 * h

    # contraction over 100 seeded inputs, mixed atom + density measure
    h2 = 2e-3
    tg2 = sf.time_grid(8.0, h2)
    mu = sf.MeasureSpec(atoms=((-1.0, 0.4),), density=((-2.0, 0.0, 0.15),))
    tv = total_variation(mu)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        raw = rng.standard_normal(tg2.count + 1)
        raw[0] = 0.0
        us = sf.InputSignal.scalar(tg2, raw)
        fu = io_infty_closed_form(mu, us)
        worst = max(worst, fu.l1_norm() / (tv * us.l1_norm()))
    contraction_ok = worst <= 1.0 + 1e-12

    # single-atom pure delay: equality case
    atom = sf.MeasureSpec(atoms=((-1.0, 0.8),))
    t2 = tg2.points()
    vals = np.where((t2 > 0.5) & (t2 < 3.5), np.sin(t2) ** 2, 0.0)
    ud = sf.InputSignal.scalar(tg2, vals)
    fu = io_infty_closed_form(atom, ud)
    eq_dev = abs(fu.l1_norm() - 0.8 * ud.l1_norm())
    eq_ok = eq_dev <= 1e-6

    ok = quad_ok and contraction_ok and eq_ok
    report(5, "translation example: closed forms, contraction, delay equality",
           ok, f"quad-vs-closed L1={l1_dev:.3e} (tol {5 * h:.0e}), "
               f"worst contraction ratio={worst:.6f}, equality dev={eq_dev:.2e}")


def test_criterion_6_neutral_oracle_equivalence():
    worst = 0.0
    worst_ratio = 0.0
    for d in (1, 2):
        a = -np.eye(d) if d == 1 else np.array([[-1.0, 0.3], [0.0, -2.0]])
        devs = {}
        for n in (256, 512):
            sys0 = atom_system(0.3, 0.3, 0.2, n_hist=n, a=a, d=d)
            y, f = neutral_initial(sys0, seed=3)
            grid = sf.time_grid(5.0, 1.0 / n)
            res = nt.neutral_orbit(sys0, (y, f), grid)
            oracle = nt.method_of_steps(sys0, (y, f), grid)
            devs[n] = block_deviation(sys0, res.orbit, oracle)
        worst = max(worst, devs[256])
        worst_ratio = max(worst_ratio, devs[512] / devs[256])
    ok = worst <= 1e-3 and worst_ratio <= 0.65
    report(6, "neutral formula vs method-of-steps (scalar and 2x2)", ok,
           f"worst Linf={worst:.3e} (tol 1e-3 at step 1/256), "
           f"halving ratio={worst_ratio:.3f}")


def test_criterion_7_strong_stability_and_conjugation():
    n = 256
    alpha = 0.5
    hist = sf.Grid(-1.0, 1.0 / n, n)
    sys0 = nt.NeutralSystem(a=[[-1.0]],
                            p_kernel=sf.MeasureSpec(atoms=((-1.0, alpha * 0.25),)),
                            k_kernel=sf.MeasureSpec(atoms=((-1.0, 0.25),)),
                            c=[[1.0]], history_grid=hist)
    grid = sf.time_grid(40.0, 1.0 / n)
    rng = np.random.default_rng(42)
    worst_ratio = 0.0
    for _ in range(5):
        coef = rng.standard_normal(3)
        s = hist.points()
        f = (coef[0] + coef[1] * np.sin(2 * s) + coef[2] * np.cos(s))[:, None]
        y = nt.compatible_y(sys0, f)
        res = nt.neutral_orbit(sys0, (y, f), grid)
        worst_ratio = max(worst_ratio,
                          float(res.orbit.norms[-1] / res.orbit.norms[0]))
    decay_ok = worst_ratio < 1e-3

    tilde = scaling_conjugation(sys0, alpha)
    s = hist.points()
    f = (np.sin(3 * s) + 0.8)[:, None]
    y = nt.compatible_y(sys0, f)
    g5 = sf.time_grid(5.0, 1.0 / n)
    orb_main = nt.neutral_orbit(sys0, (y, f), g5).orbit
    orb_tilde = nt.neutral_orbit(tilde, (y, alpha * f), g5).orbit
    unscaled = orb_tilde.states.copy()
    unscaled[:, 1:] /= alpha
    conj_dev = float(np.max(np.abs(orb_main.states - unscaled)))
    conj_ok = conj_dev <= 1e-8
    ok = decay_ok and conj_ok
    report(7, "strong stability (M*alpha < omega) and scaling conjugation", ok,
           f"worst norm ratio at t=40: {worst_ratio:.2e} (tol 1e-3), "
           f"conjugation dev={conj_dev:.2e} (tol 1e-8)")


def test_criterion_8_robustness_suite():
    failures = []
    # strongly stable family: scalar MV perturbations
    cfg = asy.RobustnessConfig(horizon=60.0, step=0.01, tail_window=15.0,
                               n_synthetic=50, shifts=(5.0, 10.0))
    for q in (0.1, 0.5):
        for prop in ("BOUNDED", "STRONGLY_STABLE", "MEAN_ERGODIC"):
            rep = asy.robustness_experiment(
                scalar_mv(q), prop,
                [sf.StateVector.sup([1.0]), sf.StateVector.sup([-2.0])], cfg)
            base_passes = [r["base"].verdict == "PASS" for r in rep.per_probe]
            if not rep.passes:
                failures.append((q, prop))
            if prop in ("BOUNDED", "STRONGLY_STABLE"):
                assert all(base_passes)
            assert rep.biinvariance_violations == []
    # bounded, mean-ergodic (not stable) base: rotation plus damped channel
    a = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -0.5]])
    cmat = np.zeros((3, 3))
    cmat[0, 2] = 0.05
    rot = sf.PerturbationTriple(sf.MatrixSemigroup(a), sf.IdentityControl(), cmat)
    cfg_rot = asy.RobustnessConfig(horizon=800.0, step=0.05, tail_window=200.0,
                                   ergodic_tol=2e-2, n_synthetic=50,
                                   shifts=(5.0, 10.0))
    probes = [sf.StateVector.sup(v) for v in ([1.0, 0.0, 1.0], [0.0, 1.0, -1.0])]
    for prop in ("BOUNDED", "MEAN_ERGODIC"):
        rep = asy.robustness_experiment(rot, prop, probes, cfg_rot)
        if not rep.passes:
            failures.append(("rotation", prop))
        assert all(r["base"].verdict == "PASS" for r in rep.per_probe)
        assert rep.biinvariance_violations == []
    ok = failures == []
    report(8, "robustness of {BOUNDED, STRONGLY_STABLE, MEAN_ERGODIC} + "
              "biinvariance on 50 synthetic orbits", ok,
           f"failures={failures}" if failures else
           "all base-PASS probes stayed PASS; 0 biinvariance violations")


def test_criterion_9_neutral_observation_bound():
    p = k = 0.3
    q = 0.2
    sys0 = atom_system(p, k, q, n_hist=128)
    triple = nt.build_perturbation(sys0)
    h = sys0.history_grid.step
    horizon = 4.0
    min_margin = np.inf
    for seed in range(5):
        y, f = neutral_initial(sys0, seed=seed, normalize=False)
        probe = nt.pack_initial(sys0, y, f)
        f_l1 = triple.base.parts[1].space.norm(probe.coords[1:])
        v = sf.observation_map(triple, horizon, probe, step=h)
        total = float(v.running_l1()[-1])
        bound = (p + k) * f_l1 + horizon * q * 1.0 * float(np.max(np.abs(y)))
        min_margin = min(min_margin, bound - total)
    ok = min_margin >= 0.0
    report(9, "neutral observation constant <= (||mu||+||nu||)||f|| + t0 ||C|| M ||x||",
           ok, f"min margin={min_margin:.4f} over 5 probes (no violations)")


def test_criterion_10_cli_determinism(tmp_path):
    cfg = {
        "system": {"kind": "scalar", "a": -1.0, "b": "identity", "c": 0.5},
        "grid": {"step": 1e-3, "horizon": 5.0},
        "method": "direct",
        "seed": 42,
        "initial": {"x": [1.0]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        out.mkdir()
        assert cli_main(["simulate", "--config", str(cfg_path),
                         "--out", str(out), "--seed", "42"]) == 0
        outs.append(out)
    csv_same = (outs[0] / "orbit.csv").read_bytes() == (outs[1] / "orbit.csv").read_bytes()
    manifests = []
    for out in outs:
        m = json.loads((out / "manifest.json").read_text())
        m.pop("timing_seconds")
        manifests.append(json.dumps(m, sort_keys=True))
    ok = csv_same and manifests[0] == manifests[1]
    report(10, "CLI determinism: identical config+seed, byte-identical artifacts",
           ok, f"csv identical={csv_same}, manifests identical (timing excluded)="
               f"{manifests[0] == manifests[1]}")
