import numpy as np
import pytest

import semflow as sf
from semflow import admissibility as adm
from semflow import maps
from semflow.errors import ConfigurationError, DomainError, PreconditionError
from helpers import count_calls, scalar_mv


def test_estimate_constants_zero_control():
    base = sf.MatrixSemigroup([[-1.0]])
    triple = sf.PerturbationTriple(base, sf.BoundedControl([[0.0]]), [[0.7]])
    x = sf.StateVector.sup([1.0])
    sigs = adm.probe_signals(triple, sf.time_grid(5.0, 0.01), 2, seed=0)
    rep = adm.estimate_constants(triple, [x], sigs, 5.0, step=0.01)
    assert rep.m_b_est == 0.0
    assert rep.m_bc_est == 0.0
    assert rep.io_norm_est == 0.0


def test_estimate_constants_scalar_mv():
    q = 0.5
    triple = scalar_mv(q)
    x = sf.StateVector.sup([1.0])
    h = 1e-3
    sigs = adm.probe_signals(triple, sf.time_grid(20.0, h), 3, seed=1)
    rep = adm.estimate_constants(triple, [x], sigs, 20.0, step=h)
    assert rep.q_est == pytest.approx(q, abs=1e-6)
    assert rep.m_c_est == pytest.approx(q, abs=1e-6)
    # Miyadera-Voigt chain: sup_t ||(I-F_t)^{-1} C_t x|| <= q/(1-q)
    assert rep.sup_inv_obs_est <= q / (1.0 - q) + 1e-6
    assert rep.io_norm_est < 1.0
    for name in ("infinite_time_control", "uniform_inverse_observation",
                 "io_contraction"):
        assert rep.verdicts[name]["verdict"] == "PASS"
    # estimates are nondecreasing in the probe/signal sets
    rep_small = adm.estimate_constants(triple, [x], sigs[:1], 20.0, step=h)
    assert rep_small.m_b_est <= rep.m_b_est + 1e-15
    assert rep_small.m_bc_est <= rep.m_bc_est + 1e-15


def test_neumann_estimates_the_contraction_once_per_horizon(monkeypatch):
    triple = scalar_mv(0.5)
    probes = [sf.StateVector.sup([v]) for v in (1.0, -2.0, 0.5)]
    sigs = adm.probe_signals(triple, sf.time_grid(5.0, 0.01), 2, seed=0)
    direct = adm.estimate_constants(triple, probes, sigs, 5.0, step=0.01)
    calls = count_calls(monkeypatch, maps.estimate_io_norm)
    rep = adm.estimate_constants(triple, probes, sigs, 5.0, step=0.01,
                                 method=sf.Neumann(tol=1e-12))
    # the 5 s and 10 s grids, then the final estimate at 10 s
    assert [c[1] for c in calls] == [5.0, 10.0, 10.0]
    assert rep.sup_inv_obs_est == pytest.approx(direct.sup_inv_obs_est, rel=1e-9)


def test_estimate_constants_translation_atom():
    h = 5e-3
    L = 4.0
    g = sf.Grid(-L, h, int(round(L / h)))
    mu = sf.MeasureSpec(atoms=((-1.0, 0.8),))
    triple = sf.PerturbationTriple(
        sf.LeftTranslation(g), sf.DirichletControl(sf.DirichletSpec(1.0)),
        mu.observation_row(g))
    f = sf.StateVector.grid_function(np.exp(g.points()), g)
    sigs = adm.probe_signals(triple, sf.time_grid(8.0, h), 3, seed=2)
    rep = adm.estimate_constants(triple, [f], sigs, 8.0, step=h)
    assert rep.io_norm_est <= 0.8 + 1e-9  # |mu|(R_-) bounds the io norm
    assert rep.m_b_est <= 1.0 + 1e-9      # the boundary control is a contraction
    assert rep.verdicts["io_contraction"]["verdict"] == "PASS"


def test_estimate_constants_requires_probes():
    triple = scalar_mv(0.5)
    sigs = adm.probe_signals(triple, sf.time_grid(1.0, 0.01), 1, seed=0)
    with pytest.raises(ConfigurationError):
        adm.estimate_constants(triple, [], sigs, 1.0, step=0.01)


def test_miyadera_voigt_examples():
    x = sf.StateVector.sup([1.0])
    zero = adm.check_miyadera_voigt(scalar_mv(0.0), [x], 40.0, 0.9, step=1e-3)
    assert zero.verdict == "PASS" and zero.details["ratio"] == 0.0
    ok = adm.check_miyadera_voigt(scalar_mv(0.5), [x], 40.0, 0.9, step=1e-3)
    assert ok.verdict == "PASS"
    assert ok.details["ratio"] == pytest.approx(0.5, abs=1e-6)
    bad = adm.check_miyadera_voigt(scalar_mv(1.5), [x], 40.0, 0.9, step=1e-3)
    assert bad.verdict == "FAIL"
    assert bad.details["ratio"] == pytest.approx(1.5, abs=1e-5)


def test_miyadera_voigt_requires_identity_control():
    base = sf.MatrixSemigroup([[-1.0]])
    triple = sf.PerturbationTriple(base, sf.BoundedControl([[1.0]]), [[0.5]])
    with pytest.raises(ConfigurationError):
        adm.check_miyadera_voigt(triple, [sf.StateVector.sup([1.0])], 1.0, 0.9,
                                 step=0.01)


def test_favard_zero_vector():
    sg = sf.MatrixSemigroup([[-1.0]])
    est = sf.favard_norm(sg, sf.StateVector.sup([0.0]), sf.Grid(0.01, 0.01, 50))
    assert est.favard_norm == 0.0


def test_favard_scalar_small_t_limit():
    # |exp(-t) - 1| / t increases to 1 = ||A x|| as t -> 0+
    sg = sf.MatrixSemigroup([[-1.0]])
    x = sf.StateVector.sup([1.0])
    est = sf.favard_norm(sg, x, sf.Grid(1e-8, 0.02, 100))
    assert est.favard_norm == pytest.approx(1.0, abs=1e-6)
    assert est.argmax_t == pytest.approx(1e-8)


def test_favard_diag_limit_is_ax():
    a = np.diag([-1.0, -3.0])
    sg = sf.MatrixSemigroup(a)
    x = sf.StateVector.sup([1.0, 1.0])
    est = sf.favard_norm(sg, x, sf.Grid(1e-7, 0.01, 10))
    ax = sf.opnorm_sup(a @ x.coords[:, None])
    assert est.favard_norm == pytest.approx(3.0, rel=1e-5)
    assert est.favard_norm <= 3.0 + 1e-9
    assert abs(est.favard_norm - np.max(np.abs(a @ x.coords))) <= 1e-5


def test_favard_rejects_zero_probe():
    sg = sf.MatrixSemigroup([[-1.0]])
    with pytest.raises(DomainError):
        sf.favard_norm(sg, sf.StateVector.sup([1.0]), sf.Grid(0.0, 0.01, 10))


def test_favard_refinement_never_decreases():
    sg = sf.MatrixSemigroup([[-2.0]])
    x = sf.StateVector.sup([1.0])
    coarse = sf.favard_norm(sg, x, sf.Grid(0.1, 0.1, 20))
    fine = sf.favard_norm(sg, x, sf.Grid(0.05, 0.05, 41))
    assert fine.favard_norm >= coarse.favard_norm - 1e-12


def ds_triple(b):
    base = sf.MatrixSemigroup([[-1.0]])
    return sf.PerturbationTriple(base, sf.BoundedControl([[b]]), [[1.0]])


def test_desch_schappacher_zero_control():
    # B = 0: rho = 0 and the n = 0 term is int ||T(t)x|| dt <= (M/omega)||x||;
    # the step must keep the trapezoid overshoot under the 1e-8 term slack
    res = adm.check_desch_schappacher(ds_triple(0.0), [sf.StateVector.sup([1.0])],
                                      omega=1.0, horizon=40.0, step=2.5e-4)
    assert res.verdict == "PASS"
    assert res.details["rho"] == 0.0
    probe = res.details["per_probe"][0]
    assert probe["term_norms"][0] <= 1.0 + 1e-8
    assert probe["total"] <= probe["total_bound"] + 1e-8


def test_desch_schappacher_scalar_geometric():
    res = adm.check_desch_schappacher(ds_triple(0.5), [sf.StateVector.sup([1.0])],
                                      omega=1.0, horizon=40.0, step=2.5e-4)
    assert res.verdict == "PASS"
    assert res.details["rho"] == pytest.approx(0.5)
    probe = res.details["per_probe"][0]
    assert probe["min_term_margin"] >= 0.0
    assert probe["total"] <= 2.0 + 1e-9  # geometric series sum(0.5^n) = 2


def test_desch_schappacher_divergent_config_fails():
    res = adm.check_desch_schappacher(ds_triple(1.3), [sf.StateVector.sup([1.0])],
                                      omega=1.0, horizon=20.0, step=1e-3, n_terms=10)
    assert res.verdict == "FAIL"
    norms = res.details["per_probe"][0]["term_norms"]
    assert norms[-1] > norms[0]  # diverging partial sums as the witness


def test_desch_schappacher_unstable_base_rejected():
    base = sf.MatrixSemigroup([[0.1]])
    triple = sf.PerturbationTriple(base, sf.BoundedControl([[0.5]]), [[1.0]])
    with pytest.raises(PreconditionError) as exc:
        adm.check_desch_schappacher(triple, [sf.StateVector.sup([1.0])], omega=1.0,
                                    horizon=10.0, step=1e-2)
    assert exc.value.diagnostics["measured_rate"] == pytest.approx(-0.1, abs=1e-3)


def test_estimates_nondecreasing_in_horizon():
    triple = scalar_mv(0.5)
    x = sf.StateVector.sup([1.0])
    h = 1e-3
    sigs = adm.probe_signals(triple, sf.time_grid(5.0, h), 2, seed=3)
    r1 = adm.estimate_constants(triple, [x], sigs, 5.0, step=h)
    r2 = adm.estimate_constants(triple, [x], sigs, 10.0, step=h)
    assert r2.m_c_est >= r1.m_c_est - 1e-15
    assert r2.sup_inv_obs_est >= r1.sup_inv_obs_est - 1e-15
