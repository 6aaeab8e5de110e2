import numpy as np
import pytest

import semflow as sf
from semflow import admissibility as adm
from semflow import maps
from semflow import neutral as nt
from semflow.errors import ConfigurationError, GridAlignmentError
from helpers import atom_system, count_calls, neutral_initial, scalar_mv
from oracles import PreconditionError, check_desch_schappacher, estimate_constants_two_pass


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


def test_neumann_estimates_the_contraction_once_per_run(monkeypatch):
    triple = scalar_mv(0.5)
    probes = [sf.StateVector.sup([v]) for v in (1.0, -2.0, 0.5)]
    sigs = adm.probe_signals(triple, sf.time_grid(5.0, 0.01), 2, seed=0)
    direct = adm.estimate_constants(triple, probes, sigs, 5.0, step=0.01)
    calls = count_calls(monkeypatch, maps.estimate_io_norm)
    observe = count_calls(monkeypatch, maps.observation_map)
    solve = count_calls(monkeypatch, maps.invert_io)
    applies = count_calls(monkeypatch, maps._apply_io)
    rep = adm.estimate_constants(triple, probes, sigs, 5.0, step=0.01,
                                 method=sf.Neumann(tol=1e-12))
    # one bound over [0, 2T] gates every solve and is io_norm_est
    assert [c[1] for c in calls] == [10.0]
    # every map runs on the [0, 2T] grid only: F on each signal, in the
    # estimate and in the Neumann terms
    assert [c[1] for c in observe + solve] == [10.0] * 6
    assert applies and {c[1].shape[0] for c in applies} == {1001}
    assert rep.sup_inv_obs_est == pytest.approx(direct.sup_inv_obs_est, rel=1e-9)


def _matrix_case(a, horizon):
    triple = sf.PerturbationTriple(
        sf.MatrixSemigroup([[a, 0.3], [-0.2, -1.5]]),
        sf.BoundedControl([[0.5, 0.0], [0.1, 0.4]]), [[0.3, 0.1], [0.0, 0.2]])
    probes = [sf.StateVector.sup(v) for v in ([1.0, 0.0], [-0.5, 2.0], [0.0, 0.0])]
    return triple, probes, horizon, 0.01


def _translation_case():
    h = 0.01
    g = sf.Grid(-2.0, h, 200)
    mu = sf.MeasureSpec(atoms=((-1.0, 0.8),))
    triple = sf.PerturbationTriple(
        sf.LeftTranslation(g), sf.DirichletControl(sf.DirichletSpec(1.0)),
        mu.observation_row(g))
    probes = [sf.StateVector.grid_function(np.exp(g.points()), g),
              sf.StateVector.grid_function(np.sin(3.0 * g.points()), g)]
    return triple, probes, 3.0, h


def _neutral_case():
    sys0 = atom_system(0.3, 0.25, 0.5, n_hist=32)
    probes = [nt.pack_initial(sys0, *neutral_initial(sys0, seed=s)) for s in (0, 1)]
    return nt.build_perturbation(sys0), probes, 2.0, sys0.history_grid.step


@pytest.mark.parametrize("case, method", [
    # a growing base: both stability verdicts FAIL, with nonzero rel_change
    (lambda: _matrix_case(0.6, 2.0), sf.DirectSolve()),
    # a stable base: every verdict PASS
    (lambda: _matrix_case(-1.0, 4.0), sf.Neumann(tol=1e-12)),
    (_translation_case, sf.DirectSolve()),
    (_neutral_case, sf.DirectSolve()),
    # exp(20 t) overflows after t = 35.5: finite on [0, T], nan on [0, 2T]
    (lambda: (scalar_mv(0.5, a=20.0), [sf.StateVector.sup([1.0])], 20.0, 0.01),
     sf.DirectSolve()),
], ids=["matrix-direct", "matrix-neumann", "translation-atom", "neutral-atom",
        "overflow"])
def test_one_pass_matches_the_two_pass_oracle(case, method):
    triple, probes, horizon, h = case()
    sigs = adm.probe_signals(triple, sf.time_grid(horizon, h), 3, seed=4)
    rep = adm.estimate_constants(triple, probes, sigs, horizon, step=h, method=method)
    ref = estimate_constants_two_pass(triple, probes, sigs, horizon, h, method)
    got, want = rep.to_dict(), ref.to_dict()
    if isinstance(method, sf.DirectSolve):
        np.testing.assert_equal(got, want)  # nan equals nan here
        return
    # a Neumann solve truncates on its whole grid, so the [0, T] prefix of
    # the [0, 2T] solve differs from the [0, T] solve at the tolerance
    for name, v in want["verdicts"].items():
        assert got["verdicts"][name]["verdict"] == v["verdict"]
        if "rel_change" in v:
            assert got["verdicts"][name]["rel_change"] == pytest.approx(
                v["rel_change"], abs=1e-9)


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
    assert rep.io_norm_est == pytest.approx(0.8, rel=1e-12)  # |mu|(R_-) is the io norm
    assert rep.m_b_est <= 1.0 + 1e-9      # the boundary control is a contraction
    assert rep.verdicts["io_contraction"]["verdict"] == "PASS"


def test_estimate_constants_requires_probes():
    triple = scalar_mv(0.5)
    sigs = adm.probe_signals(triple, sf.time_grid(1.0, 0.01), 1, seed=0)
    with pytest.raises(ConfigurationError):
        adm.estimate_constants(triple, [], sigs, 1.0, step=0.01)


@pytest.mark.parametrize("horizon, step", [(12.0, 0.01), (5.0, 0.02)],
                         ids=["past-2T", "other-step"])
def test_estimate_constants_rejects_signals_off_the_grid(horizon, step):
    triple = scalar_mv(0.5)
    sigs = adm.probe_signals(triple, sf.time_grid(horizon, step), 1, seed=0)
    with pytest.raises(GridAlignmentError):
        adm.estimate_constants(triple, [sf.StateVector.sup([1.0])], sigs, 5.0, step=0.01)


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


def ds_triple(b):
    base = sf.MatrixSemigroup([[-1.0]])
    return sf.PerturbationTriple(base, sf.BoundedControl([[b]]), [[1.0]])


def test_desch_schappacher_zero_control():
    # B = 0: rho = 0 and the n = 0 term is int ||T(t)x|| dt <= (M/omega)||x||;
    # the step must keep the trapezoid overshoot under the 1e-8 term slack
    res = check_desch_schappacher(ds_triple(0.0), [sf.StateVector.sup([1.0])],
                                  omega=1.0, horizon=40.0, step=2.5e-4)
    assert res.verdict == "PASS"
    assert res.details["rho"] == 0.0
    probe = res.details["per_probe"][0]
    assert probe["term_norms"][0] <= 1.0 + 1e-8
    assert probe["total"] <= probe["total_bound"] + 1e-8


def test_desch_schappacher_scalar_geometric():
    res = check_desch_schappacher(ds_triple(0.5), [sf.StateVector.sup([1.0])],
                                  omega=1.0, horizon=40.0, step=2.5e-4)
    assert res.verdict == "PASS"
    assert res.details["rho"] == pytest.approx(0.5)
    probe = res.details["per_probe"][0]
    assert probe["min_term_margin"] >= 0.0
    assert probe["total"] <= 2.0 + 1e-9  # geometric series sum(0.5^n) = 2


def test_desch_schappacher_divergent_config_fails():
    res = check_desch_schappacher(ds_triple(1.3), [sf.StateVector.sup([1.0])],
                                  omega=1.0, horizon=20.0, step=1e-3, n_terms=10)
    assert res.verdict == "FAIL"
    norms = res.details["per_probe"][0]["term_norms"]
    assert norms[-1] > norms[0]  # diverging partial sums as the witness


def test_desch_schappacher_unstable_base_rejected():
    base = sf.MatrixSemigroup([[0.1]])
    triple = sf.PerturbationTriple(base, sf.BoundedControl([[0.5]]), [[1.0]])
    with pytest.raises(PreconditionError) as exc:
        check_desch_schappacher(triple, [sf.StateVector.sup([1.0])], omega=1.0,
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
