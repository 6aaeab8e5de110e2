"""Structural laws of the matrix-base feedback pair, checked on drawn systems.

For drawn d <= 4, generator A, control B (d x m) and observation C (m x d),
the discrete input-output map F is strictly causal, so an impulse at step k
moves the output only after k, and its first response is h C exp(hA) B one
step later; forward substitution for (I - F) w = v agrees with the Neumann
series whenever the bound on ||F|| is below 1, and the series' error stays
within tol times that bound.  ``estimate_io_norm``, the bound U from the
impulse responses, holds for every signal with u(0) = 0, is at least the
brute-force maximum over impulses and extreme points, and equals it when
u_dim = 1; the neutral and translation triples are checked the same way.
On 201 samples F^201 = 0, so the Neumann series ends within its default
300 terms.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import semflow as sf
from semflow import neutral as nt
from helpers import mixed_system
from oracles import io_norm_extreme_points, total_variation

H = 0.01
GRID = sf.time_grid(2.0, H)
entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def triples(draw):
    d = draw(st.integers(1, 4), label="d")
    m = draw(st.integers(1, 4), label="m")
    a = draw(hnp.arrays(float, (d, d), elements=entries), label="A") - np.eye(d)
    b = draw(hnp.arrays(float, (d, m), elements=entries), label="B")
    c = draw(hnp.arrays(float, (m, d), elements=entries), label="C")
    return sf.PerturbationTriple(sf.MatrixSemigroup(a), sf.BoundedControl(b), c)


@SETTINGS
@given(triple=triples(), data=st.data())
def test_impulse_moves_output_only_after_its_step(triple, data):
    k = data.draw(st.integers(0, GRID.count - 1), label="k")
    channel = data.draw(st.integers(0, triple.u_dim - 1), label="channel")
    u = np.zeros((GRID.count + 1, triple.u_dim))
    u[k, channel] = 1.0
    out = sf.io_map(triple, GRID.end, sf.InputSignal(GRID, u, triple.u_space)).values
    assert np.all(out[: k + 1] == 0.0)
    first = H * (triple.observe @ (sf.matexp(triple.base.a, H) @ triple.b_matrix)[:, channel])
    assert np.allclose(out[k + 1], first, rtol=1e-12, atol=1e-15)


@SETTINGS
@given(triple=triples(), seed=st.integers(0, 2 ** 16))
def test_direct_equals_neumann_when_contractive(triple, seed):
    est = sf.estimate_io_norm(triple, GRID.end, step=H)
    assume(est < 1.0)
    vals = np.random.default_rng(seed).standard_normal((GRID.count + 1, triple.u_dim))
    v = sf.InputSignal(GRID, vals, triple.u_space)
    direct = sf.invert_io(triple, GRID.end, v, sf.DirectSolve()).values
    neumann = sf.invert_io(triple, GRID.end, v, sf.Neumann(tol=1e-12),
                           contraction_estimate=est).values
    assert np.max(np.abs(direct - neumann)) <= 1e-8 * np.max(np.abs(vals))


@SETTINGS
@given(triple=triples(), seed=st.integers(0, 2 ** 16))
def test_neumann_error_stays_within_its_tolerance(triple, seed):
    bound = sf.estimate_io_norm(triple, GRID.end, step=H)
    assume(bound < 0.9)
    tol = 1e-8
    vals = np.random.default_rng(seed).standard_normal((GRID.count + 1, triple.u_dim))
    v = sf.InputSignal(GRID, vals, triple.u_space)
    direct = sf.invert_io(triple, GRID.end, v, sf.DirectSolve())
    neumann = sf.invert_io(triple, GRID.end, v, sf.Neumann(tol=tol),
                           contraction_estimate=bound)
    err = sf.InputSignal(GRID, neumann.values - direct.values, triple.u_space).l1_norm()
    assert err <= tol * bound + 1e-12 * direct.l1_norm()


def _check_bound_against_extreme_points(triple, t, h):
    bound = sf.estimate_io_norm(triple, t, step=h)
    worst = io_norm_extreme_points(triple, t, h)
    assert worst <= bound * (1.0 + 1e-12) + 1e-15
    if triple.u_dim == 1:
        assert worst == pytest.approx(bound, rel=1e-12, abs=1e-15)


@SETTINGS
@given(triple=triples())
def test_io_norm_bound_dominates_every_extreme_point(triple):
    # 20 steps: the oracle applies F to every impulse and extreme point
    _check_bound_against_extreme_points(triple, 0.2, H)


def _neutral_triple():
    return nt.build_perturbation(mixed_system(p=0.3, k=0.2, p_density=0.1,
                                              k_density=-0.1, q=0.5, n_hist=16))


MU = sf.MeasureSpec(atoms=((-1.0, 0.5),), density=((-1.5, -0.5, 0.2),))


def _translation_triple():
    grid = sf.Grid(-2.0, H, 200)
    return sf.PerturbationTriple(sf.LeftTranslation(grid),
                                 sf.DirichletControl(sf.DirichletSpec(1.0)),
                                 MU.observation_row(grid))


@pytest.mark.parametrize("build, t", [(_neutral_triple, 1.5), (_translation_triple, 1.2)])
def test_io_norm_bound_dominates_every_extreme_point_on_shift_bases(build, t):
    # t reaches the atoms at -1, so the responses do not vanish
    triple = build()
    _check_bound_against_extreme_points(triple, t, triple.default_step())


def test_io_norm_bound_is_the_total_variation_once_t_covers_the_measure():
    assert sf.estimate_io_norm(_translation_triple(), 2.0, step=H) == pytest.approx(
        total_variation(MU), rel=1e-12)


@SETTINGS
@given(triple=st.one_of(triples(), st.sampled_from([_neutral_triple, _translation_triple])
                        .map(lambda build: build())),
       data=st.data())
def test_io_norm_bound_holds_for_signals_that_start_at_zero(triple, data):
    h = triple.default_step() or H
    grid = sf.time_grid(2.0, h)
    vals = data.draw(hnp.arrays(float, (grid.count + 1, triple.u_dim), elements=entries),
                     label="u")
    vals[0] = 0.0
    u = sf.InputSignal(grid, vals, triple.u_space)
    fu = sf.io_map(triple, grid.end, u)
    bound = sf.estimate_io_norm(triple, grid.end, step=h)
    assert fu.l1_norm() <= bound * u.l1_norm() * (1.0 + 1e-12)
