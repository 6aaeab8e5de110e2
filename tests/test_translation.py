import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semflow as sf
from semflow.errors import DimensionError, DomainError, GridAlignmentError
from helpers import scalar_signal
from oracles import (boundary_control_by_quadrature, boundary_control_closed_form,
                     control_dropped_mass, dirichlet_apply, io_infty_closed_form,
                     mass_at_zero, measure_observation, observation_row_loop,
                     total_variation)


def space_grid(L=10.0, h=1e-3):
    n = int(round(L / h))
    return sf.Grid(-L, h, n)


def test_dirichlet_rejects_left_halfplane():
    with pytest.raises(DomainError):
        sf.DirichletSpec(-0.2)
    with pytest.raises(DomainError):
        sf.DirichletSpec(0.0 + 3.0j)


def test_dirichlet_rejects_a_complex_parameter():
    with pytest.raises(DomainError):
        sf.DirichletSpec(1.0 + 1.0j)


def test_dirichlet_apply_zero():
    g = space_grid(2.0, 0.01)
    out = dirichlet_apply(sf.DirichletSpec(1.0), 0.0, g)
    assert out.norm() == 0.0


def test_dirichlet_apply_l1_norm_analytic():
    g = space_grid(10.0, 1e-4)
    out = dirichlet_apply(sf.DirichletSpec(1.0), 1.0, g)
    assert out.norm() == pytest.approx(1.0 - math.exp(-10.0), abs=1e-4)
    assert out.norm() == pytest.approx(0.9999546, abs=1e-4)


def test_dirichlet_apply_point_value():
    g = space_grid(2.0, 1e-3)
    out = dirichlet_apply(sf.DirichletSpec(1.0), 1.0, g)
    assert out.coords[g.index_of(-1.0)] == pytest.approx(0.3678794, abs=1e-7)


def test_boundary_control_zero_input():
    g = space_grid(2.0, 0.01)
    tg = sf.time_grid(1.0, 0.01)
    u = scalar_signal(tg, np.zeros(tg.count + 1))
    out = boundary_control_closed_form(sf.DirichletSpec(1.0), 1.0, u, g)
    assert out.norm() == 0.0


def test_boundary_control_pointwise_formula():
    # u(r) = r on [0, 1], t0 = 1: value at s = -0.25 is u(0.75) = 0.75
    h = 0.01
    g = space_grid(2.0, h)
    tg = sf.time_grid(1.0, h)
    u = scalar_signal(tg, tg.points())
    out = boundary_control_closed_form(sf.DirichletSpec(1.0), 1.0, u, g)
    assert out.coords[g.index_of(-0.25)] == pytest.approx(0.75, abs=1e-12)
    assert out.coords[g.index_of(-1.5)] == 0.0


def test_boundary_control_warns_on_nonzero_start():
    g = space_grid(2.0, 0.01)
    tg = sf.time_grid(1.0, 0.01)
    u = scalar_signal(tg, np.ones(tg.count + 1))
    with pytest.warns(UserWarning, match="u\\(0\\)"):
        boundary_control_closed_form(sf.DirichletSpec(1.0), 1.0, u, g)


def test_boundary_control_contraction_100_seeds():
    h = 5e-3
    g = space_grid(4.0, h)
    tg = sf.time_grid(2.0, h)
    rng = np.random.default_rng(0)
    for _ in range(100):
        raw = rng.standard_normal(tg.count + 1)
        raw[0] = 0.0
        u = scalar_signal(tg, raw)
        out = boundary_control_closed_form(sf.DirichletSpec(1.0), 2.0, u, g)
        assert out.norm() <= u.l1_norm() * (1.0 + 1e-10)


def test_boundary_control_quadrature_route_agrees():
    h = 1e-3
    g = space_grid(10.0, h)
    tg = sf.time_grid(2.0, h)
    t = tg.points()
    u = scalar_signal(tg, np.sin(np.pi * t) ** 2 * (1.0 + 0.3 * t))
    spec = sf.DirichletSpec(1.0)
    cf = boundary_control_closed_form(spec, 1.5, u, g)
    qd = boundary_control_by_quadrature(spec, 1.5, u, g)
    assert cf.space.norm(cf.coords - qd.coords) <= 5 * h


def test_control_dropped_mass():
    h = 0.01
    g = space_grid(2.0, h)
    tg = sf.time_grid(3.0, h)
    u = scalar_signal(tg, np.ones(tg.count + 1))
    assert control_dropped_mass(1.5, u, g) == 0.0
    # at t0 = 3, inputs from [0, 1] have translated past -L = -2
    assert control_dropped_mass(3.0, u, g) == pytest.approx(1.0, abs=1e-12)


def test_measure_observation_examples():
    g = space_grid(10.0, 1e-3)
    mu = sf.MeasureSpec(atoms=((-1.0, 0.8),))
    zero = sf.StateVector.grid_function(np.zeros(g.count + 1), g)
    assert measure_observation(mu, zero, g) == 0.0
    f = dirichlet_apply(sf.DirichletSpec(1.0), 1.0, g)
    assert measure_observation(mu, f, g) == pytest.approx(0.8 * math.exp(-1.0),
                                                             abs=1e-12)
    assert measure_observation(mu, f, g) == pytest.approx(0.2943036, abs=1e-7)
    dens = sf.MeasureSpec(density=((-1.0, 0.0, 0.5),))
    ones = sf.StateVector.grid_function(np.ones(g.count + 1), g)
    assert measure_observation(dens, ones, g) == pytest.approx(0.5, abs=1e-12)


def test_measure_total_variation():
    mu = sf.MeasureSpec(atoms=((-1.0, 0.8), (-2.5, -0.1)),
                        density=((-1.0, 0.0, 0.5),))
    assert total_variation(mu) == pytest.approx(0.8 + 0.1 + 0.5)
    assert total_variation(mu, lower=-1.0) == pytest.approx(0.8 + 0.5)
    assert total_variation(mu, lower=-0.25) == pytest.approx(0.125)
    # vanishing mass near zero iff no atom at 0
    assert mass_at_zero(mu, 1e-6) == pytest.approx(0.5e-6)


def test_measure_atom_alignment_errors():
    g = sf.Grid(-2.0, 0.01, 200)
    # an atom within half a step of a grid point is still off the grid
    mu = sf.MeasureSpec(atoms=((-1.0049, 1.0),))
    with pytest.raises(GridAlignmentError):
        mu.observation_row(g)
    off = sf.MeasureSpec(atoms=((-3.0, 1.0),))
    with pytest.raises(GridAlignmentError):
        off.observation_row(g)


def weight(rng, point_dim):
    if point_dim == 1 and rng.random() < 0.5:
        return float(rng.standard_normal())
    return rng.standard_normal((point_dim, point_dim))


@pytest.mark.parametrize("point_dim", [1, 2, 3])
def test_observation_row_matches_point_loop(point_dim):
    # overlapping segments (the first holding a point wins), a segment ending
    # at 0, an atom on a density point, two atoms at one point, off-grid ends
    rng = np.random.default_rng(point_dim)
    g = sf.Grid(-2.0, 0.01, 200)
    mu = sf.MeasureSpec(
        atoms=((-1.0, weight(rng, point_dim)), (-1.0, weight(rng, point_dim)),
               (0.0, weight(rng, point_dim)), (-2.0, weight(rng, point_dim))),
        density=((-1.5, -0.5, weight(rng, point_dim)),
                 (-1.0, 0.0, weight(rng, point_dim)),
                 (-1.987, -1.2345, weight(rng, point_dim)),
                 (-5.0, -1.9, weight(rng, point_dim))))
    row = mu.observation_row(g, point_dim=point_dim)
    assert row.tobytes() == observation_row_loop(mu, g, point_dim).tobytes()


@settings(max_examples=60, deadline=None)
@given(point_dim=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
       n_atoms=st.integers(0, 3), n_segments=st.integers(0, 4),
       ends=st.lists(st.integers(-24, 0), min_size=8, max_size=8))
def test_observation_row_matches_point_loop_on_drawn_measures(point_dim, seed, n_atoms,
                                                              n_segments, ends):
    # segment ends on and off the grid points of step 1/8
    rng = np.random.default_rng(seed)
    g = sf.Grid(-2.0, 0.125, 16)
    atoms = tuple((0.125 * int(rng.integers(-16, 1)), weight(rng, point_dim))
                  for _ in range(n_atoms))
    density = []
    for j in range(n_segments):
        a, b = sorted((ends[2 * j] / 8.0, ends[2 * j + 1] / 8.0 + 0.01 * (j % 2)))
        if a < b <= 0.0:
            density.append((a, b, weight(rng, point_dim)))
    mu = sf.MeasureSpec(atoms=atoms, density=tuple(density))
    row = mu.observation_row(g, point_dim=point_dim)
    assert row.tobytes() == observation_row_loop(mu, g, point_dim).tobytes()


@pytest.mark.parametrize("mu", [
    sf.MeasureSpec(atoms=((-1.0, np.eye(3)),)),
    sf.MeasureSpec(density=((-1.0, -0.5, np.ones((2, 3))),)),
], ids=["atom", "density"])
def test_observation_row_rejects_a_weight_of_the_wrong_shape(mu):
    with pytest.raises(DimensionError):
        mu.observation_row(sf.Grid(-2.0, 0.01, 200), point_dim=2)


def test_io_infty_zero_and_pure_delay():
    h = 1e-3
    tg = sf.time_grid(6.0, h)
    zero = scalar_signal(tg, np.zeros(tg.count + 1))
    mu = sf.MeasureSpec(atoms=((-1.0, 0.8),))
    assert io_infty_closed_form(mu, zero).l1_norm() == 0.0
    t = tg.points()
    vals = np.where((t > 0.5) & (t < 3.5), np.sin(t) ** 2, 0.0)
    u = scalar_signal(tg, vals)
    fu = io_infty_closed_form(mu, u)
    # pure delay: (F u)(t) = 0.8 u(t-1) for t >= 1
    k = tg.index_of(2.0)
    assert fu.values[k, 0] == pytest.approx(0.8 * np.sin(1.0) ** 2, abs=1e-12)
    assert np.all(fu.values[t < 1.0 - 1e-12] == 0.0)
    # equality case of the contraction
    assert fu.l1_norm() == pytest.approx(0.8 * u.l1_norm(), abs=1e-6)


def test_io_infty_contraction_with_density():
    h = 2e-3
    tg = sf.time_grid(8.0, h)
    mu = sf.MeasureSpec(atoms=((-1.0, 0.4),), density=((-2.0, 0.0, 0.15),))
    tv = total_variation(mu)
    assert tv == pytest.approx(0.7)
    rng = np.random.default_rng(1)
    for _ in range(20):
        raw = rng.standard_normal(tg.count + 1)
        raw[0] = 0.0
        u = scalar_signal(tg, raw)
        fu = io_infty_closed_form(mu, u)
        assert fu.l1_norm() <= tv * u.l1_norm() * (1.0 + 1e-12)


def test_io_infty_cross_check_against_io_map():
    h = 2e-3
    L = 6.0
    g = sf.Grid(-L, h, int(round(L / h)))
    mu = sf.MeasureSpec(atoms=((-1.0, 0.5),), density=((-1.5, -0.5, 0.2),))
    base = sf.LeftTranslation(g)
    triple = sf.PerturbationTriple(base, sf.DirichletControl(sf.DirichletSpec(1.0)),
                                   mu.observation_row(g))
    tg = sf.time_grid(4.0, h)
    t = tg.points()
    u = scalar_signal(tg, np.sin(np.pi * t / 4.0) ** 2 * np.cos(3 * t))
    direct = io_infty_closed_form(mu, u)
    generic = sf.io_map(triple, 4.0, u)
    diff = sf.InputSignal(tg, direct.values - generic.values, u.point_space)
    assert diff.l1_norm() <= 1e-6


def test_perturbed_translation_orbit_bounded():
    # contraction measure: perturbed orbit norms stay bounded by the
    # feedback-amplified initial mass
    h = 5e-3
    L = 6.0
    g = sf.Grid(-L, h, int(round(L / h)))
    mu = sf.MeasureSpec(atoms=((-1.0, 0.6),))
    base = sf.LeftTranslation(g)
    triple = sf.PerturbationTriple(base, sf.DirichletControl(sf.DirichletSpec(1.0)),
                                   mu.observation_row(g))
    s = g.points()
    f = sf.StateVector.grid_function(np.exp(s), g)
    grid = sf.time_grid(5.0, h)
    orb = sf.perturbed_orbit(triple, f, grid)
    bound = f.norm() + 1.0 / (1.0 - 0.6) * 0.6 * f.norm()
    assert np.max(orb.norms) <= bound + 1e-9
    # doubling the horizon does not move the supremum (stability)
    orb2 = sf.perturbed_orbit(triple, f, sf.time_grid(10.0, h))
    assert abs(np.max(orb2.norms) - np.max(orb.norms)) <= 0.05 * np.max(orb.norms)


def test_observation_closed_form_cross_route():
    # the generic sampled observation of the translation semigroup matches the
    # direct shifted-read formula int f(t+s) d(mu)(s) over s <= -t
    h = 5e-3
    L = 4.0
    g = sf.Grid(-L, h, int(round(L / h)))
    mu = sf.MeasureSpec(atoms=((-1.5, 0.7),), density=((-2.0, -1.0, 0.3),))
    triple = sf.PerturbationTriple(sf.LeftTranslation(g),
                                   sf.DirichletControl(sf.DirichletSpec(1.0)),
                                   mu.observation_row(g))
    s = g.points()
    f = np.exp(s) * (1.0 + np.sin(2 * s))
    v = sf.observation_map(triple, 2.0, sf.StateVector.grid_function(f, g), step=h)
    ts = v.grid.points()
    direct = np.zeros_like(ts)
    for i, t in enumerate(ts):
        # atom read: f(t - 1.5) while t - 1.5 stays in the grid interior
        arg = t - 1.5
        if arg < -1e-12:
            direct[i] += 0.7 * np.interp(arg, s, f)
        # density read: left-endpoint sum over the segment
        pts = s[:-1]
        mask = (pts >= -2.0) & (pts < -1.0) & (pts + t < -1e-12)
        direct[i] += 0.3 * h * np.sum(np.interp(pts + t, s, f)[mask])
    assert np.max(np.abs(v.values[:, 0] - direct)) <= 1e-10


def test_boundary_quadrature_first_order_convergence():
    spec = sf.DirichletSpec(1.0)
    devs = []
    for h in (2e-3, 1e-3):
        g = space_grid(6.0, h)
        tg = sf.time_grid(2.0, h)
        t = tg.points()
        u = scalar_signal(tg, np.sin(np.pi * t) ** 2 * (1.0 + 0.3 * t))
        cf = boundary_control_closed_form(spec, 1.5, u, g)
        qd = boundary_control_by_quadrature(spec, 1.5, u, g)
        devs.append(cf.space.norm(cf.coords - qd.coords))
    assert devs[1] / devs[0] <= 0.7  # empirical order >= 1
