import math

import numpy as np
import pytest
import scipy.linalg

import semflow as sf
from semflow import _kernels, cli
from semflow import neutral as nt
from semflow.errors import (ConfigurationError, ContractionViolation, GridAlignmentError,
                            NoConvergence)
from semflow.maps import _realize
from helpers import mixed_system, neutral_initial, scalar_mv, scalar_signal, smooth_signal
from oracles import (boundary_control_closed_form, control_map_loop,
                     observation_step_loop, semigroup_apply)


def const_signal(grid, value=1.0, dim=1):
    return sf.InputSignal(grid, np.full((grid.count + 1, dim), value),
                          sf.SupSpace(dim))


# ---------------------------------------------------------------------------
# control map
# ---------------------------------------------------------------------------

def test_control_map_zero_input():
    triple = scalar_mv(0.5)
    grid = sf.time_grid(1.0, 0.01)
    out = sf.control_map(triple, 1.0, const_signal(grid, 0.0))
    assert np.all(out.coords == 0.0)


def test_control_map_constant_input_analytic():
    # int_0^1 exp(-(1-s)) ds = 1 - 1/e
    # by the trapezoid rule of the oracle; the left rule of the feedback loop
    # is only first order
    triple = scalar_mv(0.5)
    grid = sf.time_grid(1.0, 1e-3)
    out = control_map_loop(triple, grid.count, const_signal(grid), "trapezoid")
    assert out[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)
    assert out[0] == pytest.approx(0.6321206, abs=1e-6)


def test_control_map_dirichlet_formula_literal():
    # u(r) = r^2 on [0, 1], t0 = 1: value at s is exp(min(0,s+1))*max(0,s+1)^2
    h = 1e-2
    grid = sf.Grid(-2.0, h, 200)
    base = sf.LeftTranslation(grid)
    mu = sf.MeasureSpec(atoms=((-1.0, 0.5),))
    triple = sf.PerturbationTriple(base, sf.DirichletControl(sf.DirichletSpec(1.0)),
                                   mu.observation_row(grid))
    tg = sf.time_grid(1.0, h)
    u = scalar_signal(tg, tg.points() ** 2)
    out = sf.control_map(triple, 1.0, u)
    s_idx = grid.index_of(-0.5)
    assert out.coords[s_idx] == pytest.approx(0.25, abs=1e-12)
    s_idx2 = grid.index_of(-1.5)
    assert out.coords[s_idx2] == pytest.approx(np.exp(-0.5) * 0.0, abs=1e-12)


def test_control_map_shift_property():
    # B_{t+b} (1_(a,b) x u) = T(t) B_{b-a} (1_(0,b-a) x u), within grid tolerance
    rng = np.random.default_rng(0)
    a_mat = np.array([[-1.0, 0.4], [0.0, -0.6]])
    sg = sf.MatrixSemigroup(a_mat)
    triple = sf.PerturbationTriple(sg, sf.IdentityControl(), 0.1 * np.eye(2))
    h = 1e-3
    a, b, t = 0.3, 0.8, 0.5
    uvec = rng.standard_normal(2)
    g1 = sf.time_grid(t + b, h)
    ts1 = g1.points()
    vals1 = np.where((ts1 > a) & (ts1 <= b), 1.0, 0.0)[:, None] * uvec
    lhs = sf.control_map(triple, t + b, sf.InputSignal(g1, vals1, sf.SupSpace(2)))
    g2 = sf.time_grid(b - a, h)
    ts2 = g2.points()
    vals2 = np.where((ts2 > 0) & (ts2 <= b - a), 1.0, 0.0)[:, None] * uvec
    inner = sf.control_map(triple, b - a, sf.InputSignal(g2, vals2, sf.SupSpace(2)))
    rhs = sf.orbit(sg, inner, sf.time_grid(t, h)).states[-1]
    assert np.max(np.abs(lhs.coords - rhs)) <= 5 * h * np.max(np.abs(uvec))


def test_control_map_equals_the_closed_form_on_a_translation_base():
    # for inputs with u(0) = 0 the compose step places the input exactly as
    # (B_t u)(s) = exp(lam*min(0, s+t)) * u(max(0, s+t)) does
    h = 1e-2
    grid, spec = sf.Grid(-3.0, h, 300), sf.DirichletSpec(1.0)
    triple = sf.PerturbationTriple(sf.LeftTranslation(grid), sf.DirichletControl(spec),
                                   sf.MeasureSpec(atoms=((-1.0, 0.5),)).observation_row(grid))
    tg = sf.time_grid(4.0, h)
    raw = np.random.default_rng(3).standard_normal(tg.count + 1)
    u = scalar_signal(tg, np.concatenate([[0.0], raw[1:]]))
    for t in (h, 0.5, 2.0, 3.0, 4.0):
        got = sf.control_map(triple, t, u).coords
        assert np.array_equal(got, boundary_control_closed_form(spec, t, u, grid).coords)


@pytest.mark.parametrize("rule", ["trapezoid", "left"])
@pytest.mark.parametrize("k", [0, 1, 37, 150])
def test_control_map_matches_step_loop(rule, k):
    # bounded variant on a 2x2 base, and the neutral pair with both channels;
    # the trapezoid rule is the left rule plus h/2 (B u_k - E^k B u_0)
    bounded = sf.PerturbationTriple(
        sf.MatrixSemigroup([[-1.0, 0.3], [-0.2, -0.5]]),
        sf.BoundedControl([[1.0, 0.0], [0.5, -1.0]]), np.eye(2))
    neutral = nt.build_perturbation(mixed_system())
    d = neutral.base.parts[0].space.dim
    cases = [(bounded, bounded.base.a, _realize(bounded, 1.0 / 40).b),
             (neutral, neutral.base.parts[0].a, np.eye(d))]
    for triple, a, b in cases:
        grid = sf.Grid(0.0, 1.0 / 40, 150)
        u = smooth_signal(grid, seed=k, dim=triple.u_dim)
        u = sf.InputSignal(grid, u.values, triple.u_space)
        got = sf.control_map(triple, k * grid.step, u).coords
        if rule == "trapezoid":
            u1 = u.values[:, : b.shape[1]]
            got[: a.shape[0]] += 0.5 * grid.step * (
                b @ u1[k] - sf.matexp(a, k * grid.step) @ b @ u1[0])
        ref = control_map_loop(triple, k, u, rule)
        assert np.max(np.abs(got - ref)) <= 1e-14 * max(np.max(np.abs(ref)), 1.0)


# ---------------------------------------------------------------------------
# observation map
# ---------------------------------------------------------------------------

def observation_case(name):
    """(triple, state, horizon) on the matrix, translation or neutral base;
    "neutral-admissibility" is that benchmark's system, whose newest tap
    that carries weight is row L = 96 of 128, so the observe step reads it
    in blocks of m = 33 steps (on ``mixed_system`` m is 1)."""
    matrix = sf.PerturbationTriple(
        sf.MatrixSemigroup([[-1.0, 0.3], [-0.2, -0.5]]),
        sf.BoundedControl([[1.0], [0.5]]), [[0.7, -0.4]])
    g = sf.Grid(-2.0, 0.05, 40)
    mu = sf.MeasureSpec(atoms=((-1.0, 0.6),), density=((-1.5, -0.25, 0.3),))
    translation = sf.PerturbationTriple(
        sf.LeftTranslation(g), sf.DirichletControl(sf.DirichletSpec(1.0)),
        mu.observation_row(g))
    sys0 = mixed_system()
    y, f = neutral_initial(sys0, seed=3)
    bench = cli.build_system({"system": {
        "kind": "neutral", "a": [[-1.0, 0.3], [0.0, -1.5]], "c": [[0.5, 0.0], [0.1, 0.4]],
        "p_atoms": [[-1.0, 0.3]], "p_density": [[-0.75, -0.25, 0.2]],
        "k_atoms": [[-1.0, 0.25]], "k_density": [[-1.0, -0.5, 0.1]],
        "history_steps": 128}, "grid": {"step": 1.0 / 128}})
    return {
        "matrix": (matrix, sf.StateVector.sup([1.0, -2.0]), 5.0),
        "translation": (translation,
                        sf.StateVector.grid_function(np.cos(3.0 * g.points()) + 1.5, g),
                        3.0),
        "neutral": (nt.build_perturbation(sys0), nt.pack_initial(sys0, y, f), 3.0),
        "neutral-admissibility": (nt.build_perturbation(bench),
                                  nt.pack_initial(bench, *neutral_initial(bench, seed=3)), 10.0),
    }[name]


@pytest.mark.parametrize("name", ["matrix", "translation", "neutral", "neutral-admissibility"])
def test_observation_map_matches_step_loop(name):
    # the structured read of each base equals the history stepped one sample
    # at a time as the orbit route steps it (measured at most 5.2e-16)
    triple, x, horizon = observation_case(name)
    step = 0.01 if isinstance(triple.base, sf.MatrixSemigroup) else None
    v = sf.observation_map(triple, horizon, x, step=step)
    ref = observation_step_loop(triple, v.grid, x)
    assert np.max(np.abs(v.values - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_observation_map_is_what_the_neutral_direct_loop_inverts():
    # (I - F)^{-1} C_t x equals the (w1, w2) of the feedback loop run from the
    # initial data (y, f) with a zero right-hand side (measured 1.9e-16)
    sys0 = mixed_system()
    y, f = neutral_initial(sys0, seed=3)
    triple = nt.build_perturbation(sys0)
    grid = sf.time_grid(3.0, sys0.history_grid.step)
    v = sf.observation_map(triple, grid.end, nt.pack_initial(sys0, y, f))
    w = sf.invert_io(triple, grid.end, v, sf.DirectSolve())
    r = _realize(triple, grid.step)
    ref, _, _ = _kernels.volterra_solve(
        r.e, r.b, r.c, np.zeros((grid.count + 1, 2 * sys0.dim)), grid.step, y, r.taps,
        r.first, f)
    assert np.max(np.abs(w.values - ref)) <= 1e-14 * np.max(np.abs(ref))


TRANSLATION_SIMULATE = {  # the translation-simulate benchmark workload
    "system": {"kind": "translation", "lambda": 1.0, "L": 4.0,
               "atoms": [[-1.0, 0.5]], "density": [[-3.0, -0.5, 0.1]]},
    "grid": {"step": 0.002, "horizon": 8.0},
    "initial": {"f_kind": "exp", "amplitude": 1.0}}


@pytest.mark.parametrize("name", ["matrix", "translation", "neutral", "translation-simulate"])
def test_solved_signal_is_the_observation_of_the_perturbed_orbit(name):
    # (I - F_t)^{-1} C_t x = C T_BC(.) x; on a translation base only with w_0
    # held at s + t = 0, which F reads (measured at most 2.1e-15 relative)
    if name == "translation-simulate":
        triple = cli.build_system(TRANSLATION_SIMULATE)
        x, horizon = cli.build_initial(TRANSLATION_SIMULATE, triple), 8.0
    else:
        triple, x, horizon = observation_case(name)
    grid = sf.time_grid(horizon, triple.base_step or 0.01)
    v = sf.observation_map(triple, grid.end, x, step=grid.step)
    w = sf.invert_io(triple, grid.end, v).values
    cx = sf.perturbed_orbit(triple, x, grid).states @ triple.observe.T
    assert np.max(np.abs(cx - w)) <= 1e-14 * np.max(np.abs(w))


def test_observation_map_zero_operator():
    triple = scalar_mv(0.0)
    v = sf.observation_map(triple, 1.0, sf.StateVector.sup([1.0]), step=0.01)
    assert np.all(v.values == 0.0)


def test_observation_map_scalar_l1_analytic():
    # s -> q exp(-s); its L1 norm over [0, inf) is q
    q = 0.7
    triple = scalar_mv(q)
    v = sf.observation_map(triple, 40.0, sf.StateVector.sup([1.0]), step=1e-3)
    ts = v.grid.points()
    assert np.max(np.abs(v.values[:, 0] - q * np.exp(-ts))) <= 1e-10
    assert v.l1_norm() == pytest.approx(q, abs=1e-6)


def test_observation_map_shift_endpoint_read():
    # C = read at s=-1 over the nilpotent shift: signal s -> f(s-1) up to t = 1,
    # where it reads f(0) = x(0) as the orbit routes do, and zero after 1
    n = 64
    grid = sf.Grid(-1.0, 1.0 / n, n)
    base = sf.BlockDiag((sf.MatrixSemigroup([[-1.0]]), sf.NilpotentShift(grid)))
    obs = np.zeros((2, 1 + n + 1))
    obs[0, 1] = 1.0  # first history point, s = -1
    triple = sf.PerturbationTriple(base, sf.NeutralBoundaryControl(), obs)
    f = np.cos(2.0 * grid.points())
    x = sf.StateVector(np.concatenate([[0.0], f]), base.space)
    v = sf.observation_map(triple, 2.0, x)
    ts = v.grid.points()
    inside = (ts >= 1.0 / n) & (ts < 1.0)
    assert np.allclose(v.values[inside, 0], np.cos(2.0 * (ts[inside] - 1.0)))
    assert v.values[n, 0] == 1.0  # t = 1 exactly reads f(0) = cos(0)
    assert np.all(v.values[ts > 1.0, 0] == 0.0)


# ---------------------------------------------------------------------------
# input-output map and inversion
# ---------------------------------------------------------------------------

def test_io_map_zero_input():
    triple = scalar_mv(0.5)
    grid = sf.time_grid(1.0, 0.01)
    out = sf.io_map(triple, 1.0, const_signal(grid, 0.0))
    assert np.all(out.values == 0.0)


def test_io_map_scalar_convolution_analytic():
    # (F u)(r) = q int_0^r exp(-(r-s)) ds = q (1 - exp(-r)) for u == 1
    q = 0.6
    triple = scalar_mv(q)
    grid = sf.time_grid(2.0, 1e-3)
    out = sf.io_map(triple, 2.0, const_signal(grid))
    ts = out.grid.points()
    assert np.max(np.abs(out.values[:, 0] - q * (1 - np.exp(-ts)))) <= 1e-3 * q
    k = out.grid.index_of(1.0)
    assert out.values[k, 0] == pytest.approx(q * (1 - math.exp(-1.0)), abs=1e-3)


def test_io_map_causality_zero_padding():
    # (F u)(r) depends only on u|[0, r]
    triple = scalar_mv(0.5)
    grid = sf.time_grid(2.0, 0.01)
    u1 = smooth_signal(grid, seed=11)
    vals2 = u1.values.copy()
    k = grid.index_of(1.0)
    vals2[k + 1:] += 3.0  # change the future only
    u2 = sf.InputSignal(grid, vals2, u1.point_space)
    f1 = sf.io_map(triple, 2.0, u1)
    f2 = sf.io_map(triple, 2.0, u2)
    assert np.array_equal(f1.values[: k + 1], f2.values[: k + 1])
    assert not np.array_equal(f1.values, f2.values)


def test_io_map_linearity():
    triple = scalar_mv(0.5)
    grid = sf.time_grid(1.0, 0.01)
    u1 = smooth_signal(grid, seed=1)
    u2 = smooth_signal(grid, seed=2)
    a, b = 1.7, -0.3
    combo = sf.InputSignal(grid, a * u1.values + b * u2.values, u1.point_space)
    lhs = sf.io_map(triple, 1.0, combo).values
    rhs = a * sf.io_map(triple, 1.0, u1).values + b * sf.io_map(triple, 1.0, u2).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_invert_identity_when_observation_vanishes():
    triple = scalar_mv(0.0)
    grid = sf.time_grid(1.0, 0.01)
    v = smooth_signal(grid, seed=3)
    w = sf.invert_io(triple, 1.0, v, sf.Neumann())
    assert np.array_equal(w.values, v.values)
    w2 = sf.invert_io(triple, 1.0, v, sf.DirectSolve())
    assert np.array_equal(w2.values, v.values)


def test_neumann_partial_sums_geometric():
    # ||F^n v||_1 <= q^n ||v||_1 for the scalar family
    q = 0.5
    triple = scalar_mv(q)
    grid = sf.time_grid(30.0, 1e-3)
    v = sf.observation_map(triple, 30.0, sf.StateVector.sup([1.0]), step=1e-3)
    term = v.values
    base = v.l1_norm()
    for n in range(1, 8):
        term = sf.io_map(triple, 30.0, sf.InputSignal(grid, term, v.point_space)).values
        tn = sf.InputSignal(grid, term, v.point_space).l1_norm()
        assert tn <= q ** n * base + 1e-12


def test_direct_vs_neumann_cross_method():
    rng = np.random.default_rng(9)
    for trial in range(5):
        d = 3
        a = -np.eye(d) - 0.3 * np.diag(rng.uniform(0, 1, d))
        c = 0.2 * rng.standard_normal((d, d))
        triple = sf.PerturbationTriple(sf.MatrixSemigroup(a), sf.IdentityControl(), c)
        grid = sf.time_grid(4.0, 2e-3)
        v = smooth_signal(grid, seed=trial, dim=d)
        wd = sf.invert_io(triple, 4.0, v, sf.DirectSolve())
        wn = sf.invert_io(triple, 4.0, v, sf.Neumann(tol=1e-12))
        assert np.max(np.abs(wd.values - wn.values)) <= 1e-8


def test_direct_solve_against_dense_matrix_oracle():
    # build the dense lower-triangular operator column by column and solve
    # with numpy as an independent route
    q = 0.5
    triple = scalar_mv(q)
    n = 40
    grid = sf.time_grid(0.4, 0.01)
    cols = []
    for j in range(n + 1):
        e = np.zeros((n + 1, 1))
        e[j] = 1.0
        cols.append(sf.io_map(triple, 0.4, sf.InputSignal(grid, e, sf.SupSpace(1))).values[:, 0])
    F = np.stack(cols, axis=1)
    assert np.all(np.triu(F) == 0.0)  # strictly lower triangular
    v = smooth_signal(grid, seed=21)
    w = sf.invert_io(triple, 0.4, v, sf.DirectSolve())
    w_dense = np.linalg.solve(np.eye(n + 1) - F, v.values[:, 0])
    assert np.max(np.abs(w.values[:, 0] - w_dense)) <= 1e-12


def test_neumann_contraction_violation():
    triple = scalar_mv(1.5)  # MV ratio 1.5 > 1
    grid = sf.time_grid(20.0, 1e-2)
    v = smooth_signal(grid, seed=4)
    with pytest.raises(ContractionViolation) as exc:
        sf.invert_io(triple, 20.0, v, sf.Neumann())
    assert exc.value.estimate >= 1.0


def test_neumann_no_convergence_diagnostics():
    triple = scalar_mv(0.9)
    grid = sf.time_grid(30.0, 1e-2)
    v = smooth_signal(grid, seed=5)
    with pytest.raises(NoConvergence) as exc:
        sf.invert_io(triple, 30.0, v, sf.Neumann(tol=1e-14, max_terms=3))
    assert exc.value.terms == 3
    assert exc.value.last_term_norm > 0.0


@pytest.mark.parametrize("kwargs, key", [
    ({"max_terms": 0}, "max_terms"), ({"max_terms": -1}, "max_terms"),
    ({"max_terms": 2.0}, "max_terms"), ({"tol": -1.0}, "tol"),
    ({"tol": float("nan")}, "tol"), ({"tol": float("inf")}, "tol"), ({"tol": "0.1"}, "tol")])
def test_neumann_rejects_malformed_settings(kwargs, key):
    with pytest.raises(ConfigurationError, match=f"Neumann {key} must be"):
        sf.Neumann(**kwargs)


def test_neumann_settings_are_normalised():
    method = sf.Neumann(tol=0, max_terms=np.int64(5))
    assert (method.tol, method.max_terms) == (0.0, 5)
    assert type(method.tol) is float and type(method.max_terms) is int


# ---------------------------------------------------------------------------
# perturbed semigroup
# ---------------------------------------------------------------------------

def test_perturbed_apply_unperturbed_when_c_zero():
    triple = scalar_mv(0.0)
    x = sf.StateVector.sup([2.0])
    out = sf.perturbed_apply(triple, 1.0, x, step=0.01)
    # the zero perturbation takes the orbit route: the base stepped by exp(hA)
    stepped = sf.orbit(triple.base, x, sf.time_grid(1.0, 0.01)).states[-1]
    assert out.coords[0] == stepped[0]
    assert out.coords[0] == pytest.approx(semigroup_apply(triple.base, 1.0, x.coords)[0],
                                          rel=1e-14)


def test_perturbed_apply_scalar_rate_shift():
    # A=-1, B=1, C=0.5 gives the generator -0.5
    triple = scalar_mv(0.5)
    out = sf.perturbed_apply(triple, 1.0, sf.StateVector.sup([1.0]), step=1e-3)
    assert out.coords[0] == pytest.approx(math.exp(-0.5), abs=1e-4)
    assert out.coords[0] == pytest.approx(0.6065307, abs=1e-4)


def test_perturbed_apply_bounded_matrix_oracle():
    a = np.diag([-1.0, -2.0])
    c = 0.3 * np.eye(2)
    triple = sf.PerturbationTriple(sf.MatrixSemigroup(a), sf.IdentityControl(), c)
    x = sf.StateVector.sup([1.0, -1.0])
    out = sf.perturbed_apply(triple, 1.5, x, step=1e-3)
    oracle = scipy.linalg.expm(1.5 * (a + c)) @ x.coords
    assert np.max(np.abs(out.coords - oracle)) <= 1e-4


def test_perturbed_orbit_zero_state():
    triple = scalar_mv(0.5)
    orb = sf.perturbed_orbit(triple, sf.StateVector.sup([0.0]), sf.time_grid(2.0, 0.01))
    assert np.all(orb.norms == 0.0)


@pytest.mark.parametrize("weight", [0.5, 0.0])
def test_perturbed_orbit_rejects_a_step_off_the_shift_grid(weight):
    # the step is checked before the data: a zero perturbation, which skips
    # the solve, rejects the step as a nonzero one does
    g = sf.Grid(-2.0, 0.05, 40)
    triple = sf.PerturbationTriple(
        sf.LeftTranslation(g), sf.DirichletControl(sf.DirichletSpec(1.0)),
        sf.MeasureSpec(atoms=((-1.0, weight),)).observation_row(g))
    x = sf.StateVector.grid_function(np.cos(g.points()), g)
    with pytest.raises(GridAlignmentError):
        sf.perturbed_orbit(triple, x, sf.time_grid(1.0, 0.1))


def test_perturbed_orbit_scalar_norm_track():
    triple = scalar_mv(0.5)
    grid = sf.time_grid(10.0, 1e-3)
    orb = sf.perturbed_orbit(triple, sf.StateVector.sup([1.0]), grid)
    assert np.max(np.abs(orb.norms - np.exp(-0.5 * grid.points()))) <= 1e-4


def test_perturbed_composition_consistency():
    # stepping the perturbed map agrees with direct evaluation
    for q in (0.3, 0.5):
        triple = scalar_mv(q)
        h = 1e-2
        x = sf.StateVector.sup([1.0])
        y = x
        for _ in range(60):
            y = sf.perturbed_apply(triple, h, y, step=h)
        direct = sf.perturbed_apply(triple, 0.6, x, step=h)
        assert abs(y.coords[0] - direct.coords[0]) <= 1e-6


def test_perturbed_orbit_linearity():
    triple = scalar_mv(0.4)
    grid = sf.time_grid(3.0, 1e-2)
    o1 = sf.perturbed_orbit(triple, sf.StateVector.sup([1.0]), grid)
    o2 = sf.perturbed_orbit(triple, sf.StateVector.sup([-2.5]), grid)
    assert np.max(np.abs(o2.states + 2.5 * o1.states)) <= 1e-10


def test_prop_bound_chain():
    # sup_t ||B_t (I-F_t)^{-1} C_t x|| <= M_B_est * sup_t ||(I-F_t)^{-1} C_t x||_1
    # with M_B_est estimated over a signal set containing the solved signal
    from semflow.admissibility import _control_track_norms

    q = 0.5
    triple = scalar_mv(q)
    grid = sf.time_grid(20.0, 1e-3)
    x = sf.StateVector.sup([1.0])
    v = sf.observation_map(triple, 20.0, x, step=1e-3)
    w = sf.invert_io(triple, 20.0, v)
    sup_w = float(np.max(w.running_l1()))
    signals = [smooth_signal(grid, seed=s) for s in range(3)] + [w]
    m_b = 0.0
    for u in signals:
        track = _control_track_norms(triple, u, _realize(triple, grid.step))
        run = u.running_l1()
        mask = run > 1e-12
        m_b = max(m_b, float(np.max(track[mask] / run[mask])))
    bt_norms = _control_track_norms(triple, w, _realize(triple, grid.step))
    assert float(np.max(bt_norms)) <= m_b * sup_w + 1e-12


def compose_case(name):
    """``observation_case`` with, on the translation base, a profile that
    vanishes on [-2, -0.2]: the observation starts at zero, so the solved
    boundary signal is in the class the closed-form control map is exact on."""
    triple, x, horizon = observation_case(name)
    if name == "translation":
        s = triple.base.grid.points()
        x = sf.StateVector.grid_function(
            np.where(s > -0.2, np.sin(np.pi * s / 0.2) ** 2, 0.0), triple.base.grid)
    return triple, x, horizon, triple.base_step or 0.01


@pytest.mark.parametrize("name", ["matrix", "translation", "neutral"])
def test_control_track_norms_match_the_control_map(name):
    # the compose step from the zero state against the oracle, which places
    # the signal by a left-rule sum one sample at a time (matrix channel) or
    # the closed form (boundary); measured at most 3.7e-15 relative
    from semflow.admissibility import _control_track_norms

    triple, _, horizon, h = compose_case(name)
    grid = sf.time_grid(horizon, h)
    u = sf.InputSignal(grid, smooth_signal(grid, seed=5, dim=triple.u_dim).values,
                       triple.u_space)
    track = _control_track_norms(triple, u, _realize(triple, u.grid.step))
    for k in (1, 2, grid.count // 3, grid.count // 2, grid.count):
        ref = triple.base.space.norm(control_map_loop(triple, k, u, "left"))
        assert track[k] == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("name", ["matrix", "translation", "neutral"])
def test_perturbed_orbit_is_base_orbit_plus_control_map(name):
    # T_BC(t_k) x = T(t_k) x + B_{t_k} w with w = (I - F)^{-1} C x, B_t from
    # the oracle's left-rule sum or closed form; measured at most 3.9e-16
    # relative
    triple, x, horizon, h = compose_case(name)
    grid = sf.time_grid(horizon, h)
    method = sf.Neumann(tol=1e-13)
    orb = sf.perturbed_orbit(triple, x, grid, method)
    base = sf.orbit(triple.base, x, grid)
    w = sf.invert_io(triple, grid.end, sf.observation_map(triple, grid.end, x, step=h),
                     method)
    for k in (1, 2, grid.count // 3, grid.count // 2, grid.count):
        ref = base.states[k] + control_map_loop(triple, k, w, "left")
        if name == "neutral" and k <= triple.base.parts[1].grid.count:
            # the neutral routes read f(0) as x(0), which the history keeps
            # at s = -t_k; the nilpotent shift drops the sample at s + t = 0
            d = triple.base.parts[0].space.dim
            at = d * (triple.base.parts[1].grid.count - k + 1)
            ref[at: at + d] += x.coords[-d:]
        assert np.max(np.abs(orb.states[k] - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_matrix_neumann_orbit_builds_the_free_evolution_once(monkeypatch):
    # exp(hA) once each for the free evolution, the contraction estimate and
    # the solve; one scan for the free evolution, then one per application of
    # matrix_volterra_apply (the F terms and the control map)
    from helpers import count_calls

    triple, x, horizon = observation_case("matrix")
    grid = sf.time_grid(horizon, 0.01)
    matexps = count_calls(monkeypatch, sf.matexp)
    scans = count_calls(monkeypatch, _kernels.causal_scan)
    applies = count_calls(monkeypatch, _kernels.matrix_volterra_apply)
    sf.perturbed_orbit(triple, x, grid, sf.Neumann())
    assert len(matexps) == 3
    assert len(applies) > 1
    assert len(scans) == 1 + len(applies)


@pytest.mark.parametrize("name", ["matrix", "translation", "neutral"])
def test_composing_a_zero_signal_gives_the_free_orbit(name):
    # the free parts composed with w = 0 are the base orbit, except that the
    # neutral routes read f(0) as x(0): their history keeps f(0) at
    # s = -t_k for t_k <= 1, where the nilpotent shift drops it
    from semflow.maps import _compose, _free
    from semflow.semigroups import _assemble

    triple, x, horizon = observation_case(name)
    if name == "neutral":
        sys0 = mixed_system(n_hist=16)
        y, f = neutral_initial(sys0, seed=3)
        triple, x = nt.build_perturbation(sys0), nt.pack_initial(sys0, y, f)
    grid = sf.time_grid(horizon, triple.base_step or 0.01)
    w = np.zeros((grid.count + 1, triple.u_dim))
    r = _realize(triple, grid.step)
    orb = _assemble(triple.base, grid, *_compose(r, _free(triple, r, x, grid), w, grid))
    base = sf.orbit(triple.base, x, grid)
    if name != "neutral":
        assert np.array_equal(orb.states, base.states)
        assert np.array_equal(orb.norms, base.norms)
        return
    d = sys0.dim
    N = sys0.history_grid.count
    assert np.array_equal(orb.states[:, :d], base.states[:, :d])
    diff = (orb.states[:, d:] - base.states[:, d:]).reshape(grid.count + 1, N + 1, d)
    expect = np.zeros_like(diff)
    for k in range(N + 1):
        expect[k, N - k] = f[-1]
    assert np.array_equal(diff, expect)


def test_vanishing_neutral_perturbation_gives_the_free_orbit():
    # every route reads f(0) as x(0), the zero-perturbation shortcut,
    # perturbed_apply and the base orbit of asymptotics_run too: C -> 0
    # converges to the C = 0 orbit
    from semflow import asymptotics as asy

    sys0 = mixed_system(n_hist=16)
    triple = nt.build_perturbation(sys0)
    x = nt.pack_initial(sys0, *neutral_initial(sys0, seed=3))
    grid = sf.time_grid(2.0, sys0.history_grid.step)
    scaled = [sf.PerturbationTriple(triple.base, triple.control, q * triple.observe)
              for q in (1e-12, 0.0)]
    small, zero = (sf.perturbed_orbit(t, x, grid) for t in scaled)
    assert np.max(np.abs(small.states - zero.states)) < 1e-9
    assert np.max(np.abs(small.norms - zero.norms)) < 1e-9
    small_x, zero_x = (sf.perturbed_apply(t, 0.5, x) for t in scaled)
    assert np.max(np.abs(small_x.coords - zero_x.coords)) < 1e-9
    cfg = asy.RobustnessConfig(horizon=grid.end, step=grid.step)
    base = asy.asymptotics_run(triple, [], [x], cfg, tracks=True).tracks[0].base_norms
    assert np.max(np.abs(base - small.norms)) < 1e-9


def test_direct_vs_neumann_on_neutral_triple():
    from semflow import neutral as nt
    from helpers import atom_system, neutral_initial

    sys0 = atom_system(0.3, 0.3, 0.2, n_hist=64)
    y, f = neutral_initial(sys0, seed=13)
    grid = sf.time_grid(3.0, sys0.history_grid.step)
    direct = nt.neutral_orbit(sys0, (y, f), grid, method=sf.DirectSolve()).orbit
    neum = nt.neutral_orbit(sys0, (y, f), grid, method=sf.Neumann(tol=1e-12)).orbit
    assert np.max(np.abs(direct.states - neum.states)) <= 1e-8


def test_direct_vs_neumann_on_translation_triple():
    h = 5e-3
    L = 4.0
    g = sf.Grid(-L, h, int(round(L / h)))
    mu = sf.MeasureSpec(atoms=((-1.0, 0.6),))
    triple = sf.PerturbationTriple(sf.LeftTranslation(g),
                                   sf.DirichletControl(sf.DirichletSpec(1.0)),
                                   mu.observation_row(g))
    f = sf.StateVector.grid_function(np.exp(g.points()), g)
    grid = sf.time_grid(3.0, h)
    direct = sf.perturbed_orbit(triple, f, grid, method=sf.DirectSolve())
    neum = sf.perturbed_orbit(triple, f, grid, method=sf.Neumann(tol=1e-12))
    assert np.max(np.abs(direct.states - neum.states)) <= 1e-8
