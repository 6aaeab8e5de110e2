import math

import numpy as np
import pytest

import semflow as sf
from semflow import admissibility as adm
from semflow import neutral as nt
from semflow.errors import ConfigurationError, DomainError, GridAlignmentError
from helpers import atom_system, block_deviation, mixed_system, neutral_initial
from oracles import history_segment, neutral_direct_solve_loop, scaling_conjugation


def test_build_a0_block_structure():
    sys0 = atom_system(0.3, 0.3, 0.2, n_hist=32)
    base = nt.build_a0(sys0)
    rng = np.random.default_rng(0)
    x = sf.StateVector(rng.standard_normal(base.space.dim), base.space)
    # identity at t = 0, apart from the history endpoint sample s = 0
    grid = sf.time_grid(1.0, sys0.history_grid.step)
    orb = sf.orbit(base, x, grid)
    assert np.array_equal(orb.states[0, :-1], x.coords[:-1])
    # history block is annihilated at t >= 1
    out = orb.states[-1]
    assert np.all(out[1:] == 0.0)
    # matrix block decays like exp(-t) for A = -1
    assert out[0] == pytest.approx(x.coords[0] * math.exp(-1.0), rel=1e-10)


def test_kernel_atom_at_zero_rejected():
    hist = sf.Grid(-1.0, 1.0 / 16, 16)
    with pytest.raises(ConfigurationError):
        nt.NeutralSystem(a=[[-1.0]], p_kernel=sf.MeasureSpec(atoms=((0.0, 0.3),)),
                         k_kernel=sf.MeasureSpec(), c=[[1.0]], history_grid=hist)


def test_observation_reads_delayed_endpoint():
    # first output component of the block observation is p * f(-1)
    sys0 = atom_system(0.3, 0.25, 0.2, n_hist=32)
    triple = nt.build_perturbation(sys0)
    s = sys0.history_grid.points()
    f = np.cos(s)[:, None]
    y = np.array([0.7])
    state = nt.pack_initial(sys0, y, f)
    v = triple.observe @ state.coords
    assert v[0] == pytest.approx(0.3 * math.cos(-1.0), abs=1e-12)
    # second component is C y + k f(-1)
    assert v[1] == pytest.approx(0.2 * 0.7 + 0.25 * math.cos(-1.0), abs=1e-12)


def test_control_second_component_placement():
    sys0 = atom_system(0.3, 0.3, 0.2, n_hist=32)
    triple = nt.build_perturbation(sys0)
    h = sys0.history_grid.step
    tg = sf.time_grid(0.5, h)
    t = tg.points()
    u = sf.InputSignal(tg, np.stack([0.0 * t, np.sin(t)], axis=1), triple.u_space)
    out = sf.control_map(triple, 0.5, u)
    d = sys0.dim
    fpart = out.coords[d:]
    s = sys0.history_grid.points()
    expect = np.where(s + 0.5 >= h - 1e-12, np.sin(np.maximum(s + 0.5, 0.0)), 0.0)
    assert np.max(np.abs(fpart - expect)) <= 1e-12


def test_zero_kernels_reduce_to_block_semigroup():
    hist = sf.Grid(-1.0, 1.0 / 32, 32)
    sys0 = nt.NeutralSystem(a=[[-1.0]], p_kernel=sf.MeasureSpec(),
                            k_kernel=sf.MeasureSpec(), c=[[0.0]],
                            history_grid=hist)
    s = hist.points()
    f = (np.sin(np.pi * s) * (1.0 + s))[:, None]  # f(0) = 0: compatible for C = 0
    y = np.array([0.8])
    grid = sf.time_grid(2.0, hist.step)
    res = nt.neutral_orbit(sys0, (y, f), grid)
    base = sf.orbit(nt.build_a0(sys0), nt.pack_initial(sys0, y, f), grid)
    assert np.max(np.abs(res.orbit.states - base.states)) <= 1e-14


def test_neutral_orbit_zero_data():
    sys0 = atom_system(0.3, 0.3, 0.2, n_hist=32)
    f = np.zeros((33, 1))
    res = nt.neutral_orbit(sys0, (np.zeros(1), f), sf.time_grid(3.0, 1.0 / 32))
    assert np.all(res.orbit.norms == 0.0)
    assert res.compatible


def test_neutral_orbit_requires_matching_step():
    sys0 = atom_system(0.3, 0.3, 0.2, n_hist=32)
    y, f = neutral_initial(sys0, seed=0)
    with pytest.raises(GridAlignmentError):
        nt.neutral_orbit(sys0, (y, f), sf.time_grid(1.0, 1.0 / 64))


@pytest.mark.parametrize("dim", [1, 2])
def test_formula_matches_method_of_steps(dim):
    # the two independent routes agree to first order in the step
    n = 256
    a = -np.eye(dim) if dim == 1 else np.array([[-1.0, 0.3], [0.0, -2.0]])
    sys0 = atom_system(0.3, 0.3, 0.2, n_hist=n, a=a, d=dim)
    y, f = neutral_initial(sys0, seed=3)
    grid = sf.time_grid(5.0, 1.0 / n)
    res = nt.neutral_orbit(sys0, (y, f), grid)
    oracle = nt.method_of_steps(sys0, (y, f), grid)
    assert block_deviation(sys0, res.orbit, oracle) <= 1e-3


def test_method_of_steps_decoupled_matches_matexp():
    hist = sf.Grid(-1.0, 1.0 / 32, 32)
    sys0 = nt.NeutralSystem(a=[[-1.5]], p_kernel=sf.MeasureSpec(),
                            k_kernel=sf.MeasureSpec(), c=[[1.0]],
                            history_grid=hist)
    y = np.array([2.0])
    f = np.zeros((33, 1))
    grid = sf.time_grid(3.0, hist.step)
    orb = nt.method_of_steps(sys0, (y, f), grid)
    ts = grid.points()
    assert np.max(np.abs(orb.states[:, 0] - 2.0 * np.exp(-1.5 * ts))) <= 1e-10


def test_method_of_steps_first_interval_closed_form():
    # A=-1, K = 0.5 delta_{-1}, P = 0, f == 1, C = Id:
    # on [0, 1]: z' = -z and x(t) = z(t) + 0.5 * f(t-1) = z(t) + 0.5
    n = 128
    hist = sf.Grid(-1.0, 1.0 / n, n)
    sys0 = nt.NeutralSystem(a=[[-1.0]], p_kernel=sf.MeasureSpec(),
                            k_kernel=sf.MeasureSpec(atoms=((-1.0, 0.5),)),
                            c=[[1.0]], history_grid=hist)
    f = np.ones((n + 1, 1))
    y = nt.compatible_y(sys0, f)  # y = f(0) - 0.5 f(-1) = 0.5
    assert y[0] == pytest.approx(0.5)
    grid = sf.time_grid(1.0, hist.step)
    orb = nt.method_of_steps(sys0, (y, f), grid)
    ts = grid.points()
    z_exact = 0.5 * np.exp(-ts)
    x_exact = z_exact + 0.5
    assert np.max(np.abs(orb.states[:, 0] - z_exact)) <= 1e-9
    # recovered trajectory sits at the history-grid endpoint of the f-channel
    x_rec = orb.states[:, -1]
    assert np.max(np.abs(x_rec[1:] - x_exact[1:])) <= 1e-9


def test_method_of_steps_self_convergence():
    errs = []
    for n in (64, 128, 256):
        sys0 = atom_system(0.3, 0.3, 0.2, n_hist=n)
        y, f = neutral_initial(sys0, seed=4)
        grid = sf.time_grid(4.0, 1.0 / n)
        orb = nt.method_of_steps(sys0, (y, f), grid)
        # compare against the doubled-resolution run on shared time points
        sys1 = atom_system(0.3, 0.3, 0.2, n_hist=2 * n)
        y1, f1 = neutral_initial(sys1, seed=4)
        fine = nt.method_of_steps(sys1, (y1, f1), sf.time_grid(4.0, 0.5 / n))
        errs.append(np.max(np.abs(orb.states[:, 0] - fine.states[::2, 0])))
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(order) >= 1.0


def test_incompatible_data_flagged_not_fatal():
    sys0 = atom_system(0.3, 0.3, 0.2, n_hist=64)
    s = sys0.history_grid.points()
    f = (np.sin(s) + 1.0)[:, None]
    y = np.array([42.0])  # wildly incompatible
    res = nt.neutral_orbit(sys0, (y, f), sf.time_grid(2.0, sys0.history_grid.step))
    assert not res.compatible
    assert res.compatibility_residual > 1.0
    assert np.all(np.isfinite(res.orbit.norms))


def test_domain_condition_preserved_along_orbit():
    # along compatible orbits, ||C z(t) - (x_t(0) - K x_t)|| stays at the
    # initial-residual level
    sys0 = atom_system(0.3, 0.3, 0.2, n_hist=128)
    y, f = neutral_initial(sys0, seed=5)
    grid = sf.time_grid(4.0, sys0.history_grid.step)
    res = nt.neutral_orbit(sys0, (y, f), grid)
    d = sys0.dim
    N = sys0.history_grid.count
    krow = sys0.k_kernel.observation_row(sys0.history_grid, point_dim=d)
    resid0 = max(res.compatibility_residual, 1e-14)
    for k in range(1, grid.count + 1):
        z = res.orbit.states[k, :d]
        fpart = res.orbit.states[k, d:]
        lhs = sys0.c @ z
        rhs = fpart[-d:] - krow @ fpart
        assert np.max(np.abs(lhs - rhs)) <= 10.0 * resid0


def test_scaling_conjugation_identity():
    n = 128
    alpha = 0.5
    hist = sf.Grid(-1.0, 1.0 / n, n)
    main = nt.NeutralSystem(a=[[-1.0]],
                            p_kernel=sf.MeasureSpec(atoms=((-1.0, alpha * 0.25),)),
                            k_kernel=sf.MeasureSpec(atoms=((-1.0, 0.25),)),
                            c=[[1.0]], history_grid=hist)
    tilde = scaling_conjugation(main, alpha)
    assert tilde.c[0, 0] == pytest.approx(alpha)
    assert tilde.p_kernel.atoms[0][1] == pytest.approx(0.25)
    s = hist.points()
    f = (np.sin(3 * s) + 0.8)[:, None]
    y = nt.compatible_y(main, f)
    grid = sf.time_grid(5.0, hist.step)
    orb_main = nt.neutral_orbit(main, (y, f), grid).orbit
    orb_tilde = nt.neutral_orbit(tilde, (y, alpha * f), grid).orbit
    unscaled = orb_tilde.states.copy()
    unscaled[:, 1:] /= alpha
    assert np.max(np.abs(orb_main.states - unscaled)) <= 1e-8


def test_scaling_conjugation_alpha_one_is_identity():
    sys0 = atom_system(0.3, 0.3, 0.2, n_hist=16)
    same = scaling_conjugation(sys0, 1.0)
    assert np.array_equal(same.c, sys0.c)
    assert same.p_kernel.atoms == sys0.p_kernel.atoms


def test_scaling_conjugation_rejects_nonpositive():
    sys0 = atom_system(0.3, 0.3, 0.2, n_hist=16)
    with pytest.raises(DomainError):
        scaling_conjugation(sys0, 0.0)


def test_scaling_norm_equivalence_of_tails():
    # tail norms of conjugated orbits agree within max(alpha, 1/alpha)
    n = 128
    alpha = 0.5
    main = atom_system(0.3, 0.25, 0.2, n_hist=n)
    tilde = scaling_conjugation(main, alpha)
    y, f = neutral_initial(main, seed=7)
    grid = sf.time_grid(5.0, main.history_grid.step)
    orb_main = nt.neutral_orbit(main, (y, f), grid).orbit
    orb_tilde = nt.neutral_orbit(tilde, (y, alpha * f), grid).orbit
    fac = max(alpha, 1.0 / alpha)
    for k in range(0, grid.count + 1, 32):
        a, b = orb_main.norms[k], orb_tilde.norms[k]
        assert b <= fac * a + 1e-12
        assert a <= fac * b + 1e-12


def test_neutral_admissibility_chain():
    # estimated constants match the block-perturbation bound structure:
    # M_B <= max(M, 1) (1 + eps) and the io contraction <= ||p|| + ||k|| + q + eps
    p = k = 0.3
    q = 0.2
    sys0 = atom_system(p, k, q, n_hist=64)
    triple = nt.build_perturbation(sys0)
    h = sys0.history_grid.step
    horizon = 6.0
    probes = [nt.pack_initial(sys0, *neutral_initial(sys0, seed=s)) for s in range(3)]
    signals = adm.probe_signals(triple, sf.time_grid(horizon, h), 3, seed=0)
    rep = adm.estimate_constants(triple, probes, signals, horizon, step=h)
    assert rep.m_b_est <= 1.0 * (1.0 + 1e-6)  # M = 1 for A = -1
    assert rep.io_norm_est <= p + k + q + 1e-6
    # sup_t ||(I-F_t)^{-1} C_t (x,f)|| <= (1-||F||)^{-1} (q||x|| + (k+p)||f||_1)
    bound_factor = 1.0 / (1.0 - (p + k + q))
    for probe in probes:
        y = probe.coords[:1]
        fpart = probe.coords[1:]
        f_l1 = triple.base.parts[1].space.norm(fpart)
        v = sf.observation_map(triple, horizon, probe, step=h)
        w = sf.invert_io(triple, horizon, v)
        sup_w = float(np.max(w.running_l1()))
        bound = bound_factor * (q * np.max(np.abs(y)) + (k + p) * f_l1)
        assert sup_w <= bound + 1e-6


def test_neutral_observation_constant_bound():
    # int_0^t ||C T0(s)(x,f)|| ds <= (||mu|| + ||nu||) ||f||_1 + t ||C|| M ||x||
    p = k = 0.3
    q = 0.2
    sys0 = atom_system(p, k, q, n_hist=64)
    triple = nt.build_perturbation(sys0)
    h = sys0.history_grid.step
    horizon = 4.0
    for seed in range(4):
        y, f = neutral_initial(sys0, seed=seed, normalize=False)
        probe = nt.pack_initial(sys0, y, f)
        f_l1 = triple.base.parts[1].space.norm(probe.coords[1:])
        v = sf.observation_map(triple, horizon, probe, step=h)
        total = float(v.running_l1()[-1])
        bound = (p + k) * f_l1 + horizon * q * 1.0 * np.max(np.abs(y))
        assert total <= bound + 1e-9


def test_history_segment_shift_consistency():
    # x_{t}(s) = x(t+s): consecutive history segments overlap by one shift
    sys0 = atom_system(0.3, 0.3, 0.2, n_hist=64)
    y, f = neutral_initial(sys0, seed=9)
    grid = sf.time_grid(2.0, sys0.history_grid.step)
    orb = nt.neutral_orbit(sys0, (y, f), grid).orbit
    a = history_segment(sys0, orb, 10)
    b = history_segment(sys0, orb, 11)
    assert np.allclose(a.coords[1:], b.coords[:-1])
    assert a.norm() > 0.0


def test_direct_solve_matches_oracle():
    # forward substitution through the kernel against the tap-by-tap loop,
    # with weight on the oldest (atoms at -1) and newest (densities) taps
    sys0 = mixed_system()
    triple = nt.build_perturbation(sys0)
    h = sys0.history_grid.step
    c_block, prow, krow = triple.neutral_blocks()
    assert np.any(prow[-1] != 0.0) and np.any(krow[-1] != 0.0)
    grid = sf.time_grid(3.0, h)
    rng = np.random.default_rng(5)
    v = sf.InputSignal(grid, rng.standard_normal((grid.count + 1, 4)), triple.u_space)
    w = sf.invert_io(triple, grid.end, v, sf.DirectSolve()).values
    ref = neutral_direct_solve_loop(sf.matexp(sys0.a, h), c_block, prow, krow,
                                    v.values, h)
    assert np.max(np.abs(w - ref)) <= 1e-12


@pytest.mark.parametrize("route", ["formula", "oracle"])
def test_block_orbit_rows_window_the_trajectory(route):
    # state k holds (z_k, x(t_k + s)) for s on the history grid, so the
    # history blocks of consecutive states overlap by one shift, row 0 is the
    # initial state, and the norm is sup|z| + h * sum of the left-point sups
    sys0 = mixed_system(n_hist=16)
    d = sys0.dim
    N = sys0.history_grid.count
    h = sys0.history_grid.step
    y, f = neutral_initial(sys0, seed=4)
    grid = sf.time_grid(2.0, h)
    if route == "formula":
        orb = nt.neutral_orbit(sys0, (y, f), grid).orbit
    else:
        orb = nt.method_of_steps(sys0, (y, f), grid)
    hist = orb.states[:, d:].reshape(grid.count + 1, N + 1, d)
    assert np.array_equal(orb.states[0], np.concatenate([y, f.ravel()]))
    assert np.array_equal(hist[1:, :-1], hist[:-1, 1:])
    norms = np.max(np.abs(orb.states[:, :d]), axis=1) \
        + h * np.sum(np.max(np.abs(hist[:, :N]), axis=2), axis=1)
    assert np.allclose(orb.norms, norms, rtol=1e-12, atol=0.0)
