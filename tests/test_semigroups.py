import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semflow as sf
from semflow.errors import DomainError, GridAlignmentError
from semflow.semigroups import Semigroup, _sliding_l1
from oracles import semigroup_apply


def hist_grid(n=64):
    return sf.Grid(-1.0, 1.0 / n, n)


def test_apply_identity_at_zero():
    # the orbit's first state is x, apart from the shift's endpoint sample
    # s = 0, which it drops and the left-endpoint L1 norm does not weigh
    specs = [
        sf.MatrixSemigroup([[-1.0]]),
        sf.NilpotentShift(hist_grid()),
        sf.LeftTranslation(sf.Grid(-2.0, 1.0 / 32, 64)),
    ]
    rng = np.random.default_rng(3)
    for sg in specs:
        x = sf.StateVector(rng.standard_normal(sg.space.dim), sg.space)
        step = 1.0 / 32 if isinstance(sg, sf.LeftTranslation) else 1.0 / 64
        first = np.array(sf.orbit(sg, x, sf.time_grid(1.0, step)).states[0])
        keep = slice(None) if isinstance(sg, sf.MatrixSemigroup) else slice(None, -1)
        assert np.array_equal(first[keep], x.coords[keep])
        assert sg.space.norm(first - x.coords) == 0.0


def test_matrix_apply_scalar_ode_oracle():
    sg = sf.MatrixSemigroup([[-1.0]])
    x = sf.StateVector.sup([1.0])
    orb = sf.orbit(sg, x, sf.time_grid(1.0, 0.01))
    assert orb.states[-1, 0] == pytest.approx(0.3678794411714423, abs=1e-12)


def test_negative_time_rejected():
    sg = sf.MatrixSemigroup([[-1.0]])
    with pytest.raises(DomainError):
        sf.orbit(sg, sf.StateVector.sup([1.0]), sf.Grid(-1.0, 0.1, 10))


def test_nilpotent_shift_vanishes_at_one():
    sg = sf.NilpotentShift(hist_grid(32))
    f = sf.StateVector.grid_function(np.cos(3 * hist_grid(32).points()) + 2.0,
                                     hist_grid(32))
    grid = sf.time_grid(1.5, 1.0 / 32)
    orb = sf.orbit(sg, f, grid)
    for t in (1.0, 1.5):
        assert np.all(orb.states[grid.index_of(t)] == 0.0)


def test_shift_incommensurate_time_rejected():
    sg = sf.NilpotentShift(hist_grid(32))
    f = sf.StateVector(np.ones(sg.space.dim), sg.space)
    with pytest.raises(GridAlignmentError):
        sf.orbit(sg, f, sf.Grid(0.0, 0.013, 10))


def test_shift_semigroup_law_exact():
    n = 32
    sg = sf.NilpotentShift(hist_grid(n))
    rng = np.random.default_rng(1)
    f = sf.StateVector(rng.standard_normal(n + 1), sg.space)
    grid = sf.time_grid(11.0 / n, 1.0 / n)
    orb = sf.orbit(sg, f, grid)
    one = sf.orbit(sg, orb.state(5), grid).states[6]
    assert np.array_equal(one, orb.states[11])


def test_shift_norm_never_increases():
    n = 32
    sg = sf.NilpotentShift(hist_grid(n))
    rng = np.random.default_rng(2)
    f = sf.StateVector(rng.standard_normal(sg.space.dim), sg.space)
    norms = sf.orbit(sg, f, sf.time_grid(1.0, 1.0 / n)).norms
    assert norms[0] == f.norm()
    assert all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))


def test_matrix_semigroup_law():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3))
    a /= np.max(np.sum(np.abs(a), axis=1))
    sg = sf.MatrixSemigroup(a)
    x = sf.StateVector.sup(rng.standard_normal(3))
    grid = sf.time_grid(1.3, 0.1)
    orb = sf.orbit(sg, x, grid)
    lhs = sf.orbit(sg, orb.state(9), grid).states[4]
    assert np.max(np.abs(lhs - orb.states[13])) <= 1e-9


def test_orbit_zero_vector():
    sg = sf.MatrixSemigroup([[-1.0]])
    orb = sf.orbit(sg, sf.StateVector.sup([0.0]), sf.time_grid(2.0, 0.1))
    assert np.all(orb.norms == 0.0)


def test_orbit_scalar_decay_oracle():
    sg = sf.MatrixSemigroup([[-1.0]])
    grid = sf.time_grid(5.0, 0.01)
    orb = sf.orbit(sg, sf.StateVector.sup([1.0]), grid)
    assert np.max(np.abs(orb.norms - np.exp(-grid.points()))) <= 1e-8


def test_orbit_stepwise_matches_direct_apply():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3)) * 0.4
    sg = sf.MatrixSemigroup(a)
    x = sf.StateVector.sup(rng.standard_normal(3))
    grid = sf.time_grid(3.0, 0.05)
    orb = sf.orbit(sg, x, grid)
    k = grid.index_of(2.0)
    assert np.max(np.abs(orb.states[k] - semigroup_apply(sg, 2.0, x.coords))) <= 1e-10


def test_orbit_nilpotent_zero_after_one():
    n = 16
    sg = sf.NilpotentShift(hist_grid(n))
    rng = np.random.default_rng(6)
    f = sf.StateVector(rng.standard_normal(sg.space.dim), sg.space)
    grid = sf.time_grid(2.0, 1.0 / n)
    orb = sf.orbit(sg, f, grid)
    ts = grid.points()
    assert np.all(orb.norms[ts >= 1.0] == 0.0)


def test_block_diag_norm_bound():
    # bounded matrix block + nilpotent shift: sup_t ||T0(t)|| <= max(M, 1)
    n = 32
    rot = sf.MatrixSemigroup([[0.0, -1.0], [1.0, 0.0]])
    sg = sf.BlockDiag((rot, sf.NilpotentShift(hist_grid(n))))
    rng = np.random.default_rng(7)
    x = sf.StateVector(rng.standard_normal(sg.space.dim), sg.space)
    grid = sf.Grid(0.0, 1.0 / n, 4 * n)
    orb = sf.orbit(sg, x, grid)
    m_rot = np.sqrt(2.0)  # sup-norm bound of a plane rotation
    assert np.max(orb.norms) <= max(m_rot, 1.0) * x.norm() + 1e-12


def test_hurwitz_decay_envelope():
    rng = np.random.default_rng(8)
    for _ in range(4):
        eigs = -rng.uniform(0.5, 2.0, size=3)
        v = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        a = v @ np.diag(eigs) @ np.linalg.inv(v)
        omega = -np.max(eigs)
        sg = sf.MatrixSemigroup(a)
        x = sf.StateVector.sup(rng.standard_normal(3))
        grid = sf.time_grid(20.0, 0.05)
        orb = sf.orbit(sg, x, grid)
        ts = grid.points()
        sel = ts >= 1.0
        envelope = 10.0 * np.exp(-0.5 * omega * ts[sel]) * x.norm()
        assert np.all(orb.norms[sel] <= envelope)


def test_left_translation_requires_unit_horizon():
    with pytest.raises(DomainError):
        sf.LeftTranslation(sf.Grid(-0.5, 1.0 / 32, 16))


def test_left_translation_profile_moves_left():
    # values at s are read from s + t: the profile translates toward -L,
    # where it eventually falls off the truncated grid
    n = 64
    grid = sf.Grid(-2.0, 1.0 / 32, n)
    sg = sf.LeftTranslation(grid)
    s = grid.points()
    f = sf.StateVector.grid_function(np.where((s >= -1.5) & (s <= -1.0), 1.0, 0.0), grid)
    tg = sf.time_grid(2.5, grid.step)
    orb = sf.orbit(sg, f, tg)
    expect = np.where((s >= -2.0) & (s <= -1.5), 1.0, 0.0)
    assert np.allclose(orb.states[tg.index_of(0.5)], expect)
    # after two more units everything has left the window
    assert np.all(orb.states[-1] == 0.0)


def test_shift_orbit_norms_keep_relative_precision_on_a_decaying_profile():
    # f(s) = exp(-10 (s + 4)): by t = 3 the state holds about 1e-13 of the
    # initial mass, which a difference of running sums over the whole
    # trajectory would carry with an absolute error of eps times that mass
    grid = sf.Grid(-4.0, 0.01, 400)
    sg = sf.LeftTranslation(grid)
    x = sf.StateVector.grid_function(np.exp(-10.0 * (grid.points() + 4.0)), grid)
    tg = sf.time_grid(4.0, 0.01)
    orb = sf.orbit(sg, x, tg)
    rows = sg.space.rows_norm(np.asarray(orb.states))
    for t in (1.0, 2.0, 3.0):
        k = tg.index_of(t)
        assert rows[k] > 0.0
        assert abs(orb.norms[k] - rows[k]) <= 1e-12 * rows[k]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 300), window=st.integers(1, 40), rate=st.floats(0.0, 2.0),
       seed=st.integers(0, 2 ** 16))
def test_sliding_l1_window_sums_are_relatively_exact(n, window, rate, seed):
    # positive values spanning up to 260 orders of magnitude
    rng = np.random.default_rng(seed)
    p = rng.random(n) * np.exp(-rate * np.arange(n))
    got = _sliding_l1(p, window, 0.5)
    assert got.shape == (max(n - window + 1, 0),)
    for i, g in enumerate(got):
        exact = 0.5 * math.fsum(p[i: i + window])
        assert abs(g - exact) <= 2 * window * np.finfo(float).eps * exact


@pytest.mark.parametrize("layout", ["matrix, matrix", "shift, matrix", "matrix",
                                    "matrix, shift, shift", "bare semigroup"])
def test_orbit_refuses_layouts_the_package_does_not_build(layout):
    # orbits exist for a matrix block, a shift block, or a matrix block
    # followed by a shift block
    blocks = {"matrix": sf.MatrixSemigroup([[-1.0]]), "shift": sf.NilpotentShift(hist_grid(8))}
    if layout == "bare semigroup":
        sg = type("Bare", (Semigroup,), {"space": sf.SupSpace(1)})()
    else:
        sg = sf.BlockDiag(tuple(blocks[name] for name in layout.split(", ")))
    x = sf.StateVector(np.ones(sg.space.dim), sg.space)
    with pytest.raises(NotImplementedError, match="no orbit for"):
        sf.orbit(sg, x, sf.time_grid(1.0, 1.0 / 8))
