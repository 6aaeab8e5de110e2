"""The semigroup law on every engine, checked on drawn generators, grids and
states: row k of ``orbit`` is T(t_k)x, and T(t+s)x = T(t)T(s)x at grid times,
with T(t) applied at one time by the oracle's ``semigroup_apply``.

Shift engines are exact on samples, with one convention at the history
endpoint s = 0: T(t) reads zero there for t > 0, and a windowed orbit reads
zero there from t = 0 on.  That sample carries no weight in the left-endpoint
L1 norm, so the orbit's first state equals x in the norm of the space.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import semflow as sf
from oracles import semigroup_apply

STEP = 0.125
values = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


def vectors(n):
    return st.lists(values, min_size=n, max_size=n).map(np.array)


@st.composite
def engines(draw):
    """(semigroup, state coords, columns of the history endpoint s = 0)."""
    kind = draw(st.sampled_from(["matrix", "nilpotent", "translation", "block"]),
                label="kind")
    d = draw(st.integers(1, 2), label="d")
    parts = []
    if kind in ("matrix", "block"):
        a = draw(vectors(d * d), label="A").reshape(d, d) / 2.0
        parts.append(sf.MatrixSemigroup(a))
    if kind in ("nilpotent", "block"):
        parts.append(sf.NilpotentShift(sf.Grid(-1.0, STEP, 8), point_dim=d))
    if kind == "translation":
        n_hist = draw(st.integers(8, 24), label="L/h")
        parts.append(sf.LeftTranslation(sf.Grid(-n_hist * STEP, STEP, n_hist), point_dim=d))
    sg = parts[0] if len(parts) == 1 else sf.BlockDiag(tuple(parts))
    dim = sg.space.dim
    endpoint = [] if kind == "matrix" else list(range(dim - d, dim))
    return sg, draw(vectors(dim), label="x"), endpoint


def close(a, b, exact):
    if exact:
        return np.array_equal(a, b)
    return np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(engines(), st.integers(1, 30))
def test_orbit_rows_are_the_semigroup_at_grid_times(engine, n):
    sg, x, endpoint = engine
    exact = not isinstance(sg, (sf.MatrixSemigroup, sf.BlockDiag))
    orb = sf.orbit(sg, sf.StateVector(x, sg.space), sf.Grid(0.0, STEP, n))
    for k in range(1, n + 1):
        ref = semigroup_apply(sg, k * STEP, x)
        if isinstance(sg, sf.BlockDiag):
            d = sg.parts[0].space.dim
            assert close(orb.states[k, :d], ref[:d], exact=False)
            assert np.array_equal(orb.states[k, d:], ref[d:])
        else:
            assert close(orb.states[k], ref, exact)
    first = np.array(orb.states[0])
    assert np.array_equal(np.delete(first, endpoint), np.delete(x, endpoint))
    assert np.all(first[endpoint] == 0.0)
    assert sg.space.norm(first - x) == 0.0
    norms = sg.space.rows_norm(np.array(orb.states))
    assert np.max(np.abs(orb.norms - norms)) <= 1e-13 * max(1.0, np.max(norms))


@SETTINGS
@given(engines(), st.integers(0, 12), st.integers(0, 12))
def test_semigroup_law_at_grid_times(engine, i, j):
    sg, x, _ = engine
    exact = not isinstance(sg, (sf.MatrixSemigroup, sf.BlockDiag))
    t, s = i * STEP, j * STEP
    lhs = semigroup_apply(sg, t + s, x)
    rhs = semigroup_apply(sg, t, semigroup_apply(sg, s, x))
    assert close(lhs, rhs, exact)
    if isinstance(sg, sf.BlockDiag):
        d = sg.parts[0].space.dim
        assert np.array_equal(lhs[d:], rhs[d:])
    # the orbit obeys it too: T(t) applied to the state at s is the state at t + s
    if j >= 1:
        orb = sf.orbit(sg, sf.StateVector(x, sg.space), sf.Grid(0.0, STEP, i + j))
        assert close(semigroup_apply(sg, t, np.array(orb.states[j])), orb.states[i + j],
                     exact=exact)
