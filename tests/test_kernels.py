"""The kernels must agree with independent implementations.

Every base runs on one apply (``volterra_apply``) and one solve
(``volterra_solve``), the blocked method of steps over the vectorized scan;
``mos_loop`` shares the blocks.  Each base's entries and the two kernels on
matrix, delay-line and neutral data are checked against the sequential loops
in ``oracles.py``, at lengths around the block edges.  The entries take a
realization's arrays; ``layout`` lays the oracles' ``lag`` and (P, K) rows
out so.
"""

import numpy as np
import pytest

from semflow import _kernels as K
from semflow.core import matexp

from oracles import (causal_scan_loop, delay_volterra_apply_loop,
                     delay_volterra_solve_loop, matrix_volterra_apply_loop,
                     matrix_volterra_solve_loop, mos_step_loop,
                     neutral_feedback_step_loop, neutral_volterra_apply_loop)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(17)
    h = 1e-3
    d = 2
    a = np.array([[-1.0, 0.3], [-0.1, -2.0]])
    e = matexp(a, h)
    b = rng.standard_normal((d, d))
    c = 0.3 * rng.standard_normal((d, d))
    return rng, h, d, e, b, c


def test_matrix_kernels_agree(data):
    rng, h, d, e, b, c = data
    u = rng.standard_normal((400, d))
    fast = K.matrix_volterra_apply(e, b, c, u, h)
    loop = matrix_volterra_apply_loop(e, b, c, u, h)
    assert np.max(np.abs(fast - loop)) <= 1e-14
    wf, btf, X = K.matrix_volterra_solve(e, b, c, u, h)
    wl, btl = matrix_volterra_solve_loop(e, b, c, u, h)
    assert X.shape == (u.shape[0], 0)
    assert np.max(np.abs(wf - wl)) <= 1e-14
    assert np.max(np.abs(btf - btl)) <= 1e-14
    # the closed loop from a state: the perturbed orbit and its observation
    y = rng.uniform(0.5, 2.0, size=d)
    for a_, b_ in zip(K.matrix_volterra_solve(e, b, c, u, h, y)[:2],
                      matrix_volterra_solve_loop(e, b, c, u, h, y)):
        assert np.max(np.abs(a_ - b_)) <= 1e-13


@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 4097])
def test_matrix_scan_lengths(n, d):
    # lengths around the powers of two the doubling scan steps through
    rng = np.random.default_rng(1000 * d + n)
    h = 1e-3
    e = matexp(-np.eye(d) + 0.3 * rng.standard_normal((d, d)), h)
    b = rng.standard_normal((d, d))
    c = 0.3 * rng.standard_normal((d, d))
    u = rng.standard_normal((n, d))
    out = K.matrix_volterra_apply(e, b, c, u, h)
    assert out.shape == (n, d)
    assert np.max(np.abs(out - matrix_volterra_apply_loop(e, b, c, u, h))) <= 1e-14
    w, bt, X = K.matrix_volterra_solve(e, b, c, u, h)
    wl, btl = matrix_volterra_solve_loop(e, b, c, u, h)
    assert w.shape == (n, d) and bt.shape == (n, d) and X.shape == (n, 0)
    assert np.max(np.abs(w - wl)) <= 1e-14
    assert np.max(np.abs(bt - btl)) <= 1e-14
    # non-square control and observation: d states, d + 1 inputs, 2 outputs
    bn = rng.standard_normal((d, d + 1))
    cn = 0.3 * rng.standard_normal((2, d))
    un = rng.standard_normal((n, d + 1))
    outn = K.matrix_volterra_apply(e, bn, cn, un, h)
    assert outn.shape == (n, 2)
    assert np.max(np.abs(outn - matrix_volterra_apply_loop(e, bn, cn, un, h))) <= 1e-14
    # the base orbit: no forcing, nonzero initial state; both sides round off
    # once per step on O(1) states, hence the looser pin
    x = rng.uniform(0.5, 2.0, size=d)
    zero = np.zeros((n, d))
    assert np.max(np.abs(K.causal_scan(e, zero, x) - causal_scan_loop(e, zero, x))) <= 1e-13


def layout(lag=None, e=None, c=None, prow=None, krow=None):
    """(E, B, C, taps, first) as a realization lays out a delay line's
    ``lag`` (lag j reads X_{k-j}: no state, one placed channel, taps[i]
    reads X_{k+i} with lag W - i) or a neutral pair's E, C and (P, K) rows
    (B = [I 0], C -> [0; C], taps[i] (d, 2d) reads X_{k+i}, the second
    channel placed from step 1)."""
    if lag is not None:
        none, one = np.zeros((0, 0)), np.zeros((0, 1))
        return none, one, one.T, lag[:0:-1, None, None], 0
    d = e.shape[0]
    C = np.vstack([np.zeros((d, d)), c])
    return e, np.eye(d, 2 * d), C, np.concatenate([prow, krow], axis=1).transpose(0, 2, 1), 1


def test_delay_kernels_agree(data):
    rng, h = data[0], data[1]
    lag = np.zeros(81)
    lag[80] = 0.6
    lag[1:40] = 1e-3 * rng.standard_normal(39)
    v = rng.standard_normal(500)
    E, B, C, T, first = layout(lag)
    assert np.max(np.abs(K.delay_volterra_apply(E, B, C, v[:, None], h, T, first)[:, 0]
                         - delay_volterra_apply_loop(lag, v))) <= 1e-13
    assert np.max(np.abs(K.delay_volterra_solve(E, B, C, v[:, None], h, None, T, first)[0][:, 0]
                         - delay_volterra_solve_loop(lag, v))) <= 1e-13
    # from a history: the trajectory is [f[:80], w_0, w_1, ...]
    f = rng.standard_normal(81)
    w, z, X = K.delay_volterra_solve(E, B, C, v[:, None], h, None, T, first, f[:, None])
    assert z.shape == (500, 0)
    assert np.array_equal(X[:80, 0], f[:80]) and np.array_equal(X[80:], w)
    assert np.max(np.abs(w[:, 0] - delay_volterra_solve_loop(lag, v, f))) <= 1e-13


def test_neutral_kernels_agree(data):
    rng, h, d, e, b, c = data
    N = 48
    prow = np.zeros((N, d, d))
    prow[0] = 0.3 * np.eye(d)
    prow[7] = 0.05 * rng.standard_normal((d, d))
    prow[N - 1] = 0.1 * rng.standard_normal((d, d))  # lag 1: reads the last step
    krow = np.zeros((N, d, d))
    krow[0] = 0.25 * np.eye(d)
    krow[N - 1] = 0.1 * rng.standard_normal((d, d))
    f0 = rng.standard_normal((N + 1, d))
    y = rng.standard_normal(d)
    n = 300
    v = rng.standard_normal((n + 1, 2 * d))
    E, B, C, taps, first = layout(e=e, c=c, prow=prow, krow=krow)
    w, zs, X = K.volterra_solve(E, B, C, v, h, y, taps, first, f0)
    loop = neutral_feedback_step_loop(e, c, prow, krow, f0, y, h, n, v)
    for a_, b_ in zip((w[:, :d], w[:, d:], zs, X), loop):
        assert np.max(np.abs(a_ - b_)) <= 1e-12
    u1 = rng.standard_normal((n + 1, d))
    u2 = rng.standard_normal((n + 1, d))
    fa = K.neutral_volterra_apply(E, B, C, np.hstack([u1, u2]), h, taps, first)
    la = neutral_volterra_apply_loop(e, c, prow, krow, u1, u2, h)
    for a_, b_ in zip((fa[:, :d], fa[:, d:]), la):
        assert np.max(np.abs(a_ - b_)) <= 1e-12
    fm = K.mos_loop(e, c, taps, f0, y, h, n)
    lm = mos_step_loop(e, c, prow, krow, f0, y, h, n)
    for a_, b_ in zip(fm, lm):
        assert np.max(np.abs(a_ - b_)) <= 1e-12


def _taps(rng, N, d, m):
    """(N, d, d) P and K rows whose smallest delay is m steps (row N - m is
    the newest that carries weight, in P for odd m and in K for even m);
    m = 0 gives all-zero taps."""
    prow = np.zeros((N, d, d))
    krow = np.zeros((N, d, d))
    if m:
        prow[0] = 0.2 * rng.standard_normal((d, d))
        prow[N // 3] = 0.2 * rng.standard_normal((d, d))
        krow[0] = 0.25 * np.eye(d)
        (prow if m % 2 else krow)[N - m] = 0.15 * rng.standard_normal((d, d))
    return prow, krow


# step counts n+1 around the edges of blocks of m steps
LENGTHS = {"1": lambda m: 1, "m-1": lambda m: m - 1, "m": lambda m: m,
           "m+1": lambda m: m + 1, "2m": lambda m: 2 * m, "2m+1": lambda m: 2 * m + 1}
SMALLEST_LAGS = {"m1": 1, "m2": 2, "quarter": 8, "zero": 0}  # N = 32


@pytest.mark.parametrize("taps,length", [
    (t, n) for t in SMALLEST_LAGS for n in LENGTHS if (t, n) != ("m1", "m-1")])
def test_blocked_kernels_agree_around_block_edges(data, taps, length):
    # blocks of m steps: lengths on both sides of one and two block edges,
    # the one apply and the one solve on the neutral, delay-line and matrix
    # data against the step-by-step oracles; without a tap that carries
    # weight the steps are one block
    rng, h, d, e, b, c = data
    N = 32
    m = SMALLEST_LAGS[taps]
    n1 = LENGTHS[length](m or N)
    prow, krow = _taps(rng, N, d, m)
    f0 = rng.standard_normal((N + 1, d))
    y = rng.standard_normal(d)
    v = rng.standard_normal((n1, 2 * d))
    # neutral: from (y, f0), f(0) kept in row N, w2 placed from step 1
    E, B, C, T, first = layout(e=e, c=c, prow=prow, krow=krow)
    w, zs, X = K.volterra_solve(E, B, C, v, h, y, T, first, f0)
    loop = neutral_feedback_step_loop(e, c, prow, krow, f0, y, h, n1 - 1, v)
    for a_, b_ in zip((w[:, :d], w[:, d:], zs, X), loop):
        assert a_.shape == b_.shape
        assert np.max(np.abs(a_ - b_)) <= 1e-12
    ref = np.hstack(neutral_volterra_apply_loop(e, c, prow, krow, v[:, :d], v[:, d:], h))
    for out in (K.volterra_apply(E, B, C, v, h, T, first),
                K.neutral_volterra_apply(E, B, C, v, h, T, first)):
        assert out.shape == ref.shape and np.max(np.abs(out - ref)) <= 1e-12
    fast = K.mos_loop(e, c, T, f0, y, h, n1 - 1)
    loop = mos_step_loop(e, c, prow, krow, f0, y, h, n1 - 1)
    for a_, b_ in zip(fast, loop):
        assert a_.shape == b_.shape
        assert np.max(np.abs(a_ - b_)) <= 1e-12
    # the delay line on W = N lags, the solve from the history f; lag[0]
    # carries weight the kernels never read.  No state: E is 0x0
    lag = np.zeros(N + 1)
    lag[0] = 1.0
    if m:
        lag[m] = 0.5
        lag[m + 1:] = 1e-2 * rng.standard_normal(N - m)
    u, f = v[:, 0], f0[:, 0]
    E, B, C, T, first = layout(lag)
    _, z, X = K.volterra_solve(E, B, C, u[:, None], h, None, T, first, f[:, None])
    assert z.shape == (n1, 0) and np.array_equal(X[:N, 0], f[:N])
    w, z, Xd = K.delay_volterra_solve(E, B, C, u[:, None], h, None, T, first, f[:, None])
    assert z.shape == (n1, 0) and np.array_equal(Xd, X)
    for out, ref in ((K.delay_volterra_apply(E, B, C, u[:, None], h, T, first)[:, 0],
                      delay_volterra_apply_loop(lag, u)),
                     (K.volterra_apply(E, B, C, u[:, None], h, T, first)[:, 0],
                      delay_volterra_apply_loop(lag, u)),
                     (w[:, 0], delay_volterra_solve_loop(lag, u, f)),
                     (X[N:, 0], delay_volterra_solve_loop(lag, u, f))):
        assert out.shape == (n1,)
        assert np.max(np.abs(out - ref)) <= 1e-13
    # the matrix base places nothing: one block of n1 steps, from y
    w, z, X = K.volterra_solve(e, b, c, v[:, :d], h, y)
    wl, zl = matrix_volterra_solve_loop(e, b, c, v[:, :d], h, y)
    assert X.shape == (n1, 0)
    assert np.max(np.abs(w - wl)) <= 1e-13 and np.max(np.abs(z - zl)) <= 1e-13
    out = K.volterra_apply(e, b, c, v[:, :d], h)
    assert np.max(np.abs(out - matrix_volterra_apply_loop(e, b, c, v[:, :d], h))) <= 1e-14


def test_strict_causality_of_discrete_io():
    # the discrete input-output map has zero instantaneous term: a unit
    # impulse at k produces output only at indices > k
    e = matexp(np.array([[-1.0]]), 1e-2)
    u = np.zeros((50, 1))
    u[20] = 1.0
    out = K.matrix_volterra_apply(e, np.eye(1), np.eye(1), u, 1e-2)
    assert np.all(out[:21] == 0.0)
    assert out[21, 0] != 0.0
