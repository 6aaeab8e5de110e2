"""Feedback/convolution kernels, the hot paths of the package.

Matrix bases: every loop is one linear recurrence, evaluated by the
vectorized numpy scan ``causal_scan``; the neutral input-output map
``neutral_volterra_apply`` is a shift-and-add over its nonzero taps plus a
scan, and the delay-line input-output map is one ``np.convolve``.

The delay-line solve, ``neutral_feedback_loop`` and ``mos_loop`` run by the
blocked method of steps (Bellen & Zennaro, *Numerical Methods for Delay
Differential Equations*, OUP 2003).  Delay kernels put no mass at 0, so a
step reads the trajectory m or more steps back, m >= 1 being the smallest
delay that carries weight: the first nonzero ``lag[j]`` with j >= 1 for a
delay line, N minus the last nonzero history row of ``prow``/``krow`` for
the neutral loops.  The outputs of m consecutive steps thus read only values
from before them, and each block of m steps takes one sliding-window product
for its history reads, one ``causal_scan`` for the ODE state and one slice
assignment placing the recovered values.  m comes from the taps alone.

Discretization: the inner quadrature of every causal convolution is the
left-endpoint rule, so the input-output map reads strictly past samples and
``I - F`` is unit lower triangular in time.  Forward substitution is then an
exact solve.  ``maps._direct`` picks each base's one Direct kernel, a closed
loop from the initial data: ``matrix_volterra_solve`` from y,
``delay_volterra_solve`` from the history f, ``neutral_feedback_loop`` from (y, f0).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# ---------------------------------------------------------------------------
# matrix-exponential convolution kernels
# ---------------------------------------------------------------------------
# Every matrix-base loop is the discrete LTI recurrence z_{k+1} = M z_k + f_k.
# (F u)_k = h * C @ z_k with z_k = sum_{j<k} E^(k-j) B u_j, i.e. M = E and
# f = E B u.  The solve variant is forward substitution for (I - F) w = v
# from the state y: with w_k = v_k + C x_k and x_{k+1} = E x_k + h E B w_k,
# x_0 = y, the state obeys the closed-loop recurrence M = E (I + h B C),
# f = h E B v, and x_k = T(t_k) y + B_{t_k} w.

def causal_scan(M, f, z0=None):
    """Rows z_0..z_{n-1} of z_{k+1} = M z_k + f_k, with z_0 = z0 (zero if omitted).

    ``f`` has shape (n, d); its last row never enters.  A log-depth doubling
    (Hillis-Steele) scan: after the pass with shift s every row holds its
    partial sum over the last 2s inputs, so ceil(log2 n) vectorized passes
    replace the sequential loop.

    Each pass multiplies the tall, thin ``z`` by the small factor
    Q = (M^(2^j))^T, kept C-contiguous and squared as Q @ Q since
    (P^2)^T = (P^T)^2.  The same product with the transposed view ``P.T`` is
    about three times slower for a (8001, 4) @ (4, 4) product on one BLAS
    thread, and gives the same bits.  Contiguity does not change how BLAS
    threads the product: under a competing process a multithreaded pool
    still stalls now and then, whichever factor it gets.
    """
    n = f.shape[0]
    z = np.empty((n, M.shape[0]))
    z[:1] = 0.0 if z0 is None else z0
    z[1:] = f[:-1]
    s, Q = 1, np.ascontiguousarray(M.T)
    while s < n:
        z[s:] += z[:-s] @ Q
        s *= 2
        if s < n:
            Q = Q @ Q
    return z


def matrix_volterra_apply(E, B, C, u, h):
    """h C z_k for every k; with ``C`` None, the control map h z_k itself."""
    z = causal_scan(E, u @ np.ascontiguousarray((E @ B).T))
    if C is None:
        return h * z
    return h * (z @ np.ascontiguousarray(C.T))


def matrix_volterra_solve(E, B, C, v, h, y=None):
    """The closed loop from x_0 = y (zero if omitted); returns (v + C x, x)."""
    M = E @ (np.eye(E.shape[0]) + h * (B @ C))
    x = causal_scan(M, v @ np.ascontiguousarray(h * (E @ B).T), y)
    return v + x @ np.ascontiguousarray(C.T), x


# ---------------------------------------------------------------------------
# the blocked method of steps
# ---------------------------------------------------------------------------

def _blocks(X, rows, m, n1):
    """Steps 0..n1-1 in blocks [b, e) of at most m, each with the reads of
    its windows: window k is X[k:k+L] flattened (L*d = len(rows)) times
    ``rows``.  Reads are taken as a block is yielded, so they see the rows the
    caller placed in X for the blocks before (X is C-contiguous, so the
    windows are a view of it); window k must end m steps before the value
    recovered at step k."""
    d = X.shape[1]
    win = sliding_window_view(X.reshape(-1), rows.shape[0])[::d]
    for b in range(0, n1, m):
        e = min(b + m, n1)
        yield b, e, win[b:e] @ rows


def _neutral_start(prow, krow, f0, y, n):
    """Trajectory X with the history f0 in rows 0..N, states zs with zs[0] = y,
    and the blocks of steps 0..n.  m and the reads (L*d, 2d) come from the P
    and K rows up to the last nonzero one; all-zero taps read one zero row."""
    N, d = prow.shape[:2]
    live = np.flatnonzero(np.any((prow != 0.0) | (krow != 0.0), axis=(1, 2)))
    L = live[-1] + 1 if live.size else 1
    rows = np.concatenate([prow[:L], krow[:L]], axis=1).transpose(0, 2, 1)
    X = np.zeros((n + N + 1, d))
    X[: N + 1] = f0
    zs = np.empty((n + 1, d))
    zs[0] = y
    return N, X, zs, _blocks(X, rows.reshape(L * d, 2 * d), N + 1 - L, n + 1)


# ---------------------------------------------------------------------------
# delay-line kernels (scalar channel)
# ---------------------------------------------------------------------------
# lag[j] weighs the sample j steps back; lag[0] is never read.

def delay_volterra_apply(lag, u):
    return np.convolve(u, np.concatenate([[0.0], lag[1:]]))[: u.shape[0]]


def delay_volterra_solve(lag, v, f=None):
    """w_k = v_k + sum_{j>=1} lag_j X_{W+k-j} on the trajectory
    X = [f[:W], w_0, w_1, ...], the history f zero if omitted; returns w and
    X as a (W + len(v), 1) column."""
    W = lag.shape[0] - 1
    X = np.zeros((W + v.shape[0], 1))
    if f is not None:
        X[:W, 0] = f[:W]
    taps = np.flatnonzero(lag[1:])
    if not taps.size:
        X[W:, 0] = v
        return X[W:, 0], X
    m = taps[0] + 1
    # window k = X[k : k+W-m+1], the values m..W steps before w_k
    for b, e, reads in _blocks(X, lag[W:m - 1:-1, None], m, v.shape[0]):
        X[W + b: W + e, 0] = v[b:e] + reads[:, 0]
    return X[W:, 0], X


# ---------------------------------------------------------------------------
# neutral-equation kernels
# ---------------------------------------------------------------------------
# X[j] holds the trajectory: X[0..N] the initial history, X[N+k] (k>=1) the
# recovered state at t_k.  prow/krow are (N, d, d) read weights over the
# history window X[k:k+N]; they carry no weight at offset 0 (kernels have no
# mass in 0), so every step only touches strictly past values.

def neutral_feedback_loop(E, C, prow, krow, f0, y, h, n, v):
    """Forward substitution with initial data (y, f0) and right-hand side v
    (n+1, 2d): w1_k = v1_k + P x_{t_k}, w2_k = v2_k + K x_{t_k} + C z_k and
    x(t_k) = w2_k for k >= 1, where z_{k+1} = E z_k + h E w1_k, z_0 = y."""
    d = E.shape[0]
    Et, Ct = np.ascontiguousarray(E.T), np.ascontiguousarray(C.T)
    N, X, zs, blocks = _neutral_start(prow, krow, f0, y, n)
    w = np.array(v, dtype=float)
    for b, e, reads in blocks:
        w[b:e] += reads
        # z_{k+1} = E z_k + h E w1_k; row e of w never enters the scan
        zs[b: e + 1] = causal_scan(E, h * (w[b: e + 1, :d] @ Et), zs[b])
        w[b:e, d:] += zs[b:e] @ Ct
        s = max(b, 1)
        X[N + s: N + e] = w[s:e, d:]
    return w[:, :d], w[:, d:], zs, X


def neutral_volterra_apply(E, C, prow, krow, u1, u2, h):
    """Input-output map of the neutral perturbation: zero initial data, the
    placed channel carries u2, the convolution channel is driven by u1.

    The history reads are a shift-and-add over the taps that carry weight;
    the convolution state is the scan zc_{k+1} = E (zc_k + u1_k).
    """
    d = E.shape[0]
    N = prow.shape[0]
    n1 = u1.shape[0]
    X = np.zeros((n1 + N, d))
    X[N + 1:] = u2[1:]
    out1 = np.zeros((n1, d))
    out2 = h * (causal_scan(E, u1 @ np.ascontiguousarray(E.T)) @ np.ascontiguousarray(C.T))
    for out, row in ((out1, prow), (out2, krow)):
        for i in np.flatnonzero(np.any(row != 0.0, axis=(1, 2))):
            out += X[i: i + n1] @ np.ascontiguousarray(row[i].T)
    return out1, out2


def mos_loop(E, C, prow, krow, f0, y, h, n):
    """Method of steps: exponential-trapezoid step on z' = A z + P x_t,
    z_{k+1} = E z_k + h/2 (E P x_{t_k} + P x_{t_{k+1}}), with the explicit
    recovery x(t_k) = C z_k + K x_{t_k} for k >= 1."""
    d = E.shape[0]
    Et, Ct = np.ascontiguousarray(E.T), np.ascontiguousarray(C.T)
    N, X, zs, blocks = _neutral_start(prow, krow, f0, y, n)
    G = np.zeros((n + 2, 2 * d))  # (P x_{t_k}, K x_{t_k}); row n+1 stays zero
    for b, e, reads in blocks:
        G[b:e] = reads
        # steps s -> e-1 need P x_t up to t_{e-1}; row e of G never enters
        s = max(b - 1, 0)
        f = 0.5 * h * (G[s:e, :d] @ Et + G[s + 1: e + 1, :d])
        zs[s:e] = causal_scan(E, f, zs[s])
        s = max(b, 1)
        X[N + s: N + e] = zs[s:e] @ Ct + G[s:e, d:]
    return zs, X
