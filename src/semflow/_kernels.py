"""Feedback/convolution kernels, the hot paths of the package.

Matrix bases: every loop is one linear recurrence, evaluated by the
vectorized numpy scan ``causal_scan`` on every backend.

Delay-line and neutral kernels: each has a pure-numpy implementation
(vectorized inner reads, python loop over time) and, when numba is available,
an njit-compiled twin with explicit loops.  Setting ``SEMFLOW_DISABLE_NUMBA=1``
in the environment forces the numpy path; ``NUMBA_ENABLED`` says which one
runs, and the test suite pins both to agree to machine precision.

Discretization: the inner quadrature of every causal convolution is the
left-endpoint rule, so the input-output map reads strictly past samples and
``I - F`` is unit lower triangular in time.  Forward substitution is then an
exact solve.
"""

from __future__ import annotations

import os

import numpy as np

_flag = os.environ.get("SEMFLOW_DISABLE_NUMBA", "").strip().lower()
NUMBA_DISABLED = _flag in {"1", "true", "yes", "on"}

try:
    if NUMBA_DISABLED:
        raise ImportError
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:
    NUMBA_ENABLED = False

    def njit(*args, **kwargs):  # no-op decorator
        if args and callable(args[0]):
            return args[0]

        def wrap(f):
            return f

        return wrap


# ---------------------------------------------------------------------------
# matrix-exponential convolution kernels
# ---------------------------------------------------------------------------
# Every matrix-base loop is the discrete LTI recurrence z_{k+1} = M z_k + f_k.
# (F u)_k = h * C @ z_k with z_k = sum_{j<k} E^(k-j) B u_j, i.e. M = E and
# f = E B u.  The solve variant is forward substitution for (I - F) w = v:
# with w_k = v_k + h C z_k and z_{k+1} = E (z_k + B w_k) the state obeys the
# closed-loop recurrence M = E (I + h B C), f = E B v, and bt_k = h * z_k is
# the control map of the solved signal up to t_k.

def causal_scan(M, f, z0=None):
    """Rows z_0..z_{n-1} of z_{k+1} = M z_k + f_k, with z_0 = z0 (zero if omitted).

    ``f`` has shape (n, d); its last row never enters.  A log-depth doubling
    (Hillis-Steele) scan: after the pass with shift s every row holds its
    partial sum over the last 2s inputs, so ceil(log2 n) vectorized passes
    replace the sequential loop.
    """
    n = f.shape[0]
    z = np.empty((n, M.shape[0]))
    z[:1] = 0.0 if z0 is None else z0
    z[1:] = f[:-1]
    s, P = 1, M
    while s < n:
        z[s:] += z[:-s] @ P.T
        s *= 2
        if s < n:
            P = P @ P
    return z


def matrix_volterra_apply(E, B, C, u, h):
    z = causal_scan(E, u @ (E @ B).T)
    return h * (z @ C.T)


def matrix_volterra_solve(E, B, C, v, h):
    M = E @ (np.eye(E.shape[0]) + h * (B @ C))
    bt = h * causal_scan(M, v @ (E @ B).T)
    return v + bt @ C.T, bt


# ---------------------------------------------------------------------------
# delay-line kernels (scalar channel)
# ---------------------------------------------------------------------------

def _delay_volterra_apply_np(lag, u):
    n1 = u.shape[0]
    W = lag.shape[0] - 1
    out = np.zeros(n1)
    rev = lag[1:][::-1]  # rev pairs lag[j] with u[k-j]
    for k in range(1, n1):
        jmax = min(k, W)
        out[k] = rev[W - jmax:] @ u[k - jmax: k]
    return out


def _delay_volterra_apply_nb(lag, u):
    n1 = u.shape[0]
    W = lag.shape[0] - 1
    out = np.zeros(n1)
    for k in range(n1):
        acc = 0.0
        jmax = min(k, W)
        for j in range(1, jmax + 1):
            acc += lag[j] * u[k - j]
        out[k] = acc
    return out


def _delay_volterra_solve_np(lag, v):
    n1 = v.shape[0]
    W = lag.shape[0] - 1
    w = np.zeros(n1)
    w[0] = v[0]
    lagl = lag[1:]
    for k in range(1, n1):
        jmax = min(k, W)
        w[k] = v[k] + lagl[:jmax] @ w[k - 1:: -1][:jmax]
    return w


def _delay_volterra_solve_nb(lag, v):
    n1 = v.shape[0]
    W = lag.shape[0] - 1
    w = np.zeros(n1)
    for k in range(n1):
        acc = 0.0
        jmax = min(k, W)
        for j in range(1, jmax + 1):
            acc += lag[j] * w[k - j]
        w[k] = v[k] + acc
    return w


# ---------------------------------------------------------------------------
# neutral-equation kernels
# ---------------------------------------------------------------------------
# X[j] holds the trajectory: X[0..N] the initial history, X[N+k] (k>=1) the
# recovered state at t_k.  prow/krow are (N, d, d) read weights over the
# history window; they carry no weight at offset 0 (kernels have no mass in
# 0), so every step only touches strictly past values.

def _neutral_feedback_loop_np(E, C, prow, krow, f0, y, h, n):
    d = E.shape[0]
    N = prow.shape[0]
    X = np.zeros((n + N + 1, d))
    X[: N + 1] = f0
    w1 = np.zeros((n + 1, d))
    w2 = np.zeros((n + 1, d))
    zs = np.zeros((n + 1, d))
    zy = y.copy()
    zc = np.zeros(d)
    pr = prow.transpose(0, 2, 1).reshape(N * d, d)
    kr = krow.transpose(0, 2, 1).reshape(N * d, d)
    for k in range(n + 1):
        win = X[k: k + N].reshape(N * d)
        a1 = win @ pr
        a2 = win @ kr
        z = zy + h * zc
        zs[k] = z
        w1[k] = a1
        w2[k] = C @ z + a2
        if k >= 1:
            X[N + k] = w2[k]
        zc = E @ (zc + w1[k])
        zy = E @ zy
    return w1, w2, zs, X


def _neutral_feedback_loop_nb(E, C, prow, krow, f0, y, h, n):
    d = E.shape[0]
    N = prow.shape[0]
    X = np.zeros((n + N + 1, d))
    X[: N + 1] = f0
    w1 = np.zeros((n + 1, d))
    w2 = np.zeros((n + 1, d))
    zs = np.zeros((n + 1, d))
    zy = y.copy()
    zc = np.zeros(d)
    for k in range(n + 1):
        for r in range(d):
            s1 = 0.0
            s2 = 0.0
            for i in range(N):
                for c in range(d):
                    x = X[k + i, c]
                    s1 += prow[i, r, c] * x
                    s2 += krow[i, r, c] * x
            w1[k, r] = s1
            w2[k, r] = s2
        for r in range(d):
            zs[k, r] = zy[r] + h * zc[r]
            for c in range(d):
                w2[k, r] += C[r, c] * (zy[c] + h * zc[c])
        if k >= 1:
            X[N + k] = w2[k]
        zc = E @ (zc + w1[k])
        zy = E @ zy
    return w1, w2, zs, X


def _neutral_volterra_apply_np(E, C, prow, krow, u1, u2, h):
    # pure input-output map of the neutral perturbation: zero initial data,
    # the placed channel carries u2, the convolution channel is driven by u1
    d = E.shape[0]
    N = prow.shape[0]
    n1 = u1.shape[0]
    X = np.zeros((n1 + N, d))
    X[N + 1:] = u2[1:]
    out1 = np.zeros((n1, d))
    out2 = np.zeros((n1, d))
    zc = np.zeros(d)
    pr = prow.transpose(0, 2, 1).reshape(N * d, d)
    kr = krow.transpose(0, 2, 1).reshape(N * d, d)
    for k in range(n1):
        win = X[k: k + N].reshape(N * d)
        out1[k] = win @ pr
        out2[k] = C @ (h * zc) + win @ kr
        zc = E @ (zc + u1[k])
    return out1, out2


def _neutral_volterra_apply_nb(E, C, prow, krow, u1, u2, h):
    d = E.shape[0]
    N = prow.shape[0]
    n1 = u1.shape[0]
    X = np.zeros((n1 + N, d))
    for k in range(1, n1):
        X[N + k] = u2[k]
    out1 = np.zeros((n1, d))
    out2 = np.zeros((n1, d))
    zc = np.zeros(d)
    for k in range(n1):
        for r in range(d):
            s1 = 0.0
            s2 = 0.0
            for i in range(N):
                for c in range(d):
                    x = X[k + i, c]
                    s1 += prow[i, r, c] * x
                    s2 += krow[i, r, c] * x
            out1[k, r] = s1
            acc = 0.0
            for c in range(d):
                acc += C[r, c] * zc[c]
            out2[k, r] = s2 + h * acc
        zc = E @ (zc + u1[k])
    return out1, out2


def _mos_loop_np(E, C, prow, krow, f0, y, h, n):
    # method of steps: exponential-trapezoid step on z' = A z + P x_t,
    # explicit recovery x(t) = C z(t) + K x_t
    d = E.shape[0]
    N = prow.shape[0]
    X = np.zeros((n + N + 1, d))
    X[: N + 1] = f0
    zs = np.zeros((n + 1, d))
    z = y.copy()
    zs[0] = z
    pr = prow.transpose(0, 2, 1).reshape(N * d, d)
    kr = krow.transpose(0, 2, 1).reshape(N * d, d)
    for k in range(n):
        g0 = X[k: k + N].reshape(N * d) @ pr
        g1 = X[k + 1: k + 1 + N].reshape(N * d) @ pr
        z = E @ z + 0.5 * h * (E @ g0 + g1)
        X[N + k + 1] = C @ z + X[k + 1: k + 1 + N].reshape(N * d) @ kr
        zs[k + 1] = z
    return zs, X


def _mos_loop_nb(E, C, prow, krow, f0, y, h, n):
    d = E.shape[0]
    N = prow.shape[0]
    X = np.zeros((n + N + 1, d))
    X[: N + 1] = f0
    zs = np.zeros((n + 1, d))
    z = y.copy()
    zs[0] = z
    g0 = np.zeros(d)
    g1 = np.zeros(d)
    a2 = np.zeros(d)
    for k in range(n):
        for r in range(d):
            s0 = 0.0
            s1 = 0.0
            s2 = 0.0
            for i in range(N):
                for c in range(d):
                    s0 += prow[i, r, c] * X[k + i, c]
                    s1 += prow[i, r, c] * X[k + 1 + i, c]
                    s2 += krow[i, r, c] * X[k + 1 + i, c]
            g0[r] = s0
            g1[r] = s1
            a2[r] = s2
        z = E @ z + 0.5 * h * (E @ g0 + g1)
        X[N + k + 1] = C @ z + a2
        zs[k + 1] = z
    return zs, X


# uncompiled numpy implementations of the delay-line and neutral kernels
PLAIN = {
    "delay_volterra_apply": _delay_volterra_apply_np,
    "delay_volterra_solve": _delay_volterra_solve_np,
    "neutral_feedback_loop": _neutral_feedback_loop_np,
    "neutral_volterra_apply": _neutral_volterra_apply_np,
    "mos_loop": _mos_loop_np,
}

if NUMBA_ENABLED:
    delay_volterra_apply = njit(cache=True)(_delay_volterra_apply_nb)
    delay_volterra_solve = njit(cache=True)(_delay_volterra_solve_nb)
    neutral_feedback_loop = njit(cache=True)(_neutral_feedback_loop_nb)
    neutral_volterra_apply = njit(cache=True)(_neutral_volterra_apply_nb)
    mos_loop = njit(cache=True)(_mos_loop_nb)
    COMPILED = {
        "delay_volterra_apply": delay_volterra_apply,
        "delay_volterra_solve": delay_volterra_solve,
        "neutral_feedback_loop": neutral_feedback_loop,
        "neutral_volterra_apply": neutral_volterra_apply,
        "mos_loop": mos_loop,
    }
else:
    delay_volterra_apply = _delay_volterra_apply_np
    delay_volterra_solve = _delay_volterra_solve_np
    neutral_feedback_loop = _neutral_feedback_loop_np
    neutral_volterra_apply = _neutral_volterra_apply_np
    mos_loop = _mos_loop_np
    COMPILED = {}
