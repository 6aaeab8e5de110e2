"""Sequential reference loops for the vectorized kernels.

They step each recurrence one sample at a time, and read the history one tap
at a time, exactly as the definitions in ``semflow._kernels`` and
``semflow.maps`` read; they serve only as test oracles.
"""

import numpy as np


def matrix_volterra_apply_loop(E, B, C, u, h):
    """(F u)_k = h C z_k with z_0 = 0 and z_{k+1} = E (z_k + B u_k)."""
    out = np.zeros((u.shape[0], C.shape[0]))
    z = np.zeros(E.shape[0])
    for k in range(u.shape[0]):
        out[k] = h * (C @ z)
        z = E @ (z + B @ u[k])
    return out


def matrix_volterra_solve_loop(E, B, C, v, h):
    """Forward substitution for (I - F) w = v; also returns bt_k = h z_k."""
    w = np.zeros_like(v)
    bt = np.zeros((v.shape[0], E.shape[0]))
    z = np.zeros(E.shape[0])
    for k in range(v.shape[0]):
        bt[k] = h * z
        w[k] = v[k] + h * (C @ z)
        z = E @ (z + B @ w[k])
    return w, bt


def causal_scan_loop(M, f, z0):
    """z_0 = z0 and z_{k+1} = M z_k + f_k, one step at a time."""
    z = np.empty((f.shape[0], M.shape[0]))
    z[:1] = z0
    for k in range(f.shape[0] - 1):
        z[k + 1] = M @ z[k] + f[k]
    return z


def neutral_volterra_apply_loop(E, C, prow, krow, u1, u2, h):
    """Neutral F with zero initial data: out1_k = sum_i P_i X_{k+i} and
    out2_k = h C zc_k + sum_i K_i X_{k+i}, where X places u2 behind the
    zero history and zc_{k+1} = E (zc_k + u1_k)."""
    d = E.shape[0]
    N = prow.shape[0]
    n1 = u1.shape[0]
    X = np.zeros((n1 + N, d))
    X[N + 1:] = u2[1:]
    out1 = np.zeros((n1, d))
    out2 = np.zeros((n1, d))
    zc = np.zeros(d)
    for k in range(n1):
        for i in range(N):
            out1[k] += prow[i] @ X[k + i]
            out2[k] += krow[i] @ X[k + i]
        out2[k] += h * (C @ zc)
        zc = E @ (zc + u1[k])
    return out1, out2


def neutral_direct_solve_loop(E, C, prow, krow, v, h):
    """Forward substitution for (I - F) w = v on the neutral pair, zero
    initial data; w = (w1, w2) stacked as v is."""
    d = E.shape[0]
    N = prow.shape[0]
    n = v.shape[0] - 1
    X = np.zeros((n + N + 1, d))
    w1 = np.zeros((n + 1, d))
    w2 = np.zeros((n + 1, d))
    zc = np.zeros(d)
    for k in range(n + 1):
        a1 = np.zeros(d)
        a2 = np.zeros(d)
        for i in range(N):
            a1 += prow[i] @ X[k + i]
            a2 += krow[i] @ X[k + i]
        w1[k] = v[k, :d] + a1
        w2[k] = v[k, d:] + C @ (h * zc) + a2
        if k >= 1:
            X[N + k] = w2[k]
        zc = E @ (zc + w1[k])
    return np.hstack([w1, w2])
