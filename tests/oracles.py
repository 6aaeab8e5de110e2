"""Sequential reference loops for the matrix kernels.

They step the recurrence one sample at a time, exactly as the definitions in
``semflow._kernels`` read, and serve only as test oracles for the scan.
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
