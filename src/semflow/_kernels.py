"""Feedback kernels, the hot paths of the package.

Every base is one strictly causal system on the grid (``maps.Realization``):

    z_{k+1} = E z_k + h E B w_k,   z_0 = y,
    w_k = v_k + C z_k + sum_i taps[i] X_{k+i},

X being the trajectory of the placed channel: the history f in its first
H = len(taps) rows, then the last columns of w_k in row H + k for
k >= ``first``.  ``volterra_apply`` is F, the system from zero initial data
with the feedback opened; ``volterra_solve`` is the forward substitution of
the closed loop from (y, f).  The five named entries take a realization's
own arrays, (E, B, C, signal, h, ...) in one signature with the signal at
position 3, and are each one call of the two: a name per base, for tracing.

Both run by the blocked method of steps (Bellen & Zennaro, *Numerical
Methods for Delay Differential Equations*, OUP 2003).  Delay kernels put no
mass at 0, so a step reads the trajectory m or more steps back, m >= 1 being
the smallest delay that carries weight, read from the taps.  The outputs of
m consecutive steps thus read only values from before them, and each block
of m steps takes one sliding-window product for its history reads, one
``causal_scan`` for the state and one slice assignment placing the
recovered values.  Within a block the state runs the closed loop
M = E (I + h B C), which is E on a neutral base (B C = 0); with no tap that
carries weight the steps are one block, so a matrix-base solve is one scan.
``_blocks`` is the one history read: the two kernels, ``mos_loop`` and,
through ``add_reads``, the observe step of ``maps`` take their tap reads
from it.

Discretization: the inner quadrature of every causal convolution is the
left-endpoint rule, so the input-output map reads strictly past samples and
``I - F`` is unit lower triangular in time.  Forward substitution is then an
exact solve.  ``mos_loop`` is the independent method-of-steps oracle of the
``neutral-compare`` command.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_NO_TAPS = np.zeros((0, 0, 0))


def causal_scan(M, f, z0=None, out=None):
    """Rows z_0..z_{n-1} of z_{k+1} = M z_k + f_k, with z_0 = z0 (zero if omitted).

    ``f`` has shape (n, d); its last row never enters.  The rows go into
    ``out`` when given, which z0 may be a row of.  A log-depth doubling
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
    z = np.empty((n, M.shape[0])) if out is None else out
    z[:1] = 0.0 if z0 is None else z0
    z[1:] = f[:-1]
    s, Q = 1, np.ascontiguousarray(M.T)
    while s < n:
        z[s:] += z[:-s] @ Q
        s *= 2
        if s < n:
            Q = Q @ Q
    return z


def _blocks(X, taps, n1):
    """Steps 0..n1-1 in blocks [b, e), each with the reads of its windows,
    None when no tap carries weight (then the steps are one block).  The
    reads stop at L, the newest tap row that carries weight, plus one, and
    blocks are m = H + 1 - L steps long: window k is X[k:k+L] flattened
    times the first L tap rows, and ends m steps before row H + k.  Reads are
    taken as a block is yielded, so they see the rows the caller placed in X
    for the blocks before (X is C-contiguous, so the windows are a view)."""
    H, q, out = taps.shape
    live = np.flatnonzero(np.any(taps != 0.0, axis=(1, 2)))
    if not live.size:
        yield 0, n1, None
        return
    L = live[-1] + 1
    rows = taps[:L].reshape(L * q, out)
    win = sliding_window_view(X.reshape(-1), L * q)[::q]
    for b in range(0, n1, H + 1 - L):
        e = min(b + H + 1 - L, n1)
        yield b, e, win[b:e] @ rows


def add_reads(out, X, taps):
    """Adds the tap reads sum_i taps[i] X_{k+i} of the trajectory X to every
    row k of ``out``, block by block; returns ``out``."""
    for b, e, reads in _blocks(X, taps, out.shape[0]):
        if reads is not None:
            out[b:e] += reads
    return out


def volterra_apply(E, B, C, u, h, taps=_NO_TAPS, first=0):
    """F u from zero initial data: h C z_k plus the tap reads of the
    trajectory that places u, where z_{k+1} = E (z_k + B u_k); with ``C``
    None, the control map h z_k itself."""
    z = causal_scan(E, u @ np.ascontiguousarray((E @ B).T))
    if C is None:
        return h * z
    H, q = taps.shape[:2]
    X = np.zeros((u.shape[0] + H, q))
    X[H + first:] = u[first:, u.shape[1] - q:]
    return add_reads(h * (z @ np.ascontiguousarray(C.T)), X, taps)


def volterra_solve(E, B, C, v, h, y=None, taps=_NO_TAPS, first=0, f=None):
    """Forward substitution of w = v + C z + the tap reads, from the state
    z_0 = y and the history f (zero if omitted); returns w, the states z and
    the trajectory X."""
    n1, H, q = v.shape[0], taps.shape[0], taps.shape[1]
    M = E @ (np.eye(E.shape[0]) + h * (B @ C))
    G = np.ascontiguousarray(h * (E @ B).T)
    Ct = np.ascontiguousarray(C.T)
    w = np.array(v, dtype=float)
    z = np.empty((n1, E.shape[0]))
    z[:1] = 0.0 if y is None else y
    X = np.zeros((n1 + H, q))
    if f is not None:
        X[: H + first] = f[: H + first]
    for b, e, reads in _blocks(X, taps, n1):
        if reads is not None:
            w[b:e] += reads
        # z_{k+1} = M z_k + h E B (v_k + reads_k); row e of w never enters
        causal_scan(M, w[b: e + 1] @ G, z[b], z[b: e + 1])
        w[b:e] += z[b:e] @ Ct
        s = max(b, first)
        X[H + s: H + e] = w[s:e, w.shape[1] - q:]
    return w, z, X


# ---------------------------------------------------------------------------
# the entries of the three bases
# ---------------------------------------------------------------------------

def matrix_volterra_apply(E, B, C, u, h, taps=_NO_TAPS, first=0):
    """F of a matrix base, h C z_k; with ``C`` None, the control map h z_k."""
    return volterra_apply(E, B, C, u, h, taps, first)


def matrix_volterra_solve(E, B, C, v, h, y=None, taps=_NO_TAPS, first=0, f=None):
    """The closed loop of a matrix base from x_0 = y (zero if omitted):
    (v + C x, x, an empty trajectory)."""
    return volterra_solve(E, B, C, v, h, y, taps, first, f)


def delay_volterra_apply(E, B, C, u, h, taps=_NO_TAPS, first=0):
    """F of a delay line (E 0x0, one placed channel): the tap reads of u."""
    return volterra_apply(E, B, C, u, h, taps, first)


def delay_volterra_solve(E, B, C, v, h, y=None, taps=_NO_TAPS, first=0, f=None):
    """The closed loop of a delay line from the history f: (w, no state, X)."""
    return volterra_solve(E, B, C, v, h, y, taps, first, f)


def neutral_volterra_apply(E, B, C, u, h, taps=_NO_TAPS, first=0):
    """F of the neutral perturbation: B = [I 0], C = [0; C] and the (P, K)
    reads; the first half of u drives the state, the second is placed from
    step ``first`` = 1."""
    return volterra_apply(E, B, C, u, h, taps, first)


def mos_loop(E, C, taps, f0, y, h, n):
    """Method of steps: exponential-trapezoid step on z' = A z + P x_t,
    z_{k+1} = E z_k + h/2 (E P x_{t_k} + P x_{t_{k+1}}), with the explicit
    recovery x(t_k) = C z_k + K x_{t_k} for k >= 1; ``taps`` (N, d, 2d) are
    the neutral realization's (P, K) reads of the history window."""
    d, N = E.shape[0], taps.shape[0]
    Et, Ct = np.ascontiguousarray(E.T), np.ascontiguousarray(C.T)
    X = np.zeros((n + N + 1, d))
    X[: N + 1] = f0
    zs = np.empty((n + 1, d))
    zs[0] = y
    G = np.zeros((n + 2, 2 * d))  # (P x_{t_k}, K x_{t_k}); row n+1 stays zero
    for b, e, reads in _blocks(X, taps, n + 1):
        if reads is not None:
            G[b:e] = reads
        # steps s -> e-1 need P x_t up to t_{e-1}; row e of G never enters
        s = max(b - 1, 0)
        f = 0.5 * h * (G[s:e, :d] @ Et + G[s + 1: e + 1, :d])
        causal_scan(E, f, zs[s], zs[s:e])
        s = max(b, 1)
        X[N + s: N + e] = zs[s:e] @ Ct + G[s:e, d:]
    return zs, X
