"""Shared builders for the test suite."""

import sys

import numpy as np

import semflow as sf
from semflow import neutral as nt


def scalar_mv(q, a=-1.0):
    """A = [[a]], B = Id, C = [[q]]."""
    return sf.PerturbationTriple(sf.MatrixSemigroup([[a]]), sf.IdentityControl(),
                                 [[q]])


def smooth_signal(grid, seed, dim=1, taper=True):
    """Seeded smooth signal; tapered versions vanish at both endpoints."""
    rng = np.random.default_rng(seed)
    n1 = grid.count + 1
    raw = rng.standard_normal((n1, dim))
    for _ in range(3):
        raw[1:-1] = 0.25 * raw[:-2] + 0.5 * raw[1:-1] + 0.25 * raw[2:]
    if taper:
        raw *= np.sin(np.pi * np.arange(n1) / (n1 - 1))[:, None] ** 2
    space = sf.SupSpace(dim)
    return sf.InputSignal(grid, raw, space)


def atom_system(p, k, q, n_hist=128, a=-1.0, d=1):
    """Neutral system with single-atom kernels at -1 and C = q*Id."""
    hist = sf.Grid(-1.0, 1.0 / n_hist, n_hist)
    eye = np.eye(d)
    amat = a * eye if np.ndim(a) == 0 else np.asarray(a, dtype=float)
    return nt.NeutralSystem(
        a=amat,
        p_kernel=sf.MeasureSpec(atoms=((-1.0, p * eye),)),
        k_kernel=sf.MeasureSpec(atoms=((-1.0, k * eye),)),
        c=q * eye,
        history_grid=hist)


def neutral_initial(sys0, seed=0, normalize=True):
    """Smooth compatible initial data (y, f) for a neutral system."""
    rng = np.random.default_rng(seed)
    s = sys0.history_grid.points()
    coef = rng.standard_normal(3)
    col = coef[0] + coef[1] * np.sin(2.0 * s) + coef[2] * np.cos(s)
    f = np.tile(col[:, None], (1, sys0.dim))
    y = nt.compatible_y(sys0, f)
    if normalize:
        h = sys0.history_grid.step
        nrm = np.max(np.abs(y)) + h * np.sum(np.max(np.abs(f[:-1]), axis=1))
        f = f / nrm
        y = y / nrm
    return y, f


def block_deviation(sys0, orb_a, orb_b):
    """Sup over time of the block-space norm of the state difference."""
    d = sys0.dim
    N = sys0.history_grid.count
    h = sys0.history_grid.step
    dz = np.max(np.abs(orb_a.states[:, :d] - orb_b.states[:, :d]), axis=1)
    df = np.abs(orb_a.states[:, d:] - orb_b.states[:, d:])
    df = df.reshape(orb_a.states.shape[0], N + 1, d).max(axis=2)
    return float(np.max(dz + h * np.sum(df[:, :N], axis=1)))


def mixed_system(p=0.3, k=0.25, p_density=0.2, k_density=0.1, q=1.0, n_hist=40,
                 a=((-1.0, 0.3), (0.0, -1.5))):
    """2x2 neutral system whose kernels mix an atom at -1 with a density that
    reaches s = 0, so the oldest and the newest history taps both carry
    weight; C = q * ((0.5, 0), (0.1, 0.4))."""
    hist = sf.Grid(-1.0, 1.0 / n_hist, n_hist)
    return nt.NeutralSystem(
        a=np.asarray(a, dtype=float),
        p_kernel=sf.MeasureSpec(atoms=((-1.0, p),), density=((-0.25, 0.0, p_density),)),
        k_kernel=sf.MeasureSpec(atoms=((-1.0, k),), density=((-0.5, 0.0, k_density),)),
        c=q * np.array([[0.5, 0.0], [0.1, 0.4]]),
        history_grid=hist)


def count_calls(monkeypatch, fn):
    """Replace ``fn`` under every name a semflow module binds it to by a
    wrapper that records each call; returns the list of recorded calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("semflow"):
            continue
        for name, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, name, counted)
    return calls
