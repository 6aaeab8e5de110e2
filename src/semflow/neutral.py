"""Neutral delay equations d/dt[F x_t] = A F x_t + P x_t with F = delta_0 - K.

The block state is (z, x_t) on X x L1(-1, 0; X) with z(t) = x(t) - K x_t.  The
block generator arises from diag(A, d/ds) through the feedback pair

    B = ((I, 0), (0, boundary shift)),   C = ((0, P), (C, K)),

so the orbit machinery of :mod:`semflow.maps` applies directly; an independent
method-of-steps integrator cross-validates it.  The delay kernels P, K are
measures on [-1, 0] with no mass in 0, which is exactly what makes the state
recovery x(t) = C z(t) + K x_t explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import _kernels
from .core import Grid, L1Space, StateVector, matexp
from .errors import ConfigurationError, DimensionError, DomainError, GridAlignmentError
from .maps import (DirectSolve, Method, NeutralBoundaryControl,
                   PerturbationTriple, _neutral_block_orbit, perturbed_orbit)
from .semigroups import BlockDiag, MatrixSemigroup, NilpotentShift, OrbitSeries
from .translation import MeasureSpec


@dataclass(frozen=True)
class NeutralSystem:
    """Data of the neutral equation: generator A, delay kernels P (inhomogeneity)
    and K (neutral part), boundary coupling C, and the history grid on [-1, 0]."""

    a: np.ndarray
    p_kernel: MeasureSpec
    k_kernel: MeasureSpec
    c: np.ndarray
    history_grid: Grid
    alpha: float = 1.0

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise DimensionError("A must be square")
        if c.shape != a.shape:
            raise DimensionError("C must have the same shape as A")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        if self.alpha <= 0.0:
            raise DomainError(f"scaling parameter must be positive, got {self.alpha}")
        h = self.history_grid.step
        for name, ker in (("P", self.p_kernel), ("K", self.k_kernel)):
            for loc, _ in ker.atoms:
                if loc > -0.5 * h:
                    raise ConfigurationError(
                        f"{name} kernel has an atom at {loc}: delay kernels must "
                        "have no mass in 0")

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def build_a0(sys: NeutralSystem) -> BlockDiag:
    """Unperturbed block semigroup diag(exp(tA), nilpotent left shift)."""
    return BlockDiag((MatrixSemigroup(sys.a),
                      NilpotentShift(sys.history_grid, point_dim=sys.dim)))


def build_perturbation(sys: NeutralSystem) -> PerturbationTriple:
    """Feedback pair realizing the neutral generator over diag(A, d/ds)."""
    base = build_a0(sys)
    d = sys.dim
    npts = sys.history_grid.count + 1
    prow = sys.p_kernel.observation_row(sys.history_grid, point_dim=d)
    krow = sys.k_kernel.observation_row(sys.history_grid, point_dim=d)
    observe = np.zeros((2 * d, d + npts * d))
    observe[:d, d:] = prow
    observe[d:, :d] = sys.c
    observe[d:, d:] = krow
    return PerturbationTriple(base, NeutralBoundaryControl(), observe)


def pack_initial(sys: NeutralSystem, y, f_values) -> StateVector:
    """Assemble the block state (y, f) from raw arrays."""
    base = build_a0(sys)
    y = np.asarray(y, dtype=float).ravel()
    f = np.asarray(f_values, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    if y.shape[0] != sys.dim or f.shape != (sys.history_grid.count + 1, sys.dim):
        raise DimensionError("initial data does not match the system dimensions")
    return StateVector(np.concatenate([y, f.ravel()]), base.space)


def apply_kernel(sys: NeutralSystem, which: str, f_values: np.ndarray) -> np.ndarray:
    """Evaluate P f or K f for history samples f (left-endpoint density reads)."""
    ker = sys.p_kernel if which == "p" else sys.k_kernel
    row = ker.observation_row(sys.history_grid, point_dim=sys.dim)
    return row @ np.asarray(f_values, dtype=float).ravel()


def compatibility_residual(sys: NeutralSystem, y, f_values) -> float:
    """Sup-norm of C y - (f(0) - K f), the domain/compatibility condition."""
    f = np.asarray(f_values, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    rhs = f[-1] - apply_kernel(sys, "k", f)
    return float(np.max(np.abs(sys.c @ np.asarray(y, dtype=float).ravel() - rhs)))


def compatible_y(sys: NeutralSystem, f_values) -> np.ndarray:
    """Solve C y = f(0) - K f for y (requires invertible C)."""
    f = np.asarray(f_values, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    rhs = f[-1] - apply_kernel(sys, "k", f)
    try:
        return np.linalg.solve(sys.c, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError(
            f"a compatible y needs an invertible C ({exc}); give 'y' explicitly") from exc


@dataclass(frozen=True)
class NeutralOrbitResult:
    orbit: OrbitSeries
    compatibility_residual: float
    compatible: bool


COMPAT_TOL = 1e-8


def _check_time_grid(sys: NeutralSystem, grid: Grid):
    h = sys.history_grid.step
    if abs(grid.step - h) > 1e-12 * h:
        raise GridAlignmentError(
            f"time step {grid.step} must equal the history step {h} "
            "(unit delay divided evenly)")


# quiet on overflow, as maps.perturbed_orbit
@np.errstate(over="ignore", invalid="ignore")
def neutral_orbit(sys: NeutralSystem, initial: Tuple, grid: Grid,
                  method: Method = DirectSolve()) -> NeutralOrbitResult:
    """Orbit of the neutral semigroup through the feedback composition formula.

    Incompatible initial data are not rejected: the orbit is the mild solution
    and the result is flagged.
    """
    _check_time_grid(sys, grid)
    y, f_values = initial
    y = np.asarray(getattr(y, "coords", y), dtype=float).ravel()
    f = np.asarray(getattr(f_values, "coords", f_values), dtype=float)
    f = f.reshape(sys.history_grid.count + 1, sys.dim)
    resid = compatibility_residual(sys, y, f)
    scale = max(1.0, float(np.max(np.abs(f))), float(np.max(np.abs(y))))
    triple = build_perturbation(sys)
    state = pack_initial(sys, y, f)
    orb = perturbed_orbit(triple, state, grid, method=method)
    return NeutralOrbitResult(orb, resid, resid <= COMPAT_TOL * scale)


@np.errstate(over="ignore", invalid="ignore")
def method_of_steps(sys: NeutralSystem, initial: Tuple, grid: Grid) -> OrbitSeries:
    """Independent oracle: exponential-trapezoid stepping of z' = A z + P x_t
    with the explicit recovery x(t) = C z(t) + K x_t.

    Shares only the measure-read weights with the formula route; the stepping
    scheme and the feedback treatment are different.
    """
    _check_time_grid(sys, grid)
    y, f_values = initial
    y = np.asarray(getattr(y, "coords", y), dtype=float).ravel()
    f = np.asarray(getattr(f_values, "coords", f_values), dtype=float)
    f = f.reshape(sys.history_grid.count + 1, sys.dim)
    _, prow, krow = build_perturbation(sys).neutral_blocks()
    e = matexp(sys.a, grid.step)
    zs, X = _kernels.mos_loop(e, sys.c, prow, krow, f, y, grid.step, grid.count)
    return _neutral_block_orbit(grid, zs, X, sys.history_grid.count,
                                build_a0(sys).space)


def history_segment(sys: NeutralSystem, orb: OrbitSeries, k: int) -> StateVector:
    """The history window x_{t_k}(s) = x(t_k + s) stored in the block orbit."""
    fpart = orb.states[k, sys.dim:]
    return StateVector(fpart, L1Space(sys.history_grid, point_dim=sys.dim))


def scaling_conjugation(sys: NeutralSystem, alpha: float) -> NeutralSystem:
    """Similarity transform by (x, f) -> (x, alpha*f): P -> P/alpha, C -> alpha*C.

    Orbits of the original and conjugated systems satisfy
    T(t)(x, f) = S_alpha^{-1} T~(t)(x, alpha*f)."""
    if alpha <= 0.0:
        raise DomainError(f"scaling parameter must be positive, got {alpha}")
    scaled_p = MeasureSpec(
        atoms=tuple((loc, np.asarray(w, dtype=float) / alpha if np.ndim(w) else w / alpha)
                    for loc, w in sys.p_kernel.atoms),
        density=tuple((a, b, np.asarray(v, dtype=float) / alpha if np.ndim(v) else v / alpha)
                      for a, b, v in sys.p_kernel.density))
    return NeutralSystem(sys.a, scaled_p, sys.k_kernel, alpha * sys.c,
                         sys.history_grid, alpha=sys.alpha)
