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

from typing import Tuple

import numpy as np

from . import _kernels
from .core import Grid, Record, StateVector, matexp
from .errors import ConfigurationError, DimensionError, GridAlignmentError
from .maps import (DirectSolve, Method, NeutralBoundaryControl,
                   PerturbationTriple, perturbed_orbit)
from .semigroups import (BlockDiag, MatrixSemigroup, NilpotentShift, OrbitSeries,
                         _assemble)
from .translation import MeasureSpec


class NeutralSystem(Record):
    """Data of the neutral equation: generator A, delay kernels P (inhomogeneity)
    and K (neutral part), boundary coupling C, and the history grid on [-1, 0]."""

    a: np.ndarray
    p_kernel: MeasureSpec
    k_kernel: MeasureSpec
    c: np.ndarray
    history_grid: Grid

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise DimensionError("A must be square")
        if c.shape != a.shape:
            raise DimensionError("C must have the same shape as A")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
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


def _initial_pair(sys: NeutralSystem, y, f_values) -> Tuple[np.ndarray, np.ndarray]:
    """``(y, f)`` as float arrays of shapes (d,) and (N+1, d), read from raw
    values or StateVectors; f may also come flat, one row after another."""
    y = np.asarray(getattr(y, "coords", y), dtype=float).ravel()
    f = np.asarray(getattr(f_values, "coords", f_values), dtype=float)
    shape = (sys.history_grid.count + 1, sys.dim)
    if y.shape != shape[1:] or f.shape not in (shape, (shape[0] * shape[1],)):
        raise DimensionError("initial data does not match the system dimensions")
    return y, f.reshape(shape)


def pack_initial(sys: NeutralSystem, y, f_values) -> StateVector:
    """Assemble the block state (y, f) from raw arrays."""
    y, f = _initial_pair(sys, y, f_values)
    return StateVector(np.concatenate([y, f.ravel()]), build_a0(sys).space)


def apply_kernel(sys: NeutralSystem, which: str, f_values: np.ndarray) -> np.ndarray:
    """Evaluate P f or K f for history samples f (left-endpoint density reads)."""
    ker = sys.p_kernel if which == "p" else sys.k_kernel
    row = ker.observation_row(sys.history_grid, point_dim=sys.dim)
    return row @ np.asarray(f_values, dtype=float).ravel()


def compatibility_residual(sys: NeutralSystem, y, f_values) -> float:
    """Sup-norm of C y - (f(0) - K f), the domain/compatibility condition."""
    y, f = _initial_pair(sys, y, f_values)
    rhs = f[-1] - apply_kernel(sys, "k", f)
    return float(np.max(np.abs(sys.c @ y - rhs)))


def compatible_y(sys: NeutralSystem, f_values) -> np.ndarray:
    """Solve C y = f(0) - K f for y (requires invertible C)."""
    _, f = _initial_pair(sys, np.zeros(sys.dim), f_values)
    rhs = f[-1] - apply_kernel(sys, "k", f)
    try:
        return np.linalg.solve(sys.c, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError(
            f"a compatible y needs an invertible C ({exc}); give 'y' explicitly") from exc


class NeutralOrbitResult(Record):
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
    y, f = _initial_pair(sys, *initial)
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
    y, f = _initial_pair(sys, *initial)
    _, prow, krow = build_perturbation(sys).neutral_blocks()
    e = matexp(sys.a, grid.step)
    zs, X = _kernels.mos_loop(e, sys.c, prow, krow, f, y, grid.step, grid.count)
    return _assemble(build_a0(sys), grid, zs, X, 1)

