"""Feedback-perturbation machinery for a pair (B, C) over a base semigroup.

For an input signal u and a state x the three maps are

* control map       B_t u = int_0^t T(t-s) B u(s) ds
* observation map   (C_t x)(s) = C T(s) x
* input-output map  (F_t u)(r) = C B_r u

and the perturbed semigroup is evaluated through

    T_BC(t) x = T(t) x + B_t (I - F_t)^{-1} C_t x

by two routes.  Direct (``_direct``, the one place a Direct kernel is picked)
runs the closed loop w = v + F w + C_t x from the initial data on every base,
reading x from its own trajectory.  Neumann runs three steps on the free
evolution t_k -> T(t_k) x that ``semigroups._free_parts`` builds once:
observe (``_observe``, v = C_t x, read from it), solve (``invert_io``, the
series for w = (I - F_t)^{-1} v) and compose (``_compose``, which only adds
B_{t_k} w to it).  ``semigroups._assemble`` turns either result into an
orbit.  The layout of a variant's signal is read in ``_apply_io`` and
``_direct``.

The discrete input-output map uses left-endpoint quadrature inside, so it is
strictly causal and ``I - F`` is unit lower triangular: forward substitution
(``DirectSolve``) is exact, and the Neumann series is the cross-validation
route.  The compose step uses the same left-endpoint rule, which makes the
discrete evolution an exact one-step scheme for matrix bases; ``control_map``
is that step from the zero state.

Unbounded control operators never appear as matrices; the boundary variants
enter only through the shift placement of the input signal.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _kernels
from .core import (Grid, InputSignal, ProductSpace, Record, Space, StateVector,
                   SupSpace, matexp, time_grid)
from .errors import (ConfigurationError, ContractionViolation, DimensionError,
                     DomainError, GridAlignmentError, NoConvergence)
from .semigroups import (BlockDiag, LeftTranslation, MatrixSemigroup,
                         NilpotentShift, OrbitSeries, Semigroup, _assemble,
                         _free_parts)
from .translation import DirichletSpec


# ---------------------------------------------------------------------------
# control-operator variants
# ---------------------------------------------------------------------------

class BoundedControl(Record):
    """B is a matrix with range in the state space (Desch-Schappacher style)."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.atleast_2d(np.asarray(self.matrix, dtype=float)))


class IdentityControl(Record):
    """B = Id, the Miyadera-Voigt situation."""


class DirichletControl(Record):
    """Boundary injection through the Dirichlet operator of the translation
    semigroup; enters only through the shift placement of the input."""

    spec: DirichletSpec


class NeutralBoundaryControl(Record):
    """Two-channel control of the delay block system: identity on the first
    component, shift placement of the input on the history component."""


ControlSpec = Union[BoundedControl, IdentityControl, DirichletControl, NeutralBoundaryControl]


class Neumann(Record):
    """Neumann series with a target residual ``tol`` and at most
    ``max_terms`` terms."""

    tol: float = 1e-10
    max_terms: int = 300

    def __post_init__(self):
        if not (isinstance(self.tol, numbers.Real) and math.isfinite(self.tol)
                and self.tol >= 0.0):
            raise ConfigurationError(f"Neumann tol must be a finite number >= 0, "
                                     f"got {self.tol!r}")
        if not (isinstance(self.max_terms, numbers.Integral) and self.max_terms >= 1):
            raise ConfigurationError(f"Neumann max_terms must be a positive integer, "
                                     f"got {self.max_terms!r}")
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "max_terms", int(self.max_terms))


class DirectSolve(Record):
    pass


Method = Union[Neumann, DirectSolve]


class PerturbationTriple(Record):
    """Base semigroup with a control variant and a dense observation operator.

    ``observe`` maps discretized states to U.  For the neutral variant it is
    the 2x2 block operator ((0, P), (C, K)) acting on (x, f)."""

    base: Semigroup
    control: ControlSpec
    observe: np.ndarray

    def __post_init__(self):
        obs = np.atleast_2d(np.asarray(self.observe, dtype=float))
        object.__setattr__(self, "observe", obs)
        dim = self.base.space.dim
        if obs.shape[1] != dim:
            raise DimensionError(
                f"observation operator must have {dim} columns, got {obs.shape[1]}")
        if isinstance(self.control, (BoundedControl, IdentityControl)):
            if not isinstance(self.base, MatrixSemigroup):
                raise ConfigurationError(
                    "bounded/identity control requires a matrix base semigroup")
            if obs.shape[0] != self.u_dim:
                raise DimensionError("observation output does not match the input space")
            if isinstance(self.control, BoundedControl) and \
                    self.control.matrix.shape[0] != dim:
                raise DimensionError("control matrix does not map into the state space")
        elif isinstance(self.control, DirichletControl):
            if not isinstance(self.base, LeftTranslation):
                raise ConfigurationError("Dirichlet control requires a translation base")
            if obs.shape[0] != 1:
                raise DimensionError("the boundary channel is one-dimensional")
            if abs(obs[0, -1]) > 0.0:
                raise ConfigurationError(
                    "observation weight at s = 0 breaks causality of the discrete "
                    "input-output map (no instantaneous mass allowed)")
        elif isinstance(self.control, NeutralBoundaryControl):
            base = self.base
            if not (isinstance(base, BlockDiag) and len(base.parts) == 2
                    and isinstance(base.parts[0], MatrixSemigroup)
                    and isinstance(base.parts[1], NilpotentShift)):
                raise ConfigurationError(
                    "neutral control requires a diag(matrix, nilpotent shift) base")
            d = base.parts[0].space.dim
            if base.parts[1].point_dim != d:
                raise DimensionError("history values must match the matrix block dimension")
            if obs.shape[0] != 2 * d:
                raise DimensionError(f"neutral observation must have {2 * d} rows")
            if np.any(obs[:d, :d] != 0.0):
                raise ConfigurationError("the (1,1) observation block must vanish")
            # no instantaneous reads of the history endpoint s = 0
            if np.any(obs[:, dim - d:] != 0.0):
                raise ConfigurationError(
                    "observation weight at the history endpoint s = 0 breaks "
                    "causality (kernels must have no mass in 0)")
        else:
            raise ConfigurationError(f"unknown control variant {self.control!r}")

    # -- derived structure ---------------------------------------------------

    @property
    def u_dim(self) -> int:
        if isinstance(self.control, BoundedControl):
            return self.control.matrix.shape[1]
        if isinstance(self.control, IdentityControl):
            return self.base.space.dim
        if isinstance(self.control, DirichletControl):
            return 1
        return 2 * self.base.parts[0].space.dim

    @property
    def u_space(self) -> Space:
        if isinstance(self.control, NeutralBoundaryControl):
            d = self.base.parts[0].space.dim
            return ProductSpace((SupSpace(d), SupSpace(d)))
        return SupSpace(self.u_dim)

    @property
    def b_matrix(self) -> np.ndarray:
        """Dense control matrix for the bounded variants."""
        if isinstance(self.control, BoundedControl):
            return self.control.matrix
        if isinstance(self.control, IdentityControl):
            return np.eye(self.base.space.dim)
        raise ConfigurationError("boundary controls have no dense matrix form")

    def is_zero(self) -> bool:
        if np.all(self.observe == 0.0):
            return True
        return isinstance(self.control, BoundedControl) and \
            np.all(self.control.matrix == 0.0)

    def default_step(self) -> Optional[float]:
        if isinstance(self.base, (NilpotentShift, LeftTranslation)):
            return self.base.grid.step
        if isinstance(self.base, BlockDiag):
            return self.base.parts[1].grid.step
        return None

    # pieces of the neutral block observation
    def neutral_blocks(self):
        d = self.base.parts[0].space.dim
        npts = self.base.parts[1].grid.count + 1
        obs = self.observe
        c_block = obs[d:, :d]
        prow = obs[:d, d:].reshape(d, npts, d).transpose(1, 0, 2)[:-1]
        krow = obs[d:, d:].reshape(d, npts, d).transpose(1, 0, 2)[:-1]
        return c_block, prow, krow


def _resolve_grid(triple: PerturbationTriple, t: float, step: Optional[float]) -> Grid:
    h = step if step is not None else triple.default_step()
    if h is None:
        raise ConfigurationError("a time step is required for matrix base semigroups")
    base_step = triple.default_step()
    if base_step is not None and abs(h - base_step) > 1e-12 * base_step:
        raise GridAlignmentError(
            f"time step {h} must equal the base grid step {base_step} for shift bases")
    return time_grid(t, h)


def _check_signal(triple: PerturbationTriple, u: InputSignal):
    if u.values.shape[1] != triple.u_dim:
        raise DimensionError(
            f"signal has {u.values.shape[1]} channels, the triple expects {triple.u_dim}")


def _split_channels(triple: PerturbationTriple, values: np.ndarray):
    d = triple.base.parts[0].space.dim
    return values[:, :d], values[:, d:]


# ---------------------------------------------------------------------------
# the three maps
# ---------------------------------------------------------------------------

def control_map(triple: PerturbationTriple, t: float, u: InputSignal) -> StateVector:
    """Evaluate B_t u: the compose step from the zero state, read at t, in
    the feedback loop's left-endpoint rule.  On a translation base this is
    the closed form exp(lam*min(0, s+t)) * u(max(0, s+t)) for inputs with
    u(0) = 0; the lift of a nonzero u(0) below s + t = 0 is not added."""
    _check_signal(triple, u)
    k = u.grid.index_of(t)
    space = triple.base.space
    if k == 0:
        return StateVector(np.zeros(space.dim), space)
    grid = _resolve_grid(triple, t, u.grid.step)
    free = _free_parts(triple.base, np.zeros(space.dim), grid)
    parts = _compose(triple, free, u.values[: k + 1], grid)
    return _assemble(triple.base, grid, *parts).state(k)


def observation_map(triple: PerturbationTriple, t: float, x: StateVector,
                    step: Optional[float] = None) -> InputSignal:
    """Sample s -> C T(s) x on [0, t], read from the free evolution of x."""
    if x.space != triple.base.space:
        raise DimensionError("state does not live in the base space")
    grid = _resolve_grid(triple, t, step)
    return _observe(triple, _free(triple, x, grid), grid)


def _free(triple: PerturbationTriple, x: StateVector, grid: Grid):
    """The free parts ``(e, head, X, m)`` of x (``semigroups._free_parts``),
    which the observe and the compose step share.  The trajectory drops f(0),
    as the shift does, except on a neutral base, where every route reads f(0)
    as x(0)."""
    free = _free_parts(triple.base, x.coords, grid)
    if isinstance(triple.control, NeutralBoundaryControl):  # f(0) into row N
        free[2][triple.base.parts[1].grid.count] = x.coords[-free[2].shape[1]:]
    return free


def free_orbit(triple: PerturbationTriple, x: StateVector, grid: Grid) -> OrbitSeries:
    """The orbit t_k -> T(t_k)x as the perturbed routes read x: on a neutral
    base f(0) stays x(0), so a vanishing perturbation converges to it."""
    return _assemble(triple.base, grid, *_free(triple, x, grid)[1:])


def _observe(triple: PerturbationTriple, free, grid: Grid) -> InputSignal:
    """The observe step: v = C_t x from the free parts of x (the time step
    is the shift grid's, so m = 1 and row k reads the window of N points
    ``X[k : k+N]``, one matrix-vector product per observation row; a matrix
    product would copy the overlapping windows)."""
    _, head, X, _ = free
    obs = triple.observe
    if X is None:
        return InputSignal(grid, head @ obs.T, triple.u_space)
    n, d = grid.count, X.shape[1]
    N = X.shape[0] - n - 1
    d0 = 0 if head is None else head.shape[1]
    rows = obs[:, d0: d0 + N * d]
    win = sliding_window_view(X.ravel(), N * d)[::d][: n + 1]
    vals = np.stack([win @ r for r in rows], axis=1)
    if head is not None:
        vals += head @ obs[:, :d0].T
    return InputSignal(grid, vals, triple.u_space)


def _io_exp(triple: PerturbationTriple, h: float) -> Optional[np.ndarray]:
    """exp(hA) of the base's matrix block, read by every F application on a
    matrix or neutral base; None on a translation base."""
    if isinstance(triple.control, DirichletControl):
        return None
    base = triple.base
    return matexp(base.a if isinstance(base, MatrixSemigroup) else base.parts[0].a, h)


def _apply_io(triple: PerturbationTriple, values: np.ndarray, h: float,
              e: Optional[np.ndarray]) -> np.ndarray:
    """Discrete F applied to raw signal samples (left-endpoint rule inside);
    ``e`` is ``_io_exp(triple, h)``, computed once by callers that apply F
    repeatedly."""
    if isinstance(triple.control, (BoundedControl, IdentityControl)):
        return _kernels.matrix_volterra_apply(e, triple.b_matrix, triple.observe, values, h)
    if isinstance(triple.control, DirichletControl):
        row = triple.observe[0]
        lag = row[::-1]  # lag j reads weight at s = -j*h
        out = _kernels.delay_volterra_apply(lag, values[:, 0])
        return out[:, None]
    c_block, prow, krow = triple.neutral_blocks()
    u1, u2 = _split_channels(triple, values)
    o1, o2 = _kernels.neutral_volterra_apply(e, c_block, prow, krow, u1, u2, h)
    return np.hstack([o1, o2])


def io_map(triple: PerturbationTriple, t: float, u: InputSignal) -> InputSignal:
    """Evaluate the input-output map F_t u = [r -> C B_r u] on [0, t]."""
    _check_signal(triple, u)
    k = u.grid.index_of(t)
    h = u.grid.step
    out = _apply_io(triple, u.values[: k + 1], h, _io_exp(triple, h))
    return InputSignal(Grid(0.0, u.grid.step, k), out, triple.u_space)


def estimate_io_norm(triple: PerturbationTriple, t: float,
                     step: Optional[float] = None) -> float:
    """Upper bound U(t) of ||F_t|| on L1 signals with u(0) = 0, exact when
    u_dim = 1: U = sum_k w_k ||R_k|| with the trapezoid weights w, where R_k
    is the response at step k to the impulses h^-1 e_j at step 1 and ||R_k||
    the largest row sum of |R_k| (on the neutral sup (+)_1 sup: per input
    half, both output blocks' row-sum norms added; the larger half's sum).
    F is time-invariant from step 1 on, so U bounds every impulse at a step
    >= 1, and every Neumann term F^n v, n >= 1; F's left rule weighs u_0 by
    h, twice its trapezoid weight, so u(0) != 0 can exceed U."""
    grid = _resolve_grid(triple, t, step)
    h, n1, m = grid.step, grid.count + 1, triple.u_dim
    e = _io_exp(triple, h)
    resp = np.empty((n1, m, m))  # resp[k, :, j] = R_k e_j
    for j in range(m):
        impulse = np.zeros((n1, m))
        impulse[1, j] = 1.0 / h
        resp[:, :, j] = _apply_io(triple, impulse, h, e)
    b = 2 if isinstance(triple.control, NeutralBoundaryControl) else 1
    # the largest row sum of |R_k| in each (output block, input half)
    rows = np.abs(resp).reshape(n1, b, m // b, b, m // b).sum(axis=4).max(axis=2)
    return float(np.max(grid.trapezoid_weights() @ rows.sum(axis=1)))


def invert_io(triple: PerturbationTriple, t: float, v: InputSignal,
              method: Method = DirectSolve(),
              contraction_estimate: Optional[float] = None) -> InputSignal:
    """Solve (I - F_t) w = v.

    ``DirectSolve`` is exact forward substitution (the discrete map is
    strictly causal); ``Neumann`` sums the series sum_n F^n v and refuses when
    the gate U, ``contraction_estimate`` or else ``estimate_io_norm``, is
    >= 1.  It stops at the first term F^N v of norm <= tol (1 - U): the
    terms after it vanish at step 0, where U bounds F, so the remainder is at
    most tol U.
    """
    _check_signal(triple, v)
    k = v.grid.index_of(t)
    h = v.grid.step
    vals = v.values[: k + 1]
    grid = Grid(0.0, h, k)
    if isinstance(method, DirectSolve):
        return InputSignal(grid, _direct(triple, grid, vals)[0], triple.u_space)
    est = contraction_estimate
    if est is None:
        est = estimate_io_norm(triple, t, step=h)
    if est >= 1.0:
        raise ContractionViolation(
            f"estimated ||F_t|| = {est:.4g} >= 1; Neumann series refused", est)
    target = method.tol * max(1.0 - est, 1e-6)
    e = _io_exp(triple, h)
    w = vals.copy()
    term = vals
    for _ in range(method.max_terms):
        term = _apply_io(triple, term, h, e)
        w = w + term
        sig_norm = InputSignal(grid, term, triple.u_space).l1_norm()
        if sig_norm <= target:
            return InputSignal(grid, w, triple.u_space)
    raise NoConvergence(
        f"Neumann series did not reach tol={method.tol} after {method.max_terms} terms "
        f"(last term norm {sig_norm:.3e})", method.max_terms, sig_norm)


def _direct(triple: PerturbationTriple, grid: Grid, v: np.ndarray,
            x: Optional[np.ndarray] = None):
    """The Direct route, the one place a Direct kernel is picked: forward
    substitution of the closed loop w = v + F w + C_t x from the state
    coordinates x (zero if None), which never forms C_t x.  Returns w and the
    parts ``(head, X, m)`` of T(t_k) x + B_{t_k} w, as ``_compose`` does."""
    h = grid.step
    x = np.zeros(triple.base.space.dim) if x is None else x
    e = _io_exp(triple, h)
    if isinstance(triple.control, (BoundedControl, IdentityControl)):
        w, states = _kernels.matrix_volterra_solve(e, triple.b_matrix, triple.observe,
                                                   v, h, x)
        return w, (states, None, None)
    if isinstance(triple.control, DirichletControl):
        w, X = _kernels.delay_volterra_solve(triple.observe[0, ::-1], v[:, 0], x)
        return w[:, None], (None, X, 1)
    # the neutral loop keeps f(0) = x(0) in row N of its trajectory
    c_block, prow, krow = triple.neutral_blocks()
    y, f = triple.base.space.split(x)
    w1, w2, zs, X = _kernels.neutral_feedback_loop(
        e, c_block, prow, krow, f.reshape(-1, y.shape[0]), y, h, grid.count, v)
    return np.hstack([w1, w2]), (zs, X, 1)


# ---------------------------------------------------------------------------
# perturbed semigroup
# ---------------------------------------------------------------------------

def _compose(triple: PerturbationTriple, free, w: np.ndarray, grid: Grid):
    """The compose step: adds B_{t_k} w, in the feedback loop's left-endpoint
    rule, to the free parts ``(e, head, X, m)`` of x and returns the parts
    ``(head, X, m)`` of T(t_k) x + B_{t_k} w for every t_k of ``grid``; ``w``
    holds the (count+1, u_dim) samples of the solved signal.

    Matrix block: the left-rule control map of the matrix channel is added to
    the rows.  Shift block: w is placed behind the initial profile, so that
    the window at t_k holds w on [-t_k, 0], from w_0 at s + t = 0 on a
    translation base and from w_1 on a neutral base, whose row N keeps
    f(0) = x(0).  ``X`` is written in place, so observe x first.
    """
    e, head, X, m = free
    if head is not None:
        if X is None:
            b, w1 = triple.b_matrix, w
        else:  # the neutral matrix channel, B = I on the first d columns
            b, w1 = np.eye(head.shape[1]), w[:, : head.shape[1]]
        head = head + _kernels.matrix_volterra_apply(e, b, None, w1, grid.step)
    if X is not None:  # the shift channel, the last columns of w
        first = 0 if head is None else 1  # the first sample of w placed
        X[X.shape[0] - grid.count - 1 + first:] = w[first:, -X.shape[1]:]
    return head, X, m


# overflow runs to inf or nan without numpy warnings: callers that write an
# orbit check it with OrbitSeries.all_finite and report the failure once
@np.errstate(over="ignore", invalid="ignore")
def perturbed_orbit(triple: PerturbationTriple, x: StateVector, grid: Grid,
                    method: Method = DirectSolve()) -> OrbitSeries:
    """Orbit of the perturbed semigroup T_BC on the time grid.

    Two routes.  Direct (``_direct``) runs the closed loop from the initial
    data x on every base: the loop observes its own trajectory, so the
    solve and the compose step are one recurrence.  Neumann goes through
    the composition formula: observe the free evolution of x, sum the
    series, and add the control map of the solved signal to the same free
    evolution.
    """
    if x.space != triple.base.space:
        raise DimensionError("state does not live in the base space")
    if abs(grid.start) > 1e-12:
        raise DomainError("orbit grids must start at t = 0")
    if triple.is_zero():
        return free_orbit(triple, x, grid)
    base_step = triple.default_step()
    if base_step is not None and abs(grid.step - base_step) > 1e-12 * base_step:
        raise GridAlignmentError("time step must equal the base grid step")
    if isinstance(method, DirectSolve):
        _, parts = _direct(triple, grid, np.zeros((grid.count + 1, triple.u_dim)), x.coords)
    else:
        free = _free(triple, x, grid)
        w = invert_io(triple, grid.end, _observe(triple, free, grid), method).values
        parts = _compose(triple, free, w, grid)
    return _assemble(triple.base, grid, *parts)


def perturbed_apply(triple: PerturbationTriple, t: float, x: StateVector,
                    method: Method = DirectSolve(),
                    step: Optional[float] = None) -> StateVector:
    """Evaluate T_BC(t) x by the composition formula."""
    if t == 0.0:
        return StateVector(np.array(x.coords), triple.base.space)
    grid = _resolve_grid(triple, t, step)
    orb = perturbed_orbit(triple, x, grid, method)
    return orb.state(grid.count)
