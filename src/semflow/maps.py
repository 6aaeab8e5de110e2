"""Feedback-perturbation machinery for a pair (B, C) over a base semigroup.

For an input signal u and a state x the three maps are

* control map       B_t u = int_0^t T(t-s) B u(s) ds
* observation map   (C_t x)(s) = C T(s) x
* input-output map  (F_t u)(r) = C B_r u

and the perturbed semigroup is evaluated through

    T_BC(t) x = T(t) x + B_t (I - F_t)^{-1} C_t x

by two routes.  Direct (``_direct``) runs the closed loop w = v + F w + C_t x
from the initial data on every base, reading x from its own trajectory.
Neumann runs three steps on the free evolution t_k -> T(t_k) x that
``semigroups._free_parts`` builds once: observe (``_observe``, v = C_t x,
read from it), solve (``invert_io``, the series for w = (I - F_t)^{-1} v)
and compose (``_compose``, which only adds B_{t_k} w to it).
``semigroups._assemble`` turns either result into an orbit.

Both routes run on the triple's ``Realization`` at the time step, built by
``_realize``: exp(hA), the input and output maps of the ODE state, the tap
rows that read the placed channel's trajectory, and the names of the base's
kernel entries for F and for the closed loop.  ``_realize`` is the one
place, besides the triple's validation, that reads the control variant or
the observation operator's layout, so the layout of a variant's signal is
read there and nowhere else: the observe step too takes v = C_t x through
the realization's output map and taps, the taps by the kernels' one
history read (``_kernels.add_reads``).

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
from typing import Optional, Tuple, Union

import numpy as np

from . import _kernels
from .core import (DERIVED, Grid, InputSignal, ProductSpace, Record, Space,
                   StateVector, SupSpace, matexp, time_grid)
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
    the 2x2 block operator ((0, P), (C, K)) acting on (x, f).  The input
    space ``u_space`` and the step ``base_step`` of a shift base (None on a
    matrix base) are read from the variant here."""

    base: Semigroup
    control: ControlSpec
    observe: np.ndarray
    u_space: Space = DERIVED
    base_step: Optional[float] = DERIVED

    def __post_init__(self):
        obs = np.atleast_2d(np.asarray(self.observe, dtype=float))
        object.__setattr__(self, "observe", obs)
        dim = self.base.space.dim
        if obs.shape[1] != dim:
            raise DimensionError(
                f"observation operator must have {dim} columns, got {obs.shape[1]}")
        u_space, step = SupSpace(obs.shape[0]), None
        if isinstance(self.control, (BoundedControl, IdentityControl)):
            if not isinstance(self.base, MatrixSemigroup):
                raise ConfigurationError(
                    "bounded/identity control requires a matrix base semigroup")
            bounded = isinstance(self.control, BoundedControl)
            if obs.shape[0] != (self.control.matrix.shape[1] if bounded else dim):
                raise DimensionError("observation output does not match the input space")
            if bounded and self.control.matrix.shape[0] != dim:
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
            step = self.base.grid.step
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
            u_space, step = ProductSpace((SupSpace(d), SupSpace(d))), base.parts[1].grid.step
        else:
            raise ConfigurationError(f"unknown control variant {self.control!r}")
        object.__setattr__(self, "u_space", u_space)
        object.__setattr__(self, "base_step", step)

    @property
    def u_dim(self) -> int:
        return self.observe.shape[0]


class Realization(Record):
    """A triple at one time step h as the one strictly causal system of
    ``_kernels``: the state z_{k+1} = e z_k + h e b w_k, a placed channel
    that puts the last ``width`` columns of w_k in row H + k of a trajectory
    X for k >= ``first``, behind the H history rows, and the output
    w_k = v_k + c z_k + sum_i taps[i] X_{k+i}.  ``taps`` is (H, width,
    u_dim), H being ``history``; the kernels read their block length from
    it.  A matrix base places nothing (H = width = 0), a delay line has no
    state (e is 0x0), and on a neutral base ``first`` is 1: row H keeps
    f(0) = x(0).  c and the taps are the only reading of the observation's
    layout: the observe step and both kernels take C_t x through them.

    ``apply`` (F on (n+1, u_dim) samples) and ``solve`` (the closed loop
    from the state y and the (H+1, width) history f, giving w, the states and
    X) pass these arrays to the base's two ``_kernels`` entries, named in
    ``entries`` and looked up at each call, so a traced entry sees it."""

    e: np.ndarray
    b: np.ndarray
    c: np.ndarray
    taps: np.ndarray
    h: float
    history: int
    width: int
    first: int
    entries: Tuple[str, str]

    def apply(self, u: np.ndarray) -> np.ndarray:
        return getattr(_kernels, self.entries[0])(
            self.e, self.b, self.c, u, self.h, self.taps, self.first)

    def solve(self, v: np.ndarray, y: np.ndarray, f: np.ndarray):
        return getattr(_kernels, self.entries[1])(
            self.e, self.b, self.c, v, self.h, y, self.taps, self.first, f)

    def is_zero(self) -> bool:
        """Whether F and B_t C_t vanish: nothing observed, or nothing
        controlled (a zero b and no placed channel)."""
        return not (self.c.any() or self.taps.any()) or not (self.b.any() or self.width)


def _realize(triple: PerturbationTriple, h: float) -> Realization:
    """The realization of ``triple`` at step h, the one place outside the
    triple's validation that reads its control variant or the layout of its
    observation.  It picks the base's kernel entries; exp(hA) is computed
    here once for every F application, solve and free evolution that takes
    the realization, and a delay line has none."""
    base, obs, control = triple.base, triple.observe, triple.control
    if isinstance(control, DirichletControl):
        a, b, H, first = np.zeros((0, 0)), np.zeros((0, 1)), base.grid.count, 0
        entries = ("delay_volterra_apply", "delay_volterra_solve")
    elif isinstance(control, NeutralBoundaryControl):
        a, H, first = base.parts[0].a, base.parts[1].grid.count, 1
        b = np.eye(a.shape[0], obs.shape[0])  # the first channel drives the state
        entries = ("neutral_volterra_apply", "volterra_solve")
    else:
        a, H, first = base.a, 0, 0
        b = control.matrix if isinstance(control, BoundedControl) else np.eye(a.shape[0])
        entries = ("matrix_volterra_apply", "matrix_volterra_solve")
    p = a.shape[0]
    e = matexp(a, h) if p else a
    c, width = obs[:, :p], (obs.shape[1] - p) // (H + 1)
    taps = obs[:, p:].reshape(obs.shape[0], H + 1, width).transpose(1, 2, 0)[:H]
    return Realization(e, b, c, taps, h, H, width, first, entries)


def _check_step(triple: PerturbationTriple, h: float):
    if triple.base_step is not None and abs(h - triple.base_step) > 1e-12 * triple.base_step:
        raise GridAlignmentError(
            f"time step {h} must equal the base grid step {triple.base_step} for shift bases")


def _resolve_grid(triple: PerturbationTriple, t: float, step: Optional[float]) -> Grid:
    h = step if step is not None else triple.base_step
    if h is None:
        raise ConfigurationError("a time step is required for matrix base semigroups")
    _check_step(triple, h)
    return time_grid(t, h)


def _check_signal(triple: PerturbationTriple, u: InputSignal):
    if u.values.shape[1] != triple.u_dim:
        raise DimensionError(
            f"signal has {u.values.shape[1]} channels, the triple expects {triple.u_dim}")


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
    r = _realize(triple, grid.step)
    free = _free_parts(triple.base, np.zeros(space.dim), grid, r.e)
    parts = _compose(r, free, u.values[: k + 1], grid)
    return _assemble(triple.base, grid, *parts).state(k)


def observation_map(triple: PerturbationTriple, t: float, x: StateVector,
                    step: Optional[float] = None) -> InputSignal:
    """Sample s -> C T(s) x on [0, t], read from the free evolution of x."""
    if x.space != triple.base.space:
        raise DimensionError("state does not live in the base space")
    grid = _resolve_grid(triple, t, step)
    r = _realize(triple, grid.step)
    return _observe(triple, r, _free(triple, r, x, grid), grid)


def _free(triple: PerturbationTriple, r: Realization, x: StateVector, grid: Grid):
    """The free parts ``(head, X, m)`` of x (``semigroups._free_parts``,
    with the realization's exp(hA)), which the observe and the compose step
    share.  The trajectory drops f(0), as the shift does, except where the
    realization places from step 1 (a neutral base): there every route reads
    f(0) as x(0)."""
    free = _free_parts(triple.base, x.coords, grid, r.e)
    if r.first:  # f(0) into row H
        free[1][r.history] = x.coords[x.coords.shape[0] - r.width:]
    return free


def free_orbit(triple: PerturbationTriple, x: StateVector, grid: Grid) -> OrbitSeries:
    """The orbit t_k -> T(t_k)x as the perturbed routes read x: on a neutral
    base f(0) stays x(0), so a vanishing perturbation converges to it."""
    return _assemble(triple.base, grid, *_free(triple, _realize(triple, grid.step), x, grid))


def _observe(triple: PerturbationTriple, r: Realization, free, grid: Grid) -> InputSignal:
    """The observe step: v = C_t x, the realization's c times the rows of
    the free parts of x plus its tap reads of their trajectory (the time
    step is the shift grid's, so the trajectory moves one row a step)."""
    head, X, _ = free
    v = np.zeros((grid.count + 1, triple.u_dim)) if head is None else head @ r.c.T
    if X is not None:
        _kernels.add_reads(v, X, r.taps)
    return InputSignal(grid, v, triple.u_space)


def io_map(triple: PerturbationTriple, t: float, u: InputSignal) -> InputSignal:
    """Evaluate the input-output map F_t u = [r -> C B_r u] on [0, t]."""
    _check_signal(triple, u)
    k = u.grid.index_of(t)
    out = _realize(triple, u.grid.step).apply(u.values[: k + 1])
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
    r = _realize(triple, h)
    resp = np.empty((n1, m, m))  # resp[k, :, j] = R_k e_j
    for j in range(m):
        impulse = np.zeros((n1, m))
        impulse[1, j] = 1.0 / h
        resp[:, :, j] = r.apply(impulse)
    # the halves of sup (+)_1 sup: a state channel and a placed channel
    b = 2 if 0 < r.width < m else 1
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
        w = _direct(_realize(triple, h), vals, np.zeros(triple.base.space.dim))[0]
        return InputSignal(grid, w, triple.u_space)
    est = contraction_estimate
    if est is None:
        est = estimate_io_norm(triple, t, step=h)
    if est >= 1.0:
        raise ContractionViolation(
            f"estimated ||F_t|| = {est:.4g} >= 1; Neumann series refused", est)
    target = method.tol * max(1.0 - est, 1e-6)
    r = _realize(triple, h)
    w = vals.copy()
    term = vals
    for _ in range(method.max_terms):
        term = r.apply(term)
        w = w + term
        sig_norm = InputSignal(grid, term, triple.u_space).l1_norm()
        if sig_norm <= target:
            return InputSignal(grid, w, triple.u_space)
    raise NoConvergence(
        f"Neumann series did not reach tol={method.tol} after {method.max_terms} terms "
        f"(last term norm {sig_norm:.3e})", method.max_terms, sig_norm)


def _direct(r: Realization, v: np.ndarray, x: np.ndarray):
    """The Direct route: forward substitution of the closed loop
    w = v + F w + C_t x from the state coordinates x, which never forms
    C_t x.  Returns w and the parts ``(head, X, m)`` of T(t_k) x + B_{t_k} w,
    as ``_compose`` does."""
    p = r.e.shape[0]
    w, head, X = r.solve(v, x[:p], x[p:].reshape(r.history + 1, r.width))
    # a zero-width block is a missing one
    return w, (head if p else None, X if r.width else None, 1 if r.width else None)


# ---------------------------------------------------------------------------
# perturbed semigroup
# ---------------------------------------------------------------------------

def _compose(r: Realization, free, w: np.ndarray, grid: Grid):
    """The compose step: adds B_{t_k} w, in the feedback loop's left-endpoint
    rule, to the free parts ``(head, X, m)`` of x and returns the parts
    ``(head, X, m)`` of T(t_k) x + B_{t_k} w for every t_k of ``grid``; ``w``
    holds the (count+1, u_dim) samples of the solved signal.

    Matrix block: the left-rule control map of ``r.b`` w is added to the
    rows.  Shift block: the placed columns of w go behind the initial
    profile, so that the window at t_k holds w on [-t_k, 0], from sample
    ``r.first`` on: w_0 at s + t = 0 on a translation base, w_1 on a neutral
    base, whose row N keeps f(0) = x(0).  ``X`` is written in place, so
    observe x first.
    """
    head, X, m = free
    if head is not None:
        head = head + _kernels.matrix_volterra_apply(r.e, r.b, None, w, r.h)
    if X is not None:
        X[X.shape[0] - grid.count - 1 + r.first:] = w[r.first:, w.shape[1] - r.width:]
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
    _check_step(triple, grid.step)
    r = _realize(triple, grid.step)
    if r.is_zero():
        return _assemble(triple.base, grid, *_free(triple, r, x, grid))
    if isinstance(method, DirectSolve):
        _, parts = _direct(r, np.zeros((grid.count + 1, triple.u_dim)), x.coords)
    else:
        free = _free(triple, r, x, grid)
        w = invert_io(triple, grid.end, _observe(triple, r, free, grid), method).values
        parts = _compose(r, free, w, grid)
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
