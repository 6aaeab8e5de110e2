"""Feedback-perturbation machinery for a pair (B, C) over a base semigroup.

For an input signal u and a state x the three maps are

* control map       B_t u = int_0^t T(t-s) B u(s) ds
* observation map   (C_t x)(s) = C T(s) x
* input-output map  (F_t u)(r) = C B_r u

and the perturbed semigroup is evaluated through

    T_BC(t) x = T(t) x + B_t (I - F_t)^{-1} C_t x.

The discrete input-output map uses left-endpoint quadrature inside, so it is
strictly causal and ``I - F`` is unit lower triangular: forward substitution
(``DirectSolve``) is exact, and the Neumann series is the cross-validation
route.  The perturbed state is assembled with the same left-endpoint rule,
which makes the discrete evolution an exact one-step scheme for matrix bases.

Unbounded control operators never appear as matrices; the boundary variants
enter only through their closed forms (shift placement of the input signal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import _kernels
from .core import (Grid, InputSignal, ProductSpace, Space, StateVector,
                   SupSpace, matexp, time_grid)
from .errors import (ConfigurationError, ContractionViolation, DimensionError,
                     DomainError, GridAlignmentError, NoConvergence)
from .semigroups import (BlockDiag, LeftTranslation, MatrixSemigroup,
                         NilpotentShift, OrbitSeries, Semigroup,
                         orbit_from_states)
from .translation import DirichletSpec


# ---------------------------------------------------------------------------
# control-operator variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundedControl:
    """B is a matrix with range in the state space (Desch-Schappacher style)."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.atleast_2d(np.asarray(self.matrix, dtype=float)))


@dataclass(frozen=True)
class IdentityControl:
    """B = Id, the Miyadera-Voigt situation."""


@dataclass(frozen=True)
class DirichletControl:
    """Boundary injection through the Dirichlet operator of the translation
    semigroup; enters only via its closed form."""

    spec: DirichletSpec

    def __post_init__(self):
        if not self.spec.is_real:
            raise ConfigurationError(
                "the feedback loop supports real Dirichlet parameters; complex "
                "values are handled by the closed-form operations directly")


@dataclass(frozen=True)
class NeutralBoundaryControl:
    """Two-channel control of the delay block system: identity on the first
    component, shift placement of the input on the history component."""


ControlSpec = Union[BoundedControl, IdentityControl, DirichletControl, NeutralBoundaryControl]


@dataclass(frozen=True)
class Neumann:
    tol: float = 1e-10
    max_terms: int = 300


@dataclass(frozen=True)
class DirectSolve:
    pass


Method = Union[Neumann, DirectSolve]


@dataclass(frozen=True)
class PerturbationTriple:
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
        return np.ascontiguousarray(c_block), np.ascontiguousarray(prow), \
            np.ascontiguousarray(krow)


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
    return np.ascontiguousarray(values[:, :d]), np.ascontiguousarray(values[:, d:])


# ---------------------------------------------------------------------------
# the three maps
# ---------------------------------------------------------------------------

def control_map(triple: PerturbationTriple, t: float, u: InputSignal,
                rule: str = "trapezoid") -> StateVector:
    """Evaluate B_t u.

    ``rule`` selects the quadrature of the bounded variants ("trapezoid" for
    standalone accuracy, "left" for the staggered rule used inside the
    feedback loop); the boundary variants are closed forms and ignore it.
    """
    _check_signal(triple, u)
    k = u.grid.index_of(t)
    h = u.grid.step

    def weights():
        g = Grid(0.0, h, k)
        return g.trapezoid_weights() if rule == "trapezoid" else g.left_weights()

    if isinstance(triple.control, (BoundedControl, IdentityControl)):
        if k == 0:
            return StateVector(np.zeros(triple.base.space.dim), triple.base.space)
        b = triple.b_matrix
        e = matexp(triple.base.a, h)
        w = weights()
        acc = np.zeros(triple.base.space.dim)
        for j in range(k + 1):
            acc = e @ acc + w[j] * (b @ u.values[j])
        return StateVector(acc, triple.base.space)
    if isinstance(triple.control, DirichletControl):
        if k == 0:
            return StateVector(np.zeros(triple.base.space.dim), triple.base.space)
        from .translation import boundary_control_closed_form

        return boundary_control_closed_form(triple.control.spec, t, u.restrict(k),
                                            triple.base.grid)
    # neutral: quadrature on the matrix channel, shift placement on the other
    base = triple.base
    d = base.parts[0].space.dim
    hist = base.parts[1].grid
    npts = hist.count + 1
    u1, u2 = _split_channels(triple, u.values[: k + 1])
    acc = np.zeros(d)
    if k > 0:
        e = matexp(base.parts[0].a, h)
        wts = weights()
        for j in range(k + 1):
            acc = e @ acc + wts[j] * u1[j]
    placed = np.zeros((npts, d))
    for i in range(npts):
        j = k + i - hist.count
        if j >= 1:
            placed[i] = u2[j]
    return StateVector(np.concatenate([acc, placed.ravel()]), base.space)


def observation_map(triple: PerturbationTriple, t: float, x: StateVector,
                    step: Optional[float] = None) -> InputSignal:
    """Sample s -> C T(s) x on [0, t]."""
    if x.space != triple.base.space:
        raise DimensionError("state does not live in the base space")
    grid = _resolve_grid(triple, t, step)
    if isinstance(triple.base, MatrixSemigroup):
        e = matexp(triple.base.a, grid.step)
        states = _kernels.causal_scan(e, np.zeros((grid.count + 1, e.shape[0])), x.coords)
        return InputSignal(grid, states @ triple.observe.T, triple.u_space)
    stepper = triple.base.stepper(grid.step)
    vals = np.empty((grid.count + 1, triple.observe.shape[0]))
    c = np.array(x.coords, dtype=float)
    for k in range(grid.count + 1):
        vals[k] = triple.observe @ c
        if k < grid.count:
            c = stepper(c)
    return InputSignal(grid, vals, triple.u_space)


def _apply_io(triple: PerturbationTriple, values: np.ndarray, h: float) -> np.ndarray:
    """Discrete F applied to raw signal samples (left-endpoint rule inside)."""
    if isinstance(triple.control, (BoundedControl, IdentityControl)):
        e = matexp(triple.base.a, h)
        return _kernels.matrix_volterra_apply(e, triple.b_matrix, triple.observe,
                                              np.ascontiguousarray(values), h)
    if isinstance(triple.control, DirichletControl):
        row = triple.observe[0]
        lag = np.ascontiguousarray(row[::-1])  # lag j reads weight at s = -j*h
        out = _kernels.delay_volterra_apply(lag, np.ascontiguousarray(values[:, 0]))
        return out[:, None]
    c_block, prow, krow = triple.neutral_blocks()
    e = matexp(triple.base.parts[0].a, h)
    u1, u2 = _split_channels(triple, values)
    o1, o2 = _kernels.neutral_volterra_apply(e, c_block, prow, krow, u1, u2, h)
    return np.hstack([o1, o2])


def io_map(triple: PerturbationTriple, t: float, u: InputSignal) -> InputSignal:
    """Evaluate the input-output map F_t u = [r -> C B_r u] on [0, t]."""
    _check_signal(triple, u)
    k = u.grid.index_of(t)
    out = _apply_io(triple, u.values[: k + 1], u.grid.step)
    return InputSignal(Grid(0.0, u.grid.step, k), out, triple.u_space)


def estimate_io_norm(triple: PerturbationTriple, t: float, step: Optional[float] = None,
                     n_probes: int = 4, n_iters: int = 3, seed: int = 0) -> float:
    """Sampled lower bound of ||F_t|| on L1, by probing and power iteration."""
    grid = _resolve_grid(triple, t, step)
    rng = np.random.default_rng(seed)
    n1 = grid.count + 1
    best = 0.0
    probes = [np.ones((n1, triple.u_dim))]
    for _ in range(n_probes):
        probes.append(rng.standard_normal((n1, triple.u_dim)))
    for p in probes:
        u = p
        for _ in range(n_iters):
            nu = InputSignal(grid, u, triple.u_space).l1_norm()
            if nu <= 0.0:
                break
            fu = _apply_io(triple, u, grid.step)
            nfu = InputSignal(grid, fu, triple.u_space).l1_norm()
            best = max(best, nfu / nu)
            u = fu
    return best


def invert_io(triple: PerturbationTriple, t: float, v: InputSignal,
              method: Method = DirectSolve(),
              contraction_estimate: Optional[float] = None) -> InputSignal:
    """Solve (I - F_t) w = v.

    ``DirectSolve`` is exact forward substitution (the discrete map is
    strictly causal); ``Neumann`` sums the series sum_n F^n v and refuses when
    the estimated contraction factor is >= 1.
    """
    _check_signal(triple, v)
    k = v.grid.index_of(t)
    h = v.grid.step
    vals = v.values[: k + 1]
    grid = Grid(0.0, h, k)
    if isinstance(method, DirectSolve):
        if isinstance(triple.control, (BoundedControl, IdentityControl)):
            e = matexp(triple.base.a, h)
            w, _ = _kernels.matrix_volterra_solve(e, triple.b_matrix, triple.observe,
                                                  np.ascontiguousarray(vals), h)
        elif isinstance(triple.control, DirichletControl):
            lag = np.ascontiguousarray(triple.observe[0][::-1])
            w = _kernels.delay_volterra_solve(lag, np.ascontiguousarray(vals[:, 0]))[:, None]
        else:
            w = _neutral_direct_solve(triple, vals, h)
        return InputSignal(grid, w, triple.u_space)
    est = contraction_estimate
    if est is None:
        est = estimate_io_norm(triple, t, step=h)
    if est >= 1.0:
        raise ContractionViolation(
            f"estimated ||F_t|| = {est:.4g} >= 1; Neumann series refused", est)
    target = method.tol * max(1.0 - est, 1e-6)
    w = vals.copy()
    term = vals
    sig_norm = None
    for _ in range(method.max_terms):
        term = _apply_io(triple, term, h)
        w = w + term
        sig_norm = InputSignal(grid, term, triple.u_space).l1_norm()
        if sig_norm <= target:
            return InputSignal(grid, w, triple.u_space)
    raise NoConvergence(
        f"Neumann series did not reach tol={method.tol} after {method.max_terms} terms "
        f"(last term norm {sig_norm:.3e})", method.max_terms, sig_norm)


# ---------------------------------------------------------------------------
# perturbed semigroup
# ---------------------------------------------------------------------------

def _neutral_direct_solve(triple, vals, h):
    """Forward substitution for the neutral variant with an externally given
    right-hand side (zero initial data in both channels)."""
    c_block, prow, krow = triple.neutral_blocks()
    e = matexp(triple.base.parts[0].a, h)
    d = c_block.shape[0]
    N = prow.shape[0]
    w1, w2, _, _ = _kernels.neutral_feedback_loop(
        e, c_block, prow, krow, np.zeros((N + 1, d)), np.zeros(d), h,
        vals.shape[0] - 1, np.ascontiguousarray(vals))
    return np.hstack([w1, w2])


def _sliding_l1(point_norms: np.ndarray, window: int, h: float) -> np.ndarray:
    """h * sum of `window` consecutive point norms, for every start index."""
    c = np.concatenate([[0.0], np.cumsum(point_norms)])
    return h * (c[window:] - c[: c.shape[0] - window])


def perturbed_orbit(triple: PerturbationTriple, x: StateVector, grid: Grid,
                    method: Method = DirectSolve()) -> OrbitSeries:
    """Orbit of the perturbed semigroup T_BC on the time grid.

    Computed through the composition formula: observe the base orbit, solve
    the feedback system, add the control map of the solved signal.
    """
    if x.space != triple.base.space:
        raise DimensionError("state does not live in the base space")
    if abs(grid.start) > 1e-12:
        raise DomainError("orbit grids must start at t = 0")
    from .semigroups import orbit as base_orbit

    if triple.is_zero():
        return base_orbit(triple.base, x, grid)
    base_step = triple.default_step()
    if base_step is not None and abs(grid.step - base_step) > 1e-12 * base_step:
        raise GridAlignmentError("time step must equal the base grid step")
    h = grid.step
    n = grid.count
    if isinstance(triple.control, (BoundedControl, IdentityControl)):
        e = matexp(triple.base.a, h)
        d = triple.base.space.dim
        states = _kernels.causal_scan(e, np.zeros((n + 1, d)), x.coords)
        v = states @ triple.observe.T
        if isinstance(method, DirectSolve):
            w, bt = _kernels.matrix_volterra_solve(e, triple.b_matrix, triple.observe,
                                                   np.ascontiguousarray(v), h)
        else:
            w = invert_io(triple, grid.end, InputSignal(grid, v, triple.u_space),
                          method).values
            bt = _kernels.matrix_volterra_apply(e, triple.b_matrix, np.eye(d),
                                                np.ascontiguousarray(w), h)
        return orbit_from_states(grid, states + bt, triple.base.space)
    if isinstance(triple.control, NeutralBoundaryControl):
        return _neutral_perturbed_orbit(triple, x, grid, method)
    return _dirichlet_perturbed_orbit(triple, x, grid, method)


def _neutral_perturbed_orbit(triple, x, grid, method):
    base = triple.base
    d = base.parts[0].space.dim
    hist = base.parts[1].grid
    N = hist.count
    h = grid.step
    n = grid.count
    c_block, prow, krow = triple.neutral_blocks()
    e = matexp(base.parts[0].a, h)
    y, fpart = base.space.split(x.coords)
    f0 = fpart.reshape(N + 1, d)
    if isinstance(method, DirectSolve):
        _, _, zs, X = _kernels.neutral_feedback_loop(
            e, c_block, prow, krow, np.ascontiguousarray(f0),
            np.ascontiguousarray(y), h, n, np.zeros((n + 1, 2 * d)))
    else:
        v = _neutral_observation(e, triple.observe, f0, y, n, N, d)
        w = invert_io(triple, grid.end, InputSignal(grid, v, triple.u_space),
                      method).values
        w1, w2 = _split_channels(triple, w)
        # zs_k = E^k y + h zc_k with zc_{k+1} = E (zc_k + w1_k)
        zs = _kernels.causal_scan(e, h * (w1 @ e.T), y)
        X = np.zeros((n + N + 1, d))
        X[: N + 1] = f0
        X[N + 1:] = w2[1:]
    return _neutral_block_orbit(grid, zs, X, N, base.space)


def _neutral_block_orbit(grid: Grid, zs: np.ndarray, X: np.ndarray, N: int,
                         space: Space) -> OrbitSeries:
    """Block orbit (z_k, x_{t_k}) from the matrix channel ``zs`` and the
    trajectory ``X``, whose rows k..k+N are the history window at t_k."""
    n = grid.count
    d = zs.shape[1]
    states = np.empty((n + 1, d + (N + 1) * d))
    states[:, :d] = zs
    # window k*d of the flattened trajectory is X[k:k+N+1]
    states[:, d:] = np.lib.stride_tricks.sliding_window_view(
        X.ravel(), (N + 1) * d)[::d][: n + 1]
    pn = np.max(np.abs(X), axis=1)
    norms = np.max(np.abs(zs), axis=1) + _sliding_l1(pn[: n + N], N, grid.step)
    return OrbitSeries(grid, states, norms, space)


def _neutral_observation(e, observe, f0, y, n, N, d):
    """Samples of the block observation along the unperturbed orbit."""
    xpad = np.vstack([f0, np.zeros((n, d))])
    windows = np.lib.stride_tricks.sliding_window_view(xpad[: n + N], (N, d))[:, 0]
    prow_flat = observe[:, d:].reshape(observe.shape[0], N + 1, d)[:, :-1]
    v = np.einsum("uid,kid->ku", prow_flat, windows)
    zy = _kernels.causal_scan(e, np.zeros((n + 1, d)), y)
    return v + zy @ observe[:, :d].T


def _dirichlet_perturbed_orbit(triple, x, grid, method):
    base = triple.base
    N = base.grid.count
    h = grid.step
    n = grid.count
    f0 = x.coords
    row = triple.observe[0]
    # observation of the base orbit: shifted reads of the initial profile
    pad = np.concatenate([f0[:N], np.zeros(n + 1)])
    win = np.lib.stride_tricks.sliding_window_view(pad, N)[: n + 1]
    v = win @ row[:N]
    sig = InputSignal.scalar(grid, v)
    if isinstance(method, DirectSolve):
        lag = np.ascontiguousarray(row[::-1])
        w = _kernels.delay_volterra_solve(lag, np.ascontiguousarray(v))
    else:
        w = invert_io(triple, grid.end, sig, method).values[:, 0]
    # state at t_k: initial profile shifted (arguments < 0) plus the solved
    # boundary signal placed on [-t_k, 0]
    q = np.concatenate([f0[:N], [0.0], w[1:]])
    states = np.lib.stride_tricks.sliding_window_view(q, N + 1)[: n + 1]
    norms = _sliding_l1(np.abs(q)[: n + N], N, h)
    return OrbitSeries(grid, np.ascontiguousarray(states), norms, base.space)


def perturbed_apply(triple: PerturbationTriple, t: float, x: StateVector,
                    method: Method = DirectSolve(),
                    step: Optional[float] = None) -> StateVector:
    """Evaluate T_BC(t) x by the composition formula."""
    if triple.is_zero():
        return StateVector(triple.base.apply_coords(t, x.coords), triple.base.space)
    if t == 0.0:
        return StateVector(np.array(x.coords), triple.base.space)
    grid = _resolve_grid(triple, t, step)
    orb = perturbed_orbit(triple, x, grid, method)
    return orb.state(grid.count)
