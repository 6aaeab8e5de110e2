"""Boundary perturbation of the left translation semigroup on L1(R_-).

The perturbation pair is a Dirichlet boundary injection ``c -> c*exp(lam*s)``
(Re lam > 0) together with a measure functional ``f -> int f d(mu)``.  All
three maps have closed forms here, used to cross-validate the generic
machinery:

* control map:       (B_t u)(s) = exp(lam*min(0, s+t)) * u(max(0, s+t))
* observation map:   (C_t f)(t) = int_{(-inf,-t]} f(t+s) d(mu)(s)
* input-output map:  (F u)(t)   = int_{[-t,0]} u(t+s) d(mu)(s)

and the input-output map contracts with factor |mu|(R_-).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import Grid, InputSignal, StateVector, opnorm_sup
from .errors import DimensionError, DomainError, GridAlignmentError


def _weight_norm(w) -> float:
    if np.ndim(w) == 0:
        return abs(float(w))
    return opnorm_sup(np.asarray(w, dtype=float))


@dataclass(frozen=True)
class MeasureSpec:
    """A vector measure on an interval of R_-: finite atoms plus a
    piecewise-constant density.

    ``atoms`` is a sequence of ``(location, weight)`` with location <= 0;
    ``density`` a sequence of segments ``(a, b, value)`` with a < b <= 0.
    Weights/values are scalars or (d, d) matrices.
    """

    atoms: Tuple = ()
    density: Tuple = ()

    def __post_init__(self):
        atoms = tuple((float(loc), w) for loc, w in self.atoms)
        for loc, w in atoms:
            if not (np.isfinite(loc) and np.all(np.isfinite(w))):
                raise DomainError(f"atom ({loc}, {w}) is not finite")
            if loc > 1e-12:
                raise DomainError(f"atom location must be <= 0, got {loc}")
        dens = tuple((float(a), float(b), v) for a, b, v in self.density)
        for a, b, v in dens:
            if not np.all(np.isfinite([a, b])) or not np.all(np.isfinite(v)):
                raise DomainError(f"density segment ({a}, {b}, {v}) is not finite")
            if not (a < b <= 1e-12):
                raise DomainError(f"density segment must satisfy a < b <= 0, got ({a}, {b})")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "density", dens)

    def total_variation(self, lower: float = -np.inf) -> float:
        """|mu|([lower, 0]) -- atom weights plus integrated |density|."""
        tv = sum(_weight_norm(w) for loc, w in self.atoms if loc >= lower - 1e-12)
        for a, b, v in self.density:
            lo = max(a, lower)
            if lo < b:
                tv += (b - lo) * _weight_norm(v)
        return float(tv)

    def density_at(self, s: float):
        """Pointwise density value, half-open segments [a, b)."""
        for a, b, v in self.density:
            if a - 1e-12 <= s < b - 1e-12:
                return v
        return None

    def mass_at_zero(self, delta: float) -> float:
        """|mu|([-delta, 0]) -- used to verify the no-mass-at-zero hypothesis."""
        return self.total_variation(lower=-delta)

    def observation_row(self, grid: Grid, point_dim: int = 1,
                        atom_mode: str = "exact") -> np.ndarray:
        """Dense row/block matrix realizing f -> int f d(mu) on grid samples.

        Atoms are placed at grid points (``atom_mode="exact"`` demands
        alignment, ``"nearest"`` snaps within half a step); the density enters
        through left-endpoint weights, so the grid point s = 0 never carries
        weight unless an atom sits exactly there.
        """
        h = grid.step
        npts = grid.count + 1
        out = np.zeros((point_dim, npts * point_dim))
        # blocks[:, i, :] is the block of grid point i
        blocks = out.reshape(point_dim, npts, point_dim)

        def block_of(w):
            if np.ndim(w) == 0:
                return float(w) * np.eye(point_dim)
            block = np.asarray(w, dtype=float)
            if block.shape != (point_dim, point_dim):
                raise DimensionError(
                    f"measure weight must be ({point_dim}, {point_dim}), got {block.shape}")
            return block

        for loc, w in self.atoms:
            r = (loc - grid.start) / h
            i = int(round(r))
            if i < 0 or i > grid.count:
                raise GridAlignmentError(f"atom at {loc} lies outside the grid")
            off = abs(r - i)
            if atom_mode == "exact":
                if off > 1e-6:
                    raise GridAlignmentError(
                        f"atom at {loc} is off-grid by {off * h:.3e} (step {h})")
            elif off > 0.5 + 1e-12:
                raise GridAlignmentError(f"atom at {loc} is beyond half a step from the grid")
            blocks[:, i, :] += block_of(w)
        # left endpoints only; a point takes the value of the first segment
        # holding it, as density_at reads it
        left = grid.points()[: grid.count]
        free = np.ones(grid.count, dtype=bool)
        for a, b, v in self.density:
            hit = free & (a - 1e-12 <= left) & (left < b - 1e-12)
            if hit.any():
                w = h * np.asarray(v, dtype=float) if np.ndim(v) else h * float(v)
                blocks[:, : grid.count][:, hit, :] += block_of(w)[:, None, :]
                free &= ~hit
        return out


@dataclass(frozen=True)
class DirichletSpec:
    """Boundary lifting c -> c * exp(lam * s) on R_-, Re lam > 0."""

    lam: complex

    def __post_init__(self):
        if not complex(self.lam).real > 0.0:
            raise DomainError(f"Dirichlet parameter needs Re(lam) > 0, got {self.lam}")
        object.__setattr__(self, "lam", complex(self.lam))

    @property
    def is_real(self) -> bool:
        return self.lam.imag == 0.0


def _pack_complex(values: np.ndarray, grid: Grid) -> StateVector:
    """Complex grid samples as a real 2-channel function with Euclidean point norm."""
    stacked = np.stack([values.real, values.imag], axis=1)
    return StateVector.grid_function(stacked, grid, point_norm="euclid")


def dirichlet_apply(spec: DirichletSpec, c, grid: Grid) -> StateVector:
    """Sample c * exp(lam * s) on the grid.

    Real lam with real c gives a scalar grid function; otherwise the complex
    values are embedded as (Re, Im) channels.
    """
    pts = grid.points()
    vals = c * np.exp(spec.lam * pts)
    if spec.is_real and np.iscomplexobj(np.asarray(c)) is False:
        return StateVector.grid_function(vals.real, grid)
    return _pack_complex(np.asarray(vals, dtype=complex), grid)


def boundary_control_closed_form(spec: DirichletSpec, t0: float, u: InputSignal,
                                 grid: Grid) -> StateVector:
    """Closed-form control map of the boundary perturbation at time t0.

    Evaluates (B_t0 u)(s) = exp(lam * min(0, s + t0)) * u(max(0, s + t0)) on
    the space grid.  The formula is the L1 limit over inputs with u(0) = 0;
    a nonzero u(0) is flagged with a warning but still evaluated literally.
    """
    if u.point_space.dim != 1:
        raise DimensionError("boundary control expects a scalar input channel")
    k0 = u.grid.index_of(t0)
    if abs(u.grid.step - grid.step) > 1e-12 * grid.step:
        raise GridAlignmentError("input and space grids must share one step")
    if abs(float(u.values[0, 0])) > 1e-12:
        warnings.warn("boundary control input has u(0) != 0; the closed form is "
                      "only the L1 limit of the vanishing-at-zero class", stacklevel=2)
    uvals = u.values[:, 0]
    j = np.arange(grid.count + 1) - grid.count + k0  # index of s_i + t0 on the input grid
    lift = np.exp(spec.lam * np.minimum(grid.points() + t0, 0.0))
    out = np.where(j >= 0, uvals[np.maximum(j, 0)], lift * uvals[0])
    if spec.is_real:
        return StateVector.grid_function(out.real, grid)
    return _pack_complex(out, grid)


def boundary_control_by_quadrature(spec: DirichletSpec, t0: float, u: InputSignal,
                                   grid: Grid) -> StateVector:
    """Quadrature route for the boundary control map, cross-validating the
    closed form.

    Integrating by parts moves the unbounded boundary injection onto the
    lifted input:

        B_t0 u = (D u)(t0) - int_0^t0 T(t0 - r) D[u'(r) - lam u(r)] dr

    with (D c)(s) = c * exp(lam * s).  The derivative is a finite difference,
    the integral composite trapezoid, the translations exact shifts; the two
    routes agree to first order in the step.
    """
    if not spec.is_real:
        raise DomainError("the quadrature route is implemented for real lam")
    lam = spec.lam.real
    if u.point_space.dim != 1:
        raise DimensionError("boundary control expects a scalar input channel")
    k0 = u.grid.index_of(t0)
    h = u.grid.step
    if abs(h - grid.step) > 1e-12 * grid.step:
        raise GridAlignmentError("input and space grids must share one step")
    uv = u.values[: k0 + 1, 0]
    du = np.gradient(uv, h) if k0 >= 2 else np.diff(uv, append=uv[-1]) / h
    lift = np.exp(lam * grid.points())
    npts = grid.count + 1
    acc = np.zeros(npts)
    w = Grid(0.0, h, k0).trapezoid_weights() if k0 >= 1 else np.array([0.0])
    for r in range(k0 + 1):
        g = (du[r] - lam * uv[r]) * lift
        m = k0 - r
        shifted = np.zeros(npts)
        if m < grid.count:
            shifted[: grid.count - m] = g[m: grid.count]
        acc += w[r] * shifted
    return StateVector.grid_function(uv[k0] * lift - acc, grid)


def control_dropped_mass(t0: float, u: InputSignal, grid: Grid) -> float:
    """L1 mass of the input translated past the truncation end -L at time t0."""
    L = -grid.start
    if t0 <= L + 1e-12:
        return 0.0
    k = int(round(min(t0 - L, u.grid.end) / u.grid.step))
    return float(u.restrict(k).l1_norm()) if k >= 1 else 0.0


def measure_observation(mu: MeasureSpec, f: StateVector, grid: Grid):
    """Evaluate int f d(mu) for a scalar grid function (atoms snapped to the
    nearest grid point, density by left-endpoint quadrature)."""
    row = mu.observation_row(grid, point_dim=1, atom_mode="nearest")
    vals = f.coords
    if vals.shape[0] != grid.count + 1:
        raise DimensionError("state does not match the observation grid")
    return float(row[0] @ vals)


def io_infty_closed_form(mu: MeasureSpec, u: InputSignal) -> InputSignal:
    """Closed-form input-output map (F u)(t) = int_{[-t,0]} u(t+s) d(mu)(s).

    Atoms must be aligned with the signal step (the delay identity is then
    exact); the density contributes left-endpoint lag weights.
    """
    if u.point_space.dim != 1:
        raise DimensionError("the translation example uses a scalar channel")
    h = u.grid.step
    n = u.grid.count
    uvals = u.values[:, 0]
    out = np.zeros(n + 1)
    for loc, w in mu.atoms:
        r = -loc / h
        m = int(round(r))
        if abs(r - m) > 1e-6:
            raise GridAlignmentError(f"atom at {loc} is not aligned with step {h}")
        if m == 0:
            raise GridAlignmentError("atoms at 0 break causality of the discrete map")
        if m <= n:
            out[m:] += float(w) * uvals[: n + 1 - m]
    if mu.density:
        max_lag = n
        lag = np.zeros(max_lag + 1)
        for j in range(1, max_lag + 1):
            v = mu.density_at(-j * h)
            if v is not None:
                lag[j] = h * float(v)
        from . import _kernels

        out += _kernels.delay_volterra_apply(lag, uvals)
    return InputSignal.scalar(u.grid, out)
