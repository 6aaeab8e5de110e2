"""Boundary perturbation of the left translation semigroup on L1(R_-).

The perturbation pair is a Dirichlet boundary injection ``c -> c*exp(lam*s)``
(real lam > 0) together with a measure functional ``f -> int f d(mu)``.  All
three maps have closed forms, which cross-validate the generic machinery in
the test oracles:

* control map:       (B_t u)(s) = exp(lam*min(0, s+t)) * u(max(0, s+t))
* observation map:   (C_t f)(t) = int_{(-inf,-t]} f(t+s) d(mu)(s)
* input-output map:  (F u)(t)   = int_{[-t,0]} u(t+s) d(mu)(s)

and the input-output map contracts with factor |mu|(R_-).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .core import Grid, Record
from .errors import DimensionError, DomainError, GridAlignmentError


class MeasureSpec(Record):
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

    def observation_row(self, grid: Grid, point_dim: int = 1) -> np.ndarray:
        """Dense row/block matrix realizing f -> int f d(mu) on grid samples.

        Every atom must sit on a grid point; the density enters through
        left-endpoint weights, so the grid point s = 0 never carries weight
        unless an atom sits exactly there.
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
            if off > 1e-6:
                raise GridAlignmentError(
                    f"atom at {loc} is off-grid by {off * h:.3e} (step {h})")
            blocks[:, i, :] += block_of(w)
        # left endpoints only, each segment half-open [a, b); a point takes
        # the value of the first segment holding it
        left = grid.points()[: grid.count]
        free = np.ones(grid.count, dtype=bool)
        for a, b, v in self.density:
            hit = free & (a - 1e-12 <= left) & (left < b - 1e-12)
            if hit.any():
                w = h * np.asarray(v, dtype=float) if np.ndim(v) else h * float(v)
                blocks[:, : grid.count][:, hit, :] += block_of(w)[:, None, :]
                free &= ~hit
        return out


class DirichletSpec(Record):
    """Boundary lifting c -> c * exp(lam * s) on R_-, real lam > 0.  The
    routes place the input by shifts and never read lam; only the closed
    forms of the test oracles do."""

    lam: float

    def __post_init__(self):
        if not (np.isrealobj(self.lam) and float(self.lam) > 0.0):
            raise DomainError(f"Dirichlet parameter needs a real lam > 0, got {self.lam}")
        object.__setattr__(self, "lam", float(self.lam))

