"""Concrete C0-semigroup engines: matrix exponentials, shift semigroups, blocks.

T(t)x is evaluated at the times of a grid, by ``orbit`` through
``_free_parts``.  Shift semigroups are evaluated only at grid-commensurate times so that all
translation arithmetic is exact; one grid point of "mass" enters or leaves per
step, and the left-endpoint L1 norm commutes with the shift.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._kernels import causal_scan
from .core import (DERIVED, Grid, L1Space, ProductSpace, Record, Space, StateVector,
                   SupSpace, matexp, reals, row_sup)
from .errors import DimensionError, DomainError, GridAlignmentError


class Semigroup:
    """Base class; subclasses provide `space`."""

    space: Space


class MatrixSemigroup(Record, Semigroup):
    """T(t) = exp(t*A) for a square generator matrix A."""

    a: np.ndarray
    space: Space = None  # type: ignore[assignment]

    def __post_init__(self):
        a = np.atleast_2d(reals(self.a, "generator"))
        if a.shape[0] != a.shape[1]:
            raise DimensionError(f"generator must be square, got shape {a.shape}")
        object.__setattr__(self, "a", a)
        if self.space is None:
            object.__setattr__(self, "space", SupSpace(a.shape[0]))


class NilpotentShift(Record, Semigroup):
    """Left translation on L1(-1, 0; R^d); annihilates everything at t >= 1."""

    grid: Grid
    point_dim: int = 1
    space: Space = DERIVED

    def __post_init__(self):
        if abs(self.grid.start + 1.0) > 1e-9 or abs(self.grid.end) > 1e-9:
            raise DomainError("nilpotent shift grid must cover exactly [-1, 0]")
        object.__setattr__(self, "space", L1Space(self.grid, self.point_dim))

    def shift_count(self, t) -> int:
        if t < 0.0:
            raise DomainError(f"semigroup evaluated at negative time t={t}")
        r = t / self.grid.step
        m = int(round(r))
        if abs(r - m) > 1e-6:
            raise GridAlignmentError(
                f"t={t} is not a multiple of the shift grid step {self.grid.step}")
        return m


class LeftTranslation(Record, Semigroup):
    """Left translation on L1(R_-) truncated to [-L, 0].

    Functions supported in [-L, 0] evolve exactly; initial mass below -L was
    never representable (the truncation is a setup-time restriction).
    """

    grid: Grid
    point_dim: int = 1
    space: Space = DERIVED

    def __post_init__(self):
        if abs(self.grid.end) > 1e-9:
            raise DomainError("translation grid must end at 0")
        if -self.grid.start < 1.0:
            raise DomainError("translation horizon L must be at least 1")
        object.__setattr__(self, "space", L1Space(self.grid, self.point_dim))

    @property
    def horizon(self) -> float:
        return -self.grid.start

    shift_count = NilpotentShift.shift_count


class BlockDiag(Record, Semigroup):
    """Diagonal composition diag(T_1(t), ..., T_m(t))."""

    parts: tuple
    space: Space = DERIVED

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(self, "space", ProductSpace(tuple(p.space for p in self.parts)))


class OrbitSeries(Record):
    """Sampled orbit t_k -> T(t_k)x with its norm track.

    On a shift base the state at t_k is a window of one flat trajectory.  Such
    an orbit records that ``trajectory`` and the window ``stride``: the
    trailing ``width`` columns of ``states[k]`` are
    ``trajectory[k*stride : k*stride + width]``, where the last window ends
    the trajectory, and the ``head`` columns before them (the matrix block of
    a neutral orbit, none on a translation base) are stored per row.  Without
    a trajectory, ``states`` is all there is.
    """

    grid: Grid
    states: np.ndarray  # (count+1, dim)
    norms: np.ndarray
    space: Space
    trajectory: Optional[np.ndarray] = None
    stride: int = 1

    def __post_init__(self):
        if self.states.shape != (self.grid.count + 1, self.space.dim):
            raise DimensionError("orbit states do not match grid/space")
        if self.norms.shape[0] != self.grid.count + 1:
            raise DimensionError("orbit norms do not match grid")
        if self.trajectory is not None and not 0 < self.width <= self.space.dim:
            raise DimensionError("orbit trajectory does not match its windows")

    @property
    def width(self) -> int:
        """Number of trailing state columns read from the trajectory."""
        return self.trajectory.shape[0] - self.grid.count * self.stride

    @property
    def head(self) -> int:
        """Number of leading state columns stored per row."""
        return self.space.dim - self.width

    def state(self, k: int) -> StateVector:
        return StateVector(self.states[k], self.space)

    def initial_norm(self) -> float:
        return float(self.norms[0])

    def all_finite(self) -> bool:
        """Whether every state value and norm is finite; a windowed orbit
        checks its trajectory and head columns, not every window."""
        if self.trajectory is None:
            parts = (self.norms, self.states)
        else:
            parts = (self.norms, self.trajectory, self.states[:, : self.head])
        return all(bool(np.all(np.isfinite(p))) for p in parts)


def orbit_from_states(grid: Grid, states: np.ndarray, space: Space) -> OrbitSeries:
    states = np.asarray(states, dtype=float)
    return OrbitSeries(grid, states, space.rows_norm(states), space)


@np.errstate(over="ignore", invalid="ignore")
def _sliding_l1(point_norms: np.ndarray, window: int, h: float) -> np.ndarray:
    """h * sum of `window` consecutive point norms, for every start index.

    The window at ``b*window + r`` is the suffix from r of block b plus the
    first r values of block b+1, blocks being ``window`` values long.  Both
    are running sums within one block, so no sum is a difference and each
    window keeps its relative precision however small its share of the mass
    (a difference of one running sum over the whole array would carry an
    absolute error of eps times all the mass before it).
    """
    n = point_norms.shape[0]
    blocks = np.zeros((n // window + 1, window))
    blocks.reshape(-1)[:n] = point_norms
    suffix = np.cumsum(blocks[:-1, ::-1], axis=1)[:, ::-1]
    prefix = np.zeros_like(suffix)
    np.cumsum(blocks[1:, :-1], axis=1, out=prefix[:, 1:])
    return h * (suffix + prefix).reshape(-1)[: max(n - window + 1, 0)]


@np.errstate(over="ignore", invalid="ignore")
def orbit(sg: Semigroup, x: StateVector, grid: Grid) -> OrbitSeries:
    """Sampled orbit on ``grid`` (must start at 0) of a matrix block, a shift
    block, or a matrix block followed by a shift block: the free parts of
    ``_free_parts`` put together by ``_assemble``."""
    if abs(grid.start) > 1e-12:
        raise DomainError("orbit grids must start at t = 0")
    if x.space != sg.space:
        raise DimensionError("state does not live in the semigroup's space")
    return _assemble(sg, grid, *_free_parts(sg, x.coords, grid))


def _free_parts(sg: Semigroup, coords: np.ndarray, grid: Grid,
                e: Optional[np.ndarray] = None):
    """The free evolution t_k -> T(t_k)x on ``grid`` as ``(head, X, m)``:
    ``head`` the rows of the causal scan of the matrix block by
    ``e = exp(hA)`` (computed unless given), which a zero block skips, and
    ``X`` the trajectory ``[f[:N], 0, 0, ...]`` of the shift block with ``m``
    grid points per time step, so that the block at t_k is the window
    ``X[k*m : k*m + N + 1]``; the parts of a missing block are None.
    The window at t = 0 reads zero at s = 0, as the shift drops f(0), a
    sample the left-endpoint L1 norm does not weigh."""
    if isinstance(sg, BlockDiag) and len(sg.parts) == 2 \
            and isinstance(sg.parts[0], MatrixSemigroup) \
            and isinstance(sg.parts[1], (NilpotentShift, LeftTranslation)):
        (mat, shift), (y, f) = sg.parts, sg.space.split(coords)
    elif isinstance(sg, MatrixSemigroup):
        mat, shift, y = sg, None, coords
    elif isinstance(sg, (NilpotentShift, LeftTranslation)):
        mat, shift, f = None, sg, coords
    else:
        raise NotImplementedError(
            f"no orbit for {type(sg).__name__}: orbits exist for a matrix block, a "
            "shift block, or a matrix block followed by a shift block")
    head = X = m = None
    if mat is not None:
        e = matexp(mat.a, grid.step) if e is None else e
        head = np.zeros((grid.count + 1, mat.space.dim))
        if np.any(y):
            head = causal_scan(e, head, y)
    if shift is not None:
        m = shift.shift_count(grid.step)
        if m == 0:
            raise GridAlignmentError(
                f"time step {grid.step} is below the shift grid step {shift.grid.step}")
        N = shift.grid.count
        X = np.zeros((grid.count * m + N + 1, shift.point_dim))
        X[:N] = shift.space.values(f)[:N]
    return head, X, m


def _norms(sg: Semigroup, grid: Grid, head: Optional[np.ndarray],
           X: Optional[np.ndarray], m: Optional[int]) -> np.ndarray:
    """Norms of the states whose matrix block at t_k is ``head[k]`` and whose
    shift block is the window of X at ``k*m``, as ``_free_parts`` lays them
    out (a missing block is None).  Assembles no state row."""
    if X is None:
        return sg.space.rows_norm(head)
    shift = sg if head is None else sg.parts[1]
    N = shift.grid.count
    norms = _sliding_l1(row_sup(X[: grid.count * m + N]), N,
                        shift.grid.step)[::m]
    if head is not None:
        norms = sg.parts[0].space.rows_norm(head) + norms
    return norms


def _assemble(sg: Semigroup, grid: Grid, head: Optional[np.ndarray],
              X: Optional[np.ndarray], m: Optional[int]) -> OrbitSeries:
    """The orbit of the parts laid out as ``_free_parts`` does.  A shift
    block's rows stay windows of the trajectory, so a translation orbit's
    ``states`` is a lazy view; only an orbit with both blocks assembles its
    rows."""
    norms = _norms(sg, grid, head, X, m)
    if X is None:
        return OrbitSeries(grid, head, norms, sg.space)
    trajectory, stride = X.ravel(), m * X.shape[1]
    width = (X.shape[0] - grid.count * m) * X.shape[1]
    states = sliding_window_view(trajectory, width)[::stride]
    if head is not None:
        states = np.hstack([head, states])
    return OrbitSeries(grid, states, norms, sg.space, trajectory, stride)
