"""Grids, norms, sampled states/signals and dense linear-algebra primitives.

Conventions used throughout the package:

* space-like grid functions (states on ``[-1, 0]`` or ``[-L, 0]``) carry the
  left-endpoint L1 norm ``step * sum(|f_i|, i < count)`` -- it commutes exactly
  with grid shifts;
* time-like signals carry the trapezoid L1 norm;
* all arrays are float64.
"""

from __future__ import annotations

import math
import numbers
import random
from typing import Tuple

import numpy as np

from .errors import DimensionError, DomainError, FrozenRecordError, GridAlignmentError

#: relative slack (in units of the step) for grid alignment checks
ALIGN_RTOL = 1e-6

#: default of a field that ``__post_init__`` sets: not a constructor argument
DERIVED = object()
_MISSING = object()


class Record:
    """Immutable value type whose fields are the annotated class attributes
    of the Record classes in its MRO, in the order they are declared.

    Like a frozen data class, but without code generated for each class:
    one ``__init__`` binds positional and keyword arguments to the fields,
    with their class-level defaults, then runs ``__post_init__``, which may
    validate and normalise a field with ``object.__setattr__``.  Equality
    (within one class), hashing and repr read the field values.  A field
    whose default is ``DERIVED`` is no argument; ``__post_init__`` sets it.
    """

    _fields: Tuple[str, ...] = ()
    _init_fields: Tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        defaults = {}  # a field keeps the place where it is first declared
        for base in reversed(cls.__mro__):
            if base is not Record and issubclass(base, Record):
                for name in base.__annotations__:  # the class's own
                    defaults[name] = vars(base).get(name, _MISSING)
        cls._fields = tuple(defaults)
        cls._init_fields = tuple(n for n, d in defaults.items() if d is not DERIVED)
        cls._defaults = {n: d for n, d in defaults.items()
                         if d is not _MISSING and d is not DERIVED}

    def __init__(self, *args, **kwargs):
        names = self._init_fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every constructor argument in field order, defaults filled in."""
        names, what = cls._init_fields, f"{cls.__name__}()"
        if len(args) > len(names):
            raise TypeError(f"{what} takes {len(names)} arguments, got {len(args)}")
        unknown = sorted(set(kwargs) - set(names))
        if unknown:
            raise TypeError(f"{what} got unexpected arguments {unknown}")
        twice = sorted(set(kwargs) & set(names[:len(args)]))
        if twice:
            raise TypeError(f"{what} got multiple values for {twice}")
        rest = {**cls._defaults, **kwargs}
        missing = [n for n in names[len(args):] if n not in rest]
        if missing:
            raise TypeError(f"{what} is missing arguments {missing}")
        return [*args, *(rest[n] for n in names[len(args):])]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({args})"

    def _asdict(self) -> dict:
        """The fields by name (values not copied)."""
        return {n: getattr(self, n) for n in self._fields}

    def _replace(self, **changes):
        """A copy with some constructor arguments changed, validated anew."""
        return type(self)(**{**{n: getattr(self, n) for n in self._init_fields}, **changes})


def checked(value, name: str, *, above=None, least=None, below=None,
            integer: bool = False):
    """``value`` as a ``float`` (as an ``int`` when ``integer``), once it is
    a finite real number (an integer) within the given bounds: above
    ``above``, at least ``least``, below ``below``.  A ``bool`` is no number,
    nor is a string; anything else raises ``DomainError`` with the message
    ``<name> must be <what>, got <value!r>``.  The one rule for every number
    that a caller or a config gives the package."""
    number = None
    if (isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, (bool, np.bool_))):
        try:
            number = int(value) if integer else float(value)
        except OverflowError:  # an int past the float range
            pass
    if (number is None or not (integer or math.isfinite(number))
            or (above is not None and not number > above)
            or (least is not None and not number >= least)
            or (below is not None and not number < below)):
        what = ("an integer" if integer else "a finite number") + " and".join(
            f" {op} {bound:g}" for op, bound in ((">", above), (">=", least), ("<", below))
            if bound is not None)
        raise DomainError(f"{name} must be {what}, got {value!r}")
    return number


def _each(value, name: str) -> None:
    """``checked`` on every leaf of a number or of nested lists and arrays."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        for item in value:
            _each(item, name)
    else:
        checked(value, name)


def reals(value, name: str) -> np.ndarray:
    """``value`` -- a number, nested lists of numbers or a numeric array --
    as a float array, once ``checked`` passes every entry.  A real or
    integer array is checked by its dtype and ``isfinite`` in one pass."""
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "fiu"
            and np.isfinite(value).all()):
        _each(value, name)
    try:
        return np.asarray(value, dtype=float)
    except ValueError:  # lists of unequal lengths
        raise DomainError(f"{name} must be a number or lists of numbers of equal "
                          f"lengths, got {value!r}") from None


class Grid(Record):
    """Uniform grid ``start + k*step`` for ``k = 0..count``."""

    start: float
    step: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "start", checked(self.start, "grid start"))
        object.__setattr__(self, "step", checked(self.step, "grid step", above=0.0))
        object.__setattr__(self, "count", checked(self.count, "grid count", integer=True,
                                                  least=1))

    @property
    def end(self) -> float:
        return self.start + self.count * self.step

    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count + 1)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.count + 1, self.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def index_of(self, t: float) -> int:
        """Grid index of ``t``; raises if ``t`` is off-grid or out of range."""
        r = (t - self.start) / self.step
        k = int(round(r))
        if abs(r - k) > ALIGN_RTOL:
            raise GridAlignmentError(
                f"t={t} is not aligned with grid step {self.step} (offset {r - k:+.3e} steps)")
        if k < 0 or k > self.count:
            raise GridAlignmentError(f"t={t} lies outside the grid [{self.start}, {self.end}]")
        return k

    def refine(self, factor: int) -> "Grid":
        return Grid(self.start, self.step / factor, self.count * factor)


def time_grid(horizon: float, step: float, name: str = "horizon") -> Grid:
    """Grid on ``[0, horizon]`` with the given step (horizon, ``name``, must be commensurate)."""
    n = int(round(horizon / step))
    if abs(horizon - n * step) > ALIGN_RTOL * step or n < 1:
        raise GridAlignmentError(f"{name} {horizon} is not a positive multiple of step {step}")
    return Grid(0.0, step, n)


# ---------------------------------------------------------------------------
# norms / spaces
# ---------------------------------------------------------------------------

def row_sup(a: np.ndarray) -> np.ndarray:
    """Max of ``|a|`` over the last axis: ``np.max(np.abs(a), axis=-1)`` bit
    for bit, NaN propagating, and zeros for a zero-width last axis.

    Folded one column at a time with ``np.maximum``: numpy's reduction over a
    short inner axis (a handful of channels) is over ten times slower.
    """
    out = np.zeros(a.shape[:-1])
    if a.shape[-1]:
        np.abs(a[..., 0], out=out)
        col = np.empty_like(out)
        for j in range(1, a.shape[-1]):
            np.maximum(out, np.abs(a[..., j], out=col), out=out)
    return out


class Space:
    """Describes the norm carried by a coordinate vector: a subclass gives
    ``dim``, ``norm(coords)`` and ``rows_norm(rows)``, the norm of every row
    of a (k, dim) array."""

    dim: int

    def norm(self, coords: np.ndarray) -> float:
        raise NotImplementedError

    def check(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float).ravel()
        if coords.shape[0] != self.dim:
            raise DimensionError(f"expected {self.dim} coordinates, got {coords.shape[0]}")
        return coords


class SupSpace(Record, Space):
    """R^d with the sup norm."""

    dim: int

    def norm(self, coords):
        coords = self.check(coords)
        return float(np.max(np.abs(coords))) if self.dim else 0.0

    def rows_norm(self, rows):
        return row_sup(rows)


class L1Space(Record, Space):
    """Grid functions on ``grid`` with values in R^point_dim, left-endpoint L1 norm.

    Coordinates are stored row-major as ``(count+1, point_dim)`` flattened; the
    pointwise norm is the sup norm of R^point_dim.
    """

    grid: Grid
    point_dim: int = 1

    @property
    def dim(self):  # type: ignore[override]
        return (self.grid.count + 1) * self.point_dim

    def values(self, coords) -> np.ndarray:
        coords = self.check(coords)
        return coords.reshape(self.grid.count + 1, self.point_dim)

    def norm(self, coords):
        return float(self.grid.step * np.sum(row_sup(self.values(coords))[:-1]))

    def rows_norm(self, rows):
        vals = rows.reshape(rows.shape[0], self.grid.count + 1, self.point_dim)
        return self.grid.step * np.sum(row_sup(vals)[:, :-1], axis=1)


class ProductSpace(Record, Space):
    """Direct sum of spaces; the norm is the sum of the component norms."""

    parts: tuple

    @property
    def dim(self):  # type: ignore[override]
        return sum(p.dim for p in self.parts)

    def offsets(self):
        offs = [0]
        for p in self.parts:
            offs.append(offs[-1] + p.dim)
        return offs

    def split(self, coords):
        coords = self.check(coords)
        offs = self.offsets()
        return [coords[offs[i]:offs[i + 1]] for i in range(len(self.parts))]

    def norm(self, coords):
        return float(sum(p.norm(c) for p, c in zip(self.parts, self.split(coords))))

    def rows_norm(self, rows):
        offs = self.offsets()
        return sum(p.rows_norm(rows[:, offs[i]:offs[i + 1]])
                   for i, p in enumerate(self.parts))


class StateVector(Record):
    """A point of a discretized state space together with its norm."""

    coords: np.ndarray
    space: Space

    def __post_init__(self):
        object.__setattr__(self, "coords", self.space.check(self.coords))

    def norm(self) -> float:
        return self.space.norm(self.coords)

    @staticmethod
    def sup(coords) -> "StateVector":
        coords = reals(coords, "state").ravel()
        return StateVector(coords, SupSpace(coords.shape[0]))

    @staticmethod
    def grid_function(values, grid: Grid) -> "StateVector":
        values = reals(values, "grid function")
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != grid.count + 1:
            raise DimensionError(
                f"expected {grid.count + 1} samples on the grid, got {values.shape[0]}")
        space = L1Space(grid, point_dim=values.shape[1])
        return StateVector(values.ravel(), space)


class InputSignal(Record):
    """A U-valued signal sampled on a time grid; trapezoid L1 norm."""

    grid: Grid
    values: np.ndarray  # (count+1, u_dim)
    point_space: Space

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape != (self.grid.count + 1, self.point_space.dim):
            raise DimensionError(
                f"signal values must have shape ({self.grid.count + 1}, {self.point_space.dim}), "
                f"got {vals.shape}")
        object.__setattr__(self, "values", vals)

    def point_norms(self) -> np.ndarray:
        return self.point_space.rows_norm(self.values)

    def l1_norm(self) -> float:
        return float(self.grid.trapezoid_weights() @ self.point_norms())

    def running_l1(self) -> np.ndarray:
        """Trapezoid L1 norms of the restrictions to ``[0, t_k]`` for every k."""
        p = self.point_norms()
        h = self.grid.step
        out = np.empty_like(p)
        out[0] = 0.0
        np.cumsum(0.5 * h * (p[1:] + p[:-1]), out=out[1:])
        return out


# ---------------------------------------------------------------------------
# dense primitives
# ---------------------------------------------------------------------------

def matexp(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``exp(t*a)`` by scaling-and-squaring with a Taylor core.

    The scaled matrix has norm <= 1/2, where an order-18 Taylor polynomial is
    accurate to well below 1e-15.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"matexp needs a square matrix, got shape {a.shape}")
    if t < 0.0:
        raise DomainError(f"matexp is only evaluated for t >= 0, got t={t}")
    n = a.shape[0]
    with np.errstate(over="ignore"):  # an overflow is reported below
        m = t * a
        nrm = float(np.max(np.sum(np.abs(m), axis=1))) if n else 0.0
    if nrm == 0.0:
        return np.eye(n)
    if not nrm <= 2.0 ** 1022:  # also catches inf and nan
        raise DomainError(f"matrix exponential out of range: ||t*a|| = {nrm:.3g} "
                          "is not finite or exceeds 2^1022")
    s = max(0, int(math.ceil(math.log2(nrm / 0.5))))
    x = m / (2.0 ** s)
    eye = np.eye(n)
    r = eye.copy()
    for j in range(18, 0, -1):
        r = eye + (x @ r) / j
    for _ in range(s):
        r = r @ r
    return r


class Draws:
    """Seeded stream of uniform and standard normal draws.

    The bits come from the standard library's Mersenne Twister,
    ``random.Random(seed).randbytes``, read as little-endian 64-bit words;
    a word's top 53 bits make the uniform ``u = (w >> 11) * 2**-53`` in
    ``[0, 1)``, and each consecutive pair ``(u1, u2)`` makes the two normals
    ``sqrt(-2 log(1 - u1)) * (cos, sin)(2 pi u2)`` (Box-Muller).  The values
    depend on the seed alone, not on numpy's version, and drawing them
    imports no generator module of numpy's and no OpenSSL.
    """

    def __init__(self, seed: int):
        self._bits = random.Random(checked(seed, "seed", integer=True, least=0)).randbytes

    def uniform(self, low: float, high: float) -> float:
        """One draw, uniform on ``[low, high)``."""
        u = (int.from_bytes(self._bits(8), "little") >> 11) * 2.0 ** -53
        return min(low + (high - low) * u, math.nextafter(high, low))

    def standard_normal(self, shape) -> np.ndarray:
        """Independent standard normals in an array of ``shape``."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = math.prod(shape)
        pairs = (n + 1) // 2
        words = np.frombuffer(self._bits(16 * pairs), "<u8").reshape(pairs, 2)
        u = (words >> 11) * 2.0 ** -53
        radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
        angle = 2.0 * np.pi * u[:, 1]
        z = np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=1)
        return z.ravel()[:n].reshape(shape)
