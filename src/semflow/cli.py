"""Command-line front end: load a JSON run configuration, simulate orbits,
estimate admissibility constants, run asymptotic-property experiments.

Exit codes: 0 success, 1 numerical failure, 2 validation failure.  CSV output
uses 17-significant-digit floats; JSON output is UTF-8 with stable key order,
so identical configurations and seeds reproduce byte-identical artifacts
(timing fields aside).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import admissibility as adm
from . import asymptotics as asy
from . import neutral as nt
from .core import Draws, Grid, StateVector, checked, reals, time_grid
from .errors import (ConfigurationError, ContractionViolation, DimensionError,
                     DomainError, GridAlignmentError, NoConvergence,
                     NumericalFailure, SemflowError)
from .maps import (BoundedControl, DirectSolve, DirichletControl,
                   IdentityControl, Neumann, PerturbationTriple,
                   perturbed_orbit)
from .semigroups import LeftTranslation, MatrixSemigroup
from .translation import DirichletSpec, MeasureSpec

_VALIDATION_ERRORS = (ConfigurationError, DimensionError, DomainError, GridAlignmentError)
_NUMERICAL_ERRORS = (ContractionViolation, NoConvergence, NumericalFailure,
                     FloatingPointError, MemoryError, np.linalg.LinAlgError)


def _words(*words, otherwise=None):
    """The rule of a key that holds one of ``words``, or else a value that
    passes the rule ``otherwise``."""
    def rule(value, name):
        if value not in words:
            if otherwise is None:
                raise ConfigurationError(
                    f"{name} must be one of {', '.join(map(repr, words))}, got {value!r}")
            otherwise(value, name)
    return rule


def _rows(width: int):
    """The rule of a list of rows of ``width`` numbers each."""
    def rule(value, name):
        if value != [] and reals(value, name).shape[1:] != (width,):
            raise DomainError(f"{name} must be a list of rows of {width} numbers, got {value!r}")
    return rule


def _field(cls, field: str):
    """The rule of a key that becomes the field of a ``cls``: building one."""
    return lambda value, name: cls(**{field: value})


def _properties(value, name):
    if not (isinstance(value, list) and all(p in asy.PROPERTIES for p in value)):
        raise ConfigurationError(f"{name} must be a list of property names, got {value!r}")


# The rule of each config key, called with the value and the key's dotted
# name, raises on a value it refuses; a dict holds a section's rules, those of
# "system" and "initial" by system kind.  A key of "neumann" or "asymptotics"
# is checked by building the Neumann or RobustnessConfig it becomes.
_POSITIVE = functools.partial(checked, above=0.0)
_COUNT = functools.partial(checked, integer=True, least=1)
_KIND = _words("scalar", "matrix", "translation", "neutral")
_MATRIX = ({"kind": _KIND, "a": reals, "b": _words("identity", otherwise=reals), "c": reals},
           {"x": reals})
_SYSTEMS = {
    "scalar": _MATRIX, "matrix": _MATRIX,
    "translation": ({"kind": _KIND, "lambda": _POSITIVE, "L": _POSITIVE,
                     "atoms": _rows(2), "density": _rows(3)},
                    {"f_kind": _words("exp", "values"), "amplitude": checked, "values": reals}),
    "neutral": ({"kind": _KIND, "a": reals, "c": reals, "history_steps": _COUNT,
                 **{side + key: _rows(width) for side in ("p_", "k_")
                    for key, width in (("atoms", 2), ("density", 3))}},
                {"f_kind": _words("cosine", "values"), "amplitude": checked,
                 "frequency": checked, "offset": checked, "values": reals,
                 "y": _words("compatible", otherwise=reals)}),
}
_RULES = {
    "seed": functools.partial(checked, integer=True, least=0),
    "method": _words("direct", "neumann"),
    "grid": {"step": _POSITIVE, "horizon": _POSITIVE},
    "neumann": {key: _field(Neumann, key) for key in ("tol", "max_terms")},
    "probes": {"count": _COUNT}, "signals": {"count": _COUNT},
    "admissibility": {"horizon": _POSITIVE, "q_threshold": checked},
    "asymptotics": {"properties": _properties,
                    **{key: _field(asy.RobustnessConfig, key)
                       for key in ("tail_window", "bound_hint", "tol", "ergodic_tol",
                                   "uniform_window", "shifts", "n_synthetic")}},
}
_REQUIRED = {"grid.step", "grid.horizon", "system.a", "system.c"}


def _check(values: dict, rules: dict, where: str = "") -> None:
    """Check the section ``where`` ("" for the config), ``values``, against ``rules``."""
    unknown = set(values) - set(rules)
    if unknown:
        raise ConfigurationError(f"unknown keys in {where or 'config'}: {sorted(unknown)}")
    for key, rule in rules.items():
        name = f"{where}.{key}" if where else key
        if isinstance(rule, dict):
            _check(values.get(key, {}), rule, name)
        elif key in values:
            rule(values[key], name)
        elif name in _REQUIRED:
            raise ConfigurationError(f"config needs {name}")


def _reject_constant(name: str):
    raise ConfigurationError(f"config holds the non-finite number {name}; "
                             "every number must be finite")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        _reject_constant(text)
    return value


def load_config(path: str, *, seed=None, horizon=None, step=None, method=None) -> dict:
    """The run config at ``path``, the flags given in place of its keys, once
    every key of every section given passes its rule in ``_RULES``, whichever
    command runs, and the required keys are there: the one reader that
    decides whether a config is valid.  The rules check and never rewrite, so
    the config is returned as given and the manifest echoes it."""
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    with open(p, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh, parse_constant=_reject_constant,
                            parse_float=_finite_float)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")
    system = cfg.get("system")
    if not isinstance(system, dict) or "kind" not in system:
        raise ConfigurationError("config needs a 'system' object with a 'kind'")
    _KIND(system["kind"], "system.kind")
    rules = dict(zip(("system", "initial"), _SYSTEMS[system["kind"]]), **_RULES)
    for key, rule in rules.items():
        if isinstance(rule, dict) and not isinstance(cfg.get(key, {}), dict):
            raise ConfigurationError(f"'{key}' must be a JSON object, got {cfg[key]!r}")
    grid = cfg.setdefault("grid", {})
    for section, key, flag in ((cfg, "seed", seed), (cfg, "method", method),
                               (grid, "horizon", horizon), (grid, "step", step)):
        if flag is not None:
            section[key] = flag
    _check(cfg, rules)
    initial = cfg.get("initial", {})
    if initial.get("f_kind") == "values" and "values" not in initial:
        raise ConfigurationError("config needs initial.values when initial.f_kind is 'values'")
    return cfg


def _measure_from(system: dict, atoms: str, density: str) -> MeasureSpec:
    """The measure whose atoms and density segments are the rows of
    ``system[atoms]`` and ``system[density]`` (none where absent)."""
    return MeasureSpec(*(tuple(map(tuple, system.get(key, ()))) for key in (atoms, density)))


def build_system(cfg: dict):
    """Build the triple (or neutral system) described by the config."""
    system = cfg["system"]
    kind = system["kind"]
    step = cfg["grid"]["step"]
    if kind in ("scalar", "matrix"):
        control = IdentityControl() if system.get("b", "identity") == "identity" else \
            BoundedControl(system["b"])
        return PerturbationTriple(MatrixSemigroup(system["a"]), control, system["c"])
    if kind == "translation":
        n = time_grid(system.get("L", 10.0), step, "system.L").count
        grid = Grid(-n * step, step, n)
        row = _measure_from(system, "atoms", "density").observation_row(grid, point_dim=1)
        return PerturbationTriple(LeftTranslation(grid),
                                  DirichletControl(DirichletSpec(system.get("lambda", 1.0))), row)
    # neutral
    N = system.get("history_steps", round(1.0 / step))
    if abs(N * step - 1.0) > 1e-9:
        raise ConfigurationError("history_steps * step must equal the unit delay")
    return nt.NeutralSystem(
        a=system["a"], p_kernel=_measure_from(system, "p_atoms", "p_density"),
        k_kernel=_measure_from(system, "k_atoms", "k_density"),
        c=system["c"], history_grid=Grid(-1.0, step, N))


def build_initial(cfg: dict, target):
    """Initial state for a simulation run."""
    kind = cfg["system"]["kind"]
    init = cfg.get("initial", {})
    if kind in ("scalar", "matrix"):
        return StateVector.sup(init.get("x", np.ones(target.base.space.dim)))
    if kind == "translation":
        grid = target.base.grid
        vals = init["values"] if init.get("f_kind") == "values" else \
            init.get("amplitude", 1.0) * np.exp(grid.points())
        return StateVector.grid_function(vals, grid)
    s = target.history_grid.points()
    if init.get("f_kind") == "values":
        f = np.asarray(init["values"], dtype=float)
        if f.size % target.dim:
            raise DimensionError(f"initial.values must be k * {target.dim} numbers, got {f.size}")
        f = f.reshape(-1, target.dim)
    else:
        vals = (init.get("amplitude", 1.0) * np.cos(init.get("frequency", 2.0) * s)
                + init.get("offset", 0.5))
        f = np.tile(vals[:, None], (1, target.dim))
    yspec = init.get("y", "compatible")
    y = nt.compatible_y(target, f) if yspec == "compatible" else np.asarray(yspec, dtype=float)
    return y, f


def build_probes(cfg: dict, target, seed: int):
    """The run's ``probes.count`` initial states: first the unit vectors of a
    matrix system or ``exp`` on a shift, then states whose coefficients are
    normals drawn from ``Draws(seed)``, so the seed alone fixes them."""
    count = cfg.get("probes", {}).get("count", 3)
    rng = Draws(seed)
    out = []
    if isinstance(target, nt.NeutralSystem):
        s = target.history_grid.points()
        for _ in range(count):
            coef = rng.standard_normal(3)
            f = np.tile((coef[0] + coef[1] * np.sin(2 * s)
                         + coef[2] * np.cos(s))[:, None], (1, target.dim))
            y = nt.compatible_y(target, f)
            out.append(nt.pack_initial(target, y, f))
        return out
    space = target.base.space
    if isinstance(target.base, MatrixSemigroup):
        d = space.dim
        for i in range(min(d, count)):
            out.append(StateVector.sup(np.eye(d)[i]))
        while len(out) < count:
            out.append(StateVector.sup(rng.standard_normal(d)))
        return out
    grid = target.base.grid
    s = grid.points()
    out.append(StateVector.grid_function(np.exp(s), grid))
    while len(out) < count:
        coef = rng.standard_normal(2)
        out.append(StateVector.grid_function(
            np.exp(s) * (coef[0] + coef[1] * np.sin(3 * s)), grid))
    return out


def method_from(cfg: dict):
    if cfg.get("method", "direct") == "neumann":
        return Neumann(**cfg.get("neumann", {}))
    return DirectSolve()


# _format17 decides the 17 significant digits of b"%.17g" % v in array
# arithmetic: D = round(|v| * 10**(16-k)), with k the decimal exponent of |v|
# and the product taken in double-double arithmetic (Dekker, Numer. Math. 18,
# 1971), whose error, below 1e-14 in units of D, is far inside _TIE_SLACK.
# |v| within _SAFE_RANGE keeps every product and split of Dekker's algorithm
# clear of overflow and of subnormals; any other value, and any product
# within _TIE_SLACK of a rounding tie, is formatted by b"%.17g" % v itself.
_FORMAT_BLOCK = 2048  # values laid out per array pass
_SAFE_RANGE = (1e-280, 1e280)
_TIE_SLACK = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting factor


def _split(x):
    """``x`` as hi + lo, each with at most 26 significant bits."""
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _pow10(n: int) -> tuple:
    """10**n as hi + lo, each rounded to nearest from the exact value, and
    hi split for Dekker's product: (hi, hi's high part, hi's low part, lo)."""
    if n >= 0:
        hi = float(10 ** n)
        lo = float(10 ** n - int(hi))
    else:
        den = 10 ** -n
        hi = 1 / den
        num, twos = hi.as_integer_ratio()
        lo = (twos - num * den) / (twos * den)
    return (hi, *_split(hi), lo)


@functools.lru_cache(maxsize=64)
def _pow10_table(low: int, high: int) -> np.ndarray:
    """``_pow10(n)`` for n = low..high, as the columns of a (4, m) array."""
    return np.array([_pow10(n) for n in range(low, high + 1)]).T


def _scaled(a, k):
    """``a * 10**(16-k)`` as p + t: p the rounded product, t its rest."""
    n = 16 - k
    low = int(n.min())
    hi, hh, hl, lo = np.take(_pow10_table(low, int(n.max())), n - low, axis=1)
    ah, al = _split(a)
    p = a * hi
    t = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    t += a * lo
    return p, t


# A value is laid out in a 52-byte row whose bytes are the union of every
# %g form, so that a form keeps few runs of them: 1 sign, 2-3 "0.", 4-6
# leading zeros, 7 d0, 8-23 d1..d16, 27 ".", 28-43 d1..d16 again, 44 "e",
# 45 the exponent's sign, 46-48 its digits, 49 the separator (0 and 24-26
# are never kept).  Fixed notation keeps d0 and the first copy through the
# units digit, then the point and the second copy; exponent notation keeps
# d0, the point and the second copy.  A template keeps the bytes of one
# form: fixed notation for exponents -4..16, or exponent notation with two
# or three exponent digits; each by the count of significant digits and
# the sign.
_ROW = 52
_EXP_OFFSET = 400  # index of exponent 0 in the exponent tables


def _kept(form: int, nd: int) -> list:
    """The bytes a positive value of one form keeps, with nd significant
    digits: form 0-20 is fixed notation for exponents -4..16, 21 and 22
    exponent notation with two and three exponent digits."""
    e = form - 4
    if form < 4:  # 0.000ddd
        cols = [2, 3, *range(8 + e, 7), *range(7, 7 + nd)]
    elif form < 21:  # ddd.ddd
        cols = [*range(7, 8 + e)] + ([27, *range(28 + e, 27 + nd)] if nd > e + 1 else [])
    else:  # d.ddde+XX
        cols = [7, *([27, *range(28, 27 + nd)] if nd > 1 else []), 44, 45,
                *([46] if form == 22 else []), 47, 48]
    return cols + [49]


@functools.cache
def _layout():
    """The tables of ``_format_block``, as 4-byte lanes of the row: the
    lane of "000" and d0; the lane of each 4-digit group; the two lanes of
    each exponent; twice the significant digits through each group; twice
    each exponent's first template; and each template's kept bytes and
    their count.  Built from bytes and lists, so that building them pages
    in no numpy loop the formatter does not use."""
    quads = bytearray(40000)  # "0000" to "9999"
    for j in range(4):
        quads[j::4] = b"".join(bytes([48 + d]) * 10 ** (3 - j) for d in range(10)) * 10 ** j
    last = bytearray(b"\4" * 10000)  # place 1-4 of a group's last nonzero digit
    for place, step in enumerate((10, 100, 1000, 10000)):
        last[::step] = bytes([3 - place]) * (10000 // step)
    through = b"".join(last.translate(bytes([2, *range(4 + 8 * q, 12 + 8 * q, 2)]).ljust(256))
                       for q in range(4))
    lead = b"".join(b"000%d" % d for d in range(10))
    x = range(-_EXP_OFFSET, _EXP_OFFSET + 1)
    tail = b"".join(b"e%+04d\0\0\0" % n for n in x)
    first = [2 * (17 * (n + 4 if -4 <= n < 17 else 21 if abs(n) < 100 else 22) - 1) for n in x]
    keep = []  # by form and significant digits, positive then negative
    for form in range(23):
        for nd in range(1, 18):
            row = bytearray(_ROW)
            for c in _kept(form, nd):
                row[c] = 1
            keep.append(bytes(row))
            row[1] = 1  # the sign
            keep.append(bytes(row))
    return (np.frombuffer(lead, dtype=np.uint32), np.frombuffer(quads, dtype=np.uint32),
            np.frombuffer(tail, dtype=np.uint32).reshape(-1, 2).T.copy(),
            np.frombuffer(through, dtype=np.uint8).reshape(4, 10000), np.array(first),
            np.frombuffer(b"".join(keep), dtype=np.uint32).reshape(len(keep), -1),
            np.array([row.count(1) for row in keep]))


def _digits(v):
    """Where the 17 significant digits of b"%.17g" % x are decided exactly,
    for each value x of ``v``, and there its decimal exponent k and its 17
    digits D = hi * 1e8 + lo, hi and lo whole floats."""
    a = np.abs(v)
    exact = (a >= _SAFE_RANGE[0]) & (a <= _SAFE_RANGE[1])
    a = np.where(exact, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(a, k)
    # log10 can miss k by one next to a power of ten: take the product again
    # with k moved where it falls outside [1e16, 1e17)
    near = np.flatnonzero((p < 1.0000001e16) | (p > 0.9999999e17))
    if near.size:
        below = (p[near] - 1e16) + t[near] < 0
        above = (p[near] - 1e17) + t[near] >= 0
        moved = near[below | above]
        if moved.size:
            k[moved] += np.where(above[below | above], 1, -1)
            p[moved], t[moved] = pm, tm = _scaled(a[moved], k[moved])
            exact[moved[((pm - 1e16) + tm < 0) | ((pm - 1e17) + tm >= 0)]] = False
    r = np.rint(t)
    exact &= np.abs(t - r) < 0.5 - _TIE_SLACK
    # D = p + r, exactly: p is whole and below 2**57, r small
    hi = np.floor(p * 1e-8)
    lo = (p - hi * 1e8) + r
    carry = np.floor(lo * 1e-8)
    hi += carry
    lo -= carry * 1e8
    up = np.flatnonzero(hi >= 1e9)  # rounded up into the next decade
    if up.size:
        k[up] += 1
        hi[up] = 1e8
    return exact, k, hi, lo


_SIGN_LANE = int(np.frombuffer(b"\0-0.", dtype=np.uint32)[0])
_POINT_LANE = int(np.frombuffer(b"\0\0\0.", dtype=np.uint32)[0])


def _rows(v, seps):
    """Each value's 52-byte row, laid out from its decided digits, and the
    template that selects the bytes of its %g form."""
    lead, quads, tail, through, first, *_ = _layout()
    exact, k, hi, lo = _digits(v)
    # hi and lo are whole and below 1e9: a truncated quotient is exact
    d0 = (hi * 1e-8).astype(np.intp)
    hi -= d0 * 1e8
    g1, g3 = (hi * 1e-4).astype(np.intp), (lo * 1e-4).astype(np.intp)
    groups = [g1, (hi - g1 * 1e4).astype(np.intp), g3, (lo - g3 * 1e4).astype(np.intp)]
    lanes = np.empty((v.size, _ROW // 4), dtype=np.uint32)
    lanes[:, 0] = _SIGN_LANE
    lanes[:, 1] = lead[d0]
    for q, group in enumerate(groups):
        lanes[:, 2 + q] = lanes[:, 7 + q] = quads[group]
    lanes[:, 6] = _POINT_LANE
    k += _EXP_OFFSET
    lanes[:, 11] = tail[0][k]
    lanes[:, 12] = tail[1][k]
    nd2 = np.maximum(np.maximum(through[0, groups[0]], through[1, groups[1]]),
                     np.maximum(through[2, groups[2]], through[3, groups[3]]))
    chars = lanes.view(np.uint8)
    chars[:, 49] = seps
    template = first[k] + nd2
    template += np.signbit(v)
    return chars, template, exact


def _format_block(v, seps):
    """The text of b"%.17g" % x + sep for each value x of ``v`` and its
    separator, and each one's length."""
    *_, keep, length = _layout()
    chars, template, exact = _rows(v, seps)
    kept = np.take(keep, template, axis=0).view(bool)
    lengths = length[template]
    other = np.flatnonzero(~exact)
    if other.size:
        text = (b"%-24.17g" * other.size) % tuple(v[other].tolist())
        cells = np.frombuffer(text, dtype=np.uint8).reshape(-1, 24)
        chars[other, :24] = cells
        kept[other] = False
        kept[other, :24] = cells != ord(" ")
        kept[other, 49] = True
        lengths[other] = kept[other].sum(axis=1)
    return chars[kept], lengths


@functools.lru_cache(maxsize=16)
def _separators(seps: bytes, n: int) -> np.ndarray:
    """``seps`` repeated to n bytes, as a read-only array."""
    out = np.resize(np.frombuffer(seps, dtype=np.uint8), n)
    out.flags.writeable = False
    return out


def _format17(values, seps: bytes):
    """The bytes of b"%.17g" % v followed by its separator, for every value
    v of ``values`` in C order, and the end offset of each.  The separators
    repeat: value i is followed by ``seps[i % len(seps)]``."""
    values = np.asarray(values, dtype=float).ravel()
    step = max(1, _FORMAT_BLOCK // len(seps)) * len(seps)
    blocks = [_format_block(values[a: a + step], _separators(seps, min(step, values.size - a)))
              for a in range(0, values.size, step)]
    if len(blocks) == 1:
        text, lengths = blocks[0]
    elif blocks:
        texts, lengths = zip(*blocks)
        text, lengths = np.concatenate(texts), np.concatenate(lengths)
    else:
        text, lengths = np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
    return text, np.cumsum(lengths)


_CSV_BUFFER_BYTES = 256 * 1024
# one os.writev call takes three buffers a row, at most IOV_MAX buffers, and
# about _WRITEV_BYTES: in runs that wrote a 150 MB orbit.csv, calls of 13 MB
# stalled the write by 50-80 ms about every other run, calls of 1 MB rarely
_IOV_ROWS = max(1, os.sysconf("SC_IOV_MAX") // 3)
_WRITEV_BYTES = 1 << 20


def write_csv(path: Path, header, columns, *, trajectory=None, stride=1):
    """One row per sample of ``columns``, each value written as
    b"%.17g" % v by ``_format17``.

    ``_format17`` decides the digits and the layout of most values in array
    arithmetic, a few thousand at a time, and formats each value it cannot
    decide exactly (zero, inf, nan, magnitudes past 1e+-280, products next
    to a rounding tie) by ``%`` itself, so every byte is that of ``%.17g``.
    A plain table is formatted one block of rows at a time, in row order.
    With a ``trajectory``, the trailing columns are windows of it: row k's
    are ``trajectory[k*stride : k*stride + width]``, the last window ending
    the trajectory.  The trajectory and the leading columns are then each
    formatted once, and row k is written as slices of those bytes: its
    leading cells, its window and a newline, handed to ``os.writev`` for up
    to ``_IOV_ROWS`` rows or about ``_WRITEV_BYTES`` a call, so the kernel
    copies them straight from the formatted bytes.  A plain table, and the
    header of either kind, go to the file through one buffer.  The file is
    closed on return.
    """
    with open(path, "wb", buffering=_CSV_BUFFER_BYTES) as fh:
        fh.write((",".join(header) + "\n").encode())
        if trajectory is None:
            cols = [np.asarray(c, dtype=float) for c in columns]
            if not cols:
                return
            seps = b"," * (len(cols) - 1) + b"\n"
            rows = max(1, _FORMAT_BLOCK // len(cols))
            for a in range(0, len(cols[0]), rows):
                fh.write(_format17(np.stack([c[a: a + rows] for c in cols], axis=1),
                                   seps)[0])
            return
        rows = len(columns[0])
        width = len(trajectory) - (rows - 1) * stride
        heads = len(columns) - width
        # every trajectory value once, each followed by a comma: value i is
        # text[starts[i]:starts[i+1]]
        text, ends = _format17(trajectory, b",")
        starts = np.concatenate([[0], ends])
        # the leading columns, row by row: row k's are head[at[k]:at[k+1]]
        head = np.empty((rows, heads))
        for j, c in enumerate(columns[:heads]):
            head[:, j] = c
        head, ends = _format17(head, b",")
        at = np.concatenate([[0], ends[heads - 1::heads] if heads else np.zeros(rows, int)])
        text, head = memoryview(text), memoryview(head)
        fh.flush()
        for k in range(0, rows, _IOV_ROWS):
            end = min(rows, k + _IOV_ROWS)
            ats = at[k: end + 1].tolist()
            firsts = starts[k * stride: end * stride: stride].tolist()
            lasts = starts[k * stride + width: end * stride + width: stride].tolist()
            iov, size = [], 0
            for h0, h1, t0, t1 in zip(ats, ats[1:], firsts, lasts):
                iov += (head[h0: h1], text[t0: t1 - 1], b"\n")
                size += h1 - h0 + t1 - t0
                if size >= _WRITEV_BYTES:
                    _writev_all(fh.fileno(), iov)
                    iov, size = [], 0
            if iov:
                _writev_all(fh.fileno(), iov)


def _writev_all(fd: int, iov: list) -> None:
    """Write the buffers of ``iov`` to ``fd`` in order, by ``os.writev``
    calls until a short write is complete."""
    while True:
        done = os.writev(fd, iov)
        for i, buf in enumerate(iov):
            if done < len(buf):
                break
            done -= len(buf)
        else:
            return
        iov = [iov[i][done:], *iov[i + 1:]]


def _numpy_json(obj):
    """numpy arrays and scalars as JSON lists and numbers."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _strict_json(name: str, obj) -> str:
    """Sorted-key strict JSON text: an inf or nan anywhere in ``obj`` is a
    numerical failure."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                          default=_numpy_json)
    except ValueError as exc:
        raise NumericalFailure(f"{name} would hold a non-finite number") from exc


def write_json(path: Path, text: str):
    """Write the JSON ``text`` that ``_strict_json`` encoded, and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_run(out: Path, cfg: dict, seed: int, started: float, name: str, grid: Grid,
               diagnostics: dict, payload=None, orbits=(), tables=()) -> int:
    """Write every artifact of one run, or none of them.

    ``orbits`` are (file, orbit) pairs and ``tables`` (file, header,
    columns) plot tables, each written by ``write_csv``; ``name`` is the
    JSON artifact: the run's manifest, under "manifest" in ``payload`` if
    one is given.  Every orbit and table column must be finite and the JSON
    must encode strictly before any file is written."""
    if not all(orb.all_finite() for _, orb in orbits):
        raise NumericalFailure("the orbit is not finite (overflow or nan); "
                               "nothing is written")
    if not all(np.all(np.isfinite(col)) for _, _, cols in tables for col in cols):
        raise NumericalFailure("the plot data is not finite (overflow or nan); "
                               "nothing is written")
    manifest = {"config": cfg, "seed": seed,
                "grid": {"step": grid.step, "horizon": grid.end, "count": grid.count},
                "diagnostics": diagnostics, "timing_seconds": time.time() - started}
    text = _strict_json(name, manifest if payload is None else {**payload, "manifest": manifest})
    for file, orb in orbits:
        header = ["t", "norm", *(f"x{j}" for j in range(orb.states.shape[1]))]
        write_csv(out / file, header, [orb.grid.points(), orb.norms, *orb.states.T],
                  trajectory=orb.trajectory, stride=orb.stride)
    for file, header, cols in tables:
        write_csv(out / file, header, cols)
    write_json(out / name, text)
    return 0


def _triple(target):
    """The perturbation triple of a built system: a neutral system's own."""
    return nt.build_perturbation(target) if isinstance(target, nt.NeutralSystem) else target


@np.errstate(over="ignore", invalid="ignore")
def _deviation(a, b) -> float:
    """max |a - b|: nan or inf on orbits that are not finite, which
    ``_write_run`` refuses."""
    return float(np.max(np.abs(a - b)))


def _formula_and_oracle(cfg: dict, target, grid: Grid, method):
    """The neutral system's orbit from the config's initial state by the
    composition formula (with its compatibility report) and by the method
    of steps."""
    initial = build_initial(cfg, target)
    res = nt.neutral_orbit(target, initial, grid, method=method)
    return res, nt.method_of_steps(target, initial, grid)


def cmd_simulate(cfg: dict, out: Path, seed: int, started: float) -> int:
    target = build_system(cfg)
    grid = time_grid(cfg["grid"]["horizon"], cfg["grid"]["step"])
    method = method_from(cfg)
    if isinstance(target, nt.NeutralSystem):
        res, oracle = _formula_and_oracle(cfg, target, grid, method)
        diagnostics = {
            "compatibility_residual": res.compatibility_residual,
            "compatible": bool(res.compatible),
            "max_norm_deviation": _deviation(res.orbit.norms, oracle.norms),
            "max_state_deviation": _deviation(res.orbit.states, oracle.states),
        }
        orbits = (("orbit_formula.csv", res.orbit), ("orbit_oracle.csv", oracle))
    else:
        orb = perturbed_orbit(target, build_initial(cfg, target), grid, method=method)
        diagnostics = {"initial_norm": orb.initial_norm(),
                       "final_norm": float(orb.norms[-1])}
        if isinstance(target.base, LeftTranslation):
            diagnostics["truncation_exact"] = bool(grid.end <= target.base.horizon)
        orbits = (("orbit.csv", orb),)
    return _write_run(out, cfg, seed, started, "manifest.json", grid, diagnostics,
                      orbits=orbits)


def cmd_admissibility(cfg: dict, out: Path, seed: int, started: float) -> int:
    target = build_system(cfg)
    acfg = cfg.get("admissibility", {})
    triple = _triple(target)
    probes = build_probes(cfg, target, seed)
    horizon = float(acfg.get("horizon", cfg["grid"]["horizon"]))
    grid = time_grid(horizon, cfg["grid"]["step"])
    signals = adm.probe_signals(triple, grid, cfg.get("signals", {}).get("count", 3), seed=seed)
    report = adm.estimate_constants(triple, probes, signals, horizon,
                                    method=method_from(cfg))
    payload = report.to_dict()
    if "q_threshold" in acfg:
        mv = adm.check_miyadera_voigt(triple, probes, horizon, float(acfg["q_threshold"]),
                                      step=grid.step)
        payload["miyadera_voigt"] = {"verdict": mv.verdict,
                                     "ratio": mv.details["ratio"],
                                     "q_threshold": mv.details["q_threshold"]}
    return _write_run(out, cfg, seed, started, "admissibility.json", grid, {}, payload)


def cmd_asymptotics(cfg: dict, out: Path, seed: int, started: float) -> int:
    target = build_system(cfg)
    triple = _triple(target)
    probes = build_probes(cfg, target, seed)
    given = dict(cfg.get("asymptotics", {}))
    props = given.pop("properties", ["BOUNDED", "STRONGLY_STABLE", "MEAN_ERGODIC"])
    horizon = cfg["grid"]["horizon"]
    config = asy.RobustnessConfig(
        horizon=horizon, step=cfg["grid"]["step"], seed=seed, method=method_from(cfg),
        **{"tail_window": 0.25 * horizon, **given})
    grid = time_grid(config.horizon, config.step)
    run = asy.asymptotics_run(triple, props, probes, config, tracks=True)
    matrix = {}
    for prop in props:
        rep = run.reports[prop]
        matrix[prop] = {
            "passes": bool(rep.passes),
            "per_probe": [{"base": p["base"]._asdict(), "perturbed": p["perturbed"]._asdict(),
                           "ok": bool(p["ok"])} for p in rep.per_probe],
            "biinvariance_violations": rep.biinvariance_violations,
        }
    # plot data: norms and Cesaro residuals of base/perturbed orbits
    ts = grid.points()
    norm_cols, norm_head = [ts], ["t"]
    ces_cols, ces_head = [ts], ["t"]
    for i, tr in enumerate(run.tracks):
        norm_cols += [tr.base_norms, tr.pert_norms]
        norm_head += [f"base_norm_{i}", f"pert_norm_{i}"]
        ces_cols += [tr.base_cesaro, tr.pert_cesaro]
        ces_head += [f"base_cesaro_{i}", f"pert_cesaro_{i}"]
    payload = {"schema_version": 1, "verdicts": matrix,
               "all_pass": all(v["passes"] for v in matrix.values())}
    return _write_run(out, cfg, seed, started, "asymptotics.json", grid, {}, payload,
                      tables=(("plot_norms.csv", norm_head, norm_cols),
                              ("plot_cesaro.csv", ces_head, ces_cols)))


def cmd_neutral_compare(cfg: dict, out: Path, seed: int, started: float) -> int:
    target = build_system(cfg)
    if not isinstance(target, nt.NeutralSystem):
        raise ConfigurationError("neutral-compare requires a neutral system")
    step, horizon = cfg["grid"]["step"], cfg["grid"]["horizon"]
    method = method_from(cfg)
    orbits, devs = [], {}
    for tag, factor in (("coarse", 1), ("fine", 2)):
        sys_f = target if factor == 1 else nt.NeutralSystem(
            target.a, target.p_kernel, target.k_kernel, target.c,
            target.history_grid.refine(factor))
        res, oracle = _formula_and_oracle(cfg, sys_f, time_grid(horizon, step / factor), method)
        orbits += [(f"orbit_formula_{tag}.csv", res.orbit), (f"orbit_oracle_{tag}.csv", oracle)]
        devs[tag] = _deviation(res.orbit.norms, oracle.norms)
    # undefined (null) when a route agrees exactly with the oracle
    order = float(np.log2(devs["coarse"] / devs["fine"])) \
        if devs["coarse"] > 0 and devs["fine"] > 0 else None
    diagnostics = {"deviation": devs, "empirical_order": order}
    return _write_run(out, cfg, seed, started, "manifest.json", time_grid(horizon, step),
                      diagnostics, orbits=orbits)


_COMMANDS = {
    "simulate": cmd_simulate,
    "admissibility": cmd_admissibility,
    "asymptotics": cmd_asymptotics,
    "neutral-compare": cmd_neutral_compare,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="semflow",
        description="simulate C0-semigroups under admissible feedback perturbations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--horizon", type=float, default=None)
        p.add_argument("--step", type=float, default=None)
        p.add_argument("--method", choices=["neumann", "direct"], default=None)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, horizon=args.horizon, step=args.step,
                          method=args.method)
        seed = cfg.setdefault("seed", 42)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"--out {args.out!r} is not a directory that can be created: "
                f"{exc.strerror}") from None
        return _COMMANDS[args.command](cfg, out, seed, time.time())
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except _VALIDATION_ERRORS as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except SemflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
