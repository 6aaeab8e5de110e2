"""Checkers for asymptotic orbit properties and the robustness harness.

Limits at t -> infinity are decided from tail statistics over a finite
horizon; INCONCLUSIVE is a first-class outcome whenever the decision margin
is thin.  Every threshold is relative to the orbit's own scale, so scaling an
orbit never changes a verdict.  Tail statistics can be pinned to an absolute
trailing window (``tail_window`` seconds): the window then consists of the
same samples for an orbit and its time-shifts, which makes the checkers
translation-biinvariant by construction -- the property the robustness theory
requires of an asymptotic subspace.

Each checker decides a block of orbits on one grid, each orbit read from
several start indices (its time-shifts), in one array pass: the tail samples
are shared, and only each orbit's scale, a suffix maximum, differs between
the start indices.
"""

from __future__ import annotations

import math
import numbers
from functools import partial
from itertools import islice
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from .core import Draws, Grid, Record, Space, StateVector
from .errors import ConfigurationError, DomainError
from .maps import DirectSolve, Method, PerturbationTriple, free_orbit, perturbed_orbit
from .semigroups import OrbitSeries, orbit_from_states

PROPERTIES = ("BOUNDED", "STRONGLY_STABLE", "WEAKLY_STABLE", "MEAN_ERGODIC",
              "UNIFORMLY_ERGODIC")

#: verdicts flip from PASS to FAIL only beyond this multiple of the tolerance
FAIL_FACTOR = 10.0
#: largest tail log-slope a bounded orbit may show
SLOPE_TOL = 1e-3
#: share of the horizon in the tail without a tail window: the boundedness
#: check fits the last half, the stability checks average the last quarter
BOUNDED_TAIL_FRACTION = 0.5
STABLE_TAIL_FRACTION = 0.25
#: seeded random functionals added to the unit ones of the weak-stability check
FUNCTIONAL_SEED = 7
FUNCTIONAL_COUNT = 2
#: time grid of the synthetic orbit zoo of the biinvariance harness
SYNTHETIC_HORIZON = 40.0
SYNTHETIC_STEP = 0.02
SYNTHETIC_DIM = 2
#: orbits per block of the biinvariance harness: one of each zoo shape
HARNESS_BLOCK = 8


class AsymptoticVerdict(Record):
    property: str
    verdict: str  # "PASS" | "FAIL" | "INCONCLUSIVE"
    witness: dict


class OrbitBlock(Record):
    """Orbits on one grid and in one space, checked together: each orbit's
    states as it holds them, the stacked norm tracks, and the Cesaro sums
    built so far, by tail start, which the ergodic checkers share."""
    grid: Grid
    states: tuple
    norms: np.ndarray  # (orbits, count+1)
    space: Space
    sums: Dict[int, np.ndarray]

    @staticmethod
    def of(orbits: Sequence[OrbitSeries]) -> "OrbitBlock":
        grid, space = orbits[0].grid, orbits[0].space
        if any((o.grid, o.space) != (grid, space) for o in orbits):
            raise DomainError("a block's orbits must share one grid and one space")
        return OrbitBlock(grid, tuple(o.states for o in orbits),
                          np.stack([o.norms for o in orbits]), space, {})

    def cesaro_sums(self, a: int) -> np.ndarray:
        """``_cesaro_sums(self, a)``, built once per block and read-only."""
        cum = self.sums.get(a)
        if cum is None:
            cum = self.sums[a] = _cesaro_sums(self, a)
            cum.flags.writeable = False
        return cum


class Cells(Record):
    """One checker's verdicts on a block: ``codes[s, i]`` decides orbit i
    read from start index ``starts[s]`` (shifted left by that many steps),
    and ``witness(s, i)`` builds that cell's witness."""
    property: str
    codes: np.ndarray
    witness: Callable[[int, int], dict]

    def verdict(self, s: int = 0, i: int = 0) -> AsymptoticVerdict:
        return AsymptoticVerdict(self.property, str(self.codes[s, i]), self.witness(s, i))


def _tails(grid: Grid, starts: Sequence[int], tail_window: Optional[float],
           tail_fraction: float) -> Dict[int, List[int]]:
    """The positions in ``starts`` read from each first tail index: the
    orbit's trailing ``tail_window`` seconds, or ``tail_fraction`` of its
    horizon.  An orbit and its shifts share their tail wherever it fits."""
    out: Dict[int, List[int]] = {}
    for s, k in enumerate(starts):
        end = grid.end if k == 0 else (grid.count - k) * grid.step
        w = tail_window if tail_window is not None else tail_fraction * end
        m = max(1, int(round(min(w, end) / grid.step)))
        out.setdefault(k + max(grid.count - k - m, 0), []).append(s)
    return out


def _scales(x: np.ndarray, starts: Sequence[int]) -> np.ndarray:
    """``max(x[i, k:])`` for every start k and row i, as (starts, rows): the
    maxima of the segments between the sorted starts, accumulated from the
    end.  A nan propagates, as in np.max."""
    u = sorted(set(starts))
    seg = np.maximum.accumulate(np.maximum.reduceat(x, u, axis=1)[:, ::-1], axis=1)
    return seg[:, ::-1][:, [u.index(k) for k in starts]].T


def _verdicts(fail: np.ndarray, ok: np.ndarray) -> np.ndarray:
    return np.where(fail, "FAIL", np.where(ok, "PASS", "INCONCLUSIVE"))


def _cesaro_sums(block: OrbitBlock, a: int) -> np.ndarray:
    """Running trapezoid integrals of every orbit's states from index a on,
    as (orbits, count+1-a, dim), one orbit's temporaries alive at a time."""
    cum = np.zeros((len(block.states), block.grid.count + 1 - a, block.space.dim))
    for x, c in zip(block.states, cum):
        np.cumsum(0.5 * block.grid.step * (x[a + 1:] + x[a:-1]), axis=0, out=c[1:])
    return cum


# an all-zero orbit, or a tail with fewer than two samples, divides by zero;
# such cells take their verdict from the zero scale or the sample count.
# Every sum runs along one cell's row, so no verdict depends on the block.
@np.errstate(divide="ignore", invalid="ignore")
def _bounded(block: OrbitBlock, starts: Sequence[int], bound_hint: Optional[float],
             tail_window: Optional[float]) -> Cells:
    ref = _scales(block.norms, starts)
    slope = np.empty_like(ref)
    for a, ss in _tails(block.grid, starts, tail_window, BOUNDED_TAIL_FRACTION).items():
        # least squares on the tail norms above 1e-14 of each cell's sup,
        # times and log-norms centred before the sums of products
        tail = block.norms[:, a:]
        w = tail > 1e-14 * ref[ss, :, None]
        n = np.count_nonzero(w, axis=-1)[..., None]
        tc = np.where(w, block.grid.step * np.arange(tail.shape[1]), 0.0)
        tc -= tc.sum(axis=-1, keepdims=True) / n
        tc *= w
        yc = np.where(w, np.log(np.where(tail > 0.0, tail, 1.0)), 0.0)
        yc -= yc.sum(axis=-1, keepdims=True) / n
        slope[ss] = np.where(n[..., 0] < 3, -np.inf,
                             (yc * tc).sum(axis=-1) / (tc * tc).sum(axis=-1))
    fail, ok = slope > FAIL_FACTOR * SLOPE_TOL, slope <= SLOPE_TOL
    if bound_hint is not None:
        fail, ok = fail | (ref > 1.1 * bound_hint), ok & (ref <= bound_hint)

    def witness(s, i):
        decayed = bool(slope[s, i] == -np.inf)
        out = {"sup": float(ref[s, i]), "log_slope": None if decayed else float(slope[s, i]),
               "tail_decayed": decayed}
        return out if ref[s, i] == 0.0 else {**out, "bound_hint": bound_hint}

    return Cells("BOUNDED", np.where(ref == 0.0, "PASS", _verdicts(fail, ok)), witness)


@np.errstate(divide="ignore", invalid="ignore")
def _strongly_stable(block: OrbitBlock, starts: Sequence[int], tol: float,
                     tail_window: Optional[float]) -> Cells:
    ref = _scales(block.norms, starts)
    ratio, noninc = np.empty_like(ref), np.empty(ref.shape, dtype=bool)
    means = [None] * len(starts)
    for a, ss in _tails(block.grid, starts, tail_window, STABLE_TAIL_FRACTION).items():
        tail = block.norms[:, a:]
        cm = np.array([c.mean(axis=1) for c in np.array_split(tail, 4, axis=1)
                       if c.shape[1]])
        ratio[ss] = tail.mean(axis=1) / ref[ss]
        noninc[ss] = np.all(cm[1:, None] <= 1.05 * cm[:-1, None] + 1e-15 * ref[ss], axis=0)
        for s in ss:
            means[s] = cm
    codes = _verdicts((~noninc & (ratio > tol)) | (ratio >= FAIL_FACTOR * tol), ratio <= tol)

    def witness(s, i):
        if ref[s, i] == 0.0:
            return {"tail_ratio": 0.0}
        return {"tail_ratio": float(ratio[s, i]), "window_means": means[s][:, i].tolist(),
                "ref": float(ref[s, i])}

    return Cells("STRONGLY_STABLE", np.where(ref == 0.0, "PASS", codes), witness)


@np.errstate(divide="ignore", invalid="ignore")
def _weakly_stable(block: OrbitBlock, starts: Sequence[int],
                   functionals: Sequence[np.ndarray], tol: float,
                   tail_window: Optional[float]) -> Cells:
    if not functionals:
        raise ConfigurationError("weak stability needs at least one functional")
    tails = _tails(block.grid, starts, tail_window, STABLE_TAIL_FRACTION)
    per = np.empty((len(starts), len(functionals), len(block.states)))
    for f, phi in enumerate(functionals):
        phi = np.asarray(getattr(phi, "coords", phi), dtype=float).ravel()
        p = np.abs(np.stack([x @ phi for x in block.states]))
        scale, mean = _scales(p, starts), np.empty((len(starts), p.shape[0]))
        for a, ss in tails.items():
            mean[ss] = p[:, a:].mean(axis=1)
        per[:, f] = np.where(scale > 0.0, mean / scale, 0.0)
    worst = np.fmax(0.0, np.fmax.reduce(per, axis=1))  # a nan ratio is no worst

    def witness(s, i):
        return {"worst_tail_ratio": float(worst[s, i]), "per_functional": per[s, :, i].tolist(),
                "surrogate": f"finite set of {len(functionals)} functionals"}

    return Cells("WEAKLY_STABLE", _verdicts(worst >= FAIL_FACTOR * tol, worst <= tol), witness)


@np.errstate(divide="ignore", invalid="ignore")
def _mean_ergodic(block: OrbitBlock, starts: Sequence[int], tol: float,
                  tail_window: Optional[float]) -> Cells:
    h, ref = block.grid.step, _scales(block.norms, starts)
    res, size = np.full_like(ref, np.nan), np.full_like(ref, np.nan)
    limits, short = [None] * len(starts), np.zeros((len(starts), 1), dtype=bool)
    for a, ss in _tails(block.grid, starts, tail_window, 1.0).items():
        n = block.grid.count - a
        short[ss] = n < 8
        if n < 8:
            continue
        cum = block.cesaro_sums(a)
        mean = lambda k: cum[:, k] / (h * k)
        limit = mean(n)
        d1, d2, size[ss] = block.space.rows_norm(np.concatenate(
            [limit - mean(n // 2), mean(n // 2) - mean(n // 4), limit])).reshape(3, -1)
        res[ss] = np.where(d2 > d1, d2, d1) / ref[ss]
        for s in ss:
            limits[s] = limit

    def witness(s, i):
        if short[s, 0]:
            return {"reason": "window too short"}
        if ref[s, i] == 0.0:
            return {"residual": 0.0, "limit_norm": 0.0}
        return {"residual": float(res[s, i]), "limit_norm": float(size[s, i]),
                "limit": limits[s][i]}

    # feasibility first, so the verdict structure does not depend on the data
    # (keeps shifted-PASS => full-PASS intact for degenerate orbits)
    codes = np.where(ref == 0.0, "PASS", _verdicts(res >= FAIL_FACTOR * tol, res <= tol))
    return Cells("MEAN_ERGODIC", np.where(short, "INCONCLUSIVE", codes), witness)


@np.errstate(divide="ignore", invalid="ignore")
def _uniformly_ergodic(block: OrbitBlock, starts: Sequence[int], window: float,
                       tol: float, tail_window: Optional[float]) -> Cells:
    h, ref = block.grid.step, _scales(block.norms, starts)
    wk = int(round(window / h))
    res, sup = np.full_like(ref, np.nan), np.full_like(ref, np.nan)
    short = np.zeros((len(starts), 1), dtype=bool)
    for a, ss in _tails(block.grid, starts, tail_window, 1.0).items():
        T = block.grid.count - a - wk
        short[ss] = T < 8
        if T < 8:
            continue
        cum = block.cesaro_sums(a)
        # Cesaro means at T and T/2 of the shifted orbits on [0, window]
        mean = lambda tn: (cum[:, tn: tn + wk + 1] - cum[:, : wk + 1]) / (tn * h)
        rows = np.concatenate([mean(T) - mean(T // 2), mean(T)]).reshape(-1, cum.shape[2])
        d, sup[ss] = block.space.rows_norm(rows).reshape(2, cum.shape[0], -1).max(axis=2)
        res[ss] = d / ref[ss]

    def witness(s, i):
        if short[s, 0]:
            return {"reason": "window too short for the horizon"}
        if ref[s, i] == 0.0:
            return {"residual": 0.0}
        return {"residual": float(res[s, i]), "limit_sup_norm": float(sup[s, i])}

    # feasibility first, independent of the data (see _mean_ergodic)
    codes = np.where(ref == 0.0, "PASS", _verdicts(res >= FAIL_FACTOR * tol, res <= tol))
    return Cells("UNIFORMLY_ERGODIC", np.where(short, "INCONCLUSIVE", codes), witness)


def check_bounded(orb: OrbitSeries, bound_hint: Optional[float] = None,
                  tail_window: Optional[float] = None) -> AsymptoticVerdict:
    """Boundedness: norms below the hint (if given) and no growth trend in the
    least-squares log-slope of the tail norms above 1e-14 of the sup.  A tail
    that has decayed has no slope to fit: its witness holds ``log_slope =
    None`` and ``tail_decayed = True``, so that it stays finite JSON."""
    return _bounded(OrbitBlock.of([orb]), [0], bound_hint, tail_window).verdict()


def check_strongly_stable(orb: OrbitSeries, tol: float = 1e-3,
                          tail_window: Optional[float] = None) -> AsymptoticVerdict:
    """Strong stability: trailing mean norm small relative to the orbit scale
    and nonincreasing windowed means."""
    return _strongly_stable(OrbitBlock.of([orb]), [0], tol, tail_window).verdict()


def check_weakly_stable(orb: OrbitSeries, functionals: Sequence[np.ndarray],
                        tol: float = 1e-3,
                        tail_window: Optional[float] = None) -> AsymptoticVerdict:
    """Weak stability against a finite functional set (a sampled surrogate;
    never exhaustive, and reported as such)."""
    return _weakly_stable(OrbitBlock.of([orb]), [0], functionals, tol,
                          tail_window).verdict()


def check_mean_ergodic(orb: OrbitSeries, tol: float = 1e-2,
                       tail_window: Optional[float] = None) -> AsymptoticVerdict:
    """Cesaro convergence: means at the horizon, its half and its quarter agree."""
    return _mean_ergodic(OrbitBlock.of([orb]), [0], tol, tail_window).verdict()


def check_uniformly_ergodic(orb: OrbitSeries, window: float, tol: float = 1e-2,
                            tail_window: Optional[float] = None) -> AsymptoticVerdict:
    """Uniform Cesaro convergence of the shifted-orbit functions on [0, window]."""
    return _uniformly_ergodic(OrbitBlock.of([orb]), [0], window, tol,
                              tail_window).verdict()


def cesaro_residual_track(orb: OrbitSeries) -> np.ndarray:
    """||M(t_k) - M(t_k/2)|| / ref for every k (plot data; zero where undefined)."""
    ref = float(np.max(orb.norms))
    out = np.zeros(orb.grid.count + 1)
    if ref == 0.0:
        return out
    cum = _cesaro_sums(OrbitBlock.of([orb]), 0)[0]
    ts = orb.grid.step * np.arange(orb.grid.count + 1)
    k = np.arange(2, orb.grid.count + 1)
    diff = cum[k] / ts[k, None]
    diff -= cum[k // 2] / ts[k // 2, None]
    out[2:] = orb.space.rows_norm(diff) / ref
    return out


# ---------------------------------------------------------------------------
# robustness experiment
# ---------------------------------------------------------------------------

#: RobustnessConfig settings that must be finite and positive
_POSITIVE_SETTINGS = ("horizon", "step", "tail_window", "uniform_window", "tol", "ergodic_tol")


class RobustnessConfig(Record):
    horizon: float = 60.0
    step: float = 0.01
    tail_window: float = 15.0
    bound_hint: Optional[float] = None
    tol: float = 1e-3
    ergodic_tol: float = 1e-2
    uniform_window: float = 2.0 * np.pi
    shifts: tuple = (5.0, 10.0)
    n_synthetic: int = 50
    seed: int = 42
    method: Method = DirectSolve()

    def __post_init__(self):
        for key in _POSITIVE_SETTINGS:
            value = getattr(self, key)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0.0):
                raise ConfigurationError(f"{key} must be a finite number > 0, got {value!r}")
            object.__setattr__(self, key, float(value))
        hint = self.bound_hint
        if hint is not None and not (isinstance(hint, numbers.Real) and math.isfinite(hint)
                                     and hint > 0.0):
            raise ConfigurationError(f"bound_hint must be null or a finite number > 0, "
                                     f"got {hint!r}")
        if not (isinstance(self.n_synthetic, numbers.Integral) and self.n_synthetic >= 0):
            raise ConfigurationError(
                f"n_synthetic must be an integer >= 0, got {self.n_synthetic!r}")
        object.__setattr__(self, "n_synthetic", int(self.n_synthetic))
        # the harness shifts orbits of the synthetic zoo
        shifts = tuple(self.shifts)
        if not all(isinstance(b, numbers.Real) and 0.0 <= b < SYNTHETIC_HORIZON
                   for b in shifts):
            raise ConfigurationError(
                f"shifts must be numbers in [0, {SYNTHETIC_HORIZON:g}), got {self.shifts!r}")
        object.__setattr__(self, "shifts", shifts)


class RobustnessReport(Record):
    property: str
    passes: bool
    per_probe: list
    biinvariance_violations: list
    n_synthetic: int


class ProbeTracks(Record):
    """Plot data of one probe: the norms and Cesaro residual tracks of its
    base and perturbed orbits."""
    base_norms: np.ndarray
    pert_norms: np.ndarray
    base_cesaro: np.ndarray
    pert_cesaro: np.ndarray


class AsymptoticsRun(Record):
    """What one ``asymptotics_run`` computes."""
    reports: Dict[str, RobustnessReport]  # one per distinct requested property
    tracks: List[ProbeTracks]  # one per probe, when requested


def _functionals_for(space_dim: int, count: int, seed: int) -> List[np.ndarray]:
    """The weak-stability functionals: up to three unit ones, then ``count``
    vectors of normals drawn from ``Draws(seed)``."""
    rng = Draws(seed)
    out = [np.eye(space_dim)[i] for i in range(min(space_dim, 3))]
    for _ in range(count):
        out.append(rng.standard_normal(space_dim))
    return out


def make_checker(prop: str, config: RobustnessConfig,
                 space_dim: int) -> Callable[[OrbitBlock, Sequence[int]], Cells]:
    """Checker with all thresholds pinned from the configuration:
    ``checker(block, starts)`` decides every orbit of a block from every start
    index in one pass.  The trailing window is absolute so the checker family
    is translation-biinvariant."""
    w = config.tail_window
    if prop == "BOUNDED":
        return partial(_bounded, bound_hint=config.bound_hint, tail_window=w)
    if prop == "STRONGLY_STABLE":
        return partial(_strongly_stable, tol=config.tol, tail_window=w)
    if prop == "WEAKLY_STABLE":
        phis = _functionals_for(space_dim, FUNCTIONAL_COUNT, FUNCTIONAL_SEED)
        return partial(_weakly_stable, functionals=phis, tol=config.tol, tail_window=w)
    if prop == "MEAN_ERGODIC":
        return partial(_mean_ergodic, tol=config.ergodic_tol, tail_window=w)
    if prop == "UNIFORMLY_ERGODIC":
        return partial(_uniformly_ergodic, window=config.uniform_window,
                       tol=config.ergodic_tol, tail_window=w)
    raise ConfigurationError(f"unknown property {prop!r}")


def _shift_start(grid: Grid, b: float) -> int:
    """Index of the first sample left by a shift of b seconds."""
    k = grid.index_of(b)
    if k >= grid.count:
        raise DomainError("shift removes the entire orbit")
    return k


def synthetic_orbits(count: int, grid: Grid, seed: int = 42) -> Iterator[OrbitSeries]:
    """Deterministic zoo of sampled orbit shapes: decays, bumps, constants,
    rotations, slow growth, damped oscillations, hard cutoffs, offsets.

    Each orbit's amplitude and rates are uniforms drawn in turn from
    ``Draws(seed)``.  The orbits are yielded one at a time, so a single pass
    over the zoo never holds all of it."""
    rng = Draws(seed)
    t = grid.points()
    for i in range(count):
        kind = i % 8
        a = float(rng.uniform(0.5, 2.0))
        states = np.zeros((t.shape[0], SYNTHETIC_DIM))
        if kind == 0:
            r = rng.uniform(0.1, 0.6)
            states[:, 0] = a * np.exp(-r * t)
            states[:, 1] = 0.4 * a * np.exp(-r * t)
        elif kind == 1:  # transient bump, then decay
            tau = rng.uniform(1.0, 4.0)
            r = rng.uniform(0.2, 0.6)
            states[:, 0] = a * (t / tau) * np.exp(-r * t)
            states[:, 1] = 0.1 * a * np.exp(-r * t)
        elif kind == 2:
            states[:, 0] = a
            states[:, 1] = 0.5 * a
        elif kind == 3:
            w = rng.uniform(0.5, 2.0)
            states[:, 0] = a * np.cos(w * t)
            states[:, 1] = a * np.sin(w * t)
        elif kind == 4:
            g = rng.uniform(0.03, 0.08)
            states[:, 0] = a * np.exp(g * t)
        elif kind == 5:
            r = rng.uniform(0.1, 0.4)
            w = rng.uniform(1.0, 3.0)
            states[:, 0] = a * np.exp(-r * t) * np.cos(w * t)
            states[:, 1] = a * np.exp(-r * t) * np.sin(w * t)
        elif kind == 6:  # exact cutoff (nilpotent-like)
            t0 = rng.uniform(3.0, 0.4 * grid.end)
            states[:, 0] = a * (t < t0)
        else:  # constant plus transient
            r = rng.uniform(0.3, 1.0)
            states[:, 0] = a * (0.5 + np.exp(-r * t))
        yield orbit_from_states(grid, states, StateVector.sup(states[0]).space)


def _blocks(orbits: Iterable[OrbitSeries]) -> Iterator[Tuple[int, OrbitBlock]]:
    """Blocks of HARNESS_BLOCK consecutive orbits (the last may be shorter),
    each with the index of its first orbit."""
    stream, first = iter(orbits), 0
    while run := list(islice(stream, HARNESS_BLOCK)):
        yield first, OrbitBlock.of(run)
        first += len(run)


def biinvariance_harness(checkers: Dict[str, Callable[[OrbitBlock, Sequence[int]], Cells]],
                         orbits: Iterable[OrbitSeries],
                         shifts: Sequence[float]) -> List[dict]:
    """Check shifted-PASS => full-PASS for every checker on every orbit.

    ``orbits``, on one grid and in one space, is read once, in blocks of
    HARNESS_BLOCK orbits, so it may be a stream; each checker decides a
    block's orbits and all their shifts in one pass.  Violations are listed
    by checker, then orbit, then shift."""
    found = {name: [] for name in checkers}
    for first, block in _blocks(orbits):
        starts = [0] + [_shift_start(block.grid, b) for b in shifts]
        for name, ch in checkers.items():
            codes = ch(block, starts).codes
            # (orbit, shift) pairs, by orbit, whose shift passes and full does not
            bad = (codes[1:] == "PASS") & (codes[0] != "PASS")
            for i, s in np.argwhere(bad.T):
                found[name].append({"checker": name, "orbit": first + int(i),
                                    "shift": shifts[s], "shifted": "PASS",
                                    "full": str(codes[0, i])})
    return [v for name in checkers for v in found[name]]


def _harness_violations(config: RobustnessConfig) -> List[dict]:
    """The biinvariance harness of every checker on the seeded synthetic zoo,
    a block of HARNESS_BLOCK synthetic orbits alive at a time."""
    sgrid = Grid(0.0, SYNTHETIC_STEP, int(round(SYNTHETIC_HORIZON / SYNTHETIC_STEP)))
    zoo = synthetic_orbits(config.n_synthetic, sgrid, seed=config.seed)
    # the harness tail window must fit inside every shifted orbit, otherwise
    # the "same trailing samples" structure of the checkers is lost
    max_shift = max(config.shifts) if config.shifts else 0.0
    syn_tail = min(config.tail_window, 0.5 * (SYNTHETIC_HORIZON - max_shift))
    syn_cfg = config._replace(tail_window=syn_tail)
    checkers = {p: make_checker(p, syn_cfg, 2) for p in PROPERTIES}
    return biinvariance_harness(checkers, zoo, config.shifts)


# overflow runs to inf or nan without numpy warnings: a caller that writes
# the verdicts or the tracks checks them and reports the failure once
@np.errstate(over="ignore", invalid="ignore")
def asymptotics_run(triple: PerturbationTriple, properties: Sequence[str],
                    probes: Sequence[StateVector],
                    config: RobustnessConfig = RobustnessConfig(),
                    tracks: bool = False) -> AsymptoticsRun:
    """Robustness reports for several properties, and optionally the plot
    tracks of every probe, from one harness run and one pair of orbits per
    probe.

    The biinvariance harness runs once, for the whole checker family, before
    any probe orbit is built.  Each probe's base and perturbed orbits are
    then built once, every requested checker decides the two in one pass,
    and only the plot tracks (when ``tracks``) outlive them.  The base orbit
    reads x as the perturbed routes do (``maps.free_orbit``).
    """
    for prop in properties:
        if prop not in PROPERTIES:
            raise ConfigurationError(f"unknown property {prop!r}")
    if not probes:
        raise ConfigurationError("empty probe set")
    violations = _harness_violations(config) if properties else []
    grid = Grid(0.0, config.step, int(round(config.horizon / config.step)))
    checkers = {p: make_checker(p, config, triple.base.space.dim) for p in properties}
    rows = {p: [] for p in checkers}
    plot = []
    for x in probes:
        base = free_orbit(triple, x, grid)
        pert = perturbed_orbit(triple, x, grid, method=config.method)
        block = OrbitBlock.of([base, pert])
        for prop, checker in checkers.items():
            cells = checker(block, [0])
            vb, vp = cells.verdict(0, 0), cells.verdict(0, 1)
            # a base PASS must survive the perturbation; a perturbed
            # INCONCLUSIVE counts against robustness
            ok = vb.verdict != "PASS" or vp.verdict == "PASS"
            rows[prop].append({"base": vb, "perturbed": vp, "ok": ok})
        del block  # and the Cesaro sums it holds
        if tracks:
            plot.append(ProbeTracks(base.norms, pert.norms,
                                    cesaro_residual_track(base),
                                    cesaro_residual_track(pert)))
        del base, pert
    reports = {p: RobustnessReport(p, all(r["ok"] for r in rs) and not violations,
                                   rs, list(violations), config.n_synthetic)
               for p, rs in rows.items()}
    return AsymptoticsRun(reports, plot)


def robustness_experiment(triple: PerturbationTriple, prop: str,
                          probes: Sequence[StateVector],
                          config: RobustnessConfig = RobustnessConfig()) -> RobustnessReport:
    """Run a checker on base and perturbed orbits of every probe; the report
    passes when every base-PASS probe also passes after the perturbation, and
    the checker family itself honours translation biinvariance on a synthetic
    orbit zoo.

    This is ``asymptotics_run`` for one property.  To check several
    properties, call ``asymptotics_run`` once: it runs the harness once and
    builds each probe's orbits once, with the same reports as one call here
    per property.
    """
    return asymptotics_run(triple, (prop,), probes, config).reports[prop]
