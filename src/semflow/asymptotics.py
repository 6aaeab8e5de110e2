"""Checkers for asymptotic orbit properties and the robustness harness.

Limits at t -> infinity are decided from tail statistics over a finite
horizon; INCONCLUSIVE is a first-class outcome whenever the decision margin
is thin.  Every threshold is relative to the orbit's own scale, so scaling an
orbit never changes a verdict.  Tail statistics can be pinned to an absolute
trailing window (``tail_window`` seconds): the window then consists of the
same samples for an orbit and its time-shifts, which makes the checkers
translation-biinvariant by construction -- the property the robustness theory
requires of an asymptotic subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from .core import Grid, StateVector
from .errors import ConfigurationError, DomainError
from .maps import DirectSolve, Method, PerturbationTriple, perturbed_orbit
from .semigroups import OrbitSeries, orbit, orbit_from_states

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


@dataclass(frozen=True)
class AsymptoticVerdict:
    property: str
    verdict: str  # "PASS" | "FAIL" | "INCONCLUSIVE"
    witness: dict


def _tail_start(orb: OrbitSeries, tail_window: Optional[float],
                tail_fraction: float) -> int:
    w = tail_window if tail_window is not None else tail_fraction * orb.grid.end
    m = max(1, int(round(min(w, orb.grid.end) / orb.grid.step)))
    return max(orb.grid.count - m, 0)


def _three_way(ratio: float, tol: float, extra_fail: bool = False) -> str:
    if extra_fail or ratio >= FAIL_FACTOR * tol:
        return "FAIL"
    if ratio <= tol:
        return "PASS"
    return "INCONCLUSIVE"


def check_bounded(orb: OrbitSeries, bound_hint: Optional[float] = None,
                  tail_window: Optional[float] = None) -> AsymptoticVerdict:
    """Boundedness: norms below the hint (if given) and no growth trend in the
    fitted log-slope of the tail.

    A tail that has already decayed to zero has no slope to fit: its witness
    holds ``log_slope = None`` and ``tail_decayed = True``, so that it stays
    finite JSON.
    """
    if orb.norms.shape[0] == 0:
        raise DomainError("empty orbit")
    ref = float(np.max(orb.norms))
    if ref == 0.0:
        return AsymptoticVerdict("BOUNDED", "PASS", {"sup": 0.0, "log_slope": None,
                                                     "tail_decayed": True})
    k0 = _tail_start(orb, tail_window, BOUNDED_TAIL_FRACTION)
    ts = orb.grid.points()[k0:]
    norms = orb.norms[k0:]
    mask = norms > 1e-14 * ref
    decayed = np.count_nonzero(mask) < 3
    slope = -np.inf if decayed else float(np.polyfit(ts[mask], np.log(norms[mask]), 1)[0])
    sup = float(np.max(orb.norms))
    witness = {"sup": sup, "log_slope": None if decayed else slope,
               "tail_decayed": bool(decayed), "bound_hint": bound_hint}
    hint_fail = bound_hint is not None and sup > 1.1 * bound_hint
    hint_pass = bound_hint is None or sup <= bound_hint
    if hint_fail or slope > FAIL_FACTOR * SLOPE_TOL:
        return AsymptoticVerdict("BOUNDED", "FAIL", witness)
    if hint_pass and slope <= SLOPE_TOL:
        return AsymptoticVerdict("BOUNDED", "PASS", witness)
    return AsymptoticVerdict("BOUNDED", "INCONCLUSIVE", witness)


def check_strongly_stable(orb: OrbitSeries, tol: float = 1e-3,
                          tail_window: Optional[float] = None) -> AsymptoticVerdict:
    """Strong stability: trailing mean norm small relative to the orbit scale
    and nonincreasing windowed means."""
    if orb.norms.shape[0] == 0:
        raise DomainError("empty orbit")
    ref = float(np.max(orb.norms))
    if ref == 0.0:
        return AsymptoticVerdict("STRONGLY_STABLE", "PASS", {"tail_ratio": 0.0})
    k0 = _tail_start(orb, tail_window, STABLE_TAIL_FRACTION)
    tail = orb.norms[k0:]
    ratio = float(np.mean(tail)) / ref
    chunks = np.array_split(tail, 4)
    means = [float(np.mean(c)) for c in chunks if c.size]
    noninc = all(means[i + 1] <= 1.05 * means[i] + 1e-15 * ref
                 for i in range(len(means) - 1))
    witness = {"tail_ratio": ratio, "window_means": means, "ref": ref}
    verdict = _three_way(ratio, tol, extra_fail=(not noninc and ratio > tol))
    return AsymptoticVerdict("STRONGLY_STABLE", verdict, witness)


def check_weakly_stable(orb: OrbitSeries, functionals: Sequence[np.ndarray],
                        tol: float = 1e-3,
                        tail_window: Optional[float] = None) -> AsymptoticVerdict:
    """Weak stability against a finite functional set (a sampled surrogate;
    never exhaustive, and reported as such)."""
    if not functionals:
        raise ConfigurationError("weak stability needs at least one functional")
    k0 = _tail_start(orb, tail_window, STABLE_TAIL_FRACTION)
    worst = 0.0
    per = []
    for phi in functionals:
        phi = np.asarray(getattr(phi, "coords", phi), dtype=float).ravel()
        p = np.abs(orb.states @ phi)
        scale = float(np.max(p))
        r = float(np.mean(p[k0:])) / scale if scale > 0 else 0.0
        per.append(r)
        worst = max(worst, r)
    witness = {"worst_tail_ratio": worst, "per_functional": per,
               "surrogate": f"finite set of {len(functionals)} functionals"}
    return AsymptoticVerdict("WEAKLY_STABLE", _three_way(worst, tol), witness)


def _cumulative_means(orb: OrbitSeries, k0: int):
    """Running Cesaro means of the orbit restricted to indices >= k0."""
    states = orb.states[k0:]
    h = orb.grid.step
    cum = np.zeros_like(states)
    np.cumsum(0.5 * h * (states[1:] + states[:-1]), axis=0, out=cum[1:])
    ts = h * np.arange(states.shape[0])
    return cum, ts


def check_mean_ergodic(orb: OrbitSeries, tol: float = 1e-2,
                       tail_window: Optional[float] = None) -> AsymptoticVerdict:
    """Cesaro convergence: means at the horizon, its half and its quarter agree."""
    # feasibility first, so the verdict structure does not depend on the data
    # (keeps shifted-PASS => full-PASS intact for degenerate orbits)
    k0 = _tail_start(orb, tail_window, 1.0) if tail_window is not None else 0
    n = orb.grid.count - k0
    if n < 8:
        return AsymptoticVerdict("MEAN_ERGODIC", "INCONCLUSIVE",
                                 {"reason": "window too short"})
    ref = float(np.max(orb.norms))
    if ref == 0.0:
        return AsymptoticVerdict("MEAN_ERGODIC", "PASS",
                                 {"residual": 0.0, "limit_norm": 0.0})
    cum, ts = _cumulative_means(orb, k0)
    mean = lambda k: cum[k] / ts[k]
    limit = mean(n)
    res = max(orb.space.norm(mean(n) - mean(n // 2)),
              orb.space.norm(mean(n // 2) - mean(n // 4))) / ref
    witness = {"residual": float(res), "limit_norm": orb.space.norm(limit) ,
               "limit": limit}
    return AsymptoticVerdict("MEAN_ERGODIC", _three_way(res, tol), witness)


def check_uniformly_ergodic(orb: OrbitSeries, window: float, tol: float = 1e-2,
                            tail_window: Optional[float] = None) -> AsymptoticVerdict:
    """Uniform Cesaro convergence of the shifted-orbit functions on [0, window]."""
    # feasibility first, independent of the data (see check_mean_ergodic)
    k0 = _tail_start(orb, tail_window, 1.0) if tail_window is not None else 0
    n = orb.grid.count - k0
    wk = int(round(window / orb.grid.step))
    if n - wk < 8:
        return AsymptoticVerdict("UNIFORMLY_ERGODIC", "INCONCLUSIVE",
                                 {"reason": "window too short for the horizon"})
    ref = float(np.max(orb.norms))
    if ref == 0.0:
        return AsymptoticVerdict("UNIFORMLY_ERGODIC", "PASS", {"residual": 0.0})
    cum, ts = _cumulative_means(orb, k0)
    T = n - wk
    Th = T // 2

    def shifted_means(tn):
        return (cum[tn: tn + wk + 1] - cum[: wk + 1]) / (tn * orb.grid.step)

    d = shifted_means(T) - shifted_means(Th)
    res = float(np.max(orb.space.rows_norm(d))) / ref
    sup_limit = np.max(orb.space.rows_norm(shifted_means(T)))
    witness = {"residual": float(res), "limit_sup_norm": float(sup_limit)}
    return AsymptoticVerdict("UNIFORMLY_ERGODIC", _three_way(res, tol), witness)


def cesaro_residual_track(orb: OrbitSeries) -> np.ndarray:
    """||M(t_k) - M(t_k/2)|| / ref for every k (plot data; zero where undefined)."""
    ref = float(np.max(orb.norms))
    cum, ts = _cumulative_means(orb, 0)
    out = np.zeros(orb.grid.count + 1)
    if ref == 0.0:
        return out
    k = np.arange(2, orb.grid.count + 1)
    diff = cum[k] / ts[k, None]
    diff -= cum[k // 2] / ts[k // 2, None]
    out[2:] = orb.space.rows_norm(diff) / ref
    return out


# ---------------------------------------------------------------------------
# robustness experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RobustnessConfig:
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


@dataclass(frozen=True)
class RobustnessReport:
    property: str
    passes: bool
    per_probe: list
    biinvariance_violations: list
    n_synthetic: int


@dataclass(frozen=True)
class ProbeTracks:
    """Plot data of one probe: the norms and Cesaro residual tracks of its
    base and perturbed orbits."""
    base_norms: np.ndarray
    pert_norms: np.ndarray
    base_cesaro: np.ndarray
    pert_cesaro: np.ndarray


@dataclass(frozen=True)
class AsymptoticsRun:
    """What one ``asymptotics_run`` computes."""
    reports: Dict[str, RobustnessReport]  # one per distinct requested property
    tracks: List[ProbeTracks]  # one per probe, when requested


def _functionals_for(space_dim: int, count: int, seed: int) -> List[np.ndarray]:
    rng = np.random.default_rng(seed)
    out = [np.eye(space_dim)[i] for i in range(min(space_dim, 3))]
    for _ in range(count):
        out.append(rng.standard_normal(space_dim))
    return out


def make_checker(prop: str, config: RobustnessConfig,
                 space_dim: int) -> Callable[[OrbitSeries], AsymptoticVerdict]:
    """Checker with all thresholds pinned from the configuration; the trailing
    window is absolute so the checker family is translation-biinvariant."""
    w = config.tail_window
    if prop == "BOUNDED":
        return lambda o: check_bounded(o, bound_hint=config.bound_hint, tail_window=w)
    if prop == "STRONGLY_STABLE":
        return lambda o: check_strongly_stable(o, tol=config.tol, tail_window=w)
    if prop == "WEAKLY_STABLE":
        phis = _functionals_for(space_dim, FUNCTIONAL_COUNT, FUNCTIONAL_SEED)
        return lambda o: check_weakly_stable(o, phis, tol=config.tol, tail_window=w)
    if prop == "MEAN_ERGODIC":
        return lambda o: check_mean_ergodic(o, tol=config.ergodic_tol, tail_window=w)
    if prop == "UNIFORMLY_ERGODIC":
        return lambda o: check_uniformly_ergodic(o, window=config.uniform_window,
                                                 tol=config.ergodic_tol, tail_window=w)
    raise ConfigurationError(f"unknown property {prop!r}")


def shift_orbit(orb: OrbitSeries, b: float) -> OrbitSeries:
    """Left time-shift: drop the first b seconds of the sampled orbit."""
    k = orb.grid.index_of(b)
    if k >= orb.grid.count:
        raise DomainError("shift removes the entire orbit")
    return OrbitSeries(Grid(0.0, orb.grid.step, orb.grid.count - k),
                       orb.states[k:], orb.norms[k:], orb.space)


def synthetic_orbits(count: int, grid: Grid, seed: int = 42) -> Iterator[OrbitSeries]:
    """Deterministic zoo of sampled orbit shapes: decays, bumps, constants,
    rotations, slow growth, damped oscillations, hard cutoffs, offsets.

    The orbits are yielded one at a time, so a single pass over the zoo
    never holds all of it."""
    rng = np.random.default_rng(seed)
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


def biinvariance_harness(checkers: Dict[str, Callable], orbits: Iterable[OrbitSeries],
                         shifts: Sequence[float]) -> List[dict]:
    """Check shifted-PASS => full-PASS for every checker on every orbit.

    ``orbits`` is read once, each orbit by every checker in turn, so it may
    be a stream; violations are listed by checker, then orbit, then shift."""
    found = {name: [] for name in checkers}
    for i, orb in enumerate(orbits):
        shifted = [(b, shift_orbit(orb, b)) for b in shifts]
        for name, ch in checkers.items():
            full = ch(orb)
            for b, sh in shifted:
                v = ch(sh)
                if v.verdict == "PASS" and full.verdict != "PASS":
                    found[name].append({"checker": name, "orbit": i, "shift": b,
                                        "shifted": v.verdict, "full": full.verdict})
    return [v for name in checkers for v in found[name]]


def _harness_violations(config: RobustnessConfig) -> List[dict]:
    """The biinvariance harness of every checker on the seeded synthetic zoo,
    streamed: one synthetic orbit is alive at a time."""
    sgrid = Grid(0.0, SYNTHETIC_STEP, int(round(SYNTHETIC_HORIZON / SYNTHETIC_STEP)))
    zoo = synthetic_orbits(config.n_synthetic, sgrid, seed=config.seed)
    # the harness tail window must fit inside every shifted orbit, otherwise
    # the "same trailing samples" structure of the checkers is lost
    max_shift = max(config.shifts) if config.shifts else 0.0
    syn_tail = min(config.tail_window, 0.5 * (SYNTHETIC_HORIZON - max_shift))
    syn_cfg = replace(config, tail_window=syn_tail)
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
    then built once, every requested checker reads them, and only the plot
    tracks (when ``tracks``) outlive them.
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
        base = orbit(triple.base, x, grid)
        pert = perturbed_orbit(triple, x, grid, method=config.method)
        for prop, checker in checkers.items():
            vb, vp = checker(base), checker(pert)
            # a base PASS must survive the perturbation; a perturbed
            # INCONCLUSIVE counts against robustness
            ok = vb.verdict != "PASS" or vp.verdict == "PASS"
            rows[prop].append({"base": vb, "perturbed": vp, "ok": ok})
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
