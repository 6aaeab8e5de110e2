"""Sampled estimation and certification of admissibility constants.

All estimates but ``io_norm_est`` are maxima over finite probe/signal sets and
grid times, hence lower bounds of the true suprema, reported as such.
Verdicts attach a horizon-doubling stability test: a supremum over t > 0 is
accepted as finite when doubling the horizon moves the estimate by less than
5 percent.

B_t, C_t, F_t and (I - F_t)^{-1} are causal and the signals zero-extended, so
the test reads the [0, T] estimates as prefixes of one pass over [0, 2T].
``io_norm_est`` is the upper bound ``estimate_io_norm`` of ||F_2T|| >= ||F_T||
on signals with u(0) = 0; computed once per run, it gates every Neumann solve.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .core import Draws, Grid, InputSignal, Record, StateVector, time_grid
from .errors import ConfigurationError, GridAlignmentError
from .maps import (DirectSolve, IdentityControl, Method, PerturbationTriple,
                   Realization, _compose, _realize, estimate_io_norm, invert_io,
                   observation_map)
from .semigroups import _free_parts, _norms

STABILITY_REL_CHANGE = 0.05
RATIO_FLOOR = 1e-12


class AdmissibilityReport(Record):
    m_b_est: float
    m_c_est: float
    m_bc_est: float
    io_norm_est: float
    sup_inv_obs_est: float
    q_est: Optional[float]
    horizon: float
    sample_counts: dict
    verdicts: dict

    def to_dict(self) -> dict:
        return {"schema_version": 1, **self._asdict()}


class CheckResult(Record):
    verdict: str  # "PASS" | "FAIL"
    details: dict


def probe_signals(triple: PerturbationTriple, grid: Grid, count: int,
                  seed: int = 0) -> List[InputSignal]:
    """Smooth seeded signals vanishing at both endpoints (the dense class on
    which the control-map bounds are stated): tapered, smoothed normals
    drawn from ``Draws(seed)``, one (grid.count + 1, u_dim) array per signal."""
    rng = Draws(seed)
    n1 = grid.count + 1
    taper = np.sin(np.pi * np.arange(n1) / max(n1 - 1, 1)) ** 2
    out = []
    for _ in range(count):
        raw = rng.standard_normal((n1, triple.u_dim))
        for _ in range(3):  # cheap smoothing
            raw[1:-1] = 0.25 * raw[:-2] + 0.5 * raw[1:-1] + 0.25 * raw[2:]
        out.append(InputSignal(grid, raw * taper[:, None], triple.u_space))
    return out


def _extend_signal(u: InputSignal, grid: Grid) -> InputSignal:
    """Zero-extension of a signal to a grid with the same step, no shorter."""
    if abs(u.grid.step - grid.step) > 1e-12 * grid.step or u.grid.count > grid.count:
        raise GridAlignmentError(f"signals need step {grid.step} and to end by t = {grid.end}")
    vals = np.zeros((grid.count + 1, u.values.shape[1]))
    vals[: u.grid.count + 1] = u.values
    return InputSignal(grid, vals, u.point_space)


def _control_track_norms(triple: PerturbationTriple, u: InputSignal,
                         r: Realization) -> np.ndarray:
    """State norms of the left-endpoint control map B_t u for every grid t:
    the compose step from the zero state, whose free parts need no scan and
    take the exp(hA) of ``r``, the realization at u's step, its rows never
    assembled."""
    free = _free_parts(triple.base, np.zeros(triple.base.space.dim), u.grid, r.e)
    return _norms(triple.base, u.grid, *_compose(r, free, u.values, u.grid))


def _worst(values) -> float:
    """The largest of ``values`` (0 if there are none), nan if any is nan:
    an estimate that overflowed must reach the report, where the builtin
    ``max`` would drop a nan that is not its first argument."""
    return float(np.max(values, initial=0.0))


def _ratio_track(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # 0 where den is at the floor; a nan denominator is kept, so that its
    # nan ratio reaches the maximum
    return np.divide(num, den, out=np.zeros_like(num), where=~(den <= RATIO_FLOOR))


def _worst_tracks(triple, probes, signals, grid, method, est):
    """Worst ratios so far, over the signals or probes, at every time of
    ``grid``: M_B, M_C, M_BC and the inverse observation (running_l1 is
    nondecreasing, so the last two are maxima over [0, t_k] already).
    np.maximum keeps a nan."""
    r = _realize(triple, grid.step)
    m_b = m_c = m_bc = inv = np.zeros(grid.count + 1)
    for u in signals:
        uu = _extend_signal(u, grid)
        run_u = uu.running_l1()
        m_b = np.maximum(m_b, _ratio_track(_control_track_norms(triple, uu, r), run_u))
        fu = InputSignal(grid, r.apply(uu.values), triple.u_space)
        m_bc = np.maximum(m_bc, _ratio_track(fu.running_l1(), run_u))
    for x in probes:
        nx = x.norm()
        if nx <= RATIO_FLOOR:
            continue
        v = observation_map(triple, grid.end, x, step=grid.step)
        m_c = np.maximum(m_c, v.running_l1() / nx)
        w = invert_io(triple, grid.end, v, method, contraction_estimate=est)
        inv = np.maximum(inv, w.running_l1() / nx)
    return m_b, m_c, m_bc, inv


# overflow runs to inf or nan without numpy warnings: a non-finite estimate
# reaches the report, and the CLI refuses to write it
@np.errstate(over="ignore", invalid="ignore")
def estimate_constants(triple: PerturbationTriple, probes: Sequence[StateVector],
                       signals: Sequence[InputSignal], horizon: float,
                       method: Method = DirectSolve()) -> AdmissibilityReport:
    """Estimate the admissibility constants of the triple over [0, horizon],
    on the time grid of the signals' step.

    Estimates are maxima over the probe states / input signals (lower bounds
    of the true constants); the verdicts record contraction of the
    input-output map and horizon-doubling stability of the suprema.  The
    maps run once, on [0, 2 horizon], and the [0, horizon] values are their
    prefixes; one ``estimate_io_norm`` over [0, 2 horizon], an upper bound,
    gates every Neumann solve and is ``io_norm_est``.
    """
    if not probes:
        raise ConfigurationError("estimate_constants needs a nonempty probe set")
    if not signals:
        raise ConfigurationError("estimate_constants needs a nonempty signal set")
    h = signals[0].grid.step
    n1 = time_grid(horizon, h).count
    grid = time_grid(2.0 * horizon, h)
    io_norm = estimate_io_norm(triple, 2.0 * horizon, step=h)
    tracks = _worst_tracks(triple, probes, signals, grid, method, io_norm)
    m_b2, m_c2, m_bc2, inv2 = (_worst(t) for t in tracks)
    m_b1, inv1 = (_worst(tracks[i][: n1 + 1]) for i in (0, 3))

    def stability(a, b):
        # a non-finite estimate at 2T makes rel nan or inf, hence FAIL
        rel = abs(b - a) / max(abs(a), RATIO_FLOOR)
        return {"verdict": "PASS" if rel < STABILITY_REL_CHANGE else "FAIL",
                "rel_change": rel}

    verdicts = {
        "infinite_time_control": stability(m_b1, m_b2),
        "uniform_inverse_observation": stability(inv1, inv2),
        "io_contraction": {"verdict": "PASS" if io_norm < 1.0 else "FAIL",
                           "margin": 1.0 - io_norm},
    }
    return AdmissibilityReport(
        m_b_est=m_b2, m_c_est=m_c2, m_bc_est=m_bc2, io_norm_est=io_norm,
        sup_inv_obs_est=inv2,
        q_est=m_c2 if isinstance(triple.control, IdentityControl) else None,
        horizon=horizon,
        sample_counts={"probes": len(probes), "signals": len(signals),
                       "time_points": grid.count + 1},
        verdicts=verdicts)


@np.errstate(over="ignore", invalid="ignore")
def check_miyadera_voigt(triple: PerturbationTriple, probes: Sequence[StateVector],
                         horizon: float, q_threshold: float,
                         step: Optional[float] = None) -> CheckResult:
    """Verify int_0^horizon ||C T(s) x|| ds <= q ||x|| on the probe set."""
    if not isinstance(triple.control, IdentityControl):
        raise ConfigurationError("the Miyadera-Voigt check requires B = Id")
    if not probes:
        raise ConfigurationError("empty probe set")
    ratios = []
    for x in probes:
        nx = x.norm()
        if nx <= RATIO_FLOOR:
            ratios.append(0.0)
            continue
        v = observation_map(triple, horizon, x, step=step)
        ratios.append(float(v.running_l1()[-1]) / nx)
    worst = _worst(ratios)
    ok = worst <= q_threshold < 1.0
    return CheckResult("PASS" if ok else "FAIL",
                       {"ratio": worst, "q_threshold": q_threshold,
                        "ratios": ratios, "horizon": horizon})
