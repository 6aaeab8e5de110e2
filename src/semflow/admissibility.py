"""Sampled estimation and certification of admissibility constants.

All estimates are maxima over finite probe/signal sets and grid times, hence
lower bounds of the true suprema; they are reported as such.  Verdicts attach
a horizon-doubling stability test: a supremum over t > 0 is accepted as finite
when doubling the horizon moves the estimate by less than 5 percent.

B_t, C_t, F_t and (I - F_t)^{-1} are causal and the signals zero-extended, so
the test reads the [0, T] estimates as prefixes of one pass over [0, 2T].  One
contraction estimate of ||F_2T|| >= ||F_T|| per run, its probes drawn with
``io_probe_seed`` (the CLI passes the run's seed), gates every Neumann solve
and enters ``io_norm_est``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .core import Grid, InputSignal, StateVector, opnorm_sup, row_sup, time_grid
from .errors import ConfigurationError, DomainError, GridAlignmentError, PreconditionError
from .maps import (BoundedControl, DirectSolve, IdentityControl, Method,
                   NeutralBoundaryControl, PerturbationTriple, _apply_io,
                   _io_exp, estimate_io_norm, invert_io, observation_map)
from .semigroups import Semigroup, _sliding_l1, orbit

STABILITY_REL_CHANGE = 0.05
RATIO_FLOOR = 1e-12


@dataclass(frozen=True)
class AdmissibilityReport:
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
        return {
            "schema_version": 1,
            "m_b_est": self.m_b_est,
            "m_c_est": self.m_c_est,
            "m_bc_est": self.m_bc_est,
            "io_norm_est": self.io_norm_est,
            "sup_inv_obs_est": self.sup_inv_obs_est,
            "q_est": self.q_est,
            "horizon": self.horizon,
            "sample_counts": dict(self.sample_counts),
            "verdicts": {k: dict(v) for k, v in self.verdicts.items()},
        }


@dataclass(frozen=True)
class CheckResult:
    verdict: str  # "PASS" | "FAIL"
    details: dict


@dataclass(frozen=True)
class FavardEstimate:
    favard_norm: float
    probe_grid: Grid
    argmax_t: float


def probe_signals(triple: PerturbationTriple, grid: Grid, count: int,
                  seed: int = 0) -> List[InputSignal]:
    """Smooth seeded signals vanishing at both endpoints (the dense class on
    which the control-map bounds are stated)."""
    rng = np.random.default_rng(seed)
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


def _control_track_norms(triple: PerturbationTriple, u: InputSignal) -> np.ndarray:
    """State norms of the left-endpoint control map B_t u for every grid t."""
    from . import _kernels

    h = u.grid.step
    e = _io_exp(triple, h)
    if isinstance(triple.control, (BoundedControl, IdentityControl)):
        return row_sup(_kernels.matrix_volterra_apply(e, triple.b_matrix, None, u.values, h))
    if isinstance(triple.control, NeutralBoundaryControl):
        d = triple.base.parts[0].space.dim
        N = triple.base.parts[1].grid.count
        u2 = u.values[:, d:]
        bt1 = _kernels.matrix_volterra_apply(e, np.eye(d), None, u.values[:, :d], h)
        q = np.concatenate([np.zeros((N + 1, d)), u2[1:]])
        return row_sup(bt1) + _sliding_l1(row_sup(q)[: u.grid.count + N], N, h)
    # boundary translation: the control map places the signal on [-t, 0]
    N = triple.base.grid.count
    q = np.concatenate([np.zeros(N + 1), u.values[1:, 0]])
    return _sliding_l1(np.abs(q)[: u.grid.count + N], N, h)


def _worst(values) -> float:
    """The largest of ``values`` (0 if there are none), nan if any is nan:
    an estimate that overflowed must reach the report, where the builtin
    ``max`` would drop a nan that is not its first argument."""
    return float(np.max(values, initial=0.0))


def _ratio_track(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # 0 where den is at the floor; a nan denominator is kept, so that its
    # nan ratio reaches the maximum
    return np.divide(num, den, out=np.zeros_like(num), where=~(den <= RATIO_FLOOR))


def _max_ratio(num: np.ndarray, den: np.ndarray) -> float:
    return _worst(_ratio_track(num, den))


def _worst_tracks(triple, probes, signals, grid, method, est):
    """Worst ratios so far, over the signals or probes, at every time of
    ``grid``: M_B, M_C, M_BC and the inverse observation (running_l1 is
    nondecreasing, so the last two are maxima over [0, t_k] already); and the
    worst ||F u|| / ||u|| over the whole grid.  np.maximum keeps a nan."""
    e = _io_exp(triple, grid.step)
    m_b = m_c = m_bc = inv = np.zeros(grid.count + 1)
    io_ratio = []
    for u in signals:
        uu = _extend_signal(u, grid)
        run_u = uu.running_l1()
        m_b = np.maximum(m_b, _ratio_track(_control_track_norms(triple, uu), run_u))
        fu = InputSignal(grid, _apply_io(triple, uu.values, grid.step, e), triple.u_space)
        m_bc = np.maximum(m_bc, _ratio_track(fu.running_l1(), run_u))
        if run_u[-1] > RATIO_FLOOR:
            io_ratio.append(fu.l1_norm() / uu.l1_norm())
    for x in probes:
        nx = x.norm()
        if nx <= RATIO_FLOOR:
            continue
        v = observation_map(triple, grid.end, x, step=grid.step)
        m_c = np.maximum(m_c, v.running_l1() / nx)
        w = invert_io(triple, grid.end, v, method, contraction_estimate=est)
        inv = np.maximum(inv, w.running_l1() / nx)
    return (m_b, m_c, m_bc, inv), _worst(io_ratio)


# overflow runs to inf or nan without numpy warnings: a non-finite estimate
# reaches the report, and the CLI refuses to write it
@np.errstate(over="ignore", invalid="ignore")
def estimate_constants(triple: PerturbationTriple, probes: Sequence[StateVector],
                       signals: Sequence[InputSignal], horizon: float,
                       step: Optional[float] = None,
                       method: Method = DirectSolve(),
                       io_probe_seed: int = 0) -> AdmissibilityReport:
    """Estimate the admissibility constants of the triple over [0, horizon].

    Estimates are maxima over the probe states / input signals (lower bounds
    of the true constants); the verdicts record contraction of the
    input-output map and horizon-doubling stability of the suprema.  The
    maps run once, on [0, 2 horizon], and the [0, horizon] values are their
    prefixes; one ``estimate_io_norm`` over [0, 2 horizon], drawn with
    ``io_probe_seed``, gates every Neumann solve and enters ``io_norm_est``.
    """
    if not probes:
        raise ConfigurationError("estimate_constants needs a nonempty probe set")
    if not signals:
        raise ConfigurationError("estimate_constants needs a nonempty signal set")
    h = step if step is not None else triple.default_step()
    if h is None:
        h = signals[0].grid.step
    n1 = time_grid(horizon, h).count
    grid = time_grid(2.0 * horizon, h)
    est = estimate_io_norm(triple, 2.0 * horizon, step=h, seed=io_probe_seed)
    tracks, io_ratio = _worst_tracks(triple, probes, signals, grid, method, est)
    m_b2, m_c2, m_bc2, inv2 = (_worst(t) for t in tracks)
    m_b1, inv1 = (_worst(tracks[i][: n1 + 1]) for i in (0, 3))
    io_norm = _worst([io_ratio, est])

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


def favard_norm(sg: Semigroup, x: StateVector, probe_grid: Grid) -> FavardEstimate:
    """max over the probe grid of ||(T(t)x - x)/t|| (difference-quotient norm).

    Refining the probe grid toward 0 can only increase the estimate; for
    matrix semigroups the small-t limit is ||A x||.
    """
    if probe_grid.start <= 0.0:
        raise DomainError("Favard probes must have t > 0")
    best = 0.0
    arg = probe_grid.start
    for t in probe_grid.points():
        val = sg.space.norm((sg.apply_coords(t, x.coords) - x.coords) / t)
        if val > best:
            best, arg = val, t
    return FavardEstimate(best, probe_grid, arg)


def _log_linear_fit(ts, norms):
    mask = norms > 1e-300
    t = ts[mask]
    y = np.log(norms[mask])
    if t.shape[0] < 3:
        return -np.inf, 1.0
    A = np.stack([t, np.ones_like(t)], axis=1)
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(res[0]) if res.size else float(np.sum((A @ coef - y) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


def check_desch_schappacher(triple: PerturbationTriple, probes: Sequence[StateVector],
                            omega: float, m: float = 1.0, horizon: float = 40.0,
                            step: float = 2.5e-4, n_terms: int = 20,
                            term_tol: float = 1e-8) -> CheckResult:
    """Bounded-control perturbation check over an exponentially stable base.

    Verifies the hypothesis ||T(t)|| <= M exp(-omega t) by a log-linear fit
    (R^2 >= 0.99 required), then checks rho = m ||B|| / omega < 1 together
    with the term-by-term geometric domination of the Neumann series applied
    to the orbit signals:

        ||F^n [T(.)x]||_1 <= rho^n (M/omega) ||x||,
        sum_n ||F^n [T(.)x]||_1 <= M / (omega - m ||B||) ||x||.

    The constant m (Favard-norm equivalence of the extrapolated action) has no
    constructive recipe; it is exposed as configuration with default 1.
    """
    if not isinstance(triple.control, BoundedControl):
        raise ConfigurationError("the Desch-Schappacher check requires a bounded B")
    if not np.allclose(triple.observe, np.eye(triple.base.space.dim)):
        raise ConfigurationError("the Desch-Schappacher check is stated for C = Id")
    if not probes:
        raise ConfigurationError("empty probe set")
    grid = time_grid(horizon, step)
    ts = grid.points()
    m_est = 1.0
    orbits = []
    for x in probes:
        orb = orbit(triple.base, x, grid)
        orbits.append(orb)
        slope, r2 = _log_linear_fit(ts, orb.norms)
        if r2 < 0.99 or slope > -omega * (1.0 - 1e-9):
            raise PreconditionError(
                "base semigroup is not exponentially stable at the requested rate",
                measured_rate=-slope, r_squared=r2, requested=omega)
        m_est = max(m_est, _max_ratio(orb.norms * np.exp(omega * ts),
                                      np.full_like(ts, x.norm())))
    b_norm = opnorm_sup(triple.control.matrix)
    rho = m * b_norm / omega
    e = _io_exp(triple, step)
    per_probe = []
    ok = rho < 1.0
    for x, orb in zip(probes, orbits):
        nx = x.norm()
        term = orb.states
        norms = []
        margins = []
        for n in range(n_terms + 1):
            tn = InputSignal(grid, term, triple.u_space).l1_norm()
            bound = (rho ** n) * (m_est / omega) * nx
            norms.append(tn)
            margins.append(bound + term_tol - tn)
            if tn > bound + term_tol:
                ok = False
            term = _apply_io(triple, term, step, e)
        total = float(np.sum(norms))
        total_bound = m_est / (omega - m * b_norm) * nx if rho < 1.0 else np.inf
        # the same additive slack as the per-term test covers the quadrature
        # overshoot of the n = 0 term when rho = 0 leaves no geometric headroom
        if total > total_bound + term_tol:
            ok = False
        per_probe.append({"term_norms": norms, "min_term_margin": float(np.min(margins)),
                          "total": total, "total_bound": float(total_bound)})
    details = {"rho": rho, "m_est": m_est, "b_norm": b_norm, "omega": omega,
               "m": m, "per_probe": per_probe}
    return CheckResult("PASS" if ok else "FAIL", details)
