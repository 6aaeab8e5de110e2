"""Sequential reference loops for the vectorized and blocked kernels, the
base orbits and maps, the measure row, the writers, the asymptotic checkers
and the robustness experiment, and the checks that no command runs.

They step each recurrence one sample at a time, and read the history one tap
at a time, exactly as the definitions in ``semflow._kernels``,
``semflow.semigroups`` and ``semflow.maps`` read; T(t) is applied at one time
by its definition (exp(tA), an exact shift of the samples); the measure row
is built one grid point at a time; the CSV oracles format every value of
every row; the checker oracles decide one orbit per call, the boundedness
slope fitted by np.polyfit; the robustness oracles build fresh orbits and a
fresh harness for one property; the io-norm oracle applies F, through the
kernel loops, to an impulse at every step times every extreme point of the
point ball; the admissibility oracle evaluates every
constant afresh on [0, T] and on [0, 2T]; the translation example's closed
forms (boundary lifting, control map, control map by quadrature, measure
observation and total variation, input-output map) read the measure one
point or one lag at a time; the Desch-Schappacher check bounds the Neumann
terms of the orbit signals by a geometric series.  They serve only as test
oracles.
"""

import itertools
import warnings

import numpy as np

from semflow import admissibility as adm
from semflow import asymptotics as asy
from semflow import neutral as nt
from semflow.core import Grid, InputSignal, L1Space, StateVector, matexp, time_grid
from semflow.errors import DimensionError, DomainError, GridAlignmentError, SemflowError
from semflow.maps import (DirichletControl, IdentityControl, Neumann,
                          NeutralBoundaryControl, _realize, estimate_io_norm,
                          invert_io, observation_map, perturbed_orbit)
from semflow.semigroups import BlockDiag, MatrixSemigroup, OrbitSeries, orbit
from semflow.translation import MeasureSpec
from helpers import scalar_signal


def semigroup_apply(sg, t, coords):
    """T(t) at one time t >= 0, block by block: exp(tA), or the grid samples
    moved left by t/h points, where those past the right end (s = 0 for
    t > 0) read zero, so that the nilpotent shift vanishes at t >= 1."""
    coords = np.asarray(coords, dtype=float)
    if isinstance(sg, BlockDiag):
        pieces = sg.space.split(coords)
        return np.concatenate([semigroup_apply(p, t, c) for p, c in zip(sg.parts, pieces)])
    if isinstance(sg, MatrixSemigroup):
        return matexp(sg.a, t) @ coords  # exp(0 A) = I exactly
    m = sg.shift_count(t)
    vals = sg.space.values(coords)
    if m == 0:
        return vals.ravel().copy()
    out = np.zeros_like(vals)
    out[: max(vals.shape[0] - 1 - m, 0)] = vals[m:-1]
    return out.ravel()


def orbit_step_loop(sg, x, grid):
    """States T(t_k) x, each the previous one advanced by T(h)."""
    states = np.empty((grid.count + 1, sg.space.dim))
    c = np.array(x.coords, dtype=float)
    states[0] = c
    for k in range(grid.count):
        c = semigroup_apply(sg, grid.step, c)
        states[k + 1] = c
    return states


def observation_step_loop(triple, grid, x):
    """C T(t_k) x with the state stepped one sample at a time as the orbit
    route steps it: the matrix block by exp(hA), the history one point to
    the left with a zero entering at s = 0.  On the neutral base f(0) moves
    along as x(0); on the translation base it leaves the state at the first
    step, as the shift drops it."""
    base = triple.base
    if isinstance(base, MatrixSemigroup):
        mat, shift = base, None
    elif isinstance(base, BlockDiag):
        mat, shift = base.parts
    else:
        mat, shift = None, base
    d = mat.space.dim if mat is not None else 0
    e = matexp(mat.a, grid.step) if mat is not None else None
    keep = isinstance(triple.control, NeutralBoundaryControl)
    c = np.array(x.coords, dtype=float)
    vals = np.empty((grid.count + 1, triple.observe.shape[0]))
    for k in range(grid.count + 1):
        vals[k] = triple.observe @ c
        if d:
            c[:d] = e @ c[:d]
        if shift is not None:
            f = c[d:].reshape(-1, shift.point_dim)
            g = np.zeros_like(f)
            if keep:
                g[:-1] = f[1:]
            else:
                g[:-2] = f[1:-1]
            c[d:] = g.ravel()
    return vals


def control_map_loop(triple, k, u, rule):
    """B_{t_k} u: on the bounded and neutral variants the quadrature sum
    acc <- E acc + w_j B u_j one sample at a time, with the weights of
    ``rule`` ("trapezoid" or "left", the feedback loop's), and the placed
    channel one history point at a time; on the boundary variant the closed
    form, whatever the rule."""
    h = u.grid.step
    if isinstance(triple.control, DirichletControl):
        return boundary_control_closed_form(triple.control.spec, k * h, u,
                                            triple.base.grid).coords
    if k == 0:
        w = np.zeros(1)
    elif rule == "trapezoid":
        w = Grid(0.0, h, k).trapezoid_weights()
    else:
        w = np.full(k + 1, h)
        w[-1] = 0.0
    if isinstance(triple.control, NeutralBoundaryControl):
        a = triple.base.parts[0].a
        d = a.shape[0]
        b = np.eye(d)
        u1 = u.values[:, :d]
    else:
        a = triple.base.a
        b = _realize(triple, h).b
        u1 = u.values
    e = matexp(a, h)
    acc = np.zeros(a.shape[0])
    for j in range(k + 1):
        acc = e @ acc + w[j] * (b @ u1[j])
    if not isinstance(triple.control, NeutralBoundaryControl):
        return acc
    N = triple.base.parts[1].grid.count
    placed = np.zeros((N + 1, d))
    for i in range(N + 1):
        j = k + i - N
        if j >= 1:
            placed[i] = u.values[j, d:]
    return np.concatenate([acc, placed.ravel()])


def matrix_volterra_apply_loop(E, B, C, u, h):
    """(F u)_k = h C z_k with z_0 = 0 and z_{k+1} = E (z_k + B u_k)."""
    out = np.zeros((u.shape[0], C.shape[0]))
    z = np.zeros(E.shape[0])
    for k in range(u.shape[0]):
        out[k] = h * (C @ z)
        z = E @ (z + B @ u[k])
    return out


def matrix_volterra_solve_loop(E, B, C, v, h, y=None):
    """Forward substitution for (I - F) w = v from the state y (zero if
    omitted): w_k = v_k + C x_k and x_{k+1} = E (x_k + h B w_k); also
    returns the states x."""
    w = np.zeros_like(v)
    xs = np.zeros((v.shape[0], E.shape[0]))
    x = np.zeros(E.shape[0]) if y is None else y
    for k in range(v.shape[0]):
        xs[k] = x
        w[k] = v[k] + C @ x
        x = E @ (x + h * (B @ w[k]))
    return w, xs


def causal_scan_loop(M, f, z0):
    """z_0 = z0 and z_{k+1} = M z_k + f_k, one step at a time."""
    z = np.empty((f.shape[0], M.shape[0]))
    z[:1] = z0
    for k in range(f.shape[0] - 1):
        z[k + 1] = M @ z[k] + f[k]
    return z


def neutral_volterra_apply_loop(E, C, prow, krow, u1, u2, h):
    """Neutral F with zero initial data: out1_k = sum_i P_i X_{k+i} and
    out2_k = h C zc_k + sum_i K_i X_{k+i}, where X places u2 behind the
    zero history and zc_{k+1} = E (zc_k + u1_k)."""
    d = E.shape[0]
    N = prow.shape[0]
    n1 = u1.shape[0]
    X = np.zeros((n1 + N, d))
    X[N + 1:] = u2[1:]
    out1 = np.zeros((n1, d))
    out2 = np.zeros((n1, d))
    zc = np.zeros(d)
    for k in range(n1):
        for i in range(N):
            out1[k] += prow[i] @ X[k + i]
            out2[k] += krow[i] @ X[k + i]
        out2[k] += h * (C @ zc)
        zc = E @ (zc + u1[k])
    return out1, out2


def neutral_direct_solve_loop(E, C, prow, krow, v, h):
    """Forward substitution for (I - F) w = v on the neutral pair, zero
    initial data; w = (w1, w2) stacked as v is."""
    d = E.shape[0]
    N = prow.shape[0]
    n = v.shape[0] - 1
    X = np.zeros((n + N + 1, d))
    w1 = np.zeros((n + 1, d))
    w2 = np.zeros((n + 1, d))
    zc = np.zeros(d)
    for k in range(n + 1):
        a1 = np.zeros(d)
        a2 = np.zeros(d)
        for i in range(N):
            a1 += prow[i] @ X[k + i]
            a2 += krow[i] @ X[k + i]
        w1[k] = v[k, :d] + a1
        w2[k] = v[k, d:] + C @ (h * zc) + a2
        if k >= 1:
            X[N + k] = w2[k]
        zc = E @ (zc + w1[k])
    return np.hstack([w1, w2])


def delay_volterra_apply_loop(lag, u):
    """out_k = sum_{j=1}^{min(k, W)} lag_j u_{k-j}, one tap at a time."""
    W = lag.shape[0] - 1
    out = np.zeros(u.shape[0])
    for k in range(u.shape[0]):
        for j in range(1, min(k, W) + 1):
            out[k] += lag[j] * u[k - j]
    return out


def delay_volterra_solve_loop(lag, v, f=None):
    """Forward substitution w_k = v_k + sum_{j=1}^{W} lag_j w_{k-j}, where
    w_{-j} = f[W-j] is the history (zero if omitted)."""
    W = lag.shape[0] - 1
    w = np.zeros(v.shape[0])
    for k in range(v.shape[0]):
        acc = 0.0
        for j in range(1, W + 1):
            if k >= j:
                acc += lag[j] * w[k - j]
            elif f is not None:
                acc += lag[j] * f[W + k - j]
        w[k] = v[k] + acc
    return w


def neutral_feedback_step_loop(E, C, prow, krow, f0, y, h, n, v):
    """The neutral feedback loop one step at a time: with the window
    X[k:k+N], w1_k = v1_k + sum_i P_i X_{k+i}, w2_k = v2_k + sum_i K_i X_{k+i}
    + C z_k, X_{N+k} = w2_k for k >= 1, z_k = zy_k + h zc_k, zy_{k+1} = E zy_k,
    zy_0 = y and zc_{k+1} = E (zc_k + w1_k)."""
    d = E.shape[0]
    N = prow.shape[0]
    X = np.zeros((n + N + 1, d))
    X[: N + 1] = f0
    w1 = np.zeros((n + 1, d))
    w2 = np.zeros((n + 1, d))
    zs = np.zeros((n + 1, d))
    zy = np.array(y, dtype=float)
    zc = np.zeros(d)
    for k in range(n + 1):
        for r in range(d):
            s1 = 0.0
            s2 = 0.0
            for i in range(N):
                for c in range(d):
                    s1 += prow[i, r, c] * X[k + i, c]
                    s2 += krow[i, r, c] * X[k + i, c]
            w1[k, r] = s1 + v[k, r]
            w2[k, r] = s2 + v[k, d + r]
        zs[k] = zy + h * zc
        w2[k] += C @ zs[k]
        if k >= 1:
            X[N + k] = w2[k]
        zc = E @ (zc + w1[k])
        zy = E @ zy
    return w1, w2, zs, X


def mos_step_loop(E, C, prow, krow, f0, y, h, n):
    """Method of steps one step at a time: z_{k+1} = E z_k + h/2 (E g0 + g1)
    with g0, g1 the P reads of the windows at t_k and t_{k+1}, and
    X_{N+k+1} = C z_{k+1} + the K read of the window at t_{k+1}."""
    d = E.shape[0]
    N = prow.shape[0]
    X = np.zeros((n + N + 1, d))
    X[: N + 1] = f0
    zs = np.zeros((n + 1, d))
    z = np.array(y, dtype=float)
    zs[0] = z
    for k in range(n):
        g0 = np.zeros(d)
        g1 = np.zeros(d)
        a2 = np.zeros(d)
        for i in range(N):
            g0 += prow[i] @ X[k + i]
            g1 += prow[i] @ X[k + 1 + i]
            a2 += krow[i] @ X[k + 1 + i]
        z = E @ z + 0.5 * h * (E @ g0 + g1)
        X[N + k + 1] = C @ z + a2
        zs[k + 1] = z
    return zs, X


def io_apply_loop(triple, values, h):
    """Discrete F applied through the sequential kernel loops, with the
    realization's exp(hA), B and P and K rows."""
    if isinstance(triple.control, DirichletControl):
        return delay_volterra_apply_loop(triple.observe[0, ::-1], values[:, 0])[:, None]
    r = _realize(triple, h)
    if isinstance(triple.control, NeutralBoundaryControl):
        d = r.e.shape[0]
        rows = r.taps.transpose(0, 2, 1)
        return np.hstack(neutral_volterra_apply_loop(
            r.e, r.c[d:], rows[:, :d], rows[:, d:], values[:, :d], values[:, d:], h))
    return matrix_volterra_apply_loop(r.e, r.b, triple.observe, values, h)


def io_norm_extreme_points(triple, t, step):
    """The largest ||F u|| / ||u|| over the extreme points of the unit ball of
    the signals with u(0) = 0: an impulse at every step k = 1..n-1 (one at
    step n has no response) times every extreme point of the point ball,
    the sign vectors of (R^m, sup) or, on the neutral sup (+)_1 sup, the
    sign vectors of either half with the other half zero."""
    grid = time_grid(t, step)
    w = grid.trapezoid_weights()
    m = triple.u_dim

    def signs(n):
        return [np.array(x) for x in itertools.product((1.0, -1.0), repeat=n)]

    if isinstance(triple.control, NeutralBoundaryControl):
        d, zero = m // 2, np.zeros(m // 2)
        points = [np.concatenate(p) for x in signs(d) for p in ((x, zero), (zero, x))]
        cuts = [d]
    else:
        points, cuts = signs(m), []

    def l1(vals):
        point_norms = sum(np.max(np.abs(p), axis=1) for p in np.split(vals, cuts, axis=1))
        return float(w @ point_norms)

    best = 0.0
    for k in range(1, grid.count):
        for x in points:
            u = np.zeros((grid.count + 1, m))
            u[k] = x
            best = max(best, l1(io_apply_loop(triple, u, grid.step)) / l1(u))
    return best


def _constants_at_loop(triple, probes, signals, grid, method):
    """Every admissibility constant over one grid, each signal zero-extended
    to it; a Neumann solve is gated by a seed-0 estimate on that grid."""
    def max_ratio(num, den):
        mask = ~(den <= adm.RATIO_FLOOR)
        return float(np.max(num[mask] / den[mask], initial=0.0))

    r = _realize(triple, grid.step)
    m_b, m_bc = [], []
    for u in signals:
        uu = adm._extend_signal(u, grid) if u.grid.count < grid.count else u
        run_u = uu.running_l1()
        m_b.append(max_ratio(adm._control_track_norms(triple, uu, r), run_u))
        fu = InputSignal(grid, r.apply(uu.values), triple.u_space)
        m_bc.append(max_ratio(fu.running_l1(), run_u))
    m_c, sup_inv = [], []
    est = estimate_io_norm(triple, grid.end, step=grid.step) \
        if isinstance(method, Neumann) else None
    for x in probes:
        nx = x.norm()
        if nx <= adm.RATIO_FLOOR:
            continue
        v = observation_map(triple, grid.end, x, step=grid.step)
        m_c.append(float(v.running_l1()[-1]) / nx)
        w = invert_io(triple, grid.end, v, method, contraction_estimate=est)
        sup_inv.append(float(np.max(w.running_l1())) / nx)
    return tuple(float(np.max(v, initial=0.0)) for v in (m_b, m_c, m_bc, sup_inv))


@np.errstate(over="ignore", invalid="ignore")
def estimate_constants_two_pass(triple, probes, signals, horizon, step, method):
    """``admissibility.estimate_constants`` as two separate evaluations, one
    on [0, T] and one on [0, 2T], each with its own contraction estimate,
    and a third estimate at 2T for the reported io norm."""
    g1 = time_grid(horizon, step)
    g2 = time_grid(2.0 * horizon, step)
    m_b1, _, _, inv1 = _constants_at_loop(triple, probes, signals, g1, method)
    m_b2, m_c2, m_bc2, inv2 = _constants_at_loop(triple, probes, signals, g2, method)
    io_norm = estimate_io_norm(triple, 2.0 * horizon, step=step)

    def rel_change(a, b):
        return abs(b - a) / max(abs(a), adm.RATIO_FLOOR)

    stable = adm.STABILITY_REL_CHANGE
    verdicts = {
        "infinite_time_control": {
            "verdict": "PASS" if rel_change(m_b1, m_b2) < stable else "FAIL",
            "rel_change": rel_change(m_b1, m_b2)},
        "uniform_inverse_observation": {
            "verdict": "PASS" if np.isfinite(inv2) and rel_change(inv1, inv2) < stable
            else "FAIL",
            "rel_change": rel_change(inv1, inv2)},
        "io_contraction": {"verdict": "PASS" if io_norm < 1.0 else "FAIL",
                           "margin": 1.0 - io_norm},
    }
    return adm.AdmissibilityReport(
        m_b_est=m_b2, m_c_est=m_c2, m_bc_est=m_bc2, io_norm_est=io_norm,
        sup_inv_obs_est=inv2,
        q_est=m_c2 if isinstance(triple.control, IdentityControl) else None,
        horizon=horizon,
        sample_counts={"probes": len(probes), "signals": len(signals),
                       "time_points": g2.count + 1},
        verdicts=verdicts)


def observation_row_loop(mu, grid, point_dim=1, atom_mode="exact"):
    """The measure functional's row, one grid point at a time: each atom's
    block, then the density block h * density_at(mu, s_i) at every left
    endpoint s_i.  ``atom_mode="nearest"`` snaps an atom within half a step
    of a grid point."""
    h = grid.step
    out = np.zeros((point_dim, (grid.count + 1) * point_dim))

    def add_block(i, w):
        if np.ndim(w) == 0:
            block = float(w) * np.eye(point_dim)
        else:
            block = np.asarray(w, dtype=float)
            if block.shape != (point_dim, point_dim):
                raise DimensionError(
                    f"measure weight must be ({point_dim}, {point_dim}), got {block.shape}")
        out[:, i * point_dim:(i + 1) * point_dim] += block

    for loc, w in mu.atoms:
        r = (loc - grid.start) / h
        i = int(round(r))
        off = abs(r - i)
        if not 0 <= i <= grid.count or off > (1e-6 if atom_mode == "exact" else 0.5 + 1e-12):
            raise GridAlignmentError(f"atom at {loc} is not on the grid")
        add_block(i, w)
    pts = grid.points()
    for i in range(grid.count):
        v = density_at(mu, pts[i])
        if v is not None:
            add_block(i, h * np.asarray(v, dtype=float) if np.ndim(v) else h * float(v))
    return out


def orbit_csv_rows_loop(path, orb):
    """Write ``t, norm, x0..`` for every orbit row of the dense states, as
    ``csv_rows_loop`` does."""
    header = ["t", "norm"] + [f"x{j}" for j in range(orb.states.shape[1])]
    csv_rows_loop(path, header, [orb.grid.points(), orb.norms, *np.array(orb.states).T])


def csv_rows_loop(path, header, columns):
    """Write one row per sample of ``columns``, formatting each value with
    ``.17g`` one at a time."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*cols):
            fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")


def one_orbit(checker):
    """A block checker (``asy.make_checker``) as a checker of one orbit."""
    return lambda orb: checker(asy.OrbitBlock.of([orb]), [0]).verdict()


def biinvariance_harness_loop(checkers, orbits, shifts):
    """Shifted-PASS => full-PASS, one checker of one orbit at a time over the
    whole list of orbits, shifting each orbit anew for every checker."""
    violations = []
    for name, ch in checkers.items():
        for i, orb in enumerate(orbits):
            full = ch(orb)
            for b in shifts:
                shifted = ch(shift_orbit(orb, b))
                if shifted.verdict == "PASS" and full.verdict != "PASS":
                    violations.append({"checker": name, "orbit": i, "shift": b,
                                       "shifted": shifted.verdict,
                                       "full": full.verdict})
    return violations


def robustness_experiment_loop(triple, prop, probes, config):
    """One property on its own: the checker on newly built base and perturbed
    orbits of every probe, then the harness of the whole checker family on a
    newly built synthetic zoo."""
    grid = Grid(0.0, config.step, int(round(config.horizon / config.step)))
    checker = one_orbit(asy.make_checker(prop, config, triple.base.space.dim))
    per_probe = []
    all_ok = True
    for x in probes:
        base = checker(orbit(triple.base, x, grid))
        pert = checker(perturbed_orbit(triple, x, grid, method=config.method))
        ok = base.verdict != "PASS" or pert.verdict == "PASS"
        all_ok &= ok
        per_probe.append({"base": base, "perturbed": pert, "ok": ok})
    sgrid = Grid(0.0, asy.SYNTHETIC_STEP,
                 int(round(asy.SYNTHETIC_HORIZON / asy.SYNTHETIC_STEP)))
    zoo = list(asy.synthetic_orbits(config.n_synthetic, sgrid, seed=config.seed))
    max_shift = max(config.shifts) if config.shifts else 0.0
    syn_cfg = config._replace(tail_window=min(
        config.tail_window, 0.5 * (asy.SYNTHETIC_HORIZON - max_shift)))
    checkers = {p: one_orbit(asy.make_checker(p, syn_cfg, 2)) for p in asy.PROPERTIES}
    violations = biinvariance_harness_loop(checkers, zoo, config.shifts)
    return asy.RobustnessReport(prop, all_ok and not violations, per_probe,
                                violations, config.n_synthetic)


# ---------------------------------------------------------------------------
# the asymptotic checkers, one orbit per call
# ---------------------------------------------------------------------------

def _tail_start_loop(orb, tail_window, tail_fraction):
    w = tail_window if tail_window is not None else tail_fraction * orb.grid.end
    m = max(1, int(round(min(w, orb.grid.end) / orb.grid.step)))
    return max(orb.grid.count - m, 0)


def _three_way_loop(ratio, tol, extra_fail=False):
    if extra_fail or ratio >= asy.FAIL_FACTOR * tol:
        return "FAIL"
    if ratio <= tol:
        return "PASS"
    return "INCONCLUSIVE"


def check_bounded_loop(orb, bound_hint=None, tail_window=None):
    """Boundedness of one orbit, its tail log-slope fitted by np.polyfit."""
    ref = float(np.max(orb.norms))
    if ref == 0.0:
        return asy.AsymptoticVerdict("BOUNDED", "PASS", {"sup": 0.0, "log_slope": None,
                                                         "tail_decayed": True})
    k0 = _tail_start_loop(orb, tail_window, asy.BOUNDED_TAIL_FRACTION)
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
    if hint_fail or slope > asy.FAIL_FACTOR * asy.SLOPE_TOL:
        return asy.AsymptoticVerdict("BOUNDED", "FAIL", witness)
    if hint_pass and slope <= asy.SLOPE_TOL:
        return asy.AsymptoticVerdict("BOUNDED", "PASS", witness)
    return asy.AsymptoticVerdict("BOUNDED", "INCONCLUSIVE", witness)


def check_strongly_stable_loop(orb, tol=1e-3, tail_window=None):
    ref = float(np.max(orb.norms))
    if ref == 0.0:
        return asy.AsymptoticVerdict("STRONGLY_STABLE", "PASS", {"tail_ratio": 0.0})
    k0 = _tail_start_loop(orb, tail_window, asy.STABLE_TAIL_FRACTION)
    tail = orb.norms[k0:]
    ratio = float(np.mean(tail)) / ref
    means = [float(np.mean(c)) for c in np.array_split(tail, 4) if c.size]
    noninc = all(means[i + 1] <= 1.05 * means[i] + 1e-15 * ref
                 for i in range(len(means) - 1))
    witness = {"tail_ratio": ratio, "window_means": means, "ref": ref}
    verdict = _three_way_loop(ratio, tol, extra_fail=(not noninc and ratio > tol))
    return asy.AsymptoticVerdict("STRONGLY_STABLE", verdict, witness)


def check_weakly_stable_loop(orb, functionals, tol=1e-3, tail_window=None):
    k0 = _tail_start_loop(orb, tail_window, asy.STABLE_TAIL_FRACTION)
    worst = 0.0
    per = []
    for phi in functionals:
        p = np.abs(orb.states @ np.asarray(phi, dtype=float).ravel())
        scale = float(np.max(p))
        r = float(np.mean(p[k0:])) / scale if scale > 0 else 0.0
        per.append(r)
        worst = max(worst, r)
    witness = {"worst_tail_ratio": worst, "per_functional": per,
               "surrogate": f"finite set of {len(functionals)} functionals"}
    return asy.AsymptoticVerdict("WEAKLY_STABLE", _three_way_loop(worst, tol), witness)


def _cumulative_means_loop(orb, k0):
    states = orb.states[k0:]
    h = orb.grid.step
    cum = np.zeros_like(states)
    np.cumsum(0.5 * h * (states[1:] + states[:-1]), axis=0, out=cum[1:])
    return cum, h * np.arange(states.shape[0])


def check_mean_ergodic_loop(orb, tol=1e-2, tail_window=None):
    k0 = _tail_start_loop(orb, tail_window, 1.0) if tail_window is not None else 0
    n = orb.grid.count - k0
    if n < 8:
        return asy.AsymptoticVerdict("MEAN_ERGODIC", "INCONCLUSIVE",
                                     {"reason": "window too short"})
    ref = float(np.max(orb.norms))
    if ref == 0.0:
        return asy.AsymptoticVerdict("MEAN_ERGODIC", "PASS",
                                     {"residual": 0.0, "limit_norm": 0.0})
    cum, ts = _cumulative_means_loop(orb, k0)
    mean = lambda k: cum[k] / ts[k]
    limit = mean(n)
    res = max(orb.space.norm(mean(n) - mean(n // 2)),
              orb.space.norm(mean(n // 2) - mean(n // 4))) / ref
    witness = {"residual": float(res), "limit_norm": orb.space.norm(limit),
               "limit": limit}
    return asy.AsymptoticVerdict("MEAN_ERGODIC", _three_way_loop(res, tol), witness)


def check_uniformly_ergodic_loop(orb, window, tol=1e-2, tail_window=None):
    k0 = _tail_start_loop(orb, tail_window, 1.0) if tail_window is not None else 0
    n = orb.grid.count - k0
    wk = int(round(window / orb.grid.step))
    if n - wk < 8:
        return asy.AsymptoticVerdict("UNIFORMLY_ERGODIC", "INCONCLUSIVE",
                                     {"reason": "window too short for the horizon"})
    ref = float(np.max(orb.norms))
    if ref == 0.0:
        return asy.AsymptoticVerdict("UNIFORMLY_ERGODIC", "PASS", {"residual": 0.0})
    cum, ts = _cumulative_means_loop(orb, k0)
    T = n - wk

    def shifted_means(tn):
        return (cum[tn: tn + wk + 1] - cum[: wk + 1]) / (tn * orb.grid.step)

    d = shifted_means(T) - shifted_means(T // 2)
    res = float(np.max(orb.space.rows_norm(d))) / ref
    sup_limit = np.max(orb.space.rows_norm(shifted_means(T)))
    witness = {"residual": float(res), "limit_sup_norm": float(sup_limit)}
    return asy.AsymptoticVerdict("UNIFORMLY_ERGODIC", _three_way_loop(res, tol), witness)


def make_checker_loop(prop, config, space_dim):
    """``asy.make_checker`` with the one-orbit checkers above."""
    w = config.tail_window
    if prop == "BOUNDED":
        return lambda o: check_bounded_loop(o, config.bound_hint, w)
    if prop == "STRONGLY_STABLE":
        return lambda o: check_strongly_stable_loop(o, config.tol, w)
    if prop == "WEAKLY_STABLE":
        phis = asy._functionals_for(space_dim, asy.FUNCTIONAL_COUNT, asy.FUNCTIONAL_SEED)
        return lambda o: check_weakly_stable_loop(o, phis, config.tol, w)
    if prop == "MEAN_ERGODIC":
        return lambda o: check_mean_ergodic_loop(o, config.ergodic_tol, w)
    return lambda o: check_uniformly_ergodic_loop(o, config.uniform_window,
                                                  config.ergodic_tol, w)


# ---------------------------------------------------------------------------
# the translation example's closed forms and the neutral history window
# ---------------------------------------------------------------------------

def density_at(mu, s):
    """The density of ``mu`` at s: the value of the first half-open segment
    [a, b) holding s, None outside every segment."""
    for a, b, v in mu.density:
        if a - 1e-12 <= s < b - 1e-12:
            return v
    return None


def opnorm_sup(a):
    """Operator norm induced by the sup norm (max absolute row sum)."""
    return float(np.max(np.sum(np.abs(np.atleast_2d(a)), axis=1)))


def total_variation(mu, lower=-np.inf):
    """|mu|([lower, 0]): atom weights plus integrated |density|."""
    tv = sum(opnorm_sup(w) for loc, w in mu.atoms if loc >= lower - 1e-12)
    tv += sum((b - max(a, lower)) * opnorm_sup(v) for a, b, v in mu.density
              if max(a, lower) < b)
    return float(tv)


def mass_at_zero(mu, delta):
    """|mu|([-delta, 0]), to verify the no-mass-at-zero hypothesis."""
    return total_variation(mu, lower=-delta)


def dirichlet_apply(spec, c, grid):
    """The boundary lifting c * exp(lam * s) sampled on the grid."""
    return StateVector.grid_function(c * np.exp(spec.lam * grid.points()), grid)


def boundary_control_closed_form(spec, t0, u, grid):
    """Closed-form control map of the boundary perturbation at time t0.

    Evaluates (B_t0 u)(s) = exp(lam * min(0, s + t0)) * u(max(0, s + t0)) on
    the space grid.  The formula is the L1 limit over inputs with u(0) = 0;
    a nonzero u(0) is flagged with a warning but still evaluated literally.
    The input and the space grid share one step.
    """
    k0 = u.grid.index_of(t0)
    if abs(float(u.values[0, 0])) > 1e-12:
        warnings.warn("boundary control input has u(0) != 0; the closed form is "
                      "only the L1 limit of the vanishing-at-zero class", stacklevel=2)
    uvals = u.values[:, 0]
    j = np.arange(grid.count + 1) - grid.count + k0  # index of s_i + t0 on the input grid
    lift = np.exp(spec.lam * np.minimum(grid.points() + t0, 0.0))
    out = np.where(j >= 0, uvals[np.maximum(j, 0)], lift * uvals[0])
    return StateVector.grid_function(out, grid)


def boundary_control_by_quadrature(spec, t0, u, grid):
    """Quadrature route for the boundary control map, cross-validating the
    closed form.

    Integrating by parts moves the unbounded boundary injection onto the
    lifted input:

        B_t0 u = (D u)(t0) - int_0^t0 T(t0 - r) D[u'(r) - lam u(r)] dr

    with (D c)(s) = c * exp(lam * s).  The derivative is a finite difference,
    the integral composite trapezoid, the translations exact shifts; the two
    routes agree to first order in the step.
    """
    lam = spec.lam
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


def control_dropped_mass(t0, u, grid):
    """L1 mass of the input translated past the truncation end -L at time t0."""
    L = -grid.start
    if t0 <= L + 1e-12:
        return 0.0
    k = int(round(min(t0 - L, u.grid.end) / u.grid.step))
    if k < 1:
        return 0.0
    return InputSignal(Grid(0.0, u.grid.step, k), u.values[: k + 1], u.point_space).l1_norm()


def measure_observation(mu, f, grid):
    """int f d(mu) for a scalar grid function: atoms snapped to the nearest
    grid point, density by left-endpoint quadrature."""
    row = observation_row_loop(mu, grid, 1, atom_mode="nearest")
    vals = f.coords
    if vals.shape[0] != grid.count + 1:
        raise DimensionError("state does not match the observation grid")
    return float(row[0] @ vals)


def io_infty_closed_form(mu, u):
    """Closed-form input-output map (F u)(t) = int_{[-t,0]} u(t+s) d(mu)(s).

    Atoms must be aligned with the signal step (the delay identity is then
    exact); the density contributes left-endpoint lag weights, read one lag
    at a time.
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
        lag = np.zeros(n + 1)
        for j in range(1, n + 1):
            v = density_at(mu, -j * h)
            if v is not None:
                lag[j] = h * float(v)
        out += np.convolve(lag, uvals)[: n + 1]  # lag[0] is 0
    return scalar_signal(u.grid, out)


def history_segment(sys, orb, k):
    """The history window x_{t_k}(s) = x(t_k + s) stored in the block orbit."""
    fpart = orb.states[k, sys.dim:]
    return StateVector(fpart, L1Space(sys.history_grid, point_dim=sys.dim))


def scaling_conjugation(sys, alpha):
    """The neutral system conjugated by (x, f) -> (x, alpha*f): P -> P/alpha
    and C -> alpha*C, so that T(t)(x, f) = S_alpha^{-1} T~(t)(x, alpha*f)."""
    if alpha <= 0.0:
        raise DomainError(f"scaling parameter must be positive, got {alpha}")
    p = sys.p_kernel
    scaled_p = MeasureSpec(atoms=tuple((loc, np.divide(w, alpha)) for loc, w in p.atoms),
                           density=tuple((a, b, np.divide(v, alpha)) for a, b, v in p.density))
    return nt.NeutralSystem(sys.a, scaled_p, sys.k_kernel, alpha * sys.c, sys.history_grid)


def shift_orbit(orb, b):
    """Left time-shift: drop the first b seconds of the sampled orbit."""
    k = asy._shift_start(orb.grid, b)
    return OrbitSeries(Grid(0.0, orb.grid.step, orb.grid.count - k),
                       orb.states[k:], orb.norms[k:], orb.space)


# ---------------------------------------------------------------------------
# the Desch-Schappacher check
# ---------------------------------------------------------------------------

class PreconditionError(SemflowError):
    """A numerically checked hypothesis failed."""

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


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


def check_desch_schappacher(triple, probes, omega, m=1.0, horizon=40.0, step=2.5e-4,
                            n_terms=20, term_tol=1e-8):
    """The Desch-Schappacher bound for a bounded B and C = Id over a base with
    ||T(t)|| <= M exp(-omega t), which a log-linear fit of every probe orbit
    must confirm (R^2 >= 0.99).  With rho = m ||B|| / omega < 1, the n-th
    Neumann term of the orbit signal is at most rho^n (M/omega) ||x||, and
    their sum at most M / (omega - m ||B||) ||x||, each up to ``term_tol``
    (the quadrature overshoot of the n = 0 term); m defaults to 1."""
    grid = time_grid(horizon, step)
    ts = grid.points()
    orbits = [orbit(triple.base, x, grid) for x in probes]
    m_est = 1.0
    for x, orb in zip(probes, orbits):
        slope, r2 = _log_linear_fit(ts, orb.norms)
        if r2 < 0.99 or slope > -omega * (1.0 - 1e-9):
            raise PreconditionError(
                "base semigroup is not exponentially stable at the requested rate",
                measured_rate=-slope, r_squared=r2, requested=omega)
        m_est = max(m_est, float(np.max(orb.norms * np.exp(omega * ts))) / x.norm())
    b_norm = opnorm_sup(triple.control.matrix)
    rho = m * b_norm / omega
    r = _realize(triple, step)
    ok = rho < 1.0
    per_probe = []
    for x, orb in zip(probes, orbits):
        term, norms, margins = orb.states, [], []
        for n in range(n_terms + 1):
            norms.append(InputSignal(grid, term, triple.u_space).l1_norm())
            margins.append((rho ** n) * (m_est / omega) * x.norm() + term_tol - norms[-1])
            term = r.apply(term)
        total = float(np.sum(norms))
        total_bound = m_est / (omega - m * b_norm) * x.norm() if rho < 1.0 else np.inf
        ok &= bool(np.min(margins) >= 0.0) and total <= total_bound + term_tol
        per_probe.append({"term_norms": norms, "min_term_margin": float(np.min(margins)),
                          "total": total, "total_bound": float(total_bound)})
    return adm.CheckResult("PASS" if ok else "FAIL", {"rho": rho, "per_probe": per_probe})
