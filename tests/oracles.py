"""Sequential reference loops for the vectorized and blocked kernels, the
base orbits and maps, the measure row, the writers and the robustness
experiment.

They step each recurrence one sample at a time, and read the history one tap
at a time, exactly as the definitions in ``semflow._kernels``,
``semflow.semigroups`` and ``semflow.maps`` read; the measure row is built
one grid point at a time; the CSV oracles format every value of every row;
the robustness oracles build fresh orbits and a fresh harness for one
property; the io-norm oracle recomputes every norm and exp(hA) in every
iteration; the admissibility oracle evaluates every constant afresh on
[0, T] and on [0, 2T].  They serve only as test oracles.
"""

from dataclasses import replace

import numpy as np

from semflow import admissibility as adm
from semflow import asymptotics as asy
from semflow.core import Grid, InputSignal, ProductSpace, matexp, time_grid
from semflow.errors import DimensionError, GridAlignmentError
from semflow.maps import (IdentityControl, Neumann, NeutralBoundaryControl,
                          _apply_io, _io_exp, estimate_io_norm, invert_io, io_map,
                          observation_map, perturbed_orbit)
from semflow.semigroups import BlockDiag, MatrixSemigroup, orbit


def orbit_step_loop(sg, x, grid):
    """States T(t_k) x, each the previous one advanced by T(h)."""
    states = np.empty((grid.count + 1, sg.space.dim))
    c = np.array(x.coords, dtype=float)
    states[0] = c
    for k in range(grid.count):
        c = sg.apply_coords(grid.step, c)
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
    """B_{t_k} u of the bounded and neutral variants: the quadrature sum
    acc <- E acc + w_j B u_j one sample at a time, and the placed channel
    one history point at a time."""
    h = u.grid.step
    if k == 0:
        w = np.zeros(1)
    else:
        g = Grid(0.0, h, k)
        w = g.trapezoid_weights() if rule == "trapezoid" else g.left_weights()
    if isinstance(triple.control, NeutralBoundaryControl):
        a = triple.base.parts[0].a
        d = a.shape[0]
        b = np.eye(d)
        u1 = u.values[:, :d]
    else:
        a = triple.base.a
        b = triple.b_matrix
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


def matrix_volterra_solve_loop(E, B, C, v, h):
    """Forward substitution for (I - F) w = v; also returns bt_k = h z_k."""
    w = np.zeros_like(v)
    bt = np.zeros((v.shape[0], E.shape[0]))
    z = np.zeros(E.shape[0])
    for k in range(v.shape[0]):
        bt[k] = h * z
        w[k] = v[k] + h * (C @ z)
        z = E @ (z + B @ w[k])
    return w, bt


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


def delay_volterra_solve_loop(lag, v):
    """Forward substitution w_k = v_k + sum_{j=1}^{min(k, W)} lag_j w_{k-j}."""
    W = lag.shape[0] - 1
    w = np.zeros(v.shape[0])
    for k in range(v.shape[0]):
        acc = 0.0
        for j in range(1, min(k, W) + 1):
            acc += lag[j] * w[k - j]
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


def estimate_io_norm_loop(triple, t, step, n_probes=4, n_iters=3, seed=0):
    """``maps.estimate_io_norm`` with nothing carried between iterations:
    each one applies F through ``io_map`` (a fresh exp(hA) every time) and
    takes both trapezoid L1 norms afresh, the sup point norms by ``np.max``
    on each component of the input space."""
    grid = time_grid(t, step)
    rng = np.random.default_rng(seed)
    n1 = grid.count + 1
    w = grid.trapezoid_weights()
    space = triple.u_space
    dims = [p.dim for p in space.parts] if isinstance(space, ProductSpace) else [space.dim]

    def l1(vals):
        pn, lo = 0, 0
        for dim in dims:
            pn = pn + np.max(np.abs(vals[:, lo:lo + dim]), axis=1)
            lo += dim
        return float(w @ pn)

    probes = [np.ones((n1, triple.u_dim))]
    probes += [rng.standard_normal((n1, triple.u_dim)) for _ in range(n_probes)]
    best = 0.0
    for u in probes:
        for _ in range(n_iters):
            nu = l1(u)
            if nu <= 0.0:
                break
            fu = io_map(triple, grid.end, InputSignal(grid, u, space)).values
            best = max(best, l1(fu) / nu)
            u = fu
    return best


def _constants_at_loop(triple, probes, signals, grid, method):
    """Every admissibility constant over one grid, each signal zero-extended
    to it; a Neumann solve is gated by a seed-0 estimate on that grid."""
    def max_ratio(num, den):
        mask = ~(den <= adm.RATIO_FLOOR)
        return float(np.max(num[mask] / den[mask], initial=0.0))

    e = _io_exp(triple, grid.step)
    m_b, m_bc, io_ratio = [], [], []
    for u in signals:
        uu = adm._extend_signal(u, grid) if u.grid.count < grid.count else u
        run_u = uu.running_l1()
        m_b.append(max_ratio(adm._control_track_norms(triple, uu), run_u))
        fu = InputSignal(grid, _apply_io(triple, uu.values, grid.step, e), triple.u_space)
        m_bc.append(max_ratio(fu.running_l1(), run_u))
        if run_u[-1] > adm.RATIO_FLOOR:
            io_ratio.append(fu.l1_norm() / uu.l1_norm())
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
    return tuple(float(np.max(v, initial=0.0))
                 for v in (m_b, m_c, m_bc, io_ratio, sup_inv))


@np.errstate(over="ignore", invalid="ignore")
def estimate_constants_two_pass(triple, probes, signals, horizon, step, method,
                                io_probe_seed=0):
    """``admissibility.estimate_constants`` as two separate evaluations, one
    on [0, T] and one on [0, 2T], each with its own contraction estimate,
    and a third estimate at 2T for the reported io norm."""
    g1 = time_grid(horizon, step)
    g2 = time_grid(2.0 * horizon, step)
    m_b1, _, _, _, inv1 = _constants_at_loop(triple, probes, signals, g1, method)
    m_b2, m_c2, m_bc2, io2, inv2 = _constants_at_loop(triple, probes, signals, g2, method)
    io_norm = float(np.max([io2, estimate_io_norm(triple, 2.0 * horizon, step=step,
                                                  seed=io_probe_seed)]))

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
    block, then the density block h * density_at(s_i) at every left
    endpoint s_i."""
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
        v = mu.density_at(pts[i])
        if v is not None:
            add_block(i, h * np.asarray(v, dtype=float) if np.ndim(v) else h * float(v))
    return out


def orbit_csv_rows_loop(path, orb):
    """Write ``t, norm, x0..`` for every orbit row, formatting each value of
    the dense states with ``.17g`` one at a time."""
    header = ["t", "norm"] + [f"x{j}" for j in range(orb.states.shape[1])]
    states = np.array(orb.states)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for t, norm, row in zip(orb.grid.points(), orb.norms, states):
            fh.write(",".join(f"{float(v):.17g}" for v in (t, norm, *row)) + "\n")


def csv_rows_loop(path, header, columns):
    """Write one row per sample of ``columns``, formatting each value with
    ``.17g`` one at a time."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*cols):
            fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")


def biinvariance_harness_loop(checkers, orbits, shifts):
    """Shifted-PASS => full-PASS, one checker at a time over the whole list
    of orbits, shifting each orbit anew for every checker."""
    violations = []
    for name, ch in checkers.items():
        for i, orb in enumerate(orbits):
            full = ch(orb)
            for b in shifts:
                shifted = ch(asy.shift_orbit(orb, b))
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
    checker = asy.make_checker(prop, config, triple.base.space.dim)
    per_probe = []
    all_ok = True
    for x in probes:
        base = checker(orbit(triple.base, x, grid))
        pert = checker(perturbed_orbit(triple, x, grid, method=config.method))
        if base.verdict == "PASS":
            ok = pert.verdict == "PASS" or (config.allow_inconclusive
                                            and pert.verdict != "FAIL")
        else:
            ok = True
        all_ok &= ok
        per_probe.append({"base": base, "perturbed": pert, "ok": ok})
    sgrid = Grid(0.0, config.synthetic_step,
                 int(round(config.synthetic_horizon / config.synthetic_step)))
    zoo = list(asy.synthetic_orbits(config.n_synthetic, sgrid, seed=config.seed))
    max_shift = max(config.shifts) if config.shifts else 0.0
    syn_cfg = replace(config, tail_window=min(
        config.tail_window, 0.5 * (config.synthetic_horizon - max_shift)))
    checkers = {p: asy.make_checker(p, syn_cfg, 2) for p in asy.PROPERTIES}
    violations = biinvariance_harness_loop(checkers, zoo, config.shifts)
    return asy.RobustnessReport(prop, all_ok and not violations, per_probe,
                                violations, config.n_synthetic)
