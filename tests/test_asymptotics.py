import tracemalloc

import numpy as np
import pytest

import semflow as sf
from semflow import asymptotics as asy
from semflow import neutral as nt
from semflow.errors import ConfigurationError, DomainError
from semflow.maps import free_orbit, perturbed_orbit
from semflow.semigroups import orbit, orbit_from_states
from helpers import count_calls, mixed_system, neutral_initial, scalar_mv
from oracles import (biinvariance_harness_loop, check_bounded_loop,
                     check_mean_ergodic_loop, check_strongly_stable_loop,
                     check_uniformly_ergodic_loop, check_weakly_stable_loop,
                     make_checker_loop, one_orbit, robustness_experiment_loop,
                     shift_orbit)


def make_orbit(fn, horizon=50.0, step=0.01, dim=1):
    grid = sf.time_grid(horizon, step)
    t = grid.points()
    vals = np.asarray(fn(t), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    return orbit_from_states(grid, vals, sf.SupSpace(vals.shape[1]))


def zero_orbit():
    return make_orbit(lambda t: 0.0 * t)


def decay_orbit(rate=1.0, horizon=50.0):
    return make_orbit(lambda t: np.exp(-rate * t), horizon=horizon)


def rotation_orbit(horizon=600.0, step=0.05):
    return make_orbit(lambda t: np.stack([np.cos(t), np.sin(t)], axis=1),
                      horizon=horizon, step=step)


def growth_orbit(rate=0.1, horizon=50.0):
    return make_orbit(lambda t: np.exp(rate * t), horizon=horizon)


# ---------------------------------------------------------------------------
# individual checkers
# ---------------------------------------------------------------------------

def test_bounded_examples():
    assert asy.check_bounded(zero_orbit()).verdict == "PASS"
    v = asy.check_bounded(decay_orbit())
    assert v.verdict == "PASS"
    assert v.witness["sup"] == pytest.approx(1.0)
    assert asy.check_bounded(growth_orbit(0.1), bound_hint=2.0).verdict == "FAIL"


def test_orbit_series_validates_shapes():
    from semflow.errors import DimensionError

    grid = sf.time_grid(1.0, 0.5)
    with pytest.raises(DimensionError):
        sf.OrbitSeries(grid, np.zeros((2, 1)), np.zeros(2), sf.SupSpace(1))
    with pytest.raises(DimensionError):
        sf.OrbitSeries(grid, np.zeros((3, 1)), np.zeros(2), sf.SupSpace(1))


def test_strongly_stable_examples():
    # nilpotent-type orbit: exactly zero after t = 1
    nil = make_orbit(lambda t: np.where(t < 1.0, 1.0, 0.0), horizon=5.0)
    assert asy.check_strongly_stable(nil, tol=1e-3).verdict == "PASS"
    rot = rotation_orbit(horizon=100.0)
    assert asy.check_strongly_stable(rot, tol=1e-3).verdict == "FAIL"
    dec = decay_orbit(0.5, horizon=40.0)
    assert asy.check_strongly_stable(dec, tol=1e-3).verdict == "PASS"


def test_weakly_stable_examples():
    phis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    z = make_orbit(lambda t: np.stack([0 * t, 0 * t], axis=1))
    assert asy.check_weakly_stable(z, phis).verdict == "PASS"
    rot = rotation_orbit(horizon=100.0)
    assert asy.check_weakly_stable(rot, phis, tol=1e-3).verdict == "FAIL"
    dec = make_orbit(lambda t: np.stack([np.exp(-0.5 * t), -np.exp(-0.5 * t)], axis=1),
                     horizon=60.0)
    assert asy.check_weakly_stable(dec, phis, tol=1e-3).verdict == "PASS"


def test_mean_ergodic_examples():
    const = make_orbit(lambda t: 0 * t + 2.5)
    v = asy.check_mean_ergodic(const, tol=1e-2)
    assert v.verdict == "PASS"
    assert v.witness["limit"][0] == pytest.approx(2.5, rel=1e-12)
    rot = rotation_orbit()
    vr = asy.check_mean_ergodic(rot, tol=1e-2)
    assert vr.verdict == "PASS"
    assert vr.witness["limit_norm"] <= 1e-2
    dec = decay_orbit(1.0, horizon=800.0)
    vd = asy.check_mean_ergodic(dec, tol=1e-2)
    assert vd.verdict == "PASS"
    assert vd.witness["limit_norm"] <= 1e-2
    assert asy.check_mean_ergodic(growth_orbit(0.05, 100.0), tol=1e-2).verdict == "FAIL"


def test_uniformly_ergodic_examples():
    assert asy.check_uniformly_ergodic(zero_orbit(), window=2 * np.pi).verdict == "PASS"
    rot = rotation_orbit()
    v = asy.check_uniformly_ergodic(rot, window=2 * np.pi, tol=1e-2)
    assert v.verdict == "PASS"
    assert v.witness["limit_sup_norm"] <= 1e-2
    g = growth_orbit(0.05, 100.0)
    assert asy.check_uniformly_ergodic(g, window=2 * np.pi, tol=1e-2).verdict == "FAIL"


def test_scaling_never_changes_verdicts():
    grid = sf.time_grid(40.0, 0.02)
    zoo = asy.synthetic_orbits(16, grid, seed=3)
    cfg = asy.RobustnessConfig(tail_window=10.0)
    checkers = {p: one_orbit(asy.make_checker(p, cfg, 2)) for p in asy.PROPERTIES}
    for orb in zoo:
        scaled = orbit_from_states(orb.grid, 137.0 * orb.states, orb.space)
        for name, ch in checkers.items():
            assert ch(orb).verdict == ch(scaled).verdict, name


def test_strongly_stable_implies_mean_ergodic_zero():
    grid = sf.time_grid(40.0, 0.02)
    zoo = asy.synthetic_orbits(24, grid, seed=5)
    cfg = asy.RobustnessConfig(tail_window=10.0)
    strong = one_orbit(asy.make_checker("STRONGLY_STABLE", cfg, 2))
    mean = one_orbit(asy.make_checker("MEAN_ERGODIC", cfg, 2))
    seen = 0
    for orb in zoo:
        if strong(orb).verdict == "PASS":
            seen += 1
            mv = mean(orb)
            assert mv.verdict == "PASS"
            assert mv.witness["limit_norm"] <= 1e-2 * max(np.max(orb.norms), 1e-300)
    assert seen >= 3


def test_bounded_implied_by_strongly_stable():
    grid = sf.time_grid(40.0, 0.02)
    zoo = asy.synthetic_orbits(24, grid, seed=6)
    cfg = asy.RobustnessConfig(tail_window=10.0)
    strong = one_orbit(asy.make_checker("STRONGLY_STABLE", cfg, 2))
    bounded = one_orbit(asy.make_checker("BOUNDED", cfg, 2))
    for orb in zoo:
        if strong(orb).verdict == "PASS":
            assert bounded(orb).verdict == "PASS"


def test_biinvariance_on_synthetic_zoo():
    grid = sf.time_grid(40.0, 0.02)
    zoo = asy.synthetic_orbits(50, grid, seed=42)
    cfg = asy.RobustnessConfig(tail_window=10.0, shifts=(5.0, 10.0))
    checkers = {p: asy.make_checker(p, cfg, 2) for p in asy.PROPERTIES}
    violations = asy.biinvariance_harness(checkers, zoo, cfg.shifts)
    assert violations == []


def test_harness_streams_the_zoo_in_the_checker_by_checker_order():
    grid = sf.time_grid(40.0, 0.02)

    def passes_below(count):
        # PASS exactly on orbits shorter than `count` steps: shifts violate.
        # A checker decides every orbit of a block from every start index.
        def cells(block, starts):
            short = block.grid.count - np.asarray(starts) < count
            codes = np.where(short, "PASS", "FAIL")[:, None]
            return asy.Cells("X", codes.repeat(len(block.states), axis=1),
                             lambda s, i: {})
        return cells

    checkers = {"late": passes_below(1600), "early": passes_below(1800),
                "never": passes_below(0)}
    shifts = (5.0, 10.0)
    n = asy.HARNESS_BLOCK + 3  # two blocks
    streamed = asy.biinvariance_harness(
        checkers, asy.synthetic_orbits(n, grid, seed=1), shifts)
    assert streamed == biinvariance_harness_loop(
        {name: one_orbit(ch) for name, ch in checkers.items()},
        list(asy.synthetic_orbits(n, grid, seed=1)), shifts)
    assert [(v["checker"], v["orbit"], v["shift"]) for v in streamed] == \
        [("late", i, 10.0) for i in range(n)] + \
        [("early", i, b) for i in range(n) for b in shifts]


def test_harness_blocks_share_one_grid():
    orbs = [decay_orbit(1.0, horizon=40.0), decay_orbit(1.0, horizon=30.0)]
    checkers = {"BOUNDED": asy.make_checker("BOUNDED", asy.RobustnessConfig(), 1)}
    with pytest.raises(DomainError):
        asy.biinvariance_harness(checkers, orbs, (5.0,))


def test_ergodic_checkers_share_each_blocks_cesaro_sums(monkeypatch):
    # MEAN_ERGODIC and UNIFORMLY_ERGODIC read one tail start on every block
    # of the default harness, so each block builds its sums once
    calls = count_calls(monkeypatch, asy._cesaro_sums)
    config = asy.RobustnessConfig()
    asy._harness_violations(config)
    assert len(calls) == -(-config.n_synthetic // asy.HARNESS_BLOCK)
    block = asy.OrbitBlock.of([decay_orbit(1.0, horizon=10.0)])
    sums = block.cesaro_sums(3)
    assert block.cesaro_sums(3) is sums and not sums.flags.writeable
    assert np.array_equal(sums, asy._cesaro_sums(block, 3))


@pytest.mark.parametrize("key", asy._POSITIVE_SETTINGS)
def test_robustness_config_rejects_a_setting_that_is_not_positive(key):
    for value in (0.0, -1.0, float("nan"), float("inf"), "1.0", None):
        with pytest.raises(ConfigurationError, match=f"^{key} must be a finite number > 0"):
            asy.RobustnessConfig(**{key: value})


def test_robustness_config_checks_the_hint_the_zoo_size_and_the_shifts():
    config = asy.RobustnessConfig(tol=1, n_synthetic=np.int64(0), shifts=[5.0])
    assert type(config.tol) is float and type(config.n_synthetic) is int
    assert config.shifts == (5.0,)
    for value in (-1, 2.5, "8"):
        with pytest.raises(ConfigurationError, match="^n_synthetic must be an integer >= 0"):
            asy.RobustnessConfig(n_synthetic=value)
    for value in (0.0, -1.0, float("inf"), "2"):
        with pytest.raises(ConfigurationError, match="^bound_hint must be null or"):
            asy.RobustnessConfig(bound_hint=value)
    assert asy.RobustnessConfig(bound_hint=2).bound_hint == 2
    for value in ((-1.0,), (float("nan"),), (asy.SYNTHETIC_HORIZON,), ("5",)):
        with pytest.raises(ConfigurationError, match="^shifts must be numbers in"):
            asy.RobustnessConfig(shifts=value)


def test_shift_orbit():
    orb = decay_orbit(1.0, horizon=10.0)
    sh = shift_orbit(orb, 2.0)
    assert sh.grid.end == pytest.approx(8.0)
    assert sh.norms[0] == pytest.approx(np.exp(-2.0))
    with pytest.raises(DomainError):
        shift_orbit(orb, 10.0)


# ---------------------------------------------------------------------------
# robustness experiments
# ---------------------------------------------------------------------------

def test_robustness_trivial_when_unperturbed():
    triple = scalar_mv(0.0)
    cfg = asy.RobustnessConfig(horizon=40.0, step=0.01, tail_window=10.0,
                               n_synthetic=8)
    rep = asy.robustness_experiment(triple, "STRONGLY_STABLE",
                                    [sf.StateVector.sup([1.0])], cfg)
    assert rep.passes
    for row in rep.per_probe:
        assert row["base"].verdict == row["perturbed"].verdict


def test_robustness_scalar_mv_strong_stability():
    triple = scalar_mv(0.5)
    cfg = asy.RobustnessConfig(horizon=60.0, step=0.01, tail_window=15.0,
                               n_synthetic=8)
    rep = asy.robustness_experiment(triple, "STRONGLY_STABLE",
                                    [sf.StateVector.sup([1.0]),
                                     sf.StateVector.sup([-2.0])], cfg)
    assert rep.passes
    assert all(r["base"].verdict == "PASS" for r in rep.per_probe)
    assert all(r["perturbed"].verdict == "PASS" for r in rep.per_probe)


def rotation_damped_triple(c=0.05, gamma=0.5):
    """Rotation block plus a damped channel feeding it: bounded, not stable,
    with a time-integrable observation (MV ratio c/gamma)."""
    a = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -gamma]])
    cmat = np.zeros((3, 3))
    cmat[0, 2] = c
    return sf.PerturbationTriple(sf.MatrixSemigroup(a), sf.IdentityControl(), cmat)


def test_robustness_rotation_bounded_and_ergodic():
    triple = rotation_damped_triple()
    probes = [sf.StateVector.sup(v) for v in ([1.0, 0.0, 1.0], [0.0, 1.0, -1.0])]
    cfg = asy.RobustnessConfig(horizon=800.0, step=0.05, tail_window=200.0,
                               ergodic_tol=2e-2, n_synthetic=8,
                               shifts=(5.0, 10.0))
    for prop in ("BOUNDED", "MEAN_ERGODIC"):
        rep = asy.robustness_experiment(triple, prop, probes, cfg)
        assert rep.passes, prop
        assert all(r["base"].verdict == "PASS" for r in rep.per_probe)


def test_robustness_rejects_unknown_property():
    with pytest.raises(ConfigurationError):
        asy.robustness_experiment(scalar_mv(0.1), "COMPACT",
                                  [sf.StateVector.sup([1.0])])
    with pytest.raises(ConfigurationError):
        asy.asymptotics_run(scalar_mv(0.1), ["BOUNDED", "COMPACT"],
                            [sf.StateVector.sup([1.0])])
    with pytest.raises(ConfigurationError):
        asy.asymptotics_run(scalar_mv(0.1), ["BOUNDED"], [])


def assert_same_report(a, b):
    assert (a.property, a.passes, a.n_synthetic) == (b.property, b.passes, b.n_synthetic)
    assert a.biinvariance_violations == b.biinvariance_violations
    assert len(a.per_probe) == len(b.per_probe)
    for ra, rb in zip(a.per_probe, b.per_probe):
        assert ra["ok"] == rb["ok"]
        for side in ("base", "perturbed"):
            va, vb = ra[side], rb[side]
            assert (va.property, va.verdict) == (vb.property, vb.verdict)
            assert va.witness.keys() == vb.witness.keys()
            for key in va.witness:
                assert np.array_equal(va.witness[key], vb.witness[key]), key


def test_one_pass_matches_one_property_experiments():
    triple = rotation_damped_triple()
    probes = [sf.StateVector.sup(v) for v in ([1.0, 0.0, 1.0], [0.0, 1.0, -1.0],
                                              [0.3, -0.2, 0.0])]
    cfg = asy.RobustnessConfig(horizon=120.0, step=0.05, tail_window=30.0,
                               ergodic_tol=2e-2, n_synthetic=8)
    run = asy.asymptotics_run(triple, asy.PROPERTIES, probes, cfg, tracks=True)
    assert list(run.reports) == list(asy.PROPERTIES)
    verdicts = set()
    for prop in asy.PROPERTIES:
        one = asy.robustness_experiment(triple, prop, probes, cfg)
        assert_same_report(one, run.reports[prop])
        assert_same_report(robustness_experiment_loop(triple, prop, probes, cfg),
                           run.reports[prop])
        verdicts |= {r[s].verdict for r in one.per_probe for s in ("base", "perturbed")}
    assert {"PASS", "FAIL"} <= verdicts
    grid = sf.time_grid(cfg.horizon, cfg.step)
    assert len(run.tracks) == len(probes)
    for x, tr in zip(probes, run.tracks):
        base = orbit(triple.base, x, grid)
        pert = perturbed_orbit(triple, x, grid)
        assert np.array_equal(tr.base_norms, base.norms)
        assert np.array_equal(tr.pert_norms, pert.norms)
        assert np.array_equal(tr.base_cesaro, asy.cesaro_residual_track(base))
        assert np.array_equal(tr.pert_cesaro, asy.cesaro_residual_track(pert))
    assert asy.asymptotics_run(triple, ["BOUNDED"], probes, cfg).tracks == []


def test_one_pass_without_properties_builds_only_the_tracks(monkeypatch):
    cfg = asy.RobustnessConfig(horizon=20.0, step=0.01, tail_window=5.0,
                               n_synthetic=6)
    harness = count_calls(monkeypatch, asy.biinvariance_harness)
    pert = count_calls(monkeypatch, perturbed_orbit)
    run = asy.asymptotics_run(scalar_mv(0.5), [], [sf.StateVector.sup([1.0]),
                                                   sf.StateVector.sup([-2.0])],
                              cfg, tracks=True)
    assert (run.reports, len(run.tracks)) == ({}, 2)
    assert (len(harness), len(pert)) == (0, 2)


def test_harness_violation_fails_every_report(monkeypatch):
    found = [{"checker": "BOUNDED", "orbit": 0, "shift": 5.0,
              "shifted": "PASS", "full": "FAIL"}]
    monkeypatch.setattr(asy, "biinvariance_harness", lambda *args: list(found))
    cfg = asy.RobustnessConfig(horizon=20.0, step=0.01, tail_window=5.0,
                               n_synthetic=6)
    run = asy.asymptotics_run(scalar_mv(0.5), ["BOUNDED", "STRONGLY_STABLE"],
                              [sf.StateVector.sup([1.0])], cfg)
    for rep in run.reports.values():
        assert all(r["ok"] for r in rep.per_probe)
        assert not rep.passes
        assert rep.biinvariance_violations == found


def test_cesaro_residual_track_shape():
    orb = decay_orbit(1.0, horizon=10.0)
    track = asy.cesaro_residual_track(orb)
    assert track.shape == orb.norms.shape
    assert track[0] == 0.0
    assert np.all(track >= 0.0)


def test_biinvariance_survives_infeasible_windows():
    # a shift can empty a cutoff orbit entirely; the degenerate-orbit shortcut
    # must not outrank the window-feasibility guard, or shifted-PASS could
    # pair with full-INCONCLUSIVE
    grid = sf.time_grid(40.0, 0.02)
    zoo = asy.synthetic_orbits(24, grid, seed=42)
    cfg = asy.RobustnessConfig(tail_window=2.0, uniform_window=2 * np.pi,
                               shifts=(10.0, 20.0))
    checkers = {p: asy.make_checker(p, cfg, 2) for p in asy.PROPERTIES}
    assert asy.biinvariance_harness(checkers, zoo, cfg.shifts) == []


# ---------------------------------------------------------------------------
# the batched checkers against the one-orbit oracles
# ---------------------------------------------------------------------------

def assert_same_verdict(new, old):
    # every witness float within 1e-12 relative; a fitted log-slope also
    # within 1e-15 absolute, as np.polyfit's round-off (up to 1e-16 on the
    # zoo) scales with the log-norms, not with a slope near 0
    assert (new.property, new.verdict) == (old.property, old.verdict)
    assert new.witness.keys() == old.witness.keys()
    for key, b in old.witness.items():
        a = new.witness[key]
        if b is None or isinstance(b, (str, bool)):
            assert a == b, key
        else:
            atol = 1e-15 if key == "log_slope" else 0.0
            assert np.allclose(a, b, rtol=1e-12, atol=atol), key


HARNESS_CONFIGS = {
    "cli-defaults": asy.RobustnessConfig(),
    "infeasible-windows": asy.RobustnessConfig(tail_window=2.0, shifts=(10.0, 20.0)),
    # every cutoff ends by 0.4 of the horizon, so these shifts leave it zero
    "zero-cutoffs": asy.RobustnessConfig(shifts=(16.0, 24.0)),
}


@pytest.mark.parametrize("seed", [42, 7, 1])
@pytest.mark.parametrize("name", list(HARNESS_CONFIGS))
def test_batched_checkers_match_the_one_orbit_oracles(name, seed):
    config = HARNESS_CONFIGS[name]._replace(seed=seed)
    grid = sf.Grid(0.0, asy.SYNTHETIC_STEP,
                   int(round(asy.SYNTHETIC_HORIZON / asy.SYNTHETIC_STEP)))
    zoo = list(asy.synthetic_orbits(config.n_synthetic, grid, seed=seed))
    syn = config._replace(tail_window=min(
        config.tail_window, 0.5 * (asy.SYNTHETIC_HORIZON - max(config.shifts))))
    shifts = (0.0,) + config.shifts
    starts = [grid.index_of(b) for b in shifts]
    if name == "zero-cutoffs":
        assert all(not np.any(orb.norms[starts[1]:]) for orb in zoo[6::8])
    oracles = {p: make_checker_loop(p, syn, 2) for p in asy.PROPERTIES}
    for p in asy.PROPERTIES:
        checker = asy.make_checker(p, syn, 2)
        for first in range(0, len(zoo), asy.HARNESS_BLOCK):
            run = zoo[first: first + asy.HARNESS_BLOCK]
            cells = checker(asy.OrbitBlock.of(run), starts)
            for s, b in enumerate(shifts):
                for i, orb in enumerate(run):
                    assert_same_verdict(cells.verdict(s, i),
                                        oracles[p](shift_orbit(orb, b)))
    assert asy._harness_violations(config) == \
        biinvariance_harness_loop(oracles, zoo, config.shifts)


def test_checkers_without_a_tail_window_match_the_one_orbit_oracles():
    # tails as a share of the horizon, Cesaro means from t = 0
    grid = sf.time_grid(40.0, 0.02)
    phis = [np.array([1.0, 0.0]), np.array([0.3, -0.7])]
    for orb in asy.synthetic_orbits(16, grid, seed=5):
        assert_same_verdict(asy.check_bounded(orb), check_bounded_loop(orb))
        assert_same_verdict(asy.check_strongly_stable(orb), check_strongly_stable_loop(orb))
        assert_same_verdict(asy.check_weakly_stable(orb, phis),
                            check_weakly_stable_loop(orb, phis))
        assert_same_verdict(asy.check_mean_ergodic(orb), check_mean_ergodic_loop(orb))
        assert_same_verdict(asy.check_uniformly_ergodic(orb, 2 * np.pi),
                            check_uniformly_ergodic_loop(orb, 2 * np.pi))


def probe_case(name):
    if name == "scalar":
        cfg = asy.RobustnessConfig(horizon=60.0, step=0.01, tail_window=15.0,
                                   n_synthetic=8)
        return scalar_mv(0.5), [sf.StateVector.sup([1.0]), sf.StateVector.sup([-2.0])], cfg
    if name == "rotation":
        cfg = asy.RobustnessConfig(horizon=120.0, step=0.05, tail_window=30.0,
                                   ergodic_tol=2e-2, n_synthetic=8)
        probes = [sf.StateVector.sup(v) for v in ([1.0, 0.0, 1.0], [0.3, -0.2, 0.0])]
        return rotation_damped_triple(), probes, cfg
    sys0 = mixed_system(n_hist=16)
    probes = [nt.pack_initial(sys0, *neutral_initial(sys0, seed=s)) for s in (3, 4)]
    cfg = asy.RobustnessConfig(horizon=20.0, step=sys0.history_grid.step,
                               tail_window=5.0, n_synthetic=8)
    return nt.build_perturbation(sys0), probes, cfg


@pytest.mark.parametrize("name", ["scalar", "rotation", "neutral"])
def test_probe_checks_match_the_one_orbit_oracles(name):
    triple, probes, cfg = probe_case(name)
    run = asy.asymptotics_run(triple, asy.PROPERTIES, probes, cfg)
    grid = sf.time_grid(cfg.horizon, cfg.step)
    verdicts = set()
    for j, x in enumerate(probes):
        orbs = {"base": free_orbit(triple, x, grid),
                "perturbed": perturbed_orbit(triple, x, grid)}
        for p in asy.PROPERTIES:
            oracle = make_checker_loop(p, cfg, triple.base.space.dim)
            for side, orb in orbs.items():
                got = run.reports[p].per_probe[j][side]
                assert_same_verdict(got, oracle(orb))
                verdicts.add(got.verdict)
    assert "PASS" in verdicts


def test_harness_peak_memory_does_not_grow_with_the_zoo():
    # the zoo streams through the harness a block at a time
    peaks = []
    for n in (50, 400):
        tracemalloc.start()
        try:
            asy._harness_violations(asy.RobustnessConfig(n_synthetic=n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= 1.2 * peaks[0]
