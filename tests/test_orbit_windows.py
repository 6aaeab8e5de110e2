"""Shift-base orbits as one trajectory plus windows: the window structure of
the states, the memory it saves, and the orbit CSV writer that formats each
trajectory value once yet writes the same bytes as the row-by-row loop.  The
plain CSV path, formatted by the array formatter a block of rows at a time,
writes those bytes too; drawn tables of either kind match the row-by-row
oracles."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import semflow as sf
from semflow import cli, semigroups
from semflow import neutral as nt
from semflow.maps import perturbed_orbit
from helpers import mixed_system, neutral_initial
from oracles import csv_rows_loop, orbit_csv_rows_loop, orbit_step_loop


def translation_cfg(horizon, step, L, initial):
    return {
        "system": {"kind": "translation", "lambda": 1.0, "L": L,
                   "atoms": [[-1.0, 0.5]], "density": [[-3.0, -0.5, 0.1]]},
        "grid": {"step": step, "horizon": horizon},
        "initial": initial,
    }


def translation_orbit(cfg):
    target = cli.build_system(cfg)
    grid = sf.time_grid(cfg["grid"]["horizon"], cfg["grid"]["step"])
    return perturbed_orbit(target, cli.build_initial(cfg, target), grid)


# f(-L..0) on 17 points: -0.0, a subnormal and values printed in exponent form
SPECIAL_VALUES = [-0.0, 5e-324, 1e-7, -2.5e-12, 1.5e22, -3.25e-300, 0.1, 1.0 / 3.0,
                  -7.0, 123456789.123, 2.0 ** -1074 * 3, 1e16, -0.0, 0.0, 6.02e23,
                  -1e-5, 0.0]


def neutral_orbits(d_hist=16, horizon=2.0):
    sys0 = mixed_system(n_hist=d_hist)
    y, f = neutral_initial(sys0, seed=4)
    grid = sf.time_grid(horizon, sys0.history_grid.step)
    return (nt.neutral_orbit(sys0, (y, f), grid).orbit,
            nt.method_of_steps(sys0, (y, f), grid))


def assert_rows_are_windows(orb, stride):
    assert orb.stride == stride
    traj = orb.trajectory
    if orb.head == 0:  # the rows are views of the trajectory
        assert np.shares_memory(orb.states, traj)
    for k in range(orb.grid.count + 1):
        window = traj[k * stride: k * stride + orb.width]
        assert orb.states[k, orb.head:].tobytes() == window.tobytes()
    assert orb.states.shape[1] == orb.head + orb.width


def test_translation_states_are_windows_of_the_trajectory():
    cfg = translation_cfg(2.0, 0.125, 2.0, {"f_kind": "exp", "amplitude": 1.0})
    orb = translation_orbit(cfg)
    assert orb.head == 0 and orb.width == 17
    assert_rows_are_windows(orb, 1)
    # no dense copy: the states are the window view itself
    assert np.shares_memory(orb.states, orb.trajectory)


@pytest.mark.parametrize("route", [0, 1], ids=["formula", "oracle"])
def test_neutral_history_blocks_are_windows_of_the_trajectory(route):
    orb = neutral_orbits()[route]
    d = 2
    assert orb.head == d and orb.width == 17 * d
    assert_rows_are_windows(orb, d)


def test_translation_orbit_memory_does_not_scale_with_window_count():
    # the benchmark's translation system at T = 80: states is (40001, 2001),
    # 640 MB if copied densely
    cfg = translation_cfg(80.0, 0.002, 4.0, {"f_kind": "exp", "amplitude": 1.0})
    target = cli.build_system(cfg)
    x = cli.build_initial(cfg, target)
    grid = sf.time_grid(80.0, 0.002)
    tracemalloc.start()
    try:
        orb = perturbed_orbit(target, x, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert orb.states.shape == (40001, 2001)
    assert peak < 16e6


@pytest.mark.parametrize("kind", ["translation", "neutral"])
def test_zero_perturbation_orbit_is_windows_of_the_stepped_base(kind):
    # perturbed_orbit with a zero observation is the free orbit: windows of
    # one trajectory, equal from t_1 on to the base stepped one step at a
    # time (the matrix block of the neutral base to round-off), except that
    # the neutral routes read f(0) as x(0), which the history keeps at
    # s = -t_k for t_k <= 1, where the nilpotent shift alone drops it
    if kind == "translation":
        cfg = translation_cfg(3.0, 0.125, 2.0, {"f_kind": "exp", "amplitude": 1.0})
        cfg["system"].update(atoms=[], density=[])
        triple = cli.build_system(cfg)
        x = cli.build_initial(cfg, triple)
        grid, head = sf.time_grid(3.0, 0.125), 0
    else:
        sys0 = mixed_system(n_hist=16)
        triple = nt.build_perturbation(sys0)
        triple = sf.PerturbationTriple(triple.base, triple.control, 0.0 * triple.observe)
        x = nt.pack_initial(sys0, *neutral_initial(sys0, seed=4))
        grid, head = sf.time_grid(3.0, sys0.history_grid.step), sys0.dim
    orb = perturbed_orbit(triple, x, grid)
    ref = orbit_step_loop(triple.base, x, grid)
    if kind == "neutral":
        N, d = sys0.history_grid.count, sys0.dim
        for k in range(N + 1):
            ref[k, d * (N - k + 1): d * (N - k + 2)] += x.coords[-d:]
    assert_rows_are_windows(orb, orb.stride)
    assert orb.head == head
    assert np.array_equal(orb.states[1:, head:], ref[1:, head:])
    assert np.max(np.abs(orb.states[:, :head] - ref[:, :head]), initial=0.0) <= 1e-15
    norms = triple.base.space.rows_norm(ref)
    assert np.max(np.abs(orb.norms - norms)) <= 1e-14 * np.max(norms)


def test_control_track_assembles_no_state_rows():
    # the benchmark's neutral-admissibility system on [0, 2T], 2T = 20: the
    # control track's peak was 0.23 MB; (2561, 260) assembled state rows
    # would take 5.3 MB
    from semflow.admissibility import _control_track_norms

    cfg = {"system": {"kind": "neutral", "a": [[-1.0, 0.3], [0.0, -1.5]],
                      "c": [[0.5, 0.0], [0.1, 0.4]],
                      "p_atoms": [[-1.0, 0.3]], "p_density": [[-0.75, -0.25, 0.2]],
                      "k_atoms": [[-1.0, 0.25]], "k_density": [[-1.0, -0.5, 0.1]],
                      "history_steps": 128},
           "grid": {"step": 1.0 / 128, "horizon": 20.0}}
    triple = nt.build_perturbation(cli.build_system(cfg))
    grid = sf.time_grid(20.0, 1.0 / 128)
    u = sf.InputSignal(grid, np.ones((grid.count + 1, triple.u_dim)), triple.u_space)
    tracemalloc.start()
    try:
        norms = _control_track_norms(triple, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert norms.shape == (2561,)
    assert peak < 1e6


def test_unperturbed_translation_orbit_memory_does_not_scale_with_window_count():
    # the same system's base orbit at T = 80: windows of one trajectory too
    cfg = translation_cfg(80.0, 0.002, 4.0, {"f_kind": "exp", "amplitude": 1.0})
    target = cli.build_system(cfg)
    x = cli.build_initial(cfg, target)
    grid = sf.time_grid(80.0, 0.002)
    tracemalloc.start()
    try:
        orb = semigroups.orbit(target.base, x, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert orb.states.shape == (40001, 2001)
    assert np.shares_memory(orb.states, orb.trajectory)
    assert peak < 16e6


def test_orbit_csv_matches_row_loop_on_special_values(tmp_path):
    cfg = translation_cfg(2.0, 0.125, 2.0, {"f_kind": "values",
                                             "values": SPECIAL_VALUES})
    orb = translation_orbit(cfg)
    assert orb.trajectory is not None
    cli._orbit_csv(tmp_path / "fast.csv", orb)
    orbit_csv_rows_loop(tmp_path / "loop.csv", orb)
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "loop.csv").read_bytes()
    for token in (b",-0,", b"e-324,", b"e+22,", b"e-300,"):
        assert token in fast


def test_plain_csv_matches_row_loop_on_special_values(tmp_path):
    vals = np.array(SPECIAL_VALUES + [1e300, -1e300, np.inf, -np.inf, np.nan])
    columns = [np.arange(vals.size), vals, vals[::-1] * -3.0, list(vals)]
    header = ["k", "a", "b", "c"]
    cli.write_csv(tmp_path / "fast.csv", header, columns)
    csv_rows_loop(tmp_path / "loop.csv", header, columns)
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "loop.csv").read_bytes()
    for token in (b",-0,", b"e-324,", b"e+300,", b",inf,", b",nan,"):
        assert token in fast


def drawn_values(seed, count):
    """``count`` doubles: the special values and random ones of every
    magnitude, with inf and nan among them."""
    rng = np.random.default_rng(seed)
    pool = np.array(SPECIAL_VALUES + [1e300, -1e300, np.inf, -np.inf, np.nan])
    vals = rng.standard_normal(count) * 10.0 ** rng.integers(-320, 300, count)
    special = rng.random(count) < 0.3
    vals[special] = rng.choice(pool, int(special.sum()))
    return vals


CSV_SETTINGS = settings(max_examples=30, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow,
                                               HealthCheck.function_scoped_fixture])


# rows of about 24-byte cells: a few rows, or enough to fill several 256 KiB
# buffers of the writer
row_counts = st.one_of(st.integers(1, 40), st.integers(3000, 9000))


@CSV_SETTINGS
@given(seed=st.integers(0, 2 ** 16), rows=row_counts, stride=st.integers(1, 4),
       heads=st.integers(0, 3), width=st.integers(1, 12))
@example(seed=1, rows=9000, stride=4, heads=3, width=12)
@example(seed=2, rows=1, stride=1, heads=0, width=1)
def test_trajectory_csv_matches_row_loop(tmp_path, seed, rows, stride, heads, width):
    traj = drawn_values(seed, (rows - 1) * stride + width)
    windows = np.lib.stride_tricks.sliding_window_view(traj, width)[::stride]
    assert windows.shape == (rows, width)
    columns = [drawn_values(seed + 1 + j, rows) for j in range(heads)] + list(windows.T)
    header = [f"c{j}" for j in range(heads + width)]
    cli.write_csv(tmp_path / "fast.csv", header, columns, trajectory=traj, stride=stride)
    csv_rows_loop(tmp_path / "loop.csv", header, columns)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def plain_table_shape(ncols):
    """(ncols, rows): row counts at the edges of the writer's block of
    rows, within its first four blocks, or larger."""
    block = cli._FORMAT_BLOCK // ncols
    return st.tuples(st.just(ncols),
                     st.one_of(st.sampled_from([0, 1, block - 1, block, block + 1]),
                               st.integers(0, 4 * block), st.integers(6000, 12000)))


@CSV_SETTINGS
@given(seed=st.integers(0, 2 ** 16), shape=st.integers(1, 5).flatmap(plain_table_shape))
@example(seed=3, shape=(5, 12001))
@example(seed=4, shape=(7, cli._FORMAT_BLOCK // 7 + 1))
def test_plain_csv_matches_row_loop(tmp_path, seed, shape):
    ncols, rows = shape
    columns = [drawn_values(seed + j, rows) for j in range(ncols)]
    header = [f"c{j}" for j in range(ncols)]
    cli.write_csv(tmp_path / "fast.csv", header, columns)
    csv_rows_loop(tmp_path / "loop.csv", header, columns)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def test_neutral_orbit_csvs_match_row_loop(tmp_path):
    cfg = {
        "system": {"kind": "neutral", "a": [[-1.0, 0.3], [0.0, -1.5]],
                   "c": [[0.5, 0.0], [0.1, 0.4]],
                   "p_atoms": [[-1.0, 0.3]], "p_density": [[-0.75, -0.25, 0.2]],
                   "k_atoms": [[-1.0, 0.25]], "k_density": [[-1.0, -0.5, 0.1]],
                   "history_steps": 16},
        "grid": {"step": 0.0625, "horizon": 2.0},
        "initial": {"f_kind": "cosine"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    target = cli.build_system(cfg)
    initial = cli.build_initial(cfg, target)
    grid = sf.time_grid(2.0, 0.0625)
    orbits = {"orbit_formula": nt.neutral_orbit(target, initial, grid).orbit,
              "orbit_oracle": nt.method_of_steps(target, initial, grid)}
    for name, orb in orbits.items():
        assert orb.stride == 2
        orbit_csv_rows_loop(tmp_path / f"{name}_loop.csv", orb)
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / f"{name}_loop.csv").read_bytes()


def test_orbit_csv_goes_through_write_csv(tmp_path, monkeypatch):
    # the traced benchmark layer reads the path and the columns of write_csv
    calls = []
    write_csv = cli.write_csv

    def spy(*args, **kwargs):
        calls.append(args)
        return write_csv(*args, **kwargs)

    monkeypatch.setattr(cli, "write_csv", spy)
    cfg = translation_cfg(3.0, 0.125, 2.0, {"f_kind": "exp", "amplitude": 1.0})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    (args,) = calls
    N, n = 16, 24
    assert args[0] == tmp_path / "orbit.csv"
    assert len(args[1]) == N + 3 and len(args[2]) == N + 3
    assert all(len(col) == n + 1 for col in args[2])
