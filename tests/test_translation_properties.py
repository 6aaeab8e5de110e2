"""Structural laws of the boundary-controlled translation, checked on drawn
delay lines.

The observation reads the profile at lags j >= m steps, where the smallest
delay m is drawn anywhere from one step to the whole window, so the blocked
kernels run with blocks of every length.  The discrete input-output map F is
strictly causal: an impulse at step k leaves the output at zero up to step
k + m - 1.  Forward substitution for (I - F) w = v agrees with the Neumann
series whenever F is a contraction.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import semflow as sf

N = 40     # window [-L, 0] in steps
STEP = 0.05
HORIZON = 3.0  # 60 steps: one block or several, as m varies

weights = st.floats(-0.4, 0.4, allow_nan=False, allow_infinity=False)


@st.composite
def delay_lines(draw):
    """(triple, m, lag): an observation row with weight lag[j] at s = -j h,
    zero below the smallest delay m (and at s = 0) and nonzero at m."""
    m = draw(st.integers(1, N), label="m")
    lag = np.zeros(N + 1)
    lag[m] = draw(weights.filter(lambda w: abs(w) > 1e-3), label="lag[m]")
    for j in draw(st.lists(st.integers(m, N), max_size=4), label="taps"):
        lag[j] = draw(weights)
    base = sf.LeftTranslation(sf.Grid(-N * STEP, STEP, N))
    triple = sf.PerturbationTriple(base, sf.DirichletControl(sf.DirichletSpec(1.0)),
                                   lag[::-1][None, :])
    return triple, m, lag


SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(line=delay_lines(), data=st.data())
def test_impulse_moves_output_only_after_the_smallest_delay(line, data):
    triple, m, lag = line
    grid = sf.time_grid(HORIZON, STEP)
    k = data.draw(st.integers(0, grid.count), label="k")
    u = np.zeros((grid.count + 1, 1))
    u[k, 0] = 1.0
    out = sf.io_map(triple, grid.end, sf.InputSignal(grid, u, triple.u_space)).values[:, 0]
    assert np.all(out[: k + m] == 0.0)
    # the impulse arrives m steps later, weighted by the newest tap
    if k + m <= grid.count:
        assert out[k + m] == lag[m]


@SETTINGS
@given(line=delay_lines(), seed=st.integers(0, 2 ** 16))
def test_direct_equals_neumann_when_contractive(line, seed):
    triple, _, _ = line
    grid = sf.time_grid(HORIZON, STEP)
    est = sf.estimate_io_norm(triple, grid.end, step=grid.step)
    assume(est < 0.9)
    vals = np.random.default_rng(seed).standard_normal((grid.count + 1, 1))
    v = sf.InputSignal(grid, vals, triple.u_space)
    direct = sf.invert_io(triple, grid.end, v, sf.DirectSolve()).values
    neumann = sf.invert_io(triple, grid.end, v, sf.Neumann(tol=1e-12),
                           contraction_estimate=est).values
    assert np.max(np.abs(direct - neumann)) <= 1e-8 * np.max(np.abs(vals))
