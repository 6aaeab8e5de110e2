"""Structural laws of the neutral feedback pair, checked on drawn systems.

The discrete input-output map F is strictly causal, so an impulse at step k
moves the output only after k, and forward substitution for (I - F) w = v
agrees with the Neumann series whenever F is a contraction.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import semflow as sf
from semflow import neutral as nt
from helpers import mixed_system

weights = st.floats(-0.4, 0.4, allow_nan=False, allow_infinity=False)
systems = st.builds(mixed_system, p=weights, k=weights, p_density=weights,
                    k_density=weights, q=st.floats(0.2, 1.0),
                    n_hist=st.sampled_from([8, 13, 16]),
                    a=st.sampled_from([((-1.0, 0.3), (0.0, -1.5)),
                                       ((0.2, -1.0), (1.0, 0.2))]))
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(sys0=systems, data=st.data())
def test_impulse_moves_output_only_after_its_step(sys0, data):
    triple = nt.build_perturbation(sys0)
    grid = sf.time_grid(2.0, sys0.history_grid.step)
    k = data.draw(st.integers(0, grid.count - 1), label="k")
    channel = data.draw(st.integers(0, 3), label="channel")
    u = np.zeros((grid.count + 1, 4))
    u[k, channel] = 1.0
    out = sf.io_map(triple, grid.end, sf.InputSignal(grid, u, triple.u_space)).values
    assert np.all(out[: k + 1] == 0.0)
    # through C every impulse in the matrix channel reaches the output
    if channel < 2:
        assert np.any(out[k + 1:] != 0.0)


@SETTINGS
@given(sys0=systems, seed=st.integers(0, 2 ** 16))
def test_direct_equals_neumann_when_contractive(sys0, seed):
    triple = nt.build_perturbation(sys0)
    grid = sf.time_grid(2.0, sys0.history_grid.step)
    est = sf.estimate_io_norm(triple, grid.end, step=grid.step)
    assume(est < 0.9)
    vals = np.random.default_rng(seed).standard_normal((grid.count + 1, 4))
    v = sf.InputSignal(grid, vals, triple.u_space)
    direct = sf.invert_io(triple, grid.end, v, sf.DirectSolve()).values
    neumann = sf.invert_io(triple, grid.end, v, sf.Neumann(tol=1e-12),
                           contraction_estimate=est).values
    assert np.max(np.abs(direct - neumann)) <= 1e-8 * np.max(np.abs(vals))
