"""Structural laws of the asymptotic checkers, checked on drawn orbits.

Every threshold is relative to the orbit's own scale, so scaling an orbit by
a positive factor never changes a verdict.  The trailing window is absolute,
so a PASS on a left-shifted orbit implies a PASS on the full orbit: the
translation biinvariance that the robustness theory requires.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import semflow as sf
from semflow import asymptotics as asy
from semflow.semigroups import orbit_from_states
from oracles import one_orbit, shift_orbit

GRID = sf.time_grid(40.0, 0.02)
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
seeds = st.integers(0, 2 ** 16)


def zoo(seed):
    """One synthetic orbit of each of the eight shapes."""
    return asy.synthetic_orbits(8, GRID, seed=seed)


def checkers(tail_window):
    cfg = asy.RobustnessConfig(tail_window=tail_window)
    return {p: one_orbit(asy.make_checker(p, cfg, 2)) for p in asy.PROPERTIES}


@SETTINGS
@given(seed=seeds, factor=st.floats(1e-6, 1e6), tail=st.floats(0.5, 20.0))
def test_scaling_never_changes_a_verdict(seed, factor, tail):
    chk = checkers(tail)
    for i, orb in enumerate(zoo(seed)):
        scaled = orbit_from_states(orb.grid, factor * orb.states, orb.space)
        for name, ch in chk.items():
            assert ch(scaled).verdict == ch(orb).verdict, (name, i)


@SETTINGS
@given(seed=seeds, shift_steps=st.integers(1, 1000), data=st.data())
def test_shifted_pass_implies_full_pass(seed, shift_steps, data):
    b = shift_steps * GRID.step
    # the trailing window fits inside the shifted orbit, as in the harness
    tail = data.draw(st.floats(0.5, 0.5 * (GRID.end - b)), label="tail")
    chk = checkers(tail)
    for i, orb in enumerate(zoo(seed)):
        shifted = shift_orbit(orb, b)
        for name, ch in chk.items():
            if ch(shifted).verdict == "PASS":
                assert ch(orb).verdict == "PASS", (name, i)
