"""The semigroup law of the perturbed semigroup T_BC on every base, checked
on drawn triples and states through the Direct and the Neumann route.

Restarting the orbit from its state at s gives the orbit from x shifted by
s: T_BC(t) T_BC(s) x = T_BC(t + s) x at grid times.  On a translation base
this holds only because the orbit holds w_0 at s + t = 0: the input-output
map reads that boundary value, so the restarted loop observes it.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import semflow as sf
from semflow import neutral as nt
from test_matrix_properties import triples as matrix_triples
from test_neutral_properties import systems as neutral_systems
from test_translation_properties import delay_lines

METHODS = [sf.DirectSolve(), sf.Neumann()]
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def cases(draw):
    """(triple, state, step) on a drawn matrix, translation or neutral base,
    the state's coordinates uniform in [-2, 2]."""
    kind = draw(st.sampled_from(["matrix", "translation", "neutral"]), label="kind")
    if kind == "matrix":
        triple, h = draw(matrix_triples()), 0.01
    elif kind == "translation":
        triple = draw(delay_lines())[0]
        h = triple.base_step
    else:
        triple = nt.build_perturbation(draw(neutral_systems))
        h = triple.base_step
    seed = draw(st.integers(0, 2 ** 16), label="seed")
    coords = np.random.default_rng(seed).uniform(-2.0, 2.0, triple.base.space.dim)
    return triple, sf.StateVector(coords, triple.base.space), h


def _restart_defect(triple, x, h, i, j, method):
    """sup over k <= j of |T_BC(t_k) T_BC(t_i) x - T_BC(t_i + t_k) x|, and
    the sup of the orbit's states."""
    whole = sf.perturbed_orbit(triple, x, sf.Grid(0.0, h, i + j), method)
    restart = sf.perturbed_orbit(triple, whole.state(i), sf.Grid(0.0, h, j), method)
    return (float(np.max(np.abs(restart.states - whole.states[i:]))),
            float(np.max(np.abs(whole.states))))


@SETTINGS
@given(case=cases(), i=st.integers(1, 40), j=st.integers(1, 40),
       method=st.sampled_from(METHODS))
def test_perturbed_semigroup_law_at_grid_times(case, i, j, method):
    triple, x, h = case
    if isinstance(method, sf.Neumann):
        for n in (i + j, j):
            assume(sf.estimate_io_norm(triple, n * h, step=h) < 0.9)
    defect, scale = _restart_defect(triple, x, h, i, j, method)
    # the series stops at tol 1e-10, the Direct loops differ by round-off
    # (measured at most 1.2e-10 and 5.3e-16 relative over 300 examples)
    tol = 1e-12 if isinstance(method, sf.DirectSolve) else 1e-8
    assert defect <= tol * max(1.0, scale)


@pytest.mark.parametrize("method", METHODS, ids=["direct", "neumann"])
def test_perturbed_semigroup_law_on_a_delay_line(method):
    # L = 3, h = 0.01, t = s = 1.5: the atom at -1 reads w_0 from t = 1 on
    # (measured 0 with Direct and 1.7e-16 with Neumann, on states up to 0.98)
    g = sf.Grid(-3.0, 0.01, 300)
    mu = sf.MeasureSpec(atoms=((-1.0, 0.5),), density=((-2.5, -0.5, 0.1),))
    triple = sf.PerturbationTriple(sf.LeftTranslation(g),
                                   sf.DirichletControl(sf.DirichletSpec(1.0)),
                                   mu.observation_row(g))
    s = g.points()
    x = sf.StateVector.grid_function(np.exp(s) * (1.0 + 0.3 * np.sin(3.0 * s)), g)
    defect, scale = _restart_defect(triple, x, 0.01, 150, 150, method)
    assert defect <= 1e-14 * scale
