"""The kernels must agree with independent implementations.

The matrix kernels are one vectorized scan on every backend; they are checked
against the sequential loops in ``oracles.py``.  The delay-line and neutral
kernels are checked against the explicit-loop ``_*_nb`` functions, called
uncompiled: where numba runs they check the compiled twins, elsewhere the
numpy fallbacks.  ``test_backend_selection_reported`` checks which backend
runs.
"""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import semflow
from semflow import _kernels as K
from semflow.core import matexp

from oracles import (causal_scan_loop, matrix_volterra_apply_loop,
                     matrix_volterra_solve_loop)

MATRIX_KERNELS = ("matrix_volterra_apply", "matrix_volterra_solve")
TABLE_KERNELS = ("delay_volterra_apply", "delay_volterra_solve",
                 "neutral_feedback_loop", "neutral_volterra_apply", "mos_loop")


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(17)
    h = 1e-3
    d = 2
    a = np.array([[-1.0, 0.3], [-0.1, -2.0]])
    e = matexp(a, h)
    b = rng.standard_normal((d, d))
    c = 0.3 * rng.standard_normal((d, d))
    return rng, h, d, e, b, c


def test_matrix_kernels_agree(data):
    rng, h, d, e, b, c = data
    u = rng.standard_normal((400, d))
    fast = K.matrix_volterra_apply(e, b, c, u, h)
    loop = matrix_volterra_apply_loop(e, b, c, u, h)
    assert np.max(np.abs(fast - loop)) <= 1e-14
    wf, btf = K.matrix_volterra_solve(e, b, c, u, h)
    wl, btl = matrix_volterra_solve_loop(e, b, c, u, h)
    assert np.max(np.abs(wf - wl)) <= 1e-14
    assert np.max(np.abs(btf - btl)) <= 1e-14


@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 4097])
def test_matrix_scan_lengths(n, d):
    # lengths around the powers of two the doubling scan steps through
    rng = np.random.default_rng(1000 * d + n)
    h = 1e-3
    e = matexp(-np.eye(d) + 0.3 * rng.standard_normal((d, d)), h)
    b = rng.standard_normal((d, d))
    c = 0.3 * rng.standard_normal((d, d))
    u = rng.standard_normal((n, d))
    out = K.matrix_volterra_apply(e, b, c, u, h)
    assert out.shape == (n, d)
    assert np.max(np.abs(out - matrix_volterra_apply_loop(e, b, c, u, h))) <= 1e-14
    w, bt = K.matrix_volterra_solve(e, b, c, u, h)
    wl, btl = matrix_volterra_solve_loop(e, b, c, u, h)
    assert w.shape == (n, d) and bt.shape == (n, d)
    assert np.max(np.abs(w - wl)) <= 1e-14
    assert np.max(np.abs(bt - btl)) <= 1e-14
    # non-square control and observation: d states, d + 1 inputs, 2 outputs
    bn = rng.standard_normal((d, d + 1))
    cn = 0.3 * rng.standard_normal((2, d))
    un = rng.standard_normal((n, d + 1))
    outn = K.matrix_volterra_apply(e, bn, cn, un, h)
    assert outn.shape == (n, 2)
    assert np.max(np.abs(outn - matrix_volterra_apply_loop(e, bn, cn, un, h))) <= 1e-14
    # the base orbit: no forcing, nonzero initial state; both sides round off
    # once per step on O(1) states, hence the looser pin
    x = rng.uniform(0.5, 2.0, size=d)
    zero = np.zeros((n, d))
    assert np.max(np.abs(K.causal_scan(e, zero, x) - causal_scan_loop(e, zero, x))) <= 1e-13


def test_delay_kernels_agree(data):
    rng = data[0]
    lag = np.zeros(81)
    lag[80] = 0.6
    lag[1:40] = 1e-3 * rng.standard_normal(39)
    v = rng.standard_normal(500)
    assert np.max(np.abs(K.delay_volterra_apply(lag, v)
                         - K._delay_volterra_apply_nb(lag, v))) <= 1e-13
    assert np.max(np.abs(K.delay_volterra_solve(lag, v)
                         - K._delay_volterra_solve_nb(lag, v))) <= 1e-13


def test_neutral_kernels_agree(data):
    rng, h, d, e, b, c = data
    N = 48
    prow = np.zeros((N, d, d))
    prow[0] = 0.3 * np.eye(d)
    prow[7] = 0.05 * rng.standard_normal((d, d))
    krow = np.zeros((N, d, d))
    krow[0] = 0.25 * np.eye(d)
    f0 = rng.standard_normal((N + 1, d))
    y = rng.standard_normal(d)
    n = 300
    fast = K.neutral_feedback_loop(e, c, prow, krow, f0, y, h, n)
    loop = K._neutral_feedback_loop_nb(e, c, prow, krow, f0, y, h, n)
    for a_, b_ in zip(fast, loop):
        assert np.max(np.abs(a_ - b_)) <= 1e-12
    u1 = rng.standard_normal((n + 1, d))
    u2 = rng.standard_normal((n + 1, d))
    fa = K.neutral_volterra_apply(e, c, prow, krow, u1, u2, h)
    la = K._neutral_volterra_apply_nb(e, c, prow, krow, u1, u2, h)
    for a_, b_ in zip(fa, la):
        assert np.max(np.abs(a_ - b_)) <= 1e-12
    fm = K.mos_loop(e, c, prow, krow, f0, y, h, n)
    lm = K._mos_loop_nb(e, c, prow, krow, f0, y, h, n)
    for a_, b_ in zip(fm, lm):
        assert np.max(np.abs(a_ - b_)) <= 1e-12


# run in a fresh process: the backend is chosen when semflow._kernels is imported
BACKEND_PROBE = """
import json, types
from semflow import _kernels as K
table = K.COMPILED if K.NUMBA_ENABLED else K.PLAIN
print(json.dumps({
    "disabled": K.NUMBA_DISABLED, "enabled": K.NUMBA_ENABLED,
    "delay_solve_from_table": K.delay_volterra_solve is table["delay_volterra_solve"],
    "delay_solve_plain": K.delay_volterra_solve is K.PLAIN["delay_volterra_solve"],
    "matrix_scan": [type(getattr(K, n)) is types.FunctionType
                    and "causal_scan" in getattr(K, n).__code__.co_names
                    and n not in K.PLAIN and n not in K.COMPILED
                    for n in ("matrix_volterra_apply", "matrix_volterra_solve")],
}))
"""


def _probe_backend(flag):
    env = dict(os.environ, SEMFLOW_DISABLE_NUMBA=flag,
               PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", BACKEND_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_backend_selection_reported():
    # the backend flags must tell the truth about which kernels run: numba is
    # used only when it is importable and not disabled by the environment
    flag = os.environ.get("SEMFLOW_DISABLE_NUMBA", "").strip().lower()
    assert K.NUMBA_DISABLED == (flag in {"1", "true", "yes", "on"})
    numba_found = importlib.util.find_spec("numba") is not None
    assert K.NUMBA_ENABLED == (not K.NUMBA_DISABLED and numba_found)
    assert semflow.NUMBA_ENABLED == K.NUMBA_ENABLED
    assert bool(K.COMPILED) == K.NUMBA_ENABLED
    # numba only ever compiles the delay-line and neutral loops
    assert set(K.PLAIN) == set(TABLE_KERNELS)
    assert set(K.COMPILED) <= set(TABLE_KERNELS)
    chosen = K.COMPILED if K.NUMBA_ENABLED else K.PLAIN
    for name in TABLE_KERNELS:
        assert getattr(K, name) is chosen[name], name
    # the matrix kernels are the one scan implementation on every backend
    for name in MATRIX_KERNELS:
        fn = getattr(K, name)
        assert fn.__module__ == "semflow._kernels", name
        assert "causal_scan" in fn.__code__.co_names, name

    # the forced fallback is read at import, so check it in a fresh process,
    # and check that the flag leaves the matrix kernels alone either way
    forced = _probe_backend("1")
    assert forced == {"disabled": True, "enabled": False,
                      "delay_solve_from_table": True, "delay_solve_plain": True,
                      "matrix_scan": [True, True]}
    free = _probe_backend("0")
    assert free["disabled"] is False
    assert free["enabled"] == numba_found
    assert free["delay_solve_from_table"] is True
    assert free["delay_solve_plain"] is (not numba_found)
    assert free["matrix_scan"] == [True, True]


def test_strict_causality_of_discrete_io():
    # the discrete input-output map has zero instantaneous term: a unit
    # impulse at k produces output only at indices > k
    e = matexp(np.array([[-1.0]]), 1e-2)
    u = np.zeros((50, 1))
    u[20] = 1.0
    out = K.matrix_volterra_apply(e, np.eye(1), np.eye(1), u, 1e-2)
    assert np.all(out[:21] == 0.0)
    assert out[21, 0] != 0.0
