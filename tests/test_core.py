import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import semflow as sf
from semflow.core import Draws, row_sup
from semflow.errors import DimensionError, DomainError, FrozenRecordError, GridAlignmentError
from helpers import scalar_signal


def test_grid_basics():
    g = sf.Grid(0.0, 0.5, 4)
    assert g.end == 2.0
    assert np.allclose(g.points(), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert g.index_of(1.5) == 3
    with pytest.raises(GridAlignmentError):
        g.index_of(0.3)
    with pytest.raises(GridAlignmentError):
        g.index_of(2.5)
    with pytest.raises(DomainError):
        sf.Grid(0.0, -0.1, 3)
    with pytest.raises(DomainError):
        sf.Grid(0.0, 0.1, 0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: sf.Grid(NAN, 0.1, 10),
    lambda: sf.Grid(0.0, INF, 10),
    lambda: sf.Grid(0.0, 0.1, NAN),
    lambda: sf.MatrixSemigroup([[NAN]]),
    lambda: sf.StateVector.sup([NAN]),
    lambda: sf.StateVector.grid_function([0.0, INF], sf.Grid(-1.0, 1.0, 1)),
    lambda: sf.MeasureSpec(atoms=((NAN, 1.0),)),
    lambda: sf.MeasureSpec(atoms=((-1.0, INF),)),
    lambda: sf.MeasureSpec(density=((-1.0, -0.5, NAN),)),
], ids=["grid-start", "grid-step", "grid-count", "generator", "sup-state", "grid-function",
        "atom-location", "atom-weight", "density-value"])
def test_non_finite_input_rejected_at_construction(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("count,step", [(7, 0.1), (100, 1e-3), (1, 2.0)])
def test_grid_weights_sum(count, step):
    g = sf.Grid(0.0, step, count)
    total = count * step
    assert abs(g.trapezoid_weights().sum() - total) <= 1e-12 * total
    assert np.all(g.trapezoid_weights() >= 0)


def test_matexp_identity_at_zero():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(sf.matexp(a, 0.0), np.eye(2))
    assert np.allclose(sf.matexp(0.0 * a, 1.0), np.eye(2))


@pytest.mark.parametrize("a, t", [(1e308, 2.0), (-1e308, 1.0), (1e308, 1.0)])
def test_matexp_out_of_range_norm_raises_domain_error(a, t):
    # ||t*a|| is inf, or too large for the 2^-s scaling to be a float; the
    # error is the only report, with no overflow warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="matrix exponential out of range"):
            sf.matexp(np.array([[a]]), t)
    # the largest norm it accepts still scales: exp(-2^1022) underflows to 0
    assert sf.matexp(np.array([[-(2.0 ** 1022)]]), 1.0)[0, 0] == 0.0


def test_matexp_scalar_series_oracle():
    # independent oracle: partial sums of the exponential series
    val = sum(pow(-1.0, n) / math.factorial(n) for n in range(30))
    assert sf.matexp(np.array([[-1.0]]), 1.0)[0, 0] == pytest.approx(val, abs=1e-14)
    assert sf.matexp(np.array([[-1.0]]), 1.0)[0, 0] == pytest.approx(
        0.36787944117144233, abs=1e-12)


def test_matexp_rotation_closed_form():
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.max(np.abs(sf.matexp(j, np.pi) - (-np.eye(2)))) <= 1e-9
    # arbitrary angle against cos/sin
    th = 0.7
    expected = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert np.allclose(sf.matexp(j, th), expected, atol=1e-12)


def test_matexp_semigroup_law_and_scipy_cross_check():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.standard_normal((4, 4))
        a *= 5.0 / (np.max(np.abs(a)) * 4 * 2.0)  # keep ||A||*(s+t) <= 10
        s, t = 0.7, 1.3
        lhs = sf.matexp(a, s) @ sf.matexp(a, t)
        rhs = sf.matexp(a, s + t)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9
        assert np.max(np.abs(sf.matexp(a, t) - scipy.linalg.expm(t * a))) <= 1e-11


def test_matexp_rejects_bad_input():
    with pytest.raises(DimensionError):
        sf.matexp(np.ones((2, 3)), 1.0)
    with pytest.raises(DomainError):
        sf.matexp(np.eye(2), -0.5)


# the trapezoid L1 norm of a signal is the composite-trapezoid rule

def test_quad_constant_and_affine_exact():
    g = sf.Grid(0.0, 0.5, 4)
    assert g.trapezoid_weights() @ np.ones(5) == pytest.approx(2.0, abs=1e-14)
    g2 = sf.Grid(0.0, 0.25, 4)
    assert scalar_signal(g2, g2.points()).l1_norm() == pytest.approx(0.5, abs=1e-14)


def test_quad_exponential_analytic():
    g = sf.Grid(0.0, 2.0 ** -10, 2 ** 10)
    integral = scalar_signal(g, np.exp(-g.points())).l1_norm()
    assert integral == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)
    assert integral == pytest.approx(0.63212056, abs=1e-6)


def test_quad_second_order_convergence():
    exact = 1.0 - math.exp(-1.0)
    errs = []
    for n in (64, 128, 256):
        g = sf.Grid(0.0, 1.0 / n, n)
        errs.append(abs(scalar_signal(g, np.exp(-g.points())).l1_norm() - exact))
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(order) >= 1.9


def test_quad_length_mismatch():
    with pytest.raises(DimensionError):
        sf.InputSignal(sf.Grid(0.0, 0.5, 4), np.ones((4, 1)), sf.SupSpace(1))


def test_norm_axioms_on_random_vectors():
    rng = np.random.default_rng(7)
    spaces = [sf.SupSpace(5), sf.L1Space(sf.Grid(-1.0, 0.25, 4), point_dim=1)]
    for space in spaces:
        for _ in range(50):
            x = rng.standard_normal(space.dim)
            y = rng.standard_normal(space.dim)
            c = rng.uniform(-3, 3)
            assert space.norm(x + y) <= space.norm(x) + space.norm(y) + 1e-12
            assert space.norm(c * x) == pytest.approx(abs(c) * space.norm(x),
                                                      rel=1e-12, abs=1e-15)
        assert space.norm(np.zeros(space.dim)) == 0.0


def test_l1_norm_left_endpoint_convention():
    g = sf.Grid(-1.0, 0.25, 4)
    space = sf.L1Space(g)
    vals = np.array([1.0, 1.0, 1.0, 1.0, 100.0])  # endpoint carries no weight
    assert space.norm(vals) == pytest.approx(1.0)


def test_norm_positive_definite():
    x = sf.StateVector.sup([0.0, 0.0])
    assert x.norm() == 0.0
    y = sf.StateVector.sup([0.0, 1e-300])
    assert y.norm() > 0.0


def test_product_space_norm_is_sum():
    p = sf.ProductSpace((sf.SupSpace(2), sf.SupSpace(3)))
    v = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    assert p.norm(v) == pytest.approx(2.0 + 3.0)


def test_input_signal_l1_and_running():
    g = sf.time_grid(1.0, 0.25)
    u = scalar_signal(g, [0.0, 1.0, 1.0, 1.0, 0.0])
    assert u.l1_norm() == pytest.approx(0.75)
    run = u.running_l1()
    assert run[0] == 0.0
    assert run[-1] == pytest.approx(u.l1_norm())
    assert np.all(np.diff(run) >= -1e-15)


# every finite float (zeros of both signs, subnormals) plus both infinities and
# NaN of both signs
row_values = st.floats(allow_nan=False) | st.sampled_from([np.nan, -np.nan])


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=8),
                  elements=row_values))
def test_row_sup_is_max_abs_over_the_last_axis_bit_for_bit(a):
    assert row_sup(a).tobytes() == np.max(np.abs(a), axis=-1).tobytes()


def test_row_sup_propagates_nan_of_any_payload():
    # numpy leaves the payload of a NaN result unspecified (np.max returns
    # the canonical NaN on some paths), so only where NaN lands is compared
    rng = np.random.default_rng(3)
    a = rng.standard_normal((50, 7))
    bits = a.view(np.uint64)
    mask = rng.random(a.shape) < 0.1
    payloads = rng.integers(1, 2 ** 52, size=int(mask.sum()), dtype=np.uint64)
    bits[mask] = np.uint64(0x7FF0000000000000) | payloads
    ref = np.max(np.abs(a), axis=-1)
    got = row_sup(a)
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    assert np.any(np.isnan(ref)) and not np.all(np.isnan(ref))
    assert got[~np.isnan(ref)].tobytes() == ref[~np.isnan(ref)].tobytes()


def test_row_sup_of_a_zero_width_axis_is_zero():
    assert np.array_equal(row_sup(np.zeros((3, 0))), np.zeros(3))
    assert np.array_equal(row_sup(np.zeros((2, 4, 0))), np.zeros((2, 4)))
    assert np.array_equal(sf.SupSpace(0).rows_norm(np.zeros((5, 0))), np.zeros(5))


# ---------------------------------------------------------------------------
# Record: the immutable base of every value type
# ---------------------------------------------------------------------------

def test_record_binds_positional_keyword_and_default_arguments():
    g = sf.Grid(-1.0, 0.25, 4)
    assert sf.Grid(start=-1.0, step=0.25, count=4) == g
    assert sf.Grid(-1.0, count=4, step=0.25) == g
    assert (g.start, g.step, g.count) == (-1.0, 0.25, 4)
    assert sf.L1Space(g).point_dim == 1
    assert sf.L1Space(g, point_dim=2).point_dim == 2
    assert sf.Neumann() == sf.Neumann(1e-10, 300)

    class Labelled(sf.Grid):  # a subclass adds its fields after its bases'
        label: str = "t"

    lab = Labelled(0, 0.5, np.int64(4), label="s")
    assert lab._asdict() == {"start": 0, "step": 0.5, "count": 4, "label": "s"}
    assert lab != sf.Grid(0, 0.5, 4) and Labelled(0, 0.5, 4).label == "t"


@pytest.mark.parametrize("build, words", [
    (lambda: sf.Grid(0.0, 0.5), "missing arguments ['count']"),
    (lambda: sf.Grid(0.0, step=0.5), "missing arguments ['count']"),
    (lambda: sf.Grid(0.0, 0.5, 4, extra=1), "unexpected arguments ['extra']"),
    (lambda: sf.Grid(0.0, 0.5, 4, 1), "takes 3 arguments, got 4"),
    (lambda: sf.Grid(0.0, 0.5, start=1.0, count=4), "multiple values for ['start']"),
    # a derived field is no argument, and neither are Space's annotations
    (lambda: sf.NilpotentShift(sf.Grid(-1.0, 0.5, 2), 1, None), "takes 2 arguments"),
    (lambda: sf.BlockDiag((), space=None), "unexpected arguments ['space']"),
    (lambda: sf.L1Space(sf.Grid(-1.0, 0.5, 2), dim=3), "unexpected arguments ['dim']"),
], ids=["missing", "missing-keyword", "unknown", "too-many", "twice", "derived-positional",
        "derived-keyword", "base-annotation"])
def test_record_rejects_a_missing_or_unknown_argument(build, words):
    with pytest.raises(TypeError, match=re.escape(words)):
        build()


def test_record_runs_post_init_validation_and_normalisation():
    g = sf.Grid(0, 0.1, np.int64(10))
    assert g.count == 10 and type(g.count) is int and type(g.start) is float
    assert sf.NilpotentShift(sf.Grid(-1.0, 0.5, 2)).space == sf.L1Space(sf.Grid(-1.0, 0.5, 2))
    for count in (2.5, 10.0, True):
        with pytest.raises(DomainError, match="^grid count must be an integer >= 1, got "):
            sf.Grid(0.0, 0.1, count)


def test_record_assignment_and_deletion_raise():
    g = sf.Grid(0.0, 0.5, 4)
    for act in (lambda: setattr(g, "count", 5), lambda: setattr(g, "other", 1),
                lambda: delattr(g, "step")):
        with pytest.raises(FrozenRecordError, match="Grid is immutable"):
            act()
    with pytest.raises(AttributeError):
        g.count = 5
    assert (g.start, g.step, g.count) == (0.0, 0.5, 4)


def test_record_equality_and_hash_read_the_fields_within_one_class():
    a, b = sf.Grid(0.0, 0.5, 4), sf.Grid(0.0, 0.5, 4)
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != sf.Grid(0.0, 0.5, 5)
    assert len({a, b, sf.Grid(0.0, 0.5, 5)}) == 2
    # the same field values in two classes: a grid on [-1, 0] suits both shifts
    grid = sf.Grid(-1.0, 0.25, 4)
    nil, left = sf.NilpotentShift(grid), sf.LeftTranslation(grid)
    assert nil._asdict() == left._asdict()
    assert nil != left and not nil == left
    assert sf.NilpotentShift(grid) == nil and hash(sf.NilpotentShift(grid)) == hash(nil)
    assert repr(a) == "Grid(start=0.0, step=0.5, count=4)"


def test_record_replace_validates_again_and_asdict_lists_every_field():
    g = sf.Grid(0.0, 0.5, 4)
    assert g._replace(count=8) == sf.Grid(0.0, 0.5, 8) and g.count == 4
    with pytest.raises(DomainError):
        g._replace(step=-1.0)
    with pytest.raises(TypeError, match="unexpected arguments"):
        g._replace(stop=1.0)
    assert g._asdict() == {"start": 0.0, "step": 0.5, "count": 4}
    shift = sf.NilpotentShift(sf.Grid(-1.0, 0.5, 2))
    assert list(shift._asdict()) == ["grid", "point_dim", "space"]
    assert shift._replace(point_dim=2).space.point_dim == 2


# the first draws at seed 42, each from a fresh Draws(42): a change of the
# stream changes every seeded artifact, so it must show here
FIRST_NORMALS_42 = [-0.025782131047077706, -0.48517660063764,
                    0.4794402871923617, 0.5761298609166067]
FIRST_UNIFORMS_42 = [0.11133107534596387, 0.7415505040029554,
                     0.24489185592975216, 0.13953792518545183]


def test_draws_pin_the_first_values_at_seed_42():
    assert Draws(42).standard_normal(4).tolist() == FIRST_NORMALS_42
    draws = Draws(42)
    assert [draws.uniform(0.0, 1.0) for _ in range(4)] == FIRST_UNIFORMS_42


def test_draws_repeat_at_one_seed_and_differ_at_another():
    def stream(seed):
        d = Draws(seed)
        return d.standard_normal((5, 3)), d.uniform(-1.0, 1.0), d.standard_normal(7)
    a, b, c = stream(42), stream(42), stream(7)
    for x, y, z in zip(a, b, c):
        assert np.array_equal(x, y)
        assert not np.array_equal(x, z)


@pytest.mark.parametrize("shape", [1, 3, 4, (5,), (8001, 4), (3, 7), (2, 3, 5)])
def test_draws_have_the_shape_asked_for(shape):
    z = Draws(1).standard_normal(shape)
    assert z.shape == ((shape,) if isinstance(shape, int) else shape)
    assert z.dtype == np.float64 and np.all(np.isfinite(z))


@pytest.mark.parametrize("low, high", [(0.0, 1.0), (0.1, 0.6), (-2.5, 3.0), (3.0, 40.0)])
def test_uniform_stays_in_the_half_open_interval(low, high):
    draws = Draws(3)
    u = [draws.uniform(low, high) for _ in range(10_000)]
    assert low <= min(u) and max(u) < high
    # the extreme words: all zero bits give low, all one bits stay below
    # high, where low + (high - low) * (1 - 2**-53) may round up to it
    draws._bits = bytes  # 8 zero bytes
    assert draws.uniform(low, high) == low
    draws._bits = lambda n: b"\xff" * n
    assert low < draws.uniform(low, high) < high


def test_draws_have_the_moments_of_their_distributions():
    n = 100_000
    z = Draws(11).standard_normal(n)
    draws = Draws(12)
    u = np.array([draws.uniform(0.0, 1.0) for _ in range(n)]) - 0.5
    # (sample, its mean, the variance of one term): E z^2k = (2k - 1)!!,
    # E (u - 1/2)^2k = 2^-2k / (2k + 1)
    cases = [(z, 0.0, 1.0), (z ** 2, 1.0, 3.0 - 1.0), (z ** 4, 3.0, 105.0 - 9.0),
             (u, 0.0, 1 / 12), (u ** 2, 1 / 12, 1 / 80 - 1 / 144),
             (u ** 4, 1 / 80, 1 / 2304 - 1 / 6400)]
    for sample, mean, var in cases:
        assert abs(sample.mean() - mean) <= 5.0 * math.sqrt(var / n)


@pytest.mark.parametrize("seed", [-1, 2.0, True, "42", None])
def test_draws_refuse_a_seed_that_is_no_non_negative_integer(seed):
    with pytest.raises(DomainError, match="^seed must be an integer >= 0, got "):
        Draws(seed)


def semflow_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter that imports this semflow."""
    src = str(Path(sf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_importing_the_cli_does_not_import_dataclasses():
    # the value types generate no code at import; numpy, json and argparse
    # load no dataclasses module, so the check below sees semflow's imports
    code = ("import argparse, json, sys, numpy\n"
            "if 'dataclasses' in sys.modules: sys.exit(3)\n"
            "import semflow.cli\n"
            "sys.exit(4 if 'dataclasses' in sys.modules else 0)\n")
    proc = semflow_python(code)
    if proc.returncode == 3:
        pytest.skip("numpy, json or argparse import dataclasses here")
    assert proc.returncode == 0, proc.stderr or "semflow.cli imports dataclasses"


def test_the_four_workloads_load_no_numpy_random_and_no_openssl(tmp_path):
    # numpy.random imports secrets, whose hmac loads OpenSSL's _hashlib;
    # Draws needs neither, so after every workload none of them is loaded
    from test_route_guard import routes

    runs = []  # the four benchmark workloads, on short horizons
    for name, command, cfg, extra in routes()[:4]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        runs.append([command, "--config", str(path), "--out", str(tmp_path / name),
                     "--seed", "42", *extra])
    code = ("import argparse, json, sys, numpy\n"
            "heavy = ('numpy.random', 'secrets', '_hashlib')\n"
            "if any(m in sys.modules for m in heavy): sys.exit(3)\n"
            "from semflow.cli import main\n"
            "if any(main(argv) for argv in json.loads(sys.argv[1])): sys.exit(5)\n"
            "loaded = [m for m in heavy if m in sys.modules]\n"
            "print(*loaded)\n"
            "sys.exit(4 if loaded else 0)\n")
    proc = semflow_python(code, json.dumps(runs))
    if proc.returncode == 3:
        pytest.skip("numpy, json or argparse import numpy.random or OpenSSL here")
    assert proc.returncode == 0, proc.stderr or f"the workloads load {proc.stdout}"
