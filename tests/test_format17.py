"""cli._format17, the array formatter behind every CSV, against
b"%.17g" % v value by value: rounding ties, powers of ten and their
neighbours, the switches between fixed and exponent notation, values that
round up into the next decade, the edges of the range it decides itself,
special values, every layout template and block boundaries; and the memory
bound of cli.write_csv on a plot-sized table."""

import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semflow import cli

BLOCK = cli._FORMAT_BLOCK


def expected(values, seps=b","):
    return [b"%.17g" % v + bytes([seps[i % len(seps)]])
            for i, v in enumerate(np.asarray(values, dtype=float).tolist())]


def assert_formats(values, seps=b","):
    """_format17's bytes and end offsets equal those of % value by value."""
    text, ends = cli._format17(np.asarray(values, dtype=float), seps)
    cells = expected(values, seps)
    got = bytes(text)
    starts = [0] + ends.tolist()
    assert len(starts) == len(cells) + 1
    wrong = [(v, cells[i], got[starts[i]: starts[i + 1]])
             for i, v in enumerate(np.asarray(values, dtype=float).tolist())
             if got[starts[i]: starts[i + 1]] != cells[i]]
    assert not wrong, wrong[:5]
    assert got == b"".join(cells)


def with_neighbours(values):
    values = np.asarray(values, dtype=float)
    both = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    return np.concatenate([both, -both])


def ties():
    """Odd multiples of 2**-j whose exact decimal has 18 significant digits,
    the last a 5: a tie at the 18th digit for %.17g to round to even."""
    out = []
    for j in range(1, 26):
        low, high = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        for n in np.linspace(low, high - 1, 9).astype(np.int64).tolist():
            n |= 1
            if low <= n < high:
                out.append(n / 2 ** j)
    return out


def test_exact_ties_at_the_18th_digit():
    values = ties() + [1125899906842624.25, 1125899906842624.75]
    for v in values:
        digits = Decimal(v).normalize().as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    assert len(values) > 150
    assert_formats(with_neighbours(values))


def test_every_power_of_ten_and_its_neighbours():
    assert_formats(with_neighbours([float(f"1e{j}") for j in range(-300, 301)]))


def test_switches_between_fixed_and_exponent_notation():
    edges = [1e-5, 1e-4, 1e16, 1e17]
    values = [e * f for e in edges for f in (0.5, 0.99999999999999989, 1.0, 1.0000000000000002, 2.5)]
    values += [9.9999999999999995e-5, 9.99999999999999995e-5, 99999999999999992.0,
               9999999999999998.0, 1e16 - 2, 1e17 - 16]
    assert_formats(with_neighbours(values))


def test_values_that_round_up_into_the_next_decade():
    values = [float(f"9.99999999999999995e{j}") for j in range(-290, 291)]
    values += [float(f"9.9999999999999999{d}e{j}") for d in range(10) for j in (-5, -4, 0, 16)]
    assert_formats(with_neighbours(values))


def test_edges_of_the_decided_range():
    low, high = cli._SAFE_RANGE
    edges = [low, high]
    for e in (low, high):
        x = e
        for _ in range(4):
            x = np.nextafter(x, 0.0)
            edges.append(x)
        x = e
        for _ in range(4):
            x = np.nextafter(x, np.inf)
            edges.append(x)
    edges += [low / 10, low * 10, high / 10, high * 10]
    assert_formats(with_neighbours(edges))


def test_special_values():
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
              2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
              -1.7976931348623157e308, 1e-310, 3 * 5e-324, 123e-320]
    assert_formats(values)


def category(cell: bytes):
    """(sign, form, significant digits) of one %.17g cell: the form is the
    decimal exponent in fixed notation, or "e2" / "e3" by the exponent's
    digits in exponent notation."""
    text = cell.decode()
    mantissa, _, exponent = text.lstrip("-").partition("e")
    whole, _, frac = mantissa.partition(".")
    if exponent:
        form = f"e{len(exponent) - 1}"
    elif whole != "0":
        form = len(whole) - 1
    else:
        form = len(frac.lstrip("0")) - len(frac) - 1
    return text.startswith("-"), form, max(1, len((whole + frac).strip("0")))


def test_every_sign_form_and_exponent_width_template():
    # for each form and count of significant digits, a double whose %.17g
    # shows that form and count, found among decimals of that many digits
    rng = np.random.default_rng(20)
    exponents = {x: [x] for x in range(-4, 17)}
    exponents.update({"e2": [-99, -5, 17, 99], "e3": [-280, -100, 100, 280]})
    values = []
    for form, xs in exponents.items():
        for x in xs:
            for nd in range(1, 18):
                for _ in range(500):
                    digits = str(rng.integers(10 ** (nd - 1), 10 ** nd) // 10 * 10 + rng.integers(1, 10))
                    v = float(f"{digits[:nd]}e{x - nd + 1}")
                    if category(b"%.17g" % v)[1:] == (form, nd):
                        values.append(v)
                        break
    values = np.concatenate([values, np.negative(values)])
    seen = {category(b"%.17g" % v) for v in values.tolist()}
    assert len(seen) == 2 * len(exponents) * 17
    assert_formats(values)


def drawn(seed, count):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count)
    special = rng.random(count) < 0.05
    values[special] = rng.choice([0.0, -0.0, np.inf, np.nan, 5e-324, 1e16, 1e-5], special.sum())
    return values


@pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
@pytest.mark.parametrize("seps", [b",", b",,\n", b",,,,,,\n"])
def test_block_sizes_and_separators(count, seps):
    assert_formats(drawn(count, count), seps)


def test_random_bit_patterns():
    rng = np.random.default_rng(5)
    assert_formats(rng.integers(0, 2 ** 64, 40000, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.floats(), max_size=50))
def test_any_floats_match_percent_g(values):
    assert_formats(np.array(values, dtype=float))


def test_plot_table_is_written_in_bounded_memory(tmp_path):
    # the shape of the scalar-asymptotics plots: t and six norm tracks
    t = np.linspace(0.0, 100.0, 10001)
    rng = np.random.default_rng(0)
    columns = [t] + [np.exp(-rng.random() * t) * rng.standard_normal() for _ in range(6)]
    header = [f"c{j}" for j in range(7)]
    cli.write_csv(tmp_path / "warm.csv", header, columns)  # tables built, caches filled
    tracemalloc.start()
    try:
        cli.write_csv(tmp_path / "plot.csv", header, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "plot.csv").read_bytes()
    assert text == (tmp_path / "warm.csv").read_bytes()
    assert text.count(b"\n") == 10002
    # the whole table's values, formatted in one piece, take over 20 MB
    assert peak < 2 * 2 ** 20, peak
