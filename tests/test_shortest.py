"""``shortest.cells`` against ``repr``, value by value."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from triladder import shortest


def texts(values):
    """The rows of ``shortest.cells(values)`` with their NUL bytes deleted."""
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in shortest.cells(values)]


def reprs(values):
    return [repr(v) for v in np.asarray(values, dtype=np.float64).tolist()]


def with_neighbours(values):
    """``values`` and the doubles just below and just above each."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


@settings(derandomize=True, max_examples=400)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_floats_read_as_repr(values):
    # st.floats() draws NaN, both infinities, subnormals and both zeros too
    assert texts(values) == reprs(values)


def test_random_bit_patterns():
    bits = np.random.default_rng(20241019).integers(0, 2**64, size=10**5, dtype=np.uint64)
    values = bits.view(np.float64)
    assert texts(values) == reprs(values)


def test_every_power_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([powers, -powers])
    assert texts(values) == reprs(values)


def test_every_power_of_ten_and_its_neighbours():
    values = with_neighbours([float(f"1e{k}") for k in range(-323, 309)])
    assert texts(values) == reprs(values)


def test_switch_points_between_the_forms():
    # 1e-5 is the first exponent form below 1, 1e16 the first above;
    # 2^53 is where the spacing of doubles passes 1
    points = [1e-5, 1e-4, 1e15, 1e16, 1e17, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 0.5, 1.0,
              9.5, 99.5, 0.001, 1e21, 1e22, 1e23, 5e-324, 2.2250738585072014e-308]
    top = np.nextafter(np.inf, 0.0)
    values = np.concatenate([with_neighbours(points + [-p for p in points]), [top, -top]])
    assert texts(values) == reprs(values)


def test_zero_nan_and_infinity():
    values = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 0.1]
    assert texts(values) == ["0.0", "-0.0", "nan", "nan", "inf", "-inf", "0.1"]
    assert texts([]) == []


def test_fallback_text_wider_than_the_others_on_reused_memory():
    # a subnormal's repr is wider than the rest of its array; the bytes past the
    # others' texts must be NUL even where the allocator hands back used memory
    cases = [[0.0, 2.225073858507201e-308], [1.0, -2.225073858507201e-308],
             [0.0] * 999 + [5e-324, -4.9406564584124654e-320], [math.nan, 1e-310, 0.5]]
    for values in cases:
        for size in [*range(1, 1025), *(2**i for i in range(11, 17))]:
            np.full(size, 255, np.uint8)  # freed at once, its bytes left 0xff
        assert texts(values) == reprs(values)


def test_rows_are_only_as_wide_as_their_array_needs():
    # a column of short values does not pay for the widest possible text
    assert shortest.cells(np.arange(10.0)).shape == (10, 3)
