import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from kpell.digits import STR_MAX_BITS, to_decimal, to_str, to_strs

# Decimal lengths on both sides of the cutoff: 2**STR_MAX_BITS has this many digits.
CUTOFF_DIGITS = math.ceil(STR_MAX_BITS * math.log10(2))


def _edge_values():
    yield from (0, 1, 2)
    for m in (1, 19, 1000, CUTOFF_DIGITS - 1, CUTOFF_DIGITS, CUTOFF_DIGITS + 1, 30_000):
        yield from (10**m - 1, 10**m)
    for m in range(STR_MAX_BITS - 2, STR_MAX_BITS + 3):
        yield from (2**m - 1, 2**m, 2**m + 1)


@pytest.fixture(autouse=True)
def _unlimited(int_str_limit):
    int_str_limit(0)  # str() is the reference here, at every size


@pytest.mark.parametrize("value", list(_edge_values()), ids=lambda v: f"bits{v.bit_length()}")
def test_edge_values_match_str(value):
    assert to_str(value) == str(value)
    assert to_str(-value) == str(-value)


@pytest.mark.parametrize("bits", [129, 3_000, STR_MAX_BITS + 1, 60_000, 330_000])
def test_random_values_match_str(bits):
    rng = random.Random(bits)
    for _ in range(3):
        value = rng.getrandbits(bits) | (1 << (bits - 1))
        assert to_str(value) == str(value)
        assert to_str(-value) == str(-value)


def test_to_decimal_is_exact():
    value = 3**40_000
    converted = to_decimal(value)
    assert converted.as_tuple().exponent == 0
    assert str(converted) == str(value)


@pytest.mark.parametrize("value", [Decimal("-12345678901234567890"), Fraction(-3, 7), True, "x"])
def test_other_values_print_with_str(value):
    assert to_str(value) == str(value)


@pytest.mark.parametrize(
    "row",
    [
        [0, 1, -2, 3**20, 7],
        [5, -(2 ** (STR_MAX_BITS + 100)) - 1, 7],
        [Fraction(1, 3), Fraction(-(10**5000) - 1, 7), Fraction(-3, 10**5000 + 1),
         Fraction(10**5000), Fraction(4), Fraction(0)],
        [Fraction(10**5000 + 1, 10**4999), 100, 0, 1],
    ],
    ids=["small-ints", "one-huge-negative-int", "fractions", "huge-ratio-below-a-small-int"],
)
def test_row_form_equals_to_str_of_each_entry(row, int_str_limit):
    want = list(map(str, row))
    int_str_limit(4300)
    assert to_strs(row) == list(map(to_str, row)) == want
