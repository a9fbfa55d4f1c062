import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpell.digits import to_str
from kpell.quadratic import QuadNum, quad_roots

NONSQUARE_D = (2, 3, 5, 6, 7, 10)

rationals = st.builds(
    Fraction, st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=20)
)


def quads(d_values=NONSQUARE_D):
    return st.builds(QuadNum, rationals, rationals, st.sampled_from(d_values))


class TestConstruction:
    def test_defaults_are_zero(self):
        assert QuadNum() == 0

    def test_rejects_bad_discriminant(self):
        with pytest.raises(ValueError):
            QuadNum(1, 1, 0)
        with pytest.raises(ValueError):
            QuadNum(1, 1, -4)

    def test_perfect_square_d_folds_into_rational_part(self):
        x = QuadNum(1, 1, 4)  # 1 + sqrt(4) = 3
        assert x.root_coeff == 0
        assert x.rational_part == 3
        assert x == 3

    @given(rationals, rationals, st.sampled_from((1, 4, 9, 16, 25, 36)))
    def test_square_d_always_canonicalizes(self, p, q, d):
        x = QuadNum(p, q, d)
        assert x.root_coeff == 0
        assert x.rational_part == p + q * math.isqrt(d)


class TestRoots:
    def test_k1_roots(self):
        r1, r2 = quad_roots(1)
        assert r1 == QuadNum(1, 1, 2)
        assert r2 == QuadNum(1, -1, 2)
        assert r1 + r2 == 2
        assert r1 * r2 == -1

    def test_square_discriminant_roots_collapse(self):
        assert quad_roots(3) == (QuadNum(3), QuadNum(-1))
        assert quad_roots(8) == (QuadNum(4), QuadNum(-2))

    @given(st.integers(min_value=1, max_value=40))
    def test_roots_satisfy_characteristic_equation(self, k):
        for r in quad_roots(k):
            assert r * r == 2 * r + k

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            quad_roots(0)
        with pytest.raises(ValueError):
            quad_roots(-1)


class TestArithmetic:
    def test_silver_ratio_powers(self):
        x = QuadNum(1, 1, 2)
        assert x**2 == QuadNum(3, 2, 2)
        assert x**3 == QuadNum(7, 5, 2)
        assert x**3 == x * x * x
        assert x**0 == 1

    def test_conjugate_and_norm(self):
        x = QuadNum(1, 1, 2)
        assert x.conjugate() == QuadNum(1, -1, 2)
        assert x * x.conjugate() == x.norm() == -1

    def test_reciprocal(self):
        x = QuadNum(1, 1, 2)
        assert 1 / x == QuadNum(-1, 1, 2)
        assert x / x == 1

    def test_scalar_mixing(self):
        x = QuadNum(1, 1, 2)
        assert 2 * x == QuadNum(2, 2, 2)
        assert x * Fraction(1, 2) == QuadNum(Fraction(1, 2), Fraction(1, 2), 2)
        assert 1 + x == QuadNum(2, 1, 2)
        assert x - 1 == QuadNum(0, 1, 2)
        assert 1 - x == QuadNum(0, -1, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QuadNum(1, 1, 2) / QuadNum(0, 0, 2)

    def test_mismatched_discriminants_rejected(self):
        with pytest.raises(ValueError):
            QuadNum(1, 1, 2) * QuadNum(1, 1, 3)
        with pytest.raises(ValueError):
            QuadNum(1, 1, 2) + QuadNum(0, 2, 5)

    def test_rational_values_mix_with_any_discriminant(self):
        # q == 0 makes the value a plain rational, whatever its d slot says
        assert QuadNum(3, 0, 7) * QuadNum(1, 1, 2) == QuadNum(3, 3, 2)
        assert QuadNum(3, 0, 7) == QuadNum(3, 0, 11) == 3

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            QuadNum(1, 1, 2) ** -1

    def test_as_integer(self):
        assert QuadNum(7, 0, 2).as_integer() == 7
        with pytest.raises(ValueError):
            QuadNum(1, 1, 2).as_integer()
        with pytest.raises(ValueError):
            QuadNum(Fraction(1, 2), 0, 2).as_integer()


class TestFieldProperties:
    @given(quads(), quads())
    def test_commutativity(self, x, y):
        if x.root_coeff and y.root_coeff and x.d != y.d:
            return
        assert x + y == y + x
        assert x * y == y * x

    @given(quads((2,)), quads((2,)), quads((2,)))
    def test_associativity_and_distributivity(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(quads((3,)), quads((3,)))
    def test_sub_and_div_invert(self, x, y):
        assert (x + y) - y == x
        if y:
            assert (x / y) * y == x

    @given(quads(), st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
    def test_pow_is_repeated_multiplication(self, x, e1, e2):
        assert x ** (e1 + e2) == x**e1 * x**e2

    @given(quads())
    def test_results_stay_reduced(self, x):
        y = x * x + x
        for part in (y.rational_part, y.root_coeff):
            assert part.denominator > 0
            assert math.gcd(abs(part.numerator), part.denominator) == 1


def test_str_forms():
    assert str(QuadNum(1, 1, 2)) == "1 + sqrt(2)"
    assert str(QuadNum(Fraction(3, 2), -5, 7)) == "3/2 - 5*sqrt(7)"
    assert str(QuadNum(0, -1, 2)) == "-sqrt(2)"
    assert str(QuadNum(0, 2, 3)) == "2*sqrt(3)"
    assert str(QuadNum(4, 0, 2)) == "4"


HUGE = [
    QuadNum(10**5000, 3, 2), QuadNum(Fraction(1, 10**5000 + 1), -(10**5000), 5),
    QuadNum(0, Fraction(10**5000, 7), 3), QuadNum(-(10**5000), 0, 2),
]


@pytest.mark.parametrize("value", HUGE)
def test_to_str_prints_parts_past_the_digit_limit(value, int_str_limit):
    int_str_limit(0)
    want = str(value)
    int_str_limit(4300)
    assert to_str(value) == str(value) == want


def test_repr_text():
    assert repr(QuadNum(Fraction(3, 2), -5, 7)) == "QuadNum(Fraction(3, 2), Fraction(-5, 1), d=7)"
    assert repr(QuadNum(4, 1, 9)) == "QuadNum(Fraction(7, 1), Fraction(0, 1), d=9)"


@pytest.mark.parametrize("value", HUGE)
def test_repr_prints_parts_past_the_digit_limit(value, int_str_limit):
    int_str_limit(0)
    want = f"QuadNum({value.rational_part!r}, {value.root_coeff!r}, d={value.d})"
    int_str_limit(4300)
    assert repr(value) == want


def test_hash_consistent_with_eq():
    assert hash(QuadNum(5, 0, 2)) == hash(5)
    assert hash(QuadNum(5, 0, 2)) == hash(QuadNum(5, 0, 3))
    x = QuadNum(1, 1, 2)
    assert hash(x) == hash(QuadNum(1, 1, 2))
