import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpell.poly import KPoly, poly_str

coeff_lists = st.lists(st.integers(min_value=-99, max_value=99), max_size=8)


def test_trailing_zeros_trimmed():
    assert KPoly([1, 2, 0, 0]) == KPoly([1, 2])
    assert KPoly([0, 0]) == KPoly()
    assert KPoly().degree == -1
    assert KPoly([7]).degree == 0


def test_rejects_non_integer_coeffs():
    with pytest.raises(TypeError):
        KPoly([1.5])


def test_shift_multiplies_by_the_variable():
    assert KPoly([1]).shift() == KPoly([0, 1])
    assert KPoly([3, 1]).shift(2) == KPoly([0, 0, 3, 1])
    assert KPoly().shift(5) == KPoly()
    with pytest.raises(ValueError):
        KPoly([1]).shift(-1)


def test_recurrence_step_combination():
    # 2*(k + 4) + shift(1) = 3k + 8
    assert 2 * KPoly([4, 1]) + KPoly([1]).shift() == KPoly([8, 3])


@given(coeff_lists, coeff_lists)
def test_add_matches_termwise_sum(us, vs):
    total = KPoly(us) + KPoly(vs)
    width = max(len(us), len(vs), 1)
    padded = [
        (us[i] if i < len(us) else 0) + (vs[i] if i < len(vs) else 0)
        for i in range(width)
    ]
    assert total == KPoly(padded)


@given(coeff_lists, st.integers(min_value=-20, max_value=20))
def test_evaluate_matches_power_sum(cs, x):
    assert KPoly(cs).evaluate(x) == sum(c * x**i for i, c in enumerate(cs))


class TestRendering:
    def test_plain_forms(self):
        assert poly_str(KPoly()) == "0"
        assert poly_str(KPoly([1])) == "1"
        assert poly_str(KPoly([4, 1])) == "k + 4"
        assert poly_str(KPoly([16, 12, 1])) == "k^2 + 12k + 16"

    def test_suffix_forms(self):
        assert poly_str(KPoly([1]), "k", "a") == "a"
        assert poly_str(KPoly([2, 1]), "k", "a") == "ka + 2a"
        assert poly_str(KPoly([64, 112, 56, 7]), "k", "a") == "7k^3a + 56k^2a + 112ka + 64a"

    def test_negative_coefficients(self):
        assert poly_str(KPoly([-4, 1])) == "k - 4"
        assert poly_str(KPoly([4, -1])) == "-k + 4"
        assert str(KPoly([0, -2, 3])) == "3k^2 - 2k"
