import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpell.closed_forms import (
    binom,
    eigen_product,
    eigenvalues,
    gen_double_sum,
    pell_binomial,
    symbolic_term,
)
from kpell.poly import KPoly, poly_str
from kpell.sequences import (
    SeqKind,
    SeqParams,
    gen_binet,
    pell_fast,
    prefix,
    term,
)


class TestBinom:
    def test_zero_extension(self):
        assert binom(-1, 0) == 0
        assert binom(0, -1) == 0
        assert binom(3, 5) == 0
        assert binom(-2, -2) == 0

    def test_interior_values(self):
        assert binom(5, 0) == 1
        assert binom(6, 2) == 15
        assert binom(4, 4) == 1

    @given(st.integers(min_value=-5, max_value=30), st.integers(min_value=-5, max_value=30))
    def test_matches_math_comb_in_range(self, n, r):
        if 0 <= r <= n:
            assert binom(n, r) == math.comb(n, r)
        else:
            assert binom(n, r) == 0


class TestPellBinomial:
    def test_first_row_is_k_plus_4(self):
        # n = 2 gives P_3
        for k in range(1, 9):
            assert pell_binomial(k, 2) == k + 4

    def test_term_by_term_example(self):
        # k=1, n=4: 2^4 + C(3,1)*2^2 + C(2,2) = 16 + 12 + 1 = 29
        assert pell_binomial(1, 4) == 29
        assert pell_binomial(2, 3) == 16

    def test_domain(self):
        with pytest.raises(ValueError):
            pell_binomial(1, 1)
        with pytest.raises(ValueError):
            pell_binomial(0, 5)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=120))
    def test_equals_recurrence(self, k, n):
        assert pell_binomial(k, n) == term(SeqKind.PELL, SeqParams(k), n + 1)


class TestGenDoubleSum:
    def test_smallest_indices(self):
        for a in (1, 2, 3):
            for k in (1, 2, 3):
                assert gen_double_sum(SeqParams(k, a), 1) == a * k + 2 * a
                assert gen_double_sum(SeqParams(k, a), 2) == 3 * a * k + 4 * a

    def test_term_by_term_example(self):
        # a=k=1, n=4: terms 1 + 12 + 4 + 24 sum to G_5 = 41
        assert gen_double_sum(SeqParams(1, 1), 4) == 41

    def test_domain(self):
        with pytest.raises(ValueError):
            gen_double_sum(SeqParams(1, 1), 0)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=120),
    )
    def test_equals_recurrence(self, k, a, n):
        params = SeqParams(k, a)
        assert gen_double_sum(params, n) == term(SeqKind.GEN_PELL, params, n + 1)


class TestSumsAtScale:
    """Both sums against the O(log n) routes, far past the recurrence tests."""

    @pytest.mark.parametrize("n", (2000, 2001, 4999, 5000))
    @pytest.mark.parametrize("k", (1, 2, 3, 8))  # 1+k = 4 and 9 are squares
    def test_pell_binomial_matches_doubling(self, k, n):
        assert pell_binomial(k, n) == pell_fast(k, n)[1]

    @pytest.mark.parametrize("n", (2000, 2001, 4999, 5000))
    @pytest.mark.parametrize("k", (1, 2, 3, 8))
    def test_gen_double_sum_matches_binet(self, k, n):
        for a in (1, 2, 7):
            params = SeqParams(k, a)
            assert gen_double_sum(params, n) == gen_binet(params, n + 1), f"a={a}"


class TestSumGuard:
    def test_env_guard_refuses_both_sums(self, monkeypatch):
        monkeypatch.setenv("KPELL_GUARD_N", "50")
        with pytest.raises(ValueError, match="KPELL_GUARD_N"):
            pell_binomial(1, 100)
        with pytest.raises(ValueError, match="KPELL_GUARD_N"):
            gen_double_sum(SeqParams(1), 100)
        # at the guard itself both still run; prefix is unguarded by design
        assert pell_binomial(1, 50) == prefix(SeqKind.PELL, SeqParams(1), 52)[51]
        assert gen_double_sum(SeqParams(1), 50) == prefix(SeqKind.GEN_PELL, SeqParams(1), 52)[51]


# Little-endian coefficient tables for n = 0..7, frozen by hand.
PELL_POLYS = [(), (1,), (2,), (4, 1), (8, 4), (16, 12, 1), (32, 32, 6), (64, 80, 24, 1)]
GEN_POLYS = [
    (1,),
    (1,),
    (2, 1),
    (4, 3),
    (8, 8, 1),
    (16, 20, 5),
    (32, 48, 18, 1),
    (64, 112, 56, 7),
]


class TestSymbolicTerm:
    @pytest.mark.parametrize("n", range(8))
    def test_pell_table(self, n):
        assert symbolic_term(SeqKind.PELL, n) == KPoly(PELL_POLYS[n])

    @pytest.mark.parametrize("n", range(8))
    def test_gen_table(self, n):
        assert symbolic_term(SeqKind.GEN_PELL, n) == KPoly(GEN_POLYS[n])

    def test_rendered_strings(self):
        assert poly_str(symbolic_term(SeqKind.PELL, 5)) == "k^2 + 12k + 16"
        assert poly_str(symbolic_term(SeqKind.GEN_PELL, 7), "k", "a") == (
            "7k^3a + 56k^2a + 112ka + 64a"
        )

    def test_unsupported_kinds(self):
        for kind in (SeqKind.PELL_LUCAS, SeqKind.MODIFIED_PELL):
            with pytest.raises(ValueError):
                symbolic_term(kind, 3)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=60))
    def test_evaluation_matches_terms(self, k, n):
        params = SeqParams(k, 1)
        assert symbolic_term(SeqKind.PELL, n).evaluate(k) == term(SeqKind.PELL, params, n)
        gen_poly = symbolic_term(SeqKind.GEN_PELL, n)
        for a in (1, 2, 5):
            assert a * gen_poly.evaluate(k) == term(SeqKind.GEN_PELL, SeqParams(k, a), n)


class TestEigen:
    def test_corrected_two_by_two(self):
        # (2 + 2i*cos(pi/3))(2 + 2i*cos(2pi/3)) = (2+i)(2-i) = 5 at k=1
        report = eigen_product(1, 2)
        assert report.rounded == report.exact == 5
        assert abs(report.product.real - 5.0) < 1e-12
        assert abs(report.product.imag) < 1e-12
        assert report.matches

    def test_verbatim_two_by_two_misses(self):
        report = eigen_product(1, 2, paper_verbatim=True)
        assert abs(report.product.real - 4.25) < 1e-12
        assert report.rounded == 4
        assert report.exact == 5
        assert not report.matches
        assert abs(report.abs_residual - 0.75) < 1e-12

    def test_single_eigenvalue(self):
        report = eigen_product(3, 1)
        assert report.product == 2 + 0j
        assert report.matches

    def test_odd_order_has_exactly_one_real_eigenvalue(self):
        for n in (1, 3, 5, 7, 9):
            real = [v for v in eigenvalues(2, n) if v.imag == 0.0]
            assert real == [2.0 + 0.0j]
        for n in (2, 4, 6, 8):
            assert all(v.imag != 0.0 for v in eigenvalues(2, n))

    def test_verbatim_fails_for_all_k_at_n2(self):
        # product 4 + k/4 can never equal the exact k + 4 for k >= 1
        for k in range(1, 9):
            report = eigen_product(k, 2, paper_verbatim=True)
            assert not report.matches

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=20))
    def test_corrected_product_rounds_to_exact(self, k, n):
        report = eigen_product(k, n)
        assert report.matches
        assert report.abs_residual < 1e-9 * report.exact

    def test_domain(self):
        with pytest.raises(ValueError):
            eigenvalues(0, 3)
        with pytest.raises(ValueError):
            eigenvalues(1, 0)
