import math
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpell.closed_forms import (
    eigen_product,
    eigenvalues,
    gen_double_sum,
    pell_binomial,
    poly_str,
    symbolic_stream,
)
from kpell.sequences import (
    SeqKind,
    SeqParams,
    gen_binet,
    pell_fast,
    prefix,
    term,
)


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


def horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def symbolic_prefix(kind, count):
    """The first ``count`` symbolic terms, from one stream."""
    return list(islice(symbolic_stream(kind), count))


class TestSymbolicTerm:
    @pytest.mark.parametrize("n", range(8))
    def test_pell_table(self, n):
        assert symbolic_prefix(SeqKind.PELL, 8)[n] == PELL_POLYS[n]

    @pytest.mark.parametrize("n", range(8))
    def test_gen_table(self, n):
        assert symbolic_prefix(SeqKind.GEN_PELL, 8)[n] == GEN_POLYS[n]

    def test_rendered_strings(self):
        assert poly_str(symbolic_prefix(SeqKind.PELL, 6)[5]) == "k^2 + 12k + 16"
        assert poly_str(symbolic_prefix(SeqKind.GEN_PELL, 8)[7], "k", "a") == (
            "7k^3a + 56k^2a + 112ka + 64a"
        )

    def test_unsupported_kinds(self):
        for kind in (SeqKind.PELL_LUCAS, SeqKind.MODIFIED_PELL):
            with pytest.raises(ValueError):
                symbolic_stream(kind)  # at the call, before any term is asked for

    def test_count(self):
        assert symbolic_prefix(SeqKind.PELL, 0) == []
        assert symbolic_prefix(SeqKind.GEN_PELL, 1) == [(1,)]

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=60))
    def test_evaluation_matches_terms(self, k, n):
        params = SeqParams(k, 1)
        pell_row = symbolic_prefix(SeqKind.PELL, n + 1)[n]
        assert horner(pell_row, k) == term(SeqKind.PELL, params, n)
        gen_row = symbolic_prefix(SeqKind.GEN_PELL, n + 1)[n]
        for a in (1, 2, 5):
            assert a * horner(gen_row, k) == term(SeqKind.GEN_PELL, SeqParams(k, a), n)

    def test_pell_rows_are_the_binomial_sum(self):
        # P_{n+1} = sum over i of C(n-i, i) * 2**(n-2i) * k**i
        rows = symbolic_prefix(SeqKind.PELL, 202)
        for n in range(201):
            expected = tuple(math.comb(n - i, i) * 2 ** (n - 2 * i) for i in range(n // 2 + 1))
            assert rows[n + 1] == expected, f"n={n}"


class TestPolyStr:
    def test_plain_forms(self):
        assert poly_str(()) == "0"
        assert poly_str((0, 0)) == "0"
        assert poly_str((1,)) == "1"
        assert poly_str((4, 1)) == "k + 4"
        assert poly_str((16, 12, 1)) == "k^2 + 12k + 16"

    def test_suffix_forms(self):
        assert poly_str((1,), "k", "a") == "a"
        assert poly_str((2, 1), "k", "a") == "ka + 2a"
        assert poly_str((64, 112, 56, 7), "k", "a") == "7k^3a + 56k^2a + 112ka + 64a"

    def test_negative_coefficients(self):
        assert poly_str((-4, 1)) == "k - 4"
        assert poly_str((4, -1)) == "-k + 4"
        assert poly_str((0, -2, 3)) == "3k^2 - 2k"

    def test_coefficients_past_the_default_digit_limit(self, int_str_limit):
        big = 10**5000 + 3
        int_str_limit(4300)
        text = poly_str((-big, big), "k", "a")
        int_str_limit(0)
        assert text == f"{big}ka - {big}a"


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
