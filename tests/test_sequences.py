from itertools import islice, repeat

from decimal import Decimal, localcontext

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpell.digits import EXACT, STR_MAX_BITS, to_str
from kpell.quadratic import QuadNum
from kpell.sequences import (
    DEFAULT_GUARD_N,
    SeqKind,
    SeqParams,
    binet_term,
    gen_binet,
    initial_pair,
    pell_binet,
    estimated_digits,
    pell_fast,
    prefix,
    recurrence_guard,
    _block,
    _walk,
    _root_power,
    term,
    term_stream,
)


def brute(kind, params, count):
    """Reference recurrence, written independently of the library internals."""
    x0, x1 = initial_pair(kind, params)
    out = [x0, x1]
    while len(out) < count:
        out.append(2 * out[-1] + params.k * out[-2])
    return out[:count]


# Hand-checked starts for each family.
FROZEN = {
    (SeqKind.PELL, 1, 1): [0, 1, 2, 5, 12, 29, 70, 169, 408],
    (SeqKind.PELL, 2, 1): [0, 1, 2, 6, 16, 44, 120],
    (SeqKind.PELL, 3, 1): [0, 1, 2, 7, 20, 61],
    (SeqKind.PELL_LUCAS, 1, 1): [2, 2, 6, 14, 34, 82],
    (SeqKind.MODIFIED_PELL, 1, 1): [1, 1, 3, 7, 17, 41],
    (SeqKind.GEN_PELL, 1, 1): [1, 1, 3, 7, 17, 41, 99],
    (SeqKind.GEN_PELL, 2, 1): [1, 1, 4, 10, 28, 76],
    (SeqKind.GEN_PELL, 3, 2): [2, 2, 10, 26, 82, 242],
}


@pytest.mark.parametrize("key", sorted(FROZEN, key=str))
def test_frozen_prefixes(key):
    kind, k, a = key
    want = FROZEN[key]
    assert prefix(kind, SeqParams(k, a), len(want)) == want


def test_term_matches_stream():
    params = SeqParams(4, 2)
    stream = list(islice(term_stream(SeqKind.GEN_PELL, params), 25))
    assert [term(SeqKind.GEN_PELL, params, n) for n in range(25)] == stream


def test_modified_pell_is_gen_with_a1():
    p = SeqParams(3)
    assert prefix(SeqKind.MODIFIED_PELL, p, 12) == prefix(SeqKind.GEN_PELL, p, 12)


def test_params_validation():
    with pytest.raises(ValueError):
        SeqParams(0)
    with pytest.raises(ValueError):
        SeqParams(1, 0)
    with pytest.raises(ValueError):
        SeqParams(-3, 1)


def test_index_validation():
    with pytest.raises(ValueError):
        term(SeqKind.PELL, SeqParams(1), -1)
    with pytest.raises(ValueError):
        prefix(SeqKind.PELL, SeqParams(1), -2)


class TestGuard:
    def test_default_guard(self):
        assert recurrence_guard() == DEFAULT_GUARD_N == 10_000_000

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("KPELL_GUARD_N", "50")
        assert recurrence_guard() == 50
        with pytest.raises(ValueError):
            term(SeqKind.PELL, SeqParams(1), 51)
        assert term(SeqKind.PELL, SeqParams(1), 50) > 0

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("KPELL_GUARD_N", "soon")
        with pytest.raises(ValueError):
            recurrence_guard()
        monkeypatch.setenv("KPELL_GUARD_N", "-1")
        with pytest.raises(ValueError):
            recurrence_guard()


BLOCK_KS = [1, 2, 3, 8, 1000, 2**30 - 1, 2**31, 2**59, 2**61]


class TestBlockedWalk:
    """``term`` steps m terms at a time; ``brute`` above takes them one at a time."""

    @pytest.mark.parametrize("k", BLOCK_KS)
    def test_block_is_the_longest_that_fits_60_bits(self, k):
        m, *entries = _block(k)
        Q = brute(SeqKind.PELL_LUCAS, SeqParams(k), m + 2)
        assert entries == [Q[m], -((-k) ** m)]
        if m > 1:  # m = 1 is the plain step (2, k), whatever k is
            assert max(Q[m], k**m) < 2**60
        assert max(Q[m + 1], k ** (m + 1)) >= 2**60  # one step more would not fit

    def test_block_lengths(self):
        assert [_block(k)[0] for k in (1, 2, 2**59 - 1, 2**59, 2**61)] == [47, 41, 1, 1, 1]
        assert _block(2**30 - 1)[0] == 2
        assert _block(2**30)[0] == 1

    @pytest.mark.parametrize("kind", sorted(SeqKind, key=lambda s: s.value))
    def test_terms_m_apart_take_the_lucas_step(self, kind):
        """x_{i+m} = Q_m*x_i - (-k)**m * x_{i-m}: the step ``term`` takes, for every m."""
        for k in (1, 2, 3, 8, 1000):
            Q = brute(SeqKind.PELL_LUCAS, SeqParams(k), 51)
            for a in (1, 2, 9):
                x = brute(kind, SeqParams(k, a), 121)
                for m in range(1, 51):
                    step = -((-k) ** m)
                    assert all(
                        x[i + m] == Q[m] * x[i] + step * x[i - m] for i in range(m, 121 - m)
                    )

    @pytest.mark.parametrize("k", BLOCK_KS)
    @pytest.mark.parametrize("kind", sorted(SeqKind, key=lambda s: s.value))
    def test_every_index_around_the_block_length(self, kind, k):
        m = _block(k)[0]
        for a in (1, 2, 9):
            params = SeqParams(k, a)
            want = brute(kind, params, 3 * m + 3)
            assert [term(kind, params, n) for n in range(3 * m + 3)] == want

    @given(
        st.sampled_from(sorted(SeqKind, key=lambda s: s.value)),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=2000),
    )
    def test_matches_brute(self, kind, k, a, n):
        params = SeqParams(k, a)
        assert term(kind, params, n) == brute(kind, params, n + 1)[n]

    def test_guard_still_refuses_first(self, monkeypatch):
        monkeypatch.setenv("KPELL_GUARD_N", "100")
        for n in (101, 10**12):
            with pytest.raises(ValueError, match="KPELL_GUARD_N"):
                term(SeqKind.GEN_PELL, SeqParams(2, 3), n)
        assert term(SeqKind.PELL, SeqParams(1), 100) == pell_fast(1, 100)[0]

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [59_849, 10**5])
    def test_matches_doubling_at_scale(self, k, n):
        assert term(SeqKind.PELL, SeqParams(k), n) == pell_fast(k, n)[0]


class TestBinet:
    def test_pell_examples(self):
        assert pell_binet(1, 4) == 12
        assert pell_binet(3, 3) == 7  # square 1+k folds to integers
        assert [pell_binet(k, 1) for k in range(1, 7)] == [1] * 6

    def test_gen_examples(self):
        assert gen_binet(SeqParams(1, 1), 3) == 7
        assert gen_binet(SeqParams(3, 2), 2) == 10

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=120),
    )
    def test_routes_agree_with_recurrence(self, k, a, n):
        params = SeqParams(k, a)
        assert pell_binet(k, n) == term(SeqKind.PELL, params, n)
        assert gen_binet(params, n) == term(SeqKind.GEN_PELL, params, n)

    def test_root_power(self):
        for d in (2, 3, 4, 6, 9, 16):
            r1 = QuadNum(1, 1, d)
            for e in range(30):
                x, y = _root_power(d, e)
                assert QuadNum(x, y, d) == r1**e

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 15])  # 1+k = 4, 9, 16 are squares
    def test_large_index_matches_doubling(self, k):
        # pell_fast runs the same engine as Binet, so the recurrence is the reference.
        n = 5000
        assert pell_binet(k, n) == term(SeqKind.PELL, SeqParams(k), n)
        params = SeqParams(k, 3)
        assert gen_binet(params, n) == term(SeqKind.GEN_PELL, params, n)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            pell_binet(0, 5)
        with pytest.raises(ValueError):
            pell_binet(1, -1)
        with pytest.raises(ValueError):
            gen_binet(SeqParams(2), -1)


class TestRootPower:
    @pytest.mark.parametrize("d", [2, 3, 4, 9, 16])
    def test_norm_is_a_power_of_minus_k(self, d):
        # (x + y*sqrt(d)) * (x - y*sqrt(d)) = (r1*r2)**e, and r1*r2 = 1 - d = -k
        for e in range(64):
            x, y = _root_power(d, e)
            assert x * x - d * y * y == (1 - d) ** e

    @pytest.mark.parametrize("k", [1, 2, 3, 8])  # 1+k = 4, 9 are squares
    def test_pair_is_the_q_and_p_terms(self, k):
        # r1**e = q_e + P_e*sqrt(1+k): verify's d'Ocagne reads its root powers so
        params = SeqParams(k)
        for e in range(64):
            terms = term(SeqKind.MODIFIED_PELL, params, e), term(SeqKind.PELL, params, e)
            assert _root_power(1 + k, e) == terms, e

    @pytest.mark.parametrize("d", [2, 3, 4, 9, 16, 2**59 + 1])
    @pytest.mark.parametrize("backend", [int, Decimal])
    def test_one_coordinate_equals_the_pair(self, d, backend):
        x, y = 1, 0  # (1 + sqrt(d))**e, one multiplication at a time
        with localcontext(EXACT):
            for e in range(257):
                pair = _root_power(backend(d), e)
                coords = _root_power(backend(d), e, 0), _root_power(backend(d), e, 1)
                assert pair == coords == (x, y), e
                if e >= 2:
                    assert all(type(v) is backend for v in pair + coords), e
                x, y = x + d * y, x + y

    @pytest.mark.parametrize("k", [1, 5])
    def test_decimal_pair_equals_int_pair(self, k):
        n = 30_011
        with localcontext(EXACT):
            pair = _root_power(Decimal(1 + k), n)
            assert all(isinstance(v, Decimal) for v in pair)
            assert pair == _root_power(1 + k, n)


class TestBinetTerm:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_small_terms_stay_int(self, k):
        # binet_term's Decimal equals the int routes' value
        params = SeqParams(k, 3)
        assert binet_term(SeqKind.PELL, params, 1000) == pell_binet(k, 1000)
        assert binet_term(SeqKind.GEN_PELL, params, 1000) == gen_binet(params, 1000)

    @pytest.mark.parametrize("k", [1, 3, 5])  # 1+k = 4 is a square
    def test_huge_terms_are_exact_decimals(self, k, int_str_limit):
        int_str_limit(0)
        n, params = 40_001, SeqParams(k, 3)
        value = binet_term(SeqKind.PELL, params, n)
        assert isinstance(value, Decimal) and str(value) == str(pell_binet(k, n))
        value = binet_term(SeqKind.GEN_PELL, params, n)
        assert isinstance(value, Decimal) and str(value) == str(gen_binet(params, n))

    def test_lucas_kinds_equal_term_and_bad_index_is_refused(self):
        for kind in (SeqKind.PELL_LUCAS, SeqKind.MODIFIED_PELL):
            assert binet_term(kind, SeqParams(1), 5) == term(kind, SeqParams(1), 5)
        with pytest.raises(ValueError):
            binet_term(SeqKind.PELL, SeqParams(1), -1)

    @given(
        st.sampled_from(SeqKind),
        st.one_of(st.integers(min_value=1, max_value=40), st.sampled_from([3, 8, 15, 99])),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=400),
    )
    def test_every_kind_equals_term(self, kind, k, a, n):
        # the seeds alone pick the coordinate; 1+k is a perfect square at k = 3, 8, 15, 99
        params = SeqParams(k, a)
        assert binet_term(kind, params, n) == term(kind, params, n)


class TestPrintStream:
    @pytest.mark.parametrize(
        "kind, params",
        [
            (SeqKind.PELL, SeqParams(1)),
            (SeqKind.GEN_PELL, SeqParams(2, 3)),
            (SeqKind.PELL_LUCAS, SeqParams(2**59)),
        ],
    )
    def test_equals_term_stream_across_the_switch(self, kind, params):
        # The printing walk that ``table`` runs, in Decimal from row 0: each
        # row equals the int term and prints as to_str prints it, across
        # to_str's switch at STR_MAX_BITS (n = 11,012 at k = 1) and 40 rows on.
        past = 0
        walk = _walk(*initial_pair(kind, params), repeat((2, params.k)), printing=True)
        for shown, value in zip(walk, term_stream(kind, params)):
            assert shown == value
            assert str(shown) == to_str(value)
            if value.bit_length() > STR_MAX_BITS:
                past += 1
                if past == 40:
                    break


class TestConversions:
    """G from the other kinds, on recurrence values: G_n = a*Q_n/2 = a*P_n + a*k*P_{n-1}."""

    def test_lucas_to_gen(self):
        for (k, a), n, want in (((1, 1), 0, 1), ((3, 2), 2, 10), ((1, 1), 5, 41)):
            lucas = term(SeqKind.PELL_LUCAS, SeqParams(k), n)
            assert a * lucas == 2 * want

    def test_pell_to_gen(self):
        cases = [((1, 1), 3, 7), ((3, 2), 4, 82)] + [((2, a), 1, a) for a in (1, 2, 3)]
        for (k, a), n, want in cases:
            p_prev, p_cur = prefix(SeqKind.PELL, SeqParams(k), n + 1)[-2:]
            assert a * p_cur + a * k * p_prev == want

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=80),
    )
    def test_conversions_agree(self, k, a, n):
        params = SeqParams(k, a)
        expected = term(SeqKind.GEN_PELL, params, n)
        lucas = prefix(SeqKind.PELL_LUCAS, params, n + 1)
        assert a * lucas[n] == 2 * expected
        if n >= 1:
            pell = prefix(SeqKind.PELL, params, n + 1)
            assert a * pell[n] + a * k * pell[n - 1] == expected


class TestFastDoubling:
    def test_base_cases(self):
        assert pell_fast(1, 0) == (0, 1)
        assert pell_fast(5, 0) == (0, 1)
        assert pell_fast(1, 1) == (1, 2)
        assert pell_fast(1, 4) == (12, 29)

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_agrees_with_recurrence(self, k):
        terms = brute(SeqKind.PELL, SeqParams(k), 301)
        for n in range(300):
            assert pell_fast(k, n) == (terms[n], terms[n + 1])

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=3000))
    def test_pair_is_consistent(self, k, n):
        u, v = pell_fast(k, n)
        u2, v2 = pell_fast(k, n + 1)
        assert u2 == v
        assert v2 == 2 * v + k * u

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            pell_fast(0, 5)
        with pytest.raises(ValueError):
            pell_fast(1, -1)

    def test_small_terms_stay_int(self):
        # binet_term's Decimal equals pell_fast's int
        assert binet_term(SeqKind.PELL, SeqParams(1), 1000) == pell_fast(1, 1000)[0]

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("n", [30_011, 10**6])
    def test_decimal_doubling_digest_matches_int(self, k, n):
        value = binet_term(SeqKind.PELL, SeqParams(k), n)
        assert isinstance(value, Decimal)
        with localcontext(EXACT):
            digest = value % (1 << 64)
        assert int(digest) == pell_fast(k, n)[0] % (1 << 64)

    @pytest.mark.parametrize("k", [1, 5])
    def test_decimal_doubling_digits_match_int(self, k, int_str_limit):
        int_str_limit(0)
        value = binet_term(SeqKind.PELL, SeqParams(k), 40_001)
        assert str(value) == str(pell_fast(k, 40_001)[0])


@pytest.mark.parametrize("k", [1, 2, 5, 100])
@pytest.mark.parametrize("n", [10, 1000, 3000])
def test_estimated_digits_is_within_two_of_the_term(k, n):
    actual = len(str(term(SeqKind.PELL, SeqParams(k), n)))
    assert abs(estimated_digits(k, n) - actual) <= 2


def test_estimated_digits_takes_k_past_float_range():
    assert estimated_digits(10**400, 3) == pytest.approx(600, abs=1)


@given(
    st.sampled_from(sorted(SeqKind, key=lambda s: s.value)),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=4),
)
def test_terms_strictly_increase_from_index_one(kind, k, a):
    values = prefix(kind, SeqParams(k, a), 30)
    assert all(b > a_ for a_, b in zip(values[1:], values[2:]))
    assert all(v >= 0 for v in values)
