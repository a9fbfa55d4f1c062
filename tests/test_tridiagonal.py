import random
import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpell import tridiagonal
from kpell.digits import STR_MAX_BITS, to_str
from kpell.sequences import SeqKind, SeqParams, prefix, term
from kpell.tridiagonal import (
    DenseMat,
    Tridiag,
    adjugate,
    bareiss_det,
    continuant_strings,
    det_continuant,
    entry_strings,
    gen_matrix,
    gen_pell_cofactor,
    inverse_strings,
    pell_cofactor,
    render_grid,
    theta_phi,
    usmani_inverse,
)

ALL_KINDS = sorted(SeqKind, key=lambda s: s.value)


def gauss_inverse(dense):
    """Independent exact inverse by Gauss-Jordan elimination over Fractions."""
    n = dense.n
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(dense.rows)
    ]
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return DenseMat([row[n:] for row in aug])


def permutation_det(dense):
    """Leibniz-formula determinant; O(n!) but an utterly independent oracle."""
    n = dense.n
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length, j = 0, start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = 1
        for i in range(n):
            prod *= dense.rows[i][perm[i]]
        total += sign * prod
    return total


def minor_cofactors(dense):
    n = dense.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            sub = [
                [dense.rows[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            sign = -1 if (i + j) % 2 else 1
            row.append(sign * bareiss_det(DenseMat(sub)))
        out.append(row)
    return DenseMat(out)


def transpose(dense):
    return DenseMat(zip(*dense.rows))


def band_times(t, dense):
    """The product t @ dense, one row of t's three bands at a time."""
    rows, n = dense.rows, t.n
    out = []
    for i in range(n):
        acc = [t.diag[i] * x for x in rows[i]]
        if i > 0:
            acc = [s + t.sub[i - 1] * x for s, x in zip(acc, rows[i - 1])]
        if i < n - 1:
            acc = [s + t.sup[i] * x for s, x in zip(acc, rows[i + 1])]
        out.append(acc)
    return DenseMat(out)


def scaled_identity(n, c):
    return DenseMat([[c if i == j else 0 for j in range(n)] for i in range(n)])


def band_entry(t, i, j):
    """Entry (i, j), 0-indexed, read off the bands: zero outside them."""
    if i == j:
        return t.diag[i]
    if j == i + 1:
        return t.sup[i]
    if j == i - 1:
        return t.sub[j]
    return 0


def paper_pell_cofactor(k, n):
    """The paper's entrywise matrix of cofactors of the Pell generating matrix.

        i >= j:  (-1)**(i+j) * k**(i-j) * P_j * P_{n-i+1}
        i <  j:  P_i * P_{n-j+1}
    """
    P = prefix(SeqKind.PELL, SeqParams(k), n + 1)
    out = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i >= j:
                sign = -1 if (i + j) % 2 else 1
                out[i - 1][j - 1] = sign * k ** (i - j) * P[j] * P[n - i + 1]
            else:
                out[i - 1][j - 1] = P[i] * P[n - j + 1]
    return DenseMat(out)


def paper_gen_cofactor(params, n):
    """The paper's entrywise matrix of cofactors of the generalized matrix.

        i > j = 1:  (-1)**(i+1) * a * k**(i-1) * P_{n-i+1}
        i >= j > 1: (-1)**(i+j) * k**(i-j) * G_j * P_{n-i+1}
        1 = i <= j: P_{n-j+1}
        1 < i < j:  G_i * P_{n-j+1}
    """
    k, a = params.k, params.a
    P = prefix(SeqKind.PELL, params, n + 1)
    G = prefix(SeqKind.GEN_PELL, params, n + 1)
    out = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i > 1 and j == 1:
                sign = -1 if (i + 1) % 2 else 1
                out[i - 1][j - 1] = sign * a * k ** (i - 1) * P[n - i + 1]
            elif i >= j and j > 1:
                sign = -1 if (i + j) % 2 else 1
                out[i - 1][j - 1] = sign * k ** (i - j) * G[j] * P[n - i + 1]
            elif i == 1:
                out[i - 1][j - 1] = P[n - j + 1]
            else:
                out[i - 1][j - 1] = G[i] * P[n - j + 1]
    return DenseMat(out)


@st.composite
def tridiags(draw, min_n=1, max_n=6):
    """Tridiagonal matrices with small integer bands, singular ones included."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    small = st.integers(min_value=-9, max_value=9)
    diag = draw(st.lists(small, min_size=n, max_size=n))
    sup = draw(st.lists(small, min_size=n - 1, max_size=n - 1))
    sub = draw(st.lists(small, min_size=n - 1, max_size=n - 1))
    return Tridiag(diag, sup, sub)


class TestStructures:
    def test_tridiag_entries(self):
        t = Tridiag((5, 6, 7), (1, 2), (3, 4))
        assert t.n == 3
        assert t.to_dense().rows == ((5, 1, 0), (3, 6, 2), (0, 4, 7))

    @pytest.mark.parametrize("n", (1, 2, 3, 7, 40))
    def test_to_dense_matches_entry(self, n):
        rng = random.Random(n)

        def band(size):
            return [rng.choice((rng.randint(-99, 99), Fraction(rng.randint(-9, 9), 7)))
                    for _ in range(size)]

        t = Tridiag(band(n), band(n - 1), band(n - 1))
        rows = t.to_dense().rows
        assert len(rows) == n
        for i in range(n):
            assert len(rows[i]) == n
            for j in range(n):
                want = band_entry(t, i, j)
                assert rows[i][j] == want and type(rows[i][j]) is type(want)

    def test_band_length_validation(self):
        with pytest.raises(ValueError):
            Tridiag((1, 2), (1, 2), (1,))
        with pytest.raises(ValueError):
            Tridiag(())

    def test_exact_entries_only(self):
        with pytest.raises(TypeError):
            Tridiag((1.5,))
        with pytest.raises(TypeError):
            DenseMat([[True]])

    def test_dense_shape_validation(self):
        with pytest.raises(ValueError):
            DenseMat([[1, 2], [3]])
        with pytest.raises(ValueError):
            DenseMat([])



class TestGeneratingMatrices:
    def test_first_rows(self):
        p = SeqParams(3, 2)
        assert gen_matrix(SeqKind.PELL, p, 2) == Tridiag((2, 2), (3,), (-1,))
        assert gen_matrix(SeqKind.PELL_LUCAS, p, 1) == Tridiag((10,))
        assert gen_matrix(SeqKind.MODIFIED_PELL, p, 1) == Tridiag((5,))
        assert gen_matrix(SeqKind.GEN_PELL, p, 1) == Tridiag((10,))

    def test_interior_is_toeplitz(self):
        t = gen_matrix(SeqKind.GEN_PELL, SeqParams(2, 3), 5)
        assert t.diag == (12, 2, 2, 2, 2)
        assert t.sup == (6, 2, 2, 2)
        assert t.sub == (-1, -1, -1, -1)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            gen_matrix(SeqKind.PELL, SeqParams(1), 0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_determinant_is_next_term(self, kind):
        for k in (1, 2, 3, 8):
            for a in (1, 2, 3):
                params = SeqParams(k, a)
                terms = prefix(kind, params, 42)
                for n in range(1, 41):
                    assert det_continuant(gen_matrix(kind, params, n)) == terms[n + 1]

    def test_determinant_holds_no_continuant_list(self):
        # all 20,000 continuants of this matrix would hold about 30 MB
        t = gen_matrix(SeqKind.PELL, SeqParams(1), 20_000)
        tracemalloc.start()
        try:
            det = det_continuant(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert det == term(SeqKind.PELL, SeqParams(1), 20_001)
        assert peak < 1_000_000


class TestThetaPhi:
    def test_pell_continuants_are_pell_terms(self):
        k, n = 3, 8
        tp = theta_phi(gen_matrix(SeqKind.PELL, SeqParams(k), n))
        P = prefix(SeqKind.PELL, SeqParams(k), n + 2)
        assert list(tp.theta) == [P[i + 1] for i in range(n + 1)]
        assert list(tp.phi) == [P[n - j + 2] for j in range(1, n + 2)]

    def test_gen_continuants(self):
        # theta_0 is 1 by convention; theta_i = G_{i+1} from i = 1 on.
        # phi_1 runs through the first row, so it equals the determinant.
        params, n = SeqParams(2, 3), 9
        tp = theta_phi(gen_matrix(SeqKind.GEN_PELL, params, n))
        G = prefix(SeqKind.GEN_PELL, params, n + 2)
        P = prefix(SeqKind.PELL, params, n + 2)
        assert tp.theta[0] == 1
        assert list(tp.theta[1:]) == [G[i + 1] for i in range(1, n + 1)]
        assert list(tp.phi[1:]) == [P[n - j + 2] for j in range(2, n + 2)]
        assert tp.phi[0] == G[n + 1] == tp.determinant

    def test_determinant_agrees_with_continuant(self):
        t = Tridiag((4, 5, 6, 7), (2, 1, 2), (1, 3, 1))
        assert theta_phi(t).determinant == det_continuant(t) == bareiss_det(t.to_dense())


    @given(tridiags(max_n=8))
    def test_continuant_strings_on_small_bands(self, t):
        theta, phi = continuant_strings(t)
        tp = theta_phi(t)
        assert (list(theta), phi) == (list(map(str, tp.theta)), list(map(str, tp.phi)))

    @pytest.mark.parametrize(
        "kind, params, n",
        [(SeqKind.PELL, SeqParams(2**59), 520), (SeqKind.GEN_PELL, SeqParams(10**6, 3), 1500)],
    )
    def test_continuant_strings_across_the_switch(self, kind, params, n):
        t = gen_matrix(kind, params, n)
        tp = theta_phi(t)
        assert tp.determinant.bit_length() > STR_MAX_BITS
        theta, phi = continuant_strings(t)
        assert list(theta) == list(map(to_str, tp.theta))
        assert phi == list(map(to_str, tp.phi))

    def test_a_zero_past_the_switch_prints_as_zero(self):
        # theta_3 = 0*theta_2 - 0*theta_1 with both negative: two -0 products on Decimal
        t = Tridiag((-(2**14_001), 1, 0), (0, 0), (0, 0))
        theta, _ = continuant_strings(t)
        assert list(theta) == list(map(to_str, theta_phi(t).theta))


class TestUsmaniInverse:
    def test_frozen_pell_2x2(self):
        inv = usmani_inverse(gen_matrix(SeqKind.PELL, SeqParams(1), 2))
        assert inv.rows == (
            (Fraction(2, 5), Fraction(-1, 5)),
            (Fraction(1, 5), Fraction(2, 5)),
        )

    def test_frozen_gen_2x2(self):
        inv = usmani_inverse(gen_matrix(SeqKind.GEN_PELL, SeqParams(1, 1), 2))
        assert inv.rows == (
            (Fraction(2, 7), Fraction(-1, 7)),
            (Fraction(1, 7), Fraction(3, 7)),
        )

    def test_one_by_one(self):
        inv = usmani_inverse(gen_matrix(SeqKind.GEN_PELL, SeqParams(3, 2), 1))
        assert inv.rows == ((Fraction(1, 10),),)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            usmani_inverse(Tridiag((1, 1), (1,), (1,)))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_product_with_inverse_is_identity(self, kind):
        for k in (1, 2, 3):
            for a in (1, 2):
                params = SeqParams(k, a)
                for n in range(1, 13):
                    t = gen_matrix(kind, params, n)
                    assert band_times(t, usmani_inverse(t)) == scaled_identity(n, 1)

    def test_matches_gaussian_elimination_oracle(self):
        cases = [
            gen_matrix(SeqKind.PELL, SeqParams(2), 5),
            gen_matrix(SeqKind.GEN_PELL, SeqParams(3, 2), 6),
            gen_matrix(SeqKind.PELL_LUCAS, SeqParams(1), 4),
            Tridiag((4, 5, 6, 7), (2, 1, 2), (1, 3, 1)),
            Tridiag((1, -2, 3), (7, -1), (2, 5)),
        ]
        for t in cases:
            assert usmani_inverse(t) == gauss_inverse(t.to_dense())

    def test_walks_each_continuant_family_once(self, monkeypatch):
        walks = []
        minors = tridiagonal._minors
        monkeypatch.setattr(
            tridiagonal, "_minors", lambda *args, **kw: walks.append(args) or minors(*args, **kw)
        )
        t = gen_matrix(SeqKind.GEN_PELL, SeqParams(2, 3), 6)
        for inverse in (usmani_inverse, inverse_strings):
            walks.clear()
            inverse(t)
            assert len(walks) == 2, inverse.__name__


class TestClosedFormInverses:
    def test_one_by_one_is_reciprocal_first_term(self):
        # the paper's D^T / det at order 1: an empty cofactor gives 1, and the
        # determinant of the 1x1 generating matrix is the second term
        for kind, params, expected in (
            (SeqKind.PELL, SeqParams(4), Fraction(1, 2)),
            (SeqKind.GEN_PELL, SeqParams(2, 3), Fraction(1, 12)),
        ):
            assert Fraction(1, term(kind, params, 2)) == expected
            assert usmani_inverse(gen_matrix(kind, params, 1)).rows == ((expected,),)


class TestAdjugate:
    def test_frozen_entries(self):
        assert adjugate(Tridiag((7,))).rows == ((1,),)
        assert adjugate(Tridiag((5, 6), (2,), (3,))).rows == ((6, -2), (-3, 5))
        assert adjugate(Tridiag((Fraction(1, 2), 3), (1,), (2,))).rows == (
            (3, -1),
            (-2, Fraction(1, 2)),
        )

    @given(tridiags(min_n=2))
    def test_is_transposed_signed_minors(self, t):
        assert adjugate(t) == transpose(minor_cofactors(t.to_dense()))

    @given(tridiags())
    def test_product_is_det_times_identity(self, t):
        assert band_times(t, adjugate(t)) == scaled_identity(t.n, det_continuant(t))

    def test_integer_bands_give_integer_entries(self):
        for kind in ALL_KINDS:
            adj = adjugate(gen_matrix(kind, SeqParams(3, 2), 9))
            assert all(type(x) is int for row in adj.rows for x in row)


class TestCofactorMatrices:
    def test_frozen_2x2(self):
        assert pell_cofactor(1, 2).rows == ((2, 1), (-1, 2))
        assert gen_pell_cofactor(SeqParams(1, 1), 2).rows == ((2, 1), (-1, 3))

    def test_symbolic_2x2_shape(self):
        for k in range(1, 6):
            P2 = 2
            assert pell_cofactor(k, 2).rows == ((P2, 1), (-k, P2))
            for a in (1, 2):
                params = SeqParams(k, a)
                G2 = a * k + 2 * a
                assert gen_pell_cofactor(params, 2).rows == ((2, 1), (-a * k, G2))

    def test_first_row_entry_example(self):
        # entry (1,3) of D_3 is P_{n-j+1} = P_1 = 1, independent of a
        assert gen_pell_cofactor(SeqParams(1, 2), 3).rows[0][2] == 1

    def test_needs_order_two(self):
        with pytest.raises(ValueError):
            pell_cofactor(1, 1)
        with pytest.raises(ValueError):
            gen_pell_cofactor(SeqParams(1, 1), 1)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=12))
    def test_pell_paper_formula_is_adjugate_transpose(self, k, n):
        paper = paper_pell_cofactor(k, n)
        assert paper == transpose(adjugate(gen_matrix(SeqKind.PELL, SeqParams(k), n)))
        if n >= 2:
            assert pell_cofactor(k, n) == paper

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=12),
    )
    def test_gen_paper_formula_is_adjugate_transpose(self, k, a, n):
        params = SeqParams(k, a)
        paper = paper_gen_cofactor(params, n)
        assert paper == transpose(adjugate(gen_matrix(SeqKind.GEN_PELL, params, n)))
        if n >= 2:
            assert gen_pell_cofactor(params, n) == paper

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equal_signed_minors(self, k):
        for n in range(2, 7):
            t = gen_matrix(SeqKind.PELL, SeqParams(k), n)
            assert pell_cofactor(k, n) == minor_cofactors(t.to_dense())
            for a in (1, 2):
                params = SeqParams(k, a)
                td = gen_matrix(SeqKind.GEN_PELL, params, n).to_dense()
                assert gen_pell_cofactor(params, n) == minor_cofactors(td)

    def test_determinant_power_laws(self):
        for k in (1, 2, 3):
            for n in range(2, 8):
                assert bareiss_det(pell_cofactor(k, n)) == term(
                    SeqKind.PELL, SeqParams(k), n + 1
                ) ** (n - 1)
                for a in (1, 2):
                    params = SeqParams(k, a)
                    assert bareiss_det(gen_pell_cofactor(params, n)) == term(
                        SeqKind.GEN_PELL, params, n + 1
                    ) ** (n - 1)


class TestBareiss:
    def test_basics(self):
        assert bareiss_det(scaled_identity(3, 1)) == 1
        assert bareiss_det(DenseMat([[0, 1], [1, 0]])) == -1
        assert bareiss_det(DenseMat([[7]])) == 7
        assert bareiss_det(DenseMat([[1, 2], [2, 4]])) == 0
        assert bareiss_det(DenseMat([[0, 0], [0, 5]])) == 0

    def test_known_values(self):
        assert bareiss_det(pell_cofactor(1, 2)) == 5
        assert bareiss_det(gen_pell_cofactor(SeqParams(1, 1), 3)) == 289

    def test_integral_fractions_accepted(self):
        assert bareiss_det(DenseMat([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]])) == 6
        with pytest.raises(ValueError):
            bareiss_det(DenseMat([[Fraction(1, 2)]]))

    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        )
    )
    def test_matches_permutation_expansion(self, rows):
        m = DenseMat(rows)
        assert bareiss_det(m) == permutation_det(m)


def test_entry_strings_and_grid():
    inv = usmani_inverse(gen_matrix(SeqKind.PELL, SeqParams(1), 2))
    cells = entry_strings(inv)
    assert cells == [["2/5", "-1/5"], ["1/5", "2/5"]]
    assert render_grid(cells) == ["2/5  -1/5", "1/5   2/5"]
    t = gen_matrix(SeqKind.GEN_PELL, SeqParams(1, 1), 2)
    assert entry_strings(t.to_dense()) == [["3", "1"], ["-1", "2"]]


@pytest.mark.parametrize(
    "t",
    [gen_matrix(kind, SeqParams(k, a), n)
     for kind in ALL_KINDS for k, a, n in ((1, 1, 1), (2, 3, 7), (5, 2, 12))]
    + [Tridiag((3, -1, 4), (2, -5), (1, 6)), Tridiag((-2, 1), (3,), (1,)), Tridiag((-7,))],
)
def test_inverse_cells_print_as_reduced_fractions(t):
    # the cells straight from the integer adjugate, divided by a determinant of either sign
    det = det_continuant(t)
    assert inverse_strings(t) == entry_strings(usmani_inverse(t))
    assert inverse_strings(t) == [[str(Fraction(x, det)) for x in row] for row in adjugate(t).rows]


def test_entry_strings_past_the_default_digit_limit(int_str_limit):
    big = 10**5000
    int_str_limit(4300)
    cells = entry_strings(Tridiag([big, 1], [1], [1]).to_dense())
    int_str_limit(0)
    assert cells == [[str(big), "1"], ["1", "1"]]


def test_fraction_entries_past_the_default_digit_limit(int_str_limit):
    big = 10**5000 + 1
    t = Tridiag((2**15_000 + 1, 3), (1,), (1,))
    int_str_limit(4300)
    ratio = entry_strings(DenseMat([[Fraction(big, 3)]]))
    cells = entry_strings(usmani_inverse(t))
    want = inverse_strings(t)
    int_str_limit(0)
    assert ratio == [[f"{big}/3"]]
    assert cells == want == reduced_cells(t)


def reduced_cells(t):
    """The inverse's cells as Fraction prints them, from the integer adjugate."""
    det = det_continuant(t)
    return [[str(Fraction(x, det)) for x in row] for row in adjugate(t).rows]


@st.composite
def generating_like(draw, max_n=9):
    """Integer tridiagonals with sub = -1, the generating matrices' shape, whose
    lower cells copy their mirror images' gcds when sup is prime to det;
    bands of both signs."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    small = st.integers(min_value=-12, max_value=12)
    diag = draw(st.lists(small, min_size=n, max_size=n))
    sup = draw(st.lists(small, min_size=n - 1, max_size=n - 1))
    return Tridiag(diag, sup, [-1] * (n - 1))


@given(st.one_of(tridiags(max_n=9), generating_like()))
def test_inverse_strings_print_each_cell_as_fraction_does(t):
    if det_continuant(t) == 0:
        with pytest.raises(ZeroDivisionError):
            inverse_strings(t)
        return
    cells = reduced_cells(t)
    assert inverse_strings(t) == cells
    assert entry_strings(usmani_inverse(t)) == cells


@pytest.mark.parametrize(
    "kind, k, a, n",
    [(SeqKind.PELL, 1, 1, 35), (SeqKind.PELL, 2, 1, 36), (SeqKind.PELL_LUCAS, 2, 1, 33),
     (SeqKind.MODIFIED_PELL, 3, 1, 24), (SeqKind.GEN_PELL, 2, 3, 40), (SeqKind.GEN_PELL, 6, 4, 21)],
)
def test_inverse_strings_of_generating_matrices(kind, k, a, n):
    # k even puts a large power of 2 in det; k = 1 makes the sup band prime to det
    t = gen_matrix(kind, SeqParams(k, a), n)
    assert inverse_strings(t) == reduced_cells(t)


def test_inverse_strings_with_a_negative_determinant():
    t = Tridiag((-3, 5, 2), (4, 6), (-1, -1))
    assert det_continuant(t) < 0
    assert inverse_strings(t) == reduced_cells(t)


def test_inverse_strings_refuse_a_zero_determinant():
    with pytest.raises(ZeroDivisionError):
        inverse_strings(Tridiag((1, 1), (1,), (1,)))


def test_inverse_cells_refuse_a_zero_determinant():
    # singular tridiagonals of orders 1 and 3, beside the order-2 one above
    for t in (Tridiag((0,)), Tridiag((2, 3, 2), (1, 5), (1, 1))):
        assert det_continuant(t) == 0
        with pytest.raises(ZeroDivisionError):
            inverse_strings(t)


def test_inverse_strings_past_the_default_digit_limit(int_str_limit):
    big = 10**5000 + 7
    t = Tridiag((big, 3, big), (2, -1), (-1, -1))
    int_str_limit(0)
    over_three = Tridiag((1, big + 3), (big,), (1,))  # det 3: huge numerators over 3
    want = reduced_cells(t)
    ratios = [[f"{big + 3}/3", f"-{big}/3"], ["-1/3", "1/3"]]
    int_str_limit(4300)
    cells = inverse_strings(t)
    small = inverse_strings(over_three)
    mixed = entry_strings(DenseMat([[big, 1], [2, 3]]))
    int_str_limit(0)
    assert cells == want
    assert small == ratios == reduced_cells(over_three)
    assert max(map(len, cells[1])) > 4300
    assert mixed == [[str(big), "1"], ["2", "3"]]


def old_render_grid(rows):
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows)


@st.composite
def string_grids(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    cell = st.text(alphabet="-/0123456789{}ab", max_size=12)
    return [draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(n)]


@given(string_grids())
def test_render_grid_matches_rjust_and_join(rows):
    assert "\n".join(render_grid(rows)) == old_render_grid(rows)
