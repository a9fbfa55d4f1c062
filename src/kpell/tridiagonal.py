"""Tridiagonal generating matrices and their exact determinants and inverses.

The n x n generating matrix of each sequence has the sequence's second-order
weights on a Toeplitz interior (2 on the diagonal, k above, -1 below) and the
kind-specific pair in its first row; its determinant is the (n+1)-th term.
This module computes determinants by the three-term walk of
``kpell.sequences`` over the bands (theta; phi over the reversed bands), the
integer adjugate of any tridiagonal matrix from its theta/phi continuants
(the inverse is adjugate / det, the matrix of cofactors its transpose), and
exact integer determinants of arbitrary dense matrices by fraction-free
elimination.

Grids are made a row at a time with no Python-level step per cell: each
adjugate row is a few ``map``/``accumulate`` passes, each row of strings one
``digits.to_strs`` (one ``map(str, row)`` unless the row holds a huge int or
a ratio), each text line one ``map(str.rjust, row, widths)`` joined.
Inverses are printed by ``inverse_strings`` alone: a cell x / det is reduced
by gcd(x, bound), where ``bound`` divides det and is built from the
continuants' own gcds with det, so the per-cell gcd is small; each distinct
denominator is printed once.  ``fractions`` is imported only for matrices
of fractions.
"""

from __future__ import annotations

from collections import deque, namedtuple
from itertools import accumulate, repeat
from math import gcd, lcm, prod
from operator import add, floordiv, getitem, mul, neg
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .digits import to_str, to_strs
from .sequences import SeqKind, SeqParams, _walk, initial_pair

if TYPE_CHECKING:
    from fractions import Fraction

    Entry = int | Fraction


def _check_entry(x: object) -> Entry:
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    from fractions import Fraction  # only matrices of fractions pay for the import

    if isinstance(x, Fraction):
        return x
    raise TypeError(f"exact entries (int or Fraction) required, got {x!r}")


class Tridiag(namedtuple("Tridiag", "diag sup sub")):
    """A tridiagonal matrix stored as its three bands, 1-indexed like
    the usual a_i / b_i / c_i notation: diag holds a_1..a_n, sup holds
    b_1..b_{n-1}, sub holds c_1..c_{n-1}."""

    __slots__ = ()

    def __new__(
        cls, diag: Iterable[Entry], sup: Iterable[Entry] = (), sub: Iterable[Entry] = ()
    ) -> Tridiag:
        diag, sup, sub = (tuple(map(_check_entry, band)) for band in (diag, sup, sub))
        n = len(diag)
        if n < 1:
            raise ValueError("a tridiagonal matrix needs at least one row")
        if len(sup) != n - 1 or len(sub) != n - 1:
            raise ValueError(
                f"band lengths must be {n - 1} for order {n}, "
                f"got sup={len(sup)}, sub={len(sub)}"
            )
        return super().__new__(cls, diag, sup, sub)

    @property
    def n(self) -> int:
        return len(self.diag)

    def to_dense(self) -> DenseMat:
        """The n x n matrix, each row of zeros filled in from the bands."""
        n = self.n
        rows = [[0] * n for _ in range(n)]
        for i, d in enumerate(self.diag):
            rows[i][i] = d
        for i, (b, c) in enumerate(zip(self.sup, self.sub)):
            rows[i][i + 1], rows[i + 1][i] = b, c
        return DenseMat._of_checked(rows)


class DenseMat(namedtuple("DenseMat", "rows")):
    """A small square matrix of exact entries (int or Fraction)."""

    __slots__ = ()

    def __new__(cls, rows: Iterable[Iterable[Entry]]) -> DenseMat:
        rows = tuple(tuple(map(_check_entry, row)) for row in rows)
        if not rows:
            raise ValueError("a matrix needs at least one row")
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("square matrix required")
        return super().__new__(cls, rows)

    @classmethod
    def _of_checked(cls, rows: Iterable[Iterable[Entry]]) -> DenseMat:
        """A matrix of square rows whose entries are already known to be exact.

        For matrices this module computes from checked entries: it skips
        the per-entry check of the public constructor.
        """
        return tuple.__new__(cls, (tuple(map(tuple, rows)),))

    @property
    def n(self) -> int:
        return len(self.rows)


class ThetaPhi(namedtuple("ThetaPhi", "theta phi")):
    """Leading and trailing continuants of a tridiagonal matrix.

    theta[i] is the determinant of the leading i x i principal minor
    (theta[0] = 1); phi[j-1] is the determinant of the trailing minor on
    rows/columns j..n (phi[n] = 1).
    """

    __slots__ = ()

    @property
    def determinant(self) -> Entry:
        return self.theta[-1]


def gen_matrix(kind: SeqKind, params: SeqParams, n: int) -> Tridiag:
    """The n x n generating matrix whose determinant is the (n+1)-th term.

    The first row is (x_2, k*x_1, 0, ..., 0), x_1 and x_2 being the kind's
    terms at indices 1 and 2; every later row is (..., -1, 2, k, ...), with -1
    below the diagonal, 2 on it and k above it (the last row has no k).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"matrix order must be >= 1, got {n!r}")
    k = params.k
    x0, x1 = initial_pair(kind, params)
    diag = (2 * x1 + k * x0,) + (2,) * (n - 1)
    sup = ((k * x1,) + (k,) * (n - 2)) if n > 1 else ()
    sub = (-1,) * (n - 1)
    return Tridiag(diag, sup, sub)


def _minors(t: Tridiag, step: int = 1, printing: bool = False) -> Iterator:
    """theta_0 = 1, theta_1, ..., theta_n, theta_i = a_i*theta_{i-1} -
    b_{i-1}*c_{i-1}*theta_{i-2}: ``_walk`` over the bands, read with ``step``
    (-1 gives phi_n = 1, ..., phi_0)."""
    diag, sup, sub = t.diag[::step], t.sup[::step], t.sub[::step]
    return _walk(1, diag[0], zip(diag[1:], map(neg, map(mul, sup, sub))), printing)


def det_continuant(t: Tridiag) -> Entry:
    """Determinant by the three-term continuant recurrence, O(n) exact ops."""
    return deque(_minors(t), maxlen=1).pop()


def theta_phi(t: Tridiag) -> ThetaPhi:
    """Both continuant families, forward (theta) and backward (phi): phi is
    the walk over the reversed bands, read back to front."""
    return ThetaPhi(tuple(_minors(t)), tuple(_minors(t, -1))[::-1])


def continuant_strings(t: Tridiag) -> tuple[Iterator[str], list[str]]:
    """``theta_phi(t)`` as decimal strings, for integer bands: theta's as the
    printing walk makes them, phi's held and reversed, never the values."""
    phi = list(map(str, _minors(t, -1, printing=True)))
    phi.reverse()
    return map(str, _minors(t, printing=True)), phi


def _adjugate_rows(t: Tridiag, tp: ThetaPhi | None = None) -> Iterator[list[Entry]]:
    """The rows of ``adjugate(t)``, each made by C-level maps over band runs."""
    theta, phi = tp or theta_phi(t)
    n = t.n
    up = [-b for b in t.sup]
    # Read from the diagonal leftwards: back_lo[n-1-i:] is -sub[i-1], ..., -sub[0]
    # and back_theta[n+1-i:] is theta[i-1], ..., theta[0].
    back_lo = [-c for c in reversed(t.sub)]
    back_theta = theta[::-1]
    for i in range(n):
        # j < i, from j = i-1 down: phi[i+1] * -sub[i-1] * ... * -sub[j] * theta[j]
        runs = accumulate(back_lo[n - 1 - i:], mul, initial=phi[i + 1])
        next(runs)
        row = list(map(mul, runs, back_theta[n + 1 - i:]))
        row.reverse()
        # j >= i: theta[i] * -sup[i] * ... * -sup[j-1] * phi[j+1]
        row += map(mul, accumulate(up[i:], mul, initial=theta[i]), phi[i + 1:])
        yield row


def adjugate(t: Tridiag) -> DenseMat:
    """The adjugate of a tridiagonal matrix: det times its inverse, division-free.

    Entry (i, j) is a run of off-diagonal band entries times two continuants
    (Usmani, LAA 212/213, 1994):

        i < j:  (-1)**(i+j) * b_i*...*b_{j-1} * theta_{i-1} * phi_{j+1}
        i == j:                               theta_{i-1} * phi_{i+1}
        i > j:  (-1)**(i+j) * c_j*...*c_{i-1} * theta_{j-1} * phi_{i+1}

    Integer bands give integer entries.  Each row is built by running
    products of its signed band runs (``itertools.accumulate``) started at a
    continuant, times the other continuants, so no cell costs a Python-level
    step.  The matrix of cofactors is the transpose.
    """
    return DenseMat._of_checked(_adjugate_rows(t))


def usmani_inverse(t: Tridiag) -> DenseMat:
    """The exact inverse of a nonsingular tridiagonal matrix: adjugate / det."""
    from fractions import Fraction

    tp = theta_phi(t)  # one walk each way, for det and the adjugate alike
    det = tp.determinant
    if det == 0:
        raise ValueError("matrix is singular")
    rows = _adjugate_rows(t, tp)
    return DenseMat._of_checked([[Fraction(x, det) for x in row] for row in rows])


def _cofactors(kind: SeqKind, k: int, a: int, n: int) -> DenseMat:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"cofactor matrices need n >= 2, got {n!r}")
    t = gen_matrix(kind, SeqParams(k, a), n)
    # adj(T)^T = adj(T^T), and T^T swaps the two off-diagonal bands.
    return adjugate(t._replace(sup=t.sub, sub=t.sup))


def pell_cofactor(k: int, n: int) -> DenseMat:
    """The matrix of cofactors of the Pell generating matrix, n >= 2: the
    transposed adjugate."""
    return _cofactors(SeqKind.PELL, k, 1, n)


def gen_pell_cofactor(params: SeqParams, n: int) -> DenseMat:
    """The matrix of cofactors of the generalized matrix, n >= 2: the
    transposed adjugate."""
    return _cofactors(SeqKind.GEN_PELL, params.k, params.a, n)


def bareiss_det(m: DenseMat) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination.

    Every division below is exact (each 2x2 cross term is divisible by the
    previous pivot), so the computation never leaves the integers.  Row
    swaps flip the sign; a column with no pivot means the determinant is 0.
    """
    a: list[list[int]] = []
    for row in m.rows:
        out_row = []
        for x in row:
            if not isinstance(x, int):  # a Fraction
                if x.denominator != 1:
                    raise ValueError(f"integer entries required, got {x}")
                x = int(x)
            out_row.append(x)
        a.append(out_row)
    n = len(a)
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot_row = next((r for r in range(col, n) if a[r][col]), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        pivot = a[col][col]
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                a[r][c] = (pivot * a[r][c] - a[r][col] * a[col][c]) // prev
            a[r][col] = 0
        prev = pivot
    return sign * a[-1][-1]


def entry_strings(m: DenseMat) -> list[list[str]]:
    """All entries as exact decimal/ratio strings, row-major.

    Each row is converted by ``digits.to_strs``, so no matrix, of ints or of
    fractions, needs Python's int->str digit limit lifted.
    """
    return list(map(to_strs, m.rows))


def inverse_strings(t: Tridiag) -> list[list[str]]:
    """The cells of ``usmani_inverse(t)`` for integer bands, as ``entry_strings``
    prints them, without building a Fraction.

    A cell x / det is printed as ``str(Fraction(x, det))`` would be: reduced
    by gcd(x, det), the sign on the numerator, and no ``/1``.  A cell
    x = theta[a] * run * phi[b] of the adjugate shares with det only what
    gcd(theta[a], det) * gcd(run, det) * gcd(phi[b], det) holds, so
    gcd(x, det) divides ``bound``, built from the lcms of those continuant
    gcds and the band products, and gcd(x, det) == gcd(x, bound): a smaller
    gcd.  When every sub entry is -1 and the sup entries are prime to det
    (the generating matrix of P at k = 1, for one), a cell below the
    diagonal and its mirror image above it differ by a factor prime to det,
    so the upper cell's gcd is copied.  Each distinct denominator is
    printed once.
    """
    tp = theta_phi(t)
    theta, phi = tp
    det = tp.determinant
    if det == 0:
        raise ZeroDivisionError("entries divided by a zero determinant")
    # theta[n] and phi[0] are det itself and appear in no cell
    continuants = lcm(*map(gcd, theta[:-1], repeat(det))) * lcm(*map(gcd, phi[1:], repeat(det)))
    bound = gcd(continuants * prod(t.sup) * prod(t.sub), det)
    same = all(c == -1 for c in t.sub) and gcd(prod(t.sup), det) == 1
    rows_gs: list[list[int]] = []
    suffix: dict[int, str] = {}  # g -> the text after the numerator: "/" + |det| // g, or ""
    cells = []
    for i, row in enumerate(_adjugate_rows(t, tp)):
        if same:  # below the diagonal, the gcds of the mirror cells (j, i)
            gs = list(map(getitem, rows_gs, repeat(i)))
            gs += map(gcd, row[i:], repeat(bound))
        else:
            gs = list(map(gcd, row, repeat(bound)))
        rows_gs.append(gs)
        for g in set(gs).difference(suffix):
            den = abs(det) // g
            suffix[g] = "/" + to_str(den) if den != 1 else ""
        if det < 0:  # the sign goes on the numerator
            row = list(map(neg, row))
        nums = to_strs(list(map(floordiv, row, gs)))
        cells.append(list(map(add, nums, map(suffix.__getitem__, gs))))
    return cells


def render_grid(rows: Sequence[Sequence[str]]) -> list[str]:
    """The lines of a column-aligned text rendering of a grid of strings; each
    is one ``map(str.rjust, row, widths)`` joined, with no Python-level step per cell."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(map(str.rjust, row, widths)) for row in rows]
