"""Tridiagonal generating matrices and their exact determinants and inverses.

The n x n generating matrix of each sequence has the sequence's second-order
weights on a Toeplitz interior (2 on the diagonal, k above, -1 below) and the
kind-specific pair in its first row; its determinant is the (n+1)-th term.
This module computes determinants by three-term continuants, the integer
adjugate of any tridiagonal matrix from its theta/phi continuants (the inverse
is adjugate / det, the matrix of cofactors its transpose), and exact integer
determinants of arbitrary dense matrices by fraction-free elimination.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .digits import to_str
from .sequences import SeqKind, SeqParams

Entry = int | Fraction


def _check_entry(x: object) -> Entry:
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"exact entries (int or Fraction) required, got {x!r}")
    return x


class Tridiag:
    """A tridiagonal matrix stored as its three bands, 1-indexed like
    the usual a_i / b_i / c_i notation: diag holds a_1..a_n, sup holds
    b_1..b_{n-1}, sub holds c_1..c_{n-1}."""

    __slots__ = ("_diag", "_sup", "_sub")

    def __init__(self, diag: Iterable[Entry], sup: Iterable[Entry] = (), sub: Iterable[Entry] = ()):
        self._diag = tuple(_check_entry(x) for x in diag)
        self._sup = tuple(_check_entry(x) for x in sup)
        self._sub = tuple(_check_entry(x) for x in sub)
        n = len(self._diag)
        if n < 1:
            raise ValueError("a tridiagonal matrix needs at least one row")
        if len(self._sup) != n - 1 or len(self._sub) != n - 1:
            raise ValueError(
                f"band lengths must be {n - 1} for order {n}, "
                f"got sup={len(self._sup)}, sub={len(self._sub)}"
            )

    @property
    def n(self) -> int:
        return len(self._diag)

    @property
    def diag(self) -> tuple[Entry, ...]:
        return self._diag

    @property
    def sup(self) -> tuple[Entry, ...]:
        return self._sup

    @property
    def sub(self) -> tuple[Entry, ...]:
        return self._sub

    def to_dense(self) -> "DenseMat":
        """The n x n matrix, each row of zeros filled in from the bands."""
        n = self.n
        rows = [[0] * n for _ in range(n)]
        for i, d in enumerate(self._diag):
            rows[i][i] = d
        for i, (b, c) in enumerate(zip(self._sup, self._sub)):
            rows[i][i + 1], rows[i + 1][i] = b, c
        return DenseMat._of_checked(rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tridiag):
            return NotImplemented
        return (self._diag, self._sup, self._sub) == (other._diag, other._sup, other._sub)

    def __hash__(self) -> int:
        return hash((self._diag, self._sup, self._sub))

    def __repr__(self) -> str:
        return f"Tridiag(diag={self._diag!r}, sup={self._sup!r}, sub={self._sub!r})"


class DenseMat:
    """A small square matrix of exact entries (int or Fraction)."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[Entry]]):
        rs = tuple(tuple(_check_entry(x) for x in row) for row in rows)
        if not rs:
            raise ValueError("a matrix needs at least one row")
        if any(len(row) != len(rs) for row in rs):
            raise ValueError("square matrix required")
        self._rows = rs

    @classmethod
    def _of_checked(cls, rows: Iterable[Iterable[Entry]]) -> "DenseMat":
        """A matrix of square rows whose entries are already known to be exact.

        For matrices this module computes from checked entries: it skips
        the per-entry check of the public constructor.
        """
        m = object.__new__(cls)
        m._rows = tuple(map(tuple, rows))
        return m

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[tuple[Entry, ...], ...]:
        return self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseMat):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"DenseMat({[list(r) for r in self._rows]!r})"


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

    First row starts (x_2, k*x_1/...) with the kind's own pair; every later
    row is (-1, 2, k).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"matrix order must be >= 1, got {n!r}")
    k, a = params.k, params.a
    if kind is SeqKind.PELL:
        d0, b0 = 2, k
    elif kind is SeqKind.PELL_LUCAS:
        d0, b0 = 2 * k + 4, 2 * k
    elif kind is SeqKind.MODIFIED_PELL:
        d0, b0 = k + 2, k
    else:
        d0, b0 = a * k + 2 * a, a * k
    diag = (d0,) + (2,) * (n - 1)
    sup = ((b0,) + (k,) * (n - 2)) if n > 1 else ()
    sub = (-1,) * (n - 1)
    return Tridiag(diag, sup, sub)


def det_continuant(t: Tridiag) -> Entry:
    """Determinant by the three-term continuant recurrence, O(n) exact ops."""
    prev: Entry = 1
    cur: Entry = t.diag[0]
    for i in range(1, t.n):
        prev, cur = cur, t.diag[i] * cur - t.sup[i - 1] * t.sub[i - 1] * prev
    return cur


def theta_phi(t: Tridiag) -> ThetaPhi:
    """Both continuant families, forward (theta) and backward (phi)."""
    n = t.n
    theta: list[Entry] = [1, t.diag[0]]
    for i in range(2, n + 1):
        theta.append(t.diag[i - 1] * theta[i - 1] - t.sup[i - 2] * t.sub[i - 2] * theta[i - 2])
    phi: list[Entry] = [0] * (n + 1)
    phi[n] = 1
    phi[n - 1] = t.diag[n - 1]
    for j in range(n - 1, 0, -1):
        phi[j - 1] = t.diag[j - 1] * phi[j] - t.sup[j - 1] * t.sub[j - 1] * phi[j + 1]
    return ThetaPhi(tuple(theta), tuple(phi))


def adjugate(t: Tridiag) -> DenseMat:
    """The adjugate of a tridiagonal matrix: det times its inverse, division-free.

    Entry (i, j) is a run of off-diagonal band entries times two continuants
    (Usmani, LAA 212/213, 1994):

        i < j:  (-1)**(i+j) * b_i*...*b_{j-1} * theta_{i-1} * phi_{j+1}
        i == j:                               theta_{i-1} * phi_{i+1}
        i > j:  (-1)**(i+j) * c_j*...*c_{i-1} * theta_{j-1} * phi_{i+1}

    Integer bands give integer entries.  Each row (column) carries its signed
    band run times theta_{i-1} forward, so a cell costs one product with phi.
    The matrix of cofactors is the transpose.
    """
    tp = theta_phi(t)
    theta, phi = tp.theta, tp.phi  # phi[j] is phi_{j+1}
    sup, sub = t.sup, t.sub
    n = t.n
    out: list[list[Entry]] = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = theta[i] * phi[i + 1]
        upper = lower = theta[i]
        for j in range(i + 1, n):
            upper *= -sup[j - 1]
            lower *= -sub[j - 1]
            out[i][j] = upper * phi[j + 1]
            out[j][i] = lower * phi[j + 1]
    return DenseMat._of_checked(out)


def usmani_inverse(t: Tridiag) -> DenseMat:
    """The exact inverse of a nonsingular tridiagonal matrix: adjugate / det."""
    det = det_continuant(t)
    if det == 0:
        raise ValueError("matrix is singular")
    return DenseMat._of_checked([[Fraction(x, det) for x in row] for row in adjugate(t).rows])


def _cofactors(kind: SeqKind, k: int, a: int, n: int) -> DenseMat:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"cofactor matrices need n >= 2, got {n!r}")
    t = gen_matrix(kind, SeqParams(k, a), n)
    # adj(T)^T = adj(T^T), and T^T swaps the two off-diagonal bands.
    return adjugate(Tridiag(t.diag, t.sub, t.sup))


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
            if isinstance(x, Fraction):
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


def entry_strings(m: DenseMat, det: int = 1) -> list[list[str]]:
    """All entries as exact decimal/ratio strings, row-major.

    With an integer ``det`` the entries of an integer matrix are divided by
    it, each printed as ``str(Fraction(x, det))`` would be but without
    building one: reduced by one gcd, the sign on the numerator, and no
    ``/1``.  ``entry_strings(adjugate(t), det_continuant(t))`` prints the
    cells of ``usmani_inverse(t)``.  Integers print through ``to_str``, so
    an integer matrix never needs Python's int->str digit limit lifted.
    """
    if det == 1:
        return [[to_str(x) for x in row] for row in m.rows]
    if det == 0:
        raise ZeroDivisionError("entries divided by a zero determinant")
    sign = -1 if det < 0 else 1
    cells = []
    for row in m.rows:
        out = []
        for x in row:
            g = gcd(x, det) * sign
            num, den = x // g, det // g
            out.append(to_str(num) if den == 1 else f"{to_str(num)}/{to_str(den)}")
        cells.append(out)
    return cells


def render_grid(rows: Sequence[Sequence[str]]) -> str:
    """Column-aligned text rendering of a grid of strings."""
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
    return "\n".join(lines)
