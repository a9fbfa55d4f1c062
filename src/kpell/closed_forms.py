"""Closed-form evaluation routes that avoid the recurrence entirely.

Three exact routes (a single binomial sum for P, a two-case double binomial
sum for G, and symbolic polynomials in k for both), plus one deliberately
inexact route: the determinant of the generating matrix as a product of
complex eigenvalues, kept for numerical cross-checking.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .poly import KPoly
from .sequences import SeqKind, SeqParams, _check_index, guard_index, term


def binom(n: int, r: int) -> int:
    """Binomial coefficient extended by zero outside 0 <= r <= n.

    Negative arguments simply give 0 (so e.g. binom(-1, 0) == 0), which is
    the convention the sums below are stated in; their evaluation starts
    past the zero terms instead of forming them.
    """
    if r < 0 or n < 0 or r > n:
        return 0
    return math.comb(n, r)


def pell_binomial(k: int, n: int) -> int:
    """The sum over i of binom(n-i, i) * k**i * 2**(n-2i), equal to P_{k,n+1}.

    Defined for n >= 2; smaller n have degenerate sums that miss the
    sequence values.  The terms are hypergeometric: from t_0 = 2**n,

        t_{i+1} = t_i * k*(n-2i)*(n-2i-1) / (4*(i+1)*(n-i)),

    for i < n//2.  Every t_{i+1} is an integer, so the floor division is
    exact, and each step is one big-by-small product and one division by a
    small integer: O(n) steps of O(digits) work each.  Guarded by
    KPELL_GUARD_N like the recurrence.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"the binomial route needs n >= 2, got {n!r}")
    guard_index(n)
    t = total = 1 << n
    for i in range(n // 2):
        t = t * (k * (n - 2 * i) * (n - 2 * i - 1)) // (4 * (i + 1) * (n - i))
        total += t
    return total


def gen_double_sum(params: SeqParams, n: int) -> int:
    """A two-case double binomial sum equal to G_{k,n+1}, for n >= 1.

    Even indices n = 2m and odd indices n = 2m-1 take slightly different
    offsets (off = 2 and 3); both cases sum, over 1 <= i <= m and j in
    {0, 1}, the terms

        binom(N, R) * a**(1-j) * k**(m+1-i-j) * 2**(2i+j-off) * (a*k + 2*a)**j

    with N = m-off+i+j and R = m-i.  Each j-series starts at the first i
    whose binomial is nonzero, i = max(1, ceil((off-j)/2)), which also keeps
    the 2-exponent nonnegative; no zero binomial is ever formed.  From
    there, i -> i+1 moves binom(N, R) to binom(N+1, R-1) and trades a k for
    a 4, so

        t <- t * 4*(N+1)*R / (k*(N-R+2)*(N-R+1))

    until R = 0.  Every term is an integer, so the floor division is exact.
    Guarded by KPELL_GUARD_N like the recurrence.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"the double-sum route needs n >= 1, got {n!r}")
    guard_index(n)
    a, k = params.a, params.k
    if n % 2 == 0:
        m, off = n // 2, 2
    else:
        m, off = (n + 1) // 2, 3
    total = 0
    for j in (0, 1):
        i = max(1, (off - j + 1) // 2)
        if i > m:
            continue
        top, r = m - off + i + j, m - i
        t = math.comb(top, r) * a ** (1 - j) * k ** (m + 1 - i - j) << (2 * i + j - off)
        if j:
            t *= a * k + 2 * a
        total += t
        while r:
            t = t * (4 * (top + 1) * r) // (k * (top - r + 2) * (top - r + 1))
            top, r = top + 1, r - 1
            total += t
    return total


def symbolic_term(kind: SeqKind, n: int) -> KPoly:
    """The n-th term of P or G as a polynomial in k.

    For G the returned polynomial holds the coefficients of ``a``: the true
    term is ``a`` times it, and rendering appends the ``a`` suffix.  Only
    the P and G kinds have polynomial tables here.
    """
    if kind not in (SeqKind.PELL, SeqKind.GEN_PELL):
        raise ValueError(f"symbolic terms are available for P and G only, not {kind}")
    _check_index(n)
    if kind is SeqKind.PELL:
        prev, cur = KPoly(), KPoly([1])
    else:
        prev, cur = KPoly([1]), KPoly([1])
    for _ in range(n):
        prev, cur = cur, 2 * cur + prev.shift()
    return prev


class EigenReport(
    namedtuple("EigenReport", "k n product rounded exact abs_residual paper_verbatim")
):
    """Outcome of the eigenvalue-product determinant cross-check."""

    __slots__ = ()

    @property
    def matches(self) -> bool:
        return self.rounded == self.exact


def eigenvalues(k: int, n: int, paper_verbatim: bool = False) -> list[complex]:
    """Eigenvalues 2 + 2i*sqrt(k)*cos(r*pi/(n+1)) of the n x n Pell matrix.

    ``paper_verbatim`` drops the factor 2 on the imaginary part, matching a
    misprinted form of the product that is kept only so the discrepancy can
    be demonstrated; it underestimates the determinant for every n >= 2.
    For odd n the middle cosine is forced to exactly 0.0, so the one real
    eigenvalue comes out exactly 2.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"matrix order must be >= 1, got {n!r}")
    scale = math.sqrt(k) if paper_verbatim else 2.0 * math.sqrt(k)
    values = []
    for r in range(1, n + 1):
        cos = 0.0 if 2 * r == n + 1 else math.cos(math.pi * r / (n + 1))
        values.append(complex(2.0, scale * cos))
    return values


def eigen_product(k: int, n: int, paper_verbatim: bool = False) -> EigenReport:
    """Multiply the eigenvalues out and compare with the exact P_{k,n+1}."""
    product = complex(1.0, 0.0)
    for value in eigenvalues(k, n, paper_verbatim):
        product *= value
    if not (math.isfinite(product.real) and math.isfinite(product.imag)):
        raise ValueError(
            f"eigenvalue product overflows double precision at k={k}, n={n}"
        )
    exact = term(SeqKind.PELL, SeqParams(k), n + 1)
    return EigenReport(
        k=k,
        n=n,
        product=product,
        rounded=round(product.real),
        exact=exact,
        abs_residual=abs(product - exact),
        paper_verbatim=paper_verbatim,
    )
