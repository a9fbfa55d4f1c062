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
from .sequences import SeqKind, SeqParams, _check_index, term


def binom(n: int, r: int) -> int:
    """Binomial coefficient extended by zero outside 0 <= r <= n.

    Negative arguments simply give 0 (so e.g. binom(-1, 0) == 0), which is
    the convention the sums below rely on at their index edges.
    """
    if r < 0 or n < 0 or r > n:
        return 0
    return math.comb(n, r)


def pell_binomial(k: int, n: int) -> int:
    """The sum over i of binom(n-i, i) * k**i * 2**(n-2i), equal to P_{k,n+1}.

    Defined for n >= 2; smaller n have degenerate sums that miss the
    sequence values.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"the binomial route needs n >= 2, got {n!r}")
    total = 0
    for i in range(n // 2 + 1):
        total += binom(n - i, i) * k**i * (1 << (n - 2 * i))
    return total


def gen_double_sum(params: SeqParams, n: int) -> int:
    """A two-case double binomial sum equal to G_{k,n+1}, for n >= 1.

    Even indices n = 2m and odd indices n = 2m-1 take slightly different
    offsets; both cases sum 2*m terms of the shape

        binom(...) * a**(1-j) * k**(power) * 2**(power) * (a*k + 2*a)**j

    with j in {0, 1}.  Terms whose binomial vanishes are skipped before any
    power is formed, which also keeps the 2-exponent nonnegative.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"the double-sum route needs n >= 1, got {n!r}")
    a, k = params.a, params.k
    first = a * k + 2 * a
    if n % 2 == 0:
        m, off = n // 2, 2
    else:
        m, off = (n + 1) // 2, 3
    total = 0
    for i in range(1, m + 1):
        for j in (0, 1):
            c = binom(m - off + i + j, m - i)
            if c == 0:
                continue
            e2 = 2 * i + j - off
            assert e2 >= 0
            total += c * a ** (1 - j) * k ** (m + 1 - i - j) * (1 << e2) * first**j
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
