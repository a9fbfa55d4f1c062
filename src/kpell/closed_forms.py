"""Closed-form evaluation routes that avoid the recurrence entirely.

Three exact routes (a single binomial sum for P, a two-case double binomial
sum for G, and symbolic tables of both as polynomials in k), plus one
deliberately inexact route: the determinant of the generating matrix as a
product of complex eigenvalues, kept for numerical cross-checking.

A symbolic term is a little-endian tuple of ints: index i holds the
coefficient of k**i.  ``symbolic_stream`` walks the recurrence once for a
whole table, and ``poly_str`` renders one term.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import zip_longest
from typing import Iterator, Sequence

from .digits import to_str
from .sequences import SeqKind, SeqParams, guard_index, term


def pell_binomial(k: int, n: int) -> int:
    """The sum over i of C(n-i, i) * k**i * 2**(n-2i), equal to P_{k,n+1}.

    Defined for n >= 2; smaller n have degenerate sums that miss the
    sequence values.  The terms are hypergeometric: from t_0 = 2**n,

        t_{i+1} = t_i * k*(n-2i)*(n-2i-1) / (4*(i+1)*(n-i)),

    for i < n//2.  Every t_{i+1} is an integer, so the floor division is
    exact, and each step is one big-by-small product and one division by a
    small integer: O(n) steps of O(digits) work each.  Guarded by
    KPELL_GUARD_N like the recurrence.
    """
    SeqParams(k)  # refuses a bad k
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

        C(N, R) * a**(1-j) * k**(m+1-i-j) * 2**(2i+j-off) * (a*k + 2*a)**j

    with N = m-off+i+j and R = m-i.  Each j-series starts at the first i
    whose binomial is nonzero, i = max(1, ceil((off-j)/2)), which also keeps
    the 2-exponent nonnegative; no zero binomial is ever formed.  From
    there, i -> i+1 moves C(N, R) to C(N+1, R-1) and trades a k for
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


def symbolic_stream(kind: SeqKind) -> Iterator[tuple[int, ...]]:
    """Lazily yield the terms of P or G as coefficient tuples in k, from index 0.

    For G each tuple holds the coefficients of ``a``: the true term is ``a``
    times it, and rendering appends the ``a`` suffix.  Only the P and G
    kinds have polynomial tables here; another kind raises ``ValueError``
    at the call, not at the first term.  The step x_n = 2*x_{n-1} + k*x_{n-2}
    doubles one tuple and adds the other shifted up by one power of k.
    """
    if kind not in (SeqKind.PELL, SeqKind.GEN_PELL):
        raise ValueError(f"symbolic terms are available for P and G only, not {kind}")
    return _symbolic_walk(*(((), (1,)) if kind is SeqKind.PELL else ((1,), (1,))))


def _symbolic_walk(prev: tuple[int, ...], cur: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    while True:
        yield prev
        step = zip_longest(cur, (0, *prev), fillvalue=0)
        prev, cur = cur, tuple(2 * c + p for c, p in step)


def poly_str(coeffs: Sequence[int], var: str = "k", suffix: str = "") -> str:
    """Render little-endian coefficients in descending powers: ``k^2a + 8ka + 8a`` style.

    Zero coefficients are skipped, so no coefficients (or only zeros) give
    ``"0"``.  A unit coefficient is suppressed next to a variable or suffix,
    and negative coefficients fold into `` - `` separators.
    """
    parts: list[str] = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        if e == 0:
            body = suffix
        elif e == 1:
            body = var + suffix
        else:
            body = f"{var}^{e}{suffix}"
        mag = abs(c)
        text = body if (mag == 1 and body) else to_str(mag) + body
        if not parts:
            parts.append(text if c > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(parts) or "0"


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
    SeqParams(k)  # refuses a bad k
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
    try:  # the verbatim product stays finite past the largest double
        abs_residual = abs(product - exact)
    except OverflowError:
        raise ValueError(
            f"exact term P_{n + 1} overflows double precision at k={k}, n={n}"
        ) from None
    return EigenReport(
        k=k,
        n=n,
        product=product,
        rounded=round(product.real),
        exact=exact,
        abs_residual=abs_residual,
        paper_verbatim=paper_verbatim,
    )
