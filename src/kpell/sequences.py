"""The k-Pell family of integer sequences and their exact evaluation routes.

All four sequences satisfy the same second-order recurrence

    x_n = 2*x_{n-1} + k*x_{n-2},    k >= 1,

and differ only in their first two terms:

    P (Pell):           0, 1
    Q (Pell-Lucas):     2, 2
    q (modified Pell):  1, 1
    G (generalized):    a, a        (a >= 1; a = 1 gives q)

Beyond the plain recurrence this module provides root-power (Binet-style)
evaluation on integer pairs in Z[sqrt(1+k)], inter-sequence conversions and
an O(log n) doubling evaluator for P, run on int or, for huge terms, on exact
Decimal.  Every route is exact; a route that would silently leave the integers
raises ExactnessError instead.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from decimal import Decimal, localcontext
from enum import Enum, unique
from itertools import islice
from typing import Iterator

from .digits import DECIMAL_MIN_DIGITS, EXACT

DEFAULT_GUARD_N = 10_000_000
GUARD_ENV_VAR = "KPELL_GUARD_N"


class ExactnessError(ArithmeticError):
    """An exact route produced a non-integer where an integer is forced."""


@unique
class SeqKind(Enum):
    """The four members of the family, keyed by their conventional letters."""

    PELL = "P"
    PELL_LUCAS = "Q"
    MODIFIED_PELL = "q"
    GEN_PELL = "G"


class SeqParams(namedtuple("SeqParams", "k a")):
    """Sequence parameters: the recurrence weight k and the seed scale a.

    ``a`` only matters for ``SeqKind.GEN_PELL``; the other kinds ignore it.
    """

    __slots__ = ()

    def __new__(cls, k: int, a: int = 1) -> SeqParams:
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        if not isinstance(a, int) or a < 1:
            raise ValueError(f"a must be a positive integer, got {a!r}")
        return super().__new__(cls, k, a)


def initial_pair(kind: SeqKind, params: SeqParams) -> tuple[int, int]:
    """The terms at indices 0 and 1."""
    if kind is SeqKind.PELL:
        return 0, 1
    if kind is SeqKind.PELL_LUCAS:
        return 2, 2
    if kind is SeqKind.MODIFIED_PELL:
        return 1, 1
    return params.a, params.a


def recurrence_guard() -> int:
    """Largest index the O(n) routes will accept (KPELL_GUARD_N overrides)."""
    raw = os.environ.get(GUARD_ENV_VAR)
    if raw is None:
        return DEFAULT_GUARD_N
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{GUARD_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{GUARD_ENV_VAR} must be nonnegative, got {value}")
    return value


def _check_index(n: int) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"index must be a nonnegative integer, got {n!r}")


def estimated_digits(k: int, n: int) -> float:
    """About how many decimal digits a term at index n has: n*log10(1+sqrt(1+k)).

    Every kind grows by the dominant root 1+sqrt(1+k) per index; its seeds
    move the count by a few digits only.  The root is taken in logarithms so
    that a k past the range of a float does not overflow.
    """
    half = math.log10(1 + k) / 2
    return n * (half + math.log10(1 + 10**-half))


def term_stream(kind: SeqKind, params: SeqParams) -> Iterator[int]:
    """Lazily yield the sequence from index 0 onward."""
    prev, cur = initial_pair(kind, params)
    k = params.k
    while True:
        yield prev
        prev, cur = cur, 2 * cur + k * prev


def guard_index(n: int) -> None:
    """Refuse an index past the O(n) routes' guard, as ``term`` does."""
    guard = recurrence_guard()
    if n > guard:
        raise ValueError(
            f"n={n} exceeds the O(n) evaluation guard of {guard}; "
            f"set {GUARD_ENV_VAR} to raise it, or use the doubling route"
        )


def term(kind: SeqKind, params: SeqParams, n: int) -> int:
    """The n-th term by direct recurrence (O(n), guarded by KPELL_GUARD_N)."""
    _check_index(n)
    guard_index(n)
    prev, cur = initial_pair(kind, params)
    for _ in range(n):
        prev, cur = cur, 2 * cur + params.k * prev
    return prev


def prefix(kind: SeqKind, params: SeqParams, count: int) -> list[int]:
    """The first ``count`` terms (indices 0 .. count-1)."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    return list(islice(term_stream(kind, params), count))


def _root_power(d: int, e: int) -> tuple[int, int]:
    """(x, y) with (1 + sqrt(d))**e = x + y*sqrt(d), by square-and-multiply in Z[sqrt(d)].

    The bits of e are read from the most significant down, so each step
    squares the pair and a set bit multiplies it by 1 + sqrt(d), which takes
    additions only.
    """
    x, y = 1, 0
    for shift in range(e.bit_length() - 1, -1, -1):
        x, y = x * x + d * y * y, 2 * x * y
        if (e >> shift) & 1:
            x, y = x + d * y, x + y
    return x, y


def pell_binet(k: int, n: int) -> int:
    """P by root powers: (r1**n - r2**n) / (r1 - r2), in integers.

    With d = 1+k, r1**n = x + y*sqrt(d) and r2**n = x - y*sqrt(d), so the
    quotient is y.  This holds for a perfect-square d too: the pair is then
    evaluated at the integer sqrt(d), which is nonzero.
    """
    _check_index(n)
    _check_k(k)
    return _root_power(1 + k, n)[1]


def gen_binet(params: SeqParams, n: int) -> int:
    """G by root powers: a * (r1**n + r2**n) / 2, in integers: a*x, as for pell_binet."""
    _check_index(n)
    return params.a * _root_power(1 + params.k, n)[0]


def gen_from_lucas(params: SeqParams, n: int) -> int:
    """G via the Pell-Lucas sequence: G_n = a * Q_n / 2."""
    _check_index(n)
    doubled = params.a * term(SeqKind.PELL_LUCAS, params, n)
    if doubled % 2:
        raise ExactnessError(f"a*Q_{n} = {doubled} is odd; conversion to G failed")
    return doubled // 2


def gen_from_pell(params: SeqParams, n: int) -> int:
    """G via Pell terms: G_n = a*P_n + a*k*P_{n-1}, valid for n >= 1."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"the Pell conversion needs n >= 1, got {n!r}")
    p_prev, p_cur = prefix(SeqKind.PELL, params, n + 1)[-2:]
    return params.a * p_cur + params.a * params.k * p_prev


def _check_k(k: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")


def _doubling(k: int, n: int, u, v):
    """(P_n, P_{n+1}) from (u, v) = (P_0, P_1), in the number type of u and v.

    Walks the bits of n from the most significant down, maintaining the
    pair (u, v) = (P_m, P_{m+1}) and doubling the index with

        P_{2m}   = 2*u*(v - u)
        P_{2m+1} = v*v + k*u*u

    (index addition at m + m and m + (m+1), using k*P_{m-1} = v - 2*u),
    then stepping one index further when the bit is set.
    """
    for shift in range(n.bit_length() - 1, -1, -1):
        even = 2 * u * (v - u)
        odd = v * v + k * u * u
        if (n >> shift) & 1:
            u, v = odd, 2 * odd + k * even
        else:
            u, v = even, odd
    return u, v


def pell_fast(k: int, n: int) -> tuple[int, int]:
    """(P_n, P_{n+1}) in O(log n) big-integer multiplications (Takahashi, IPL 75, 2000)."""
    _check_k(k)
    _check_index(n)
    return _doubling(k, n, 0, 1)


def pell_fast_term(k: int, n: int) -> int | Decimal:
    """P_n by doubling: pell_fast's int, or an exact Decimal for a huge term.

    Past DECIMAL_MIN_DIGITS estimated digits the loop runs on Decimal under
    the EXACT context, where libmpdec's transform multiplication beats int's
    Karatsuba and ``str()`` is linear.  Print the result with ``str()`` or
    ``digits.to_str``; reduce it only under EXACT.
    """
    _check_k(k)
    _check_index(n)
    if estimated_digits(k, n) <= DECIMAL_MIN_DIGITS:
        return pell_fast(k, n)[0]
    with localcontext(EXACT):
        return _doubling(k, n, Decimal(0), Decimal(1))[0]
