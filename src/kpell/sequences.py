"""The k-Pell family of integer sequences and their exact evaluation routes.

All four sequences satisfy the same second-order recurrence

    x_n = 2*x_{n-1} + k*x_{n-2},    k >= 1,

and differ only in their first two terms:

    P (Pell):           0, 1
    Q (Pell-Lucas):     2, 2
    q (modified Pell):  1, 1
    G (generalized):    a, a        (a >= 1; a = 1 gives q)

Two engines evaluate them, each exact:

* ``_walk``, the one three-term walk, yields every run of terms (``prefix``,
  ``term_stream``, the CLI's tables) and a tridiagonal matrix's continuants
  (``kpell.tridiagonal``).  Printing, it runs in exact Decimal from its
  first step, so that each ``str()`` is linear and needs no digit limit.
  ``term`` walks m terms at a time, x_{i+m} = Q_m*x_i - (-k)**m * x_{i-m},
  with coefficients below 2**BLOCK_BITS that ``_block`` builds from small
  ints, so that it checks the O(log n) routes independently.
* ``_root_power`` computes (1 + sqrt(1+k))**n = x + y*sqrt(1+k) by
  square-and-multiply on an integer pair, and each kind reads its term off
  that pair: P_n = y, P_{n+1} = x + y, q_n = x, Q_n = 2*x, G_n = a*x.  It
  runs on the number type of its d: ``binet_term`` (``eval --method fast``
  and ``--method binet``, ``bench --method fast``) runs it on exact Decimal,
  whose products use libmpdec's transform and whose ``str()`` is linear;
  ``pell_binet``, ``gen_binet`` and ``pell_fast`` stay on int.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from decimal import Decimal, localcontext
from enum import Enum, unique
from functools import lru_cache
from itertools import islice, pairwise, repeat
from typing import Iterable, Iterator

from .digits import EXACT

DEFAULT_GUARD_N = 10_000_000
BLOCK_BITS = 60  # the blocked recurrence's coefficients stay below 2**BLOCK_BITS
GUARD_ENV_VAR = "KPELL_GUARD_N"


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


def _walk(prev, cur, steps: Iterable[tuple], printing: bool = False) -> Iterator:
    """prev, cur, then cur' = d*cur + e*prev for each (d, e) of ``steps``, exact
    in the inputs' number type: a kind's terms with steps (2, k), a
    tridiagonal matrix's continuants with steps (a_i, -b_{i-1}*c_{i-1}).

    ``printing`` readies integer inputs for a linear-time ``str()``: the
    walk runs in exact Decimal from its first step.
    """
    if not printing:
        yield prev
        yield cur
        for d, e in steps:
            prev, cur = cur, d * cur + e * prev
            yield cur
        return
    # Context methods: a localcontext held across the yields would leak EXACT
    # into the caller.  ``or 0``: a zero made of two -0 products prints as 0.
    prev, cur = Decimal(prev), Decimal(cur)
    yield prev
    yield cur
    for d, e in steps:
        prev, cur = cur, EXACT.fma(e, prev, EXACT.multiply(d, cur)) or 0
        yield cur


def term_stream(kind: SeqKind, params: SeqParams) -> Iterator[int]:
    """Lazily yield the sequence from index 0 onward."""
    return _walk(*initial_pair(kind, params), repeat((2, params.k)))


def guard_index(n: int) -> None:
    """Refuse an index past the O(n) routes' guard, as ``term`` does."""
    guard = recurrence_guard()
    if n > guard:
        raise ValueError(
            f"n={n} exceeds the O(n) evaluation guard of {guard}; "
            f"set {GUARD_ENV_VAR} to raise it, or use the doubling route"
        )


@lru_cache(maxsize=64)
def _block(k: int) -> tuple[int, int, int]:
    """(m, Q_m, -(-k)**m): the step x_{i+m} = Q_m*x_i - (-k)**m * x_{i-m} between
    terms m apart, for the longest m at which Q_m and k**m stay below
    2**BLOCK_BITS, with Q walked in small ints.  It holds for every kind,
    A*r1**n + B*r2**n with r1*r2 = -k and Q_m = r1**m + r2**m (Lucas, Amer. J.
    Math. 1, 1878).  m is 1, the step (2, k), once k >= 2**30.
    """
    limit = 1 << BLOCK_BITS
    lucas = islice(_walk(2, 2, repeat((2, k))), 1, None)  # Q_1, Q_2, ...
    for m, (q_m, q_next) in enumerate(pairwise(lucas), 1):
        if q_next >= limit or k ** (m + 1) >= limit:
            return m, q_m, -((-k) ** m)


def term(kind: SeqKind, params: SeqParams, n: int) -> int:
    """The n-th term by direct recurrence (O(n), refused past KPELL_GUARD_N).

    With n = j*m + r, it reads x_r and x_{r+m} off single steps, then takes j
    of ``_block``'s steps: each costs two big-by-word products and an
    addition, where m single steps cost 3m passes over the big terms.  Q_m
    comes from small ints, never from ``_root_power``, so ``term`` checks
    the O(log n) routes independently.
    """
    _check_index(n)
    guard_index(n)
    m, q_m, e_m = _block(params.k)
    j, r = divmod(n, m)
    prev, cur = islice(term_stream(kind, params), r, r + m + 1, m)
    return next(islice(_walk(prev, cur, repeat((q_m, e_m))), j, None))


def prefix(kind: SeqKind, params: SeqParams, count: int) -> list[int]:
    """The first ``count`` terms (indices 0 .. count-1)."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    return list(islice(term_stream(kind, params), count))


def _root_power(d, e: int, coord: int | None = None):
    """(x, y) with (1 + sqrt(d))**e = x + y*sqrt(d), or only x (coord 0) or y (coord 1).

    Square-and-multiply in Z[sqrt(d)], reading the bits of e from the most
    significant down.  Products become squarings through the norm
    (Takahashi, IPL 75, 2000): the loop carries q = (1-d)**m = (-k)**m, m
    being the exponent read so far, and since x**2 - d*y**2 = q a doubling is

        x' = 2d*y**2 + q,    y' = (x+y)**2 - (d+1)*y**2 - q,    q' = q**2.

    A set bit multiplies by 1 + sqrt(d): x + d*y, x + y and q*(1-d), all
    additions and small multiples.  The last bit skips q**2 and forms only
    what the caller reads: the pair by the steps above, y as 2xy (e even) or
    2y*(x + d*y) + q (e odd), x as 2d*y**2 + q or 2d*y*(x + y) + q.

    For e >= 2 the values take the number type of d: int, or Decimal under
    the EXACT context.  A square is formed as s*s of one operand, so that int
    and libmpdec both take their squaring path.
    """
    if e < 2:
        pair = (1, e)
        return pair if coord is None else pair[coord]
    d2, d1, norm = 2 * d, d + 1, 1 - d
    x = y = d**0  # the top bit of e: 1 + sqrt(d), with 1 in the number type of d
    q = norm
    for shift in range(e.bit_length() - 2, 0, -1):
        yy = y * y
        y += x  # x + y: the old x and y die before the next square
        x = d2 * yy + q
        y = y * y - d1 * yy - q
        q = q * q
        if (e >> shift) & 1:
            x, y, q = x + d * y, x + y, q * norm
    odd = e & 1
    if coord is None:
        yy = y * y
        y += x
        x = d2 * yy + q
        y = y * y - d1 * yy - q
        return (x + d * y, x + y) if odd else (x, y)
    if coord:
        return 2 * y * (x + d * y) + q if odd else 2 * x * y
    return d2 * y * (x + y) + q if odd else d2 * (y * y) + q


def pell_binet(k: int, n: int) -> int:
    """P by root powers: (r1**n - r2**n) / (r1 - r2), in integers.

    With d = 1+k, r1**n = x + y*sqrt(d) and r2**n = x - y*sqrt(d), so the
    quotient is y.  This holds for a perfect-square d too: the pair is then
    evaluated at the integer sqrt(d), which is nonzero.
    """
    _check_index(n)
    SeqParams(k)  # refuses a bad k
    return _root_power(1 + k, n, 1)


def gen_binet(params: SeqParams, n: int) -> int:
    """G by root powers: a * (r1**n + r2**n) / 2, in integers: a*x, as for pell_binet."""
    _check_index(n)
    return params.a * _root_power(1 + params.k, n, 0)


def binet_term(kind: SeqKind, params: SeqParams, n: int) -> int | Decimal:
    """The n-th term of any kind by root powers, as an exact Decimal (an int
    for n < 2): with seeds x0, x1, x_n = x0*q_n + (x1 - x0)*P_n, which is
    x1*P_n for P (x0 = 0) and x0*q_n for Q, q and G (x1 = x0).

    The engine runs on Decimal under the EXACT context, where libmpdec's
    transform multiplication beats int's Karatsuba on large operands and
    ``str()`` is linear.  Print the result with ``str()`` or
    ``digits.to_str``; reduce it only under EXACT.
    """
    _check_index(n)
    x0, x1 = initial_pair(kind, params)
    with localcontext(EXACT):
        d = Decimal(1 + params.k)
        if x0 == 0:
            return x1 * _root_power(d, n, 1)
        return x0 * _root_power(d, n, 0)


def pell_fast(k: int, n: int) -> tuple[int, int]:
    """(P_n, P_{n+1}) in O(log n) big-integer squarings (Takahashi, IPL 75, 2000)."""
    SeqParams(k)  # refuses a bad k
    _check_index(n)
    x, y = _root_power(1 + k, n)
    return y, x + y
