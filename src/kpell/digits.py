"""How a huge value becomes decimal digits.

Before CPython 3.12, ``str()`` of an int is quadratic in its length, and every
version since 3.10.7 refuses ints of more than 4300 digits unless the caller
lifts ``sys.set_int_max_str_digits``.  So a value is printed by ``to_str``,
and a row of values by ``to_strs``:

* an int of at most STR_MAX_BITS bits goes through ``str()``;
* a larger int is converted to ``Decimal`` by divide and conquer over powers
  of two (Brent & Zimmermann, *Modern Computer Arithmetic*, section 1.7; the
  scheme of CPython 3.12's ``_pylong.int_to_decimal``), and ``str()`` of a
  Decimal is linear;
* a ratio (a ``Fraction``) prints as its numerator and denominator, each as
  an int above.

A run of terms or a huge term is better computed as a Decimal in the first
place (``sequences._walk`` when printing, ``sequences.binet_term``): libmpdec
multiplies large operands with a number-theoretic transform, and the digits
then cost nothing to write.  All Decimal arithmetic runs under EXACT, which
traps any rounding, so a Decimal here is always an exact integer.  Never call
``int()`` on a large one: that conversion is quadratic.
"""

from __future__ import annotations

from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    Rounded,
    localcontext,
)
from typing import Sequence

EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[Inexact, Rounded, InvalidOperation],
)

# At most 4215 decimal digits, so str() stays under CPython's default limit.
STR_MAX_BITS = 14_000

_LEAF_BITS = 128


def to_decimal(n: int) -> Decimal:
    """The int ``n`` as an exact Decimal, in subquadratic time."""
    powers: dict[int, Decimal] = {}

    def two_to(w: int) -> Decimal:
        result = powers.get(w)
        if result is None:
            if w <= _LEAF_BITS:
                result = Decimal(2) ** w
            elif w - 1 in powers:
                result = powers[w - 1] + powers[w - 1]
            else:
                # The smaller half first: for odd w the larger one, w - half,
                # then takes the branch above.
                half = w >> 1
                result = two_to(half) * two_to(w - half)
            powers[w] = result
        return result

    def convert(m: int, w: int) -> Decimal:
        if w <= _LEAF_BITS:
            return Decimal(m)
        half = w >> 1
        hi = m >> half
        lo = m - (hi << half)
        return convert(lo, half) + convert(hi, w - half) * two_to(half)

    with localcontext(EXACT):
        magnitude = convert(abs(n), n.bit_length())
        return -magnitude if n < 0 else magnitude


def to_str(value: object) -> str:
    """``str(value)``, except that an int past STR_MAX_BITS goes through to_decimal
    and a ratio prints as ``to_str`` of its numerator and denominator."""
    if isinstance(value, int):
        return str(value) if value.bit_length() <= STR_MAX_BITS else str(to_decimal(value))
    denominator = getattr(value, "denominator", None)  # a Fraction, with no import
    if denominator is None:
        return str(value)
    numerator = to_str(value.numerator)
    return numerator if denominator == 1 else numerator + "/" + to_str(denominator)


def to_strs(row: Sequence) -> list[str]:
    """``list(map(to_str, row))``: one ``map(str, row)`` when every entry is an
    int of at most STR_MAX_BITS bits."""
    try:
        fits = max(map(int.bit_length, row), default=0) <= STR_MAX_BITS
    except TypeError:  # a ratio
        fits = False
    return list(map(str if fits else to_str, row))
