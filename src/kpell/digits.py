"""How a huge value becomes decimal digits.

Before CPython 3.12, ``str()`` of an int is quadratic in its length, and every
version since 3.10.7 refuses ints of more than 4300 digits unless the caller
lifts ``sys.set_int_max_str_digits``.  So a value is printed by ``to_str``:

* an int of at most STR_MAX_BITS bits goes through ``str()``;
* a larger int is converted to ``Decimal`` by divide and conquer over powers
  of two (Brent & Zimmermann, *Modern Computer Arithmetic*, section 1.7; the
  scheme of CPython 3.12's ``_pylong.int_to_decimal``), and ``str()`` of a
  Decimal is linear.

A term estimated to pass DECIMAL_MIN_DIGITS is better computed as a Decimal in
the first place (``sequences.binet_term``): libmpdec multiplies large
operands with a number-theoretic transform, and the digits then cost nothing
to write.  All Decimal arithmetic runs under EXACT, which traps any rounding,
so a Decimal here is always an exact integer.  Never call ``int()`` on a large
one: that conversion is quadratic.
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

EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[Inexact, Rounded, InvalidOperation],
)

# At most 4215 decimal digits, so str() stays under CPython's default limit.
STR_MAX_BITS = 14_000
# Square-and-multiply on Decimal and printing with str() overtakes the same
# on int and printing with to_str() at about this many digits (CPython 3.11,
# x86-64).
DECIMAL_MIN_DIGITS = 10_000

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
    """``str(value)``, except that an int past STR_MAX_BITS goes through to_decimal."""
    if isinstance(value, int) and value.bit_length() > STR_MAX_BITS:
        return str(to_decimal(value))
    return str(value)
