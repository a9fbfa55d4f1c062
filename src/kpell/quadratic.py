"""Exact arithmetic in the real quadratic field Q(sqrt(d)).

Values are ``p + q*sqrt(d)`` with rational ``p``, ``q`` and a fixed positive
integer ``d``.  When ``d`` is a perfect square the root is rational, so the
constructor folds ``q*sqrt(d)`` into ``p``; such values behave exactly like
plain rationals afterwards.  All operations are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from .digits import to_str


def _is_scalar(x: object) -> bool:
    return isinstance(x, (int, Fraction, Rational))


class QuadNum:
    """An element ``p + q*sqrt(d)`` of Q(sqrt(d)) in canonical form."""

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, p: int | Fraction = 0, q: int | Fraction = 0, d: int = 2):
        if not isinstance(d, int) or d < 1:
            raise ValueError(f"d must be a positive integer, got {d!r}")
        p = Fraction(p)
        q = Fraction(q)
        root = math.isqrt(d)
        if root * root == d and q:
            p += q * root
            q = Fraction(0)
        self._p = p
        self._q = q
        self._d = d

    @property
    def rational_part(self) -> Fraction:
        return self._p

    @property
    def root_coeff(self) -> Fraction:
        return self._q

    @property
    def d(self) -> int:
        return self._d

    @property
    def is_rational(self) -> bool:
        return not self._q

    def conjugate(self) -> "QuadNum":
        """The field conjugate ``p - q*sqrt(d)``."""
        return QuadNum(self._p, -self._q, self._d)

    def norm(self) -> Fraction:
        """The field norm ``p**2 - d*q**2`` (the product with the conjugate)."""
        return self._p * self._p - self._d * self._q * self._q

    def as_integer(self) -> int:
        """This value as a plain int, or raise ValueError if it is not one."""
        if self._q or self._p.denominator != 1:
            raise ValueError(f"{self} is not a rational integer")
        return int(self._p)

    # -- coercion helpers ---------------------------------------------------

    def _coerce(self, other: object) -> "QuadNum | None":
        if isinstance(other, QuadNum):
            return other
        if _is_scalar(other):
            return QuadNum(other, 0, self._d)
        return None

    def _result_d(self, other: "QuadNum") -> int:
        # A value with zero root coefficient is a plain rational, so it may
        # combine with any discriminant; two genuinely irrational values must
        # live in the same field.
        if self._q and other._q and self._d != other._d:
            raise ValueError(
                f"mismatched discriminants: sqrt({self._d}) vs sqrt({other._d})"
            )
        if self._q:
            return self._d
        if other._q:
            return other._d
        return self._d

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: object) -> "QuadNum":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        d = self._result_d(rhs)
        return QuadNum(self._p + rhs._p, self._q + rhs._q, d)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadNum":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "QuadNum":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __neg__(self) -> "QuadNum":
        return QuadNum(-self._p, -self._q, self._d)

    def __mul__(self, other: object) -> "QuadNum":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        d = self._result_d(rhs)
        p = self._p * rhs._p + d * self._q * rhs._q
        q = self._p * rhs._q + self._q * rhs._p
        return QuadNum(p, q, d)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QuadNum":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if not rhs:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        d = self._result_d(rhs)
        n = rhs.norm()
        conj = rhs.conjugate()
        p = (self._p * conj._p + d * self._q * conj._q) / n
        q = (self._p * conj._q + self._q * conj._p) / n
        return QuadNum(p, q, d)

    def __rtruediv__(self, other: object) -> "QuadNum":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs / self

    def __pow__(self, e: int) -> "QuadNum":
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError(f"exponent must be nonnegative, got {e}")
        result = QuadNum(1, 0, self._d)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison and hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadNum):
            if not self._q and not other._q:
                return self._p == other._p
            return (self._p, self._q, self._d) == (other._p, other._q, other._d)
        if _is_scalar(other):
            return not self._q and self._p == other
        return NotImplemented

    def __hash__(self) -> int:
        if not self._q:
            return hash(self._p)
        return hash((self._p, self._q, self._d))

    def __bool__(self) -> bool:
        return bool(self._p or self._q)

    # -- display --------------------------------------------------------------

    def __repr__(self) -> str:
        # repr() of each Fraction part, with its ints printed by to_str
        ratio = "Fraction({}, {})".format
        p, q = (ratio(*map(to_str, x.as_integer_ratio())) for x in (self._p, self._q))
        return f"QuadNum({p}, {q}, d={self._d})"

    def __str__(self) -> str:
        # digits.to_str prints each part past CPython's int->str digit limit
        if not self._q:
            return to_str(self._p)
        root = f"sqrt({self._d})"
        mag = abs(self._q)
        term = root if mag == 1 else f"{to_str(mag)}*{root}"
        if not self._p:
            return term if self._q > 0 else f"-{term}"
        sign = "+" if self._q > 0 else "-"
        return f"{to_str(self._p)} {sign} {term}"


def quad_roots(k: int) -> tuple[QuadNum, QuadNum]:
    """The roots ``1 + sqrt(1+k)`` and ``1 - sqrt(1+k)`` of ``x**2 = 2x + k``.

    These generate every sequence in the family; for perfect-square ``1+k``
    (k = 3, 8, 15, ...) both roots collapse to integers.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    d = 1 + k
    return QuadNum(1, 1, d), QuadNum(1, -1, d)
