"""Dense univariate polynomials with integer coefficients.

Coefficients are stored little-endian: index ``i`` holds the coefficient of
the ``i``-th power.  The zero polynomial stores no coefficients at all, so
representations are unique and equality is plain tuple equality.
"""

from __future__ import annotations

from typing import Iterable


class KPoly:
    """A polynomial in one indeterminate (conventionally ``k``) over the integers."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def shift(self, e: int = 1) -> "KPoly":
        """Multiply by the e-th power of the indeterminate."""
        if e < 0:
            raise ValueError(f"shift must be nonnegative, got {e}")
        if not self._coeffs:
            return self
        return KPoly((0,) * e + self._coeffs)

    def evaluate(self, x: int) -> int:
        """Evaluate at an integer point (Horner)."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: object) -> "KPoly":
        if not isinstance(other, KPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return KPoly(out)

    def __sub__(self, other: object) -> "KPoly":
        if not isinstance(other, KPoly):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, other: object) -> "KPoly":
        if not isinstance(other, int):
            return NotImplemented
        return KPoly(c * other for c in self._coeffs)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        return f"KPoly({list(self._coeffs)!r})"

    def __str__(self) -> str:
        return poly_str(self)


def poly_str(poly: KPoly, var: str = "k", suffix: str = "") -> str:
    """Render in descending powers: ``k^2a + 8ka + 8a`` style.

    A unit coefficient is suppressed next to a variable or suffix, and
    negative coefficients fold into `` - `` separators.
    """
    if not poly:
        return "0"
    parts: list[str] = []
    for e in range(poly.degree, -1, -1):
        c = poly.coeffs[e]
        if c == 0:
            continue
        if e == 0:
            body = suffix
        elif e == 1:
            body = var + suffix
        else:
            body = f"{var}^{e}{suffix}"
        mag = abs(c)
        text = body if (mag == 1 and body) else f"{mag}{body}"
        if not parts:
            parts.append(text if c > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(parts)
