"""Exact scalar arithmetic: rationals and the quadratic ring Q(sqrt 2).

Rationals are `fractions.Fraction` throughout the package; this module
parses them from "p" or "p/q" text (their str is that same text) and adds
`QuadExt`, the ring of numbers ``rat + irr*sqrt(2)`` with rational
components, and `pow2_half` for 2^(n/2).  A component that is already
exactly a Fraction is kept as it is (Fractions are immutable), and every
zero component left to its default is one shared Fraction(0).  Every sign
decision is made by exact integer comparison.  No floating point is used
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

_Scalar = Union[int, Fraction]
_ZERO = Fraction(0)


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (optional sign, arbitrary size) into a Fraction."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc
    return value


class QuadExt:
    """An element rat + irr*sqrt(2) of Q(sqrt 2) with exact components."""

    __slots__ = ("_rat", "_irr")

    def __init__(self, rat: _Scalar = _ZERO, irr: _Scalar = _ZERO) -> None:
        # a Fraction is immutable, so one that is exactly a Fraction is kept
        self._rat = rat if type(rat) is Fraction else Fraction(rat)
        self._irr = irr if type(irr) is Fraction else Fraction(irr)

    @property
    def rat(self) -> Fraction:
        return self._rat

    @property
    def irr(self) -> Fraction:
        return self._irr

    def __bool__(self) -> bool:
        return self._rat != 0 or self._irr != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadExt):
            return self._rat == other._rat and self._irr == other._irr
        if isinstance(other, (int, Fraction)):
            return self._irr == 0 and self._rat == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._irr == 0:
            return hash(self._rat)
        return hash((self._rat, self._irr))

    def __repr__(self) -> str:
        return f"QuadExt({self._rat!r}, {self._irr!r})"

    def __str__(self) -> str:
        if self._irr == 0:
            return str(self._rat)
        irr_part = f"{abs(self._irr)}*sqrt2"
        if self._rat == 0:
            return irr_part if self._irr > 0 else f"-{irr_part}"
        sign = "+" if self._irr > 0 else "-"
        return f"{self._rat} {sign} {irr_part}"

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self._rat, -self._irr)

    def __add__(self, other: object) -> "QuadExt":
        if isinstance(other, QuadExt):
            return QuadExt(self._rat + other._rat, self._irr + other._irr)
        if isinstance(other, (int, Fraction)):
            return QuadExt(self._rat + other, self._irr)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadExt":
        if isinstance(other, QuadExt):
            return QuadExt(self._rat - other._rat, self._irr - other._irr)
        if isinstance(other, (int, Fraction)):
            return QuadExt(self._rat - other, self._irr)
        return NotImplemented

    def __rsub__(self, other: object) -> "QuadExt":
        if isinstance(other, (int, Fraction)):
            return QuadExt(other - self._rat, -self._irr)
        return NotImplemented

    def __mul__(self, other: object) -> "QuadExt":
        if isinstance(other, QuadExt):
            return QuadExt(
                self._rat * other._rat + 2 * self._irr * other._irr,
                self._rat * other._irr + self._irr * other._rat,
            )
        if isinstance(other, (int, Fraction)):
            return QuadExt(self._rat * other, self._irr * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QuadExt":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of QuadExt by zero")
            return QuadExt(self._rat / other, self._irr / other)
        return NotImplemented

    def sign(self) -> int:
        """Exact sign (-1, 0, +1), decided by comparing rat^2 with 2*irr^2."""
        if self._irr == 0:
            return (self._rat > 0) - (self._rat < 0)
        if self._rat == 0:
            return 1 if self._irr > 0 else -1
        rat_positive = self._rat > 0
        irr_positive = self._irr > 0
        if rat_positive != irr_positive:
            # opposite signs: the larger square wins
            if self._rat * self._rat > 2 * self._irr * self._irr:
                return 1 if rat_positive else -1
            # rat^2 == 2*irr^2 is impossible for nonzero rationals
            return 1 if irr_positive else -1
        return 1 if rat_positive else -1


def pow2_half(n: int) -> QuadExt:
    """2**(n/2) as an exact QuadExt: a power of two times sqrt(2) when n is odd."""
    if n < 0:
        raise ValueError(f"exponent must be nonnegative, got {n}")
    if n % 2 == 0:
        return QuadExt(1 << (n // 2), 0)
    return QuadExt(0, 1 << (n // 2))
