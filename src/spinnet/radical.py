"""Exact signed square roots of rationals.

Every angular-momentum coefficient the package produces is a single real
number +-sqrt(q) with q a nonnegative rational: a Clebsch-Gordan, 3j or
6j coefficient is one square root times a rational sum.  A ``Radical`` is
such a number, stored canonically as its signed square x*|x|, a
``Fraction``.  Products and quotients multiply and divide that store
exactly, equality and hashing compare it, and no factoring is needed.
A sum is exact only when the two roots have a rational ratio, and is
refused with ``ValueError`` otherwise: sqrt(2) + sqrt(3) is not a
single signed root.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """The square root of q >= 0 if it is rational, else None."""
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if n * n != q.numerator or d * d != q.denominator:
        return None
    return Fraction(n, d)


class Radical:
    """One exact real number +-sqrt(q), q a nonnegative rational."""

    __slots__ = ("_square",)  # the signed square x*|x| of the value x

    def __init__(self, value: Rational | Radical = 0):
        if isinstance(value, Radical):
            self._square = value._square
        else:
            q = Fraction(value)
            self._square = q * abs(q)

    @classmethod
    def _from_square(cls, square: Fraction) -> Radical:
        out = cls.__new__(cls)
        out._square = square
        return out

    @classmethod
    def sqrt(cls, value: Rational) -> Radical:
        """Exact square root of a nonnegative rational."""
        q = Fraction(value)
        if q < 0:
            raise ValueError("negative argument has no real square root")
        return cls._from_square(q)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> Radical:
        other = other if isinstance(other, Radical) else Radical(other)
        if not other._square:
            return self
        # ratio = r*|r| for r = self/other, so r is rational iff |ratio| is
        # a rational square, and then self + other = (r + 1) * other.
        ratio = self._square / other._square
        size = _rational_sqrt(abs(ratio))  # |r|
        if size is None:
            raise ValueError(f"{self} + {other} is not a single signed square root")
        s = (size if ratio > 0 else -size) + 1
        return Radical._from_square(s * abs(s) * other._square)

    __radd__ = __add__

    def __neg__(self) -> Radical:
        return Radical._from_square(-self._square)

    def __sub__(self, other) -> Radical:
        return self + (-(other if isinstance(other, Radical) else Radical(other)))

    def __rsub__(self, other) -> Radical:
        return Radical(other) + (-self)

    def __mul__(self, other) -> Radical:
        other = other if isinstance(other, Radical) else Radical(other)
        return Radical._from_square(self._square * other._square)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Radical:
        other = other if isinstance(other, Radical) else Radical(other)
        if not other._square:
            raise ZeroDivisionError("division by a zero radical")
        return Radical._from_square(self._square / other._square)

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._square

    def is_rational(self) -> bool:
        return _rational_sqrt(abs(self._square)) is not None

    def as_fraction(self) -> Fraction:
        root = _rational_sqrt(abs(self._square))
        if root is None:
            raise ValueError(f"{self} is irrational")
        return root if self._square >= 0 else -root

    def __float__(self) -> float:
        # The root of the integer p*4^e/q carries about 64 significant bits
        # whatever the size of p/q, so neither p/q nor its root has to fit
        # a float on the way.
        p, q = abs(self._square.numerator), self._square.denominator
        if not p:
            return 0.0
        e = 64 - (p.bit_length() - q.bit_length()) // 2
        n = (p << 2 * e) // q if e >= 0 else p // (q << -2 * e)
        root = math.ldexp(math.isqrt(n), -e)
        return root if self._square > 0 else -root

    def __bool__(self) -> bool:
        return bool(self._square)

    def __eq__(self, other) -> bool:
        if isinstance(other, Radical):
            return self._square == other._square
        if isinstance(other, Rational):
            return self._square == Radical(other)._square
        return NotImplemented

    def __hash__(self):
        # A rational value equals its Fraction, so it must hash like one.
        root = _rational_sqrt(abs(self._square))
        if root is None:
            return hash(self._square)
        return hash(root if self._square >= 0 else -root)

    def __repr__(self) -> str:
        root = _rational_sqrt(abs(self._square))
        body = str(root) if root is not None else f"sqrt({abs(self._square)})"
        return f"Radical({'-' if self._square < 0 else ''}{body})"
