"""Exact coefficient arithmetic over the Gaussian rationals.

A scalar stores its real and imaginary parts as `fractions.Fraction`
values (automatically reduced, positive denominator, arbitrary precision),
so all identity checks run with zero tolerance.  The numeric dynamics
pipeline reads these exact coefficients through `Scalar.to_complex`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import RegimeMismatch

__all__ = ["Scalar", "ZERO", "ONE", "I"]


_RATIONAL = (int, Fraction)


class Scalar:
    """An exact complex scalar: a pair of rationals.

    Instances are immutable by convention; no method mutates `re` or `im`.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        re_rat = isinstance(re, _RATIONAL) and not isinstance(re, bool)
        im_rat = isinstance(im, _RATIONAL) and not isinstance(im, bool)
        if re_rat and im_rat:
            self.re = Fraction(re)
            self.im = Fraction(im)
        else:
            raise TypeError(f"unsupported scalar parts {re!r}, {im!r}")

    @classmethod
    def exact(cls, re=0, im=0) -> "Scalar":
        if not isinstance(re, _RATIONAL) or not isinstance(im, _RATIONAL):
            raise RegimeMismatch("exact scalars take int or Fraction parts")
        return cls(Fraction(re), Fraction(im))

    def _lift(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            return other
        if isinstance(other, _RATIONAL):
            return Scalar.exact(other)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(other.re - self.re, other.im - self.im)

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            base = self.one_like() / self
            exponent = -exponent
        else:
            base = self
        out = self.one_like()
        for _ in range(exponent):
            out = out * base
        return out

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def one_like(self) -> "Scalar":
        return Scalar.exact(1)

    def zero_like(self) -> "Scalar":
        return Scalar.exact(0)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"


ZERO = Scalar.exact(0)
ONE = Scalar.exact(1)
I = Scalar.exact(0, 1)
