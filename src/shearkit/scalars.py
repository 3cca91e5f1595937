"""Exact coefficient arithmetic over the Gaussian rationals.

A scalar stores three Python ints ``(a, b, d)`` meaning ``(a + b*i)/d``,
kept canonical: ``d > 0`` and ``gcd(a, b, d) == 1``.  Equal values
therefore have equal triples, all identity checks run with zero
tolerance, and the integers grow without bound as needed.  `re` and
`im` expose the parts as reduced `fractions.Fraction` values; the
numeric dynamics pipeline reads coefficients through `Scalar.to_complex`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import RegimeMismatch

__all__ = ["Scalar", "ZERO", "ONE", "I"]


_RATIONAL = (int, Fraction)


class Scalar:
    """An exact complex scalar ``(a + b*i)/d`` in canonical form.

    Instances are immutable by convention; no method mutates `a`, `b`
    or `d`.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re, im=0):
        re_rat = isinstance(re, _RATIONAL) and not isinstance(re, bool)
        im_rat = isinstance(im, _RATIONAL) and not isinstance(im, bool)
        if not (re_rat and im_rat):
            raise TypeError(f"unsupported scalar parts {re!r}, {im!r}")
        re, im = Fraction(re), Fraction(im)
        q1, q2 = re.denominator, im.denominator
        d = q1 // gcd(q1, q2) * q2
        # both parts are reduced, so gcd(a, b, d) == 1 already
        self.a = re.numerator * (d // q1)
        self.b = im.numerator * (d // q2)
        self.d = d

    @classmethod
    def exact(cls, re=0, im=0) -> "Scalar":
        if type(re) is int and type(im) is int:
            return _raw(re, im, 1)
        if not isinstance(re, _RATIONAL) or not isinstance(im, _RATIONAL):
            raise RegimeMismatch("exact scalars take int or Fraction parts")
        return cls(Fraction(re), Fraction(im))

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _lift(other)
            if other is NotImplemented:
                return NotImplemented
        d, f = self.d, other.d
        if d == f:
            return _canonical(self.a + other.a, self.b + other.b, d)
        return _canonical(self.a * f + other.a * d, self.b * f + other.b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _lift(other)
            if other is NotImplemented:
                return NotImplemented
        d, f = self.d, other.d
        if d == f:
            return _canonical(self.a - other.a, self.b - other.b, d)
        return _canonical(self.a * f - other.a * d, self.b * f - other.b * d, d * f)

    def __rsub__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _raw(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if type(other) is int:
            # (a k' + b k' i)/d' with k' = k/g, d' = d/g, g = gcd(k, d) is canonical
            g = gcd(other, self.d)
            k = other // g
            return _raw(self.a * k, self.b * k, self.d // g)
        if type(other) is not Scalar:
            other = _lift(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        if not (b or e):
            return _canonical(a * c, 0, self.d * other.d)
        return _canonical(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _lift(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e, f = self.a, self.b, other.a, other.b, other.d
        if not e:
            if not c:
                raise ZeroDivisionError("scalar division by zero")
            return _canonical(a * f, b * f, c * self.d)
        # (a + b i)/d / ((c + e i)/f) = (a + b i)(c - e i) f / (d (c^2 + e^2))
        return _canonical((a * c + b * e) * f, (b * c - a * e) * f, self.d * (c * c + e * e))

    def __rtruediv__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            base = ONE / self
            exponent = -exponent
        else:
            base = self
        out = ONE
        for _ in range(exponent):
            out = out * base
        return out

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def to_complex(self) -> complex:
        # int / int is correctly rounded, exactly like float(Fraction)
        d = self.d
        return complex(self.a / d, self.b / d)

    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"


_new = object.__new__


def _raw(a: int, b: int, d: int) -> Scalar:
    """A scalar from a triple that is already canonical."""
    s = _new(Scalar)
    s.a = a
    s.b = b
    s.d = d
    return s


def _canonical(a: int, b: int, d: int) -> Scalar:
    """The canonical scalar (a + b i)/d, for any nonzero d."""
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    s = _new(Scalar)
    s.a = a
    s.b = b
    s.d = d
    return s


def _lift(other):
    """A non-`Scalar` operand as a `Scalar`, or NotImplemented."""
    if isinstance(other, _RATIONAL):
        return Scalar.exact(other)
    return NotImplemented


ZERO = Scalar.exact(0)
ONE = Scalar.exact(1)
I = Scalar.exact(0, 1)
