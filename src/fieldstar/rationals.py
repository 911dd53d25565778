"""Gaussian rational numbers: exact complex numbers with rational parts."""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm

_MODULUS = sys.hash_info.modulus
_INF = sys.hash_info.inf


class GRat:
    """An element of Q[i], stored as three ints: the value (a + b*i)/d.

    The fields are normalized so that d > 0 and gcd(a, b, d) == 1; equal
    values therefore have equal fields.  Immutable; all arithmetic returns
    new instances built by ``_make``, without going through ``Fraction``.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            d = lcm(re.denominator, im.denominator)
            # both parts are in lowest terms, so gcd(a, b, d) is already 1
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, *_):
        raise AttributeError("GRat is immutable")

    __delattr__ = __setattr__

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other):
        if type(other) is not GRat:
            other = _coerce(other)
        d, e = self._d, other._d
        if d == e:
            return _make(self._a + other._a, self._b + other._b, d)
        return _make(self._a * e + other._a * d, self._b * e + other._b * d,
                     d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GRat:
            other = _coerce(other)
        d, e = self._d, other._d
        if d == e:
            return _make(self._a - other._a, self._b - other._b, d)
        return _make(self._a * e - other._a * d, self._b * e - other._b * d,
                     d * e)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if type(other) is int:
            return _make(self._a * other, self._b * other, self._d)
        if type(other) is not GRat:
            other = _coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _make(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        if type(other) is not GRat:
            other = _coerce(other)
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero GRat")
        return _make((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def conjugate(self) -> "GRat":
        return _make(self._a, -self._b, self._d)

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if isinstance(other, GRat):
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # A real value hashes like the int or Fraction of the same value:
        # Python's numeric hash, |a| * d^-1 modulo the prime P, signed, and
        # inf when P divides d (Python itself turns a returned -1 into -2).
        # A complex value equals only a GRat, so its normalized fields serve
        # as the hash.
        a, b, d = self._a, self._b, self._d
        if b:
            return hash((a, b, d))
        if d == 1:
            return hash(a)
        try:
            h = hash(hash(abs(a)) * pow(d, -1, _MODULUS))
        except ValueError:
            h = _INF
        return h if a >= 0 else -h

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"GRat({self.re!r}, {self.im!r})"


# The slot setters write the fields without going through __setattr__.
_set_a = GRat._a.__set__
_set_b = GRat._b.__set__
_set_d = GRat._d.__set__
_new = object.__new__


def _make(a: int, b: int, d: int) -> GRat:
    """The GRat (a + b*i)/d for d > 0, brought to lowest terms."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    x = _new(GRat)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _coerce(value) -> GRat:
    if isinstance(value, GRat):
        return value
    if isinstance(value, (int, Fraction)):
        return GRat(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to GRat")


ZERO = GRat(0)
ONE = GRat(1)
I = GRat(0, 1)
