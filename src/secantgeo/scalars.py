"""Exact scalars: Gaussian rationals, i.e. complex numbers with rational
real and imaginary parts.

Every computation in this package is exact, and no floating-point value is
accepted: a Scalar is built from ints, Fractions, or strings "p/q", and a
float raises TypeError.  The real and imaginary parts are stdlib
`fractions.Fraction`s, which store reduced fractions with positive
denominators and print as "p/q" with the denominator omitted when it is
1, exactly the wire format.  Exact rank and RREF do not compute with
Fractions (see `linalg`).
"""

from __future__ import annotations

import numbers
from fractions import Fraction as Rational

# the rational type, as recorded in benchmark metadata
BACKEND = "fractions"

_R0 = Rational(0)
_R1 = Rational(1)


def _rat(value) -> "Rational":
    if type(value) is Rational:
        return value
    # int ahead of the slower ABC check
    if isinstance(value, (int, str, numbers.Rational)):
        return Rational(value)
    raise TypeError("cannot make an exact rational of %r" % (value,))


class Scalar:
    """An element of Q(i), immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _rat(re))
        object.__setattr__(self, "im", _rat(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __repr__(self):
        if not self.im:
            return "Scalar(%s)" % (self.re,)
        return "Scalar(%s, %s)" % (self.re, self.im)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, int):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        other = _coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if not self.im and not other.im:
            return Scalar(self.re * other.re, _R0)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero Scalar")
        if not self.im and not other.im:
            return Scalar(self.re / other.re, _R0)
        n = other.re * other.re + other.im * other.im
        return Scalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return _coerce(other).__truediv__(self)

    def conj(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def norm_sq(self):
        """|z|^2 as a nonnegative rational."""
        return self.re * self.re + self.im * self.im


def _coerce(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, int):
        return Scalar(value)
    raise TypeError("cannot coerce %r to Scalar" % (value,))


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def _parse_rat(text):
    if not isinstance(text, str):
        raise ValueError("rational must be a string, got %r" % (text,))
    neg = text.startswith("-")
    num, sep, den = text[neg:].partition("/")
    if not num.isdecimal() or (sep and not den.isdecimal()):  # isdigit passes "²"
        raise ValueError("malformed rational %r" % text)
    if not (den := int(den or 1)):
        raise ValueError("zero denominator in %r" % text)
    return Rational(-int(num) if neg else int(num), den)


def scalar_to_json(z: Scalar) -> dict:
    """{"re": "p/q", "im": "r/s"}; decimal integer strings, optional leading
    minus, "/1" omitted."""
    return {"re": str(z.re), "im": str(z.im)}


def scalar_from_json(obj) -> Scalar:
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ValueError("scalar object must have exactly the keys re, im: %r" % (obj,))
    return Scalar(_parse_rat(obj["re"]), _parse_rat(obj["im"]))
