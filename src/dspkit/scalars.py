"""Exact eigenvalue scalars and their text syntax.

Two closed families cover every concrete eigenvalue the decision theory
needs: Gaussian rationals for the additive problem (closed under sums) and
positive-rational moduli times rational-argument roots of unity for the
multiplicative one (closed under products and inverses).

Text syntax (used in the CLI input schema):
    additive        "a/b"  or  "a/b+c/d i"   (either sign, integer shorthand)
    multiplicative  "{mod: a/b, arg: p/q}"
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InvalidInputError

__all__ = [
    "AdditiveScalar",
    "MultiplicativeScalar",
    "Scalar",
    "parse_scalar",
    "format_scalar",
]


def _rational(x, what: str) -> Fraction:
    """Fraction(x); InvalidInputError where that raises (NaN, infinities,
    None, non-numeric strings).  Callers keep a value whose type is already
    Fraction without calling this: the abc checks of Fraction(x) cost about
    twenty times a `type(x) is Fraction` test."""
    try:
        return Fraction(x)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError):
        raise InvalidInputError(f"{what} must be a rational number, got {x!r}") from None


@dataclass(frozen=True)
class AdditiveScalar:
    """Gaussian rational re + im*i with exact components.

    Components convert as Fraction(x) does (ints, Fractions, floats, numeric
    strings); a value whose type is Fraction is kept as it is.  Raises
    InvalidInputError for a component Fraction() rejects, such as NaN, an
    infinity, None or a non-numeric string.
    """

    re: Fraction
    im: Fraction

    def __init__(self, re, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else _rational(re, "re"))
        object.__setattr__(self, "im", im if type(im) is Fraction else _rational(im, "im"))

    def __add__(self, other: "AdditiveScalar") -> "AdditiveScalar":
        return AdditiveScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "AdditiveScalar") -> "AdditiveScalar":
        return AdditiveScalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "AdditiveScalar":
        return AdditiveScalar(-self.re, -self.im)

    def scale(self, factor) -> "AdditiveScalar":
        """The value times a rational `factor`; InvalidInputError as for a component."""
        f = factor if type(factor) in (int, Fraction) else _rational(factor, "factor")
        return AdditiveScalar(self.re * f, self.im * f)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def sort_key(self):
        return (self.re, self.im)

    @staticmethod
    def zero() -> "AdditiveScalar":
        return AdditiveScalar(0, 0)


@dataclass(frozen=True)
class MultiplicativeScalar:
    """modulus * exp(2*pi*i*arg) with positive rational modulus, arg in [0,1).

    Both parts convert as Fraction(x) does, and a value whose type is
    Fraction is kept as it is; arg is reduced mod 1 when it lies outside
    [0, 1).  Raises InvalidInputError for a modulus <= 0 and for a part
    Fraction() rejects, such as NaN, an infinity, None or a non-numeric
    string.
    """

    modulus: Fraction
    arg: Fraction

    def __init__(self, modulus, arg):
        m = modulus if type(modulus) is Fraction else _rational(modulus, "modulus")
        if m.numerator <= 0:
            raise InvalidInputError(f"modulus must be positive, got {m}")
        a = arg if type(arg) is Fraction else _rational(arg, "arg")
        if not 0 <= a.numerator < a.denominator:
            a %= 1
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "arg", a)

    def __mul__(self, other: "MultiplicativeScalar") -> "MultiplicativeScalar":
        return MultiplicativeScalar(self.modulus * other.modulus, self.arg + other.arg)

    def inverse(self) -> "MultiplicativeScalar":
        return MultiplicativeScalar(1 / self.modulus, -self.arg)

    def __pow__(self, k: int) -> "MultiplicativeScalar":
        """The k-th power for an int k (bools excluded); InvalidInputError for
        any other exponent, since a rational power has several values."""
        if isinstance(k, bool) or not isinstance(k, int):
            raise InvalidInputError(f"exponent must be an int, got {k!r}")
        if k == 0:
            return MultiplicativeScalar.one()
        if k < 0:
            return self.inverse() ** (-k)
        return MultiplicativeScalar(self.modulus**k, self.arg * k)

    def is_one(self) -> bool:
        return self.modulus == 1 and self.arg == 0

    def is_primitive_root(self, order: int) -> bool:
        """True iff the value is a primitive `order`-th root of unity."""
        return self.modulus == 1 and self.arg.denominator == order

    def to_complex(self) -> complex:
        return complex(self.modulus) * cmath.exp(2j * cmath.pi * float(self.arg))

    def sort_key(self):
        return (self.modulus, self.arg)

    @staticmethod
    def one() -> "MultiplicativeScalar":
        return MultiplicativeScalar(1, 0)


Scalar = Union[AdditiveScalar, MultiplicativeScalar]

_FRACTION = r"[+-]?\d+(?:/\d+)?"
_ADDITIVE_RE = re.compile(
    rf"^\s*(?P<re>{_FRACTION})\s*(?:(?P<sign>[+-])\s*(?P<im>\d+(?:/\d+)?)\s*i\s*)?$"
)
_PURE_IM_RE = re.compile(rf"^\s*(?P<im>{_FRACTION})\s*i\s*$")
_MULT_RE = re.compile(
    rf"^\s*\{{\s*mod\s*:\s*(?P<mod>{_FRACTION})\s*,\s*arg\s*:\s*(?P<arg>{_FRACTION})\s*\}}\s*$"
)


def _fraction(text: str, source: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InvalidInputError(f"zero denominator in scalar {source!r}") from None


def parse_scalar(text: str, mode: str) -> Scalar:
    """Parse the scalar text syntax for the given mode.

    Raises InvalidInputError for anything that is not a well-formed scalar
    string of that mode, including non-strings and zero denominators.
    """
    if not isinstance(text, str):
        raise InvalidInputError(f"a scalar must be a string, got {text!r}")
    if mode == "additive":
        m = _PURE_IM_RE.match(text)
        if m:
            return AdditiveScalar(0, _fraction(m.group("im"), text))
        m = _ADDITIVE_RE.match(text)
        if not m:
            raise InvalidInputError(f"cannot parse additive scalar {text!r}")
        re_part = _fraction(m.group("re"), text)
        im_part = Fraction(0)
        if m.group("im"):
            im_part = _fraction(m.group("im"), text)
            if m.group("sign") == "-":
                im_part = -im_part
        return AdditiveScalar(re_part, im_part)
    if mode == "multiplicative":
        m = _MULT_RE.match(text)
        if not m:
            raise InvalidInputError(f"cannot parse multiplicative scalar {text!r}")
        return MultiplicativeScalar(
            _fraction(m.group("mod"), text), _fraction(m.group("arg"), text)
        )
    raise InvalidInputError(f"unknown mode {mode!r}")


def format_scalar(value: Scalar) -> str:
    """Canonical text form; round-trips through parse_scalar."""
    if isinstance(value, AdditiveScalar):
        if value.im == 0:
            return str(value.re)
        sign = "+" if value.im >= 0 else "-"
        return f"{value.re}{sign}{abs(value.im)} i"
    if isinstance(value, MultiplicativeScalar):
        return f"{{mod: {value.modulus}, arg: {value.arg}}}"
    raise InvalidInputError(f"not a scalar: {value!r}")
