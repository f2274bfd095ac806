"""Exact scalar arithmetic and the text syntax."""

import random
from fractions import Fraction

import pytest

from dspkit.errors import InvalidInputError
from dspkit.scalars import (
    AdditiveScalar,
    MultiplicativeScalar,
    format_scalar,
    parse_scalar,
)


class TestAdditive:
    def test_arithmetic(self):
        a = AdditiveScalar(Fraction(1, 2), Fraction(1, 3))
        b = AdditiveScalar(Fraction(-1, 2), Fraction(2, 3))
        assert (a + b) == AdditiveScalar(0, 1)
        assert (a - a).is_zero()
        assert (-a) == AdditiveScalar(Fraction(-1, 2), Fraction(-1, 3))
        assert a.scale(6) == AdditiveScalar(3, 2)

    def test_complex_value(self):
        assert AdditiveScalar(Fraction(1, 2), Fraction(-1, 4)).to_complex() == 0.5 - 0.25j


class TestMultiplicative:
    def test_arithmetic(self):
        i = MultiplicativeScalar(1, Fraction(1, 4))
        assert (i * i) == MultiplicativeScalar(1, Fraction(1, 2))
        assert (i**4).is_one()
        assert i.inverse() == MultiplicativeScalar(1, Fraction(3, 4))
        assert (i * i.inverse()).is_one()

    def test_modulus_positive(self):
        with pytest.raises(InvalidInputError):
            MultiplicativeScalar(0, 0)
        with pytest.raises(InvalidInputError):
            MultiplicativeScalar(-1, 0)

    def test_arg_reduced_mod_1(self):
        assert MultiplicativeScalar(1, Fraction(5, 4)).arg == Fraction(1, 4)
        assert MultiplicativeScalar(1, Fraction(-1, 4)).arg == Fraction(3, 4)

    def test_primitive_root(self):
        minus_one = MultiplicativeScalar(1, Fraction(1, 2))
        assert minus_one.is_primitive_root(2)
        assert not minus_one.is_primitive_root(4)
        i = MultiplicativeScalar(1, Fraction(1, 4))
        assert i.is_primitive_root(4)
        one = MultiplicativeScalar.one()
        assert one.is_primitive_root(1)
        assert not one.is_primitive_root(2)

    def test_complex_value(self):
        val = MultiplicativeScalar(2, Fraction(1, 2)).to_complex()
        assert abs(val + 2) < 1e-15


def random_rationals(rng, count):
    """Inputs Fraction() accepts: ints, Fractions (negative, at least 1,
    exactly 1, numerators of 40 digits and more), numeric strings and floats."""
    out = [0, 1, -1, Fraction(1), Fraction(-1), Fraction(0), "1", "-3/4", 0.5, -0.1, 2.75]
    while len(out) < count:
        kind = rng.randrange(5)
        if kind == 0:
            out.append(rng.randint(-10**6, 10**6))
        elif kind == 1:
            out.append(Fraction(rng.randint(-50, 50), rng.randint(1, 12)))
        elif kind == 2:
            digits = rng.randint(40, 60)
            out.append(Fraction(rng.randint(-10**digits, 10**digits), rng.randint(1, 10**rng.randint(1, 45))))
        elif kind == 3:
            out.append(f"{rng.randint(-99, 99)}/{rng.randint(1, 99)}")
        else:
            out.append(rng.uniform(-5, 5))
    return out


class TestConstructorValues:
    """Constructors keep a Fraction as it is and convert anything else as
    Fraction(x) does: values, equality and hashes are those of Fraction(x)."""

    VALUES = random_rationals(random.Random(7), 400)

    def test_additive(self):
        for x, y in zip(self.VALUES, self.VALUES[1:] + self.VALUES[:1]):
            value = AdditiveScalar(x, y)
            assert type(value.re) is Fraction and type(value.im) is Fraction
            assert (value.re, value.im) == (Fraction(x), Fraction(y))
            assert hash(value.re) == hash(Fraction(x)) and hash(value.im) == hash(Fraction(y))
            assert value == AdditiveScalar(Fraction(x), Fraction(y))
            assert hash(value) == hash((Fraction(x), Fraction(y)))
            assert parse_scalar(format_scalar(value), "additive") == value

    def test_multiplicative(self):
        for x, y in zip(self.VALUES, self.VALUES[1:] + self.VALUES[:1]):
            modulus = abs(Fraction(x)) or Fraction(1)
            value = MultiplicativeScalar(modulus, y)
            assert type(value.arg) is Fraction and 0 <= value.arg < 1
            assert (value.modulus, value.arg) == (modulus, Fraction(y) % 1)
            assert hash(value.arg) == hash(Fraction(y) % 1)
            assert value == MultiplicativeScalar(modulus, Fraction(y) % 1)
            assert hash(value) == hash((modulus, Fraction(y) % 1))
            assert parse_scalar(format_scalar(value), "multiplicative") == value

    def test_modulus_not_positive_message(self):
        for x in self.VALUES:
            m = -abs(Fraction(x))
            with pytest.raises(InvalidInputError, match=f"^modulus must be positive, got {m}$"):
                MultiplicativeScalar(m, 0)

    def test_arithmetic_matches_fractions(self):
        rng = random.Random(8)
        fractions = [Fraction(x) for x in self.VALUES]
        for _ in range(300):
            a, b, c, d = (rng.choice(fractions) for _ in range(4))
            k = rng.randint(-4, 4)
            s, t = AdditiveScalar(a, b), AdditiveScalar(c, d)
            assert s + t == AdditiveScalar(a + c, b + d) and s - t == AdditiveScalar(a - c, b - d)
            assert s.scale(k) == AdditiveScalar(a * k, b * k)
            assert s.scale(c) == AdditiveScalar(a * c, b * c)
            u = MultiplicativeScalar(abs(a) or 1, b)
            v = MultiplicativeScalar(abs(c) or 1, d)
            assert (u * v).modulus == u.modulus * v.modulus
            assert (u * v).arg == (b + d) % 1
            assert (u**k).modulus == u.modulus**k and (u**k).arg == (b * k) % 1
            assert u.inverse() == MultiplicativeScalar(1 / u.modulus, -b % 1)


class TestErrorContract:
    BAD = [float("nan"), float("inf"), float("-inf"), None, "x", "1/0", [1]]

    @pytest.mark.parametrize("bad", BAD)
    def test_constructors_and_scale(self, bad):
        with pytest.raises(InvalidInputError, match="^re must be a rational number"):
            AdditiveScalar(bad)
        with pytest.raises(InvalidInputError, match="^im must be a rational number"):
            AdditiveScalar(1, bad)
        with pytest.raises(InvalidInputError, match="^factor must be a rational number"):
            AdditiveScalar(1, 1).scale(bad)
        with pytest.raises(InvalidInputError, match="^modulus must be a rational number"):
            MultiplicativeScalar(bad, 0)
        with pytest.raises(InvalidInputError, match="^arg must be a rational number"):
            MultiplicativeScalar(1, bad)

    @pytest.mark.parametrize("k", [Fraction(1, 2), 0.5, 2.0, True, False, "2", None])
    def test_power_takes_ints_only(self, k):
        with pytest.raises(InvalidInputError, match="^exponent must be an int"):
            MultiplicativeScalar(4, Fraction(1, 3)) ** k

    def test_floats_convert_as_fractions(self):
        assert AdditiveScalar(0.1, -2.5) == AdditiveScalar(Fraction(0.1), Fraction(-5, 2))
        assert AdditiveScalar(1, 1).scale(0.5) == AdditiveScalar(Fraction(1, 2), Fraction(1, 2))
        assert MultiplicativeScalar(1.5, 1.25) == MultiplicativeScalar(Fraction(3, 2), Fraction(1, 4))


class TestTextSyntax:
    @pytest.mark.parametrize(
        "text,mode",
        [
            ("3", "additive"),
            ("-2/7", "additive"),
            ("1/2+1/3 i", "additive"),
            ("-1/2-5 i", "additive"),
            ("0", "additive"),
            ("{mod: 1, arg: 1/4}", "multiplicative"),
            ("{mod: 3/2, arg: 0}", "multiplicative"),
        ],
    )
    def test_round_trip(self, text, mode):
        value = parse_scalar(text, mode)
        assert parse_scalar(format_scalar(value), mode) == value

    def test_pure_imaginary(self):
        assert parse_scalar("2/3 i", "additive") == AdditiveScalar(0, Fraction(2, 3))
        assert parse_scalar("-1 i", "additive") == AdditiveScalar(0, -1)

    def test_rejects_garbage(self):
        with pytest.raises(InvalidInputError):
            parse_scalar("two", "additive")
        with pytest.raises(InvalidInputError):
            parse_scalar("1/2", "multiplicative")
        with pytest.raises(InvalidInputError):
            parse_scalar("{mod: 1, arg: 1/4}", "additive")
        with pytest.raises(InvalidInputError):
            parse_scalar("1", "angular")

    @pytest.mark.parametrize(
        "text, mode",
        [
            ("1/0", "additive"),
            ("1/0 i", "additive"),
            ("1+1/0 i", "additive"),
            ("{mod: 1/0, arg: 0}", "multiplicative"),
            ("{mod: 1, arg: 1/0}", "multiplicative"),
        ],
    )
    def test_rejects_zero_denominator(self, text, mode):
        with pytest.raises(InvalidInputError, match="zero denominator"):
            parse_scalar(text, mode)

    @pytest.mark.parametrize("value", [1, 1.5, None, ["1"]])
    def test_rejects_non_string(self, value):
        for mode in ("additive", "multiplicative"):
            with pytest.raises(InvalidInputError, match="must be a string"):
                parse_scalar(value, mode)
