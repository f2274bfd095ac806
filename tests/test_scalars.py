"""Exact scalar arithmetic and the text syntax."""

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
