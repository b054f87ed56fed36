import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zetapoly.arith import QuadExt, parse_rational, pow2_half
from zetapoly.defect2 import Theta, c_theta

rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)
quad_exts = st.builds(QuadExt, rationals, rationals)


class TestRationalStrings:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3", Fraction(3)),
            ("-5/7", Fraction(-5, 7)),
            (" 10/4 ", Fraction(5, 2)),
            ("0", Fraction(0)),
            ("-0/9", Fraction(0)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["", "abc", "1/0", "1.5.2", "2/", "/3"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @pytest.mark.parametrize(
        "value,text",
        [(Fraction(3), "3"), (Fraction(-5, 7), "-5/7"), (Fraction(4, 2), "2"), (7, "7")],
    )
    def test_format(self, value, text):
        assert str(QuadExt(value)) == text

    @given(rationals)
    def test_round_trip(self, value):
        assert parse_rational(str(value)) == value


class TestQuadExtRing:
    @given(quad_exts, quad_exts, quad_exts)
    def test_add_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(quad_exts, quad_exts, quad_exts)
    def test_mul_associative_commutative(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    @given(quad_exts, quad_exts, quad_exts)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(quad_exts)
    def test_identities(self, a):
        assert a + QuadExt(0) == a
        assert a * QuadExt(1) == a
        assert a - a == QuadExt(0)
        assert a + (-a) == QuadExt(0)

    @given(quad_exts)
    def test_scalar_ops(self, a):
        assert 2 * a == a + a
        assert a * Fraction(1, 2) + a * Fraction(1, 2) == a
        assert (a / 2) * 2 == a

    def test_sqrt2_squares_to_two(self):
        root = QuadExt(0, 1)
        assert root * root == QuadExt(2)
        assert root * root == 2

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QuadExt(1, 1) / 0

    def test_no_division_by_quadext(self):
        with pytest.raises(TypeError):
            QuadExt(1) / QuadExt(2)

    def test_equality_with_scalars(self):
        assert QuadExt(3) == 3
        assert QuadExt(3, 1) != 3
        assert QuadExt(Fraction(1, 2)) == Fraction(1, 2)
        assert len({QuadExt(3), QuadExt(3, 0), QuadExt(3, 1)}) == 2

    def test_str(self):
        assert str(QuadExt(3)) == "3"
        assert str(QuadExt(0, 1)) == "1*sqrt2"
        assert str(QuadExt(0, -1)) == "-1*sqrt2"
        assert str(QuadExt(Fraction(3, 2), Fraction(-1, 2))) == "3/2 - 1/2*sqrt2"


class FractionSubclass(Fraction):
    pass


class TestQuadExtComponents:
    @pytest.mark.parametrize(
        "args,rat,irr",
        [
            ((), 0, 0),
            ((3,), 3, 0),
            ((True, -2), 1, -2),
            ((Fraction(3, 4),), Fraction(3, 4), 0),
            ((0, Fraction(-5, 2)), 0, Fraction(-5, 2)),
            ((FractionSubclass(1, 2), FractionSubclass(-7, 2)), Fraction(1, 2), Fraction(-7, 2)),
        ],
    )
    def test_components_are_exactly_fractions(self, args, rat, irr):
        value = QuadExt(*args)
        assert type(value.rat) is Fraction and value.rat == rat
        assert type(value.irr) is Fraction and value.irr == irr

    def test_values_sharing_zero_stay_independent(self):
        a, b = QuadExt(3), QuadExt(irr=2)
        assert a.irr is b.rat
        total, product, difference = a + b, a * b, a - b
        a += b
        assert (total, product, difference, a) == (
            QuadExt(3, 2),
            QuadExt(0, 6),
            QuadExt(3, -2),
            QuadExt(3, 2),
        )
        assert (b.rat, b.irr) == (0, 2)
        assert QuadExt(3).irr == 0 and QuadExt(irr=2).rat == 0

    def test_weight_repr_pinned(self):
        assert repr(c_theta(1, 5, Theta.PI_4)) == "QuadExt(Fraction(0, 1), Fraction(2, 1))"
        assert repr(c_theta(4, 5, Theta.PI_4)) == "QuadExt(Fraction(-3, 1), Fraction(0, 1))"


class TestQuadSign:
    @pytest.mark.parametrize(
        "rat,irr,expected",
        [
            (0, 0, 0),
            (1, 0, 1),
            (-1, 0, -1),
            (0, 1, 1),
            (0, -1, -1),
            (-3, 2, -1),
            (3, -2, 1),
            (-7, 5, 1),
            (7, -5, -1),
            (10, -7, 1),
            (-10, 7, -1),
            (Fraction(-141421356, 10**8), 1, 1),
            (Fraction(-141421357, 10**8), 1, -1),
        ],
    )
    def test_pinned(self, rat, irr, expected):
        assert QuadExt(rat, irr).sign() == expected

    def test_interval_oracle(self):
        lo = Fraction(1414213, 10**6)
        hi = Fraction(1414214, 10**6)
        rng = random.Random(20240817)
        checked = 0
        for _ in range(1000):
            rat = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
            irr = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
            value = QuadExt(rat, irr)
            low = rat + irr * (lo if irr >= 0 else hi)
            high = rat + irr * (hi if irr >= 0 else lo)
            if low > 0:
                assert value.sign() == 1
                checked += 1
            elif high < 0:
                assert value.sign() == -1
                checked += 1
        assert checked > 900

    @given(quad_exts, quad_exts)
    def test_sign_respects_multiplication(self, a, b):
        assert (a * b).sign() == a.sign() * b.sign()


class TestPow2Half:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, QuadExt(1)),
            (1, QuadExt(0, 1)),
            (2, QuadExt(2)),
            (3, QuadExt(0, 2)),
            (10, QuadExt(32)),
        ],
    )
    def test_pinned(self, n, expected):
        assert pow2_half(n) == expected

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_additive(self, m, n):
        assert pow2_half(m) * pow2_half(n) == pow2_half(m + n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pow2_half(-1)
