import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negmoments.exactring import (
    HalfInteger,
    PoleError,
    SqrtPiMonomial,
    SqrtPiPolynomial,
    eval_float,
    gamma_half,
    reciprocal_gamma_half,
)


def mono(num, den=1, power=0):
    return SqrtPiMonomial(Fraction(num, den), power)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
polys = st.dictionaries(st.integers(0, 6), rationals, max_size=5).map(SqrtPiPolynomial)


class TestHalfInteger:
    def test_construction(self):
        assert HalfInteger.of(3).twice == 6
        assert HalfInteger.of(Fraction(3, 2)).twice == 3
        assert HalfInteger.of(-0.5).twice == -1
        assert HalfInteger.of(HalfInteger(5)).twice == 5

    def test_rejects_non_halves(self):
        with pytest.raises(ValueError):
            HalfInteger.of(Fraction(1, 3))
        with pytest.raises(ValueError):
            HalfInteger.of(0.3)

    def test_value_and_shift(self):
        h = HalfInteger.of(Fraction(-1, 2))
        assert h.value == Fraction(-1, 2)
        assert not h.is_integer
        assert (h + 2).value == Fraction(3, 2)


class TestGammaHalf:
    def test_integer_values(self):
        assert gamma_half(1) == mono(1)
        assert gamma_half(5) == mono(24)

    def test_half_odd_values(self):
        assert gamma_half(Fraction(3, 2)) == mono(1, 2, power=1)
        assert gamma_half(Fraction(-1, 2)) == mono(-2, power=1)
        assert gamma_half(Fraction(7, 2)) == mono(15, 8, power=1)

    def test_poles(self):
        for n in (0, -1, -7):
            with pytest.raises(PoleError):
                gamma_half(n)

    def test_recurrence_property(self):
        rng = random.Random(7)
        for _ in range(50):
            twice = rng.randrange(-19, 22)
            h = HalfInteger(twice)
            if h.is_integer and h.twice <= 0:
                continue
            lhs = gamma_half(h + 1)
            rhs = gamma_half(h) * Fraction(h.twice, 2)
            assert lhs == rhs


class TestReciprocalGammaHalf:
    def test_pole_is_exact_zero(self):
        for n in (0, -1, -3):
            value = reciprocal_gamma_half(n)
            assert value.is_zero and value.power == 0

    def test_values(self):
        assert reciprocal_gamma_half(2) == mono(1)
        assert reciprocal_gamma_half(Fraction(3, 2)) == mono(2, power=-1)

    def test_inverse_of_gamma(self):
        for twice in range(-9, 12):
            h = HalfInteger(twice)
            if h.is_integer and h.twice <= 0:
                continue
            product = gamma_half(h) * reciprocal_gamma_half(h)
            assert product == mono(1)


class TestMonomial:
    def test_canonical_zero(self):
        z = SqrtPiMonomial(0, 5)
        assert z.power == 0 and z.is_zero

    def test_add_requires_same_grade(self):
        with pytest.raises(ValueError):
            mono(1, power=1) + mono(1, power=2)
        assert mono(1, power=3) + SqrtPiMonomial(0, 0) == mono(1, power=3)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            SqrtPiMonomial(0.5, 1)

    @settings(max_examples=80, deadline=None)
    @given(x=rationals, y=rationals, z=rationals, p=st.integers(-4, 4), q=st.integers(-4, 4), r=st.integers(-4, 4))
    def test_ring_laws_property(self, x, y, z, p, q, r):
        a, b, c = SqrtPiMonomial(x, p), SqrtPiMonomial(y, q), SqrtPiMonomial(z, r)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        # Sums are defined within one grade: d and e share b's.
        d, e = SqrtPiMonomial(x, q), SqrtPiMonomial(z, q)
        assert b + e == e + b
        assert (d + b) + e == d + (b + e)
        assert a * (b + e) == a * b + a * e
        assert b + SqrtPiMonomial(0, 0) == b

    @settings(max_examples=80, deadline=None)
    @given(x=rationals, y=rationals, p=st.integers(0, 6), q=st.integers(0, 6))
    def test_polynomial_embedding_is_multiplicative(self, x, y, p, q):
        a, b = SqrtPiMonomial(x, p), SqrtPiMonomial(y, q)
        assert (a * b).to_polynomial() == a.to_polynomial() * b.to_polynomial()


def random_poly(rng, max_degree=5):
    coeffs = {}
    for degree in range(max_degree + 1):
        if rng.random() < 0.6:
            coeffs[degree] = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
    return SqrtPiPolynomial(coeffs)


class TestPolynomialRing:
    def test_ring_laws(self):
        rng = random.Random(2024)
        for _ in range(40):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    @settings(max_examples=80, deadline=None)
    @given(a=polys, b=polys, c=polys)
    def test_ring_laws_property(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c

    def test_no_stored_zeros(self):
        rng = random.Random(11)
        for _ in range(40):
            a, b = random_poly(rng), random_poly(rng)
            for poly in (a + b, a - b, a * b, a - a):
                assert all(value != 0 for _, value in poly.items())

    def test_subtraction_cancels(self):
        a = SqrtPiPolynomial({0: Fraction(2, 3), 2: Fraction(5)})
        assert (a - a).is_zero
        assert a - a == SqrtPiPolynomial.zero()

    def test_scalar_ops(self):
        a = SqrtPiPolynomial({2: Fraction(3, 4)})
        assert a * 4 == SqrtPiPolynomial({2: 3})
        assert a / Fraction(3, 4) == SqrtPiPolynomial({2: 1})
        assert 2 * a == a + a

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            SqrtPiPolynomial({-1: Fraction(1)})
        with pytest.raises(ValueError):
            SqrtPiMonomial(Fraction(1), -1).to_polynomial()

    def test_coeff_strings_round_trip(self):
        a = SqrtPiPolynomial({0: Fraction(-7, 5), 4: Fraction(9, 1024)})
        assert a.coeff_strings() == {"0": "-7/5", "4": "9/1024"}


class TestEvaluation:
    def test_sqrt_pi_over_two(self):
        from mpmath import mp

        poly = SqrtPiPolynomial({1: Fraction(1, 2)})
        value = eval_float(poly)
        with mp.workprec(300):
            correctly_rounded = float(mp.sqrt(mp.pi) / 2)
        assert value == correctly_rounded
        assert value == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-15)

    def test_empty_is_zero(self):
        assert eval_float(SqrtPiPolynomial.zero()) == 0.0

    def test_mixed_terms(self):
        poly = SqrtPiPolynomial({0: Fraction(7, 5), 2: Fraction(3, 8)})
        assert eval_float(poly) == pytest.approx(7 / 5 + 3 * math.pi / 8, abs=1e-14)
