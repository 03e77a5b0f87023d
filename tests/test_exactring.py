import contextlib
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negmoments import exactring
from negmoments.exactring import (
    PoleError,
    SqrtPiPolynomial,
    _twice,
    eval_float,
    eval_sqrt_float,
    gamma_half,
)


def mono(num, den=1, power=0):
    return SqrtPiPolynomial({power: Fraction(num, den)})


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
polys = st.dictionaries(st.integers(0, 6), rationals, max_size=5).map(SqrtPiPolynomial)


class TestHalfInteger:
    """Integer and half-integer arguments, read as twice their value."""

    def test_construction(self):
        assert _twice(3) == 6
        assert _twice(Fraction(3, 2)) == 3
        assert _twice(-0.5) == -1

    @pytest.mark.parametrize("value,twice", [(Fraction(-3, 2), -3), (Fraction(4), 8), (Fraction(0), 0)])
    def test_fractions_are_read_as_they_are(self, value, twice):
        assert _twice(value) == twice
        assert type(_twice(value)) is int

    def test_rejects_non_halves(self):
        with pytest.raises(ValueError, match=r"^Fraction\(1, 3\) is not an integer or half-integer$"):
            _twice(Fraction(1, 3))
        with pytest.raises(ValueError, match=r"^0\.3 is not an integer or half-integer$"):
            _twice(0.3)


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
            if twice % 2 == 0 and twice <= 0:
                continue
            h = Fraction(twice, 2)
            assert gamma_half(h + 1) == gamma_half(h) * h


class TestMonomial:
    """One-term polynomials, the values of gamma_half and the pair integrals."""

    def test_canonical_zero(self):
        z = mono(0, power=5)
        assert z == 0 and z.items() == [] and z == SqrtPiPolynomial()

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            SqrtPiPolynomial({1: 0.5})
        # Nor any other coefficient that is not rational.
        for value in ("1/2", Decimal("0.5"), None, 1j):
            with pytest.raises(TypeError):
                SqrtPiPolynomial({1: value})
            with pytest.raises(TypeError):
                mono(1, power=1) / value

    @settings(max_examples=80, deadline=None)
    @given(x=rationals, y=rationals, z=rationals, p=st.integers(0, 4), q=st.integers(0, 4), r=st.integers(0, 4))
    def test_ring_laws_property(self, x, y, z, p, q, r):
        a, b, c = mono(x, power=p), mono(y, power=q), mono(z, power=r)
        assert a * b == b * a == mono(x * y, power=p + q)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        # A sum within one grade stays one term.
        assert b + mono(z, power=q) == mono(y + z, power=q)


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
        assert a - a == 0
        assert a - a == SqrtPiPolynomial()

    def test_scalar_ops(self):
        a = SqrtPiPolynomial({2: Fraction(3, 4)})
        assert a * 4 == SqrtPiPolynomial({2: 3})
        assert a / Fraction(3, 4) == SqrtPiPolynomial({2: 1})
        assert 2 * a == a + a

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            SqrtPiPolynomial({-1: Fraction(1)})
        # A degree that is not an integer is refused, not truncated: {1: 1,
        # 1.5: 2} would otherwise be 2 sqrt(pi) and lose its first term.
        for degree in (1.5, Fraction(3, 2), 2.0, "2"):
            with pytest.raises(TypeError):
                SqrtPiPolynomial({1: 1, degree: 2})
        assert SqrtPiPolynomial({np.int64(1): 1, 2: 3}) == SqrtPiPolynomial({1: 1, 2: 3})

    def test_hash_agrees_with_equality(self):
        for scalar in (0, 3, Fraction(-7, 5)):
            poly = SqrtPiPolynomial.from_scalar(scalar)
            assert poly == scalar and hash(poly) == hash(scalar)
            assert len({poly, scalar}) == 1
        assert len({SqrtPiPolynomial(), 0}) == 1
        assert len({mono(3, power=2), SqrtPiPolynomial({2: 3})}) == 1

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
        assert eval_float(SqrtPiPolynomial()) == 0.0

    def test_mixed_terms(self):
        poly = SqrtPiPolynomial({0: Fraction(7, 5), 2: Fraction(3, 8)})
        assert eval_float(poly) == pytest.approx(7 / 5 + 3 * math.pi / 8, abs=1e-14)


class TestEdgeValues:
    def test_square_root_of_negative_raises(self):
        for poly in (SqrtPiPolynomial({0: -1}), SqrtPiPolynomial({0: 3, 2: -1})):  # -1 and 3 - pi
            with pytest.raises(ValueError, match="negative ring element"):
                eval_sqrt_float(poly)

    def test_zero(self):
        assert eval_sqrt_float(SqrtPiPolynomial()) == 0.0
        assert math.copysign(1.0, eval_float(SqrtPiPolynomial())) == 1.0

    def test_beyond_double_range_is_infinite(self):
        assert eval_float(SqrtPiPolynomial({0: 10**400})) == math.inf
        assert eval_float(SqrtPiPolynomial({0: -(10**400)})) == -math.inf
        assert eval_float(SqrtPiPolynomial({2: 10**308})) == math.inf
        assert eval_sqrt_float(SqrtPiPolynomial({0: 10**700})) == math.inf
        largest = Fraction(sys.float_info.max)
        assert eval_float(SqrtPiPolynomial({0: largest})) == sys.float_info.max
        # Halfway between the largest double and 2**1024 rounds to infinity.
        assert eval_float(SqrtPiPolynomial({0: largest + 2**970})) == math.inf

    def test_tiny_values_round_to_zero_or_subnormal(self):
        positive = eval_float(SqrtPiPolynomial({0: Fraction(1, 10**400)}))
        negative = eval_float(SqrtPiPolynomial({0: Fraction(-1, 10**400)}))
        assert (positive, math.copysign(1.0, positive)) == (0.0, 1.0)
        assert (negative, math.copysign(1.0, negative)) == (0.0, -1.0)
        subnormal = eval_float(SqrtPiPolynomial({2: Fraction(1, 10**310)}))
        assert 0 < subnormal < sys.float_info.min
        assert subnormal == float(Fraction(math.pi) / 10**310)  # 44-bit subnormal: pi's last bits do not reach it
        assert eval_sqrt_float(SqrtPiPolynomial({0: Fraction(1, 10**630)})) == 1e-315
        assert eval_sqrt_float(SqrtPiPolynomial({0: Fraction(1, 10**700)})) == 0.0


@contextlib.contextmanager
def _interval_context(bits: int):
    """mpmath's interval context at ``bits``, restored afterwards."""
    from mpmath import iv

    saved = iv.prec
    iv.prec = bits
    try:
        yield iv
    finally:
        iv.prec = saved


def _iv_ends(interval) -> list:
    """The ends of an mpmath interval, exactly, as Fractions."""
    ends = []
    for sign, man, exp, _ in interval._mpi_:
        value = Fraction(man) * Fraction(2) ** exp
        ends.append(-value if sign else value)
    return ends


def _iv_rounded(interval) -> float:
    """The double both ends of an mpmath interval round to (float(Fraction) rounds to nearest)."""
    lo, hi = (float(end) for end in _iv_ends(interval))
    assert lo == hi, f"interval [{lo!r}, {hi!r}] straddles a rounding boundary"
    return lo


class TestEnclosure:
    """The brackets behind the rounding hold the exact value at any bits."""

    @pytest.mark.parametrize("bits", [1, 2, 8, 53, 128, 1000])
    def test_pi_bracket(self, bits):
        lo, hi = exactring._pi_bracket(bits)
        with _interval_context(2048) as iv:
            a, b = _iv_ends(iv.pi)
        assert lo < a <= b < hi
        assert hi - lo < Fraction(1, 2**bits)

    @settings(max_examples=60, deadline=None)
    @given(x=st.fractions(min_value=0, max_value=10**30), bits=st.integers(1, 300))
    def test_root_bounds(self, x, bits):
        lower = Fraction(*exactring._root(x.numerator, x.denominator, bits, up=False))
        upper = Fraction(*exactring._root(x.numerator, x.denominator, bits, up=True))
        assert lower >= 0 and lower * lower <= x <= upper * upper

    @settings(max_examples=60, deadline=None)
    @given(poly=polys, bits=st.sampled_from([8, 32, 64, 128, 256]))
    def test_polynomial_bracket(self, poly, bits):
        lo, hi, den = exactring._enclose(poly, bits)
        lo, hi = Fraction(lo, den), Fraction(hi, den)
        with _interval_context(1024) as iv:
            oracle = iv.mpf(0)
            for degree, coeff in poly.items():
                oracle += iv.mpf(coeff.numerator) / coeff.denominator * iv.sqrt(iv.pi) ** degree
            a, b = _iv_ends(oracle)
        # [a, b] is the value to within 2**-1000; an exact [lo, hi] (a
        # constant polynomial) lies inside it rather than around it.
        assert lo <= b and a <= hi
        if bits == 256:
            assert hi - lo < Fraction(1, 2**200)


class TestNearTies:
    """Values within 2**-400 of a rounding midpoint: the first enclosures
    straddle it, and only doubling the bits decides the rounding."""

    MIDPOINT = 1 + Fraction(1, 2**53)  # halfway between 1.0 and the next double

    @staticmethod
    def _pi_at_400_bits(up: bool) -> Fraction:
        from mpmath import mp

        with mp.workprec(600):
            man, exp = mp.pi.man_exp
        scaled = man * 2**400 * Fraction(2) ** exp
        return Fraction(math.floor(scaled) + up, 2**400)

    @staticmethod
    def _bits_used(monkeypatch) -> list:
        used = []
        enclose = exactring._enclose

        def recording(poly, bits):
            used.append(bits)
            return enclose(poly, bits)

        monkeypatch.setattr(exactring, "_enclose", recording)
        return used

    @pytest.mark.parametrize("up", [False, True], ids=["above", "below"])
    def test_value(self, up, monkeypatch):
        c0 = self.MIDPOINT - self._pi_at_400_bits(up)
        poly = SqrtPiPolynomial({0: c0, 2: 1})  # midpoint + (pi - r)
        used = self._bits_used(monkeypatch)
        value = eval_float(poly)
        assert max(used) >= 4 * exactring._WORKING_BITS  # doubled at least twice
        with _interval_context(1024) as iv:
            assert value == _iv_rounded(iv.mpf(c0.numerator) / c0.denominator + iv.pi)
        assert value == (1.0 if up else math.nextafter(1.0, 2.0))
        assert float(poly.evaluate_mpf(1024)) == value

    @pytest.mark.parametrize("up", [False, True], ids=["above", "below"])
    def test_square_root(self, up, monkeypatch):
        m, r = self.MIDPOINT, self._pi_at_400_bits(up)
        # m^2 + 2m (pi - r), whose square root is m + (pi - r) less a term of order 2**-800.
        c0, c2 = m * m - 2 * m * r, 2 * m
        used = self._bits_used(monkeypatch)
        value = eval_sqrt_float(SqrtPiPolynomial({0: c0, 2: c2}))
        assert max(used) >= 4 * exactring._WORKING_BITS
        with _interval_context(1024) as iv:
            oracle = iv.sqrt(iv.mpf(c0.numerator) / c0.denominator + iv.mpf(c2.numerator) / c2.denominator * iv.pi)
            assert value == _iv_rounded(oracle)
        assert value == (1.0 if up else math.nextafter(1.0, 2.0))
