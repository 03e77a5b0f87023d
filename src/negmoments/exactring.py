"""Exact arithmetic in Q[sqrt(pi)], and the one rounding rule for floats.

Half-integer Gamma values are rational multiples of sqrt(pi), so every
analytic moment computed by this package lives in the graded ring
Q[sqrt(pi)]. This module provides its one element type, SqrtPiPolynomial
(rational coefficients of nonnegative powers of sqrt(pi), no rounding,
ever), whose coefficients are ``fractions.Fraction``s written as ``"num/den"``
on the wire (``BACKEND`` names that rational arithmetic for benchmark
records); the half-integer Gamma function, whose values are one-term
polynomials; and the one rounding rule for floats: a ring element is
correctly rounded to the nearest double, by integer arithmetic alone. Pi
comes from Machin's formula in fixed point with a proven error bound, square
roots from math.isqrt with each bracket end rounded outward, and the element
is enclosed between two rationals; Ziv's loop doubles the bits until both
ends round to the same double (Ziv, ACM TOMS 17, 1991). Only
SqrtPiPolynomial.evaluate_mpf, an adapter for callers that want an mpmath
number, imports mpmath.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Mapping

__all__ = [
    "BACKEND",
    "PoleError",
    "SqrtPiPolynomial",
    "format_rational",
    "gamma_half",
    "eval_float",
    "eval_sqrt_float",
]

#: Name of the rational arithmetic in use, reported with benchmark results.
BACKEND = "fractions"


class PoleError(ValueError):
    """Gamma evaluated at a nonpositive integer."""


def _twice(value) -> int:
    """Twice an integer or half-integer value; ValueError for anything else."""
    if isinstance(value, int):
        return 2 * value
    # A Fraction is already reduced: it is taken as it is, and twice it is
    # whole exactly when its denominator divides 2.
    exact = value if type(value) is Fraction else Fraction(value)
    if 2 % exact.denominator:
        raise ValueError(f"{value!r} is not an integer or half-integer")
    return int(2 // exact.denominator * exact.numerator)


def format_rational(x) -> str:
    """Serialize a rational as ``"num/den"`` (reduced, positive denominator)."""
    return f"{x.numerator}/{x.denominator}"


_ZERO = Fraction(0)


def _coerce_rational(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, Rational):
        raise TypeError(f"exact ring needs rational coefficients, not {type(value).__name__}")
    return Fraction(value.numerator, value.denominator)


class SqrtPiPolynomial:
    """Finite map degree -> rational coefficient of sqrt(pi)**degree.

    Degrees are nonnegative integers and coefficients are rationals; a
    degree or coefficient of another type, such as the float 1.5, raises
    TypeError. Zero coefficients are never stored, and all arithmetic is
    exact.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, object] | None = None):
        cleaned = {}
        if coeffs:
            for degree, value in coeffs.items():
                degree = operator.index(degree)
                if degree < 0:
                    raise ValueError("polynomial degrees must be nonnegative")
                value = _coerce_rational(value)
                if value != 0:
                    cleaned[degree] = value
        self._coeffs = cleaned

    @classmethod
    def from_scalar(cls, value) -> "SqrtPiPolynomial":
        return cls({0: value})

    def coefficient(self, degree: int):
        return self._coeffs.get(degree, _ZERO)

    def items(self):
        return sorted(self._coeffs.items())

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, SqrtPiPolynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == SqrtPiPolynomial.from_scalar(other)
        return NotImplemented

    def __hash__(self):
        # A scalar equals its int or Fraction (see __eq__), so it hashes as one.
        if self._coeffs.keys() <= {0}:
            return hash(self.coefficient(0))
        return hash(tuple(self.items()))

    def __add__(self, other) -> "SqrtPiPolynomial":
        other = _as_poly(other)
        merged = dict(self._coeffs)
        for degree, value in other._coeffs.items():
            merged[degree] = merged.get(degree, _ZERO) + value
        return SqrtPiPolynomial(merged)

    __radd__ = __add__

    def __neg__(self) -> "SqrtPiPolynomial":
        return SqrtPiPolynomial({d: -v for d, v in self._coeffs.items()})

    def __sub__(self, other) -> "SqrtPiPolynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "SqrtPiPolynomial":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "SqrtPiPolynomial":
        if isinstance(other, (int, Fraction)):
            scalar = _coerce_rational(other)
            return SqrtPiPolynomial({d: v * scalar for d, v in self._coeffs.items()})
        other = _as_poly(other)
        product: dict[int, object] = {}
        for d1, v1 in self._coeffs.items():
            for d2, v2 in other._coeffs.items():
                key = d1 + d2
                product[key] = product.get(key, _ZERO) + v1 * v2
        return SqrtPiPolynomial(product)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "SqrtPiPolynomial":
        scalar = _coerce_rational(scalar)
        return SqrtPiPolynomial({d: v / scalar for d, v in self._coeffs.items()})

    def __repr__(self) -> str:
        if not self._coeffs:
            return "SqrtPiPolynomial(0)"
        body = " + ".join(f"({v})*sqrtpi^{d}" for d, v in self.items())
        return f"SqrtPiPolynomial({body})"

    def coeff_strings(self) -> dict[str, str]:
        """Degree -> "num/den" map, the JSON wire form."""
        return {str(d): format_rational(v) for d, v in self.items()}

    def evaluate_mpf(self, bits: int):
        """The midpoint of the rational enclosure that eval_float uses at
        ``bits``, as an mpmath number of that precision.

        The only function in the package that imports mpmath.
        """
        from mpmath import mp

        lo, hi, den = _enclose(self, bits)
        with mp.workprec(bits):
            return mp.mpf(lo + hi) / (2 * den)


def _as_poly(value) -> SqrtPiPolynomial:
    if isinstance(value, SqrtPiPolynomial):
        return value
    return SqrtPiPolynomial.from_scalar(value)


#: First precision, in bits, of the enclosures behind every float derived
#: from the ring; not an option. Ziv's loop doubles it until both ends of the
#: enclosure round to the same double, so the result does not depend on it.
_WORKING_BITS = 128


def _arctan_inverse(x: int, bits: int) -> tuple[int, int]:
    """(a, n) with |a - 2**bits * atan(1/x)| < n, for an integer x >= 2.

    Each term of the Taylor series is taken as the exact floor
    2**bits // ((2j+1) x**(2j+1)), since floor(floor(y) / m) = floor(y / m)
    for an integer m > 0, so it errs by less than 1. Summing stops at the
    first power that floors to 0; the alternating tail after it is smaller
    than 1. n counts one unit per term plus one for the tail.
    """
    power = (1 << bits) // x
    total, j = 0, 0
    while power:
        term = power // (2 * j + 1)
        total += -term if j % 2 else term
        j += 1
        power //= x * x
    return total, j + 1


def _pi_bracket(bits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo < pi < hi, about 2**-bits apart: Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) in fixed point, with its error bound."""
    # The error bound is about 3.7 units per bit of scale, so 16 guard bits
    # keep the bracket narrower than 2**-bits up to several thousand bits.
    scale = bits + 16
    a5, n5 = _arctan_inverse(5, scale)
    a239, n239 = _arctan_inverse(239, scale)
    centre, error = 16 * a5 - 4 * a239, 16 * n5 + 4 * n239
    return Fraction(centre - error, 1 << scale), Fraction(centre + error, 1 << scale)


def _root(num: int, den: int, bits: int, up: bool) -> tuple[int, int]:
    """A bound on sqrt(num / den) >= 0, as (numerator, denominator): below
    it, or above it if ``up``, by about 2**-bits relative to it."""
    # Scale by 4**e so that the square root has about `bits` bits.
    e = bits - (num.bit_length() - den.bit_length()) // 2
    scaled = (num << 2 * e) // den if e >= 0 else num // (den << -2 * e)
    # floor(sqrt(m)) <= sqrt(num / den * 4**e) < floor(sqrt(m)) + 1 with m = scaled.
    root = math.isqrt(scaled) + up
    return (root, 1 << e) if e >= 0 else (root << -e, 1)


@lru_cache(maxsize=None)
def _sqrt_pi_bracket(bits: int) -> tuple[int, int]:
    """Integers a <= 2**bits sqrt(pi) <= b, from a bracket on pi at twice the bits."""
    lo, hi = _pi_bracket(2 * bits)
    return math.isqrt(math.floor(lo * 4**bits)), math.isqrt(math.ceil(hi * 4**bits)) + 1


def _enclose(poly: SqrtPiPolynomial, bits: int) -> tuple[int, int, int]:
    """Integers lo, hi and den > 0 with lo/den <= poly(sqrt(pi)) <= hi/den,
    from the bracket on sqrt(pi) at ``bits``: each power takes the end of
    the bracket that bounds its term on the side asked for, by the sign of
    its coefficient. den is 2**(bits * top degree) times the lcm of the
    coefficient denominators."""
    s_lo, s_hi = _sqrt_pi_bracket(bits)
    items = poly.items()
    top = items[-1][0] if items else 0
    common = math.lcm(*(coeff.denominator for _, coeff in items))
    lo = hi = 0
    for degree, coeff in items:
        scale = coeff.numerator * (common // coeff.denominator) << bits * (top - degree)
        small, large = scale * s_lo**degree, scale * s_hi**degree
        lo += small if coeff > 0 else large
        hi += large if coeff > 0 else small
    return lo, hi, common << bits * top


def _to_double(num: int, den: int) -> float:
    # int / int rounds to nearest, subnormals included; past the double range
    # it raises where rounding to nearest gives an infinity.
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _correctly_rounded(poly: SqrtPiPolynomial, root: bool) -> float:
    """Ziv's loop: enclose the value (or its square root, if ``root``), and
    double the bits until both ends of the enclosure round to one double."""
    if not poly:
        return 0.0
    bits = _WORKING_BITS
    while True:
        lo, hi, den = _enclose(poly, bits)
        # A nonzero element of the ring is never 0 (pi is transcendental), so
        # an enclosure around 0 narrows onto one side of it.
        if not lo < 0 < hi:
            if root:
                if lo < 0:
                    raise ValueError("square root of a negative ring element")
                lower, upper = _root(lo, den, bits, up=False), _root(hi, den, bits, up=True)
            else:
                lower, upper = (lo, den), (hi, den)
            value = _to_double(*lower)
            if value == _to_double(*upper):
                return value
        bits *= 2


def eval_float(poly: SqrtPiPolynomial) -> float:
    """sum coeff_d * sqrt(pi)**d, correctly rounded to a float (round to
    nearest, +-inf past the double range)."""
    return _correctly_rounded(poly, root=False)


def eval_sqrt_float(poly: SqrtPiPolynomial) -> float:
    """Square root of a nonnegative ring element, correctly rounded to a
    float; ValueError if the element is negative."""
    return _correctly_rounded(poly, root=True)


@lru_cache(maxsize=None)
def _gamma_half_twice(twice: int) -> SqrtPiPolynomial:
    if twice % 2 == 0:
        n = twice // 2
        if n <= 0:
            raise PoleError(f"Gamma pole at {n}")
        return SqrtPiPolynomial({0: math.factorial(n - 1)})
    m = (twice - 1) // 2  # argument is m + 1/2
    if m >= 0:
        # Gamma(1/2) = sqrt(pi), then Gamma(x+1) = x Gamma(x) upward.
        num = 1
        for i in range(m):
            num *= 2 * i + 1
        return SqrtPiPolynomial({1: Fraction(num, 2**m)})
    # Downward recurrence: Gamma(1/2 - s) = (-4)**s s! / (2s)! * sqrt(pi).
    s = -m
    return SqrtPiPolynomial({1: Fraction((-4) ** s * math.factorial(s), math.factorial(2 * s))})


def gamma_half(h) -> SqrtPiPolynomial:
    """Gamma at an integer or half-integer argument, exactly.

    Integer n >= 1 gives (n-1)!; half-odd arguments give a rational multiple
    of sqrt(pi) via the Gamma(x+1) = x Gamma(x) recurrence run in either
    direction from Gamma(1/2). Either way the value is a one-term
    polynomial. Raises PoleError at integers <= 0.
    """
    return _gamma_half_twice(_twice(h))
