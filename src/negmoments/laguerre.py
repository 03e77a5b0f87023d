"""Laguerre polynomials and their exponential-weight pair integrals, exact.

The central quantity is

    J(k, l, beta) = integral_0^inf e^{-q} q^beta L_k(q) L_l(q) dq

for beta in {0, 1/2, 1}, evaluated in closed terms of half-integer Gamma
values. Expanding the generating function of the L_k reduces it to a
terminating binomial sum,

    J(k, l, beta) = ((-1)^l / l!) * sum_{t=0}^{k}
        (-1)^t C(k, t) Gamma(t+beta+1)^2 / (t! Gamma(t-l+beta+1)),

where reciprocal Gamma vanishing at its poles is what truncates the
integer-beta cases. For beta = 1/2 every term carries a single factor of
sqrt(pi); for integer beta the result is rational.

The moment engine builds its pair-integral matrices by a two-term
recurrence instead (see moments.py); this term sum is the independent oracle
that the ``verify`` suites and the tests check those matrices against. Each
(k, l, beta) is summed once and cached, since the suites read the same
values many times. The terminating 3F2 form of the beta = 1/2 case is a
second, separate route, summed by its own term ratio.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exactring import HalfInteger, SqrtPiMonomial, gamma_half, reciprocal_gamma_half

__all__ = [
    "pochhammer",
    "laguerre_eval",
    "laguerre_pair_integral",
    "laguerre_pair_integral_hyp3f2",
    "squared_vandermonde_integral",
    "SUPPORTED_WEIGHTS",
]

#: Exponent values beta the exact evaluator accepts, as twice-values.
SUPPORTED_WEIGHTS = (0, 1, 2)


def pochhammer(a, n: int, direction: str = "rising"):
    """Rising a(a+1)...(a+n-1) or falling a(a-1)...(a-n+1); n = 0 gives 1."""
    if n < 0:
        raise ValueError("pochhammer order must be nonnegative")
    if direction not in ("rising", "falling"):
        raise ValueError(f"unknown direction {direction!r}")
    step = 1 if direction == "rising" else -1
    a = Fraction(a.numerator, a.denominator) if not isinstance(a, int) else Fraction(a)
    result = Fraction(1)
    for i in range(n):
        result = result * (a + step * i)
    return result


def laguerre_eval(k: int, x):
    """L_k(x) by the three-term recurrence, exact at rational arguments.

    (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}, seeded with L_0 = 1, L_1 = 1-x.
    """
    if k < 0:
        raise ValueError("Laguerre index must be nonnegative")
    x = Fraction(x.numerator, x.denominator) if not isinstance(x, int) else Fraction(x)
    prev, cur = Fraction(1), 1 - x
    if k == 0:
        return prev
    for i in range(1, k):
        prev, cur = cur, ((2 * i + 1 - x) * cur - i * prev) / (i + 1)
    return cur


def _beta_twice(beta) -> int:
    twice = HalfInteger.of(beta).twice
    if twice not in SUPPORTED_WEIGHTS:
        raise ValueError("weight exponent must be 0, 1/2 or 1")
    return twice


def laguerre_pair_integral(k: int, l: int, beta) -> SqrtPiMonomial:
    """Exact value of the weighted pair integral J(k, l, beta).

    beta = 0 reproduces orthonormality (delta_{kl}); beta = 1 is tridiagonal
    in (k, l); beta = 1/2 is the generic case and returns a rational multiple
    of sqrt(pi). Each (k, l, beta) is summed once and cached.
    """
    if k < 0 or l < 0:
        raise ValueError("polynomial indices must be nonnegative")
    return _pair_integral_cached(k, l, _beta_twice(beta))


@lru_cache(maxsize=None)
def _pair_integral_cached(k: int, l: int, twice: int) -> SqrtPiMonomial:
    acc = SqrtPiMonomial(0, 0)
    binom = 1  # C(k, t), updated multiplicatively
    t_fact = 1
    for t in range(k + 1):
        if t:
            binom = binom * (k - t + 1) // t
            t_fact *= t
        g = _gamma_half_shift(twice, t)
        r = _recip_gamma_half_shift(twice, t - l)
        if not r.is_zero:
            term_coeff = g.coeff * g.coeff * r.coeff * Fraction(binom, t_fact)
            if t % 2:
                term_coeff = -term_coeff
            acc = acc + SqrtPiMonomial(term_coeff, 2 * g.power + r.power)
    sign = -1 if l % 2 else 1
    return acc * Fraction(sign, math.factorial(l))


def _gamma_half_shift(beta_twice: int, shift: int) -> SqrtPiMonomial:
    # Gamma(shift + beta + 1)
    return gamma_half(HalfInteger(beta_twice + 2 * shift + 2))


def _recip_gamma_half_shift(beta_twice: int, shift: int) -> SqrtPiMonomial:
    # 1/Gamma(shift + beta + 1), exact zero at poles
    return reciprocal_gamma_half(HalfInteger(beta_twice + 2 * shift + 2))


def laguerre_pair_integral_hyp3f2(k: int, l: int) -> SqrtPiMonomial:
    """J(k, l, 1/2) through its terminating 3F2 hypergeometric form.

    ((-1)^l / l!) * Gamma(3/2)^2 / Gamma(3/2 - l) *
        3F2({3/2, 3/2, -k}; {1, 3/2 - l}; 1)

    Cross-check path: must equal laguerre_pair_integral(k, l, 1/2) exactly.
    Only the sqrt-weight case is exposed; for integer weights the
    Gamma(1 + beta - l) prefactor sits on a pole once l >= 2, so the binomial
    sum is the canonical route there.
    """
    if k < 0 or l < 0:
        raise ValueError("polynomial indices must be nonnegative")
    three_halves = Fraction(3, 2)
    lower = three_halves - l
    # Successive terms of the 3F2 series have the ratio
    # (3/2+t)^2 (t-k) / ((1+t) (3/2-l+t) (t+1)); times 4/4 it is a ratio of
    # integers.
    term = Fraction(1)
    series = term
    for t in range(k):
        term = term * Fraction((2 * t + 3) ** 2 * (t - k), 2 * (t + 1) ** 2 * (2 * t + 3 - 2 * l))
        series = series + term
    g = gamma_half(three_halves)
    prefactor = SqrtPiMonomial(g.coeff * g.coeff, 2 * g.power) * reciprocal_gamma_half(lower)
    sign = -1 if l % 2 else 1
    return prefactor * (series * Fraction(sign, math.factorial(l)))


def squared_vandermonde_integral(mu: int):
    """Normalization integral of the squared Vandermonde under prod e^{-q_k}.

    Equals mu! * prod_{k=1}^{mu} Gamma(k)^2, an exact integer.
    """
    if mu < 1:
        raise ValueError("dimension must be at least 1")
    total = Fraction(math.factorial(mu))
    for k in range(1, mu + 1):
        f = math.factorial(k - 1)
        total = total * (f * f)
    return total
