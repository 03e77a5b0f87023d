"""Exponential-weight pair integrals of Laguerre polynomials, exact.

The central quantity is

    J(k, l, beta) = integral_0^inf e^{-q} q^beta L_k(q) L_l(q) dq

for beta in {0, 1/2, 1}, evaluated in closed terms of half-integer Gamma
values. Expanding the generating function of the L_k reduces it to a
terminating binomial sum,

    J(k, l, beta) = ((-1)^l / l!) * sum_{t=0}^{k}
        (-1)^t C(k, t) Gamma(t+beta+1)^2 / (t! Gamma(t-l+beta+1)),

where 1/Gamma vanishing at its poles is what truncates the integer-beta
cases. For beta = 1/2 every term carries a single factor of sqrt(pi); for
integer beta the result is rational.

The sum runs on plain Python integers: for integer beta every term is an
integer, and for beta = 1/2 every term is an integer over the common
denominator k! 2^(k+l+1). The total becomes one rational, returned as a
one-term SqrtPiPolynomial.

The moment engine builds its pair-integral matrices by a two-term
recurrence instead (see moments.py); this term sum is the independent oracle
that the ``verify`` suites and the tests check those matrices against. Each
(k, l, beta) is summed once and cached, since the suites read the same
values many times. The terminating 3F2 form of the beta = 1/2 case is a
second, separate route, summed by its own term ratio. The module holds
these two routes and nothing else.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exactring import SqrtPiPolynomial, _twice, gamma_half

__all__ = [
    "laguerre_pair_integral",
    "laguerre_pair_integral_hyp3f2",
    "SUPPORTED_WEIGHTS",
]

#: Exponent values beta the exact evaluator accepts, as twice-values.
SUPPORTED_WEIGHTS = (0, 1, 2)


def _beta_twice(beta) -> int:
    twice = _twice(beta)
    if twice not in SUPPORTED_WEIGHTS:
        raise ValueError("weight exponent must be 0, 1/2 or 1")
    return twice


def laguerre_pair_integral(k: int, l: int, beta) -> SqrtPiPolynomial:
    """Exact value of the weighted pair integral J(k, l, beta).

    beta = 0 reproduces orthonormality (delta_{kl}); beta = 1 is tridiagonal
    in (k, l); beta = 1/2 is the generic case and returns a rational multiple
    of sqrt(pi). Each (k, l, beta) is summed once and cached.
    """
    if k < 0 or l < 0:
        raise ValueError("polynomial indices must be nonnegative")
    return _pair_integral_cached(k, l, _beta_twice(beta))


@lru_cache(maxsize=None)
def _pair_integral_cached(k: int, l: int, twice: int) -> SqrtPiPolynomial:
    # Gamma(t+beta+1) / Gamma(t-l+beta+1) is the falling product
    # (t+beta)(t+beta-1)...(t+beta-l+1), which is 0 exactly where the
    # reciprocal Gamma sits on a pole, so each term is
    #   (-1)^t C(k, t) / t! * Gamma(t+beta+1) * falling product.
    if twice % 2 == 0:
        # Integer beta = b: Gamma(t+b+1) / t! and the falling product
        # (t+b)! / (t+b-l)! are integers, so the whole sum is one.
        b = twice // 2
        total = 0
        for t in range(max(0, l - b), k + 1):
            term = math.comb(k, t) * math.perm(t + b, b) * math.perm(t + b, l)
            total += -term if t % 2 else term
        return SqrtPiPolynomial({0: Fraction(-total if l % 2 else total, math.factorial(l))})
    # beta = 1/2: Gamma(t+3/2) = (2t+1)!! / 2^(t+1) sqrt(pi), and the falling
    # product is prod_{i<l} (2t+1-2i) / 2^l, an odd number over 2^l: for
    # t >= l-1 it is (2t+1)!! / (2t+1-2l)!!, below that its negative factors
    # give (-1)^(l-1-t) (2t+1)!! (2l-2t-3)!!. Each term is then an integer
    # over t! 2^(t+l+1), so the sum is one over k! 2^(k+l+1).
    odd = [1]  # odd[m] = (2m-1)!!
    for m in range(1, max(k, l) + 2):
        odd.append(odd[-1] * (2 * m - 1))
    total = 0
    for t in range(k + 1):
        if t >= l - 1:
            falling = odd[t + 1] // odd[t + 1 - l]
        else:
            falling = odd[t + 1] * odd[l - 1 - t]
            if (l - 1 - t) % 2:
                falling = -falling
        # (k! / t!) 2^(k-t) puts the term over the common denominator.
        term = math.comb(k, t) * math.perm(k, k - t) * odd[t + 1] * falling << (k - t)
        total += -term if t % 2 else term
    sign = -1 if l % 2 else 1
    return SqrtPiPolynomial({1: Fraction(sign * total, math.factorial(l) * math.factorial(k) << (k + l + 1))})


def laguerre_pair_integral_hyp3f2(k: int, l: int) -> SqrtPiPolynomial:
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
    # Successive terms of the 3F2 series have the ratio
    # (3/2+t)^2 (t-k) / ((1+t) (3/2-l+t) (t+1)); times 4/4 it is a ratio of
    # integers. Each term is kept as an integer over the running product of
    # those denominators, and so is the partial sum: it is rescaled by each
    # new denominator factor, and becomes one rational at the end.
    term = den = partial = 1
    for t in range(k):
        step = 2 * (t + 1) ** 2 * (2 * t + 3 - 2 * l)
        term *= (2 * t + 3) ** 2 * (t - k)
        den *= step
        partial = partial * step + term
    series = Fraction(partial, den)
    # Gamma(3/2) and Gamma(3/2 - l) are rational multiples of sqrt(pi)
    # (3/2 - l is never a pole), so the prefactor is their coefficient ratio
    # times sqrt(pi).
    g = gamma_half(three_halves).coefficient(1)
    prefactor = g * g / gamma_half(three_halves - l).coefficient(1)
    sign = -1 if l % 2 else 1
    return SqrtPiPolynomial({1: prefactor * series * Fraction(sign, math.factorial(l))})

