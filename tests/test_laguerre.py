import math
from fractions import Fraction

import pytest

from negmoments.exactring import SqrtPiPolynomial, gamma_half
from negmoments.laguerre import laguerre_pair_integral, laguerre_pair_integral_hyp3f2

HALF = Fraction(1, 2)


def laguerre_coefficients(k):
    """Exact coefficient list of L_k: sum_i C(k,i) (-1)^i x^i / i!."""
    return [Fraction((-1) ** i * math.comb(k, i), math.factorial(i)) for i in range(k + 1)]


def pair_integral_by_expansion(k, l, beta):
    """Independent oracle: expand both polynomials and integrate termwise.

    integral e^{-q} q^{beta+i+j} dq = Gamma(beta+i+j+1), so the value is a
    double sum over coefficient products. No reciprocal Gamma, no binomial
    alternating sum over a single index: a genuinely different route.
    """
    total = SqrtPiPolynomial()
    for i, ci in enumerate(laguerre_coefficients(k)):
        for j, cj in enumerate(laguerre_coefficients(l)):
            total = total + gamma_half(Fraction(beta) + i + j + 1) * (ci * cj)
    return total


class TestPochhammer:
    def test_gamma_ratio_identity(self):
        # (x)_n = x (x+1) ... (x+n-1) = Gamma(x+n) / Gamma(x) at positive half-odd x
        for twice in (1, 3, 7):
            x = Fraction(twice, 2)
            for n in range(5):
                assert gamma_half(x + n) == gamma_half(x) * math.prod(x + i for i in range(n))


class TestPairIntegral:
    def test_worked_values(self):
        assert laguerre_pair_integral(0, 0, HALF) == SqrtPiPolynomial({1: Fraction(1, 2)})
        assert laguerre_pair_integral(0, 1, HALF) == SqrtPiPolynomial({1: Fraction(-1, 4)})
        assert laguerre_pair_integral(1, 1, HALF) == SqrtPiPolynomial({1: Fraction(7, 8)})
        assert laguerre_pair_integral(0, 1, 1) == -1

    def test_orthonormality(self):
        for k in range(12):
            for l in range(12):
                value = laguerre_pair_integral(k, l, 0)
                assert value == (1 if k == l else 0)

    def test_tridiagonal_weight_one(self):
        for k in range(12):
            for l in range(12):
                value = laguerre_pair_integral(k, l, 1)
                if k == l:
                    assert value == 2 * k + 1
                elif abs(k - l) == 1:
                    assert value == -max(k, l)
                else:
                    assert value == 0

    def test_symmetry(self):
        for k in range(10):
            for l in range(10):
                for beta in (0, HALF, 1):
                    assert laguerre_pair_integral(k, l, beta) == laguerre_pair_integral(l, k, beta)

    def test_against_expansion_oracle(self):
        for k in range(9):
            for l in range(9):
                for beta in (0, HALF, 1):
                    assert laguerre_pair_integral(k, l, beta) == pair_integral_by_expansion(k, l, beta)

    def test_rejects_unsupported_weight(self):
        # Also once the values around the bad arguments are cached.
        for k in range(3):
            for l in range(3):
                for beta in (0, HALF, 1):
                    laguerre_pair_integral(k, l, beta)
        with pytest.raises(ValueError):
            laguerre_pair_integral(1, 1, Fraction(3, 2))
        with pytest.raises(ValueError):
            laguerre_pair_integral(1, 1, 2)
        with pytest.raises(ValueError):
            laguerre_pair_integral(-1, 0, HALF)
        with pytest.raises(ValueError):
            laguerre_pair_integral(0, -1, 1)


class TestHyp3F2Path:
    def test_worked_values(self):
        assert laguerre_pair_integral_hyp3f2(0, 0) == SqrtPiPolynomial({1: Fraction(1, 2)})
        assert laguerre_pair_integral_hyp3f2(1, 1) == SqrtPiPolynomial({1: Fraction(7, 8)})

    def test_matches_binomial_sum(self):
        # k, l <= 32, as far as the verify suite reaches.
        for k in range(33):
            for l in range(33):
                assert laguerre_pair_integral_hyp3f2(k, l) == laguerre_pair_integral(k, l, HALF)

    def test_verify_suite_catches_a_wrong_term_sum(self, monkeypatch):
        from negmoments import selfcheck

        def corrupted(k, l, beta):
            value = laguerre_pair_integral(k, l, beta)
            return value + SqrtPiPolynomial({1: Fraction(1, 2**40)}) if (k, l) == (3, 2) else value

        monkeypatch.setattr(selfcheck, "laguerre_pair_integral", corrupted)
        result = selfcheck.check_hyp3f2(4)
        assert result.name == "3F2 re-derivation"
        assert not result.passed and result.detail == "mismatch at (3,2)"


class TestVandermondeNorm:
    def test_against_tensor_quadrature(self):
        # The squared Vandermonde of dimension mu integrates against
        # prod e^{-q_k} to mu! prod_{k<mu} k!^2 (2 and 24 for mu = 2, 3); a
        # tensor Gauss grid is exact for these polynomials.
        import numpy as np

        from negmoments.quadrature import _gauss_rule

        x, w = map(np.array, _gauss_rule(8, 0.0))
        q1, q2, q3 = np.meshgrid(x, x, x, indexing="ij")
        w3 = w[:, None, None] * w[None, :, None] * w[None, None, :]
        integrand = ((q1 - q2) * (q1 - q3) * (q2 - q3)) ** 2
        assert float(np.sum(w3 * integrand)) == pytest.approx(24.0, rel=1e-12)
        integrand2 = (x[:, None] - x[None, :]) ** 2 * (w[:, None] * w[None, :])
        assert float(np.sum(integrand2)) == pytest.approx(2.0, rel=1e-12)
