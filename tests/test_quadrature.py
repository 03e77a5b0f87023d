import math
from fractions import Fraction

import numpy as np
import pytest

from negmoments.exactring import eval_float
from negmoments.laguerre import laguerre_pair_integral
from negmoments.quadrature import (
    InsufficientNodesError,
    _NEWTON_CAP,
    _STEP_TOLERANCE,
    _gauss_rule,
    _laguerre_sequence,
    laguerre_pair_integral_quadrature,
)

HALF = Fraction(1, 2)


def laguerre_float_coefficients(k):
    return [(-1) ** i * math.comb(k, i) / math.factorial(i) for i in range(k + 1)]


def list_gauss_rule(n, alpha):
    """_gauss_rule as it was when each Newton step read the last two values of the whole _laguerre_sequence list."""
    norm = math.gamma(n + alpha + 1) / math.factorial(n)
    nodes, weights = [], []
    for i in range(n):
        if i == 0:
            z = (1 + alpha) * (3 + 0.92 * alpha) / (1 + 2.4 * n + 1.8 * alpha)
        elif i == 1:
            z += (15 + 6.25 * alpha) / (1 + 0.9 * alpha + 2.5 * n)
        else:
            a = i - 1
            z += ((1 + 2.55 * a) / (1.9 * a) + 1.26 * a * alpha / (1 + 3.5 * a)) * (z - nodes[-2]) / (1 + 0.3 * alpha)
        for _ in range(_NEWTON_CAP):
            below, value = _laguerre_sequence(n, alpha, z)[-2:]
            step = value * z / (n * value - (n + alpha) * below)
            z -= step
            if abs(step) <= _STEP_TOLERANCE * z:
                break
        nodes.append(z)
        weights.append(norm * z / ((n + alpha) ** 2 * _laguerre_sequence(n - 1, alpha, z)[-1] ** 2))
    return tuple(nodes), tuple(weights)


class TestNodesWeights:
    def test_against_numpy_laggauss(self):
        # numpy is only the oracle here: the rule itself is plain Python.
        for n in (8, 24, 48):
            x, w = _gauss_rule(n, 0.0)
            x_ref, w_ref = np.polynomial.laguerre.laggauss(n)
            assert np.allclose(x, x_ref, rtol=1e-12, atol=1e-12)
            assert np.allclose(w, w_ref, rtol=1e-10, atol=1e-300)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.25])
    def test_nodes_ascend_and_are_positive(self, alpha):
        for n in range(1, 49):
            x, _ = _gauss_rule(n, alpha)
            assert len(x) == n and x[0] > 0.0
            assert all(a < b for a, b in zip(x, x[1:]))

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 5.0])
    def test_two_value_newton_matches_the_list_loop(self, alpha):
        # Every node and weight, bit for bit: the same float operations in the same order.
        for n in range(1, 80):
            assert _gauss_rule.__wrapped__(n, alpha) == list_gauss_rule(n, alpha), n

    def test_total_mass(self):
        for alpha in (0.0, 0.5, 1.0, 2.25):
            _, w = _gauss_rule(20, alpha)
            assert math.fsum(w) == pytest.approx(math.gamma(alpha + 1.0), rel=1e-13)

    def test_monomial_moments(self):
        # integral x^m x^alpha e^{-x} = Gamma(alpha + m + 1), exact for the
        # n-node rule up to degree 2n - 1
        for alpha in (0.0, 0.5, 1.0, 2.25):
            for n in (1, 2, 5, 16, 33, 48):
                x, w = _gauss_rule(n, alpha)
                for m in range(2 * n):
                    value = math.fsum([wi * xi**m for wi, xi in zip(w, x)])
                    assert value == pytest.approx(math.gamma(alpha + m + 1), rel=1e-12), (alpha, n, m)

    def test_validation(self):
        with pytest.raises(InsufficientNodesError):
            laguerre_pair_integral_quadrature(0, 0, 0.0, 0)
        with pytest.raises(ValueError, match="must exceed -1"):
            laguerre_pair_integral_quadrature(0, 0, -1.0, 5)


class TestLaguerreValues:
    def test_matches_coefficients(self):
        for x in np.linspace(0.0, 30.0, 7).tolist():
            table = _laguerre_sequence(6, 0.0, x)
            for k in range(7):
                expected = sum(c * x**i for i, c in enumerate(laguerre_float_coefficients(k)))
                assert table[k] == pytest.approx(expected, rel=1e-10, abs=1e-10)


class TestPairIntegralQuadrature:
    def test_worked_values(self):
        assert laguerre_pair_integral_quadrature(0, 0, 0.0, 8) == pytest.approx(1.0, abs=1e-12)
        assert laguerre_pair_integral_quadrature(0, 0, 0.5, 8) == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-10)

    def test_agrees_with_exact_path(self):
        value = laguerre_pair_integral_quadrature(3, 5, 1.0, 12)
        exact = eval_float(laguerre_pair_integral(3, 5, 1))
        assert value == pytest.approx(exact, abs=1e-10)

    @pytest.mark.parametrize("beta", [0, HALF, 1])
    def test_oracle_grid(self, beta):
        for k in range(0, 13, 3):
            for l in range(0, 13, 4):
                exact = eval_float(laguerre_pair_integral(k, l, beta))
                approx = laguerre_pair_integral_quadrature(k, l, float(beta), k + l + 8)
                assert approx == pytest.approx(exact, abs=1e-9)

    def test_general_real_weight(self):
        # Independent float oracle for beta = 0.25: integrate the expanded
        # coefficient products against Gamma moments.
        beta, k, l = 0.25, 4, 3
        expected = 0.0
        for i, ci in enumerate(laguerre_float_coefficients(k)):
            for j, cj in enumerate(laguerre_float_coefficients(l)):
                expected += ci * cj * math.gamma(beta + i + j + 1)
        value = laguerre_pair_integral_quadrature(k, l, beta, k + l + 6)
        assert value == pytest.approx(expected, abs=1e-10)

    def test_insufficient_nodes(self):
        with pytest.raises(InsufficientNodesError):
            laguerre_pair_integral_quadrature(4, 4, 0.5, 9)
        with pytest.raises(ValueError):
            laguerre_pair_integral_quadrature(-1, 0, 0.5, 8)

    def test_one_laguerre_table_per_rule(self):
        from negmoments import quadrature

        quadrature._laguerre_table.cache_clear()
        x, w = _gauss_rule(14, 0.5)
        for k in range(6):
            for l in range(6):
                row_k = [_laguerre_sequence(k, 0.0, xi)[k] for xi in x]
                row_l = [_laguerre_sequence(l, 0.0, xi)[l] for xi in x]
                expected = math.fsum([wi * a * b for wi, a, b in zip(w, row_k, row_l)])
                # Bit-identical to a fresh recurrence of just max(k, l) + 1 rows.
                assert laguerre_pair_integral_quadrature(k, l, 0.5, 14) == expected
        assert quadrature._laguerre_table.cache_info().misses == 1
        table = quadrature._laguerre_table(14, 0.5)
        assert len(table) == 13
        for k, row in enumerate(table):
            assert row == tuple(_laguerre_sequence(k, 0.0, xi)[k] for xi in x)
        with pytest.raises(TypeError):
            table[2][0] = 0.0  # the shared rows cannot be mutated


class TestOracleCanFail:
    """check_quadrature reports FAIL, never a traceback, when the routes disagree."""

    @pytest.fixture
    def cold_rules(self):
        from negmoments import quadrature

        quadrature._gauss_rule.cache_clear()
        quadrature._laguerre_table.cache_clear()
        yield quadrature
        quadrature._gauss_rule.cache_clear()
        quadrature._laguerre_table.cache_clear()

    def test_one_entry_off_by_1e_8(self, monkeypatch, capsys):
        from negmoments import cli, selfcheck

        honest = selfcheck.laguerre_pair_integral_quadrature

        def skewed(k, l, beta, nodes):
            return honest(k, l, beta, nodes) + (1e-8 if (k, l, beta) == (3, 5, 0.5) else 0.0)

        monkeypatch.setattr(selfcheck, "laguerre_pair_integral_quadrature", skewed)
        result = selfcheck.check_quadrature(6)
        assert not result.passed
        assert result.detail == "max |diff| = 1.000e-08 (k,l <= 6)"
        assert cli.main(["verify", "--max-mu", "6"]) == 1
        out = capsys.readouterr().out
        assert "quadrature oracle agreement      FAIL  max |diff| = 1.000e-08" in out
        assert out.endswith("7/8 suites passed\n")

    def test_newton_cap_reached(self, monkeypatch, capsys, cold_rules):
        from negmoments import cli, selfcheck

        monkeypatch.setattr(cold_rules, "_NEWTON_CAP", 1)
        with pytest.raises(cold_rules.NodeConvergenceError, match="within 1 Newton steps"):
            cold_rules._gauss_rule(12, 0.5)
        result = selfcheck.check_quadrature(4)
        assert not result.passed
        assert result.detail == "no new zero 1 of L_16^(0.0) within 1 Newton steps"
        assert cli.main(["verify", "--max-mu", "4"]) == 1
        out = capsys.readouterr().out
        assert "quadrature oracle agreement      FAIL  no new zero 1" in out
        assert out.endswith("7/8 suites passed\n")
