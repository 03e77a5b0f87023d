"""Internal identity suites behind the ``verify`` command.

Each check exercises one structural invariant of the exact engine against
an independent route: symmetry of the asymmetric term sum and its agreement
with the recurrence-built pair matrices, orthonormality
and tridiagonality at integer weights, the hypergeometric re-derivation,
Gauss quadrature, and the naive determinant oracle against the trace
expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactring import eval_float
from .laguerre import laguerre_pair_integral, laguerre_pair_integral_hyp3f2
from .moments import (
    build_pair_integral_matrix,
    det_moment_sum,
    fourth_moment,
    sqrt_sum_second_moment,
    variance_negativity,
)
from .quadrature import laguerre_pair_integral_quadrature

__all__ = ["CheckResult", "run_all"]

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_symmetry(max_index: int) -> CheckResult:
    """Term sum symmetric in (k, l) and equal to the recurrence-built matrices."""
    name = "pair-integral symmetry"
    matrices = {beta: build_pair_integral_matrix(max_index + 1, beta) for beta in (_HALF, 1)}
    for k in range(max_index + 1):
        for l in range(k, max_index + 1):
            for beta in (0, _HALF, 1):
                value = laguerre_pair_integral(k, l, beta)
                if l > k and value != laguerre_pair_integral(l, k, beta):
                    return CheckResult(name, False, f"J({k},{l}) != J({l},{k}) at beta={beta}")
                mat = matrices.get(beta)
                if mat is not None and not mat.entry(k, l) == value == mat.entry(l, k):
                    return CheckResult(name, False, f"recurrence differs from term sum at ({k},{l}), beta={beta}")
    return CheckResult(name, True, f"k,l <= {max_index}, beta in {{0, 1/2, 1}}; recurrence matrices match")


def check_orthonormality(max_index: int) -> CheckResult:
    for k in range(max_index + 1):
        for l in range(max_index + 1):
            value = laguerre_pair_integral(k, l, 0)
            expected = 1 if k == l else 0
            if value.power != 0 or value.coeff != expected:
                return CheckResult("weight-0 orthonormality", False, f"J({k},{l},0) = {value}")
    return CheckResult("weight-0 orthonormality", True, f"k,l <= {max_index}")


def check_tridiagonal(max_index: int) -> CheckResult:
    for k in range(max_index + 1):
        for l in range(max_index + 1):
            value = laguerre_pair_integral(k, l, 1)
            if abs(k - l) >= 2:
                expected = 0
            elif k == l:
                expected = 2 * k + 1
            else:
                expected = -(max(k, l))
            if value.power != 0 or value.coeff != expected:
                return CheckResult("weight-1 tridiagonal form", False, f"J({k},{l},1) = {value}")
    return CheckResult("weight-1 tridiagonal form", True, f"k,l <= {max_index}")


def check_hyp3f2(max_index: int) -> CheckResult:
    for k in range(max_index + 1):
        for l in range(max_index + 1):
            if laguerre_pair_integral_hyp3f2(k, l) != laguerre_pair_integral(k, l, _HALF):
                return CheckResult("3F2 re-derivation", False, f"mismatch at ({k},{l})")
    return CheckResult("3F2 re-derivation", True, f"k,l <= {max_index}")


def check_quadrature(max_index: int, tolerance: float = 1e-9) -> CheckResult:
    worst = 0.0
    for k in range(max_index + 1):
        for l in range(max_index + 1):
            for beta in (0, _HALF, 1):
                exact = eval_float(laguerre_pair_integral(k, l, beta).to_polynomial())
                approx = laguerre_pair_integral_quadrature(k, l, float(beta), k + l + 8)
                worst = max(worst, abs(exact - approx))
    passed = worst < tolerance
    return CheckResult("quadrature oracle agreement", passed, f"max |diff| = {worst:.3e} (k,l <= {max_index})")


def check_naive_vs_trace(max_mu: int) -> CheckResult:
    patterns = [("pair", {"beta": _HALF}), ("pair", {"beta": 1}), ("triple", {}), ("quad", {})]
    for mu in range(1, max_mu + 1):
        for pattern, kwargs in patterns:
            naive = det_moment_sum(mu, pattern, method="naive", **kwargs)
            trace = det_moment_sum(mu, pattern, method="trace", **kwargs)
            if naive != trace:
                return CheckResult("naive vs trace determinant sums", False, f"{pattern} differs at mu={mu}")
    return CheckResult("naive vs trace determinant sums", True, f"mu <= {max_mu}")


def check_pair_trace_identity(max_mu: int) -> CheckResult:
    for mu in (1, 2, 3, max(4, max_mu // 2), max_mu):
        for beta in (_HALF, 1):
            mat = build_pair_integral_matrix(mu, beta)
            rows = mat.rows
            t1 = sum(rows[i][i] for i in range(mu))
            t2 = sum(rows[i][j] * rows[i][j] for i in range(mu) for j in range(mu))
            expected = det_moment_sum(mu, "pair", beta=beta)
            if expected.coefficient(2 * mat.power) != t1 * t1 - t2:
                return CheckResult("pair sum trace identity", False, f"mu={mu} beta={beta}")
    return CheckResult("pair sum trace identity", True, f"mu <= {max_mu}")


def check_variance_identity(max_mu: int) -> CheckResult:
    for mu in sorted({1, 2, 3, 4, max(2, max_mu // 2), max_mu}):
        s2 = sqrt_sum_second_moment(mu)
        if 4 * variance_negativity(mu) + s2 * s2 != fourth_moment(mu):
            return CheckResult("variance moment identity", False, f"mu={mu}")
    return CheckResult("variance moment identity", True, f"mu <= {max_mu}")


def run_all(max_mu: int = 16) -> list[CheckResult]:
    """Run every invariant suite sized by max_mu; order is fixed."""
    if max_mu < 2:
        raise ValueError("max_mu must be at least 2")
    return [
        check_symmetry(min(max_mu, 64)),
        check_orthonormality(min(max_mu, 64)),
        check_tridiagonal(min(max_mu, 64)),
        check_hyp3f2(min(max_mu, 32)),
        check_quadrature(min(max_mu, 20)),
        check_naive_vs_trace(min(max_mu, 8)),
        check_pair_trace_identity(min(max_mu, 32)),
        check_variance_identity(min(max_mu, 64)),
    ]
