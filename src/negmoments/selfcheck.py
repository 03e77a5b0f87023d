"""Internal identity suites behind the ``verify`` command.

Each suite compares two routes; what each side runs:

- symmetry: the term sum (laguerre.laguerre_pair_integral) at (k, l) and
  (l, k), and the term sum against the recurrence-built matrices of
  moments.build_pair_integral_matrix.
- orthonormality and tridiagonal form: the term sum alone, against the
  known weight-0 and weight-1 values.
- 3F2 re-derivation: the hypergeometric closed form against the term sum.
- quadrature: a Gauss-Laguerre rule against the term sum.
- naive vs trace: every small determinant of the recurrence matrices
  (naive_det_moment_sum, below) against the power-sum trace expansion of
  moments.det_moment_sum at mu <= 8; the triple and quad sums against the
  same expansions on B = C H C^T and the closed form of A.
- pair sum trace identity: det_moment_sum's pair sums against the
  factorisation B = C H C^T (weight 1/2) and the closed form
  mu^2 (mu-1)^2 (weight 1); neither route touches the recurrence or the
  term sum.
- variance identity: variance_negativity against its assembly from the
  closed-form pair product and the pair, triple and quad sums on
  C H C^T; no term comes from det_moment_sum.

The last three suites read one cached evaluation of C H C^T per size
(_factored_sums), at mu in {1, 2, 3, max(4, m // 2), m} up to m; run_all
caps m at 32.

The naive oracle, naive_det_moment_sum, lives here rather than in the
moment engine: it evaluates every small determinant of every ordered index
tuple explicitly, on the integer numerators of the pair matrices, and
divides by the common denominators once at the end. The 2x2 and 3x3
determinants are written out; each 4x4 one is the Laplace expansion along
its first two rows, six products of 2x2 minors read from a table of every
row pair's minors (mu^4 entries, built once). It is O(mu^4) and meant for
small mu only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .exactring import SqrtPiPolynomial, eval_float
from .laguerre import laguerre_pair_integral, laguerre_pair_integral_hyp3f2
from .moments import build_pair_integral_matrix, det_moment_sum, variance_negativity
from .quadrature import NodeConvergenceError, laguerre_pair_integral_quadrature

__all__ = ["CheckResult", "naive_det_moment_sum", "run_all"]

_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# naive determinant oracle
# ---------------------------------------------------------------------------


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _naive_pair(rows):
    total = 0
    n = len(rows)
    for k in range(n):
        for l in range(n):
            total += rows[k][k] * rows[l][l] - rows[k][l] * rows[l][k]
    return total


def _naive_triple(a_rows, b_rows):
    total = 0
    n = len(a_rows)
    for k in range(n):
        for l in range(n):
            for m_ in range(n):
                total += _det3([[a_rows[r][k], b_rows[r][l], b_rows[r][m_]] for r in (k, l, m_)])
    return total


def _naive_quad(b_rows):
    # Each 4x4 determinant by its Laplace expansion along the first two rows:
    # a 2x2 minor of rows (k, l) times the complementary minor of rows
    # (m, p). minors[r][s][c][d] is the minor of rows (r, s) and columns
    # (c, d), tabulated once for every row pair; the columns are (k, l, m, p).
    n = len(b_rows)
    minors = [
        [[[x * row_s[d] - row_r[d] * y for d in range(n)] for x, y in zip(row_r, row_s)] for row_s in b_rows]
        for row_r in b_rows
    ]
    total = 0
    for k in range(n):
        for l in range(n):
            top = minors[k][l]
            top_k, top_l = top[k], top[l]
            for m_ in range(n):
                top_m = top[m_]
                for p in range(n):
                    low = minors[m_][p]
                    total += (
                        top_k[l] * low[m_][p]
                        - top_k[m_] * low[l][p]
                        + top_k[p] * low[l][m_]
                        + top_l[m_] * low[k][p]
                        - top_l[p] * low[k][m_]
                        + top_m[p] * low[k][l]
                    )
    return total


def naive_det_moment_sum(mu: int, pattern: str, beta=None) -> SqrtPiPolynomial:
    """moments.det_moment_sum by explicit determinants: the correctness oracle.

    Same patterns and arguments as det_moment_sum. Every ordered index tuple
    is visited, repeated indices included. The determinants are taken of
    integer numerators, so a 2x2 sum of one matrix carries D^2, the triple
    sum D_a D_b^2 and the quad sum D_b^4, where D_a and D_b are the common
    denominators of the weight-1 and weight-1/2 matrices; each sum is
    divided by its factor once, at the end.
    """
    if pattern == "pair":
        if beta is None:
            raise ValueError("pair pattern requires beta")
        mat = build_pair_integral_matrix(mu, beta)
        coeff = Fraction(_naive_pair(mat.numerators), mat.denominator**2)
        return SqrtPiPolynomial({2 * mat.power: coeff})
    if beta is not None:
        raise ValueError(f"{pattern} pattern does not take beta")
    if pattern not in ("triple", "quad"):
        raise ValueError(f"unknown pattern {pattern!r}")
    b = build_pair_integral_matrix(mu, _HALF)
    if pattern == "triple":
        a = build_pair_integral_matrix(mu, 1)
        coeff = Fraction(_naive_triple(a.numerators, b.numerators), a.denominator * b.denominator**2)
        return SqrtPiPolynomial({2: coeff})
    return SqrtPiPolynomial({4: Fraction(_naive_quad(b.numerators), b.denominator**4)})


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------


class CheckResult(NamedTuple):
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
            if value != expected:
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
            if value != expected:
                return CheckResult("weight-1 tridiagonal form", False, f"J({k},{l},1) = {value}")
    return CheckResult("weight-1 tridiagonal form", True, f"k,l <= {max_index}")


def check_hyp3f2(max_index: int) -> CheckResult:
    for k in range(max_index + 1):
        for l in range(max_index + 1):
            if laguerre_pair_integral_hyp3f2(k, l) != laguerre_pair_integral(k, l, _HALF):
                return CheckResult("3F2 re-derivation", False, f"mismatch at ({k},{l})")
    return CheckResult("3F2 re-derivation", True, f"k,l <= {max_index}")


def check_quadrature(max_index: int) -> CheckResult:
    """Every (k, l, beta) on one Gauss rule per beta, exact to degree 4 max_index + 15."""
    name = "quadrature oracle agreement"
    nodes = 2 * max_index + 8
    worst = 0.0
    try:
        for k in range(max_index + 1):
            for l in range(max_index + 1):
                for beta in (0, _HALF, 1):
                    exact = eval_float(laguerre_pair_integral(k, l, beta))
                    approx = laguerre_pair_integral_quadrature(k, l, float(beta), nodes)
                    worst = max(worst, abs(exact - approx))
    except NodeConvergenceError as exc:
        return CheckResult(name, False, str(exc))
    return CheckResult(name, worst < 1e-9, f"max |diff| = {worst:.3e} (k,l <= {max_index})")


def check_naive_vs_trace(max_mu: int) -> CheckResult:
    """Every determinant sum against the naive oracle at mu <= 8, where that
    O(mu^4) oracle is affordable, and the triple and quad sums, which carry
    tr B^3 and tr B^4, against their power-sum expansions on B = C H C^T
    (_factored_sums) at up to five sizes, none above max_mu."""
    name = "naive vs trace determinant sums"
    patterns = [("pair", {"beta": _HALF}), ("pair", {"beta": 1}), ("triple", {}), ("quad", {})]
    naive_max = min(max_mu, 8)
    for mu in range(1, naive_max + 1):
        for pattern, kwargs in patterns:
            naive = naive_det_moment_sum(mu, pattern, **kwargs)
            trace = det_moment_sum(mu, pattern, **kwargs)
            if naive != trace:
                return CheckResult(name, False, f"{pattern} differs at mu={mu}")
    sizes = _factored_sizes(max_mu)
    for mu in sizes:
        _, triple, quad = _factored_sums(mu)
        for pattern, degree, value in (("triple", 2, triple), ("quad", 4, quad)):
            if det_moment_sum(mu, pattern) != SqrtPiPolynomial({degree: value}):
                return CheckResult(name, False, f"{pattern} differs from C H C^T at mu={mu}")
    factored = ", ".join(map(str, sizes))
    return CheckResult(name, True, f"naive mu <= {naive_max}; triple, quad on C H C^T at mu in {{{factored}}}")


def _factored_sizes(max_mu: int) -> list[int]:
    """The sizes at which the three suites on C H C^T check, none above max_mu."""
    return sorted(mu for mu in {1, 2, 3, max(4, max_mu // 2), max_mu} if mu <= max_mu)


@lru_cache(maxsize=None)
def _factored_sums(mu: int) -> tuple[Fraction, Fraction, Fraction]:
    """The weight-1/2 pair, triple and quad sums of moments.det_moment_sum, as
    coefficients of pi, pi and pi^2, by the same power-sum expansions on
    other matrices (cached: three suites read it).

    B / sqrt(pi) = C H C^T, with C the lower-triangular Toeplitz matrix of
    the coefficients c_m of (1-z)^(1/2) and H_j = (2j+1) C(2j, j) / 2^(2j+1).
    c_m is held as an integer over 4^(mu-1) and H_j over 2^(2 mu - 1), so B
    is built entry by entry as an integer matrix over 2^(6 mu - 5) and
    squared in full. A is its closed tridiagonal form, 2k + 1 on the
    diagonal and -(k+1) at (k, k+1). Neither matrix comes from the
    recurrence or the term sum.
    """
    c = [1 << 2 * (mu - 1)]
    for m in range(1, mu):
        c.append(c[-1] * (2 * m - 3) // (2 * m))
    h = [(2 * j + 1) * math.comb(2 * j, j) << 2 * (mu - 1 - j) for j in range(mu)]
    ch = [[c[k - m] * h[m] for m in range(k + 1)] for k in range(mu)]  # row k of C H
    b = [[0] * mu for _ in range(mu)]
    for k in range(mu):
        for l in range(k, mu):
            b[k][l] = b[l][k] = sum(map(mul, ch[k], reversed(c[l - k : l + 1])))
    b_sq = [[sum(map(mul, row, col)) for col in b] for row in b]  # B is symmetric

    def a_overlap(m) -> int:  # sum_kl A_kl M_kl for a symmetric M
        return sum((2 * k + 1) * m[k][k] for k in range(mu)) - 2 * sum((k + 1) * m[k][k + 1] for k in range(mu - 1))

    b1 = sum(b[k][k] for k in range(mu))
    b2 = sum(b_sq[k][k] for k in range(mu))
    b3 = sum(sum(map(mul, x, y)) for x, y in zip(b_sq, b))
    b4 = sum(sum(map(mul, x, x)) for x in b_sq)
    a1 = mu * mu
    triple = a1 * b1 * b1 - a1 * b2 - 2 * b1 * a_overlap(b) + 2 * a_overlap(b_sq)
    quad = b1**4 - 6 * b1 * b1 * b2 + 3 * b2 * b2 + 8 * b1 * b3 - 6 * b4
    den = 1 << (6 * mu - 5)
    return Fraction(b1 * b1 - b2, den**2), Fraction(triple, den**2), Fraction(quad, den**4)


def check_pair_trace_identity(max_mu: int) -> CheckResult:
    """Both pair sums against routes that share no code with the matrix builder.

    Weight 1/2: the factorisation B = C H C^T (_factored_sums). Weight 1:
    the closed form mu^2 (mu-1)^2, which is mu^2 (mu^2+1) times Lubkin's
    <sum_{i!=j} p_i p_j> = (mu-1)^2/(mu^2+1).
    """
    for mu in _factored_sizes(max_mu):
        routes = {_HALF: {2: _factored_sums(mu)[0]}, 1: {0: mu * mu * (mu - 1) ** 2}}
        for beta, coeffs in routes.items():
            if det_moment_sum(mu, "pair", beta=beta) != SqrtPiPolynomial(coeffs):
                return CheckResult("pair sum trace identity", False, f"mu={mu} beta={beta}")
    return CheckResult("pair sum trace identity", True, f"mu <= {max_mu}")


def check_variance_identity(max_mu: int) -> CheckResult:
    """variance_negativity against P/2 + C + D/4 - <N>^2, each term from
    routes that share no code with the moment engine.

    P = <sum_{i!=j} p_i p_j> = 1 - <purity> = (mu-1)^2/(mu^2+1) (Lubkin,
    J. Math. Phys. 19, 1028, 1978) stands in for the weight-1 pair sum.
    C + D/4 = (triple + quad/4) / (mu^2 (mu^2+1)) and <N> = pi pair / (2 mu^2)
    take their sums from C H C^T (_factored_sums).
    """
    for mu in _factored_sizes(max_mu):
        pair, triple, quad = _factored_sums(mu)
        deg2 = mu * mu * (mu * mu + 1)
        mean = pair / (2 * mu * mu)
        terms = {0: Fraction((mu - 1) ** 2, 2 * (mu * mu + 1)), 2: triple / deg2, 4: quad / (4 * deg2) - mean * mean}
        if variance_negativity(mu) != SqrtPiPolynomial(terms):
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
        check_naive_vs_trace(min(max_mu, 32)),
        check_pair_trace_identity(min(max_mu, 32)),
        check_variance_identity(min(max_mu, 32)),
    ]
