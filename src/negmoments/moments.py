"""Exact moment engine for the negativity of random bipartite pure states.

For an equal mu x mu bipartition the Schmidt-coefficient average of any
symmetric observable reduces, through the squared-Vandermonde eigenvalue
density and its Laguerre-basis expansion, to determinant sums over the pair
integral matrices

    A = [J(k, l, 1)]_{k,l < mu}     (integer tridiagonal)
    B = [J(k, l, 1/2)]_{k,l < mu}   (rational multiples of sqrt(pi)),

where J is laguerre.laguerre_pair_integral. Everything here is exact: the
mean is

    <N> = (1/(2 mu^2)) sum_{k,l} (B_kk B_ll - B_kl^2)

and, with P = mean_pair_product and C, D the triple and quad sums below
scaled by 1/(mu^2 (mu^2 + 1)), the variance is

    Var N = P/2 + C + D/4 - <N>^2.

Unrestricted index sums are used throughout: repeated indices duplicate
determinant rows and contribute exact zeros, so no distinct-index
bookkeeping is needed.

Both matrices obey the two-term recurrence

    (l+1) J(k, l+1) = (l-k-beta) J(k, l) + k J(k-1, l),

from J(0, 0) = Gamma(beta+1). A is an integer matrix, and B is dyadic:
B = C H C^T, with C the lower-triangular Toeplitz matrix of the
coefficients of (1-z)^(1/2) (c_0 = 1, c_m = -Catalan(m-1) / 2^(2m-1)) and
H_j = (2j+1) C(2j, j) / 2^(2j+1), so 2^(2k+2l+1) B_kl is an integer. One
row generator (_recurrence_rows) runs the recurrence on the upper triangle
in Python integers, for B on those integers and for A on A itself, each
step dividing exactly by 2 (l+1); entries are then shifted onto one common
denominator D, 2^(4 mu - 3) for B and 1 for A (_scale).
build_pair_integral_matrix stores every numerator, for verify and library
callers; the term sum in laguerre.py is its oracle.

Each determinant sum is evaluated by expanding its permutation sum into
power-sum traces,

    pair   : t1^2 - t2
    triple : a1 b1^2 - a1 tr(B^2) - 2 b1 tr(AB) + 2 tr(A B^2)
    quad   : b1^4 - 6 b1^2 b2 + 3 b2^2 + 8 b1 b3 - 6 b4,

on the integer numerators N = D M, each sum becoming a rational once, at
the end. No moment builds a matrix. For M = A or B the recurrence reads

    M Q - Q M + beta M = -E,   Q = Z - diag(0, .., mu-1), Z_{l+1,l} = l+1,

with E zero but for its last column, e_k = mu J(k, mu) (displacement rank
one: Kailath, Kung and Morf, J. Math. Anal. Appl. 68, 395 (1979)). Times
M^p and traced, the commutator drops out: the border identity

    2 beta tr(N^(p+1)) = -sum_k e2_k (N^p)_{k,mu-1},   e2_k = 2 D e_k,

with e2 read off N's last column (_rank_one_column). At p = 1 it gives t2;
at p = 2 it gives tr(B^3) from the last column of B^2, whose rows the same
generator yields (_square_sums). So the engine reads only the diagonal,
superdiagonal, row 0 and last column of A and B, from one cached generator
pass per (mu, beta) (_border): O(mu^2) integer steps, O(mu) integers kept.

Every moment is exact at every size, and every float in a MomentReport or
a TableRow is one exact sqrt(pi) polynomial (a normalized value is divided
by N_max = (mu - 1)/2 exactly, first) rounded once by exactring.eval_float
or eval_sqrt_float; there is no floating path to pick, to verify or to tune.
``normalized_moments(exact=True)`` (the CLI's ``moments --exact``) only caps
the size at EXACT_MODE_CEILING and raises ResourceCeilingError above it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import count
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .exactring import SqrtPiPolynomial, eval_float, eval_sqrt_float
from .exactring import _twice

__all__ = [
    "ResourceCeilingError",
    "PairIntegralMatrix",
    "MomentReport",
    "TableRow",
    "EXACT_MODE_CEILING",
    "build_pair_integral_matrix",
    "det_moment_sum",
    "mean_negativity",
    "mean_pair_product",
    "variance_negativity",
    "max_negativity",
    "normalized_moments",
    "generate_table",
    "extrapolate_limit",
]

#: Largest mu that normalized_moments(exact=True) (the CLI's moments --exact)
#: accepts. Larger sizes are still exact without it, and cost little more:
#: every moment keeps O(mu) border integers of A and B and runs O(mu^2)
#: integer steps, so moments --mu 256 takes about 0.2 s and table --n-max 22
#: (mu = 2048) a few seconds. The cap only keeps the option's documented limit.
EXACT_MODE_CEILING = 128

class ResourceCeilingError(RuntimeError):
    """Exact evaluation was forced beyond the configured size ceiling."""


class PairIntegralMatrix(NamedTuple):
    """Symmetric mu x mu matrix of exact Laguerre pair integrals.

    Every entry shares one sqrt(pi) grade (``power``). The coefficients are
    stored once, as integer ``numerators`` over one common ``denominator``;
    ``rows`` converts them to reduced rationals on each access.
    """

    mu: int
    beta_twice: int
    power: int
    numerators: tuple
    denominator: int

    @property
    def rows(self) -> tuple:
        den = self.denominator
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.numerators)

    def entry(self, k: int, l: int) -> SqrtPiPolynomial:
        return SqrtPiPolynomial({self.power: Fraction(self.numerators[k][l], self.denominator)})


def _dimension(mu) -> int:
    mu = operator.index(mu)
    if mu < 1:
        raise ValueError("dimension must be at least 1")
    return mu


def _weight_twice(beta) -> int:
    try:
        twice = _twice(beta)
    except ValueError:
        twice = None
    if twice not in (1, 2):
        raise ValueError("weight exponent must be 1/2 or 1")
    return twice


def _recurrence_rows(mu: int, beta_twice: int, shift: int, corner: int, r=(), s=()):
    """Row k of a symmetric integer matrix M from column k on, for k < mu, by

        2 (l+1) M_{k,l+1} = 2^shift (2 (l-k) - 2 beta) M_kl + 4^shift 2k M_{k-1,l} - r_k s_l

    from M_00 = corner (no rank-one term r s^T if r is empty). Row k starts
    from M_{k,k-1} = M_{k-1,k}; only the previous row is kept. Every
    division is exact for the matrices run here.
    """
    row = zeros = [0] * mu  # M_{-1,l} = 0
    r, s = r or zeros, s or zeros
    for k in range(mu):
        prev = row
        cur, row, first = (prev[1], [], k - 1) if k else (corner, [corner], 0)
        up, r_k = 2 * k << 2 * shift, r[k]
        coefs = count((2 * (first - k) - beta_twice) << shift, 2 << shift)  # from l = first on
        for c, d, above, s_l in zip(coefs, range(2 * first + 2, 2 * mu, 2), prev, s[first:]):
            cur = (c * cur + up * above - r_k * s_l) // d
            row.append(cur)
        yield row


def _scale(mu: int, beta_twice: int) -> tuple:
    """shift, a and D of the pair matrix of weight beta: the generator's rows,
    M_kl = 2^(shift (k+l) + e) J(k, l, beta) from M_00 = 1 (shift = e = 0 for
    A, shift = 2 and e = 1 for B), are shifted by a_k + a_l, a_i = shift
    (mu-1-i), onto D = 2^(2 shift (mu-1) + e). D comes first, so a huge mu
    fails before any row."""
    shift = 2 if beta_twice == 1 else 0
    denominator = 1 << (2 * shift * (mu - 1) + beta_twice % 2)
    return shift, [shift * (mu - 1 - i) for i in range(mu)], denominator


@lru_cache(maxsize=None)
def _build_matrix_cached(mu: int, beta_twice: int) -> PairIntegralMatrix:
    shift, a, denominator = _scale(mu, beta_twice)
    nums = [[0] * mu for _ in range(mu)]
    for k, row in enumerate(_recurrence_rows(mu, beta_twice, shift, 1)):
        for l, value in enumerate(row, start=k):
            nums[k][l] = nums[l][k] = value << (a[k] + a[l])
    return PairIntegralMatrix(mu, beta_twice, beta_twice % 2, tuple(map(tuple, nums)), denominator)


def build_pair_integral_matrix(mu: int, beta) -> PairIntegralMatrix:
    """Shared symmetric matrix of J(k, l, beta) for k, l < mu (cached)."""
    return _build_matrix_cached(_dimension(mu), _weight_twice(beta))


# ---------------------------------------------------------------------------
# determinant moment sums
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _border(mu: int, beta_twice: int) -> tuple:
    """The numerators N of the pair matrix of weight beta, as far as the
    engine reads them: diagonal, superdiagonal, row 0, last column, and
    their common denominator, in one pass of _recurrence_rows (cached)."""
    shift, a, denominator = _scale(mu, beta_twice)
    diag, superdiag, last = [], [], []
    for k, row in enumerate(_recurrence_rows(mu, beta_twice, shift, 1)):
        if not k:
            first = [x << (a[0] + a_l) for x, a_l in zip(row, a)]
        diag.append(row[0] << 2 * a[k])
        superdiag.extend(x << (a[k] + a[k + 1]) for x in row[1:2])
        last.append(row[-1] << (a[k] + a[-1]))
    return diag, superdiag, first, last, denominator


def _rank_one_column(last, beta_twice: int) -> list:
    # e2_k = 2 D mu J(k, mu) by the recurrence at l = mu-1, so no J(k, mu) is built
    mu = len(last)
    return [(2 * (mu - 1 - k) - beta_twice) * x + 2 * k * last[k - 1] for k, x in enumerate(last)]


def _band_overlap(a_diag, a_superdiag, diag, superdiag) -> int:
    # sum_ij A_ij M_ij for the tridiagonal A and a symmetric M, each given by
    # its diagonal and first superdiagonal
    return sum(map(mul, a_diag, diag)) + 2 * sum(map(mul, a_superdiag, superdiag))


@lru_cache(maxsize=None)
def _square_sums(mu: int) -> tuple:
    """Power sums of N = numerators of B(mu) that need X = N^2: the diagonal
    and superdiagonal of X, tr(N^3) and tr(N^4). By the displacement
    equation, B^2 Q - Q B^2 + 2 beta B^2 = -(BE + EB), so _recurrence_rows
    yields X row by row at shift 0 from X_00 = sum_m N_0m^2,

        2 (l+1) X_{k,l+1} = (2 (l-k) - 2) X_kl + 2k X_{k-1,l} - e2_k N_{mu-1,l}.

    Each row is folded into tr(N^4) = sum X_ij^2, and its last entry into
    tr(N^3) = -sum_k e2_k X_{k,mu-1} (the border identity at p = 2).
    """
    _, _, first, last, _ = _border(mu, 1)
    e2 = _rank_one_column(last, 1)
    diag, superdiag, t3, t4 = [], [], 0, 0
    for e2_k, row in zip(e2, _recurrence_rows(mu, 2, 0, sum(map(mul, first, first)), e2, last)):
        # row is X_{k,k..mu-1}; the strict upper part counts twice in tr(N^4)
        diag.append(row[0])
        superdiag.extend(row[1:2])
        t3 -= e2_k * row[-1]
        t4 += 2 * sum(map(mul, row, row)) - row[0] * row[0]
    return tuple(diag), tuple(superdiag), t3, t4


def _pair_trace(mu: int, beta_twice: int):
    # t1^2 - t2, with 2 beta t2 = -sum_k e2_k N_{k,mu-1} (the border identity at p = 1)
    diag, _, _, last, denominator = _border(mu, beta_twice)
    t1, t2 = sum(diag), -sum(map(mul, _rank_one_column(last, beta_twice), last)) // beta_twice
    return Fraction(t1 * t1 - t2, denominator**2)


def _triple_trace(mu: int):
    a_diag, a_superdiag, _, _, a_den = _border(mu, 2)
    b_diag, b_superdiag, _, _, b_den = _border(mu, 1)
    sq_diag, sq_superdiag, _, _ = _square_sums(mu)
    a1, b1, b2 = sum(a_diag), sum(b_diag), sum(sq_diag)
    ab = _band_overlap(a_diag, a_superdiag, b_diag, b_superdiag)
    ab2 = _band_overlap(a_diag, a_superdiag, sq_diag, sq_superdiag)
    num = a1 * b1 * b1 - a1 * b2 - 2 * b1 * ab + 2 * ab2
    return Fraction(num, a_den * b_den**2)


def _quad_trace(mu: int):
    b_diag, _, _, _, b_den = _border(mu, 1)
    sq_diag, _, t3, t4 = _square_sums(mu)
    b1, t2 = sum(b_diag), sum(sq_diag)
    num = b1**4 - 6 * b1 * b1 * t2 + 3 * t2 * t2 + 8 * b1 * t3 - 6 * t4
    return Fraction(num, b_den**4)


def det_moment_sum(mu: int, pattern: str, beta=None) -> SqrtPiPolynomial:
    """Unrestricted determinant moment sum over the pair integral matrices.

    pattern "pair" (requires beta in {1/2, 1}) sums 2x2 determinants of one
    matrix; "triple" sums the 3x3 determinants whose first column carries the
    integer weight and remaining columns the sqrt weight; "quad" sums the 4x4
    all-sqrt-weight determinants. Each sum is evaluated exactly by its
    power-sum expansion; selfcheck.naive_det_moment_sum evaluates every
    determinant explicitly and is the oracle it is checked against.
    """
    if pattern == "pair":
        if beta is None:
            raise ValueError("pair pattern requires beta")
        mu, twice = _dimension(mu), _weight_twice(beta)
        return SqrtPiPolynomial({2 * (twice % 2): _pair_trace(mu, twice)})
    if beta is not None:
        raise ValueError(f"{pattern} pattern does not take beta")
    if pattern == "triple":
        return SqrtPiPolynomial({2: _triple_trace(_dimension(mu))})
    if pattern == "quad":
        return SqrtPiPolynomial({4: _quad_trace(_dimension(mu))})
    raise ValueError(f"unknown pattern {pattern!r}")


# ---------------------------------------------------------------------------
# exact moments
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None, typed=True)
def mean_negativity(mu: int) -> SqrtPiPolynomial:
    """Exact Haar-average negativity of an equal mu x mu bipartition (cached).

    The cache is typed, so a float mu never finds the entry of an equal int
    and fails in operator.index.
    """
    mu = _dimension(mu)
    return det_moment_sum(mu, "pair", beta=Fraction(1, 2)) / (2 * mu * mu)


def mean_pair_product(mu: int) -> SqrtPiPolynomial:
    """Exact average of sum_{i != j} p_i p_j over the Schmidt simplex."""
    mu = _dimension(mu)
    return det_moment_sum(mu, "pair", beta=1) / (mu * mu * (mu * mu + 1))


def variance_negativity(mu: int) -> SqrtPiPolynomial:
    """Exact variance of the negativity: P/2 + C + D/4 - <N>^2.

    This is (<S^4> - <S^2>^2)/4 for S = sum_i sqrt(p_i): S^2 = 1 + 2N and
    S^4 = 1 + 4N + 2 sum_{i!=j} p_i p_j + 4C + D, where C and D sum
    p_i sqrt(p_j p_k) and sqrt(p_i p_j p_k p_l) over distinct indices.
    """
    mean = mean_negativity(mu)
    deg2 = Fraction(1, mu * mu * (mu * mu + 1))
    c_and_d = (det_moment_sum(mu, "triple") + det_moment_sum(mu, "quad") / 4) * deg2
    return mean_pair_product(mu) / 2 + c_and_d - mean * mean


def max_negativity(mu: int):
    """Largest negativity attainable on a mu x mu bipartition, (mu-1)/2."""
    return Fraction(_dimension(mu) - 1, 2)


# ---------------------------------------------------------------------------
# reports and the ratio table
# ---------------------------------------------------------------------------


class MomentReport(NamedTuple):
    """Exact moments for one bipartition size and their float values."""

    mu: int
    mean_exact: SqrtPiPolynomial
    variance_exact: SqrtPiPolynomial
    mean_float: float
    sigma_float: float
    mean_normalized: float
    sigma_normalized: float
    n_max: object  # rational (mu - 1) / 2


class TableRow(NamedTuple):
    """One row of the normalized-mean convergence table."""

    n_qubits: int
    mu: int
    ratio: float
    delta: float | None


def normalized_moments(mu: int, *, exact: bool = False) -> MomentReport:
    """Exact mean and standard deviation, absolute and divided by (mu-1)/2.

    Both moments are always computed exactly; each float is rounded once
    from its exact value. exact=True adds a size cap: ResourceCeilingError
    when mu exceeds EXACT_MODE_CEILING.
    """
    mu = operator.index(mu)
    if mu < 2:
        raise ValueError("normalized moments need mu >= 2")
    if exact and mu > EXACT_MODE_CEILING:
        raise ResourceCeilingError(f"exact mode limited to mu <= {EXACT_MODE_CEILING} (requested {mu})")
    n_max = max_negativity(mu)
    mean_exact = mean_negativity(mu)
    variance_exact = variance_negativity(mu)
    return MomentReport(
        mu=mu,
        mean_exact=mean_exact,
        variance_exact=variance_exact,
        mean_float=eval_float(mean_exact),
        sigma_float=eval_sqrt_float(variance_exact),
        mean_normalized=eval_float(mean_exact / n_max),
        sigma_normalized=eval_sqrt_float(variance_exact / (n_max * n_max)),
        n_max=n_max,
    )


def generate_table(n_list: Iterable[int]) -> list[TableRow]:
    """Exact normalized-mean rows for the given even qubit counts, with deltas."""
    rows: list[TableRow] = []
    previous = None
    for n in n_list:
        if n < 2 or n % 2:
            raise ValueError("qubit counts must be even and at least 2")
        mu = 2 ** (n // 2)
        ratio = eval_float(mean_negativity(mu) / max_negativity(mu))
        delta = None if previous is None else ratio - previous
        rows.append(TableRow(n_qubits=n, mu=mu, ratio=ratio, delta=delta))
        previous = ratio
    return rows


def extrapolate_limit(rows: Sequence[TableRow]) -> float:
    """Geometric-tail estimate of the large-size normalized-mean limit.

    With deltas decaying by a roughly constant factor r per row, the missing
    tail past the last row sums to delta_last * r / (1 - r); r is estimated
    from the most recent successive delta ratios.
    """
    if len(rows) < 3:
        raise ValueError("extrapolation needs at least three rows")
    deltas = [row.delta for row in rows[1:]]
    if any(d is None or d <= 0 for d in deltas):
        raise ValueError("rows must carry positive deltas")
    ratios = [d2 / d1 for d1, d2 in zip(deltas, deltas[1:])]
    tail = ratios[-3:]
    r = sum(tail) / len(tail)
    if not 0.0 < r < 1.0:
        raise ValueError(f"delta ratios do not contract (r={r})")
    return rows[-1].ratio + deltas[-1] * r / (1.0 - r)
