import itertools
import math
import random
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negmoments import moments
from negmoments.exactring import SqrtPiPolynomial, eval_float
from negmoments.laguerre import laguerre_pair_integral
from negmoments.moments import (
    EXACT_MODE_CEILING,
    ResourceCeilingError,
    TableRow,
    build_pair_integral_matrix,
    det_moment_sum,
    extrapolate_limit,
    generate_table,
    max_negativity,
    mean_negativity,
    mean_pair_product,
    normalized_moments,
    variance_negativity,
)
from negmoments.selfcheck import _naive_quad, check_variance_identity, naive_det_moment_sum

HALF = Fraction(1, 2)


def poly(coeffs):
    return SqrtPiPolynomial({d: Fraction(v) for d, v in coeffs.items()})


def fourth_moment(mu):
    """<(sum_i sqrt(p_i))^4> = 4 Var N + (1 + 2 <N>)^2."""
    s2 = 1 + 2 * mean_negativity(mu)
    return 4 * variance_negativity(mu) + s2 * s2


class TestPairIntegralMatrix:
    def test_entries_match_integrals(self):
        from negmoments.laguerre import laguerre_pair_integral

        for beta in (HALF, 1):
            mat = build_pair_integral_matrix(5, beta)
            for k in range(5):
                for l in range(5):
                    assert mat.entry(k, l) == laguerre_pair_integral(k, l, beta)

    def test_worked_matrices(self):
        mat = build_pair_integral_matrix(2, HALF)
        assert mat.power == 1
        assert [[Fraction(x) for x in row] for row in mat.rows] == [
            [Fraction(1, 2), Fraction(-1, 4)],
            [Fraction(-1, 4), Fraction(7, 8)],
        ]
        mat1 = build_pair_integral_matrix(2, 1)
        assert mat1.power == 0
        assert [[Fraction(x) for x in row] for row in mat1.rows] == [[1, -1], [-1, 3]]
        single = build_pair_integral_matrix(1, HALF)
        assert single.rows == ((Fraction(1, 2),),)

    def test_symmetry(self):
        mat = build_pair_integral_matrix(9, HALF)
        for k in range(9):
            for l in range(9):
                assert mat.rows[k][l] == mat.rows[l][k]

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(0, 39), l=st.integers(0, 39), beta=st.sampled_from([HALF, 1]))
    def test_recurrence_matches_term_sum(self, k, l, beta):
        mat = build_pair_integral_matrix(40, beta)
        assert mat.entry(k, l) == laguerre_pair_integral(k, l, beta)

    def test_verify_suite_catches_a_wrong_entry(self, monkeypatch):
        from negmoments import selfcheck

        def corrupted(mu, beta):
            mat = build_pair_integral_matrix(mu, beta)
            nums = [list(row) for row in mat.numerators]
            nums[2][3] += 1
            return mat._replace(numerators=tuple(map(tuple, nums)))

        monkeypatch.setattr(selfcheck, "build_pair_integral_matrix", corrupted)
        result = selfcheck.check_symmetry(4)
        assert result.name == "pair-integral symmetry"
        assert not result.passed and "(2,3)" in result.detail

    def test_validation(self):
        with pytest.raises(ValueError):
            build_pair_integral_matrix(0, HALF)
        with pytest.raises(ValueError):
            build_pair_integral_matrix(3, Fraction(1, 3))

    @pytest.mark.parametrize(
        "beta,twice", [(HALF, 1), (0.5, 1), ("1/2", 1), (np.float64(0.5), 1), (1, 2), (1.0, 2), (np.int64(1), 2)]
    )
    def test_weight_spellings(self, beta, twice):
        assert build_pair_integral_matrix(3, beta).beta_twice == twice

    @pytest.mark.parametrize("beta", [0, 2, -1, Fraction(3, 2), 0.3, 0.25, "abc"])
    def test_other_weights_rejected(self, beta):
        with pytest.raises(ValueError, match="^weight exponent must be 1/2 or 1$"):
            build_pair_integral_matrix(3, beta)


class TestDyadicKernel:
    """B(mu) has power-of-two denominators. One generator, _recurrence_rows,
    runs the recurrence for B on its scaled integers and for X = N^2."""

    @staticmethod
    def square_sums_reference(mu):
        # Every entry of N^2 in full, then the power sums _square_sums returns.
        n = build_pair_integral_matrix(mu, HALF).numerators
        sq = [[sum(n[i][k] * n[k][j] for k in range(mu)) for j in range(mu)] for i in range(mu)]
        diag = tuple(sq[i][i] for i in range(mu))
        superdiag = tuple(sq[i][i + 1] for i in range(mu - 1))
        t3 = sum(sq[i][j] * n[j][i] for i in range(mu) for j in range(mu))
        t4 = sum(sq[i][j] * sq[j][i] for i in range(mu) for j in range(mu))
        return diag, superdiag, t3, t4

    @pytest.mark.parametrize("mu", [*range(1, 41), 64, 96, 128])
    def test_square_sums_match_plain_products(self, mu):
        from negmoments.moments import _square_sums

        assert _square_sums(mu) == self.square_sums_reference(mu)

    def test_rank_one_term_is_the_next_column(self):
        # _rank_one_column reads e_k = mu J(k, mu) off the last column of the
        # numerators N through the recurrence at l = mu-1, as e2_k = 2 D e_k.
        # The mu + 1 matrix holds J(k, mu) itself.
        from negmoments.moments import _build_matrix_cached, _rank_one_column

        for beta_twice in (1, 2):
            for mu in range(1, 65):
                mat = _build_matrix_cached(mu, beta_twice)
                big = _build_matrix_cached(mu + 1, beta_twice).rows
                e2 = _rank_one_column([row[mu - 1] for row in mat.numerators], beta_twice)
                assert e2 == [2 * mat.denominator * mu * big[k][mu] for k in range(mu)], (beta_twice, mu)

    def test_one_generator_runs_b_and_its_square(self, monkeypatch):
        # With one step of _recurrence_rows one unit off, both the builder
        # and _square_sums go wrong: neither runs a recurrence of its own.
        from negmoments.moments import _build_matrix_cached, _square_sums

        mu = 8
        correct = build_pair_integral_matrix(mu, HALF)  # cached before the patch
        reference = self.square_sums_reference(mu)
        term_sum = tuple(tuple(laguerre_pair_integral(k, l, HALF).coefficient(1) for l in range(mu)) for k in range(mu))
        assert correct.rows == term_sum
        generator = moments._recurrence_rows

        def off_by_one(*args):
            for k, row in enumerate(generator(*args)):
                if k == 2:
                    row[1] += 1  # M_23, which the next row's steps read
                yield row

        monkeypatch.setattr(moments, "_recurrence_rows", off_by_one)
        assert _build_matrix_cached.__wrapped__(mu, 1).rows != term_sum
        assert moments._border.__wrapped__(mu, 1)[0] != [correct.numerators[k][k] for k in range(mu)]
        assert build_pair_integral_matrix(mu, HALF) is correct
        assert _square_sums.__wrapped__(mu) != reference

    @pytest.mark.parametrize("beta_twice", [1, 2])
    def test_builder_matches_the_factorial_scale(self, beta_twice):
        # The recurrence on integers scaled by 4^128 (127!)^2, a multiple of
        # every denominator by the term sum, which shares no scale with the
        # builder. J(k, l) does not depend on mu, so B(mu) and A(mu) are the
        # leading blocks of the mu = 128 matrix.
        from negmoments.moments import _build_matrix_cached

        top = 128
        scale = 4**top * math.factorial(top - 1) ** 2
        ref = [[0] * top for _ in range(top)]
        ref[0][0] = scale // 2 if beta_twice == 1 else scale  # Gamma(beta + 1) / sqrt(pi)^power
        for k in range(top):
            for l in range(max(k - 1, 0), top - 1):  # from J(k, k-1) = J(k-1, k)
                num = (2 * (l - k) - beta_twice) * ref[k][l] + (2 * k * ref[k - 1][l] if k else 0)
                assert num % (2 * (l + 1)) == 0
                ref[k][l + 1] = ref[l + 1][k] = num // (2 * (l + 1))
        ref = [[Fraction(x, scale) for x in row] for row in ref]
        for mu in range(1, top + 1):
            rows = _build_matrix_cached.__wrapped__(mu, beta_twice).rows
            assert rows == tuple(tuple(row[:mu]) for row in ref[:mu]), mu

    def test_denominators_are_powers_of_two_and_the_split_is_tight(self):
        # B is stored over 2^(4 mu - 3) = 2^(a_k + a_l + 2k + 2l + 1), with
        # a_i = 2 (mu-1-i). So 2^(a_k + a_l) divides the numerator N_kl
        # exactly when 2^(2k+2l+1) B_kl is an integer; the generator runs B
        # on those integers. A is integral.
        from negmoments.moments import _build_matrix_cached

        for mu in range(1, 129):
            assert _build_matrix_cached.__wrapped__(mu, 2).denominator == 1, mu
            b = _build_matrix_cached.__wrapped__(mu, 1)
            assert b.denominator == 1 << (4 * mu - 3), mu
            a = [2 * (mu - 1 - i) for i in range(mu)]
            assert all(x % (1 << (a[k] + a[l])) == 0 for k, row in enumerate(b.numerators) for l, x in enumerate(row)), mu

    @pytest.mark.parametrize("mu", [3, 8, 24, 64])
    def test_b_factors_as_c_h_ct(self, mu):
        # C: lower-triangular Toeplitz matrix of the coefficients of
        # (1-z)^(1/2); H_j = Gamma(j+3/2) / (j! sqrt(pi)).
        c = [Fraction(1)] + [Fraction(-(math.comb(2 * m - 2, m - 1) // m), 2 ** (2 * m - 1)) for m in range(1, mu)]
        h = [Fraction((2 * j + 1) * math.comb(2 * j, j), 2 ** (2 * j + 1)) for j in range(mu)]
        rows = build_pair_integral_matrix(mu, HALF).rows
        for k in range(mu):
            for l in range(k + 1):
                assert rows[k][l] == sum(c[k - j] * c[l - j] * h[j] for j in range(l + 1)), (k, l)


class TestBorderIdentity:
    """B Q - Q B + beta B = -E (TestDyadicKernel) times B^p, traced: the
    commutator term has trace zero, so on the numerators N over D

        2 beta tr(N^(p+1)) = -sum_k e2_k (N^p)_{k,mu-1},   e2_k = 2 D mu J(k, mu).

    The same holds for A (beta = 1, D = 1). The moment engine rests on it:
    it reads only the band, row 0 and the last column of each matrix."""

    @pytest.mark.parametrize("beta_twice", [1, 2])
    def test_identity_on_plain_products(self, beta_twice):
        beta = Fraction(beta_twice, 2)
        for mu in range(1, 41):
            mat = build_pair_integral_matrix(mu, beta)
            n, den = mat.numerators, mat.denominator
            big = build_pair_integral_matrix(mu + 1, beta).rows  # J(k, mu) itself
            e2 = [2 * den * mu * big[k][mu] for k in range(mu)]
            assert all(x.denominator == 1 for x in e2)
            sq = [[sum(map(mul, row, col)) for col in n] for row in n]  # N is symmetric
            traces = [
                sum(n[i][i] for i in range(mu)),
                sum(sq[i][i] for i in range(mu)),
                sum(sum(map(mul, x, y)) for x, y in zip(sq, n)),
                sum(sum(map(mul, x, x)) for x in sq),
            ]
            column = [int(k == mu - 1) for k in range(mu)]  # (N^p)_{k,mu-1} from p = 0 on
            for p, trace in enumerate(traces):
                assert beta_twice * trace == -sum(map(mul, e2, column)), (mu, p)
                column = [sum(map(mul, row, column)) for row in n]

    @pytest.mark.parametrize("beta_twice", [1, 2])
    def test_border_is_the_matrix_border(self, beta_twice):
        for mu in [*range(1, 41), 64]:
            mat = build_pair_integral_matrix(mu, Fraction(beta_twice, 2))
            n = mat.numerators
            diag, superdiag, first, last, den = moments._border.__wrapped__(mu, beta_twice)
            assert diag == [n[k][k] for k in range(mu)]
            assert superdiag == [n[k][k + 1] for k in range(mu - 1)]
            assert first == list(n[0]) and last == [row[mu - 1] for row in n]
            assert den == mat.denominator


def _cold_caches():
    for cached in (moments.mean_negativity, moments._border, moments._square_sums, moments._build_matrix_cached):
        cached.cache_clear()


class TestNoMatrixInTheMoments:
    """No moment builds or caches a mu x mu matrix, so large tables run in
    bounded memory. The 4 MiB bound on the traced peak was fixed before the
    first run; a cached B(512) alone is tens of MiB."""

    @pytest.mark.parametrize("moment,mu", [(mean_negativity, 512), (variance_negativity, 256)])
    def test_traced_peak_from_cold_caches(self, moment, mu):
        import tracemalloc

        _cold_caches()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            moment(mu)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_moments_run_without_the_builder(self, monkeypatch):
        def refuse(mu, beta_twice):
            raise AssertionError(f"built the {mu} x {mu} matrix")

        _cold_caches()
        monkeypatch.setattr(moments, "_build_matrix_cached", refuse)
        assert normalized_moments(64).mu == 64
        assert len(generate_table(range(2, 16, 2))) == 7


class TestDetMomentSums:
    def test_worked_values(self):
        assert det_moment_sum(2, "pair", beta=HALF) == poly({2: Fraction(3, 4)})
        assert det_moment_sum(2, "pair", beta=1) == poly({0: 4})
        assert det_moment_sum(1, "pair", beta=HALF) == 0

    def test_naive_equals_trace(self):
        patterns = [("pair", {"beta": HALF}), ("pair", {"beta": 1}), ("triple", {}), ("quad", {})]
        for mu in range(1, 6):
            for pattern, kwargs in patterns:
                naive = naive_det_moment_sum(mu, pattern, **kwargs)
                trace = det_moment_sum(mu, pattern, **kwargs)
                assert naive == trace

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_naive_quad_matches_leibniz_sum(self, n):
        # Every ordered 4-tuple's determinant by the Leibniz formula, on
        # random integer matrices that need not be symmetric.
        signed = []
        for perm in itertools.permutations(range(4)):
            inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
            signed.append(((-1) ** inversions, perm))
        rng = random.Random(7 + n)
        for _ in range(3):
            b = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            leibniz = sum(
                sign * math.prod(b[idx[r]][idx[perm[r]]] for r in range(4))
                for idx in itertools.product(range(n), repeat=4)
                for sign, perm in signed
            )
            assert _naive_quad(b) == leibniz
            assert (leibniz != 0) == (n >= 4)  # below 4 indices, every tuple repeats one

    def test_naive_suite_catches_a_trace_off_by_one_unit(self, monkeypatch):
        from negmoments import moments, selfcheck

        original = moments._quad_trace

        def off_by_one(mu):
            return original(mu) + Fraction(1, build_pair_integral_matrix(mu, HALF).denominator ** 4)

        monkeypatch.setattr(moments, "_quad_trace", off_by_one)
        result = selfcheck.check_naive_vs_trace(3)
        assert not result.passed and result.detail == "quad differs at mu=1"

    def test_naive_suite_catches_a_t3_off_by_one_unit_beyond_the_naive_range(self, monkeypatch):
        # tr(N^3) feeds the quad sum; past mu = 8 only the C H C^T routes see
        # it, in the naive-vs-trace and the variance suites.
        from negmoments import selfcheck

        square_sums = moments._square_sums

        def off_by_one(mu):
            diag, superdiag, t3, t4 = square_sums(mu)
            return diag, superdiag, t3 + (mu > 8), t4

        monkeypatch.setattr(moments, "_square_sums", off_by_one)
        assert selfcheck.check_naive_vs_trace(8).passed
        result = selfcheck.check_naive_vs_trace(16)
        assert not result.passed and result.detail == "quad differs from C H C^T at mu=16"
        assert [r.passed for r in selfcheck.run_all(16)].count(False) == 2

    def test_pair_suite_catches_a_wrong_entry_beyond_the_naive_range(self, monkeypatch):
        # Every reader of B sees the corrupted entry, which the next rows'
        # steps read; the suite's factorisation route does not read B.
        from functools import lru_cache

        from negmoments import selfcheck

        generator = moments._recurrence_rows

        def corrupted(mu, beta_twice, *args):
            for k, row in enumerate(generator(mu, beta_twice, *args)):
                if beta_twice == 1 and mu > 20 and k == 17:
                    row[20 - k] += 1  # M_{17,20}
                yield row

        monkeypatch.setattr(moments, "_recurrence_rows", corrupted)
        monkeypatch.setattr(moments, "_border", lru_cache(maxsize=None)(moments._border.__wrapped__))  # a cache of its own
        result = selfcheck.check_pair_trace_identity(32)
        assert result.name == "pair sum trace identity"
        assert not result.passed and result.detail == "mu=32 beta=1/2"

    @pytest.mark.parametrize("mu", [24, 32])
    def test_trace_sums_match_term_sum_matrices(self, mu):
        # A and B entry by entry from the term sum, as Fractions, then the
        # power-sum formulas of the moments module docstring.
        a = [[laguerre_pair_integral(k, l, 1).coefficient(0) for l in range(mu)] for k in range(mu)]
        b = [[laguerre_pair_integral(k, l, HALF).coefficient(1) for l in range(mu)] for k in range(mu)]
        b_sq = [[sum(b[i][m] * b[m][j] for m in range(mu)) for j in range(mu)] for i in range(mu)]

        def trace(m):
            return sum(m[i][i] for i in range(mu))

        def overlap(x, y):
            return sum(x[i][j] * y[i][j] for i in range(mu) for j in range(mu))

        a1, b1 = trace(a), trace(b)
        b2, b3, b4 = trace(b_sq), overlap(b_sq, b), overlap(b_sq, b_sq)
        assert det_moment_sum(mu, "pair", beta=HALF) == poly({2: b1 * b1 - b2})
        assert det_moment_sum(mu, "pair", beta=1) == poly({0: a1 * a1 - overlap(a, a)})
        triple = a1 * b1 * b1 - a1 * b2 - 2 * b1 * overlap(a, b) + 2 * overlap(a, b_sq)
        assert det_moment_sum(mu, "triple") == poly({2: triple})
        quad = b1**4 - 6 * b1 * b1 * b2 + 3 * b2 * b2 + 8 * b1 * b3 - 6 * b4
        assert det_moment_sum(mu, "quad") == poly({4: quad})

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            det_moment_sum(2, "pair")
        with pytest.raises(ValueError):
            det_moment_sum(2, "quad", beta=1)
        with pytest.raises(ValueError):
            det_moment_sum(2, "pentuple")
        for pattern, kwargs in (("pair", {"beta": HALF}), ("pair", {"beta": 1}), ("triple", {}), ("quad", {})):
            with pytest.raises(ValueError, match="^dimension must be at least 1$"):
                det_moment_sum(0, pattern, **kwargs)
        with pytest.raises(ValueError):
            naive_det_moment_sum(2, "pair")
        with pytest.raises(ValueError):
            naive_det_moment_sum(2, "quad", beta=1)
        with pytest.raises(ValueError):
            naive_det_moment_sum(2, "pentuple")


class TestExactMoments:
    def test_mean_worked_values(self):
        assert mean_negativity(1) == 0
        assert mean_negativity(2) == poly({2: Fraction(3, 32)})
        assert eval_float(mean_negativity(2)) == pytest.approx(3 * math.pi / 32, abs=1e-14)

    def test_mean_pair_product_closed_form(self):
        # Independent oracle: <sum_{i!=j} p_i p_j> = 1 - E[purity] with
        # E[sum p^2] = 2 mu / (mu^2 + 1) for a square Haar bipartition.
        assert mean_pair_product(1) == 0
        for mu in range(2, 25):
            expected = Fraction((mu - 1) ** 2, mu * mu + 1)
            assert mean_pair_product(mu) == poly({0: expected})

    def test_fourth_moment_worked_values(self):
        assert fourth_moment(1) == poly({0: 1})
        assert fourth_moment(2) == poly({0: Fraction(7, 5), 2: Fraction(3, 8)})

    def test_variance_worked_values(self):
        assert variance_negativity(1) == 0
        assert variance_negativity(2) == poly({0: Fraction(1, 10), 4: Fraction(-9, 1024)})
        assert eval_float(variance_negativity(2)) == pytest.approx(0.1 - 9 * math.pi**2 / 1024, abs=1e-14)

    def test_variance_nonnegative(self):
        for mu in (2, 3, 5, 9, 16):
            assert eval_float(variance_negativity(mu)) >= 0.0

    def test_fourth_moment_against_monte_carlo(self):
        mu, count = 3, 200_000
        rng = np.random.default_rng(90210)
        z = rng.standard_normal((count, mu, mu)) + 1j * rng.standard_normal((count, mu, mu))
        z /= np.linalg.norm(z.reshape(count, -1), axis=1)[:, None, None]
        p = np.linalg.svd(z, compute_uv=False) ** 2
        s4 = np.sqrt(p).sum(axis=1) ** 4
        estimate = s4.mean()
        stderr = s4.std(ddof=1) / math.sqrt(count)
        assert eval_float(fourth_moment(mu)) == pytest.approx(estimate, abs=4 * stderr)

    def test_normalized_moments_takes_each_pair_trace_once(self, monkeypatch):
        traced = []
        pair_trace = moments._pair_trace

        def counting(mu, beta_twice):
            traced.append((mu, beta_twice))
            return pair_trace(mu, beta_twice)

        monkeypatch.setattr(moments, "_pair_trace", counting)
        moments.mean_negativity.cache_clear()
        normalized_moments(11)
        assert sorted(traced) == [(11, 1), (11, 2)]  # B (beta = 1/2) once, A (beta = 1) once

    def test_variance_suite_catches_a_wrong_pair_product(self, monkeypatch):
        # The suite takes the pair product in closed form, so a wrong matrix
        # route moves only variance_negativity.
        pair_product = moments.mean_pair_product
        monkeypatch.setattr(moments, "mean_pair_product", lambda mu: pair_product(mu) + Fraction(1, 10**6))
        assert not check_variance_identity(8).passed


def distinct_index_sums(points):
    """Vectorized A, B, C, D distinct-index sums over simplex rows.

    A = sum_{i!=j} sqrt(p_i p_j), B = sum_{i!=j} p_i p_j,
    C = sum over three distinct of p_i sqrt(p_j p_k), D = sum over four
    distinct of sqrt(p_i p_j p_k p_l) = 24 e_4(sqrt p) via Newton sums.
    """
    r = np.sqrt(points)
    s = r.sum(axis=1)
    p2 = (points**2).sum(axis=1)
    p32 = (points * r).sum(axis=1)
    a = s**2 - 1.0
    b = 1.0 - p2
    c = (points * ((s[:, None] - r) ** 2 - (1.0 - points))).sum(axis=1)
    d = s**4 - 6.0 * s**2 + 3.0 + 8.0 * s * p32 - 6.0 * p2
    return a, b, c, d


class TestExpansionIdentity:
    @pytest.mark.parametrize("mu", [2, 3, 5])
    def test_fourth_power_decomposition(self, mu):
        # (sum sqrt p)^4 = 1 + 2A + 2B + 4C + D on arbitrary simplex points
        rng = np.random.default_rng(mu)
        points = rng.dirichlet(np.ones(mu), size=1000)
        a, b, c, d = distinct_index_sums(points)
        lhs = np.sqrt(points).sum(axis=1) ** 4
        rhs = 1.0 + 2.0 * a + 2.0 * b + 4.0 * c + d
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=0.0)

    def test_vectorized_sums_match_direct_loops(self):
        mu = 4
        rng = np.random.default_rng(77)
        points = rng.dirichlet(np.ones(mu), size=5)
        a, b, c, d = distinct_index_sums(points)
        for row in range(points.shape[0]):
            p = points[row]
            rr = np.sqrt(p)
            idx = range(mu)
            a_direct = sum(rr[i] * rr[j] for i in idx for j in idx if i != j)
            b_direct = sum(p[i] * p[j] for i in idx for j in idx if i != j)
            c_direct = sum(
                p[i] * rr[j] * rr[k]
                for i in idx
                for j in idx
                for k in idx
                if len({i, j, k}) == 3
            )
            d_direct = sum(
                rr[i] * rr[j] * rr[k] * rr[l]
                for i in idx
                for j in idx
                for k in idx
                for l in idx
                if len({i, j, k, l}) == 4
            )
            assert a[row] == pytest.approx(a_direct, rel=1e-12)
            assert b[row] == pytest.approx(b_direct, rel=1e-12)
            assert c[row] == pytest.approx(c_direct, rel=1e-12)
            assert d[row] == pytest.approx(d_direct, rel=1e-12)


class TestNormalizedMoments:
    def test_worked_values(self):
        report = normalized_moments(2)
        assert report.mean_normalized == pytest.approx(0.589049, abs=5e-7)
        assert report.sigma_normalized == pytest.approx(0.230265, abs=1e-6)
        assert report.n_max == max_negativity(2)

    def test_requires_mu_at_least_two(self):
        with pytest.raises(ValueError):
            normalized_moments(1)

    def test_exact_ceiling(self):
        # 129 is the first size above the exact-mode ceiling (128).
        with pytest.raises(ResourceCeilingError):
            normalized_moments(129, exact=True)
        for mu in (8, 96):
            report = normalized_moments(mu, exact=True)
            assert report.mean_exact is not None and report.variance_exact is not None

    def test_exact_false_is_the_same_exact_report(self):
        assert normalized_moments(16, exact=False) == normalized_moments(16, exact=True)

    def test_exact_beyond_exact_mode_ceiling(self):
        mu = EXACT_MODE_CEILING + 1
        report = normalized_moments(mu)
        assert report.mean_exact == mean_negativity(mu)
        assert report.variance_exact == variance_negativity(mu)
        # The bits the verified mpf evaluation used to print for mu = 129.
        assert report.mean_float == 45.9743202984628
        assert report.sigma_float == 0.12738325947771068

    def test_monotone_in_mu(self):
        values = [normalized_moments(mu).mean_normalized for mu in (2, 4, 8, 16)]
        assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize(
    "entry",
    [lambda mu: build_pair_integral_matrix(mu, HALF), mean_negativity, mean_pair_product, normalized_moments, max_negativity],
    ids=["build_pair_integral_matrix", "mean_negativity", "mean_pair_product", "normalized_moments", "max_negativity"],
)
def test_float_mu_rejected(entry, warm):
    # A warm cache must not answer a float: lru_cache keys (2, 1) and
    # (2.0, 1) alike, and np.int64(2) and 2.0 alike.
    moments.mean_negativity.cache_clear()
    moments._build_matrix_cached.cache_clear()
    if warm:
        entry(2)
        entry(np.int64(2))
    with pytest.raises(TypeError):
        entry(2.0)
    assert entry(np.int64(2)) == entry(2)


@pytest.mark.parametrize("mu", [0, -3])
def test_max_negativity_needs_a_dimension(mu):
    # (mu-1)/2 would read -1/2 at mu = 0: no bipartition has that size.
    with pytest.raises(ValueError, match="^dimension must be at least 1$"):
        max_negativity(mu)
    assert max_negativity(1) == 0


class TestTable:
    REFERENCE_RATIOS = {
        2: 0.589049,
        4: 0.65368,
        6: 0.686614,
        8: 0.703378,
    }

    def test_reference_ratios(self):
        rows = generate_table([2, 4, 6, 8])
        for row in rows:
            assert row.ratio == pytest.approx(self.REFERENCE_RATIOS[row.n_qubits], abs=5e-6)
        assert rows[0].delta is None
        assert rows[1].delta == pytest.approx(0.0646309, abs=1e-6)

    def test_single_row_has_no_delta(self):
        rows = generate_table([6])
        assert len(rows) == 1 and rows[0].delta is None

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_table([3])

    def test_exact_table_to_n16_meets_spectral_limit(self):
        rows = generate_table(range(2, 18, 2))
        assert rows[-1].n_qubits == 16
        assert rows[-1].ratio == pytest.approx(0.7194170982215217, abs=1e-12)
        # Limit of the normalized mean: (8 / (3 pi))^2, the squared mean of
        # sqrt(x) under the quarter-circle law.
        assert extrapolate_limit(rows) == pytest.approx(64 / (9 * math.pi**2), abs=2e-5)


class TestPaperLimits:
    # kappa^2 = (8 / (3 pi))^2 = 64 / (9 pi^2), the limit of the ratio, and
    # sigma's limit 8 sqrt(2) / (9 pi^2); each band was fixed before the
    # first run.
    KAPPA_SQ = 64 / (9 * math.pi**2)
    SIGMA_LIMIT = 8 * math.sqrt(2) / (9 * math.pi**2)

    @pytest.mark.parametrize("mu", [32, 64, 128])
    def test_sigma_tends_to_its_limit_within_a_log_band(self, mu):
        gap = normalized_moments(mu).sigma_float - self.SIGMA_LIMIT
        assert 0 < gap <= 0.05 * (math.log(mu) + 1) / mu**2

    @classmethod
    def ratio_law(cls, mu):
        # r(mu) = k2 + (k2 - 1)/(mu - 1) + 2 (ln mu / (6 pi^2) + b) / (mu (mu - 1)),
        # with c1 = k2 - 1 and b = 0.133453 guessed and checked, not derived.
        k2, b = cls.KAPPA_SQ, 0.133453
        return k2 + (k2 - 1) / (mu - 1) + 2 * (math.log(mu) / (6 * math.pi**2) + b) / (mu * (mu - 1))

    def test_ratio_follows_the_one_over_mu_law(self):
        residuals = []
        for row in generate_table([8, 10, 12, 14, 16]):
            residuals.append(row.ratio - self.ratio_law(row.mu))
            assert 0 < residuals[-1] <= 0.005 * math.log(row.mu) / row.mu**3, row.mu
        assert all(x > y for x, y in zip(residuals, residuals[1:]))

    def test_the_papers_ratio_is_the_law_at_22_qubits(self):
        from negmoments.bounds import RATIO_PRESET

        assert [n for n in range(2, 41, 2) if round(self.ratio_law(2 ** (n // 2)), 5) == RATIO_PRESET] == [22]


class TestExtrapolation:
    def test_recovers_synthetic_geometric_limit(self):
        limit, amplitude, r = 0.75, 0.2, 0.5
        rows = []
        previous = None
        for i, n in enumerate(range(2, 16, 2)):
            ratio = limit - amplitude * r**i
            delta = None if previous is None else ratio - previous
            rows.append(TableRow(n_qubits=n, mu=2 ** (n // 2), ratio=ratio, delta=delta))
            previous = ratio
        assert extrapolate_limit(rows) == pytest.approx(limit, abs=1e-12)

    def test_requires_three_rows(self):
        rows = generate_table([2, 4])
        with pytest.raises(ValueError):
            extrapolate_limit(rows)
