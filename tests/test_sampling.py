import hashlib
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negmoments import sampling
from negmoments.exactring import eval_float
from negmoments.moments import mean_negativity
from negmoments.sampling import SPECTRUM_CLIP, SampleBatch, haar_pure_state, reduced_state_a, sample_negativities
from negmoments.sampling import (
    _apply_single_qubit,
    _bidiagonal_squares,
    _circuit_chunk,
    _circuit_states,
    _cz_layer_diagonal,
    _gram_negativity,
    _haar_amplitudes,
    _haar_chunk,
    _normals,
    _philox4x32_10,
    _root_sum_negativity,
    _stream_key,
    _su2_from_uniforms,
    _uniforms,
)


def bell_state():
    return np.array([[1, 0], [0, 1]], dtype=complex) / math.sqrt(2)


def spectrum(m):
    """Descending Schmidt spectrum of one (mu, nu) amplitude matrix or of a stack of them."""
    return np.linalg.svd(m, compute_uv=False) ** 2


def svd_negativities(matrices):
    """The SVD oracle of the chunk kernels: ((sum_i s_i)^2 - 1) / 2 for each (mu, nu) matrix in a stack.

    The s_i are the singular values, the square roots of the Schmidt
    coefficients; an s_i with s_i * s_i below SPECTRUM_CLIP counts as zero.
    """
    s = np.linalg.svd(matrices, compute_uv=False)
    s[s * s < SPECTRUM_CLIP] = 0.0
    return _root_sum_negativity(s)


def gram_negativities(matrices):
    """The chunk kernels' route for each (mu, nu) matrix in a stack: the eigenvalues of M M^H."""
    return _gram_negativity(reduced_state_a(matrices))


def schmidt_negativity(m):
    """Negativity of one amplitude matrix by the chunk kernels' Schmidt formula."""
    return float(gram_negativities(m[np.newaxis])[0])


def spectrum_negativity(p):
    """The chunk kernels' negativity of the Schmidt spectrum p, from the diagonal state diag(sqrt(p))."""
    return schmidt_negativity(np.diag(np.sqrt(p)))


def partial_transpose(rho, dims):
    """Transpose the subsystem-A indices of a (mu nu) x (mu nu) operator."""
    mu, nu = dims
    return rho.reshape(mu, nu, mu, nu).transpose(2, 1, 0, 3).reshape(mu * nu, mu * nu)


def trace_norm_negativity(rho, dims):
    """(trace norm of the partial transpose - 1) / 2, for any state."""
    return float((np.abs(np.linalg.eigvalsh(partial_transpose(rho, dims))).sum() - 1.0) / 2.0)


def density_matrix(m):
    vector = m.ravel()
    return np.outer(vector, vector.conj())


def circuit_state(n_qubits, rounds, seed, index=0):
    return _circuit_states(n_qubits, rounds, _stream_key(seed), index, index + 1)[:, 0]


def two_sample_ks(a, b):
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


class TestPureState:
    def test_haar_state_shape_and_determinism(self):
        a = haar_pure_state(2, 2, 42)
        b = haar_pure_state(2, 2, 42)
        assert np.array_equal(a, b)
        assert a.shape == (2, 2) and a.dtype == np.complex128
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_trivial_ray(self):
        state = haar_pure_state(1, 1, 3)
        assert abs(abs(state[0, 0]) - 1.0) < 1e-12
        assert schmidt_negativity(state) <= 1e-12


class TestSchmidt:
    def test_product_state(self):
        e00 = np.array([[1, 0], [0, 0]], dtype=complex)
        assert np.allclose(spectrum(e00), [1.0, 0.0])

    def test_bell_state(self):
        assert np.allclose(spectrum(bell_state()), [0.5, 0.5])

    def test_spectrum_sums_to_one(self):
        for i in range(25):
            p = spectrum(haar_pure_state(3, 5, 8, i))
            assert abs(p.sum() - 1.0) < 1e-10
            assert np.all(np.diff(p) <= 0)

    def test_lopsided_split_uses_consistent_spectrum(self):
        m = haar_pure_state(2, 64, 4, 0)
        p = spectrum(m)
        reference = np.sort(np.linalg.svd(m, compute_uv=False) ** 2)[::-1]
        assert np.allclose(p, reference, atol=1e-12)
        assert p.size == 2


class TestNegativityPure:
    def test_examples(self):
        assert spectrum_negativity([1.0, 0.0]) == 0.0
        assert spectrum_negativity([0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)
        assert spectrum_negativity(np.full(8, 1 / 8)) == pytest.approx(3.5, abs=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)], ids=["2x2", "2x3", "3x2"])
    def test_clip_boundary(self, shape):
        # The largest s with s * s below the clip, and the next float up.
        s = np.sqrt(SPECTRUM_CLIP)
        while s * s >= SPECTRUM_CLIP:
            s = np.nextafter(s, 0.0)
        while np.nextafter(s, 1.0) ** 2 < SPECTRUM_CLIP:
            s = np.nextafter(s, 1.0)
        below, above = s, np.nextafter(s, 1.0)
        assert below * below < SPECTRUM_CLIP <= above * above
        for small, expected in ((below, 0.0), (above, pytest.approx(above, rel=1e-6))):
            m = np.zeros(shape, dtype=complex)
            m[0, 0], m[1, 1] = 1.0, small
            assert np.linalg.eigvalsh(reduced_state_a(m))[-2] == small * small  # the kernel sees s * s itself
            assert gram_negativities(m[np.newaxis])[0] == expected


class TestPartialTranspose:
    """The partial transpose behind the trace-norm oracle below."""

    def test_product_state_transposes_first_factor(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho_a = a @ a.conj().T
        rho_a /= np.trace(rho_a).real
        rho_b = np.diag([0.7, 0.3]).astype(complex)
        assert np.allclose(partial_transpose(np.kron(rho_a, rho_b), (2, 2)), np.kron(rho_a.T, rho_b), atol=1e-14)

    def test_involution(self):
        rho = density_matrix(bell_state())
        assert np.allclose(partial_transpose(partial_transpose(rho, (2, 2)), (2, 2)), rho, atol=1e-14)
        mixed = np.eye(4) / 4
        assert np.allclose(partial_transpose(mixed, (2, 2)), mixed)

    def test_bell_eigenvalues(self):
        pt = partial_transpose(density_matrix(bell_state()), (2, 2))
        assert np.allclose(np.sort(np.linalg.eigvalsh(pt)), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


class TestNegativityGeneral:
    """The chunk kernels' Schmidt formula against the partial transpose's trace norm."""

    def test_maximally_mixed_is_ppt(self):
        assert trace_norm_negativity(np.eye(4) / 4, (2, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_bell_projector(self):
        assert trace_norm_negativity(density_matrix(bell_state()), (2, 2)) == pytest.approx(0.5, abs=1e-12)
        assert schmidt_negativity(bell_state()) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (4, 4), (2, 8)])
    def test_matches_pure_path(self, dims):
        mu, nu = dims
        states = _haar_amplitudes(mu, nu, _stream_key(1000 + mu * nu), 0, 100).reshape(-1, mu, nu)
        via_schmidt = gram_negativities(states)
        for m, expected in zip(states, via_schmidt):
            assert abs(trace_norm_negativity(density_matrix(m), dims) - expected) < 1e-8


class TestTopSchmidtDistribution:
    def test_top_coefficient_matches_analytic_cdf(self):
        # For a 2x2 split the larger coefficient has CDF (2p-1)^3 on [1/2, 1].
        count = 8000
        amplitudes = _haar_amplitudes(2, 2, _stream_key(5), 0, count)
        p1 = spectrum(amplitudes.reshape(-1, 2, 2))[:, 0]
        xs = np.sort(p1)
        model = (2.0 * xs - 1.0) ** 3
        ecdf_hi = np.arange(1, count + 1) / count
        ecdf_lo = ecdf_hi - 1.0 / count
        ks = max(np.abs(model - ecdf_hi).max(), np.abs(model - ecdf_lo).max())
        assert ks < 0.015


class TestHaarInvariance:
    def test_local_unitary_leaves_spectra_distribution(self):
        rng = np.random.default_rng(1)
        z = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / math.sqrt(2)
        q, r = np.linalg.qr(z)
        unitary = q * (np.diag(r) / np.abs(np.diag(r)))

        def top_values(seed_base, transform):
            matrices = _haar_amplitudes(4, 4, _stream_key(seed_base), 0, 8000).reshape(-1, 4, 4)
            if transform is not None:
                matrices = transform @ matrices
            return spectrum(matrices)[:, 0]

        plain = top_values(100, None)
        rotated = top_values(200, unitary)
        assert two_sample_ks(plain, rotated) < 0.02


def ks_bound(*sizes):
    """The KS statistic a correct law exceeds with probability about 0.001 (1.95 / sqrt of the effective size)."""
    return 1.95 * math.sqrt(sum(1.0 / size for size in sizes))


class TestBidiagonalSpectra:
    """A Haar batch draws its spectra from the bidiagonal model; the Ginibre
    states of _haar_amplitudes and the exact engine are its oracles."""

    def test_uniforms_are_the_u1_rule_of_each_word(self):
        key = _stream_key(4)
        u = _uniforms(key, 3, 40, 7)
        x, y = _philox4x32_10(key, np.arange(4, dtype=np.uint64)[:, np.newaxis], 0, np.arange(3, 40, dtype=np.uint64), 0)
        words = np.stack([x, y], axis=1).reshape(8, -1)[:7]
        assert u.shape == (7, 37)
        assert np.array_equal(u, ((words >> np.uint64(11)).astype(float) + 1.0) * 2.0**-53)
        assert np.all((u > 0.0) & (u <= 1.0))

    @pytest.mark.parametrize("dims", [(2, 2), (3, 5), (5, 3), (16, 16)])
    def test_squares_sum_to_one(self, dims):
        m, n = min(dims), max(dims)
        diagonal, sub = _bidiagonal_squares(m, n, _stream_key(2101), 0, 300)
        assert diagonal.shape == (m, 300) and sub.shape == (m - 1, 300)
        assert np.all(diagonal > 0.0) and np.all(sub > 0.0)
        assert np.abs(diagonal.sum(axis=0) + sub.sum(axis=0) - 1.0).max() < 1e-14

    @pytest.mark.parametrize("mu, count", [(2, 2000), (4, 2000), (16, 500), (64, 100), (128, 40)])
    def test_gram_route_matches_the_svd_of_the_bidiagonal(self, mu, count):
        # The singular values of B itself, per sample, against the eigenvalues of B^T B.
        diagonal, sub = _bidiagonal_squares(mu, mu, _stream_key(2102), 0, count)
        b = np.zeros((count, mu, mu))
        b[:, np.arange(mu), np.arange(mu)] = np.sqrt(diagonal).T
        b[:, np.arange(1, mu), np.arange(mu - 1)] = np.sqrt(sub).T
        s = np.linalg.svd(b, compute_uv=False)
        s[s * s < SPECTRUM_CLIP] = 0.0
        gram = _haar_chunk(mu, mu, _stream_key(2102), 0, count)
        assert np.abs(gram - _root_sum_negativity(s)).max() < 1e-12

    @pytest.mark.parametrize("dims", [(1, 1), (1, 6), (6, 1)])
    def test_product_spaces_give_exact_zeros(self, dims):
        values = sample_negativities(SampleBatch(master_seed=2103, count=300, dims=dims))
        assert np.array_equal(values, np.zeros(300))

    def test_mu2_matches_the_exact_law(self):
        # N' = 2N at mu = 2 has P(N' <= y) = 1 - (1 - y^2)^(3/2); unbinned one-sample KS.
        count = 200_000
        y = np.sort(2.0 * sample_negativities(SampleBatch(master_seed=2104, count=count, dims=(2, 2)), threads=2))
        law = 1.0 - (1.0 - np.minimum(y, 1.0) ** 2) ** 1.5
        rank = np.arange(1, count + 1) / count
        assert max(np.abs(rank - law).max(), np.abs(law - (rank - 1.0 / count)).max()) < ks_bound(count)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4), (2, 3), (3, 5), (5, 3)])
    def test_law_matches_the_ginibre_oracle(self, dims):
        count = 20_000
        mu, nu = dims
        batch = sample_negativities(SampleBatch(master_seed=2105, count=count, dims=dims), threads=2)
        oracle = svd_negativities(_haar_amplitudes(mu, nu, _stream_key(2106), 0, count).reshape(-1, mu, nu))
        assert two_sample_ks(batch, oracle) < ks_bound(count, count)

    @pytest.mark.parametrize("mu", [2, 3, 4])
    def test_mean_within_four_standard_errors(self, mu):
        count = 100_000
        values = sample_negativities(SampleBatch(master_seed=2107, count=count, dims=(mu, mu)), threads=2)
        stderr = values.std(ddof=1) / math.sqrt(count)
        assert abs(values.mean() - eval_float(mean_negativity(mu))) < 4 * stderr


class TestCircuitStates:
    def test_zero_rounds_is_fiducial(self):
        expected = np.zeros(16, dtype=complex)
        expected[0] = 1.0
        assert np.array_equal(circuit_state(4, 0, 9), expected)
        assert _circuit_chunk(4, 0, _stream_key(9), 0, 1)[0] == 0.0

    def test_determinism(self):
        assert np.array_equal(circuit_state(4, 7, 123), circuit_state(4, 7, 123))

    def test_two_qubit_ring_degenerates_to_one_edge(self):
        assert np.array_equal(_cz_layer_diagonal(2), [1.0, 1.0, 1.0, -1.0])
        assert abs(np.linalg.norm(circuit_state(2, 3, 5)) - 1.0) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="n_qubits must be even"):
            SampleBatch(master_seed=0, count=1, n_qubits=3, generator="circuit", j=4)
        with pytest.raises(ValueError, match="round count must be nonnegative"):
            SampleBatch(master_seed=0, count=1, n_qubits=4, generator="circuit", j=-1)


def quaternion_circuit_negativities(n_qubits, rounds, seed, count):
    """The circuit of _circuit_states with each gate from four normals of _normals.

    The quaternion (a, b, c, d) / |(a, b, c, d)| is Haar on SU(2) as
    [[a + ib, c + id], [-c + id, a - ib]]: the same law as the Hopf gates,
    from another construction. Negativities by the SVD oracle.
    """
    normals = _normals(_stream_key(seed), 0, count, 2 * n_qubits * rounds)
    a, b, c, d = normals.reshape(rounds, n_qubits, 4, count).transpose(2, 0, 1, 3)
    norm = np.sqrt(a * a + b * b + c * c + d * d)
    gates = np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]]) / norm
    psi = np.zeros((2**n_qubits, count), dtype=complex)
    psi[0] = 1.0
    out, scratch = np.empty_like(psi), np.empty_like(psi)
    for r in range(rounds):
        for q in range(n_qubits):
            _apply_single_qubit(psi, gates[:, :, r, q], q, out, scratch)
            psi, out = out, psi
        psi *= _cz_layer_diagonal(n_qubits)[:, np.newaxis]
    half = 2 ** (n_qubits // 2)
    return svd_negativities(psi.T.reshape(-1, half, half))


def assert_special_unitary(gates):
    """Each 2x2 matrix of a (count, 2, 2) stack is unitary with determinant 1, within 2e-15."""
    assert np.abs(gates @ gates.conj().swapaxes(-1, -2) - np.eye(2)).max() < 2e-15
    assert np.abs(np.linalg.det(gates) - 1.0).max() < 2e-15


class TestHopfGates:
    """Each circuit gate is Haar on SU(2), from three uniforms in Hopf
    coordinates; circuit spectra come from eigvalsh of M M^H."""

    def test_gates_are_the_hopf_map_and_special_unitary(self):
        u = _uniforms(_stream_key(2401), 0, 20_000, 3)
        x, v, w = u
        gates = np.moveaxis(_su2_from_uniforms(u.copy()), -1, 0)
        a = np.sqrt(x) * np.exp(1j * (2 * np.pi * v - np.pi))
        c = np.sqrt(1 - x) * np.exp(1j * (2 * np.pi * w - np.pi))
        assert np.abs(gates - np.stack([[a, c], [-c.conj(), a.conj()]]).transpose(2, 0, 1)).max() < 4e-15
        assert_special_unitary(gates)

    def test_extreme_words_give_finite_unitaries(self):
        # 2**-53 and 1 are the smallest and largest uniforms, 1/2 the zero phase.
        extremes = np.array([2.0**-53, 0.5, 1.0])
        u = np.stack(np.meshgrid(extremes, extremes, extremes)).reshape(3, -1)
        gates = np.moveaxis(_su2_from_uniforms(u), -1, 0)
        assert np.all(np.isfinite(gates))
        assert_special_unitary(gates)

    def test_top_left_weight_is_uniform(self):
        count = 100_000
        gates = _su2_from_uniforms(_uniforms(_stream_key(2402), 0, count, 3))
        y = np.sort(np.abs(gates[0, 0]) ** 2)
        rank = np.arange(1, count + 1) / count
        assert max(np.abs(rank - y).max(), np.abs(y - (rank - 1.0 / count)).max()) < ks_bound(count)

    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_law_matches_quaternion_gates(self, rounds):
        count = 20_000
        batch = SampleBatch(master_seed=2403, count=count, n_qubits=4, generator="circuit", j=rounds)
        hopf = sample_negativities(batch, threads=2)
        assert two_sample_ks(hopf, quaternion_circuit_negativities(4, rounds, 2404, count)) < ks_bound(count, count)

    def test_purity_tends_to_the_ring_limit(self):
        # The ring's exact limit at n = 4 is 7/15 (ROADMAP item 1), not Haar's
        # 8/17, which lies about 8 standard errors away at this size.
        count, chunk = 20_000, 2_000
        key = _stream_key(2405)
        purity = []
        for start in range(0, count, chunk):
            m = _circuit_states(4, 40, key, start, start + chunk).T.reshape(-1, 4, 4)
            purity.append((np.abs(reduced_state_a(m)) ** 2).sum(axis=(1, 2)))
        purity = np.concatenate(purity)
        stderr = purity.std(ddof=1) / math.sqrt(count)
        assert abs(purity.mean() - 7 / 15) < 4 * stderr

    @pytest.mark.parametrize("n_qubits, count", [(2, 2000), (4, 1000), (6, 400), (8, 200)])
    @pytest.mark.parametrize("rounds", [0, 1, 40])
    def test_gram_route_matches_the_svd_oracle(self, n_qubits, count, rounds):
        key = _stream_key(2406)
        half = 2 ** (n_qubits // 2)
        states = _circuit_states(n_qubits, rounds, key, 0, count).T.reshape(-1, half, half)
        gram = _circuit_chunk(n_qubits, rounds, key, 0, count)
        assert np.abs(gram - svd_negativities(states)).max() <= 1e-12


class TestSampleBatches:
    def test_empty_batch(self):
        batch = SampleBatch(master_seed=1, count=0, dims=(2, 2))
        assert sample_negativities(batch).size == 0

    def test_batch_reproducible(self):
        batch = SampleBatch(master_seed=5, count=400, dims=(4, 4))
        assert np.array_equal(sample_negativities(batch), sample_negativities(batch))

    def test_thread_count_invariance(self):
        for generator, kwargs in (("haar", {"dims": (4, 4)}), ("circuit", {"n_qubits": 4})):
            batch = SampleBatch(master_seed=17, count=1200, generator=generator, **kwargs)
            single = sample_negativities(batch, threads=1)
            multi = sample_negativities(batch, threads=3)
            assert np.array_equal(single, multi)

    @pytest.mark.parametrize("started", [0, 1], ids=["no-helper", "one-helper"])
    def test_helper_that_cannot_start(self, monkeypatch, started):
        # Stands in for "can't start new thread"; three chunks ask for two helpers.
        import threading

        batch = SampleBatch(master_seed=17, count=3000, dims=(4, 4))
        expected = sample_negativities(batch, threads=1)
        real_start = threading.Thread.start
        helpers = []

        def start(thread):
            if len(helpers) == started:
                raise RuntimeError("can't start new thread")
            helpers.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        assert np.array_equal(sample_negativities(batch, threads=3), expected)
        assert len(helpers) == started and not any(helper.is_alive() for helper in helpers)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        real_chunk = sampling._haar_chunk

        def chunk(mu, nu, key, start, stop):
            if start > 0:
                raise MemoryError("no room for this chunk")
            return real_chunk(mu, nu, key, start, stop)

        monkeypatch.setattr(sampling, "_haar_chunk", chunk)
        batch = SampleBatch(master_seed=17, count=5000, dims=(4, 4))
        for threads in (1, 2):
            with pytest.raises(MemoryError, match="^no room for this chunk$"):
                sample_negativities(batch, threads=threads)

    def test_more_workers_than_cores(self, monkeypatch):
        import sys

        monkeypatch.setattr(sampling, "_CHUNK_ELEMENTS", 1)  # 128-sample chunks
        batch = SampleBatch(master_seed=5, count=128 * 40 + 7, dims=(2, 2))
        expected = sample_negativities(batch, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            values = sample_negativities(batch, threads=6)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(values, expected)

    def test_matches_single_state_path(self):
        batch = SampleBatch(master_seed=7, count=9, n_qubits=4, generator="circuit", j=11)
        values = sample_negativities(batch)
        assert _circuit_chunk(4, 11, _stream_key(7), 4, 5)[0] == values[4]
        haar_batch = SampleBatch(master_seed=21, count=9, dims=(3, 3))
        haar_values = sample_negativities(haar_batch)
        assert _haar_chunk(3, 3, _stream_key(21), 6, 7)[0] == haar_values[6]

    def test_range_invariant(self):
        batch = SampleBatch(master_seed=2, count=2000, dims=(4, 4))
        values = sample_negativities(batch, threads=2)
        assert np.all(values >= 0.0)
        assert np.all(values <= (4 - 1) / 2 + 1e-9)

    def test_haar_mean_within_standard_errors(self):
        count = 20_000
        batch = SampleBatch(master_seed=31, count=count, dims=(2, 2))
        values = sample_negativities(batch, threads=2)
        stderr = values.std(ddof=1) / math.sqrt(count)
        analytic = eval_float(mean_negativity(2))
        assert abs(values.mean() - analytic) < 4 * stderr

    def test_validation(self):
        with pytest.raises(ValueError):
            SampleBatch(master_seed=0, count=10)
        with pytest.raises(ValueError):
            SampleBatch(master_seed=0, count=10, dims=(2, 2), n_qubits=4)
        with pytest.raises(ValueError):
            SampleBatch(master_seed=0, count=-1, dims=(2, 2))
        with pytest.raises(ValueError):
            SampleBatch(master_seed=0, count=10, n_qubits=3)
        with pytest.raises(ValueError, match="^a haar batch takes dims and a circuit batch takes n_qubits$"):
            SampleBatch(master_seed=0, count=10, n_qubits=4)
        with pytest.raises(ValueError, match="^a haar batch takes dims and a circuit batch takes n_qubits$"):
            SampleBatch(master_seed=0, count=10, dims=(4, 4), generator="circuit")
        with pytest.raises(ValueError):
            SampleBatch(master_seed=0, count=10, dims=(2, 2), generator="magic")
        with pytest.raises(ValueError):
            sample_negativities(SampleBatch(master_seed=0, count=4, dims=(2, 2)), threads=0)
        for dims in ((0, 3), (-1, 2), (2,), (2, 2, 2)):
            with pytest.raises(ValueError, match="dimensions must be at least 1"):
                SampleBatch(master_seed=0, count=4, dims=dims)

    def test_block_counter_limit(self):
        # Block b is one 32-bit counter word: block 2**32 is block 0 again.
        key = _stream_key(0)
        assert np.array_equal(_normals(key, 0, 3, 1, first=2**32), _normals(key, 0, 3, 1))
        # A Haar batch sample takes two uniforms a block, haar_pure_state one block per amplitude.
        SampleBatch(0, 1, dims=(92681, 92681))
        with pytest.raises(OverflowError, match="^a sample needs 4294976562 Philox blocks, more than 2\\*\\*32$"):
            SampleBatch(0, 1, dims=(92682, 92682))
        # A circuit sample takes three uniforms a gate: 3 n j / 2 blocks.
        SampleBatch(0, 1, n_qubits=2, generator="circuit", j=1431655765)
        with pytest.raises(OverflowError, match="^a sample needs 4294967298 Philox blocks, more than 2\\*\\*32$"):
            SampleBatch(0, 1, n_qubits=2, generator="circuit", j=1431655766)
        with pytest.raises(OverflowError, match="^a sample needs 4295032832 Philox blocks, more than 2\\*\\*32$"):
            haar_pure_state(65536, 65537, 0)

    def test_bad_seed_rejected_when_built(self):
        # An empty batch draws nothing, so only the constructor can see the seed.
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            SampleBatch(-1, 0, dims=(2, 2))
        with pytest.raises(TypeError):
            SampleBatch(1.5, 0, dims=(2, 2))

    @pytest.mark.parametrize(
        "fields",
        [
            {"count": 10.5, "dims": (2, 2)},
            {"count": 10, "n_qubits": 4, "generator": "circuit", "j": 2.5},
            {"count": 10, "n_qubits": 4.0},
            {"count": 10, "dims": (2.0, 2)},
        ],
        ids=["count", "j", "n_qubits", "dims"],
    )
    def test_non_integer_fields_rejected(self, fields):
        with pytest.raises(TypeError):
            SampleBatch(master_seed=0, **fields)

    def test_numpy_integers_accepted(self):
        batch = SampleBatch(np.int64(3), np.int64(10), dims=(2, 2))
        assert sample_negativities(batch).size == 10
        dims = SampleBatch(0, 4, dims=(np.int64(2), np.int64(2)))
        assert np.array_equal(sample_negativities(dims), sample_negativities(SampleBatch(0, 4, dims=(2, 2))))
        circuit = SampleBatch(0, np.int64(4), n_qubits=np.int64(4), generator="circuit", j=np.int64(2))
        assert sample_negativities(circuit).size == 4


class TestStream:
    # Random123 known-answer vectors for Philox4x32-10: (key, counter, output).
    KNOWN_ANSWERS = [
        ((0x00000000, 0x00000000), (0x00000000,) * 4, (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        ((0xFFFFFFFF, 0xFFFFFFFF), (0xFFFFFFFF,) * 4, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
        (
            (0xA4093822, 0x299F31D0),
            (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
            (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
        ),
    ]

    @pytest.mark.parametrize("key, counter, expected", KNOWN_ANSWERS)
    def test_philox_known_answers(self, key, counter, expected):
        x, y = _philox4x32_10(key, *(np.array([w], dtype=np.uint64) for w in counter))
        x, y = int(x[0]), int(y[0])
        assert (x >> 32, x & 0xFFFFFFFF, y >> 32, y & 0xFFFFFFFF) == expected

    def test_philox_vectorises_elementwise(self):
        key = (0xA4093822, 0x299F31D0)
        counters = np.array([[7, 0, 1, 0], [0, 0, 0, 0], [0xFFFFFFFF, 3, 2**31, 5]], dtype=np.uint64)
        x, y = _philox4x32_10(key, *counters.T)
        for row, xi, yi in zip(counters, x, y):
            x1, y1 = _philox4x32_10(key, *(np.array([w], dtype=np.uint64) for w in row))
            assert (xi, yi) == (x1[0], y1[0])

    @pytest.mark.parametrize(
        "generator, kwargs",
        [("haar", {"dims": (3, 3)}), ("circuit", {"n_qubits": 4, "j": 3}), pytest.param("haar", {"dims": (5, 3)}, id="haar-5x3")],
    )
    def test_sample_depends_on_seed_and_index_only(self, generator, kwargs):
        # The chunk size: 2**14 // 9 samples of 3 x 3 uniforms, 2**14 // 15 of 5 x 3, 2**14 // 16 of 4 qubits.
        edge = 2**14 // (math.prod(kwargs["dims"]) if generator == "haar" else 16)
        batch = SampleBatch(master_seed=19, count=2 * edge + 60, generator=generator, **kwargs)
        full = sample_negativities(batch, threads=3)
        for count in (1, 511, 512, 513, edge - 1, edge, edge + 1):
            for threads in (1, 3):
                batch = SampleBatch(master_seed=19, count=count, generator=generator, **kwargs)
                assert np.array_equal(sample_negativities(batch, threads=threads), full[:count])
        chunk = partial(_haar_chunk, *kwargs["dims"]) if generator == "haar" else partial(_circuit_chunk, 4, 3)
        for index in (0, 1, 511, 512, 513, 1099, edge - 1, edge, edge + 1, 2 * edge + 59):
            assert chunk(_stream_key(19), index, index + 1)[0] == full[index]

    def test_seeds_of_any_size(self):
        a = haar_pure_state(2, 2, 2**70, 3)
        b = haar_pure_state(2, 2, 2**70 + 1, 3)
        assert np.array_equal(a, haar_pure_state(2, 2, 2**70, 3))
        assert not np.array_equal(a, b)
        with pytest.raises(ValueError):
            haar_pure_state(2, 2, -1)

    def test_index_range(self):
        last = 2**64 - 1
        assert np.array_equal(haar_pure_state(2, 2, 5, last), haar_pure_state(2, 2, 5, last))
        for index in (-1, 2**64):
            with pytest.raises(ValueError):
                haar_pure_state(2, 2, 5, index)

    def test_box_muller_extremes_are_finite(self, monkeypatch):
        # _uniforms' extremes, 2**-53 and 1, and values between: u1 runs along
        # the samples and u2 along the pairs.
        u = np.array([2.0**-53, 2.0**-52, 0.5, 1.0 - 2.0**-53, 1.0])
        uniforms = np.empty((2 * u.size, u.size))
        uniforms[0::2] = u
        uniforms[1::2] = u[:, np.newaxis]
        monkeypatch.setattr(sampling, "_uniforms", lambda key, start, stop, count, first=0: uniforms.copy())
        z = _normals(_stream_key(0), 0, u.size, u.size)
        assert np.all(np.isfinite(z))
        # u1 = 1 exactly: the radius, and both normals, are 0.
        assert np.all(z[:, -1] == 0.0)

    def test_normals_moments(self):
        z = _normals(_stream_key(2024), 0, 1000, 500).ravel()
        assert z.size == 10**6
        assert np.all(np.isfinite(z))
        assert abs(z.mean()) < 5 / math.sqrt(z.size)
        # The variance of the sample variance of unit normals is 2 / n.
        assert abs(z.var() - 1.0) < 5 * math.sqrt(2.0 / z.size)


def _numpy_key(seed):
    return tuple(int(word) for word in np.random.SeedSequence(seed).generate_state(2, np.uint32))


class TestStreamKey:
    """The pure-Python key is SeedSequence's, word for word."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**70, 2**128 + 12345])
    def test_matches_seed_sequence(self, seed):
        assert _stream_key(seed) == _numpy_key(seed)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**256 - 1))
    def test_matches_seed_sequence_on_any_seed(self, seed):
        assert _stream_key(seed) == _numpy_key(seed)

    def test_numpy_integer_seeds(self):
        assert _stream_key(np.int64(7)) == _stream_key(7) == _numpy_key(np.int64(7))
        assert _stream_key(np.uint64(2**63 + 5)) == _numpy_key(2**63 + 5)
        with pytest.raises(TypeError):
            _stream_key(1.5)

    def test_negative_seed_is_numpys_error(self):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            _stream_key(-1)


class TestDrawBlocks:
    """Chunks, and the gate draws of a circuit chunk, are sized by the element
    budget _CHUNK_ELEMENTS; the budget moves no byte."""

    @pytest.mark.parametrize("draw_blocks", [1, 24, 64])
    @pytest.mark.parametrize("n_qubits, rounds", [(2, 5), (4, 0), (4, 1), (4, 5), (4, 9), (6, 7)])
    def test_any_block_size_gives_the_same_bytes(self, monkeypatch, draw_blocks, n_qubits, rounds):
        # A budget of draw_blocks Philox blocks per sample of a 128-sample chunk.
        # At 1, every batch is cut into 128-sample chunks that draw one round
        # at a time; larger budgets give fewer chunks and several rounds per draw.
        batch = SampleBatch(master_seed=11, count=600, n_qubits=n_qubits, generator="circuit", j=rounds)
        expected = sample_negativities(batch)
        monkeypatch.setattr(sampling, "_CHUNK_ELEMENTS", 128 * draw_blocks)
        for threads in (1, 3):
            assert np.array_equal(sample_negativities(batch, threads=threads), expected)

    @pytest.mark.parametrize("budget", [1, 2**20])
    @pytest.mark.parametrize("dims", [(2, 2), (3, 5), (5, 3)])
    def test_any_budget_gives_the_same_haar_bytes(self, monkeypatch, budget, dims):
        # 1 gives 128-sample chunks, 2**20 one chunk for the whole batch.
        batch = SampleBatch(master_seed=11, count=600, dims=dims)
        expected = sample_negativities(batch)
        monkeypatch.setattr(sampling, "_CHUNK_ELEMENTS", budget)
        for threads in (1, 3):
            assert np.array_equal(sample_negativities(batch, threads=threads), expected)

    def test_normals_offset_continues_the_stream(self):
        key = _stream_key(9)
        whole = _normals(key, 5, 700, 12)
        assert np.array_equal(_normals(key, 5, 700, 7, first=5), whole[10:])

    def test_uniforms_offset_continues_the_stream(self):
        key = _stream_key(9)
        whole = _uniforms(key, 5, 700, 24)
        assert np.array_equal(_uniforms(key, 5, 700, 14, first=5), whole[10:])
        assert np.array_equal(_uniforms(key, 5, 700, 13, first=5), whole[10:23])

    def test_memory_does_not_grow_with_rounds(self):
        import tracemalloc

        def peak(rounds):
            batch = SampleBatch(master_seed=3, count=1024, n_qubits=4, generator="circuit", j=rounds)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sample_negativities(batch, threads=1)
            return tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            peak(1)  # fills the module's caches
            assert abs(peak(400) - peak(40)) < 0.25 * 2**20
        finally:
            tracemalloc.stop()

    def test_large_haar_states_come_in_small_chunks(self):
        import tracemalloc

        # 300 samples of 32 x 32 uniforms, 8 KiB each, are three chunks of at
        # most 128 samples, and one 1 MiB chunk's draw and eigenvalues peak near
        # 3 MiB. As one 300-sample chunk they peak above 7 MiB.
        batch = SampleBatch(master_seed=3, count=300, dims=(32, 32))
        tracemalloc.start()
        try:
            sample_negativities(SampleBatch(master_seed=3, count=1, dims=(32, 32)))  # fills the caches
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sample_negativities(batch, threads=1)
            assert tracemalloc.get_traced_memory()[1] - base < 5 * 2**20
        finally:
            tracemalloc.stop()


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestBytePins:
    """SHA-256 of sampled bytes. The Haar digests were recorded when Haar
    batches moved to the bidiagonal model (stream philox4x32-10/bidiagonal/2),
    the circuit ones when circuit gates moved to Hopf coordinates and circuit
    spectra to eigvalsh of M M^H (stream philox4x32-10/hopf/3); circuit-n4-j0,
    the product state, is older and held through both. The stream tests
    above compare a batch with the chunk kernels at one index; these catch a
    change that moves both. The Haar bytes come from numpy's log and sqrt
    and LAPACK syevd, the circuit bytes from numpy's sqrt, tan and matmul
    (the batched M M^H) and LAPACK heevd, so they are pinned for one platform
    (numpy 2.4, x86-64 with AVX-512)."""

    SEED = 20261018

    @pytest.mark.parametrize(
        "generator, kwargs, count, digest",
        [
            pytest.param("haar", {"dims": (2, 2)}, 1100, "1b984cb111c45b28c693e426b5a17c63e67ece3b80df5ee053e6d9f642c80585", id="haar-mu2"),
            pytest.param("haar", {"dims": (4, 4)}, 1100, "19d9f8657e8f5574359ecc9843be0ef677321861e03be3a54cc015fba6bf9f7e", id="haar-mu4"),
            pytest.param("circuit", {"n_qubits": 4, "j": 0}, 600, "24ddaa4710480313757f965c38d60208a334556cb244f830d5006a893edd8da7", id="circuit-n4-j0"),
            pytest.param("circuit", {"n_qubits": 4, "j": 1}, 600, "c94a16511e62e5ea0f4d56c3a6bc415821112da105363ac5dcc8b36d18c88827", id="circuit-n4-j1"),
            pytest.param("circuit", {"n_qubits": 4, "j": 3}, 600, "c4d58f3bdcd7805e95ff258bdbf4e36b3cf1dd84ceb37c25852f05c013301641", id="circuit-n4-j3"),
            pytest.param("circuit", {"n_qubits": 4, "j": 4}, 600, "d2d53ff10316dd3526a6d72d0e8b9ecdc194f5258856eb94ca6acf05c67d9dc7", id="circuit-n4-j4"),
            pytest.param("circuit", {"n_qubits": 4, "j": 5}, 600, "c32516ce50c0f91b167ce8ad1169afc68bb24423ee0ee5eac26a65c5126b2e15", id="circuit-n4-j5"),
            pytest.param("circuit", {"n_qubits": 4, "j": 40}, 600, "1091a7e173aba669fb43b916c651bbd63580dcf34d3e5e3dea5485298759c172", id="circuit-n4-j40"),
            pytest.param("circuit", {"n_qubits": 6, "j": 7}, 600, "d6ba27204dda5219f76e16c8e6e28b67f6c39733cfd4caea51da2baa98ca7593", id="circuit-n6-j7"),
            pytest.param("circuit", {"n_qubits": 8, "j": 9}, 300, "7fd9f41798843989e1e31a7f36a16108161ef7d32a84524b990c9c2f6bd1aeb0", id="circuit-n8-j9"),
        ],
    )
    def test_batch_bytes(self, generator, kwargs, count, digest):
        batch = SampleBatch(master_seed=self.SEED, count=count, generator=generator, **kwargs)
        assert _sha256(sample_negativities(batch, threads=2)) == digest

    @pytest.mark.parametrize(
        "index, digest",
        [
            pytest.param(0, "121c89b8cc1efadbd254c6936d6cc411c2948e26a0cebee743a976c69751a7ad", id="index0"),
            pytest.param(513, "205e5b502cda464e262e3b056ad7e05a43d83c6d0495cba16b75ea32d4a2b38f", id="index513"),
        ],
    )
    def test_circuit_state_bytes(self, index, digest):
        assert _sha256(circuit_state(6, 5, self.SEED, index)) == digest

    # The Ginibre oracle's Box-Muller normals (numpy's log, sqrt, cos and
    # sin), recorded while _normals still read the Philox words itself.
    @pytest.mark.parametrize(
        "dims, index, digest",
        [
            pytest.param((2, 2), 0, "a9a8b5e5a70d8f426f439fd6d09ff489d5076d2d43b849ab729962337b4ce9a6", id="2x2-index0"),
            pytest.param((2, 2), 2**40 + 1, "e715f627a65748b1dee5f64bc1b4aa36af7c931d58241e6f3c027da9d7d96b75", id="2x2-index2**40+1"),
            pytest.param((3, 5), 0, "a87d9cb5a52509034a8441b2b3a8273ab3246759a5416804905e2e82461a0b54", id="3x5-index0"),
            pytest.param((3, 5), 2**40 + 1, "81e58a9ba417d212c2aed8297f059b1f9361b43d28b5f9d6c1aa6e62f80eefd3", id="3x5-index2**40+1"),
        ],
    )
    def test_haar_pure_state_bytes(self, dims, index, digest):
        assert _sha256(haar_pure_state(*dims, self.SEED, index)) == digest

    def test_normals_bytes(self):
        digest = "51e853877a958b4dc161ec98618e462924719cc0703cab0ef1cdb04c9359a9b2"
        assert _sha256(_normals(_stream_key(self.SEED), 5, 700, 7, first=5)) == digest


class TestGateKernel:
    @pytest.mark.parametrize("n_qubits", [2, 4, 6])
    def test_matches_dense_operator(self, n_qubits):
        rng = np.random.default_rng(n_qubits)
        batch = 3
        dim = 2**n_qubits
        psi = rng.standard_normal((dim, batch)) + 1j * rng.standard_normal((dim, batch))
        for qubit in range(n_qubits):
            gates = rng.standard_normal((2, 2, batch)) + 1j * rng.standard_normal((2, 2, batch))
            out, scratch = np.empty_like(psi), np.empty_like(psi)
            _apply_single_qubit(psi, gates, qubit, out, scratch)
            for b in range(batch):
                dense = np.kron(np.kron(np.eye(2**qubit), gates[:, :, b]), np.eye(2 ** (n_qubits - 1 - qubit)))
                assert np.abs(out[:, b] - dense @ psi[:, b]).max() < 1e-12


class TestReducedState:
    def test_reduced_state_is_normalized(self):
        state = haar_pure_state(2, 16, 77, 0)
        rho_a = reduced_state_a(state)
        assert rho_a.shape == (2, 2)
        assert np.trace(rho_a).real == pytest.approx(1.0, abs=1e-12)
        eigenvalues = np.linalg.eigvalsh(rho_a)
        assert np.allclose(np.sort(eigenvalues)[::-1], spectrum(state), atol=1e-10)
