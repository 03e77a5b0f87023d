"""Random pure states and the negativities of reproducible sample batches.

A sample's negativity is ((sum_i s_i)^2 - 1) / 2, with s_i the square
roots of its Schmidt coefficients. A Haar batch needs no state: it draws the
Schmidt spectrum from the bidiagonal model of the fixed-trace Laguerre
ensemble (one small tridiagonal eigenvalue problem per sample). The Haar
state itself, ``haar_pure_state``, is a normalized complex Gaussian vector
(the induced measure on rays is the Haar one), and serves as the oracle of
the batch's law. Pseudorandom states come from a layered circuit: each
round applies an independent Haar-random 2x2 rotation to every qubit
followed by a fixed controlled-phase layer on a nearest-neighbour ring, and
a circuit sample's Schmidt coefficients are the eigenvalues of the Gram
matrix M M^H of its amplitude matrix M.

Every random number comes from one counter-based stream, named by
``STREAM_ID``: Philox4x32-10 (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11) keyed by numpy's ``SeedSequence(master_seed)``,
run on Python ints, and evaluated at the counter (block, 0, low and high 32
bits of the sample index). One reader, ``_uniforms``, turns each block
into two uniforms. A Haar batch takes them as they are, the circuit builds
each gate from three, in Hopf coordinates, and ``haar_pure_state`` turns
each pair into two standard normals by Box-Muller. Sample i of a batch is
therefore a function of (master_seed, i) alone: results are bit-identical
for any chunking or thread count, and a chunk kernel run over [i, i + 1)
reproduces sample i of a batch. The chunked kernels vectorize over samples
without changing any per-sample arithmetic.

A chunk is sized by its work rather than by a sample count: it holds about
_CHUNK_ELEMENTS amplitudes (uniforms, for a Haar batch), and never fewer
than 128 samples. Each numpy call then covers enough work for worker
threads to overlap, and large states come in chunks of few samples, which
bounds the memory. The calling thread is one of the workers.

The module imports numpy when it runs; only ``sample`` and ``compare``
run it, and the package loads it lazily.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

__all__ = [
    "STREAM_ID",
    "SampleBatch",
    "haar_pure_state",
    "sample_negativities",
    "reduced_state_a",
]

#: Names the random stream behind every sampled value. Any change to the
#: generator, its keying or the transforms of its words gets a new id.
STREAM_ID = "philox4x32-10/hopf/3"

#: A Schmidt coefficient below this is round-off and counts as zero. The
#: test is made on the eigenvalues of a Gram matrix: the circuit's M M^H or
#: the bidiagonal model's B^T B.
SPECTRUM_CLIP = 1e-15

#: Work per numpy call of the sampling kernels. A chunk holds
#: max(128, _CHUNK_ELEMENTS // (mu nu or 2**n_qubits)) samples, and a circuit
#: chunk draws its gates in whole rounds of at most _CHUNK_ELEMENTS Philox
#: blocks (at least one round), so its memory does not grow with the round
#: count. Results are per-sample deterministic: this only moves speed and
#: memory.
_CHUNK_ELEMENTS = 2**14


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible sampling campaign specification.

    Identical fields give identical sample vectors, independent of worker
    count or evaluation order. A haar batch is sized by dims alone, a
    circuit batch by an even n_qubits alone. count, j, n_qubits and both
    dims must be integers (numpy integers included), master_seed a
    nonnegative one. A sample may draw at most 2**32 Philox blocks
    (ceil(dims[0] * dims[1] / 2), or 3 n_qubits j / 2); OverflowError
    beyond that.
    """

    master_seed: int
    count: int
    dims: tuple[int, int] | None = None
    n_qubits: int | None = None
    generator: str = "haar"
    j: int = 40

    def __post_init__(self):
        for value in (self.count, self.j, 0 if self.n_qubits is None else self.n_qubits, *(self.dims or ())):
            operator.index(value)  # TypeError for a float, as for the seed in _stream_key
        circuit = self.generator == "circuit"
        if (self.dims is None) != circuit or (self.n_qubits is None) == circuit:
            raise ValueError("a haar batch takes dims and a circuit batch takes n_qubits")
        if self.dims is not None and not (len(self.dims) == 2 and min(self.dims) >= 1):
            raise ValueError("dimensions must be at least 1")
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        if self.generator not in ("haar", "circuit"):
            raise ValueError(f"unknown generator {self.generator!r}")
        if circuit:
            if self.j < 0:
                raise ValueError("round count must be nonnegative")
            if self.n_qubits < 2 or self.n_qubits % 2:
                raise ValueError("n_qubits must be even and at least 2")
        _check_blocks(3 * self.n_qubits * self.j // 2 if circuit else (self.dims[0] * self.dims[1] + 1) // 2)
        _stream_key(self.master_seed)  # last, so the errors above come first


# ---------------------------------------------------------------------------
# the random stream
# ---------------------------------------------------------------------------

#: Philox4x32 round multipliers (M0, M1) and Weyl key increments.
_PHILOX_M = (0xD2511F53, 0xCD9E8D57)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_PHILOX_ROUNDS = 10

def _check_blocks(blocks: int) -> None:
    """Refuse a sample of more than 2**32 Philox blocks.

    Block b is the first 32-bit counter word, so block 2**32 would wrap to
    block 0 and repeat it. A Haar batch sample draws ceil(mu nu / 2)
    blocks, a circuit sample 3 n_qubits j / 2, and haar_pure_state mu nu.
    """
    if blocks > 2**32:
        raise OverflowError(f"a sample needs {blocks} Philox blocks, more than 2**32")


#: Explicit little-endian words, so the 32-bit halves of a 64-bit product
#: sit at the same view positions on every platform.
_U32 = "<u4"
_U64 = "<u8"


#: numpy.random.SeedSequence's constants: (init, multiplier) of the pool
#: hash and of the output hash, the two mix multipliers, the pool size.
_SEED_A = (0x43B0D7E5, 0x931E8875)
_SEED_B = (0x8B51F9DD, 0x58F38DED)
_SEED_MIX = (0xCA01F9DD, 0x4973F715)
_SEED_POOL = 4
_M32 = 0xFFFFFFFF


@lru_cache(maxsize=64)
def _stream_key(master_seed: int) -> tuple[int, int]:
    """Philox key of a master seed; any nonnegative integer is accepted.

    ``numpy.random.SeedSequence(master_seed).generate_state(2, uint32)`` on
    Python ints, so that sampling never loads numpy.random.
    """
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ValueError("expected non-negative integer")
    words = [master_seed >> shift & _M32 for shift in range(0, max(master_seed.bit_length(), 1), 32)]
    hash_const, mult = _SEED_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_SEED_MIX[0] * x - _SEED_MIX[1] * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_SEED_POOL)]
    for src in range(_SEED_POOL):
        for dst in range(_SEED_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_SEED_POOL:]:
        for dst in range(_SEED_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state: the same hash, restarted with the B constants.
    hash_const, mult = _SEED_B
    return hashmix(pool[0]), hashmix(pool[1])


def _philox4x32_10(key: tuple[int, int], c0, c1, c2, c3) -> tuple[np.ndarray, np.ndarray]:
    """Philox4x32-10 of broadcastable counter words (values below 2**32).

    Returns the output words (w0, w1, w2, w3) packed into two uint64 arrays
    of the broadcast shape (at least one axis): w0 * 2**32 + w1 and
    w2 * 2**32 + w3.
    """
    counter = np.broadcast(c0, c1, c2, c3)
    lead = (2,) + (1,) * counter.ndim
    # Both halves of a round run as one stacked operation: even holds the
    # multiplied words (x0, x2), odd the xored ones (x1, x3).
    even = np.empty((2,) + counter.shape, _U32)
    odd = np.empty_like(even)
    even[0], odd[0], even[1], odd[1] = c0, c1, c2, c3
    multipliers = np.array(_PHILOX_M, dtype=np.uint64).reshape(lead)
    keys = np.arange(_PHILOX_ROUNDS, dtype=np.uint64)[:, np.newaxis] * np.array(_PHILOX_W, dtype=np.uint64)
    keys = ((keys + np.array(key, dtype=np.uint64)) & 0xFFFFFFFF).astype(_U32).reshape((_PHILOX_ROUNDS,) + lead)
    # Products alternate between two buffers: the low words of one round's
    # products are read while the next round's products are written.
    buffers = [np.empty(even.shape, _U64) for _ in range(2)]
    for r in range(_PHILOX_ROUNDS):
        product = buffers[r % 2]
        np.multiply(even, multipliers, out=product, dtype=np.uint64)
        words = product.view(_U32)
        hi, lo = words[..., 1::2], words[..., 0::2]
        # (x0, x2) <- (hi1 ^ x1 ^ k0, hi0 ^ x3 ^ k1) and (x1, x3) <- (lo1, lo0).
        # The last round writes over the products' own high words, which
        # packs the output words with no further pass.
        if r == _PHILOX_ROUNDS - 1:
            even = hi[::-1]
        np.bitwise_xor(hi[::-1], odd, out=even)
        even ^= keys[r]
        odd = lo[::-1]
    return product[1], product[0]


def _uniforms(key: tuple[int, int], start: int, stop: int, count: int, first: int = 0) -> np.ndarray:
    """Uniforms 2 first .. 2 first + count - 1 in (0, 1] of samples start..stop-1, shape (count, stop - start).

    Uniform 2 first + k of sample start + s is entry [k, s]: samples run
    along the last axis, which keeps every later per-sample operation
    contiguous. Block b of sample i is Philox4x32-10 at the counter
    (b, 0, i mod 2**32, i >> 32), and its two packed words give uniforms 2b
    and 2b + 1: the top 53 bits, plus one, times 2**-53. An odd count leaves
    the second word of the last block unused. This is the only reader of
    the stream.
    """
    index = np.arange(start, stop, dtype=np.uint64)
    blocks = np.arange(first, first + (count + 1) // 2, dtype=np.uint64)[:, np.newaxis]
    words = _philox4x32_10(key, blocks, 0, index & 0xFFFFFFFF, index >> 32)
    u = np.empty((blocks.size, 2, stop - start))
    for k, word in enumerate(words):
        word >>= 11
        u[:, k] = word
    u += 1.0
    u *= 2.0**-53
    return u.reshape(-1, stop - start)[:count]


def _normals(key: tuple[int, int], start: int, stop: int, pairs: int, first: int = 0) -> np.ndarray:
    """Normals 2 first .. 2 (first + pairs) - 1 of samples start..stop-1, shape (2 * pairs, stop - start).

    Box-Muller on uniforms 2b and 2b + 1 of _uniforms, u1 and u2: normals
    2b and 2b + 1 are r cos(theta) and r sin(theta), with r = sqrt(-2 ln u1)
    and theta = 2 pi (u2 - 2**-53) in [0, 2 pi). The subtraction is exact:
    u2 - 2**-53 is the word's top 53 bits over 2**53.
    """
    u = _uniforms(key, start, stop, 2 * pairs, first).reshape(pairs, 2, stop - start)
    # log, cos and sin read contiguous copies: numpy's strided loops can
    # round differently from its contiguous ones.
    r = u[:, 0].copy()
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = u[:, 1] - 2.0**-53
    theta *= 2.0 * np.pi
    np.cos(theta, out=u[:, 0])
    u[:, 0] *= r
    np.sin(theta, out=u[:, 1])
    u[:, 1] *= r
    return u.reshape(2 * pairs, stop - start)


def _haar_amplitudes(mu: int, nu: int, key: tuple[int, int], start: int, stop: int) -> np.ndarray:
    """Normalized complex Gaussian vectors of samples start..stop-1."""
    z = np.ascontiguousarray(_normals(key, start, stop, mu * nu).T).view(np.complex128)
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    return z


def haar_pure_state(mu: int, nu: int, master_seed: int, index: int = 0) -> np.ndarray:
    """Haar-random pure state on a mu x nu space: the Ginibre oracle of a Haar batch.

    Returns the (mu, nu) complex128 amplitude matrix, subsystem A indexing
    rows: 2 mu nu normals from the mu nu Philox blocks of sample ``index``,
    normalized. Its Schmidt spectrum has the law of a Haar ``SampleBatch``
    sample, but it is not that sample, and it reads the same blocks, so an
    independent check of a batch takes another seed. It refuses
    mu nu > 2**32 with OverflowError.
    """
    if mu < 1 or nu < 1:
        raise ValueError("dimensions must be at least 1")
    if not 0 <= index < 2**64:
        raise ValueError("sample index must be in [0, 2**64)")
    _check_blocks(mu * nu)
    return _haar_amplitudes(mu, nu, _stream_key(master_seed), index, index + 1)[0].reshape(mu, nu)


def reduced_state_a(m: np.ndarray) -> np.ndarray:
    """Reduced density matrix M M^H on subsystem A of a (mu, nu) amplitude matrix M, or of each in a stack."""
    return m @ m.conj().swapaxes(-1, -2)


def _gram_negativity(gram: np.ndarray) -> np.ndarray:
    """Pure-state negativity from each unit-trace Gram matrix in a stack.

    The Gram matrix is a reduced state, or one with its spectrum, so its
    eigenvalues p_i are the Schmidt coefficients. Those below SPECTRUM_CLIP
    count as zero, and the rest give ((sum_i sqrt p_i)^2 - 1) / 2. eigvalsh
    reads the lower triangle only.
    """
    p = np.linalg.eigvalsh(gram)
    p[p < SPECTRUM_CLIP] = 0.0
    return _root_sum_negativity(np.sqrt(p, out=p))


def _root_sum_negativity(s: np.ndarray) -> np.ndarray:
    """((sum_i s_i)^2 - 1) / 2 over the last axis of the Schmidt roots s_i, at least 0."""
    total = s.sum(axis=-1)
    return np.maximum(0.0, (total * total - 1.0) / 2.0)


# ---------------------------------------------------------------------------
# pseudorandom circuit states
# ---------------------------------------------------------------------------


def _su2_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Map (..., 3, batch) uniforms in (0, 1] to Haar-random SU(2) (..., 2, 2, batch).

    Hopf coordinates (Shoemake, "Uniform random rotations", Graphics Gems
    III, 1992): uniforms (x, v, w) give a + ib = sqrt(x) e^(i alpha) and
    c + id = sqrt(1 - x) e^(i beta), with alpha = 2 pi v - pi and beta =
    2 pi w - pi, placed in [[a + ib, c + id], [-c + id, a - ib]]. Each phase
    comes from the tangent of its half angle, t = tan(pi (v - 1/2)), as
    cos = (1 - t^2) / (1 + t^2) and sin = 2 t / (1 + t^2): no log, sin, cos
    or normalization. u is overwritten.
    """
    x, t = u[..., 0, :], u[..., 1:, :]
    t -= 0.5
    t *= np.pi
    np.tan(t, out=t)
    # square = 1 + t^2 and scale = r / (1 + t^2), for the moduli r = sqrt(x)
    # and sqrt(1 - x) of a + ib and c + id, in contiguous buffers.
    square = np.multiply(t, t)
    square += 1.0
    scale = np.empty_like(square)
    np.sqrt(x, out=scale[..., 0, :])
    np.subtract(1.0, x, out=scale[..., 1, :])
    np.sqrt(scale[..., 1, :], out=scale[..., 1, :])
    scale /= square
    # First row: r (1 - t^2) / (1 + t^2) = scale (2 - square), and 2 t scale,
    # which overwrites t. scale is freed before the gates are allocated.
    real = np.subtract(2.0, square, out=square)
    real *= scale
    t += t
    imag = np.multiply(scale, t, out=t)
    del scale
    # Each of the eight planes is written once, from the first row's values.
    gates = np.empty(u.shape[:-2] + (2, 2) + u.shape[-1:], dtype=np.complex128)
    re, im = gates.real, gates.imag
    re[..., 0, :, :] = real
    im[..., 0, :, :] = imag
    np.negative(real[..., 1, :], out=re[..., 1, 0, :])
    im[..., 1, 0, :] = imag[..., 1, :]
    re[..., 1, 1, :] = real[..., 0, :]
    np.negative(imag[..., 0, :], out=im[..., 1, 1, :])
    return gates


@lru_cache(maxsize=None)
def _cz_layer_diagonal(n_qubits: int) -> np.ndarray:
    """Diagonal (+-1) of the controlled-phase layer on the ring of qubits."""
    edges = sorted({tuple(sorted((q, (q + 1) % n_qubits))) for q in range(n_qubits)})
    index = np.arange(2**n_qubits)
    diag = np.ones(2**n_qubits)
    for u, v in edges:
        bit_u = (index >> (n_qubits - 1 - u)) & 1
        bit_v = (index >> (n_qubits - 1 - v)) & 1
        diag *= np.where((bit_u & bit_v).astype(bool), -1.0, 1.0)
    return diag


def _apply_single_qubit(psi: np.ndarray, gates: np.ndarray, qubit: int, out: np.ndarray, scratch: np.ndarray) -> None:
    """Apply per-sample 2x2 gates (2, 2, batch) on one qubit of a (2**n, batch) stack.

    The result goes to out; scratch holds the second products. Both are
    buffers of psi's shape that overlap neither psi nor each other. Samples
    run along the last axis, so each product broadcasts a gate column over
    contiguous rows of the batch.
    """
    view = psi.reshape(2**qubit, 2, -1, psi.shape[-1])
    # Output row r is gates[r, 0] v0 + gates[r, 1] v1, both rows in each call.
    products = out.reshape(view.shape)
    np.multiply(gates[:, 0, np.newaxis], view[:, 0, np.newaxis], out=products)
    second = scratch.reshape(view.shape)
    np.multiply(gates[:, 1, np.newaxis], view[:, 1, np.newaxis], out=second)
    products += second


def _circuit_states(n_qubits: int, rounds: int, key: tuple[int, int], start: int, stop: int) -> np.ndarray:
    """Circuit statevectors of samples start..stop-1, shape (2**n, stop - start).

    Qubit 0 is the most significant index, and _circuit_chunk splits the
    first n/2 qubits from the rest; zero rounds leave the all-zeros state.
    Gate q of round r takes uniforms 3 (n r + q) .. 3 (n r + q) + 2 of each
    sample, so a round is 3 n / 2 Philox blocks, drawn in whole rounds of at
    most _CHUNK_ELEMENTS blocks (at least one round); the gates write to two
    state buffers in turn.
    """
    batch = stop - start
    psi = np.zeros((2**n_qubits, batch), dtype=np.complex128)
    psi[0] = 1.0
    if rounds == 0:
        return psi
    spare, scratch = np.empty_like(psi), np.empty_like(psi)
    diag = _cz_layer_diagonal(n_qubits)[:, np.newaxis]
    round_blocks = 3 * n_qubits // 2
    per_draw = max(1, _CHUNK_ELEMENTS // (round_blocks * batch))
    for first in range(0, rounds, per_draw):
        count = min(per_draw, rounds - first)
        gates = _su2_from_uniforms(
            _uniforms(key, start, stop, 3 * count * n_qubits, round_blocks * first).reshape(count, n_qubits, 3, batch)
        )
        for r in range(count):
            for q in range(n_qubits):
                _apply_single_qubit(psi, gates[r, q], q, spare, scratch)
                psi, spare = spare, psi
            psi *= diag
        del gates  # freed before the next draw, where a chunk peaks
    return psi


# ---------------------------------------------------------------------------
# batched sampling
# ---------------------------------------------------------------------------


def _bidiagonal_squares(m: int, n: int, key: tuple[int, int], start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared entries of the bidiagonal model of Haar samples start..stop-1, over their sum.

    For m <= n, the Schmidt spectrum of a Haar state on an m x n space is
    that of B^T B / tr(B^T B), for a lower-bidiagonal m x m B whose squared
    diagonal entries are Gamma(n), ..., Gamma(n - m + 1) and squared
    subdiagonal entries Gamma(m - 1), ..., Gamma(1), all independent
    (Dumitriu and Edelman, J. Math. Phys. 43, 5830, 2002). A Gamma(k)
    variate is -sum ln U over the sample's next k uniforms, in that order,
    so a sample takes m n uniforms. Returns the diagonal (m, batch) and the
    subdiagonal (m - 1, batch) squares, which sum to 1.
    """
    logs = np.log(_uniforms(key, start, stop, m * n))
    degrees = np.array([*range(n, n - m, -1), *range(m - 1, 0, -1)])
    first = np.concatenate(([0], np.cumsum(degrees[:-1])))
    # Every sum runs term by term, left to right: a numpy reduction could
    # pick another order for another chunk size. The sums stay negative,
    # which leaves their ratios as they are.
    g = logs[first]
    for j in range(1, n):
        live = np.flatnonzero(degrees > j)
        g[live] += logs[first[live] + j]
    total = g[0].copy()
    for row in g[1:]:
        total += row
    g /= total
    return g[:m], g[m:]


def _haar_chunk(mu: int, nu: int, key: tuple[int, int], start: int, stop: int) -> np.ndarray:
    """Negativities of Haar samples start..stop-1, from the eigenvalues of the bidiagonal model's B^T B."""
    m = min(mu, nu)
    diagonal, sub = _bidiagonal_squares(m, max(mu, nu), key, start, stop)
    # B^T B is tridiagonal: diagonal d[i] + e[i] and off-diagonal
    # sqrt(e[i] d[i + 1]) for the squares d and e; eigvalsh reads the lower
    # triangle.
    gram = np.zeros((stop - start, m * m))
    gram[:, :: m + 1] = diagonal.T
    gram[:, : (m - 1) * (m + 1) : m + 1] += sub.T
    gram[:, m :: m + 1] = np.sqrt(sub * diagonal[1:]).T
    return _gram_negativity(gram.reshape(-1, m, m))


def _circuit_chunk(n_qubits: int, rounds: int, key: tuple[int, int], start: int, stop: int) -> np.ndarray:
    """Negativities of circuit samples start..stop-1, from the eigenvalues of M M^H for each amplitude matrix M."""
    half = 2 ** (n_qubits // 2)
    states = _circuit_states(n_qubits, rounds, key, start, stop)
    return _gram_negativity(reduced_state_a(states.T.reshape(-1, half, half)))


def sample_negativities(batch: SampleBatch, threads: int = 1) -> np.ndarray:
    """Negativity of every sample in the batch, in sample order.

    Sample i depends only on (master_seed, i), so the output is identical
    for any thread count and any chunking of the work. The calling thread
    is one of the workers; a helper that cannot start leaves its chunks to
    the workers already running.

    BLAS may run threads of its own beside the workers, on the same cores:
    they spin after numpy loads and split large LAPACK calls. This function
    leaves the environment alone, since BLAS reads its thread count once,
    when numpy loads. A caller that wants one BLAS thread per worker, as
    ``sample`` and ``compare`` have, sets OPENBLAS_NUM_THREADS (or its MKL,
    OpenMP or Accelerate twin) to 1 before it imports numpy. The values do
    not depend on it.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    out = np.empty(batch.count)
    key = _stream_key(batch.master_seed)
    if batch.generator == "haar":
        chunk, elements = partial(_haar_chunk, *batch.dims, key), batch.dims[0] * batch.dims[1]
    else:
        chunk, elements = partial(_circuit_chunk, batch.n_qubits, batch.j, key), 2**batch.n_qubits
    # Below 128 samples a chunk's numpy calls get too short to pay for themselves.
    size = max(128, _CHUNK_ELEMENTS // elements)
    starts = range(0, batch.count, size)
    pending = iter(starts)
    lock = threading.Lock()
    failures = []

    def work():
        try:
            while not failures:
                with lock:
                    start = next(pending, None)
                if start is None:
                    return
                stop = min(start + size, batch.count)
                out[start:stop] = chunk(start, stop)
        except BaseException as exc:  # raised again below, once every worker has stopped
            failures.append(exc)

    helpers = []
    for _ in range(min(threads, len(starts)) - 1):
        helper = threading.Thread(target=work)
        try:
            helper.start()
        except RuntimeError:  # "can't start new thread"
            break
        helpers.append(helper)
    work()
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[0]
    return out
