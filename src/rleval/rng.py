"""Seeded deterministic random numbers.

All randomness in the toolkit flows through this module: SeededRng for
generic draws and `bootstrap_means` for the resampling kernel. Both run on
the Philox4x32-10 counter generator (Salmon et al., 2011), a bijective
keyed mixing of a 128-bit counter into four 32-bit words, ten rounds. The
same seed yields the same stream on every platform and process run; there
is no global or time-based state anywhere.

Key derivation: the 64-bit seed is diffused through splitmix64 and split
into the two 32-bit Philox key words. Counter layout:

    word0 = block index, low 32 bits
    word1 = block index, high 32 bits
    word2 = stream id   (e.g. bootstrap resample index, run index)
    word3 = domain tag  (keeps unrelated consumers on disjoint streams)

Domain tags 3 and 4 belonged to consumers that were removed; they are
never reused, so no stream drawn today repeats one that an older release
drew.

The uniforms and the bootstrap means are integer arithmetic plus IEEE-754
double operations in a defined order, so they are bit-identical across
platforms. `standard_normal` is so only for the 85% of draws whose
uniform lies within 0.425 of 1/2: the quantile's tails call np.log, whose
loop numpy picks per SIMD class.

That quantile, Wichura's AS 241, lives here beside `standard_normal`, its
one caller in the package, so that `synth` loads no `special`; `special`
imports it under the same name. So does `horner`, the one polynomial
evaluator of the package: every coefficient table, AS 241's here and
Cody's, digamma's and Temme's in `special`, holds its constant term first.
"""

import numpy as np

from .errors import NumericError, ValidationError

MAX_SEED = 2**64 - 1

# Domain tags. Values are part of the on-disk reproducibility contract.
DOMAIN_GENERIC = 0
DOMAIN_BOOTSTRAP = 1
DOMAIN_SYNTH = 2  # tags 3 and 4 are retired and never reused

_M64 = (1 << 64) - 1

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# Bound on the blocks that one vectorised Philox step works on: its uint64
# scratch and the bootstrap's draws are O(_MAX_BLOCKS_PER_CALL).
_MAX_BLOCKS_PER_CALL = 1 << 12


def splitmix64(value: int) -> int:
    """One splitmix64 step; used to diffuse user seeds into key material."""
    value = (value + 0x9E3779B97F4A7C15) & _M64
    z = value
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def derive_key(seed: int) -> tuple[int, int]:
    """Split a validated seed into the two 32-bit Philox key words."""
    validate_seed(seed)
    mixed = splitmix64(seed)
    return mixed & 0xFFFFFFFF, mixed >> 32


def validate_seed(seed) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValidationError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed <= MAX_SEED:
        raise ValidationError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def _philox_rounds(c0, c1, c2, c3, key0, key1):
    """Ten Philox4x32 rounds over uint64 arrays holding 32-bit values; the
    four counter words broadcast against each other."""
    k0 = np.uint64(key0)
    k1 = np.uint64(key1)
    for _ in range(10):
        p0 = _M0 * c0
        p1 = _M1 * c2
        hi0 = p0 >> _SHIFT32
        lo0 = p0 & _MASK32
        hi1 = p1 >> _SHIFT32
        lo1 = p1 & _MASK32
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
    return c0, c1, c2, c3


def philox_u32_blocks(key0, key1, domain, stream, block_start, nblocks):
    """Blocks block_start, ..., block_start + nblocks - 1 of one stream, as
    uint32 words of shape (nblocks, 4). `stream` may also be a 1-d array of
    stream ids; the shape is then (len(stream), nblocks, 4), row r holding
    the blocks of stream[r]. Every Philox counter in the toolkit is built
    here."""
    streams = np.asarray(stream, dtype=np.uint64)
    count = streams.size
    out = np.empty((count, nblocks, 4), dtype=np.uint32)
    take = max(1, _MAX_BLOCKS_PER_CALL // max(1, count))
    for done in range(0, nblocks, take):
        stop = min(done + take, nblocks)
        idx = np.arange(block_start + done, block_start + stop, dtype=np.uint64)
        # The counter words broadcast to (stream, block) inside the rounds.
        words = _philox_rounds(
            idx & _MASK32, idx >> _SHIFT32, streams.reshape(-1, 1), np.uint64(domain), key0, key1
        )
        for lane, word in enumerate(words):
            out[:, done:stop, lane] = word
    return out.reshape(streams.shape + (nblocks, 4))


def bootstrap_means(sample, n_resamples, key0, key1, domain):
    """Means of `n_resamples` with-replacement resamples of `sample`.

    Resample i draws len(sample) indices from its own stream (stream id = i,
    block j supplies draws 4j..4j+3). Index draw: (u32 * n) >> 32. The mean
    accumulates in draw order.

    Resamples go in chunks of up to _MAX_BLOCKS_PER_CALL, and each chunk's
    blocks in groups that keep one Philox call within that many blocks, so
    the scratch is O(_MAX_BLOCKS_PER_CALL) whatever n and n_resamples are,
    and each draw's gather-and-add runs over a whole chunk of resamples.
    """
    src = np.ascontiguousarray(sample, dtype=np.float64)
    n = src.shape[0]
    blocks_per = (n + 3) // 4
    means = np.empty(n_resamples, dtype=np.float64)
    chunk = max(1, min(n_resamples, _MAX_BLOCKS_PER_CALL))
    group = max(1, _MAX_BLOCKS_PER_CALL // chunk)
    n_u64 = np.uint64(n)
    for start in range(0, n_resamples, chunk):
        stop = min(start + chunk, n_resamples)
        streams = np.arange(start, stop, dtype=np.uint64)
        acc = np.zeros(stop - start, dtype=np.float64)
        for first in range(0, blocks_per, group):
            nblocks = min(group, blocks_per - first)
            blocks = philox_u32_blocks(key0, key1, domain, streams, first, nblocks)
            idx = blocks.reshape(stop - start, nblocks * 4).astype(np.uint64)
            idx *= n_u64
            idx >>= _SHIFT32
            idx = idx.view(np.int64)  # every index is below n
            for j in range(min(nblocks * 4, n - 4 * first)):
                acc += src[idx[:, j]]
        means[start:stop] = acc / n
    return means


# Wichura (1988), "Algorithm AS 241: the percentage points of the normal
# distribution", Appl. Statist. 37, PPND16: numerator and denominator of
# each rational, constant term first, as the doubles nearest his digits.
_AS241_CENTRAL = (
    (3.3871328727963665, 133.14166789178438, 1971.5909503065513, 13731.69376550946,
     45921.95393154987, 67265.7709270087, 33430.57558358813, 2509.0809287301227),
    (1.0, 42.31333070160091, 687.1870074920579, 5394.196021424751,
     21213.794301586597, 39307.89580009271, 28729.085735721943, 5226.495278852854))
_AS241_NEAR = (
    (1.4234371107496835, 4.630337846156546, 5.769497221460691, 3.6478483247632045,
     1.2704582524523684, 0.2417807251774506, 0.022723844989269184, 7.745450142783414e-4),
    (1.0, 2.053191626637759, 1.6763848301838038, 0.6897673349851,
     0.14810397642748008, 0.015198666563616457, 5.475938084995345e-4, 1.0507500716444169e-9))
_AS241_FAR = (
    (6.657904643501103, 5.463784911164114, 1.7848265399172913, 0.29656057182850487,
     0.026532189526576124, 1.2426609473880784e-3, 2.7115555687434876e-5, 2.0103343992922881e-7),
    (1.0, 0.599832206555888, 0.1369298809227358, 0.014875361290850615,
     7.868691311456133e-4, 1.8463183175100548e-5, 1.421511758316446e-7, 2.0442631033899397e-15))


def horner(t, coeffs):
    """sum_k coeffs[k] t^k, the constant term first, by Horner's rule: the
    last coefficient times t, plus the next, times t, and so on down to
    the constant. t may be a float or an array; on an array the sum is
    built in place, on a float by rebinding. Every coefficient table of
    the package, here and in `special`, is summed by this one loop."""
    total = coeffs[-1]
    for coef in coeffs[-2::-1]:
        total *= t
        total += coef
    return total


def _as241_ratio(t, coeffs):
    """One AS 241 rational at t: numerator over denominator."""
    num_c, den_c = coeffs
    return horner(t, num_c) / horner(t, den_c)


def std_normal_quantile(p):
    """Phi^-1 by Wichura's AS 241 (PPND16): no iteration, within 8 ulps.

    For |q| = |p - 1/2| <= 0.425 it is q times a rational in
    0.180625 - q^2, which uses only + - * / and so has the same bits under
    every numpy SIMD class. Beyond, it is a rational in r - 1.6 (r <= 5) or
    r - 5, r = sqrt(-log min(p, 1 - p)); 1 - p is exact for p >= 1/2, and
    the last bit of np.log depends on the SIMD class."""
    arr = np.asarray(p, dtype=np.float64)
    flat = np.atleast_1d(arr).ravel()
    if np.any(~((flat > 0.0) & (flat < 1.0))):
        raise NumericError("std_normal_quantile requires 0 < p < 1")
    q = flat - 0.5
    out = np.empty_like(flat)
    central = np.abs(q) <= 0.425
    mid_idx = np.flatnonzero(central)
    qm = q[mid_idx]
    out[mid_idx] = qm * _as241_ratio(0.180625 - qm * qm, _AS241_CENTRAL)
    tail_idx = np.flatnonzero(~central)
    pt = flat[tail_idx]
    r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    x = np.where(r <= 5.0, _as241_ratio(r - 1.6, _AS241_NEAR), _as241_ratio(r - 5.0, _AS241_FAR))
    out[tail_idx] = np.where(pt < 0.5, -x, x)
    out = out.reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


class SeededRng:
    """Deterministic generator with explicit stream handling.

    Each bulk request consumes one fresh stream id, so the k-th request on a
    freshly constructed SeededRng(seed) is reproducible regardless of the
    sizes of earlier requests.
    """

    def __init__(self, seed: int, domain: int = DOMAIN_GENERIC):
        self._key0, self._key1 = derive_key(seed)
        self._domain = domain
        self._next_stream = 0

    def uniform01(self, count: int) -> np.ndarray:
        """Doubles in the open interval (0, 1), 52 random bits each.

        (k + 0.5) * 2^-52 is exactly representable for every k < 2^52, so
        the endpoints 0 and 1 can never be produced by rounding.
        """
        stream = self._next_stream
        self._next_stream += 1
        nblocks = (count + 1) // 2
        blocks = philox_u32_blocks(self._key0, self._key1, self._domain, stream, 0, nblocks)
        words = blocks.reshape(-1)[: 2 * count].astype(np.uint64)
        u64 = (words[0::2] << np.uint64(32)) | words[1::2]
        return ((u64 >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52

    def standard_normal(self, count: int) -> np.ndarray:
        """Inverse-CDF normals; monotone in the underlying uniforms."""
        return std_normal_quantile(self.uniform01(count))
