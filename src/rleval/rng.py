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

Domain tag 3 belonged to a consumer that was removed; it is never reused,
so no stream drawn today repeats one that an older release drew.

The uniforms and the bootstrap means are integer arithmetic plus IEEE-754
double operations in a defined order, so they are bit-identical across
platforms. `standard_normal` is so only for the 85% of draws whose
uniform lies within 0.425 of 1/2: the quantile's tails call np.log, whose
loop numpy picks per SIMD class.
"""

import numpy as np

from .errors import ValidationError
from .special import std_normal_quantile

MAX_SEED = 2**64 - 1

# Domain tags. Values are part of the on-disk reproducibility contract.
DOMAIN_GENERIC = 0
DOMAIN_BOOTSTRAP = 1
DOMAIN_SYNTH = 2
DOMAIN_FIT = 4  # tag 3 is retired and never reused

_M64 = (1 << 64) - 1

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# Bound on the uint64 scratch held by one vectorised philox call.
_MAX_BLOCKS_PER_CALL = 1 << 20


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
    """
    src = np.ascontiguousarray(sample, dtype=np.float64)
    n = src.shape[0]
    blocks_per = (n + 3) // 4
    means = np.empty(n_resamples, dtype=np.float64)
    # Chunk over resamples to bound scratch memory.
    chunk = max(1, _MAX_BLOCKS_PER_CALL // max(1, blocks_per))
    n_u64 = np.uint64(n)
    for start in range(0, n_resamples, chunk):
        stop = min(start + chunk, n_resamples)
        streams = np.arange(start, stop, dtype=np.uint64)
        blocks = philox_u32_blocks(key0, key1, domain, streams, 0, blocks_per)
        draws = blocks.reshape(stop - start, blocks_per * 4)[:, :n].astype(np.uint64)
        idx = ((draws * n_u64) >> _SHIFT32).astype(np.intp)
        acc = np.zeros(stop - start, dtype=np.float64)
        for j in range(n):
            acc += src[idx[:, j]]
        means[start:stop] = acc / n
    return means


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
