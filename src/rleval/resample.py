"""Seeded bootstrap of the sample mean.

Resampling is keyed by a master seed: resample i draws its indices from
Philox stream i in the bootstrap domain (the kernel is
`rleval.rng.bootstrap_means`), so the means vector depends only on the
sample, the resample count and the seed, and is identical across platforms.
A BootstrapDistribution holds the means, their average and the percentile
CI; the bundle's provenance records the seed and the confidence.
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from ._fmt import fmt_shortest
from .errors import ValidationError

DEFAULT_RESAMPLES = 10_000
DEFAULT_CONFIDENCE = 0.95

CI_METHOD = "percentile (linear interpolation between closest ranks, Hyndman-Fan type 7)"


@dataclass(frozen=True)
class BootstrapDistribution:
    """Empirical distribution of the resampled mean."""

    means: np.ndarray
    empirical_mean: float
    ci_low: float
    ci_high: float

    @property
    def resample_count(self) -> int:
        return len(self.means)


def empirical_quantile(values, p: float) -> float:
    """Quantile by linear interpolation between closest ranks: with sorted
    values v_1..v_m, the quantile sits at 1-based position 1 + (m - 1) p."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    m = arr.shape[0]
    if m == 0:
        raise ValidationError("quantile of an empty vector")
    pos = (m - 1) * p
    lo = int(math.floor(pos))
    hi = min(lo + 1, m - 1)
    frac = pos - lo
    mid = (float(arr[lo]) + float(arr[hi])) / 2.0  # np.median's, for an even count
    if p == 0.5 and frac and math.isfinite(mid):  # halving first can drop a subnormal's bit
        return mid
    return float(arr[lo] * (1.0 - frac) + arr[hi] * frac)


def percentile_ci(means, confidence: float = DEFAULT_CONFIDENCE) -> tuple[float, float]:
    """Central percentile interval of the means vector."""
    if not 0.0 < confidence < 1.0:
        raise ValidationError(f"confidence must lie in (0, 1), got {confidence}")
    arr = np.asarray(means, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("percentile_ci requires a non-empty means vector")
    tail = (1.0 - confidence) / 2.0
    return empirical_quantile(arr, tail), empirical_quantile(arr, 1.0 - tail)


def bootstrap_means(
    sample,
    resample_count: int = DEFAULT_RESAMPLES,
    seed: int = 0,
    confidence: float = DEFAULT_CONFIDENCE,
) -> BootstrapDistribution:
    """Bootstrap the mean of `sample` with `resample_count` resamples.

    Each resample mean averages len(sample) draws with replacement, taken in
    draw order, so the result is bit-stable for a fixed (sample order, count,
    seed) triple.
    """
    arr = np.asarray(sample, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError("bootstrap requires a flat sample of at least 2 values")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("bootstrap sample must be finite")
    if resample_count < 1:
        raise ValidationError(f"resample_count must be >= 1, got {resample_count}")
    key0, key1 = rng.derive_key(seed)
    means = rng.bootstrap_means(arr, resample_count, key0, key1, rng.DOMAIN_BOOTSTRAP)
    ci_low, ci_high = percentile_ci(means, confidence)
    return BootstrapDistribution(
        means=means,
        empirical_mean=float(math.fsum(means) / len(means)),
        ci_low=ci_low,
        ci_high=ci_high,
    )


def means_csv(boot: BootstrapDistribution) -> str:
    """Single-column audit dump of the full means vector, written line by line
    into a StringIO: a list of its 10k lines would add ~0.2 MB to peak RSS."""
    buf = io.StringIO()
    buf.write("mean\n")
    buf.writelines(fmt_shortest(float(value)) + "\n" for value in boot.means)
    return buf.getvalue()


def read_means_csv(stream):
    """Read a single-column means vector as `means_csv` renders it."""
    header = stream.readline().strip()
    if header != "mean":
        raise ValidationError(f"means CSV must start with a 'mean' header, got {header!r}")
    values = []
    for lineno, line in enumerate(stream, start=2):
        text = line.strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: not a number: {text!r}") from exc
    if not values:
        raise ValidationError("means CSV contains no values")
    return np.asarray(values, dtype=np.float64)
