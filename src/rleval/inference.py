"""Normality testing and reproducibility verdicts.

The omnibus normality statistic combines the skewness z-transform of
D'Agostino (1971) with the Anscombe-Glynn kurtosis z-transform; K^2 is
referred to a chi-squared distribution with two degrees of freedom.

A reproducibility verdict asks: given a fitted distribution over bootstrap
means, how probable is a new sample at least as good as an externally
reported value? P_v is the fitted survival at the reported value, P_d the
fit's KS p-value, and the headline probability is their product. Both
readings are kept on the verdict so either can be compared downstream.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._fmt import fmt_fixed
from .distributions import FittedDistribution, survival
from .errors import NumericError, ValidationError
from .resample import BootstrapDistribution
from .tabular import Table

DEFAULT_ALPHA = 0.05


class Decision(enum.Enum):
    REJECTED = "rejected"
    FAILED_TO_REJECT = "failed_to_reject"


@dataclass(frozen=True)
class NormalityResult:
    statistic: float
    pvalue: float
    alpha: float

    @property
    def decision(self) -> Decision:
        return Decision.REJECTED if self.pvalue < self.alpha else Decision.FAILED_TO_REJECT


def _skew_z(g1, n):
    y = g1 * math.sqrt((n + 1.0) * (n + 3.0) / (6.0 * (n - 2.0)))
    beta2 = (
        3.0 * (n * n + 27.0 * n - 70.0) * (n + 1.0) * (n + 3.0)
        / ((n - 2.0) * (n + 5.0) * (n + 7.0) * (n + 9.0))
    )
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    t = y / alpha
    return delta * math.log(t + math.sqrt(t * t + 1.0))


def _kurt_z(b2, n):
    e_b2 = 3.0 * (n - 1.0) / (n + 1.0)
    var_b2 = 24.0 * n * (n - 2.0) * (n - 3.0) / ((n + 1.0) ** 2 * (n + 3.0) * (n + 5.0))
    x = (b2 - e_b2) / math.sqrt(var_b2)
    sqrt_beta1 = (
        6.0 * (n * n - 5.0 * n + 2.0) / ((n + 7.0) * (n + 9.0))
        * math.sqrt(6.0 * (n + 3.0) * (n + 5.0) / (n * (n - 2.0) * (n - 3.0)))
    )
    a = 6.0 + 8.0 / sqrt_beta1 * (2.0 / sqrt_beta1 + math.sqrt(1.0 + 4.0 / sqrt_beta1**2))
    term1 = 1.0 - 2.0 / (9.0 * a)
    denom = 1.0 + x * math.sqrt(2.0 / (a - 4.0))
    term2 = math.copysign(abs((1.0 - 2.0 / a) / abs(denom)) ** (1.0 / 3.0), denom)
    return (term1 - term2) / math.sqrt(2.0 / (9.0 * a))


def dagostino_pearson(data, alpha: float = DEFAULT_ALPHA) -> NormalityResult:
    """Omnibus normality test; valid for n >= 20."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 20:
        raise ValidationError("dagostino_pearson requires a flat sample of n >= 20")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("dagostino_pearson requires finite data")
    n = arr.size
    centered = arr - np.mean(arr)
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        raise NumericError("zero-variance data has no defined normality statistic")
    g1 = float(np.mean(centered**3)) / m2**1.5
    b2 = float(np.mean(centered**4)) / m2**2
    k2 = _skew_z(g1, n) ** 2 + _kurt_z(b2, n) ** 2
    pvalue = math.exp(-0.5 * k2)  # chi-squared(2) survival
    return NormalityResult(statistic=k2, pvalue=pvalue, alpha=alpha)


@dataclass(frozen=True)
class ReproducibilityVerdict:
    reported_value: float
    fit: FittedDistribution
    p_v: float
    alpha: float

    @property
    def p_d(self) -> float:
        return float(self.fit.ks_pvalue)

    @property
    def combined(self) -> float:
        return self.p_d * self.p_v

    @property
    def decision(self) -> Decision:
        return Decision.FAILED_TO_REJECT if self.combined >= self.alpha else Decision.REJECTED


def make_verdict(fit, reported, alpha: float = DEFAULT_ALPHA) -> ReproducibilityVerdict:
    if fit.ks_pvalue is None:
        raise ValidationError("verdict requires a fit with a KS p-value attached")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    if not math.isfinite(reported):
        raise ValidationError(f"reported value must be finite, got {reported}")
    p_v = float(survival(fit, reported))
    return ReproducibilityVerdict(reported_value=float(reported), fit=fit, p_v=p_v, alpha=alpha)


def verify_reproducibility(
    boot: BootstrapDistribution,
    fits,
    reported: float,
    alpha: float = DEFAULT_ALPHA,
):
    """One verdict per fitted family against the reported value."""
    del boot  # fits are produced from boot.means upstream; kept for the signature
    return [make_verdict(fit, reported, alpha) for fit in fits]


def significance_summary(verdict_matrix, family_names=None, config_names=None) -> Table:
    """Probability table: families as rows, configurations as columns.

    Cells carry the headline combined probability at four decimals, starred
    when the hypothesis is not rejected; the footer counts rejections.
    """
    rows = [list(r) for r in verdict_matrix]
    if not rows or not rows[0]:
        raise ValidationError("significance_summary requires a non-empty matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValidationError("ragged verdict matrix")
    if family_names is None:
        family_names = [row[0].fit.family.name for row in rows]
    elif len(family_names) != len(rows):
        raise ValidationError(f"{len(family_names)} family names for {len(rows)} rows")
    if config_names is None:
        config_names = [f"c{i + 1}" for i in range(width)]
    elif len(config_names) != width:
        raise ValidationError(f"{len(config_names)} config names for {width} columns")
    cells = []
    rejected = 0
    for name, row in zip(family_names, rows):
        line = [str(name)]
        for verdict in row:
            mark = "*" if verdict.decision is Decision.FAILED_TO_REJECT else ""
            if verdict.decision is Decision.REJECTED:
                rejected += 1
            line.append(fmt_fixed(verdict.combined, 4) + mark)
        cells.append(line)
    total = len(rows) * width
    return Table(
        columns=["family", *[str(c) for c in config_names]],
        rows=cells,
        footer=f"rejected {rejected} of {total}",
    )
