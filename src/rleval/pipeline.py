"""End-to-end analysis: exclusions, curves, averages, bootstrap, normality,
fits, KS, verdicts, report.

The stages run in order, and the families are fitted in the order given.
Every random draw derives from the one master seed, and only the
bootstrap draws: no fit reads a seed. So a family's fit depends only on
the means and the family, not on which other families are fitted or in
which order.
"""

import math

from .config import config_hash
from .distributions import FAMILY_NAMES, fit_mle, get_family, with_gof
from .errors import ValidationError
from .inference import DEFAULT_ALPHA, dagostino_pearson, verify_reproducibility
from .ingest import apply_exclusions
from .metrics import (
    DEFAULT_STRIDE,
    DEFAULT_WINDOW,
    curve_band,
    learning_curve,
    run_average_return,
)
from .report import AnalysisReport, build_provenance
from .resample import DEFAULT_CONFIDENCE, DEFAULT_RESAMPLES, bootstrap_means
from .rng import splitmix64, validate_seed


def fitting_seed_for(master_seed: int, family_index: int) -> int:
    """Fitting seed of the family at `family_index` in FAMILY_NAMES, which
    no fit reads."""
    return splitmix64(master_seed ^ (0xF17 + family_index))


def run_analysis(
    config,
    runs,
    *,
    seed: int,
    resamples: int = DEFAULT_RESAMPLES,
    alpha: float = DEFAULT_ALPHA,
    reported=None,
    families=FAMILY_NAMES,
    window: int = DEFAULT_WINDOW,
    stride: int = DEFAULT_STRIDE,
) -> AnalysisReport:
    validate_seed(seed)
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    if resamples < 20:  # the normality test and the fits need 20 means
        raise ValidationError(f"resamples must be at least 20, got {resamples}")
    if reported is not None and not math.isfinite(reported):
        raise ValidationError(f"reported value must be finite, got {reported}")
    families = [get_family(f).name for f in families]
    if not families:
        raise ValidationError("no family requested: name at least one to fit")
    if len(set(families)) != len(families):
        raise ValidationError("duplicate family names requested")

    digest = config_hash(config)
    trial_set = apply_exclusions(list(runs), config)

    curves = tuple(
        (run.run_id, learning_curve(run, window, stride)) for run in trial_set.runs
    )
    band = curve_band([c for _, c in curves]) if len(curves) >= 2 else None
    averages = tuple((run.run_id, run_average_return(run)) for run in trial_set.runs)

    boot = bootstrap_means(
        [value for _, value in averages], resamples, seed=seed, confidence=DEFAULT_CONFIDENCE
    )
    normality = dagostino_pearson(boot.means, alpha=alpha)

    fits = tuple(with_gof(fit_mle(name, boot.means), boot.means) for name in families)

    verdicts = ()
    if reported is not None:
        verdicts = tuple(verify_reproducibility(boot, fits, reported, alpha=alpha))

    provenance = build_provenance(
        config_digest=digest,
        config_name=config.name,
        seed=seed,
        resamples=resamples,
        confidence=DEFAULT_CONFIDENCE,
        alpha=alpha,
        window=window,
        stride=stride,
        families=families,
        reported_value=reported,
        runs_total=config.run_count,
        runs_excluded=trial_set.exclusion_reasons,
        ks_mode="exact",
        average_return_mode="episodes",
    )
    return AnalysisReport(
        config=config,
        config_digest=digest,
        reported_value=reported,
        bootstrap=boot,
        normality=normality,
        fits=fits,
        verdicts=verdicts,
        run_averages=averages,
        curves=curves,
        band=band,
        provenance=provenance,
    )
