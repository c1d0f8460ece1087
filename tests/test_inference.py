"""Normality test and reproducibility verdicts."""

import dataclasses
import math

import numpy as np
import pytest

from rleval import distributions as D
from rleval.errors import NumericError, ValidationError
from rleval.inference import (
    Decision,
    NormalityResult,
    ReproducibilityVerdict,
    dagostino_pearson,
    make_verdict,
    significance_summary,
    verify_reproducibility,
)
from rleval.resample import bootstrap_means
from rleval.rng import SeededRng

scipy_stats = pytest.importorskip("scipy.stats")

# Frozen fixture: statistic and p-value for the seeded 1000-point normal
# sample below, computed once with an independent implementation of the
# published skewness/kurtosis transforms (scipy.stats.normaltest).
FIXTURE_SEED = 5150
FIXTURE_K2 = 0.7435645108656979
FIXTURE_P = 0.6895043620086327


def _fixture_data():
    return SeededRng(FIXTURE_SEED).standard_normal(1000)


class TestDagostinoPearson:
    def test_frozen_fixture(self):
        result = dagostino_pearson(_fixture_data())
        assert result.statistic == pytest.approx(FIXTURE_K2, abs=1e-8)
        assert result.pvalue == pytest.approx(FIXTURE_P, abs=1e-8)
        assert result.decision is Decision.FAILED_TO_REJECT

    def test_live_against_scipy(self):
        for seed in (1, 2, 3):
            rng = SeededRng(seed)
            data = np.exp(0.7 * rng.standard_normal(400))
            mine = dagostino_pearson(data)
            k2, p = scipy_stats.normaltest(data)
            assert mine.statistic == pytest.approx(float(k2), abs=1e-10)
            assert mine.pvalue == pytest.approx(float(p), abs=1e-10)

    def test_skewed_data_rejected(self):
        data = np.exp(SeededRng(99).standard_normal(2000))
        assert dagostino_pearson(data).decision is Decision.REJECTED

    def test_pvalue_is_chi2_survival_of_statistic(self):
        result = dagostino_pearson(_fixture_data())
        assert result.pvalue == pytest.approx(math.exp(-result.statistic / 2.0), abs=1e-15)

    def test_small_sample_rejected(self):
        with pytest.raises(ValidationError):
            dagostino_pearson(list(range(19)))

    def test_zero_variance(self):
        with pytest.raises(NumericError):
            dagostino_pearson([3.0] * 30)

    def test_pvalue_equal_to_alpha_fails_to_reject(self):
        at = NormalityResult(statistic=-2.0 * math.log(0.05), pvalue=0.05, alpha=0.05)
        assert at.decision is Decision.FAILED_TO_REJECT
        below = dataclasses.replace(at, pvalue=math.nextafter(0.05, 0.0))
        assert below.decision is Decision.REJECTED


def _fit_with_p(family, *params, ks_p):
    fit = D.make_fit(family, *params)
    return dataclasses.replace(fit, ks_statistic=0.005, ks_pvalue=ks_p, post_fit_ks=True)


class TestVerdicts:
    def test_published_rejected_cell(self):
        fit = _fit_with_p("powernorm", 1.77, 138.22, 5.22, ks_p=0.6235)
        verdict = make_verdict(fit, 158.56)
        assert round(verdict.combined, 4) == 0.0
        assert verdict.decision is Decision.REJECTED

    def test_published_starred_cell(self):
        fit = _fit_with_p("beta", 18.83, 8.83, 89.22, 74.13, ks_p=0.9911)
        verdict = make_verdict(fit, 138.58)
        assert verdict.decision is Decision.FAILED_TO_REJECT
        assert verdict.combined == pytest.approx(0.5990, abs=0.03)

    def test_reported_below_support(self):
        fit = _fit_with_p("beta", 2.0, 3.0, 10.0, 5.0, ks_p=0.8)
        verdict = make_verdict(fit, 9.0)
        assert verdict.p_v == 1.0
        assert verdict.combined == pytest.approx(0.8, abs=1e-15)

    def test_combined_identity(self):
        fit = _fit_with_p("normal", 0.0, 1.0, ks_p=0.37)
        verdict = make_verdict(fit, 0.5)
        assert verdict.combined == pytest.approx(verdict.p_d * verdict.p_v, abs=1e-15)

    def test_monotone_in_reported(self):
        fit = _fit_with_p("normal", 100.0, 15.0, ks_p=0.5)
        values = [make_verdict(fit, mu).p_v for mu in np.linspace(60, 140, 17)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_decision_boundary_exact(self):
        # combined == alpha must fail to reject; the next representable
        # value below must reject
        fit = _fit_with_p("normal", 0.0, 1.0, ks_p=0.1)
        reported = float(D.quantile(D.make_fit("normal", 0.0, 1.0), 0.5))
        verdict = make_verdict(fit, reported, alpha=verdict_alpha(fit, reported))
        assert verdict.decision is Decision.FAILED_TO_REJECT
        above = make_verdict(fit, reported, alpha=verdict.combined * (1 + 1e-9))
        assert above.decision is Decision.REJECTED

    def test_combined_equal_to_alpha_fails_to_reject(self):
        # 0.5 * 0.1 == 0.05 in doubles: halving is exact
        fit = _fit_with_p("normal", 0.0, 1.0, ks_p=0.5)
        verdict = ReproducibilityVerdict(reported_value=0.0, fit=fit, p_v=0.1, alpha=0.05)
        assert verdict.p_d == 0.5 and verdict.combined == 0.05
        assert verdict.decision is Decision.FAILED_TO_REJECT

    def test_requires_ks_pvalue(self):
        with pytest.raises(ValidationError):
            make_verdict(D.make_fit("normal", 0.0, 1.0), 0.0)

    def test_shift_equivariance_with_refit(self):
        rng = SeededRng(17)
        data = 100.0 + 15.0 * rng.standard_normal(40)
        shift = 250.0
        boot_a = bootstrap_means(data, 2000, seed=5)
        boot_b = bootstrap_means(data + shift, 2000, seed=5)
        fit_a = D.with_gof(D.fit_mle("normal", boot_a.means, fitting_seed=9), boot_a.means)
        fit_b = D.with_gof(D.fit_mle("normal", boot_b.means, fitting_seed=9), boot_b.means)
        v_a = make_verdict(fit_a, 105.0)
        v_b = make_verdict(fit_b, 105.0 + shift)
        assert v_a.p_v == pytest.approx(v_b.p_v, abs=1e-6)

    def test_verify_reproducibility_list(self):
        boot = bootstrap_means([1.0, 2.0, 3.0, 4.0], 500, seed=1)
        fits = [
            _fit_with_p("normal", 2.5, 0.5, ks_p=0.9),
            _fit_with_p("skewnorm", 0.3, 2.5, 0.5, ks_p=0.8),
        ]
        verdicts = verify_reproducibility(boot, fits, 2.4, alpha=0.05)
        assert len(verdicts) == 2
        assert all(v.reported_value == 2.4 for v in verdicts)


def verdict_alpha(fit, reported):
    """Alpha exactly equal to the verdict's combined probability."""
    probe = make_verdict(fit, reported, alpha=0.5)
    return probe.combined


class TestSummary:
    def _matrix(self, probs):
        rows = []
        for row in probs:
            cells = []
            for p in row:
                fit = _fit_with_p("normal", 0.0, 1.0, ks_p=1.0)
                reported = float(D.quantile(D.make_fit("normal", 0.0, 1.0), 1.0 - p)) if p > 0 else 60.0
                cells.append(make_verdict(fit, reported))
            rows.append(cells)
        return rows

    def test_star_marks_and_counts(self):
        table = significance_summary(self._matrix([[0.5, 1e-9], [1e-9, 1e-9]]),
                                     family_names=["normal", "normal"])
        assert table.rows[0][1].endswith("*")
        assert not table.rows[0][2].endswith("*")
        assert table.footer == "rejected 3 of 4"

    def test_all_rejected(self):
        table = significance_summary(self._matrix([[1e-9, 1e-9]]), family_names=["normal"])
        assert table.footer == "rejected 2 of 2"
        assert not any(cell.endswith("*") for cell in table.rows[0][1:])

    def test_ragged_rejected(self):
        matrix = self._matrix([[0.5, 0.5]])
        matrix.append(matrix[0][:1])
        with pytest.raises(ValidationError):
            significance_summary(matrix)

    def test_names_must_match_the_matrix(self):
        with pytest.raises(ValidationError, match="1 config names for 2 columns"):
            significance_summary(self._matrix([[0.5, 0.5]]), config_names=["c"])
        with pytest.raises(ValidationError, match="1 family names for 2 rows"):
            significance_summary(self._matrix([[0.5], [1e-9]]), family_names=["normal"])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            significance_summary([])
