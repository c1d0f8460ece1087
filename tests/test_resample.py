"""Bootstrap engine: quantile rule, determinism, range invariants, and the
frozen regression pin for a fixed (sample order, count, seed) triple."""

import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rleval.errors import ValidationError
from rleval.resample import (
    BootstrapDistribution,
    bootstrap_means,
    empirical_quantile,
    percentile_ci,
    read_means_csv,
    write_means_csv,
)

SAMPLE = [135.7, 128.4, 141.9, 120.3, 150.8, 133.3, 137.2, 126.5, 144.0, 131.1]

# Regression pin: first five means and the digest of the full vector for
# bootstrap_means(SAMPLE, 10000, seed=2718). Frozen from the initial run;
# any change here is a reproducibility break, not a tolerance issue.
PINNED_FIRST_FIVE = [
    134.89000000000001,
    135.29,
    131.7,
    131.36,
    136.65,
]
PINNED_DIGEST = "cbe9ab241c3bd0995db90a93eda1753e81a3d0affbc20458c1521f280d5f4f2d"


class TestPercentileRule:
    def test_hand_example_1_to_100(self):
        lo, hi = percentile_ci(np.arange(1.0, 101.0), 0.95)
        assert lo == pytest.approx(3.475, abs=1e-9)
        assert hi == pytest.approx(97.525, abs=1e-9)

    def test_matches_rule_oracle(self):
        values = list(np.linspace(-3, 9, 37) ** 2)
        for p in (0.01, 0.025, 0.5, 0.77, 0.975):
            assert empirical_quantile(values, p) == pytest.approx(
                oracles.quantile_rule_ref(values, p), abs=1e-12
            )

    def test_degenerate_all_equal(self):
        lo, hi = percentile_ci([4.0] * 50, 0.95)
        assert lo == hi == 4.0

    def test_tiny_confidence_approaches_median(self):
        values = list(range(101))
        lo, hi = percentile_ci(values, 1e-9)
        median = empirical_quantile(values, 0.5)
        assert lo == pytest.approx(median, abs=1e-6)
        assert hi == pytest.approx(median, abs=1e-6)

    def test_bad_confidence(self):
        with pytest.raises(ValidationError):
            percentile_ci([1.0, 2.0], 0.0)
        with pytest.raises(ValidationError):
            percentile_ci([1.0, 2.0], 1.0)


class TestBootstrap:
    def test_constant_sample(self):
        boot = bootstrap_means([3.0, 3.0, 3.0], 500, seed=1)
        assert np.all(boot.means == 3.0)
        assert (boot.ci_low, boot.ci_high) == (3.0, 3.0)
        assert boot.empirical_mean == 3.0

    def test_binary_sample_concentration(self):
        b = 50_000
        boot = bootstrap_means([0.0, 1.0], b, seed=11)
        assert abs(boot.empirical_mean - 0.5) <= 4.0 * (0.25 / b) ** 0.5

    def test_bit_determinism(self):
        a = bootstrap_means(SAMPLE, 2000, seed=77)
        b = bootstrap_means(SAMPLE, 2000, seed=77)
        assert np.array_equal(a.means, b.means)
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)

    def test_range_invariant(self):
        boot = bootstrap_means(SAMPLE, 5000, seed=3)
        assert float(np.min(boot.means)) >= min(SAMPLE)
        assert float(np.max(boot.means)) <= max(SAMPLE)

    def test_median_inside_ci(self):
        boot = bootstrap_means(SAMPLE, 5000, seed=5)
        median = empirical_quantile(boot.means, 0.5)
        assert boot.ci_low <= median <= boot.ci_high

    def test_regression_pin(self):
        boot = bootstrap_means(SAMPLE, 10000, seed=2718)
        assert list(boot.means[:5]) == PINNED_FIRST_FIVE
        digest = hashlib.sha256(boot.means.tobytes()).hexdigest()
        assert digest == PINNED_DIGEST

    def test_sample_too_small(self):
        with pytest.raises(ValidationError):
            bootstrap_means([1.0], 100, seed=0)

    def test_means_length_validated(self):
        with pytest.raises(ValidationError):
            BootstrapDistribution(
                resample_count=3, means=np.array([1.0]), empirical_mean=1.0,
                ci_low=1.0, ci_high=1.0,
            )


class TestMeansCsv:
    def test_roundtrip(self):
        boot = bootstrap_means(SAMPLE, 100, seed=9)
        buf = io.StringIO()
        write_means_csv(boot, buf)
        back = read_means_csv(io.StringIO(buf.getvalue()))
        assert np.array_equal(back, boot.means)

    def test_header_required(self):
        with pytest.raises(ValidationError):
            read_means_csv(io.StringIO("nope\n1.0\n"))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=12),
    st.integers(min_value=0, max_value=2**32),
)
def test_means_stay_in_sample_hull(sample, seed):
    boot = bootstrap_means(sample, 200, seed=seed)
    assert float(np.min(boot.means)) >= min(sample) - 1e-9
    assert float(np.max(boot.means)) <= max(sample) + 1e-9
