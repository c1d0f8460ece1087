"""Families, fitting, goodness of fit, and sampling. Cross-checks against
scipy reference distributions plus first-principles invariants."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from rleval import distributions as D
from rleval import special
from rleval.errors import NumericError, ValidationError
from rleval.rng import SeededRng

scipy_stats = pytest.importorskip("scipy.stats")

REFERENCE = {
    "normal": (scipy_stats.norm, (), 5.0, 2.0),
    "beta": (scipy_stats.beta, (18.83, 8.83), 89.22, 74.13),
    "johnsonsb": (scipy_stats.johnsonsb, (-1.62, 2.71), 89.67, 78.02),
    "johnsonsu": (scipy_stats.johnsonsu, (12.79, 8.57), 189.57, 23.46),
    "loggamma": (scipy_stats.loggamma, (10.59,), 92.24, 20.53),
    "powernorm": (scipy_stats.powernorm, (5.39,), 151.53, 9.81),
    "skewnorm": (scipy_stats.skewnorm, (-1.53,), 145.51, 8.69),
}


SMALL_C_LOGGAMMA = D.make_fit("loggamma", 0.01, 0.0, 1.0)


def _pair(name):
    ref_cls, shapes, loc, scale = REFERENCE[name]
    return D.make_fit(name, *shapes, loc, scale), ref_cls(*shapes, loc=loc, scale=scale)


class TestAgainstScipy:
    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_cdf_pdf_sf(self, name):
        fit, ref = _pair(name)
        xs = np.linspace(ref.ppf(0.0005), ref.ppf(0.9995), 61)
        assert np.max(np.abs(D.cdf(fit, xs) - ref.cdf(xs))) <= 1e-11
        assert np.max(np.abs(D.survival(fit, xs) - ref.sf(xs))) <= 1e-11
        scale_pdf = float(np.max(ref.pdf(xs)))
        assert np.max(np.abs(D.pdf(fit, xs) - ref.pdf(xs))) <= 1e-10 * max(1.0, scale_pdf)

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_mean(self, name):
        fit, ref = _pair(name)
        assert D.mean(fit) == pytest.approx(float(ref.mean()), rel=1e-8)


class TestStructure:
    def test_powernorm_c1_is_normal(self):
        pn = D.make_fit("powernorm", 1.0, 0.0, 1.0)
        xs = np.linspace(-5, 5, 41)
        assert np.max(np.abs(D.cdf(pn, xs) - special.std_normal_cdf(xs))) <= 1e-13

    def test_skewnorm_a0_is_normal(self):
        sn = D.make_fit("skewnorm", 0.0, 2.0, 3.0)
        nm = D.make_fit("normal", 2.0, 3.0)
        xs = np.linspace(-10, 14, 41)
        assert np.max(np.abs(D.cdf(sn, xs) - D.cdf(nm, xs))) <= 1e-12

    def test_beta_mean_closed_form(self):
        fit = D.make_fit("beta", 824.65, 167.66, -175.37, 374.38)
        expected = -175.37 + 374.38 * 824.65 / (824.65 + 167.66)
        assert D.mean(fit) == pytest.approx(expected, abs=1e-9)

    def test_powernorm_survival_spot_value(self):
        import mpmath as mp

        fit = D.make_fit("powernorm", 1.2, 114.22, 11.64)
        mine = D.survival(fit, 131.35)
        z = (mp.mpf("131.35") - mp.mpf("114.22")) / mp.mpf("11.64")
        oracle = float(mp.ncdf(-z) ** mp.mpf("1.2"))
        assert mine == pytest.approx(oracle, abs=1e-12)
        assert mine == pytest.approx(0.0416, abs=0.0002)

    def test_skewnorm_mean_closed_form_vs_quadrature(self):
        a = 1.7
        fit = D.make_fit("skewnorm", a, 0.0, 1.0)
        closed = math.sqrt(2 / math.pi) * a / math.sqrt(1 + a * a)
        assert D.mean(fit) == pytest.approx(closed, abs=1e-12)
        quad = special.integrate_fixed(
            lambda z: z * np.exp(fit.family.logpdf_z(z, fit.shapes)), -9.0, 9.0,
            panels=48, order=32,
        )
        assert closed == pytest.approx(quad, abs=1e-9)

    @pytest.mark.parametrize("shapes", [(12.79, 8.57), (-726.15, 68.20), (0.4, 2.5), (-1.3, 0.6)])
    def test_johnsonsu_mean_closed_form(self, shapes):
        family = D.get_family("johnsonsu")
        closed = family.mean_z(shapes)
        assert closed is not None
        assert closed == pytest.approx(float(scipy_stats.johnsonsu.mean(*shapes)), rel=1e-12)

    @pytest.mark.parametrize("shapes", [
        (0.0, 0.3), (0.5, 0.1), (5.0, 0.05), (0.3, 0.02), (-1.62, 2.71), (1.0, 2.0),
        (3.0, 10.0), (-50.0, 100.0),
    ])
    def test_johnsonsb_mean_vs_oracle(self, shapes):
        fit = D.make_fit("johnsonsb", *shapes, 0.0, 1.0)
        assert D.mean(fit) == pytest.approx(oracles.johnsonsb_mean_ref(*shapes), abs=1e-15)

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_sf_cdf_complementary(self, name):
        fit, ref = _pair(name)
        xs = np.linspace(ref.ppf(0.001), ref.ppf(0.999), 31)
        assert np.max(np.abs(D.cdf(fit, xs) + D.survival(fit, xs) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_quantile_roundtrip(self, name):
        fit, _ = _pair(name)
        ps = np.arange(0.01, 1.0, 0.01)
        assert np.max(np.abs(D.cdf(fit, D.quantile(fit, ps)) - ps)) <= 1e-8

    # skewnorm is left out: its cdf, Phi(z) - 2 T(z, a), cancels in the lower
    # tail (0.17 relative error at p = 1e-15), and the quantile solves
    # against that cdf.
    # loggamma-small-c's lower tail runs far below z = -745, where e^z
    # underflows.
    @pytest.mark.parametrize(
        "name",
        ["normal", "beta", "johnsonsb", "johnsonsu", "loggamma", "powernorm", "loggamma-small-c"],
    )
    def test_quantile_tail_roundtrip(self, name):
        fit = SMALL_C_LOGGAMMA if name == "loggamma-small-c" else _pair(name)[0]
        for p in np.geomspace(1e-15, 1e-3, 13):
            assert abs(D.cdf(fit, D.quantile(fit, p)) - p) <= 1e-11 * p
            upper = 1.0 - p
            exact_sf = 1.0 - upper
            assert abs(D.survival(fit, D.quantile(fit, upper)) - exact_sf) <= 1e-11 * exact_sf

    @pytest.mark.parametrize("c", [0.01, 0.1])
    def test_loggamma_deep_lower_tail(self, c):
        # where e^z < 1e-300, P(c, e^z) = e^(c z) / Gamma(c + 1) to double
        # precision
        import mpmath as mp

        fit = D.make_fit("loggamma", c, 0.0, 1.0)
        for z in (-650.0, -700.0, -800.0, -3000.0):
            ref = mp.exp(mp.mpf(c) * z - mp.loggamma(mp.mpf(c) + 1))
            assert D.cdf(fit, z) == pytest.approx(float(ref), rel=1e-13, abs=0.0)
            assert D.survival(fit, z) == pytest.approx(float(1 - ref), rel=1e-13, abs=0.0)
        assert D.quantile(fit, 1e-15) == pytest.approx(
            float((mp.log(mp.mpf(1e-15)) + mp.loggamma(mp.mpf(c) + 1)) / c), rel=1e-12
        )

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_pdf_integrates_to_one(self, name):
        fit, ref = _pair(name)
        lo = float(ref.ppf(1e-12))
        hi = float(ref.ppf(1.0 - 1e-12))
        total = special.integrate_fixed(lambda x: D.pdf(fit, x), lo, hi, panels=64, order=24)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_outside_support(self):
        fit = D.make_fit("beta", 2.0, 3.0, 10.0, 5.0)
        assert D.cdf(fit, 9.0) == 0.0
        assert D.cdf(fit, 16.0) == 1.0
        assert D.pdf(fit, 9.0) == 0.0
        assert D.survival(fit, 9.0) == 1.0

    def test_johnsonsu_concentrates_with_large_b(self):
        spreads = []
        for b in (2.0, 8.0, 32.0):
            fit = D.make_fit("johnsonsu", 0.0, b, 0.0, 1.0)
            spread = D.quantile(fit, 0.9) - D.quantile(fit, 0.1)
            spreads.append(spread)
        assert spreads[0] > spreads[1] > spreads[2]

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            D.make_fit("normal", 0.0, -1.0)
        with pytest.raises(ValidationError):
            D.make_fit("beta", -1.0, 2.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            D.make_fit("nope", 1.0, 2.0)


class TestFit:
    def test_normal_recovery_within_3se(self):
        truth = D.make_fit("normal", 5.0, 2.0)
        data = D.sample(truth, 10000, SeededRng(404))
        fit = D.fit_mle("normal", data, fitting_seed=1)
        se_mu = 2.0 / math.sqrt(10000)
        se_sigma = 2.0 / math.sqrt(2 * 10000)
        assert abs(fit.loc - 5.0) <= 3 * se_mu
        assert abs(fit.scale - 2.0) <= 3 * se_sigma
        assert fit.converged

    def test_loglik_never_below_initializer(self):
        truth = D.make_fit("skewnorm", -1.53, 145.51, 8.69)
        data = D.sample(truth, 2000, SeededRng(7))
        family = D.get_family("skewnorm")
        shapes0, loc0, scale0 = family.init_params(data)
        init_nll = D._penalized_nll(family, data, np.array([*shapes0, loc0, scale0]))
        fit = D.fit_mle("skewnorm", data, fitting_seed=2)
        assert fit.log_likelihood >= -init_nll - 1e-9

    def test_degenerate_normal(self):
        fit = D.fit_mle("normal", [4.0] * 25)
        assert fit.degenerate
        assert fit.loc == 4.0
        assert fit.scale > 0.0

    def test_zero_variance_rejected_elsewhere(self):
        with pytest.raises(NumericError):
            D.fit_mle("beta", [4.0] * 25)

    def test_small_sample_rejected(self):
        with pytest.raises(ValidationError):
            D.fit_mle("normal", list(range(19)))

    def test_fit_is_deterministic(self):
        data = D.sample(D.make_fit("normal", 0.0, 1.0), 500, SeededRng(3))
        a = D.fit_mle("johnsonsu", data, fitting_seed=5)
        b = D.fit_mle("johnsonsu", data, fitting_seed=5)
        assert a.params == b.params

    def test_bounded_fit_keeps_data_interior(self):
        truth = D.make_fit("beta", 18.83, 8.83, 89.22, 74.13)
        data = D.sample(truth, 1000, SeededRng(21))
        fit = D.fit_mle("beta", data, fitting_seed=3)
        z = (data - fit.loc) / fit.scale
        assert float(np.min(z)) > 0.0
        assert float(np.max(z)) < 1.0


class TestGof:
    def test_construction_example(self):
        # data placed exactly at the (i - 0.5)/n quantiles gives D = 0.5/n
        fit = D.make_fit("normal", 0.0, 1.0)
        n = 40
        data = D.quantile(fit, (np.arange(1, n + 1) - 0.5) / n)
        d, p = D.gof_ks(fit, data)
        assert d == pytest.approx(0.5 / n, abs=1e-9)
        assert p > 0.999

    def test_total_mismatch(self):
        fit = D.make_fit("normal", 0.0, 1.0)
        d, p = D.gof_ks(fit, np.linspace(500.0, 600.0, 50))
        assert d > 0.999
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_matches_scipy_kstest(self):
        truth = D.make_fit("skewnorm", -0.9, 10.0, 2.0)
        data = D.sample(truth, 500, SeededRng(8))
        d, p = D.gof_ks(truth, data)
        ref = scipy_stats.kstest(data, scipy_stats.skewnorm(-0.9, loc=10.0, scale=2.0).cdf)
        assert d == pytest.approx(float(ref.statistic), abs=1e-12)
        assert p == pytest.approx(float(ref.pvalue), abs=1e-6)

    def test_with_gof_flags(self):
        fit = D.make_fit("normal", 0.0, 1.0)
        data = D.sample(fit, 100, SeededRng(2))
        tested = D.with_gof(fit, data)
        assert tested.post_fit_ks
        assert 0.0 <= tested.ks_pvalue <= 1.0
        assert tested.ks_statistic > 0.0


class TestSample:
    def test_empty(self):
        fit = D.make_fit("normal", 0.0, 1.0)
        assert D.sample(fit, 0, SeededRng(1)).size == 0

    def test_repeatable(self):
        fit = D.make_fit("loggamma", 10.59, 92.24, 20.53)
        a = D.sample(fit, 64, SeededRng(12))
        b = D.sample(fit, 64, SeededRng(12))
        assert np.array_equal(a, b)

    def test_normal_mean_bound(self):
        fit = D.make_fit("normal", 0.0, 1.0)
        draws = D.sample(fit, 100_000, SeededRng(42))
        assert abs(float(np.mean(draws))) <= 3.0 / math.sqrt(100_000)


class TestRecords:
    def test_roundtrip(self):
        fit = D.make_fit("beta", 18.83, 8.83, 89.22, 74.13)
        fit = dataclasses.replace(fit, ks_statistic=0.0044, ks_pvalue=0.9911,
                                  post_fit_ks=True, log_likelihood=-123.5)
        rec = D.fit_record(fit)
        back = D.fit_from_record(rec)
        assert back.family.name == "beta"
        assert back.params == fit.params
        assert back.ks_pvalue == fit.ks_pvalue
        assert back.post_fit_ks

    def test_malformed(self):
        with pytest.raises(ValidationError):
            D.fit_from_record({"family": "beta"})
