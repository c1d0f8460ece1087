"""Families, fitting, goodness of fit, and sampling. Cross-checks against
scipy reference distributions plus first-principles invariants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        logpdf = fit.family.logpdf_z((xs - fit.loc) / fit.scale, fit.shapes) - math.log(fit.scale)
        assert np.max(np.abs(logpdf - ref.logpdf(xs))) <= 1e-12


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

    def test_powernorm_survival_spot_value(self):
        import mpmath as mp

        fit = D.make_fit("powernorm", 1.2, 114.22, 11.64)
        mine = D.survival(fit, 131.35)
        z = (mp.mpf("131.35") - mp.mpf("114.22")) / mp.mpf("11.64")
        oracle = float(mp.ncdf(-z) ** mp.mpf("1.2"))
        assert mine == pytest.approx(oracle, abs=1e-12)
        assert mine == pytest.approx(0.0416, abs=0.0002)

    @pytest.mark.parametrize("shapes", [(12.79, 8.57), (-726.15, 68.20), (0.4, 2.5), (-1.3, 0.6)])
    def test_johnsonsu_mean_closed_form(self, shapes):
        """The mean and variance the johnsonsu search decodes through."""
        a, b = shapes
        z_mean, z_var = D._johnsonsu_moments(a / b, 1.0 / b)
        assert z_mean == pytest.approx(float(scipy_stats.johnsonsu.mean(*shapes)), rel=1e-12)
        assert z_var == pytest.approx(float(scipy_stats.johnsonsu.var(*shapes)), rel=1e-12)

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
        from scipy.integrate import quad

        fit, ref = _pair(name)
        zlo, zhi = (ref.ppf([1e-12, 1.0 - 1e-12]) - fit.loc) / fit.scale
        total, _ = quad(lambda z: math.exp(fit.family.logpdf_z(z, fit.shapes)), zlo, zhi)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_outside_support(self):
        fit = D.make_fit("beta", 2.0, 3.0, 10.0, 5.0)
        assert D.cdf(fit, 9.0) == 0.0
        assert D.cdf(fit, 16.0) == 1.0
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

    def test_one_errstate_per_fit(self, monkeypatch):
        """loggamma's simplex calls its objective thousands of times inside
        the fit's one np.errstate; only init_params enters others."""
        data = D.sample(D.make_fit("loggamma", 10.59, 92.24, 20.53), 500, SeededRng(5))
        entered, calls = [], []
        errstate, objective = np.errstate, D._penalized_nll
        monkeypatch.setattr(np, "errstate", lambda **kw: entered.append(kw) or errstate(**kw))
        monkeypatch.setattr(D, "_penalized_nll", lambda *a: calls.append(1) or objective(*a))
        D.fit_mle("loggamma", data, fitting_seed=1)
        assert len(calls) > 1000
        assert len(entered) == 7  # six shape candidates in init_params, one fit

    @pytest.mark.parametrize("family", D.FAMILY_NAMES)
    def test_zero_variance_rejected(self, family):
        """No family makes up a fit, such as a point mass, for constant data."""
        with pytest.raises(NumericError, match="zero-variance"):
            D.fit_mle(family, [4.0] * 25)

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


def _rosenbrock(x):
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


# Objectives searched from (-1.2, 1): the branches the array-form reference
# simplex takes on each, and the (x, fval) as float.hex, iterations and
# converged that nelder_mead returned before its vertices became Python floats.
SIMPLEX_CASES = {
    # smooth: reflects, expands and contracts down the valley to (1, 1)
    "rosenbrock": (
        _rosenbrock,
        {"reflect": 52, "expand": 19, "contract": 81, "shrink": 0},
        (["0x1.000000001e85ep+0", "0x1.000000003a9adp+0"], "0x1.7de4f89a00000p-70", 152, True),
    ),
    # rounded to 0.1: on its plateaus no contraction improves, so it shrinks
    "rounded": (
        lambda x: round(_rosenbrock(x), 1),
        {"reflect": 2, "expand": 2, "contract": 6, "shrink": 14},
        (["-0x1.049851eb851ecp+0", "0x1.0b4fffffffffep+0"], "0x1.0666666666666p+2", 24, True),
    ),
    # nan on a band of x[0], which the first simplex straddles: nan vertices
    # sort last, and the search takes every branch
    "nan_band": (
        lambda x: math.nan if -1.15 < x[0] < -1.0 else _rosenbrock(x),
        {"reflect": 29, "expand": 7, "contract": 45, "shrink": 1},
        (["-0x1.2666666981714p+0", "0x1.528f9f5443806p+0"], "0x1.27d70a427f8a3p+2", 82, True),
    ),
}


def _logged(fn, calls):
    def logged(v):
        calls.append([float(t).hex() for t in v])
        return fn(v)
    return logged


class TestSimplex:
    @pytest.mark.parametrize("case", sorted(SIMPLEX_CASES))
    def test_steps_match_array_form(self, case):
        """nelder_mead asks for the same points in the same order as the
        array-form reference, and ends where it ended."""
        fn, taken, (x, fval, iterations, converged) = SIMPLEX_CASES[case]
        calls, ref_calls = [], []
        result = D.nelder_mead(_logged(fn, calls), (-1.2, 1.0))
        ref_x, ref_fval, ref_converged, ref_iterations, ref_taken = oracles.nelder_mead_ref(
            _logged(fn, ref_calls), (-1.2, 1.0)
        )
        assert ref_taken == taken
        assert calls == ref_calls
        assert isinstance(result.x, np.ndarray)
        assert [v.hex() for v in result.x.tolist()] == x == [v.hex() for v in ref_x.tolist()]
        assert float(result.fval).hex() == fval == ref_fval.hex()
        assert result.iterations == iterations == ref_iterations
        assert result.converged is converged is ref_converged

    def test_every_branch_is_covered(self):
        for branch in ("reflect", "expand", "contract", "shrink"):
            assert any(taken[branch] for _, taken, _ in SIMPLEX_CASES.values()), branch


def _numeric_score(family, data, t, m, s):
    """Central differences of the log-likelihood in search coordinates."""
    out = np.empty(t.size)
    for i in range(t.size):
        h = 1e-6 * max(1.0, abs(t[i]))
        up, down = t.copy(), t.copy()
        up[i] += h
        down[i] -= h
        lls = [D._loglik_score(family, data, family.from_search(v, m, s))[0] for v in (up, down)]
        out[i] = (lls[0] - lls[1]) / (2.0 * h)
    return out


class TestScore:
    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_matches_central_differences(self, name):
        """The log-likelihood is the sum of logpdf_z less n log scale, and its
        score in search coordinates, Jacobian of from_search included,
        matches central differences at three points."""
        fit, _ = _pair(name)
        family = fit.family
        data = D.sample(fit, 500, SeededRng(3))
        m, s = float(np.mean(data)), float(np.std(data))
        t0 = family.to_search(np.array(fit.params), m, s)
        np.testing.assert_allclose(family.from_search(t0, m, s), fit.params, rtol=1e-12)
        for shift in (0.0, 0.003, -0.005):
            t = t0 + shift * np.arange(1, t0.size + 1)
            theta = family.from_search(t, m, s)
            ll, score = D._loglik_score(family, data, theta)
            z = (data - theta[-2]) / theta[-1]
            direct = math.fsum(family.logpdf_z(z, tuple(theta[:-2]))) - z.size * math.log(theta[-1])
            assert ll == pytest.approx(direct, rel=1e-12, abs=1e-9)
            numeric = _numeric_score(family, data, t, m, s)
            analytic = family.search_score(t, theta, score, m, s)
            assert np.max(np.abs(analytic - numeric)) <= 1e-6 * max(1.0, np.max(np.abs(numeric)))

    @pytest.mark.parametrize("name", ["johnsonsb", "johnsonsu"])
    def test_even_in_second_coordinate(self, name):
        """(a, b) and (-a, -b) are one distribution: flipping the sign of
        1/b flips that component of the score and nothing else."""
        fit, _ = _pair(name)
        family = fit.family
        data = D.sample(fit, 500, SeededRng(3))
        m, s = float(np.mean(data)), float(np.std(data))
        t = family.to_search(np.array(fit.params), m, s) + 0.002
        flipped = t * np.array([1.0, -1.0, 1.0, 1.0])
        scores = []
        for v in (t, flipped):
            theta = family.from_search(v, m, s)
            ll, score = D._loglik_score(family, data, theta)
            scores.append((ll, family.search_score(v, theta, score, m, s)))
        assert scores[0][0] == scores[1][0]
        assert np.array_equal(scores[0][1] * np.array([1.0, -1.0, 1.0, 1.0]), scores[1][1])

    def test_outside_support_is_rejected(self):
        data = np.linspace(1.0, 3.0, 41)
        with np.errstate(all="ignore"):
            for theta in ([2.0, 3.0, 1.0, 2.0], [2.0, 3.0, 1.5, 1.0], [2.0, 3.0, 0.5, 2.5]):
                for name in ("beta", "johnsonsb"):
                    assert D._loglik_score(D.get_family(name), data, theta) == (-math.inf, None)
        assert D._loglik_score(D.get_family("normal"), data, [0.0, 0.0]) == (-math.inf, None)
        assert D._loglik_score(D.get_family("beta"), data, [2.0, math.nan, 0.5, 3.0])[1] is None


def _rosenbrock_with_gradient(x):
    return _rosenbrock(x), np.array([
        -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]), 200.0 * (x[1] - x[0] ** 2),
    ])


_ABOVE_ONE = math.nextafter(1.0, 2.0)


class TestBfgs:
    def test_rosenbrock(self):
        result = D.bfgs(_rosenbrock_with_gradient, (-1.2, 1.0), 1e-10, 1.0)
        assert result.converged
        assert np.max(np.abs(_rosenbrock_with_gradient(result.x)[1])) <= 1e-10
        assert np.max(np.abs(result.x - 1.0)) <= 1e-9
        assert result.iterations < 60

    def test_not_converged_when_the_score_stays_large(self):
        """A minimum on the edge of the domain leaves a gradient the search
        cannot shrink: it stops with converged false."""
        def edge(x):
            if x[0] < 0.0:
                return math.inf, None
            return x[0] + (x[1] - 2.0) ** 2, np.array([1.0, 2.0 * (x[1] - 2.0)])

        result = D.bfgs(edge, (1.0, 0.0), 1e-8, 1.0)
        assert not result.converged
        assert 0.0 <= result.x[0] <= 1e-6

    def test_step_out_of_domain_is_cut_back(self):
        """The trial step lands where f is infinite; the line search bisects
        back to the line minimum."""
        def fn(x):
            if x[0] >= 0.3:
                return math.inf, None
            return (x[0] - 0.25) ** 2, np.array([2.0 * (x[0] - 0.25)])

        calls = []
        logged = lambda x: calls.append(float(x[0])) or fn(x)
        alpha, f, g = D._backtrack(logged, np.zeros(1), 0.0625, -0.5, np.ones(1), 1.0, 0.0)
        assert calls == [1.0, 0.5, 0.25]
        assert (alpha, f, g[0]) == (0.25, 0.0, 0.0)

    @pytest.mark.parametrize("alpha", [1e-3, 1.0, 30.0])
    def test_step_is_the_first_halving_with_sufficient_decrease(self, alpha):
        x = np.array([-1.2, 1.0])
        f0, g0 = _rosenbrock_with_gradient(x)
        p = -g0 / np.max(np.abs(g0))
        d0 = float(g0 @ p)
        trials = []

        def logged(v):
            trials.append(float((v - x)[0] / p[0]))
            return _rosenbrock_with_gradient(v)

        step, f, g = D._backtrack(logged, x, f0, d0, p, alpha, 0.0)
        assert len(trials) < D._LINE_MAX_EVALS
        assert trials == pytest.approx([alpha * 0.5**k for k in range(len(trials))], rel=1e-12)
        f_step, g_step = _rosenbrock_with_gradient(x + step * p)
        assert f == f_step and np.array_equal(g, g_step)
        assert step == alpha * 0.5 ** (len(trials) - 1)
        assert f <= f0 + D._WOLFE_C1 * step * d0
        for a in trials[:-1]:
            assert not _rosenbrock(x + a * p) <= f0 + D._WOLFE_C1 * a * d0

    def test_flat_step_within_the_noise_is_taken(self):
        """f comes back one ulp above f0 along the whole line: no step
        decreases f, and only the noise test can accept one, where the slope
        has flattened."""
        calls = []

        def flat(x):
            calls.append(float(x[0]))
            return _ABOVE_ONE, np.zeros(1)

        def steep(x):
            return _ABOVE_ONE, np.array([-1e-3])

        step = D._backtrack(flat, np.zeros(1), 1.0, -1e-3, np.ones(1), 1.0, 1e-12)
        assert calls == [1.0]
        assert step[:2] == (1.0, _ABOVE_ONE)
        calls.clear()
        assert D._backtrack(flat, np.zeros(1), 1.0, -1e-3, np.ones(1), 1.0, 0.0) is None
        assert len(calls) == D._LINE_MAX_EVALS
        assert D._backtrack(steep, np.zeros(1), 1.0, -1e-3, np.ones(1), 1.0, 1e-12) is None

    def test_no_step_without_a_decrease(self):
        """f = 1 everywhere while the gradient reads 1e-3. Once c1 * alpha
        * |d0| is under half an ulp of 1, f0 + c1 * alpha * d0 rounds to f0;
        the test on f - f0 still refuses such steps, so bfgs stops at once."""
        calls = []

        def level(x):
            calls.append(float(x[0]))
            return 1.0, np.array([1e-3])

        result = D.bfgs(level, (0.0,), 1e-8, 1.0)
        assert (result.converged, result.iterations) == (False, 0)
        assert len(calls) == 1 + D._LINE_MAX_EVALS

    def test_gives_up_after_line_max_evals(self):
        """Every trial point is outside the domain: after _LINE_MAX_EVALS
        halvings the search returns None, and bfgs stops unconverged."""
        calls = []

        def wall(x):
            calls.append(float(x[0]))
            if x[0] > 0.0:
                return math.inf, None
            return -x[0], np.array([-1.0])

        assert D._backtrack(wall, np.zeros(1), 0.0, -1.0, np.ones(1), 1.0, 1e-12) is None
        assert calls == [0.5**k for k in range(D._LINE_MAX_EVALS)]
        result = D.bfgs(wall, (0.0,), 1e-8, 1.0)
        assert (result.converged, result.iterations, float(result.x[0])) == (False, 0, 0.0)

    def test_stops_unconverged_at_max_iter(self, monkeypatch):
        monkeypatch.setattr(D, "_BFGS_MAX_ITER", 5)
        result = D.bfgs(_rosenbrock_with_gradient, (-1.2, 1.0), 1e-10, 1.0)
        assert not result.converged
        assert result.iterations == 5
        assert result.fval < _rosenbrock(np.array([-1.2, 1.0]))


_finite = st.floats(allow_nan=False, allow_infinity=False)
_scale = st.one_of(
    st.floats(min_value=5e-324, max_value=1e-300),  # subnormal to tiny
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=1e300, allow_infinity=False),  # huge
)


def _same(a, b):
    """Equal, and bit for bit unless both are zeros: the sign of a zero z is
    invisible to the support tests 0 < z and z < 1."""
    return a == b and (a == 0.0 or np.float64(a).tobytes() == np.float64(b).tobytes())


class SpikyNormal(D.Normal):
    """A normal whose log-density is +inf above z = 1, nan below z = -1, and
    -1e308 at z = 0, so that finite terms can overflow the sum."""

    def logpdf_z(self, z, shapes):
        lp = super().logpdf_z(z, shapes)
        lp = np.where(z > 1.0, np.inf, lp)
        lp = np.where(z < -1.0, np.nan, lp)
        return np.where(z == 0.0, -1e308, lp)


# (family, data, theta) on which the objective takes its rare paths.
_UNIT = np.linspace(1.0, 3.0, 41)
OBJECTIVE_CASES = {
    "beta inside": ("beta", _UNIT, [2.0, 3.0, 0.5, 3.0]),
    "loggamma past z = 710": ("loggamma", np.array([0.0, 1.0, 720.0, 800.0]), [2.0, 0.0, 1.0]),
    "+inf and nan terms": (SpikyNormal(), np.linspace(-3.0, 3.0, 13), [0.0, 1.0]),
    "finite terms only": (SpikyNormal(), np.linspace(-0.9, 0.9, 7), [0.0, 1.0]),
    "finite terms overflow the sum": (SpikyNormal(), np.array([-0.5, 0.0, 0.0, 0.5]), [0.0, 1.0]),
    "nan theta": ("beta", _UNIT, [2.0, math.nan, 0.5, 3.0]),
    "inf theta": ("normal", _UNIT, [math.inf, 1.0]),
    "zero scale": ("normal", _UNIT, [0.0, 0.0]),
    "negative scale": ("beta", _UNIT, [2.0, 3.0, 0.5, -2.0]),
    "invalid beta shapes": ("beta", _UNIT, [-1.0, 0.0, 0.5, 3.0]),
    "invalid johnsonsb shape": ("johnsonsb", _UNIT, [0.3, -0.5, 0.5, 3.0]),
    "invalid loggamma shape": ("loggamma", _UNIT, [0.0, 0.0, 1.0]),
}


class TestObjective:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_finite, min_size=1, max_size=40), _finite, _scale)
    def test_extremes_of_z_are_z_of_extremes(self, xs, loc, scale):
        """z = (x - loc) / scale is monotone in x, so its extremes are the
        z of the sample's extremes: the support test needs only those two."""
        x = np.array(xs)
        with np.errstate(all="ignore"):
            z = (x - loc) / scale
            lo = (float(np.min(x)) - loc) / scale
            hi = (float(np.max(x)) - loc) / scale
        assert _same(float(np.min(z)), lo)
        assert _same(float(np.max(z)), hi)

    @pytest.mark.parametrize("case", sorted(OBJECTIVE_CASES))
    def test_matches_masking_every_point(self, case):
        family, data, theta = OBJECTIVE_CASES[case]
        family = D.get_family(family)
        theta = np.array(theta)
        with np.errstate(over="ignore"):  # a sum that overflows warns in both forms
            expected = oracles.penalized_nll_ref(family, data, theta).hex()
            assert D._penalized_nll(family, data, theta).hex() == expected
            assert D._penalized_nll(family, data, list(theta)).hex() == expected


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
