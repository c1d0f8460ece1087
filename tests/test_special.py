"""Special-function accuracy against independent high-precision oracles,
plus the structural invariants (monotonicity, symmetry, complementarity)."""

import math
import runpy
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rleval import special as sp
from rleval.errors import NumericError


class TestNormal:
    def test_phi_zero(self):
        assert sp.std_normal_cdf(0.0) == 0.5

    def test_phi_grid_vs_oracle(self):
        xs = np.linspace(-8.0, 8.0, 1000)
        mine = sp.std_normal_cdf(xs)
        ref = np.array([oracles.phi_ref(v) for v in xs])
        assert np.max(np.abs(mine - ref)) <= 1e-12

    def test_phi_deep_tail_relative(self):
        assert sp.std_normal_cdf(-3.896) == pytest.approx(4.8897194166e-05, rel=1e-9)

    def test_sf_is_complementary(self):
        xs = np.linspace(-8.0, 8.0, 401)
        assert np.max(np.abs(sp.std_normal_cdf(xs) + sp.std_normal_sf(xs) - 1.0)) <= 1e-12

    def test_quantile_vs_oracle(self):
        # mpmath erfinv at 400 digits, precomputed by
        # data/make_quantile_oracle.py; p is read back from the fixture, so
        # the check does not depend on how numpy rounds the grid. p runs
        # from 1e-250 to 1 - 2^-53, so all three AS 241 rationals are hit.
        fixture = np.loadtxt(Path(__file__).parent / "data" / "quantile_oracle.txt")
        mine = sp.std_normal_quantile(fixture[:, 0])
        ref = fixture[:, 1]
        assert np.all(np.abs(mine - ref) <= 8 * np.spacing(np.abs(ref)))

    def test_quantile_inverse_law(self):
        # The raw 1e-9 bound is attainable everywhere the rounding of
        # Phi(x) to a double permits it; the conditioning term ulp/phi(x)
        # accounts for that input quantization near the upper tail.
        xs = np.linspace(-6.0, 6.0, 1201)
        p = sp.std_normal_cdf(xs)
        back = sp.std_normal_quantile(p)
        cond = np.spacing(p) / np.exp(-0.5 * xs * xs) * math.sqrt(2 * math.pi)
        assert np.all(np.abs(back - xs) <= 1e-9 + cond)

    def test_quantile_domain_error(self):
        with pytest.raises(NumericError):
            sp.std_normal_quantile(0.0)
        with pytest.raises(NumericError):
            sp.std_normal_quantile(1.0)

    def test_logcdf_matches_log_of_cdf(self):
        xs = np.linspace(-30.0, 8.0, 300)
        mine = sp.std_normal_logcdf(xs)
        ref = np.array([float(np.log(oracles.phi_ref(v))) for v in xs])
        assert np.max(np.abs(mine - ref)) <= 1e-10 * np.maximum(1.0, np.abs(ref)).max()

    def test_logcdf_pointwise(self):
        xs = np.linspace(-38.0, 8.0, 1000)
        mine = sp.std_normal_logcdf(xs)
        ref = np.array([oracles.log_phi_ref(v) for v in xs])
        assert np.all(np.abs(mine - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    def test_scalar_returns_float(self):
        assert isinstance(sp.std_normal_cdf(1.0), float)
        assert isinstance(sp.std_normal_quantile(0.25), float)


_LIMITS = {
    # f: (f(-inf), f(+inf))
    sp.erfc: (2.0, 0.0),
    sp.std_normal_cdf: (0.0, 1.0),
    sp.std_normal_sf: (1.0, 0.0),
    sp.std_normal_logcdf: (-math.inf, 0.0),
}


@pytest.mark.parametrize("f", list(_LIMITS), ids=lambda f: f.__name__)
def test_nonfinite_and_shapes(f):
    lo, hi = _LIMITS[f]
    out = f(np.array([[-math.inf, math.nan], [math.inf, 0.5]]))
    assert out.shape == (2, 2)
    assert out[0, 0] == lo and out[1, 0] == hi and math.isnan(out[0, 1])
    assert out[1, 1] == f(np.array([0.5]))[0]
    assert f(np.empty(0)).shape == (0,)
    for value, want in [(-math.inf, lo), (math.inf, hi)]:
        got = f(np.array(value))
        assert isinstance(got, float) and got == want
    assert math.isnan(f(np.array(math.nan)))


@pytest.mark.parametrize(
    "f", [sp.erfc, sp.std_normal_cdf, sp.std_normal_sf], ids=lambda f: f.__name__
)
def test_scalar_equals_array_element(f):
    xs = np.linspace(-38.0, 38.0, 20001)
    assert np.array_equal([f(float(x)) for x in xs], f(xs))


class TestErfc:
    def test_against_libm(self):
        xs = np.linspace(-9.0, 9.0, 2000)
        ref = np.array([math.erfc(v) for v in xs])
        assert np.max(np.abs(sp.erfc(xs) - ref)) <= 5e-15

    def test_relative_vs_oracle(self):
        # erfc(26.5) ~ 3e-307 is still a normal double
        xs = np.linspace(0.0, 26.5, 2000)
        ref = np.array([oracles.erfc_ref(v) for v in xs])
        assert np.max(np.abs(sp.erfc(xs) - ref) / ref) <= 1e-14


class TestDigamma:
    def test_grid_vs_oracle(self):
        # log-spaced over [1e-3, 1e6], densely over [1, 2] and at the root
        xs = np.concatenate([
            np.geomspace(1e-3, 1e6, 600),
            np.linspace(1.0, 2.0, 201),
            1.4616321449683622 + np.linspace(-1e-9, 1e-9, 11),
        ])
        worst = max(abs(sp.digamma(x) / oracles.digamma_ref(x) - 1.0) for x in xs)
        assert worst <= 1e-14

    def test_recurrence_and_special_values(self):
        assert sp.digamma(1.0) == pytest.approx(-0.5772156649015329, rel=1e-15)
        assert sp.digamma(0.5) == pytest.approx(-0.5772156649015329 - 2.0 * math.log(2.0),
                                                rel=1e-15)
        for x in (0.3, 1.7, 9.5, 42.0):
            assert sp.digamma(x + 1.0) == pytest.approx(sp.digamma(x) + 1.0 / x, rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.5, math.nan])
    def test_domain_errors(self, x):
        with pytest.raises(NumericError):
            sp.digamma(x)


# loggamma's (c, loc, scale) on the benchmark inputs' means as its simplex
# fitted them, before its fit moved to BFGS under the shape cap c = 1e6;
# the series and continued fraction pins below keep their points.
SIMPLEX_LOGGAMMA_FITS = {
    "quickstart": (136206.2529579847, -896.0445952330674, 85.29206779108705),
    "skewed-runs": (265214.9403881943, -52786.0698599079, 4233.618200541316),
}


class TestIncompleteGamma:
    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.5, 10.59, 79.15, 240.56, 877.15])
    def test_grid_vs_oracle(self, a):
        xs = np.linspace(1e-8, 3.0 * a + 12.0, 125)
        mine = sp.reg_inc_gamma_lower(a, xs)
        ref = np.array([oracles.igam_lower_ref(a, v) for v in xs])
        assert np.max(np.abs(mine - ref)) <= 1e-10

    def test_exponential_reduction(self):
        xs = np.linspace(0.0, 12.0, 60)
        assert np.max(np.abs(sp.reg_inc_gamma_lower(1.0, xs) - (1.0 - np.exp(-xs)))) <= 1e-13

    def test_upper_plus_lower(self):
        xs = np.linspace(0.1, 40.0, 80)
        total = sp.reg_inc_gamma_lower(7.7, xs) + sp.reg_inc_gamma_upper(7.7, xs)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_monotone_in_x(self):
        xs = np.sort(np.linspace(0.0, 50.0, 400))
        vals = sp.reg_inc_gamma_lower(9.3, xs)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_domain_errors(self):
        with pytest.raises(NumericError):
            sp.reg_inc_gamma_lower(-1.0, 2.0)
        with pytest.raises(NumericError):
            sp.reg_inc_gamma_lower(2.0, -1.0)

    def test_series_stops_where_the_full_scan_does(self):
        """The two-element stop test ends the series at the same term as the
        whole-array one, so every value keeps its bits."""
        rng = np.random.default_rng(25)
        for _ in range(300):
            a = float(10.0 ** rng.uniform(-2.0, 5.0))
            x = rng.uniform(0.0, a + 1.0, int(rng.integers(1, 40))) * rng.uniform(0.0, 1.0)
            x[rng.random(x.size) < 0.1] = 0.0
            assert ([v.hex() for v in sp._igam_series(a, x)]
                    == [v.hex() for v in oracles.igam_series_ref(a, x)])

    @pytest.mark.parametrize("workload", ["quickstart", "skewed-runs"])
    def test_series_unchanged_at_loggamma_ks_arguments(self, workload, workload_means):
        """The series, called directly, on points x = e^z where loggamma's
        KS test evaluated P(c, x) on the benchmark inputs' means while its
        simplex fit ended near c ~ 1e5, bit for bit. `reg_inc_gamma_lower`
        hands those points to Temme's expansion; these are the ones below
        c - sqrt(c), which the series sums within its 4000 terms at both
        shapes (skewed-runs' nearer c need more)."""
        c, loc, scale = SIMPLEX_LOGGAMMA_FITS[workload]
        x = np.exp((workload_means[workload] - loc) / scale)
        part = x[x < c - math.sqrt(c)]
        assert part.size > 1000
        assert ([v.hex() for v in sp._igam_series(c, part)]
                == [v.hex() for v in oracles.igam_series_ref(c, part)])

    @pytest.mark.parametrize("a", [1.0, 10.0, 1e3, 1.36e5, 2.65e5])
    def test_continued_fraction_matches_the_allocating_form(self, a):
        """The in-place Lentz steps give the allocating form's bits, from
        x = a + 1 out to where Q underflows, also on parts of that range,
        where the whole-array stop test ends the fraction elsewhere."""
        reach = 40.0 * math.sqrt(a) + 800.0
        x = a + 1.0 + np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 200) * reach])
        for part in (x, x[:1], x[::7], x[150:]):
            assert ([v.hex() for v in sp._igam_cf(a, part)]
                    == [v.hex() for v in oracles.igam_cf_ref(a, part)])

    @pytest.mark.parametrize("workload", ["quickstart", "skewed-runs"])
    def test_continued_fraction_unchanged_at_loggamma_ks_arguments(self, workload,
                                                                   workload_means):
        """The continued fraction, called directly, on the points x >= c + 1
        where loggamma's KS test evaluated Q(c, x) on the benchmark inputs'
        means while its simplex fit ended near c ~ 1e5, bit for bit.
        `reg_inc_gamma_upper` hands them to Temme's expansion."""
        c, loc, scale = SIMPLEX_LOGGAMMA_FITS[workload]
        x = np.exp((workload_means[workload] - loc) / scale)
        part = x[x >= c + 1.0]
        assert part.size > 1000
        assert ([v.hex() for v in sp._igam_cf(c, part)]
                == [v.hex() for v in oracles.igam_cf_ref(c, part)])

    def test_series_converges_at_large_shape(self):
        a = 1e6
        assert sp.reg_inc_gamma_lower(a, a + 0.5) == pytest.approx(
            oracles.igam_lower_ref(a, a + 0.5), rel=1e-9, abs=0.0)

    def test_series_raises_when_its_terms_run_out(self):
        """Here the series would need ~9000 terms; its sum cut at 4000 was
        6.4e-5 relative off. It raises rather than return it."""
        with pytest.raises(NumericError, match="short of convergence"):
            sp._igam_series(1e6, np.array([1e6 + 0.5]))

    def test_continued_fraction_raises_when_its_steps_run_out(self):
        """At a = 1e8 and x = a + 1 the fraction needs more than its 4000
        steps. It raises rather than return the fraction cut there;
        `_igam_both` hands it no such point, Temme's expansion takes them."""
        with pytest.raises(NumericError, match="short of convergence"):
            sp._igam_cf(1e8, np.array([1e8 + 1.0]))

    @pytest.mark.parametrize("fn", [sp.reg_inc_gamma_lower, sp.reg_inc_gamma_upper])
    def test_nan_arguments_raise(self, fn):
        with pytest.raises(NumericError, match="not NaN"):
            fn(5.0, [math.nan, 7.0])
        for a in (math.nan, math.inf, -math.inf):
            with pytest.raises(NumericError, match="finite a > 0"):
                fn(a, [1.0, 7.0])

    @pytest.mark.parametrize("a", [0.5, 5.0, 19.9, 1.36e5])
    def test_infinite_x_is_exactly_one(self, a):
        """P(a, inf) = 1 and Q(a, inf) = 0, with no warning (an error under
        the suite's filter); the finite points keep their bits."""
        x = np.array([math.inf, a + 3.0, 0.5 * a, math.inf])
        p, q = sp.reg_inc_gamma_lower(a, x), sp.reg_inc_gamma_upper(a, x)
        assert p[0] == p[3] == 1.0 and q[0] == q[3] == 0.0
        assert p[1:3].tobytes() == sp.reg_inc_gamma_lower(a, x[1:3]).tobytes()
        assert q[1:3].tobytes() == sp.reg_inc_gamma_upper(a, x[1:3]).tobytes()
        assert sp.reg_inc_gamma_lower(a, math.inf) == 1.0

    def test_temme_table_is_the_exact_derivation(self):
        """Each of `_TEMME_C`'s constants is the double nearest the exact
        rational that data/make_temme_coefficients.py derives, and c_0's
        leading terms are Temme's."""
        script = Path(__file__).parent / "data" / "make_temme_coefficients.py"
        exact = runpy.run_path(str(script))["temme_coefficients"]()
        assert sp._TEMME_C == tuple(tuple(float(v) for v in row) for row in exact)
        assert exact[0][:6] == [Fraction(-1, 3), Fraction(1, 12), Fraction(-2, 135),
                                Fraction(1, 864), Fraction(1, 2835), Fraction(-139, 777600)]
        assert [row[0] for row in exact[:4]] == [Fraction(-1, 3), Fraction(-1, 540),
                                                  Fraction(25, 6048), Fraction(101, 155520)]

    def test_temme_branch_vs_oracle(self):
        """P and Q on data/igam_oracle.txt (mpmath's 1F1 series; see
        data/make_igam_oracle.py), a from 20 to 1e9: within 3e-13 relative
        of the reference wherever it exceeds 1e-300 inside Temme's domain,
        and within the other kernels' 1e-10 at the edges' outer points."""
        fixture = np.loadtxt(Path(__file__).parent / "data" / "igam_oracle.txt")
        deepest = {"P": 1.0, "Q": 1.0}
        for a in np.unique(fixture[:, 0]):
            a, xs, ref_p, ref_q = float(a), *fixture[fixture[:, 0] == a, 1:].T
            near = np.abs(xs - a) < sp._TEMME_WIDTH * a
            assert a >= sp._TEMME_MIN_A and near.any() and not near.all()
            for fn, ref, name in ((sp.reg_inc_gamma_lower, ref_p, "P"),
                                  (sp.reg_inc_gamma_upper, ref_q, "Q")):
                got = fn(a, xs)
                rel = near & (ref > 1e-300)
                assert np.all(np.abs(got[rel] - ref[rel]) <= 3e-13 * ref[rel]), (a, name)
                assert np.all(np.abs(got[~near] - ref[~near]) <= 1e-10), (a, name)
                deepest[name] = min(deepest[name], float(np.min(ref[rel])))
        assert max(fixture[:, 0]) >= 1e8
        assert deepest["P"] < 1e-295 and deepest["Q"] < 1e-295

    def test_temme_branch_leaves_outside_calls_alone(self):
        """A call whose points all lie outside Temme's domain returns the
        bits of the series and the continued fraction alone."""
        for a in (0.5, 19.9, 20.0, 877.15, 1.36e5):
            x = np.linspace(0.0, 3.0 * a + 12.0, 200)
            if a >= sp._TEMME_MIN_A:
                x = x[np.abs(x - a) >= sp._TEMME_WIDTH * a]
            lower = x < a + 1.0
            ps = oracles.igam_series_ref(a, x[lower])
            qc = oracles.igam_cf_ref(a, x[~lower])
            want_p = np.clip(np.concatenate([ps, 1.0 - qc]), 0.0, 1.0)
            want_q = np.clip(np.concatenate([1.0 - ps, qc]), 0.0, 1.0)
            assert sp.reg_inc_gamma_lower(a, x).tobytes() == want_p.tobytes()
            assert sp.reg_inc_gamma_upper(a, x).tobytes() == want_q.tobytes()


def _hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestOneHornerLoop:
    """`rng.horner`, the one polynomial loop, gives each kernel the bits of
    the loop it had before: Cody's ratio on his table order, AS 241's
    paired loop, and the two reversed loops of digamma and Temme."""

    def test_calerf_on_its_three_pieces_and_special_values(self):
        inner = np.nextafter(0.46875, 1.0)
        y = np.concatenate([
            np.linspace(0.0, 0.46875, 2001), np.linspace(inner, 4.0, 4001),
            np.linspace(np.nextafter(4.0, 5.0), 30.0, 4001), np.geomspace(1e-300, 1e300, 601),
            [0.0, -0.0, 4.0, sp._ERFC_UNDERFLOW, math.inf, math.nan],
        ])
        for scaled in (False, True):
            assert (_hexes(sp._calerf(y, scaled=scaled))
                    == _hexes(oracles.calerf_ref(y, scaled=scaled))), scaled

    def test_quantile_central_near_and_far(self):
        from rleval import rng  # here: other tests name their generators rng

        p = np.concatenate([
            np.linspace(0.075, 0.925, 4001),  # central, |p - 1/2| <= 0.425
            np.geomspace(1.4e-11, 0.075, 2001),  # near, r <= 5
            np.geomspace(1e-300, 1.4e-11, 2001),  # far
            1.0 - np.geomspace(2.0**-53, 0.075, 2001),
        ])
        want = oracles.as241_quantile_ref(p, rng._AS241_CENTRAL, rng._AS241_NEAR,
                                          rng._AS241_FAR)
        assert _hexes(sp.std_normal_quantile(p)) == _hexes(want)

    def test_digamma_near_its_root_and_across_its_range(self):
        xs = np.concatenate([
            sp._PSI_ROOT_HI + np.linspace(-0.2499, 0.2499, 2001), [sp._PSI_ROOT_HI],
            np.geomspace(1e-3, 1e6, 3001),
        ])
        tables = (sp._PSI_ROOT_HI, sp._PSI_ROOT_LO, sp._PSI_ROOT_TAYLOR, sp._PSI_ASYMPTOTIC)
        for x in xs.tolist():
            assert sp.digamma(x).hex() == oracles.digamma_loop_ref(x, *tables).hex(), x

    @pytest.mark.parametrize("a", [20.0, 1e3, 1.36e5, 1e9])
    def test_temme_coefficient_sums_and_expansion(self, a):
        """The sums in 1/a of each eta power, and `_igam_temme` across its
        band, which sums its series in eta and in s^2 with them."""
        columns = list(zip(*sp._TEMME_C))
        assert (_hexes([sp.horner(1.0 / a, column) for column in columns])
                == _hexes([oracles.horner_loop_ref(1.0 / a, column) for column in columns]))
        x = a + np.linspace(-0.2999, 0.2999, 2001) * a
        want = oracles.igam_temme_ref(a, x, sp._TEMME_C, sp._ATANH_ODD)
        assert _hexes(sp._igam_temme(a, x)) == _hexes(want)


class TestIncompleteBeta:
    @pytest.mark.parametrize(
        "a,b",
        [(1.0, 1.0), (0.5, 0.5), (18.83, 8.83), (824.65, 167.66), (456.27, 282.03), (2.0, 9.0)],
    )
    def test_grid_vs_oracle(self, a, b):
        zs = np.linspace(1e-9, 1.0 - 1e-9, 125)
        mine = sp.reg_inc_beta(a, b, zs)
        ref = np.array([oracles.ibeta_ref(a, b, v) for v in zs])
        assert np.max(np.abs(mine - ref)) <= 1e-10

    def test_uniform_reduction(self):
        zs = np.linspace(0.0, 1.0, 41)
        assert np.max(np.abs(sp.reg_inc_beta(1.0, 1.0, zs) - zs)) <= 1e-14

    def test_table_anchor_value(self):
        # feeds the verification-matrix reconstruction for the one starred
        # configuration
        z = (138.58 - 89.22) / 74.13
        assert sp.reg_inc_beta(18.83, 8.83, z) == pytest.approx(
            oracles.ibeta_ref(18.83, 8.83, z), abs=1e-12
        )

    def test_monotone_in_z(self):
        zs = np.linspace(0.0, 1.0, 500)
        vals = sp.reg_inc_beta(3.3, 7.7, zs)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_domain_errors(self):
        with pytest.raises(NumericError):
            sp.reg_inc_beta(0.0, 1.0, 0.5)
        with pytest.raises(NumericError):
            sp.reg_inc_beta(1.0, 1.0, 1.5)


class TestOwensT:
    def test_zero_slope(self):
        assert sp.owens_t(1.3, 0.0) == 0.0

    def test_zero_height(self):
        assert sp.owens_t(0.0, 1.0) == pytest.approx(0.125, abs=1e-14)
        a = 0.7
        assert sp.owens_t(0.0, a) == pytest.approx(math.atan(a) / (2 * math.pi), abs=1e-14)

    def test_grid_vs_oracle(self):
        hs = np.linspace(-4.0, 4.0, 40)
        slopes = [-3.5, -1.0, -0.58, 0.2, 0.58, 1.0, 2.5, 6.0]
        worst = 0.0
        for a in slopes:
            for h in hs:
                worst = max(worst, abs(sp.owens_t(h, a) - oracles.owens_t_ref(h, a)))
        assert worst <= 1e-10

    def test_anchor_value(self):
        assert sp.owens_t(1.1734, 0.58) == pytest.approx(
            oracles.owens_t_ref(1.1734, 0.58), abs=1e-12
        )

    def test_symmetries(self):
        for h, a in [(0.3, 0.9), (1.7, 2.4), (2.2, 0.1)]:
            assert abs(sp.owens_t(-h, a) - sp.owens_t(h, a)) <= 1e-12
            assert abs(sp.owens_t(h, -a) + sp.owens_t(h, a)) <= 1e-12

    @pytest.mark.parametrize("a", [2.0, 0.5])
    def test_huge_h_vs_scipy(self, a):
        scipy_special = pytest.importorskip("scipy.special")
        h = np.array([np.inf, -np.inf, 1e300, -1e155, 45.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mine = sp.owens_t(h, a)
        ref = scipy_special.owens_t(h, a)
        assert np.array_equal(mine[:5], ref[:5])
        assert abs(mine[5] - ref[5]) <= 1e-12

    @pytest.mark.parametrize("a", [math.inf, -math.inf])
    def test_infinite_slope_vs_scipy(self, a):
        """T(h, +-inf) = sign(a) (1 - Phi(|h|)) / 2, so +-1/4 at h = 0, with
        no warning: the complement identity's a h is 0 there, not inf * 0."""
        stats = pytest.importorskip("scipy.stats")
        h = np.array([0.0, -0.0, 1e-300, 1.0, 40.0, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mine = sp.owens_t(h, a)
            scalar = sp.owens_t(0.0, a)
        ref = math.copysign(1.0, a) * stats.norm.sf(np.abs(h)) / 2
        assert mine == pytest.approx(ref, rel=1e-14, abs=0.0)
        assert scalar == math.copysign(0.25, a)

    def test_gauss_legendre_table(self):
        """`_GL_NODES` and `_GL_WEIGHTS` are numpy's leggauss(48) within
        2 ulp, exactly symmetric, and near mpmath's rule at 50 digits: the
        nodes within 1e-15, the weights within 5e-15, since leggauss's own
        weights are up to 4.0e-15 off at the outermost node. The negative
        half mirrors the 24 pairs that data/make_gauss_legendre.py derives."""
        nodes, weights = np.array(sp._GL_NODES), np.array(sp._GL_WEIGHTS)
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(48)
        assert np.all(np.abs(nodes - ref_nodes) <= 2 * np.spacing(np.abs(ref_nodes)))
        assert np.all(np.abs(weights - ref_weights) <= 2 * np.spacing(ref_weights))
        script = Path(__file__).parent / "data" / "make_gauss_legendre.py"
        exact_nodes, exact_weights = runpy.run_path(str(script))["exact_half"]()
        assert max(abs(float(e - x)) for e, x in zip(exact_nodes, nodes[24:])) <= 1e-15
        assert max(abs(float(e - w)) for e, w in zip(exact_weights, weights[24:])) <= 5e-15

    @pytest.mark.parametrize("n", [1, 7, 48, 10000])
    def test_streamed_quad_equals_matrix_form(self, n):
        rng = np.random.default_rng(n)
        h = rng.exponential(2.0, n)
        a = rng.random(n)
        assert np.array_equal(sp._owens_quad(h, a), oracles.owens_quad_matrix_ref(h, a))

    @pytest.mark.parametrize("a", [0.6, 6.0])
    def test_equals_matrix_form_at_quickstart_z(self, a, workload_fit, workload_means,
                                                monkeypatch):
        """Both branches of owens_t, at the z values where skewnorm's KS test
        evaluates it on the quick-start means."""
        fit = workload_fit("quickstart", "skewnorm")
        z = (workload_means["quickstart"] - fit.loc) / fit.scale
        streamed = sp.owens_t(z, a)
        monkeypatch.setattr(sp, "_owens_quad", oracles.owens_quad_matrix_ref)
        assert np.array_equal(streamed, sp.owens_t(z, a))


# Working memory of the kernels that map n points to n values, on n = 10000:
# the tracemalloc peak of one call must stay below one (n x 48) float64
# matrix, the size of the node matrix Owen's T once built.
_N = 10000
_X = np.linspace(-8.0, 8.0, _N)
_LOGGAMMA_C = 1.3e5  # near loggamma's shape on the quick-start means, 1.36e5


def _peak_bytes(fn, *args):
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fn, args", [
    pytest.param(sp.std_normal_cdf, (_X,), id="std_normal_cdf"),
    pytest.param(sp.std_normal_sf, (_X,), id="std_normal_sf"),
    pytest.param(sp.std_normal_logcdf, (_X,), id="std_normal_logcdf"),
    pytest.param(sp.std_normal_quantile, ((np.arange(_N) + 0.5) / _N,),
                 id="std_normal_quantile"),
    pytest.param(sp.owens_t, (_X, 0.6), id="owens_t-a0.6"),
    pytest.param(sp.owens_t, (_X, 6.0), id="owens_t-a6"),
    pytest.param(sp.reg_inc_beta, (150.0, 228.0, np.linspace(0.2, 0.6, _N)),
                 id="reg_inc_beta"),  # beta's quick-start shapes; both sides of the swap
    pytest.param(sp.reg_inc_gamma_lower,
                 (_LOGGAMMA_C, _LOGGAMMA_C + math.sqrt(_LOGGAMMA_C) * _X),
                 id="reg_inc_gamma_lower"),
    pytest.param(sp.reg_inc_gamma_upper,
                 (_LOGGAMMA_C, _LOGGAMMA_C + math.sqrt(_LOGGAMMA_C) * _X),
                 id="reg_inc_gamma_upper"),
])
def test_working_memory_below_one_node_matrix(fn, args):
    assert _peak_bytes(fn, *args) < 48 * _N * 8


@pytest.mark.parametrize("a", [0.6, 6.0])
def test_owens_t_working_memory(a):
    """One slope for all points: one branch runs, the quadrature's node
    factors are Python floats and Phi comes from std_normal_cdf, so a call
    peaks below 21 vectors of n doubles on either side of |a| = 1."""
    assert _peak_bytes(sp.owens_t, _X, a) < 21 * _N * 8


def _at_tail_switch(n):
    """The smallest d with sqrt(n) d >= the KS tail switch, as computed."""
    d = sp._KS_TAIL_X0 / math.sqrt(n)
    while math.sqrt(n) * d < sp._KS_TAIL_X0:
        d = math.nextafter(d, 1.0)
    return d


class TestKolmogorov:
    def test_sf_at_zero(self):
        assert sp.kolmogorov_sf(0.0) == 1.0

    def test_sf_vs_oracle(self):
        xs = np.linspace(0.02, 3.5, 300)
        ref = np.array([oracles.kolmogorov_sf_ref(v) for v in xs])
        assert np.max(np.abs(sp.kolmogorov_sf(xs) - ref)) <= 1e-12

    def test_exact_vs_scipy(self):
        kstwo = pytest.importorskip("scipy.stats").kstwo
        cases = [(0.0082, 10000), (0.0044, 10000), (0.0134, 10000), (0.05, 100),
                 (0.2, 25), (0.4, 10), (0.01, 5000), (0.013, 2500)]
        for d, n in cases:
            assert sp.ks_one_sample_pvalue(d, n) == pytest.approx(
                float(kstwo.sf(d, n)), abs=1e-8
            )

    def test_exact_mode_beats_asymptotic_at_fixture(self):
        exact = sp.ks_one_sample_pvalue(0.0075, 10000, mode="exact")
        asym = sp.ks_one_sample_pvalue(0.0075, 10000, mode="asymptotic")
        assert exact != asym
        assert abs(exact - 0.6235) < abs(asym - 0.6235)

    def test_monotone_in_d(self):
        ds = np.linspace(0.001, 0.2, 60)
        ps = [sp.ks_one_sample_pvalue(float(d), 500) for d in ds]
        assert all(a >= b - 1e-12 for a, b in zip(ps, ps[1:]))
        # n = 10000, with pairs of neighbours at the tail switch and at
        # sqrt(n) d = 3.2, where an asymptotic hand-off would jump by 2.6%
        at = _at_tail_switch(10000)
        pairs = [at * (1 - 1e-12), at, 0.032, math.nextafter(0.032, 1.0)]
        ds = np.sort(np.concatenate((np.linspace(0.015, 0.035, 41), pairs)))
        ps = [sp.ks_one_sample_pvalue(float(d), 10000) for d in ds]
        assert all(a >= b - 1e-12 for a, b in zip(ps, ps[1:]))

    def test_tail_vs_twice_smirnov(self):
        smirnov = pytest.importorskip("scipy.special").smirnov
        for n in (10, 20, 50, 100, 1000, 10000):
            for d in np.linspace(_at_tail_switch(n), 8.0 / math.sqrt(n), 40):
                if d < 1.0:
                    ref = 2.0 * float(smirnov(n, d))
                    got = sp.ks_one_sample_pvalue(float(d), n)
                    assert got == pytest.approx(ref, rel=1e-10, abs=0.0), (n, d)

    @pytest.mark.parametrize("n", [100, 1000, 10000])
    def test_continuous_at_tail_switch(self, n):
        at = _at_tail_switch(n)
        below = at * (1 - 1e-12)
        assert math.sqrt(n) * below < sp._KS_TAIL_X0
        assert sp.ks_one_sample_pvalue(below, n) == pytest.approx(
            sp.ks_one_sample_pvalue(at, n), rel=1e-9, abs=0.0
        )

    @pytest.mark.parametrize("start, n, pinned", [
        (1.0, 1, ("0x1.0000000000000p+0", 7)),
        (1.0, 70, ("0x1.529a902b4db14p-97", 7)),
        (123.456, 513, ("0x1.ac57a1ab5de82p-263", -133)),
        (1e-3, 10000, ("0x1.2a73b397bdc83p-12", -4333)),
        (7.5e138, 50000, ("0x1.655b3b789ccbfp-44", -21553)),
        (-1e-300, 2, ("-0x1.79ca10c924225p-68", -273)),
    ], ids=["n1", "n70", "n513", "n10000", "n50000", "negative"])
    def test_factorial_ratio_pinned(self, start, n, pinned):
        """s n! / n^n as (s', exp10') from exp10 = 7, to the bit. The loop
        runs on Python floats, so no BLAS or SIMD kernel reaches it."""
        s, exp10 = sp._times_factorial_ratio(start, 7, n)
        assert (s.hex(), exp10) == pinned

    def test_extremes(self):
        assert sp.ks_one_sample_pvalue(0.0, 10) == 1.0
        assert sp.ks_one_sample_pvalue(1.0, 10) == 0.0

    @pytest.mark.parametrize("d,n,mode", [
        (0.0, 10, "exact"),
        (1.0, 10, "exact"),
        (0.008, 10000, "exact"),  # matrix power
        (0.05, 10000, "exact"),  # one-sided tail
        (0.004, 200000, "exact"),  # band too large: asymptotic fallback
        (0.008, 10000, "asymptotic"),
    ])
    def test_scalar_returns_python_float(self, d, n, mode):
        assert type(sp.ks_one_sample_pvalue(d, n, mode=mode)) is float

    def test_domain_errors(self):
        with pytest.raises(NumericError):
            sp.ks_one_sample_pvalue(1.2, 10)
        with pytest.raises(NumericError):
            sp.ks_one_sample_pvalue(0.1, 0)
        with pytest.raises(NumericError):
            sp.ks_one_sample_pvalue(0.1, 10, mode="bogus")


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-6.0, max_value=6.0), st.floats(min_value=-6.0, max_value=6.0))
def test_phi_monotone(a, b):
    lo, hi = sorted((a, b))
    assert sp.std_normal_cdf(lo) <= sp.std_normal_cdf(hi) + 1e-15


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_inc_beta_monotone(a, b, z1, z2):
    lo, hi = sorted((z1, z2))
    assert sp.reg_inc_beta(a, b, lo) <= sp.reg_inc_beta(a, b, hi) + 1e-12
