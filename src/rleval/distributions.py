"""Parametric distribution families and maximum-likelihood fitting.

Seven families are registered: normal, beta, johnsonsb, johnsonsu,
loggamma, powernorm, skewnorm. Parameters follow the (shape(s), loc,
scale) convention, z = (x - loc) / scale throughout, so published
parameter rows in that convention load directly.

A fit searches from the moment-based start (`Family.init_params`), in the
family's search coordinates (`Family.to_search` and `from_search`, given
the data's mean m and sd s), and the fit reports the decoded (shapes, loc,
scale). By default they are the shapes as they are, (loc - m)/s and
log(scale/s). Three families have likelihoods that rise along curved
ridges in their raw parameters, and search other coordinates:

- johnsonsu searches (a/b, 1/b, (mean - m)/s, log(sd/s)), with the
  distribution's closed-form mean and sd. Its normal limit b -> inf is the
  finite point 1/b = 0, and its lognormal limit keeps a finite mean and sd.
- johnsonsb searches (a/b, 1/b, (median - m)/s, log(spread/s)), the
  spread being dx/du at the median; its normal limit is 1/b = 0 too.
- beta searches (log a, log b, (loc - m)/s, log(scale/s)).

Six families are fitted by `bfgs` on the negative log-likelihood and its
analytic score. Each writes its log-density once, in
`Family.logpdf_z_score`, which returns it and its derivatives at every
point; `_loglik_score` alone sums them, and `search_score` chains the score
through the Jacobian of `from_search`. The fit path sums with np.sum and
never calls BLAS, whose kernel and thread count would move a sum's last
bits. The line search halves the step until the log-likelihood rises
enough, or, within its rounding noise, until the slope has flattened; a
point outside the support has an infinite negative log-likelihood, so such
a step is cut back too. loggamma, whose supremum on right-skewed data is
its c -> inf normal limit, keeps the Nelder-Mead simplex on its raw
parameters (`Family.simplex`) with large finite penalties for invalid
parameters and non-finite log-densities. It alone also searches from two
jitters of the moment start, drawn from the fitting seed, and reports the
best of its three searches; the simplex's own tolerance decides only when
a search stops.

Every fit records the iterations of the search it came from and the score
norm at its result, max |d loglik / d t_i| / n over the search coordinates
t (loggamma's raw parameters). For every family, `converged` means that
norm is at most _SCORE_TOL = 1e-9. Zero-variance data is an error.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import special
from .errors import NumericError, ValidationError
from .resample import empirical_quantile
from .rng import DOMAIN_FIT, SeededRng

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_POINT_PENALTY = 1e9
_INVALID_PENALTY = 1e12


class Family:
    """One parametric family; subclasses define the standardized (z) forms."""

    name = ""
    shape_names: tuple = ()
    bounded = False  # True when support of z is the unit interval
    simplex = False  # True to fit by Nelder-Mead instead of the score search

    def shapes_valid(self, shapes):
        return True

    def logpdf_z(self, z, shapes):
        return self.logpdf_z_score(z, shapes)[0]

    def logpdf_z_into(self, z, shapes, tmp):
        """`logpdf_z` for the simplex's objective, which may write it over
        the float64 vector z, with `tmp` a scratch vector of z's shape."""
        return self.logpdf_z(z, shapes)

    def logpdf_z_score(self, z, shapes):
        """(log-density, its d/dz, and a tuple of its d/d shape, one per
        shape), each an array over z, from one pass that reuses the value's
        arrays; `_loglik_score` alone sums them."""
        raise NotImplementedError

    def cdf_z(self, z, shapes):
        raise NotImplementedError

    def sf_z(self, z, shapes):
        raise NotImplementedError

    def init_params(self, data):
        raise NotImplementedError

    # Search coordinates: the shapes as they are, (loc - m)/s and
    # log(scale/s), for the data's mean m and sd s.
    def to_search(self, theta, m, s):
        """The point `fit_mle` searches at for parameters theta, given the
        data's mean m and sd s."""
        *shapes, loc, scale = theta
        return np.array([*shapes, (loc - m) / s, math.log(scale / s)])

    def from_search(self, t, m, s):
        """Inverse of `to_search`; may return non-finite parameters, which
        the fit's objective rejects."""
        return np.array([*t[:-2], m + s * t[-2], s * np.exp(t[-1])])

    def search_score(self, t, theta, score, m, s):
        """The score in search coordinates t, from the score in theta =
        from_search(t): the product of the Jacobian d theta / d t,
        transposed, with it."""
        out = np.array(score, dtype=np.float64)
        out[-2] *= s
        out[-1] *= theta[-1]
        return out

    def __repr__(self):
        return f"Family({self.name})"


def _iqr_scale(data):
    iqr = empirical_quantile(data, 0.75) - empirical_quantile(data, 0.25)
    if iqr > 0:
        return iqr / 1.349  # matches a normal sigma
    return float(np.std(data)) or 1.0


def _bounded_frame(data):
    """Padded (loc, scale) so the unit-support families start feasible."""
    lo = float(np.min(data))
    hi = float(np.max(data))
    rng = hi - lo
    return lo - 0.05 * rng, 1.1 * rng


class Normal(Family):
    name = "normal"

    def logpdf_z_score(self, z, shapes):
        return -0.5 * z * z - _LOG_SQRT_2PI, -z, ()

    def cdf_z(self, z, shapes):
        return special.std_normal_cdf(z)

    def sf_z(self, z, shapes):
        return special.std_normal_sf(z)

    def init_params(self, data):
        return (), float(np.mean(data)), float(np.std(data))


class Beta(Family):
    name = "beta"
    shape_names = ("a", "b")
    bounded = True

    def shapes_valid(self, shapes):
        return shapes[0] > 0 and shapes[1] > 0

    def logpdf_z_score(self, z, shapes):
        a, b = shapes
        log_z = np.log(z)
        log_1mz = np.log1p(-z)
        lnbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        psi_ab = special.digamma(a + b)
        return (
            (a - 1.0) * log_z + (b - 1.0) * log_1mz - lnbeta,
            (a - 1.0) / z - (b - 1.0) / (1.0 - z),
            (log_z - (special.digamma(a) - psi_ab), log_1mz - (special.digamma(b) - psi_ab)),
        )

    def cdf_z(self, z, shapes):
        return special.reg_inc_beta(shapes[0], shapes[1], np.clip(z, 0.0, 1.0))

    def sf_z(self, z, shapes):
        return special.reg_inc_beta(shapes[1], shapes[0], 1.0 - np.clip(z, 0.0, 1.0))

    def init_params(self, data):
        loc, scale = _bounded_frame(data)
        z = (data - loc) / scale
        m = float(np.mean(z))
        v = float(np.var(z))
        common = max(m * (1.0 - m) / max(v, 1e-12) - 1.0, 0.2)
        return (max(m * common, 0.1), max((1.0 - m) * common, 0.1)), loc, scale

    def to_search(self, theta, m, s):
        a, b, loc, scale = theta
        return np.array([math.log(a), math.log(b), (loc - m) / s, math.log(scale / s)])

    def from_search(self, t, m, s):
        a, b, scale = np.exp([t[0], t[1], t[3]])
        return np.array([a, b, m + s * t[2], s * scale])

    def search_score(self, t, theta, score, m, s):
        a, b, _, scale = theta
        return np.array([a * score[0], b * score[1], s * score[2], scale * score[3]])


class JohnsonSB(Family):
    name = "johnsonsb"
    shape_names = ("a", "b")
    bounded = True

    def shapes_valid(self, shapes):
        return shapes[1] > 0

    def logpdf_z_score(self, z, shapes):
        a, b = shapes
        log_z = np.log(z)
        log_1mz = np.log1p(-z)
        r = log_z - log_1mz
        u = a + b * r
        return (
            (math.log(b) - _LOG_SQRT_2PI) - log_z - log_1mz - 0.5 * u * u,
            (2.0 * z - 1.0 - b * u) / (z - z * z),
            (-u, 1.0 / b - u * r),
        )

    def cdf_z(self, z, shapes):
        a, b = shapes
        z = np.clip(z, 1e-300, 1.0 - 1e-16)
        return special.std_normal_cdf(a + b * np.log(z / (1.0 - z)))

    def sf_z(self, z, shapes):  # 1 - Phi(u) is Phi(-u), and (-a, -b) gives -u
        return self.cdf_z(z, (-shapes[0], -shapes[1]))

    def init_params(self, data):
        loc, scale = _bounded_frame(data)
        z = (data - loc) / scale
        u = np.log(z / (1.0 - z))
        spread = float(np.std(u)) or 1.0
        b = 1.0 / spread
        return (-float(np.mean(u)) * b, b), loc, scale

    # Search coordinates (v, w, median', log spread') = (a/b, 1/b,
    # (median - m)/s, log(dx/du at the median / s)), u = a + b logit z: the
    # median is loc + scale expit(-v), and dx/du there is scale q w with
    # q = expit(-v) expit(v). The normal limit b -> inf, which a search in
    # (a, b, loc, scale) crawls toward along a curved ridge, is the point
    # w = 0, and the likelihood is even in w.
    @staticmethod
    def _median_frame(v):
        """(expit(-v), expit(-v) expit(v)) without overflow."""
        e = math.exp(-abs(v))
        z_m = e / (1.0 + e) if v >= 0.0 else 1.0 / (1.0 + e)
        return z_m, e / ((1.0 + e) * (1.0 + e))

    def to_search(self, theta, m, s):
        a, b, loc, scale = theta
        v, w = a / b, 1.0 / b
        z_m, q = self._median_frame(v)
        return np.array([v, w, (loc + scale * z_m - m) / s, math.log(scale * q * w / s)])

    def from_search(self, t, m, s):
        v, w, mu, log_spread = t
        w = abs(w)
        z_m, q = self._median_frame(v)
        scale = s * np.exp(log_spread) / (w * q)  # w = 0 decodes to b = inf
        return np.array([v / w, 1.0 / w, m + s * mu - scale * z_m, scale])

    def search_score(self, t, theta, score, m, s):
        v, w = t[0], abs(t[1])
        g_a, g_b, g_loc, g_scale = score
        scale = theta[3]
        z_m, _ = self._median_frame(v)
        # d scale / d(v, w) = scale (1 - 2 z_m, -1/w); d loc / d(v, w) =
        # scale (z_m^2, z_m / w)
        g_v = g_a / w + scale * (g_scale * (1.0 - 2.0 * z_m) + g_loc * z_m * z_m)
        g_w = -(g_a * v + g_b) / (w * w) + scale * (g_loc * z_m - g_scale) / w
        return np.array([
            g_v, math.copysign(1.0, t[1]) * g_w, s * g_loc, scale * (g_scale - g_loc * z_m),
        ])


def _johnsonsu_moments(v, u):
    """Mean and variance of the standardized Johnson SU with a = v/u and
    b = 1/u: -e^(u^2/2) sinh v and expm1(u^2) (e^(u^2) cosh 2v + 1) / 2.
    Overflow gives inf, or nan where it meets u = 0; the fit calls it inside
    its np.errstate."""
    z_mean = -np.exp(0.5 * u * u) * np.sinh(v)
    z_var = 0.5 * np.expm1(u * u) * (np.exp(u * u) * np.cosh(2.0 * v) + 1.0)
    return z_mean, z_var


def _johnsonsu_moment_partials(v, u, z_mean):
    """d z_mean / d(v, u) and d z_var / d(v, u) of `_johnsonsu_moments`."""
    w = math.exp(u * u)
    cosh2v = math.cosh(2.0 * v)
    return (
        (-math.exp(0.5 * u * u) * math.cosh(v), u * z_mean),
        (math.expm1(u * u) * w * math.sinh(2.0 * v), u * w * (2.0 * w * cosh2v + 1.0 - cosh2v)),
    )


class JohnsonSU(Family):
    name = "johnsonsu"
    shape_names = ("a", "b")

    def shapes_valid(self, shapes):
        return shapes[1] > 0

    def logpdf_z_score(self, z, shapes):
        a, b = shapes
        h = np.arcsinh(z)
        u = a + b * h
        one_pz2 = 1.0 + z * z
        return (
            (math.log(b) - _LOG_SQRT_2PI) - 0.5 * np.log(one_pz2) - 0.5 * u * u,
            -(z + b * u * np.sqrt(one_pz2)) / one_pz2,
            (-u, 1.0 / b - u * h),
        )

    def cdf_z(self, z, shapes):
        a, b = shapes
        return special.std_normal_cdf(a + b * np.arcsinh(z))

    def sf_z(self, z, shapes):  # 1 - Phi(u) is Phi(-u), and (-a, -b) gives -u
        return self.cdf_z(z, (-shapes[0], -shapes[1]))

    def init_params(self, data):
        loc = float(np.median(data))
        scale = _iqr_scale(data)
        u = np.arcsinh((data - loc) / scale)
        spread = float(np.std(u)) or 1.0
        b = max(1.0 / spread, 0.1)
        return (-float(np.mean(u)) * b, b), loc, scale

    # Search coordinates (v, u, mean', log sd') = (a/b, 1/b, (mean - m)/s,
    # log(sd/s)), with the distribution's own mean and sd. The normal limit
    # b -> inf is the point u = 0, and the likelihood is even in u, since
    # (a, b) and (-a, -b) give one distribution.
    def to_search(self, theta, m, s):
        a, b, loc, scale = theta
        z_mean, z_var = _johnsonsu_moments(a / b, 1.0 / b)
        return np.array([
            a / b, 1.0 / b, (loc + scale * z_mean - m) / s,
            math.log(scale * math.sqrt(z_var) / s),
        ])

    def from_search(self, t, m, s):
        v, u, mu, log_sd = t
        u = abs(u)
        z_mean, z_var = _johnsonsu_moments(v, u)
        scale = s * np.exp(log_sd) / np.sqrt(z_var)  # u = 0 decodes to b = inf
        return np.array([v / u, 1.0 / u, m + s * mu - scale * z_mean, scale])

    def search_score(self, t, theta, score, m, s):
        v, u = t[0], abs(t[1])
        g_a, g_b, g_loc, g_scale = score
        scale = theta[3]
        z_mean, z_var = _johnsonsu_moments(v, u)
        (dmean_v, dmean_u), (dvar_v, dvar_u) = _johnsonsu_moment_partials(v, u, z_mean)
        # scale = s e^log_sd / sqrt(z_var) and loc = m + s mu - scale z_mean
        dscale_v = -0.5 * scale * dvar_v / z_var
        dscale_u = -0.5 * scale * dvar_u / z_var
        g_v = g_a / u + g_scale * dscale_v - g_loc * (dscale_v * z_mean + scale * dmean_v)
        g_u = (
            -(g_a * v + g_b) / (u * u)
            + g_scale * dscale_u - g_loc * (dscale_u * z_mean + scale * dmean_u)
        )
        return np.array([
            g_v, math.copysign(1.0, t[1]) * g_u, s * g_loc,
            scale * (g_scale - g_loc * z_mean),
        ])


class LogGamma(Family):
    name = "loggamma"
    shape_names = ("c",)
    # On right-skewed data its supremum is the c -> inf normal limit, which a
    # score search in raw parameters stops short of; the simplex stays until
    # a parametrization with a finite normal point replaces both.
    simplex = True

    def shapes_valid(self, shapes):
        return shapes[0] > 0

    # The simplex evaluates the value alone, at every vertex, thousands of
    # times per fit: written over z, with e^z left in exp_z, it allocates
    # nothing. Each point is rounded as c * z - e^z - lgamma(c) reads.
    def logpdf_z_into(self, z, shapes, exp_z):
        c = shapes[0]
        np.exp(z, out=exp_z)
        np.multiply(z, c, out=z)
        np.subtract(z, exp_z, out=z)
        return np.subtract(z, math.lgamma(c), out=z)

    def logpdf_z(self, z, shapes):
        z = np.array(z, dtype=np.float64)
        return self.logpdf_z_into(z, shapes, np.empty_like(z))

    def logpdf_z_score(self, z, shapes):
        exp_z = np.empty_like(z)
        lp = self.logpdf_z_into(z.copy(), shapes, exp_z)
        return lp, shapes[0] - exp_z, (z - special.digamma(shapes[0]),)

    # The simplex searches the raw parameters.
    def to_search(self, theta, m, s):
        return theta

    def from_search(self, t, m, s):
        return t

    def search_score(self, t, theta, score, m, s):
        return np.asarray(score, dtype=np.float64)

    # Below this z, e^z < 1e-300 and P(c, e^z) = e^(c z) / Gamma(c + 1) to
    # double precision; evaluated in z, it neither underflows with e^z nor
    # meets the incomplete gamma series' 1e-300 floor on x.
    _TINY_Z = math.log(1e-300)

    def _log_tiny_cdf(self, z, c):
        return np.minimum(z, self._TINY_Z) * c - math.lgamma(c + 1.0)

    def cdf_z(self, z, shapes):
        c = shapes[0]
        tail = np.exp(self._log_tiny_cdf(z, c))
        return np.where(z < self._TINY_Z, tail, special.reg_inc_gamma_lower(c, np.exp(z)))

    def sf_z(self, z, shapes):
        c = shapes[0]
        tail = -np.expm1(self._log_tiny_cdf(z, c))
        return np.where(z < self._TINY_Z, tail, special.reg_inc_gamma_upper(c, np.exp(z)))

    def init_params(self, data):
        # Profile a few shape candidates; psi/psi' are approximated, the
        # search only needs a feasible starting frame.
        mean = float(np.mean(data))
        sd = float(np.std(data)) or 1.0
        best = None
        for c in (0.5, 1.0, 2.0, 5.0, 20.0, 100.0):
            psi = math.log(c) - 0.5 / c
            psi1 = 1.0 / c + 0.5 / (c * c)
            scale = sd / math.sqrt(psi1)
            loc = mean - scale * psi
            z = (data - loc) / scale
            with np.errstate(over="ignore"):
                ll = float(np.sum(self.logpdf_z(np.minimum(z, 500.0), (c,))))
            if best is None or ll > best[0]:
                best = (ll, (c,), loc, scale)
        return best[1], best[2], best[3]


class PowerNormal(Family):
    name = "powernorm"
    shape_names = ("c",)

    def shapes_valid(self, shapes):
        return shapes[0] > 0

    def logpdf_z_score(self, z, shapes):
        c = shapes[0]
        log_sf = special.std_normal_logcdf(-z)
        half_z2 = 0.5 * z * z
        hazard = np.exp(-half_z2 - _LOG_SQRT_2PI - log_sf)  # phi(z) / Phi(-z)
        return (
            (math.log(c) - _LOG_SQRT_2PI) - half_z2 + (c - 1.0) * log_sf,
            -z - (c - 1.0) * hazard,
            (1.0 / c + log_sf,),
        )

    def cdf_z(self, z, shapes):
        return -np.expm1(shapes[0] * special.std_normal_logcdf(-z))

    def sf_z(self, z, shapes):
        return np.exp(shapes[0] * special.std_normal_logcdf(-z))

    def init_params(self, data):
        return (1.0,), float(np.median(data)), _iqr_scale(data)


class SkewNormal(Family):
    name = "skewnorm"
    shape_names = ("a",)

    def logpdf_z_score(self, z, shapes):
        a = shapes[0]
        az = a * z
        log_cdf = special.std_normal_logcdf(az)
        ratio = np.exp(-0.5 * az * az - _LOG_SQRT_2PI - log_cdf)  # phi(az) / Phi(az)
        return (
            (math.log(2.0) - _LOG_SQRT_2PI) - 0.5 * z * z + log_cdf,
            a * ratio - z,
            (z * ratio,),
        )

    def cdf_z(self, z, shapes):
        return special.std_normal_cdf(z) - 2.0 * special.owens_t(z, shapes[0])

    def sf_z(self, z, shapes):
        return self.cdf_z(-z, (-shapes[0],))

    def init_params(self, data):
        m2 = float(np.var(data))
        m3 = float(np.mean((data - np.mean(data)) ** 3))
        g1 = m3 / m2**1.5 if m2 > 0 else 0.0
        g = min(abs(g1), 0.95)
        frac = g ** (2.0 / 3.0)
        delta2 = (math.pi / 2.0) * frac / (frac + ((4.0 - math.pi) / 2.0) ** (2.0 / 3.0))
        delta = math.copysign(math.sqrt(min(delta2, 0.98)), g1)
        a = delta / math.sqrt(1.0 - delta * delta)
        a = max(min(a, 20.0), -20.0)
        scale = math.sqrt(m2 / max(1.0 - 2.0 * delta * delta / math.pi, 0.05))
        loc = float(np.mean(data)) - scale * delta * math.sqrt(2.0 / math.pi)
        return (a,), loc, scale


FAMILIES = {
    fam.name: fam
    for fam in (
        Normal(),
        Beta(),
        JohnsonSB(),
        JohnsonSU(),
        LogGamma(),
        PowerNormal(),
        SkewNormal(),
    )
}

FAMILY_NAMES = tuple(FAMILIES)


def get_family(name):
    if isinstance(name, Family):
        return name
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}"
        ) from None


@dataclass(frozen=True)
class FittedDistribution:
    family: Family
    shapes: tuple
    loc: float
    scale: float
    log_likelihood: float = None
    converged: bool = True
    ks_statistic: float = None
    ks_pvalue: float = None
    post_fit_ks: bool = False
    iterations: int = None  # of its search (loggamma's best of three)
    score_norm: float = None  # max |score| / n in search coordinates

    def __post_init__(self):
        if not (all(map(math.isfinite, self.params)) and self.scale > 0):
            raise ValidationError(f"parameters must be finite, scale positive: {self.params}")
        if len(self.shapes) != len(self.family.shape_names):
            raise ValidationError(
                f"{self.family.name} takes {len(self.family.shape_names)} shape(s), "
                f"got {len(self.shapes)}"
            )
        if not self.family.shapes_valid(self.shapes):
            raise ValidationError(f"invalid {self.family.name} shapes: {self.shapes}")
        if self.ks_pvalue is not None and not 0.0 <= self.ks_pvalue <= 1.0:
            raise ValidationError(f"ks_pvalue outside [0, 1]: {self.ks_pvalue}")

    @property
    def params(self):
        """Parameter vector in the (shape(s), loc, scale) column order."""
        return (*self.shapes, self.loc, self.scale)


def make_fit(family, *params):
    family = get_family(family)
    k = len(family.shape_names)
    if len(params) != k + 2:
        raise ValidationError(f"{family.name} needs {k + 2} parameters, got {len(params)}")
    return FittedDistribution(family, tuple(params[:k]), params[k], params[k + 1])


def _z(fit, x):
    return (np.asarray(x, dtype=np.float64) - fit.loc) / fit.scale


def _tail_z(family, shapes, z, upper):
    """cdf_z, or sf_z when `upper`, on the family's support: the limits
    outside it, and clipped to [0, 1]."""
    tail = family.sf_z if upper else family.cdf_z
    if family.bounded:
        below, above = (1.0, 0.0) if upper else (0.0, 1.0)
        out = np.where(z <= 0.0, below, np.where(z >= 1.0, above, tail(np.clip(z, 0.0, 1.0), shapes)))
    else:
        out = tail(z, shapes)
    return np.clip(out, 0.0, 1.0)


def cdf(fit, x):
    out = _tail_z(fit.family, fit.shapes, _z(fit, x), upper=False)
    return float(out) if np.ndim(x) == 0 else out


def survival(fit, x):
    """1 - cdf, evaluated in complementary form (no cancellation)."""
    out = _tail_z(fit.family, fit.shapes, _z(fit, x), upper=True)
    return float(out) if np.ndim(x) == 0 else out


_INVERSE_RTOL = 1e-12
_INVERSE_MAX_ITER = 200


def _inverse_z(fit, p):
    """Standardized quantile: z with cdf_z(z) = p, for a 1-d array p in
    (0, 1). Each element is solved on its smaller tail, cdf_z(z) = p for
    p <= 1/2 and sf_z(z) = 1 - p above (1 - p is exact there), so a tail
    probability keeps its relative accuracy."""
    upper = p > 0.5
    z = np.empty_like(p)
    z[~upper] = _solve_tail(fit, p[~upper], upper=False)
    z[upper] = _solve_tail(fit, 1.0 - p[upper], upper=True)
    return z


def _solve_tail(fit, q, upper):
    """z with F(z) = q, F = sf_z if `upper` else cdf_z.

    The bracket is the unit support of a bounded family, else [-1, 1]
    doubled outward until it holds the root. Newton steps on log F - log q that leave the bracket become
    bisections. An element stops when |F - q| <= 1e-12 q, or when no double
    is left strictly inside its bracket.
    """
    family, shapes = fit.family, fit.shapes
    sign = -1.0 if upper else 1.0  # sign * (F - q) increases with z
    lo = np.full_like(q, 0.0 if family.bounded else -1.0)
    hi = np.ones_like(q)
    if not family.bounded:
        for edge, inner, side in ((lo, hi, 1.0), (hi, lo, -1.0)):
            idx = np.arange(q.size)
            while idx.size:
                f = _tail_z(family, shapes, edge[idx], upper)
                idx = idx[side * sign * (f - q[idx]) > 0.0]
                inner[idx] = edge[idx]
                with np.errstate(over="ignore"):  # a root beyond +-DBL_MAX is +-inf
                    edge[idx] *= 2.0

    z = 0.5 * lo + 0.5 * hi
    idx = np.arange(q.size)
    for _ in range(_INVERSE_MAX_ITER):
        if not idx.size:
            break
        zi, qi = z[idx], q[idx]
        f = _tail_z(family, shapes, zi, upper)
        below = sign * (f - qi) < 0.0
        lo[idx[below]] = zi[below]
        hi[idx[~below]] = zi[~below]
        loi, hii = lo[idx], hi[idx]
        with np.errstate(all="ignore"):
            step = zi - sign * np.log(f / qi) * f / np.exp(family.logpdf_z(zi, shapes))
        step = np.where(np.isfinite(step) & (step > loi) & (step < hii), step, 0.5 * loi + 0.5 * hii)
        active = (np.abs(f - qi) > _INVERSE_RTOL * qi) & (step > loi) & (step < hii)
        idx = idx[active]
        z[idx] = step[active]
    return z


def quantile(fit, p):
    """Inverse CDF, to 1e-12 relative in the smaller of p and 1 - p
    (`_inverse_z`)."""
    arr = np.atleast_1d(np.asarray(p, dtype=np.float64))
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise NumericError("quantile requires 0 < p < 1")
    out = fit.loc + fit.scale * _inverse_z(fit, arr.ravel()).reshape(arr.shape)
    return float(out[0]) if np.ndim(p) == 0 else out


def sample(fit, count, rng: SeededRng):
    """Inverse-CDF sampling; deterministic given the rng state."""
    if count < 0:
        raise ValidationError(f"sample count must be >= 0, got {count}")
    if count == 0:
        return np.empty(0, dtype=np.float64)
    u = rng.uniform01(count)
    return quantile(fit, u)


# ---------------------------------------------------------------------------
# maximum-likelihood fitting: BFGS on the score, Nelder-Mead for loggamma
# ---------------------------------------------------------------------------


@dataclass
class SearchResult:
    x: np.ndarray
    fval: float
    converged: bool
    iterations: int


_NM_MAX_ITER = 5000
_NM_FTOL_REL = 1e-8
_NM_XTOL = 1e-6
_SIMPLEX_STARTS = 3  # loggamma's moment start plus two jittered ones

_SCORE_TOL = 1e-9  # on max |score| / n in search coordinates
_BFGS_MAX_ITER = 500
_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.9
_LINE_MAX_EVALS = 40
_F_NOISE = 1e-12  # rounding noise of a summed log-likelihood, relative to |f| + n


def nelder_mead(fn, x0):
    """Plain simplex search (reflection 1, expansion 2, contraction 0.5,
    shrink 0.5). Converged when the objective spread falls under
    _NM_FTOL_REL relative and the vertex spread under _NM_XTOL relative,
    within _NM_MAX_ITER iterations. The vertices are lists of Python floats,
    stepped as the array form would be: the centroid adds the rows in order
    and divides by n, as np.mean(axis=0) does, and the sort by f is stable
    with nan last, as np.argsort(kind="stable") is."""
    x0 = np.asarray(x0, dtype=np.float64).tolist()
    n = len(x0)
    f = lambda v: float(fn(np.array(v)))
    simplex = [x0] + [
        x0[:i] + [x0[i] + (0.05 * abs(x0[i]) if x0[i] != 0.0 else 0.00025)] + x0[i + 1:]
        for i in range(n)
    ]
    verts = [(f(v), v) for v in simplex]
    iterations = 0
    converged = False
    while iterations < _NM_MAX_ITER:
        verts.sort(key=lambda fv: (fv[0] != fv[0], fv[0]))
        (f0, best), (f1, worst) = verts[0], verts[-1]
        if abs(f1 - f0) <= _NM_FTOL_REL * (abs(f0) + 1e-12) and all(
            abs(x - b) <= _NM_XTOL * (1.0 + abs(b)) for _, v in verts[1:] for x, b in zip(v, best)
        ):
            converged = True
            break
        iterations += 1
        centroid = best
        for _, v in verts[1:-1]:
            centroid = [c + x for c, x in zip(centroid, v)]
        centroid = [c / n for c in centroid]
        reflected = [c + (c - w) for c, w in zip(centroid, worst)]
        fr = f(reflected)
        if fr < f0:
            expanded = [c + 2.0 * (c - w) for c, w in zip(centroid, worst)]
            fe = f(expanded)
            verts[-1] = (fe, expanded) if fe < fr else (fr, reflected)
        elif fr < verts[-2][0]:
            verts[-1] = (fr, reflected)
        else:
            contracted = [c + 0.5 * (w - c) for c, w in zip(centroid, worst)]
            fc = f(contracted)
            if fc < f1:
                verts[-1] = (fc, contracted)
            else:
                shrunk = [[b + 0.5 * (x - b) for b, x in zip(best, v)] for _, v in verts]
                verts = [(f0, shrunk[0])] + [(f(v), v) for v in shrunk[1:]]
    return SearchResult(np.array(verts[0][1]), verts[0][0], converged, iterations)


def _backtrack(fn, x, f0, d0, p, alpha, f_noise):
    """A step length along p by backtracking (Nocedal & Wright 2006,
    algorithm 3.1), as (alpha, f, g): alpha is halved until f meets the
    sufficient-decrease test f - f0 <= _WOLFE_C1 * alpha * d0, which a step
    that does not lower f fails however small alpha gets. A point whose
    f is not finite fails it, so steps that leave the domain are cut back.
    Where f changes by less than its rounding noise, a point within
    `f_noise` of f0 whose slope has flattened, |g . p| <= -_WOLFE_C2 * d0,
    is taken too (the approximate Wolfe test of Hager & Zhang 2005). None
    after _LINE_MAX_EVALS evaluations."""
    for _ in range(_LINE_MAX_EVALS):
        f, g = fn(x + alpha * p)
        if f - f0 <= _WOLFE_C1 * alpha * d0 or (
            f <= f0 + f_noise and abs(float(np.sum(g * p))) <= -_WOLFE_C2 * d0
        ):
            return alpha, f, g
        alpha *= 0.5
    return None


def bfgs(fn, x0, gtol, f_scale):
    """Minimize fn, which returns (value, gradient) and an infinite value
    out of its domain, by BFGS with a backtracking line search (Nocedal &
    Wright 2006, algorithm 6.1; H0 scaled by eq. 6.20 before the first
    update). While the inverse Hessian is the identity, the trial step is
    capped at min(1, 1 / max |gradient|); a step with s . y <= 0, which
    backtracking does not rule out, leaves the inverse Hessian as it was.
    Converged when max |gradient| <= gtol. Stops after _BFGS_MAX_ITER
    iterations or when the line search finds no step.
    """
    x = np.asarray(x0, dtype=np.float64)
    f, g = fn(x)
    if not math.isfinite(f):
        return SearchResult(x, f, False, 0)
    inv_h = None  # the inverse Hessian approximation; None is the identity
    iterations = 0
    while True:
        if float(np.max(np.abs(g))) <= gtol:
            return SearchResult(x, f, True, iterations)
        if iterations == _BFGS_MAX_ITER:
            break
        p = -g if inv_h is None else -np.sum(inv_h * g, axis=1)
        if not np.sum(g * p) < 0.0:  # lost positive definiteness: restart from steepest descent
            inv_h = None
            p = -g
        d0 = float(np.sum(g * p))
        alpha = 1.0 if inv_h is not None else min(1.0, 1.0 / float(np.max(np.abs(g))))
        step = _backtrack(fn, x, f, d0, p, alpha, _F_NOISE * (abs(f) + f_scale))
        if step is None:
            break
        iterations += 1
        alpha, f_new, g_new = step
        s_k = alpha * p
        y_k = g_new - g
        sy = float(np.sum(s_k * y_k))
        if sy > 0.0:
            if inv_h is None:
                inv_h = np.eye(x.size) * (sy / float(np.sum(y_k * y_k)))
            rho = 1.0 / sy
            hy = np.sum(inv_h * y_k, axis=1)
            inv_h = (
                inv_h
                + (rho * rho * (sy + float(np.sum(y_k * hy)))) * np.outer(s_k, s_k)
                - rho * (np.outer(hy, s_k) + np.outer(s_k, hy))
            )
        x, f, g = x + s_k, f_new, g_new
    return SearchResult(x, f, False, iterations)


def _loglik_score(family, data, theta):
    """Log-likelihood of theta = (shapes, loc, scale) and its gradient in
    theta, or (-inf, None) when theta is invalid or a point lies outside the
    support. The one place that sums `logpdf_z_score`'s arrays, with np.sum,
    whose bits do not depend on the BLAS. A bounded family's log z and
    log(1 - z) are not finite outside (0, 1), so neither is the sum then."""
    shapes, loc, scale = tuple(theta[:-2]), theta[-2], theta[-1]
    if not (all(map(math.isfinite, theta)) and scale > 0.0 and family.shapes_valid(shapes)):
        return -math.inf, None
    z = (data - loc) / scale
    lp, dz, shape_dz = family.logpdf_z_score(z, shapes)
    ll = float(np.sum(lp)) - z.size * math.log(scale)
    if not math.isfinite(ll):
        return -math.inf, None
    return ll, np.array([
        *(float(np.sum(d)) for d in shape_dz),
        -float(np.sum(dz)) / scale,
        -(float(np.sum(z * dz)) + z.size) / scale,
    ])


def _penalized_nll(family, data, theta, scratch=None):
    """Negative log-likelihood of an unbounded family, with finite
    penalties for invalid parameters and non-finite log-densities, for the
    simplex. `scratch` is a pair of float64 vectors of data's shape that z
    and the log-density are written into; `_simplex_searches` allocates it
    once for its searches, and a call without it allocates its own. Called
    inside the fit's np.errstate."""
    theta = list(map(float, theta))
    if not all(map(math.isfinite, theta)):
        return _INVALID_PENALTY
    shapes, loc, scale = tuple(theta[:-2]), theta[-2], theta[-1]
    if scale <= 0.0:
        return _INVALID_PENALTY * (1.0 + abs(scale))
    if not family.shapes_valid(shapes):
        bad = sum(abs(min(s, 0.0)) for s in shapes)
        return _INVALID_PENALTY * (1.0 + bad)
    if scratch is None:
        scratch = (np.empty(np.shape(data)), np.empty(np.shape(data)))
    z, tmp = scratch
    np.subtract(data, loc, out=z)
    np.divide(z, scale, out=z)
    lp = family.logpdf_z_into(z, shapes, tmp)
    total = float(lp.sum())
    if not math.isfinite(total):
        total = float(np.sum(np.where(np.isfinite(lp), lp, -_POINT_PENALTY)))
    return -(total - z.size * math.log(scale))


def _jitter_start(family, theta0, eta):
    """A jittered simplex start: each parameter moved by 15% of itself and
    0.01, times eta; a scale or shape left invalid is reflected."""
    theta = theta0 * (1.0 + 0.15 * eta) + 0.01 * eta
    k = len(family.shape_names)
    theta[k + 1] = abs(theta[k + 1]) or 1.0
    for i in range(k):
        if not family.shapes_valid(tuple(theta[:k])):
            theta[i] = abs(theta[i]) or 0.5
    return theta


def _fit_sample(family, data):
    """`data` as the flat float64 array a fit of `family` accepts."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 20:
        raise ValidationError("fit_mle requires a flat sample of at least 20 values")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("fit_mle requires finite data")
    if float(np.ptp(arr)) == 0.0:
        raise NumericError(f"zero-variance data cannot be fit by {family.name}")
    return arr


def _moment_start(family, arr):
    shapes0, loc0, scale0 = family.init_params(arr)
    return np.array([*shapes0, loc0, scale0], dtype=np.float64)


def _jittered_starts(family, theta0, fitting_seed):
    rng = SeededRng(fitting_seed, domain=DOMAIN_FIT)
    return [
        _jitter_start(family, theta0, rng.standard_normal(theta0.size))
        for _ in range(_SIMPLEX_STARTS - 1)
    ]


def _simplex_searches(family, arr, starts):
    """`nelder_mead` on the penalized negative log-likelihood from each
    start in turn, with one scratch pair for all their objective calls.
    Called inside the fit's np.errstate."""
    m, s = float(np.mean(arr)), float(np.std(arr))
    scratch = (np.empty_like(arr), np.empty_like(arr))

    def objective(t):
        return _penalized_nll(family, arr, family.from_search(t, m, s), scratch)

    return [nelder_mead(objective, family.to_search(start, m, s)) for start in starts]


def jittered_searches(family, data, fitting_seed):
    """The simplex searches of a `fit_mle` of a simplex family from its two
    jittered starts, drawn from `fitting_seed`, in order. `pipeline` runs
    them in a child process while the parent fits other families and
    searches from the moment start."""
    family = get_family(family)
    arr = _fit_sample(family, data)
    theta0 = _moment_start(family, arr)
    with np.errstate(all="ignore"):
        return _simplex_searches(family, arr, _jittered_starts(family, theta0, fitting_seed))


def fit_mle(family, data, fitting_seed=0, jittered=None):
    """Maximum-likelihood fit of one family (the module docstring), with
    the `iterations` of the search it came from, the score norm at its
    result, and `converged` when that norm is at most _SCORE_TOL (false
    where it is undefined). `fitting_seed` draws loggamma's two jittered
    simplex starts; no other family reads it. `jittered`, when given, is a
    callable that returns `jittered_searches(family, data, fitting_seed)`;
    the fit calls it after its moment-start search. Without it the fit
    runs them itself.

    Non-convergence is reported through the `converged` flag, never raised.
    Zero-variance data raises NumericError for every family.
    """
    family = get_family(family)
    arr = _fit_sample(family, data)
    theta0 = _moment_start(family, arr)
    m, s = float(np.mean(arr)), float(np.std(arr))

    with np.errstate(all="ignore"):
        if family.simplex:
            searches = _simplex_searches(family, arr, [theta0])
            searches += jittered() if jittered else _simplex_searches(
                family, arr, _jittered_starts(family, theta0, fitting_seed))
            best = min(searches, key=lambda result: result.fval)
        else:
            def objective(t):
                theta = family.from_search(t, m, s)
                ll, score = _loglik_score(family, arr, theta)
                if score is None:
                    return math.inf, None
                return -ll, -family.search_score(t, theta, score, m, s)

            best = bfgs(objective, family.to_search(theta0, m, s), _SCORE_TOL * arr.size, arr.size)
        theta = family.from_search(best.x, m, s)
        _, score = _loglik_score(family, arr, theta)
        # max |score| / n in search coordinates, nan where the score is undefined
        score_norm = math.nan if score is None else float(
            np.max(np.abs(family.search_score(best.x, theta, score, m, s)))) / arr.size
    shapes, loc, scale = tuple(map(float, theta[:-2])), float(theta[-2]), float(theta[-1])
    if not np.all(np.isfinite(theta)) or scale <= 0.0 or not family.shapes_valid(shapes):
        raise NumericError(f"{family.name} fit ended outside the valid domain")
    if family.bounded:
        z = (arr - loc) / scale
        if float(np.min(z)) <= 0.0 or float(np.max(z)) >= 1.0:
            raise NumericError(f"{family.name} fit left data outside its support")
    return FittedDistribution(
        family, shapes, loc, scale,
        log_likelihood=-best.fval, converged=score_norm <= _SCORE_TOL,
        iterations=best.iterations, score_norm=score_norm,
    )


def gof_ks(fit, data, mode="exact"):
    """One-sample KS statistic of `data` against `fit`, and its p-value.

    D = max_i of max(i/n - F(x_i), F(x_i) - (i-1)/n) over the sorted sample.
    The parameters were estimated from the same data in the usual pipeline,
    so the resulting fit record carries post_fit_ks=True.
    """
    arr = np.sort(np.asarray(data, dtype=np.float64))
    n = arr.size
    if n == 0:
        raise ValidationError("gof_ks requires non-empty data")
    f = np.asarray(cdf(fit, arr), dtype=np.float64)
    i = np.arange(1, n + 1, dtype=np.float64)
    d_plus = float(np.max(i / n - f))
    d_minus = float(np.max(f - (i - 1.0) / n))
    d = max(d_plus, d_minus)
    return d, special.ks_one_sample_pvalue(d, n, mode=mode)


def with_gof(fit, data, mode="exact"):
    d, p = gof_ks(fit, data, mode=mode)
    return dataclasses.replace(fit, ks_statistic=d, ks_pvalue=p, post_fit_ks=True)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _number_or_null(value):
    return None if value is None or math.isnan(value) else float(value)


def fit_record(fit):
    """Plain mapping form of a fit (family, parameters in column order, KS,
    and the search's `iterations` and `score_norm`), which
    `fit_from_record` reads back."""
    rec = {
        "family": fit.family.name,
        "parameters": [float(v) for v in fit.params],
        "log_likelihood": _number_or_null(fit.log_likelihood),
        "converged": bool(fit.converged),
    }
    if fit.ks_statistic is not None:
        rec.update(ks_statistic=float(fit.ks_statistic), ks_pvalue=float(fit.ks_pvalue),
                   post_fit_ks=bool(fit.post_fit_ks))
    rec.update(iterations=fit.iterations, score_norm=_number_or_null(fit.score_norm))
    return rec


def _is_finite(value):
    """A finite int or float, not a bool or a string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


_NUMBER = (lambda v: v is None or _is_finite(v), "a finite number or null")
_FLAG = (lambda v: isinstance(v, bool), "true or false")
# Each key `fit_record` writes: the test its value must pass, and what that is.
_RECORD_FIELDS = {
    "family": (lambda v: isinstance(v, str), "a family name"),
    "parameters": (lambda v: isinstance(v, list) and all(map(_is_finite, v)),
                   "a list of finite numbers"),
    "log_likelihood": _NUMBER,
    "converged": _FLAG,
    "ks_statistic": _NUMBER,
    "ks_pvalue": _NUMBER,
    "post_fit_ks": _FLAG,
    "iterations": (lambda v: v is None or (type(v) is int and v >= 0), "a count or null"),
    "score_norm": _NUMBER,
}


def fit_from_record(rec):
    """The fit a `fit_record` mapping describes. `family` and `parameters`
    are required, the others default as `FittedDistribution`'s fields do,
    and a key that `fit_record` does not write is an error. So is a
    numeric `score_norm` that `converged` contradicts, since `fit_mle`
    sets `converged` to score_norm <= _SCORE_TOL."""
    if not (isinstance(rec, dict) and {"family", "parameters"} <= rec.keys()):
        raise ValidationError(f"fit record needs a family and parameters, got {rec!r}")
    for key, value in rec.items():
        if key not in _RECORD_FIELDS:
            raise ValidationError(f"fit record has an unknown key: {key!r}")
        ok, what = _RECORD_FIELDS[key]
        if not ok(value):
            raise ValidationError(f"fit record {key} must be {what}, got {value!r}")
    rest = {k: v for k, v in rec.items() if k not in ("family", "parameters")}
    fit = dataclasses.replace(make_fit(rec["family"], *map(float, rec["parameters"])), **rest)
    if fit.score_norm is not None and fit.converged != (fit.score_norm <= _SCORE_TOL):
        raise ValidationError(
            f"fit record converged: {str(fit.converged).lower()} contradicts score_norm "
            f"{fit.score_norm!r}; converged means score_norm <= {_SCORE_TOL:g}"
        )
    return fit
