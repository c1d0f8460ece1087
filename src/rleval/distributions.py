"""Parametric distribution families and maximum-likelihood fitting.

Seven families are registered: normal, beta, johnsonsb, johnsonsu,
loggamma, powernorm, skewnorm. Parameters follow the (shape(s), loc,
scale) convention, z = (x - loc) / scale throughout, so published
parameter rows in that convention load directly.

Fitting is a penalized Nelder-Mead search over (shapes, loc, scale) from
three starts: the moment-based initializer and two jitters of it. A start
whose simplex does not converge is searched again from a fresh simplex at
the point it reached. Out-of-support data points contribute a large finite
penalty scaled by the violation distance, which steers the simplex back
into feasibility instead of aborting.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import special
from .errors import NumericError, ValidationError
from .rng import DOMAIN_FIT, SeededRng

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SIGMA_FLOOR = 1e-9  # relative floor for degenerate normal fits
_POINT_PENALTY = 1e9
_INVALID_PENALTY = 1e12


class Family:
    """One parametric family; subclasses define the standardized (z) forms."""

    name = ""
    shape_arity = 0
    shape_names: tuple = ()
    bounded = False  # True when support of z is the unit interval

    def support_z(self, shapes):
        return (0.0, 1.0) if self.bounded else (-math.inf, math.inf)

    def shapes_valid(self, shapes):
        return True

    def logpdf_z(self, z, shapes):
        raise NotImplementedError

    def cdf_z(self, z, shapes):
        raise NotImplementedError

    def sf_z(self, z, shapes):
        raise NotImplementedError

    def mean_z(self, shapes):
        """Standardized mean; None means 'integrate numerically'."""
        return None

    def init_params(self, data):
        raise NotImplementedError

    def __repr__(self):
        return f"Family({self.name})"


def _iqr_scale(data):
    from .resample import empirical_quantile

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

    def logpdf_z(self, z, shapes):
        return -0.5 * z * z - _LOG_SQRT_2PI

    def cdf_z(self, z, shapes):
        return special.std_normal_cdf(z)

    def sf_z(self, z, shapes):
        return special.std_normal_sf(z)

    def mean_z(self, shapes):
        return 0.0

    def init_params(self, data):
        return (), float(np.mean(data)), float(np.std(data))


class Beta(Family):
    name = "beta"
    shape_arity = 2
    shape_names = ("a", "b")
    bounded = True

    def shapes_valid(self, shapes):
        return shapes[0] > 0 and shapes[1] > 0

    def logpdf_z(self, z, shapes):
        a, b = shapes
        lnbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        return (a - 1.0) * np.log(z) + (b - 1.0) * np.log1p(-z) - lnbeta

    def cdf_z(self, z, shapes):
        return special.reg_inc_beta(shapes[0], shapes[1], np.clip(z, 0.0, 1.0))

    def sf_z(self, z, shapes):
        return special.reg_inc_beta(shapes[1], shapes[0], 1.0 - np.clip(z, 0.0, 1.0))

    def mean_z(self, shapes):
        a, b = shapes
        return a / (a + b)

    def init_params(self, data):
        loc, scale = _bounded_frame(data)
        z = (data - loc) / scale
        m = float(np.mean(z))
        v = float(np.var(z))
        common = max(m * (1.0 - m) / max(v, 1e-12) - 1.0, 0.2)
        return (max(m * common, 0.1), max((1.0 - m) * common, 0.1)), loc, scale


class JohnsonSB(Family):
    name = "johnsonsb"
    shape_arity = 2
    shape_names = ("a", "b")
    bounded = True

    def shapes_valid(self, shapes):
        return shapes[1] > 0

    def logpdf_z(self, z, shapes):
        a, b = shapes
        u = a + b * np.log(z / (1.0 - z))
        return math.log(b) - np.log(z) - np.log1p(-z) - 0.5 * u * u - _LOG_SQRT_2PI

    def cdf_z(self, z, shapes):
        a, b = shapes
        z = np.clip(z, 1e-300, 1.0 - 1e-16)
        return special.std_normal_cdf(a + b * np.log(z / (1.0 - z)))

    def sf_z(self, z, shapes):
        a, b = shapes
        z = np.clip(z, 1e-300, 1.0 - 1e-16)
        return special.std_normal_sf(a + b * np.log(z / (1.0 - z)))

    def init_params(self, data):
        loc, scale = _bounded_frame(data)
        z = (data - loc) / scale
        u = np.log(z / (1.0 - z))
        spread = float(np.std(u)) or 1.0
        b = 1.0 / spread
        return (-float(np.mean(u)) * b, b), loc, scale


class JohnsonSU(Family):
    name = "johnsonsu"
    shape_arity = 2
    shape_names = ("a", "b")

    def shapes_valid(self, shapes):
        return shapes[1] > 0

    def logpdf_z(self, z, shapes):
        a, b = shapes
        u = a + b * np.arcsinh(z)
        return math.log(b) - 0.5 * np.log1p(z * z) - 0.5 * u * u - _LOG_SQRT_2PI

    def cdf_z(self, z, shapes):
        a, b = shapes
        return special.std_normal_cdf(a + b * np.arcsinh(z))

    def sf_z(self, z, shapes):
        a, b = shapes
        return special.std_normal_sf(a + b * np.arcsinh(z))

    def init_params(self, data):
        loc = float(np.median(data))
        scale = _iqr_scale(data)
        u = np.arcsinh((data - loc) / scale)
        spread = float(np.std(u)) or 1.0
        b = max(1.0 / spread, 0.1)
        return (-float(np.mean(u)) * b, b), loc, scale


class LogGamma(Family):
    name = "loggamma"
    shape_arity = 1
    shape_names = ("c",)

    def shapes_valid(self, shapes):
        return shapes[0] > 0

    def logpdf_z(self, z, shapes):
        c = shapes[0]
        return c * z - np.exp(z) - math.lgamma(c)

    def cdf_z(self, z, shapes):
        return special.reg_inc_gamma_lower(shapes[0], np.exp(z))

    def sf_z(self, z, shapes):
        return special.reg_inc_gamma_upper(shapes[0], np.exp(z))

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
    shape_arity = 1
    shape_names = ("c",)

    def shapes_valid(self, shapes):
        return shapes[0] > 0

    def logpdf_z(self, z, shapes):
        c = shapes[0]
        return (
            math.log(c)
            - 0.5 * z * z
            - _LOG_SQRT_2PI
            + (c - 1.0) * special.std_normal_logcdf(-z)
        )

    def cdf_z(self, z, shapes):
        return -np.expm1(shapes[0] * special.std_normal_logcdf(-z))

    def sf_z(self, z, shapes):
        return np.exp(shapes[0] * special.std_normal_logcdf(-z))

    def init_params(self, data):
        return (1.0,), float(np.median(data)), _iqr_scale(data)


class SkewNormal(Family):
    name = "skewnorm"
    shape_arity = 1
    shape_names = ("a",)

    def logpdf_z(self, z, shapes):
        a = shapes[0]
        return (
            math.log(2.0)
            - 0.5 * z * z
            - _LOG_SQRT_2PI
            + special.std_normal_logcdf(a * z)
        )

    def cdf_z(self, z, shapes):
        return special.std_normal_cdf(z) - 2.0 * special.owens_t(z, shapes[0])

    def sf_z(self, z, shapes):
        return self.cdf_z(-z, (-shapes[0],))

    def mean_z(self, shapes):
        a = shapes[0]
        return math.sqrt(2.0 / math.pi) * a / math.sqrt(1.0 + a * a)

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
    log_likelihood: float = math.nan
    converged: bool = True
    ks_statistic: float = None
    ks_pvalue: float = None
    post_fit_ks: bool = False
    degenerate: bool = False

    def __post_init__(self):
        if self.scale <= 0:
            raise ValidationError(f"scale must be positive, got {self.scale}")
        if len(self.shapes) != self.family.shape_arity:
            raise ValidationError(
                f"{self.family.name} takes {self.family.shape_arity} shape(s), "
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
    k = family.shape_arity
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


def pdf(fit, x):
    z = _z(fit, x)
    lo, hi = fit.family.support_z(fit.shapes)
    inside = (z > lo) & (z < hi)
    zi = np.clip(z, lo + 1e-300, hi - 1e-300 if math.isfinite(hi) else None)
    with np.errstate(all="ignore"):
        vals = np.exp(fit.family.logpdf_z(zi, fit.shapes)) / fit.scale
    out = np.where(inside, vals, 0.0)
    return float(out) if np.ndim(x) == 0 else out


def mean(fit):
    """Closed form where the family provides one, else quadrature of z pdf(z)
    between the 1e-13 and 1 - 1e-13 quantiles."""
    closed = fit.family.mean_z(fit.shapes)
    if closed is not None:
        return fit.loc + fit.scale * closed
    zlo, zhi = _inverse_z(fit, np.array([1e-13, 1.0 - 1e-13]))
    ez = special.integrate_fixed(
        lambda z: z * np.exp(fit.family.logpdf_z(z, fit.shapes)), zlo, zhi,
        panels=48, order=32,
    )
    return fit.loc + fit.scale * ez


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
# Nelder-Mead and maximum-likelihood fitting
# ---------------------------------------------------------------------------


@dataclass
class SimplexResult:
    x: np.ndarray
    fval: float
    converged: bool
    iterations: int


_NM_MAX_ITER = 5000
_NM_FTOL_REL = 1e-8
_NM_XTOL = 1e-6
_FIT_STARTS = 3  # the moment start plus two jittered ones


def nelder_mead(fn, x0):
    """Plain simplex search (reflection 1, expansion 2, contraction 0.5,
    shrink 0.5). Converged when the objective spread falls under
    _NM_FTOL_REL relative and the vertex spread under _NM_XTOL relative,
    within _NM_MAX_ITER iterations."""
    x0 = np.asarray(x0, dtype=np.float64)
    n = x0.size
    simplex = [x0]
    for i in range(n):
        step = 0.05 * abs(x0[i]) if x0[i] != 0.0 else 0.00025
        vertex = x0.copy()
        vertex[i] += step
        simplex.append(vertex)
    simplex = np.asarray(simplex)
    fvals = np.array([fn(v) for v in simplex])
    iterations = 0
    converged = False
    while iterations < _NM_MAX_ITER:
        order = np.argsort(fvals, kind="stable")
        simplex = simplex[order]
        fvals = fvals[order]
        fspread = abs(fvals[-1] - fvals[0])
        xspread = np.max(np.abs(simplex[1:] - simplex[0]), axis=0)
        if fspread <= _NM_FTOL_REL * (abs(fvals[0]) + 1e-12) and np.all(
            xspread <= _NM_XTOL * (1.0 + np.abs(simplex[0]))
        ):
            converged = True
            break
        iterations += 1
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + (centroid - simplex[-1])
        fr = fn(reflected)
        if fr < fvals[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            fe = fn(expanded)
            if fe < fr:
                simplex[-1], fvals[-1] = expanded, fe
            else:
                simplex[-1], fvals[-1] = reflected, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, fr
        else:
            contracted = centroid + 0.5 * (simplex[-1] - centroid)
            fc = fn(contracted)
            if fc < fvals[-1]:
                simplex[-1], fvals[-1] = contracted, fc
            else:
                best = simplex[0]
                simplex = best + 0.5 * (simplex - best)
                fvals = np.array([fvals[0]] + [fn(v) for v in simplex[1:]])
    return SimplexResult(simplex[0].copy(), float(fvals[0]), converged, iterations)


def _penalized_nll(family, data, theta):
    k = family.shape_arity
    shapes = tuple(theta[:k])
    loc = theta[k]
    scale = theta[k + 1]
    if scale <= 0.0:
        return _INVALID_PENALTY * (1.0 + abs(scale))
    if not family.shapes_valid(shapes):
        bad = sum(abs(min(s, 0.0)) for s in shapes)
        return _INVALID_PENALTY * (1.0 + bad)
    z = (data - loc) / scale
    lo, hi = family.support_z(shapes)
    penalty = 0.0
    if family.bounded:
        below = np.maximum(lo - z, 0.0)
        above = np.maximum(z - hi, 0.0)
        outside = (z <= lo) | (z >= hi)
        n_out = int(np.count_nonzero(outside))
        if n_out:
            penalty = _POINT_PENALTY * (n_out + float(np.sum(below + above)))
            z = z[~outside]
            if z.size == 0:
                return penalty
    with np.errstate(all="ignore"):
        lp = family.logpdf_z(z, shapes)
    lp = np.where(np.isfinite(lp), lp, -_POINT_PENALTY)
    return float(-(np.sum(lp) - z.size * math.log(scale)) + penalty)


def _jitter_start(family, theta0, data, eta):
    theta = np.asarray(theta0, dtype=np.float64).copy()
    theta = theta * (1.0 + 0.15 * eta[: theta.size]) + 0.01 * eta[: theta.size]
    k = family.shape_arity
    theta[k + 1] = abs(theta[k + 1]) or 1.0
    if family.bounded:
        # keep the whole sample strictly inside the jittered support
        lo = float(np.min(data))
        hi = float(np.max(data))
        rng = hi - lo
        theta[k] = min(theta[k], lo - 0.01 * rng)
        theta[k + 1] = max(theta[k + 1], (hi - theta[k]) + 0.01 * rng)
    for i in range(k):
        if family.shape_names and not family.shapes_valid(tuple(theta[:k])):
            theta[i] = abs(theta[i]) or 0.5
    return theta


def fit_mle(family, data, fitting_seed=0):
    """Maximum-likelihood fit of one family.

    Non-convergence is reported through the `converged` flag, never raised.
    Zero-variance data is an error for every family except normal, which
    degrades to a flagged point mass with a floored sigma.
    """
    family = get_family(family)
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 20:
        raise ValidationError("fit_mle requires a flat sample of at least 20 values")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("fit_mle requires finite data")
    if float(np.ptp(arr)) == 0.0:
        if family.name == "normal":
            center = float(arr[0])
            return FittedDistribution(
                family, (), center, _SIGMA_FLOOR * max(1.0, abs(center)),
                log_likelihood=math.inf, converged=True, degenerate=True,
            )
        raise NumericError(f"zero-variance data cannot be fit by {family.name}")
    shapes0, loc0, scale0 = family.init_params(arr)
    theta0 = np.array([*shapes0, loc0, scale0], dtype=np.float64)
    nll = lambda theta: _penalized_nll(family, arr, theta)
    rng = SeededRng(fitting_seed, domain=DOMAIN_FIT)
    starts = [theta0]
    for _ in range(_FIT_STARTS - 1):
        eta = rng.standard_normal(theta0.size)
        starts.append(_jitter_start(family, theta0, arr, eta))
    best = None
    for start in starts:
        result = nelder_mead(nll, start)
        if not result.converged:
            # a fresh simplex at the found point usually collapses the
            # flat-ridge tumbling that Johnson-family likelihoods cause
            polish = nelder_mead(nll, result.x)
            if polish.fval <= result.fval:
                result = polish
        if best is None or result.fval < best.fval:
            best = result
    k = family.shape_arity
    shapes = tuple(float(v) for v in best.x[:k])
    loc = float(best.x[k])
    scale = float(best.x[k + 1])
    if scale <= 0.0 or not family.shapes_valid(shapes):
        raise NumericError(f"{family.name} fit ended outside the valid domain")
    if family.bounded:
        z = (arr - loc) / scale
        if float(np.min(z)) <= 0.0 or float(np.max(z)) >= 1.0:
            raise NumericError(f"{family.name} fit left data outside its support")
    return FittedDistribution(
        family, shapes, loc, scale,
        log_likelihood=-best.fval, converged=best.converged,
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


def fit_record(fit):
    """Plain mapping form of a fit (family, parameters in column order, KS)."""
    rec = {
        "family": fit.family.name,
        "parameters": [float(v) for v in fit.params],
        "log_likelihood": None if math.isnan(fit.log_likelihood) else float(fit.log_likelihood),
        "converged": bool(fit.converged),
    }
    if fit.degenerate:
        rec["degenerate"] = True
    if fit.ks_statistic is not None:
        rec["ks_statistic"] = float(fit.ks_statistic)
        rec["ks_pvalue"] = float(fit.ks_pvalue)
        rec["post_fit_ks"] = bool(fit.post_fit_ks)
    return rec


def fit_from_record(rec):
    try:
        family = get_family(rec["family"])
        params = [float(v) for v in rec["parameters"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed fit record: {exc}") from exc
    fit = make_fit(family, *params)
    ll = rec.get("log_likelihood")
    return dataclasses.replace(
        fit,
        log_likelihood=math.nan if ll is None else float(ll),
        converged=bool(rec.get("converged", True)),
        degenerate=bool(rec.get("degenerate", False)),
        ks_statistic=rec.get("ks_statistic"),
        ks_pvalue=rec.get("ks_pvalue"),
        post_fit_ks=bool(rec.get("post_fit_ks", False)),
    )
