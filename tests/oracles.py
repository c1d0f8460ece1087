"""Independent oracles for the test suite.

Everything here is deliberately written against the mathematical
definitions (mpmath arbitrary precision, exact rational arithmetic, or
naive full rescans) and shares no code with the implementations it checks.
The reference copies at the end keep earlier forms of the fit loop, of
loggamma's simplex objective, of Owen's T quadrature and of the incomplete
gamma series and continued fraction, which the current forms must match to
the bit.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

mp.mp.dps = 40

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def phi_ref(x: float) -> float:
    return float(mp.ncdf(x))


def phi_sf_ref(x: float) -> float:
    return float(mp.ncdf(-mp.mpf(x)))


def log_phi_ref(x: float) -> float:
    return float(mp.log(mp.ncdf(x)))


def erfc_ref(x: float) -> float:
    return float(mp.erfc(x))


def digamma_ref(x: float) -> float:
    return float(mp.digamma(mp.mpf(x)))


def quantile_grid():
    """The p grid of the quantile oracle fixture: deep lower tail to 1e-250,
    upper tail to 1 - 1e-16."""
    return np.concatenate(
        [np.geomspace(1e-250, 0.5, 500), 1.0 - np.geomspace(1e-16, 0.5, 500)]
    )


def quantile_ref(p: float) -> float:
    with mp.workdps(400):
        return float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(float(p)) - 1))


def lgamma_ref(x: float) -> float:
    return float(mp.loggamma(x))


def igam_lower_ref(a: float, x: float) -> float:
    return float(mp.gammainc(a, 0, x, regularized=True))


def ibeta_ref(a: float, b: float, z: float) -> float:
    return float(mp.betainc(a, b, 0, z, regularized=True))


def owens_t_ref(h: float, a: float) -> float:
    h = mp.mpf(float(h))
    a = mp.mpf(float(a))
    if a == 0:
        return 0.0
    value = mp.quad(lambda t: mp.e ** (-h * h * (1 + t * t) / 2) / (1 + t * t), [0, a])
    return float(value / (2 * mp.pi))


def kolmogorov_sf_ref(x: float) -> float:
    if x <= 0:
        return 1.0
    total = mp.nsum(lambda k: (-1) ** (k - 1) * mp.e ** (-2 * k * k * x * x), [1, mp.inf])
    return float(min(max(2 * total, 0), 1))


def philox4x32_ref(counter, key):
    """Scalar big-int Philox4x32-10, straight from the round definition."""
    m0, m1 = 0xD2511F53, 0xCD9E8D57
    w0, w1 = 0x9E3779B9, 0xBB67AE85
    c = list(counter)
    k = list(key)
    for _ in range(10):
        p0 = (m0 * c[0]) & _MASK64
        p1 = (m1 * c[2]) & _MASK64
        c = [
            ((p1 >> 32) ^ c[1] ^ k[0]) & _MASK32,
            p1 & _MASK32,
            ((p0 >> 32) ^ c[3] ^ k[1]) & _MASK32,
            p0 & _MASK32,
        ]
        k = [(k[0] + w0) & _MASK32, (k[1] + w1) & _MASK32]
    return c


def bootstrap_means_ref(sample, n_resamples, key, domain):
    """Resample means from first principles via the scalar Philox oracle."""
    n = len(sample)
    means = []
    for stream in range(n_resamples):
        draws = []
        block = 0
        while len(draws) < n:
            words = philox4x32_ref((block, 0, stream, domain), key)
            draws.extend(words)
            block += 1
        total = 0.0
        for j in range(n):
            idx = (draws[j] * n) >> 32
            total += sample[idx]
        means.append(total / n)
    return means


def curve_oracle(run, window, stride):
    """Brute-force learning curve: rescan every episode at every eval step."""
    episodes = run.episodes
    last = episodes[-1][0]
    grid_end = ((last + stride - 1) // stride) * stride
    points = []
    previous = None
    for t in range(stride, grid_end + 1, stride):
        total = 0.0
        count = 0
        for step, ret in episodes:
            if t - window < step <= t:
                total += ret
                count += 1
        if count:
            previous = total / count
        elif previous is None:
            continue
        points.append((t, previous))
    return tuple(points)


def band_oracle(curves):
    """Naive two-pass mean/SE at each eval step shared by all curves."""
    shared = set(curves[0].eval_steps)
    for curve in curves[1:]:
        shared &= set(curve.eval_steps)
    out = []
    n = len(curves)
    for t in sorted(shared):
        values = [dict(curve.points)[t] for curve in curves]
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        out.append((t, mean, (var ** 0.5) / (n ** 0.5), n))
    return tuple(out)


def mean_fraction_ref(values):
    """Exact mean over rationals, returned as a float."""
    total = Fraction(0)
    for v in values:
        total += Fraction(v)
    return float(total / len(values))


def quantile_rule_ref(values, p):
    """Closest-rank linear interpolation at 1-based position 1 + (m-1) p."""
    ordered = sorted(values)
    m = len(ordered)
    pos = (m - 1) * p
    lo = int(pos)
    hi = min(lo + 1, m - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def normal_logpdf_ref(x, mu, sigma):
    return float(
        -mp.log(sigma) - mp.mpf(0.5) * mp.log(2 * mp.pi)
        - (mp.mpf(x) - mu) ** 2 / (2 * mp.mpf(sigma) ** 2)
    )


# Reference copies of the fit loop before it skipped the passes that cannot
# change a value: the simplex on float64 arrays and the objective that masks
# and clips every point. The fast forms must agree with them to the bit.

_NM_MAX_ITER = 5000
_NM_FTOL_REL = 1e-8
_NM_XTOL = 1e-6
_POINT_PENALTY = 1e9
_INVALID_PENALTY = 1e12


def nelder_mead_ref(fn, x0):
    """The array-form simplex; returns (x, fval, converged, iterations,
    {branch: times taken})."""
    taken = dict.fromkeys(("reflect", "expand", "contract", "shrink"), 0)
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
                taken["expand"] += 1
            else:
                simplex[-1], fvals[-1] = reflected, fr
                taken["reflect"] += 1
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, fr
            taken["reflect"] += 1
        else:
            contracted = centroid + 0.5 * (simplex[-1] - centroid)
            fc = fn(contracted)
            if fc < fvals[-1]:
                simplex[-1], fvals[-1] = contracted, fc
                taken["contract"] += 1
            else:
                best = simplex[0]
                simplex = best + 0.5 * (simplex - best)
                fvals = np.array([fvals[0]] + [fn(v) for v in simplex[1:]])
                taken["shrink"] += 1
    return simplex[0].copy(), float(fvals[0]), converged, iterations, taken


def penalized_nll_ref(family, data, theta):
    """The objective with every point masked, clipped and checked."""
    if not np.all(np.isfinite(theta)):
        return _INVALID_PENALTY
    k = len(family.shape_names)
    shapes = tuple(theta[:k])
    loc = theta[k]
    scale = theta[k + 1]
    if scale <= 0.0:
        return _INVALID_PENALTY * (1.0 + abs(scale))
    if not family.shapes_valid(shapes):
        bad = sum(abs(min(s, 0.0)) for s in shapes)
        return _INVALID_PENALTY * (1.0 + bad)
    z = (data - loc) / scale
    penalty = 0.0
    if family.bounded:
        below = np.maximum(-z, 0.0)
        above = np.maximum(z - 1.0, 0.0)
        outside = (z <= 0.0) | (z >= 1.0)
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


def loggamma_nll_ref(data, theta):
    """loggamma's simplex objective in the plain allocating form that the
    scratch-vector one replaced: each temporary a new array, the
    log-density c z - e^z - lgamma(c) in one expression."""
    c, loc, scale = theta
    if not all(map(math.isfinite, theta)):
        return _INVALID_PENALTY
    if scale <= 0.0:
        return _INVALID_PENALTY * (1.0 + abs(scale))
    if c <= 0.0:
        return _INVALID_PENALTY * (1.0 + abs(c))
    z = (data - loc) / scale
    lp = c * z - np.exp(z) - math.lgamma(c)
    total = lp.sum()
    if not math.isfinite(total):
        total = np.sum(np.where(np.isfinite(lp), lp, -_POINT_PENALTY))
    return float(-(total - z.size * math.log(scale)))


def owens_quad_matrix_ref(h, a):
    """Owen's T quadrature in the matrix form the streamed one replaced: all
    48 Gauss-Legendre terms of each point in one (n x 48) array, summed by
    np.sum along the row."""
    nodes, weights = np.polynomial.legendre.leggauss(48)
    half = 0.5 * a
    x = half[..., None] * (nodes + 1.0)
    w = half[..., None] * weights
    h2 = (h * h)[..., None]
    vals = np.exp(-0.5 * h2 * (1.0 + x * x)) / (1.0 + x * x)
    return np.sum(w * vals, axis=-1) / (2.0 * math.pi)


def igam_series_ref(a, x):
    """The incomplete gamma series with the stop test that the two-element
    one replaced: the largest term against the smallest total, each found
    by a pass over the whole array."""
    total = np.full_like(x, 1.0 / a)
    term = total.copy()
    denom = a
    for _ in range(4000):
        denom += 1.0
        term = term * x / denom
        total += term
        if np.max(term) <= 1e-17 * np.min(total):
            break
    front = np.exp(a * np.log(np.maximum(x, 1e-300)) - x - math.lgamma(a))
    return np.where(x > 0, front * total, 0.0)


def igam_cf_ref(a, x):
    """The incomplete gamma continued fraction in the allocating form that
    the in-place one replaced: each Lentz step's d, c, delta and h a new
    array."""
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / 1e-300)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, 4000):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        np.maximum(np.abs(d), 1e-300, out=d)
        c = b + an / c
        np.maximum(np.abs(c), 1e-300, out=c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if np.max(np.abs(delta - 1.0)) < 1e-15:
            break
    front = np.exp(a * np.log(np.maximum(x, 1e-300)) - x - math.lgamma(a))
    return front * h
