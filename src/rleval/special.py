"""Numerically robust special functions.

Self-contained kernels for the normal CDF and quantile, digamma,
regularized incomplete gamma and beta, Owen's T, and the Kolmogorov-Smirnov
one-sample distribution in both exact finite-n and asymptotic form. Every
function but digamma (scalar only) accepts a scalar or an ndarray; scalar
input returns a Python float.

Accuracy targets (enforced by the oracle test suite): erfc 1e-14 relative
on [0, 26.5]; normal CDF 1e-12 absolute; log Phi 1e-13 relative (absolute
below |log Phi| = 1) at every point of [-38, 8]; quantile 8 ulps; digamma
1e-14 relative on [1e-3, 1e6]; incomplete gamma/beta 1e-10; Owen's T
1e-10; the exact KS p-value 1e-8 absolute, and from sqrt(n) d = 2 on (p
below ~7e-4) 1e-10 relative, as twice the one-sided tail. erfc, Phi,
1 - Phi and log Phi return their limits at +-inf and NaN for NaN.

Memory (enforced by a tracemalloc test): the kernels that map n points to
n values work in O(n) float64 temporaries and never build an (n x nodes)
matrix; Owen's T adds its 48 quadrature nodes one vector pass at a time.
The exact KS p-value takes one (d, n) pair and works on an m x m matrix,
m ~ 2 n d.
"""

import contextlib
import ctypes
import math

import numpy as np

from .errors import NumericError

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)
_INV_SQRT_PI = 1.0 / _SQRT_PI
_FPMIN = 1e-300
_EPS = 1e-17
_CF_EPS = 1e-15  # Lentz delta test; must sit above one ulp


def _wrap(x):
    arr = np.asarray(x, dtype=np.float64)
    return arr, arr.ndim == 0


def _unwrap(arr, scalar):
    return float(arr) if scalar else arr


# ---------------------------------------------------------------------------
# erfc and the standard normal family
# ---------------------------------------------------------------------------

# Cody (1969), "Rational Chebyshev approximations for the error function",
# Math. Comp. 23, as in his CALERF routine: erf on |x| <= 0.46875, erfcx on
# (0.46875, 4] and erfcx(x) as a rational in 1/x^2 above 4.
_CODY_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
           3.20937758913846947e03, 1.85777706184603153e-1)
_CODY_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
           2.84423683343917062e03)
_CODY_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
           2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_CODY_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_CODY_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
           1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_CODY_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)
_ERFC_UNDERFLOW = 26.543  # erfc(x) < 2.2e-308 beyond this


def _cody_ratio(t, num_c, den_c):
    """Cody's rational form: the last num_c coefficient leads, the one
    before it is the constant term, and den_c is monic."""
    num = num_c[-1] * t
    den = t.copy()
    for a, b in zip(num_c[:-2], den_c[:-1]):
        num += a
        num *= t
        den += b
        den *= t
    num += num_c[-2]
    den += den_c[-1]
    num /= den
    return num


def _exp_neg_square(y):
    """exp(-y^2) with y^2 split as s^2 + (y - s)(y + s), s = y rounded down
    to 1/16: s^2 is exact, so the rounding of y^2 cannot reach the result."""
    s = np.trunc(y * 16.0) / 16.0
    return np.exp(-s * s) * np.exp(-(y - s) * (y + s))


def _calerf(y, scaled):
    """erfc(y), or erfcx(y) = exp(y^2) erfc(y) when `scaled`, for y >= 0 or
    NaN; within 1e-15 relative of mpmath wherever the result is a normal
    double. Fixed cost: one rational of degree <= 8 per point. The
    pieces gather and scatter through index arrays, which numpy moves
    several times faster than boolean masks."""
    flat = y.ravel()
    out = np.empty_like(flat)
    upto4 = flat <= 4.0
    small = flat <= 0.46875
    small_idx = np.flatnonzero(small)
    if small_idx.size:
        ys = flat[small_idx]
        z = ys * ys
        r = 1.0 - ys * _cody_ratio(z, _CODY_A, _CODY_B)
        out[small_idx] = np.exp(z) * r if scaled else r
    mid_idx = np.flatnonzero(upto4 & ~small)
    if mid_idx.size:
        ym = flat[mid_idx]
        r = _cody_ratio(ym, _CODY_C, _CODY_D)
        out[mid_idx] = r if scaled else _exp_neg_square(ym) * r
    big_idx = np.flatnonzero(~upto4)  # includes inf and NaN
    if big_idx.size:
        yb = flat[big_idx]
        if not scaled:
            yb = np.minimum(yb, _ERFC_UNDERFLOW)
        with np.errstate(over="ignore"):
            z = 1.0 / (yb * yb)
        r = (_INV_SQRT_PI - z * _cody_ratio(z, _CODY_P, _CODY_Q)) / yb
        if scaled:
            out[big_idx] = r
        else:
            out[big_idx] = np.where(yb >= _ERFC_UNDERFLOW, 0.0, _exp_neg_square(yb) * r)
    return out.reshape(y.shape)


def erfc(x):
    """Complementary error function, vector-capable."""
    arr, scalar = _wrap(x)
    pos = _calerf(np.abs(arr), scaled=False)
    return _unwrap(np.where(arr < 0, 2.0 - pos, pos), scalar)


def std_normal_cdf(x):
    """Phi(x) = erfc(-x / sqrt(2)) / 2; complementary form, no cancellation."""
    return 0.5 * erfc(-np.asarray(x, dtype=np.float64) * _SQRT1_2)


def std_normal_sf(x):
    """1 - Phi(x), computed as Phi(-x)."""
    return 0.5 * erfc(np.asarray(x, dtype=np.float64) * _SQRT1_2)


def std_normal_logcdf(x):
    """log Phi(x): log(erfcx(-x / sqrt(2)) / 2) - x^2 / 2 below zero, so
    the tail never underflows, and log1p(-Phi(-x)) from zero up."""
    arr, scalar = _wrap(x)
    flat = arr.ravel()
    out = np.empty_like(flat)
    neg = flat < 0.0
    neg_idx = np.flatnonzero(neg)
    xn = flat[neg_idx]
    with np.errstate(over="ignore", divide="ignore"):
        out[neg_idx] = np.log(0.5 * _calerf(xn * -_SQRT1_2, scaled=True)) - 0.5 * xn * xn
    pos_idx = np.flatnonzero(~neg)  # includes NaN
    out[pos_idx] = np.log1p(-0.5 * _calerf(flat[pos_idx] * _SQRT1_2, scaled=False))
    return _unwrap(out.reshape(arr.shape), scalar)


# Wichura (1988), "Algorithm AS 241: the percentage points of the normal
# distribution", Appl. Statist. 37, PPND16: numerator and denominator of
# each rational, constant term first, as the doubles nearest his digits.
_AS241_CENTRAL = (
    (3.3871328727963665, 133.14166789178438, 1971.5909503065513, 13731.69376550946,
     45921.95393154987, 67265.7709270087, 33430.57558358813, 2509.0809287301227),
    (1.0, 42.31333070160091, 687.1870074920579, 5394.196021424751,
     21213.794301586597, 39307.89580009271, 28729.085735721943, 5226.495278852854))
_AS241_NEAR = (
    (1.4234371107496835, 4.630337846156546, 5.769497221460691, 3.6478483247632045,
     1.2704582524523684, 0.2417807251774506, 0.022723844989269184, 7.745450142783414e-4),
    (1.0, 2.053191626637759, 1.6763848301838038, 0.6897673349851,
     0.14810397642748008, 0.015198666563616457, 5.475938084995345e-4, 1.0507500716444169e-9))
_AS241_FAR = (
    (6.657904643501103, 5.463784911164114, 1.7848265399172913, 0.29656057182850487,
     0.026532189526576124, 1.2426609473880784e-3, 2.7115555687434876e-5, 2.0103343992922881e-7),
    (1.0, 0.599832206555888, 0.1369298809227358, 0.014875361290850615,
     7.868691311456133e-4, 1.8463183175100548e-5, 1.421511758316446e-7, 2.0442631033899397e-15))


def _as241_ratio(t, coeffs):
    """One AS 241 rational at t: numerator over denominator, each by Horner."""
    num_c, den_c = coeffs
    num = num_c[-1] * t
    den = den_c[-1] * t
    for a, b in zip(num_c[-2:0:-1], den_c[-2:0:-1]):
        num += a
        num *= t
        den += b
        den *= t
    return (num + num_c[0]) / (den + den_c[0])


def std_normal_quantile(p):
    """Phi^-1 by Wichura's AS 241 (PPND16): no iteration, within 8 ulps.

    For |q| = |p - 1/2| <= 0.425 it is q times a rational in
    0.180625 - q^2, which uses only + - * / and so has the same bits under
    every numpy SIMD class. Beyond, it is a rational in r - 1.6 (r <= 5) or
    r - 5, r = sqrt(-log min(p, 1 - p)); 1 - p is exact for p >= 1/2, and
    the last bit of np.log depends on the SIMD class."""
    arr, scalar = _wrap(p)
    flat = np.atleast_1d(arr).ravel()
    if np.any(~((flat > 0.0) & (flat < 1.0))):
        raise NumericError("std_normal_quantile requires 0 < p < 1")
    q = flat - 0.5
    out = np.empty_like(flat)
    central = np.abs(q) <= 0.425
    mid_idx = np.flatnonzero(central)
    qm = q[mid_idx]
    out[mid_idx] = qm * _as241_ratio(0.180625 - qm * qm, _AS241_CENTRAL)
    tail_idx = np.flatnonzero(~central)
    pt = flat[tail_idx]
    r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    x = np.where(r <= 5.0, _as241_ratio(r - 1.6, _AS241_NEAR), _as241_ratio(r - 5.0, _AS241_FAR))
    out[tail_idx] = np.where(pt < 0.5, -x, x)
    return _unwrap(out.reshape(arr.shape), scalar)


# ---------------------------------------------------------------------------
# digamma
# ---------------------------------------------------------------------------

# The positive root of psi as a sum of two doubles, and the Taylor
# coefficients of psi about it, (-1)^(k+1) zeta(k + 1, x0) for k = 1..22
# (mpmath, 50 digits).
_PSI_ROOT_HI = 1.4616321449683622
_PSI_ROOT_LO = 9.549995429965697e-17
_PSI_ROOT_TAYLOR = (
    0.9676722454476212, -0.4427631689835921, 0.258499760955651, -0.16394270544240652,
    0.10782405069126237, -0.07219956125645471, 0.04880428816414311, -0.03316112647484736,
    0.022597648232218104, -0.01542476590494896, 0.010538791616612175, -0.007204534386356869,
    0.004926781395729853, -0.003369801655439328, 0.002305126326734928, -0.0015769367714301972,
    0.0010788252019162967, -0.0007380709389960052, 0.000504953265834602,
    -0.0003454680251063077, 0.00023635601564027053, -0.00016170622091974803,
)
# B_2k / (2k) for k = 1..8, the asymptotic series' coefficients in 1/x^2k.
_PSI_ASYMPTOTIC = (
    1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0,
    -691.0 / 32760.0, 1.0 / 12.0, -3617.0 / 8160.0,
)


def digamma(x):
    """psi(x) = d log Gamma(x) / dx for a scalar x > 0, to ~1e-15 relative.

    Within 0.25 of the positive root x0 it sums the Taylor series in
    x - x0 (x0 held in two doubles), so psi keeps its relative accuracy
    where it crosses zero. Elsewhere it steps up with psi(x) = psi(x + 1) -
    1/x to x >= 10 and sums ln x - 1/(2x) - sum B_2k / (2k x^2k).
    """
    x = float(x)
    if not x > 0.0:
        raise NumericError(f"digamma needs x > 0, got {x}")
    d = x - _PSI_ROOT_HI
    if abs(d) < 0.25:
        d -= _PSI_ROOT_LO
        total = 0.0
        for coef in reversed(_PSI_ROOT_TAYLOR):
            total = total * d + coef
        return total * d
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    for coef in reversed(_PSI_ASYMPTOTIC):
        series = series * inv2 + coef
    return math.log(x) - 0.5 / x - series * inv2 - shift


# ---------------------------------------------------------------------------
# regularized incomplete gamma and beta
# ---------------------------------------------------------------------------


def _igam_series(a, x):
    """P(a, x) for x < a + 1 via the ascending series."""
    total = np.full_like(x, 1.0 / a)
    term = total.copy()
    denom = a
    for _ in range(4000):
        denom += 1.0
        term = term * x / denom
        total += term
        if np.max(term) <= _EPS * np.min(total):
            break
    front = np.exp(a * np.log(np.maximum(x, _FPMIN)) - x - math.lgamma(a))
    return np.where(x > 0, front * total, 0.0)


def _igam_cf(a, x):
    """Q(a, x) for x >= a + 1 via the Lentz continued fraction."""
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / _FPMIN)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, 4000):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        np.maximum(np.abs(d), _FPMIN, out=d)
        c = b + an / c
        np.maximum(np.abs(c), _FPMIN, out=c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if np.max(np.abs(delta - 1.0)) < _CF_EPS:
            break
    front = np.exp(a * np.log(np.maximum(x, _FPMIN)) - x - math.lgamma(a))
    return front * h


def _igam_both(a, x):
    if a <= 0.0:
        raise NumericError("incomplete gamma requires a > 0")
    flat = np.atleast_1d(x).ravel().astype(np.float64)
    if np.any(flat < 0.0):
        raise NumericError("incomplete gamma requires x >= 0")
    p = np.empty_like(flat)
    q = np.empty_like(flat)
    lower = flat < a + 1.0
    if np.any(lower):
        ps = _igam_series(a, flat[lower])
        p[lower] = ps
        q[lower] = 1.0 - ps
    upper = ~lower
    if np.any(upper):
        qc = _igam_cf(a, flat[upper])
        q[upper] = qc
        p[upper] = 1.0 - qc
    np.clip(p, 0.0, 1.0, out=p)
    np.clip(q, 0.0, 1.0, out=q)
    return p, q


def reg_inc_gamma_lower(a, x):
    """Regularized lower incomplete gamma P(a, x)."""
    arr, scalar = _wrap(x)
    p, _ = _igam_both(float(a), arr)
    return _unwrap(p.reshape(arr.shape), scalar)


def reg_inc_gamma_upper(a, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x), computed on
    the continued-fraction side when x >= a + 1 to avoid cancellation."""
    arr, scalar = _wrap(x)
    _, q = _igam_both(float(a), arr)
    return _unwrap(q.reshape(arr.shape), scalar)


def _betacf(a, b, z):
    """Lentz continued fraction for the incomplete beta (direct branch)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(z)
    d = 1.0 - qab * z / qap
    np.maximum(np.abs(d), _FPMIN, out=d)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, 2000):
        m2 = 2 * m
        aa = m * (b - m) * z / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        np.maximum(np.abs(d), _FPMIN, out=d)
        c = 1.0 + aa / c
        np.maximum(np.abs(c), _FPMIN, out=c)
        d = 1.0 / d
        h = h * d * c
        aa = -(a + m) * (qab + m) * z / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.maximum(np.abs(d), _FPMIN, out=d)
        c = 1.0 + aa / c
        np.maximum(np.abs(c), _FPMIN, out=c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if np.max(np.abs(delta - 1.0)) < _CF_EPS:
            break
    return h


def _inc_beta_direct(a, b, z):
    front = np.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * np.log(np.maximum(z, _FPMIN))
        + b * np.log1p(-np.minimum(z, 1.0 - 1e-17))
    )
    return front * _betacf(a, b, z) / a


def reg_inc_beta(a, b, z):
    """Regularized incomplete beta I_z(a, b) with the usual symmetry switch."""
    a = float(a)
    b = float(b)
    if a <= 0.0 or b <= 0.0:
        raise NumericError("incomplete beta requires a > 0 and b > 0")
    arr, scalar = _wrap(z)
    flat = np.atleast_1d(arr).ravel().astype(np.float64)
    if np.any((flat < 0.0) | (flat > 1.0)):
        raise NumericError("incomplete beta requires 0 <= z <= 1")
    out = np.empty_like(flat)
    interior = (flat > 0.0) & (flat < 1.0)
    out[flat <= 0.0] = 0.0
    out[flat >= 1.0] = 1.0
    if np.any(interior):
        zi = flat[interior]
        res = np.empty_like(zi)
        direct = zi < (a + 1.0) / (a + b + 2.0)
        if np.any(direct):
            res[direct] = _inc_beta_direct(a, b, zi[direct])
        if np.any(~direct):
            res[~direct] = 1.0 - _inc_beta_direct(b, a, 1.0 - zi[~direct])
        out[interior] = res
    np.clip(out, 0.0, 1.0, out=out)
    return _unwrap(out.reshape(arr.shape), scalar)


# ---------------------------------------------------------------------------
# Owen's T
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)
# T(h, a) is exactly 0.0 in doubles beyond h = 38.6: exp(-h^2 / 2) and
# 1 - Phi(h) underflow. Clamping h there keeps h^2 and (a h)^2 finite.
_OWENS_H_MAX = 40.0


def _owens_quad(h, a):
    """Gauss-Legendre on [0, a] for 0 <= a <= 1; integrand is analytic.

    One pass per node over length-n vectors. Node j goes to partial sum
    j mod 8, and the eight sums combine as ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)):
    the order in which numpy's pairwise np.sum adds a 48-term row, so the
    result is bit for bit that of summing the (n x 48) matrix of terms."""
    half = 0.5 * a
    nh2 = -0.5 * (h * h)
    s = [None] * 8
    for j, (node, weight) in enumerate(zip(_GL_NODES, _GL_WEIGHTS)):
        x = half * (node + 1.0)
        q = 1.0 + x * x
        term = (half * weight) * (np.exp(nh2 * q) / q)
        if j < 8:
            s[j] = term
        else:
            s[j % 8] += term
    total = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
    return total / (2.0 * math.pi)


def owens_t(h, a):
    """Owen's T(h, a), extended to all real h and a by its symmetries:
    T is even in h and odd in a; for |a| > 1 the complement identity
    T(h, a) = Phi(h)/2 + Phi(ah)/2 - Phi(h) Phi(ah) - T(ah, 1/a) applies."""
    h_arr, h_scalar = _wrap(h)
    a_arr, a_scalar = _wrap(a)
    scalar = h_scalar and a_scalar
    hh, aa = np.broadcast_arrays(np.atleast_1d(h_arr), np.atleast_1d(a_arr))
    hh = np.minimum(np.abs(hh.astype(np.float64)), _OWENS_H_MAX)
    sign = np.sign(aa)
    av = np.abs(aa.astype(np.float64))
    out = np.empty_like(hh)
    small = av <= 1.0
    if np.any(small):
        out[small] = _owens_quad(hh[small], av[small])
    big = ~small
    if np.any(big):
        hb = hh[big]
        ab = av[big]
        ah = ab * hb
        phi_h = 0.5 * (2.0 - _calerf(hb * _SQRT1_2, scaled=False))  # Phi(h), h >= 0
        phi_ah = 0.5 * (2.0 - _calerf(ah * _SQRT1_2, scaled=False))
        inner = _owens_quad(ah, 1.0 / ab)
        out[big] = 0.5 * (phi_h + phi_ah) - phi_h * phi_ah - inner
    res = (sign * out).reshape(np.broadcast_shapes(h_arr.shape, a_arr.shape))
    return _unwrap(res, scalar)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distribution
# ---------------------------------------------------------------------------


def kolmogorov_sf(x):
    """Survival function of the asymptotic Kolmogorov distribution.

    Large-x: 2 sum (-1)^{k-1} exp(-2 k^2 x^2). Small-x (< 0.75): one minus
    the rapidly converging theta-function form of the CDF.
    """
    arr, scalar = _wrap(x)
    flat = np.atleast_1d(arr).ravel().astype(np.float64)
    out = np.ones_like(flat)
    pos = flat > 0.0
    largex = pos & (flat >= 0.75)
    if np.any(largex):
        xv = flat[largex]
        acc = np.zeros_like(xv)
        for k in range(1, 12):
            acc += (-1.0) ** (k - 1) * np.exp(-2.0 * k * k * xv * xv)
        out[largex] = 2.0 * acc
    smallx = pos & (flat < 0.75)
    if np.any(smallx):
        xv = flat[smallx]
        c = math.pi**2 / 8.0 / (xv * xv)
        acc = np.zeros_like(xv)
        for j in range(4):
            acc += np.exp(-((2 * j + 1) ** 2) * c)
        out[smallx] = 1.0 - _SQRT_2PI / xv * acc
    np.clip(out, 0.0, 1.0, out=out)
    return _unwrap(out.reshape(arr.shape), scalar)


_RESCALE = 1e140

# OpenBLAS thread-count entry points under the names the numpy wheels and
# system builds export them.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_blas_threads = []


def _blas_thread_controls():
    """(get, set) for numpy's OpenBLAS thread count, or None elsewhere."""
    if not _blas_threads:
        found = None
        try:
            # dlsym on numpy's core module also searches the BLAS it links.
            core = getattr(np, "_core", None) or np.core
            lib = ctypes.CDLL(core._multiarray_umath.__file__)
        except (AttributeError, OSError):
            lib = None
        for get_name, set_name in _BLAS_THREAD_SYMBOLS if lib else ():
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get_fn, set_fn = getattr(lib, get_name), getattr(lib, set_name)
                get_fn.restype = ctypes.c_int
                set_fn.argtypes = [ctypes.c_int]
                found = (get_fn, set_fn)
                break
        _blas_threads.append(found)
    return _blas_threads[0]


@contextlib.contextmanager
def _single_threaded_blas():
    """Run the block with the BLAS on one thread, then restore its count.

    The KS band matrices have at most 1200 rows (a few hundred at
    n = 10000). There a second BLAS thread spins: on a 2-vCPU host the
    quick-start `analyze` without this guard wrote the same bytes in no
    less wall time, with 0.4-0.5 s more CPU (1.25 -> 1.75 s median over 6
    alternating pairs). The CLI's commands load OpenBLAS on one thread
    (`cli.main`), so this matters only to library callers that loaded
    numpy with more. Not safe against BLAS calls from concurrent threads.
    """
    controls = _blas_thread_controls()
    if controls is None:
        yield
        return
    get_fn, set_fn = controls
    before = get_fn()
    set_fn(1)
    try:
        yield
    finally:
        set_fn(before)


def _rescale(mat, exp10):
    peak = np.max(np.abs(mat))
    while peak > _RESCALE:
        mat = mat / _RESCALE
        exp10 += 140
        peak /= _RESCALE
    return mat, exp10


def _ks_exact_cdf(n, d):
    """P(D_n < d) by the scaled matrix-power evaluation of the exact
    two-sided finite-n distribution, for 0 < d < 1."""
    nd = n * d
    k = int(nd) + 1
    h = k - nd
    m = 2 * k - 1
    i = np.arange(m)
    H = np.where(i[:, None] - i[None, :] + 1 >= 0, 1.0, 0.0)
    hp = h ** np.arange(1, m + 1, dtype=np.float64)
    H[:, 0] -= hp
    H[m - 1, :] -= hp[::-1]
    if 2.0 * h - 1.0 > 0.0:
        H[m - 1, 0] += (2.0 * h - 1.0) ** m
    # divide the band entry (i, j) by (i - j + 1)!
    with np.errstate(over="ignore"):
        fct = np.concatenate(([1.0], np.cumprod(np.arange(1.0, m + 1.0))))
    e = i[:, None] - i[None, :] + 1
    np.divide(H, fct[np.maximum(e, 0)], out=H, where=e > 0)
    result = np.eye(m)
    exp_r = 0
    base = H
    exp_b = 0
    power = n
    with _single_threaded_blas():
        while power:
            if power & 1:
                result = result @ base
                exp_r += exp_b
                result, exp_r = _rescale(result, exp_r)
            power >>= 1
            if power:
                base = base @ base
                exp_b *= 2
                base, exp_b = _rescale(base, exp_b)
    s = result[k - 1, k - 1]
    for j in range(1, n + 1):
        s *= j / n
        if s < 1e-140:
            s *= _RESCALE
            exp_r -= 140
    if exp_r < -280:
        return 0.0
    return min(max(float(s) * 10.0 ** min(exp_r, 280), 0.0), 1.0)


# Remainder of Stirling's formula, log k! - (k + 1/2) log k + k - log sqrt(2 pi):
# tabulated up to k = 15, its asymptotic series above (Loader 2000).
_STIRLERR_TABLE = np.array([0.0] + [
    math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - math.log(_SQRT_2PI)
    for k in range(1, 16)
])


def _stirlerr(k):
    k = np.asarray(k, dtype=np.float64)
    k2 = k * k
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / k2) / k2) / k2) / k2) / k
    return np.where(k <= 15, _STIRLERR_TABLE[np.minimum(k, 15).astype(int)], series)


def _smirnov_sf(n, d):
    """P(D+_n >= d), the exact one-sided KS tail of Birnbaum & Tingey (1951):
    d sum_{j=0}^{floor(n(1-d))} C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1).

    A term is the binomial pmf at its mean, C(n, j) p^j q^(n-j) with
    p = j/n and q = 1 - p, times (1 + d/p)^j (1 - d/q)^(n-j) / (d + p). Its
    log is summed from Stirling remainders and log1p, so no part of it is
    larger than ~n d; against scipy's smirnov it is within 6e-14 relative
    for n up to 3e5. The terms are positive; those below 1e-20 of the
    largest are dropped before the exact sum.
    """
    nd = n * d
    j = np.arange(1.0, n)
    j = j[n - j > nd]  # the sum stops where 1 - d - j/n reaches 0
    m = n - j
    log_pmf = (_stirlerr(n) - _stirlerr(j) - _stirlerr(m)
               + 0.5 * np.log(n / (2.0 * math.pi * j * m)))
    log_terms = np.concatenate((
        [n * math.log1p(-d) - math.log(d)],  # j = 0
        log_pmf + j * np.log1p(nd / j) + m * np.log1p(-nd / m) - np.log(d + j / n),
    ))
    top = float(np.max(log_terms))
    rel = log_terms[log_terms > top - 46.0] - top
    return d * math.exp(top) * math.fsum(np.exp(rel).tolist())


# From sqrt(n) d = x0 on, the two-sided tail is taken as 2 P(D+ >= d), which
# exceeds it by the overlap P(D+ >= d, D- >= d) (Simard & L'Ecuyer 2011).
# The overlap is 0 for d >= 1/2 and grows with n towards exp(-6 x^2) of the
# tail. Measured with mpmath at 40 digits, at x = 2: 1.8e-12 (n = 50),
# 8.4e-12 (n = 100), 2.4e-11 (n = 400), limit 3.8e-11. Below x0, one minus
# the matrix power carries ~1e-13 absolute error, which against scipy's
# smirnov is 2.0e-10 of the tail at x = 2 and 1.8e-9 at x = 2.25 for
# n = 10000 (1.1e-9 and 9.4e-9 at n = 50000). x0 = 2 sits about where the
# two relative errors cross; a larger x0 would hand more of the tail to the
# less accurate side, which is also the slower one (O(n^1.5 log n) against
# O(n)).
_KS_TAIL_X0 = 2.0


def ks_one_sample_pvalue(d, n, mode="exact"):
    """Two-sided one-sample KS p-value P(D_n >= d) for statistic d at n.

    The exact finite-n evaluation is the default. Below sqrt(n) d = 2 it is
    one minus Durbin's matrix power, with ~1e-13 absolute error; from 2 on
    it is twice the exact one-sided Birnbaum-Tingey tail, within 4e-11
    relative of the two-sided tail. Below 2, a band matrix of more than 1200
    rows (only for n > ~90000) falls back to the asymptotic Kolmogorov form,
    whose relative error is O(1/sqrt(n)). `mode="asymptotic"` always uses
    that form.
    """
    if not 0.0 <= d <= 1.0:
        raise NumericError(f"KS statistic must lie in [0, 1], got {d}")
    if n < 1 or int(n) != n:
        raise NumericError(f"sample count must be a positive integer, got {n}")
    if mode not in ("exact", "asymptotic"):
        raise NumericError(f"unknown KS mode: {mode!r}")
    n = int(n)
    scaled = math.sqrt(n) * d
    if mode == "asymptotic":
        return kolmogorov_sf(scaled)
    if d <= 0.0:
        return 1.0
    if d >= 1.0:
        return 0.0
    if scaled >= _KS_TAIL_X0:
        return 2.0 * _smirnov_sf(n, d)
    if 2 * (int(n * d) + 1) - 1 > 1200:
        return kolmogorov_sf(scaled)
    return min(max(1.0 - _ks_exact_cdf(n, d), 0.0), 1.0)
