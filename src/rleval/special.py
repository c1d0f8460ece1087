"""Numerically robust special functions.

Self-contained kernels for the normal CDF, digamma, regularized incomplete
gamma and beta, Owen's T, and the Kolmogorov-Smirnov one-sample
distribution in both exact finite-n and asymptotic form. Every function but
digamma (scalar only) takes its points as a scalar or an ndarray, and its
shapes, like Owen's T's slope, as numbers; scalar input returns a Python
float. The normal quantile, `rng.std_normal_quantile`, is imported here too.

Cody's rationals, digamma's two series and Temme's expansion sum their
coefficient tables with `rng.horner`, the package's one Horner loop, so
every table here holds its constant term first.

Accuracy targets (enforced by the oracle test suite): erfc 1e-14 relative
on [0, 26.5]; normal CDF 1e-12 absolute; log Phi 1e-13 relative (absolute
below |log Phi| = 1) at every point of [-38, 8]; quantile 8 ulps; digamma
1e-14 relative on [1e-3, 1e6]; incomplete gamma/beta 1e-10; Owen's T
1e-10; the exact KS p-value 1e-8 absolute, and from sqrt(n) d = 2 on (p
below ~7e-4) 1e-10 relative, as twice the one-sided tail. erfc, Phi,
1 - Phi and log Phi return their limits at +-inf and NaN for NaN.

The regularized incomplete gamma P(a, x) and Q(a, x) take one of three
kernels per point. Temme's uniform expansion takes a >= 20 with
|x - a| < 0.3 a and gives each tail within 3e-13 relative of mpmath
(wherever it exceeds 1e-300, a from 20 to 1e9). Elsewhere the ascending
series takes x < a + 1 and the continued fraction the rest, each for its
own tail with the other as one minus it. A call whose points all lie
outside the expansion's band gets the bits those two alone gave before.

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
from .rng import horner, std_normal_quantile  # the quantile keeps its name here

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
# (0.46875, 4] and erfcx(x) as a rational in 1/x^2 above 4. Numerator and
# denominator of each, constant term first; the denominators are monic.
_CODY_A = (3.20937758913846947e03, 3.77485237685302021e02, 1.13864154151050156e02,
           3.16112374387056560e00, 1.85777706184603153e-1)
_CODY_B = (2.84423683343917062e03, 1.28261652607737228e03, 2.44024637934444173e02,
           2.36012909523441209e01, 1.0)
_CODY_C = (1.23033935479799725e03, 2.05107837782607147e03, 1.71204761263407058e03,
           8.81952221241769090e02, 2.98635138197400131e02, 6.61191906371416295e01,
           8.88314979438837594e00, 5.64188496988670089e-1, 2.15311535474403846e-8)
_CODY_D = (1.23033935480374942e03, 3.43936767414372164e03, 4.36261909014324716e03,
           3.29079923573345963e03, 1.62138957456669019e03, 5.37181101862009858e02,
           1.17693950891312499e02, 1.57449261107098347e01, 1.0)
_CODY_P = (6.58749161529837803e-4, 1.60837851487422766e-2, 1.25781726111229246e-1,
           3.60344899949804439e-1, 3.05326634961232344e-1, 1.63153871373020978e-2)
_CODY_Q = (2.33520497626869185e-3, 6.05183413124413191e-2, 5.27905102951428412e-1,
           1.87295284992346725e00, 2.56852019228982242e00, 1.0)
_ERFC_UNDERFLOW = 26.543  # erfc(x) < 2.2e-308 beyond this


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
        r = 1.0 - ys * (horner(z, _CODY_A) / horner(z, _CODY_B))
        out[small_idx] = np.exp(z) * r if scaled else r
    mid_idx = np.flatnonzero(upto4 & ~small)
    if mid_idx.size:
        ym = flat[mid_idx]
        r = horner(ym, _CODY_C) / horner(ym, _CODY_D)
        out[mid_idx] = r if scaled else _exp_neg_square(ym) * r
    big_idx = np.flatnonzero(~upto4)  # includes inf and NaN
    if big_idx.size:
        yb = flat[big_idx]
        if not scaled:
            yb = np.minimum(yb, _ERFC_UNDERFLOW)
        with np.errstate(over="ignore"):
            z = 1.0 / (yb * yb)
        r = (_INV_SQRT_PI - z * (horner(z, _CODY_P) / horner(z, _CODY_Q))) / yb
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
        return horner(d, _PSI_ROOT_TAYLOR) * d
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    return math.log(x) - 0.5 / x - horner(inv2, _PSI_ASYMPTOTIC) * inv2 - shift


# ---------------------------------------------------------------------------
# regularized incomplete gamma and beta
# ---------------------------------------------------------------------------


def _igam_series(a, x):
    """P(a, x) for x < a + 1 via the ascending series. Each step's term and
    total are rounded nondecreasing functions of x >= 0, so the largest term
    sits at the largest x and the smallest total at the smallest: the stop
    test reads two elements, not two whole-array reductions. The term is
    updated in place, rounded as term * x / denom reads.

    `_igam_both` hands it x < 21 at a < 20 and x <= 0.7 a above, where it
    stops within ~110 terms; it raises NumericError rather than return a
    sum cut at 4000 terms (6.4e-5 off at a = 1e6, x = a + 0.5)."""
    total = np.full_like(x, 1.0 / a)
    term = total.copy()
    denom = a
    hi, lo = int(np.argmax(x)), int(np.argmin(x))
    for _ in range(4000):
        denom += 1.0
        np.multiply(term, x, out=term)
        np.divide(term, denom, out=term)
        total += term
        if term[hi] <= _EPS * total[lo]:
            break
    else:
        raise NumericError(f"incomplete gamma series short of convergence at a = {a}")
    front = np.exp(a * np.log(np.maximum(x, _FPMIN)) - x - math.lgamma(a))
    return np.where(x > 0, front * total, 0.0)


def _igam_cf(a, x):
    """Q(a, x) for finite x >= a + 1 via the Lentz continued fraction, each
    step written in place and rounded as d = an * d + b, c = b + an / c
    reads. It raises NumericError rather than return a fraction cut at 4000
    steps."""
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / _FPMIN)
    d = 1.0 / b
    h = d.copy()
    delta = np.empty_like(x)
    for i in range(1, 4000):
        an = -i * (i - a)
        b += 2.0
        np.multiply(d, an, out=d)
        d += b
        np.maximum(np.abs(d, out=d), _FPMIN, out=d)
        np.divide(an, c, out=c)
        c += b
        np.maximum(np.abs(c, out=c), _FPMIN, out=c)
        np.divide(1.0, d, out=d)
        np.multiply(d, c, out=delta)
        h *= delta
        delta -= 1.0
        if np.max(np.abs(delta, out=delta)) < _CF_EPS:
            break
    else:
        raise NumericError(
            f"incomplete gamma continued fraction short of convergence at a = {a}"
        )
    front = np.exp(a * np.log(np.maximum(x, _FPMIN)) - x - math.lgamma(a))
    return front * h


# Temme's uniform expansion (DLMF 8.12.3-9; Temme 1979, DiDonato & Morris
# 1986) takes a >= 20 with |x - a| < 0.3 a, where the series would need up to
# thousands of terms and the continued fraction hundreds. There |eta| < 0.34,
# a tenth of the radius 2 sqrt(pi) of the c_k's Taylor series, so 16 terms
# of each reach double precision; with nine c_k the sum in 1/a is within
# 1e-15 of its limit at a = 20 (seven left 1e-13).
_TEMME_MIN_A = 20.0
_TEMME_WIDTH = 0.3
# Taylor coefficients of c_0(eta) .. c_8(eta), eta^0 first, as the nearest
# doubles to the exact rationals of tests/data/make_temme_coefficients.py.
_TEMME_C = (
    (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815, 0.0011574074074074073,
     0.0003527336860670194, -0.0001787551440329218, 3.919263178522438e-05,
     -2.185448510679992e-06, -1.85406221071516e-06, 8.296711340953087e-07,
     -1.7665952736826078e-07, 6.707853543401498e-09, 1.0261809784240309e-08,
     -4.382036018453353e-09, 9.14769958223679e-10, -2.5514193994946248e-11),
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
     -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
     -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
     4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
     1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
     4.162792991842583e-10),
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
     2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
     -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
     -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
     -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09,
     9.428356159014678e-13),
    (0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
     0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
     1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
     -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
     -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09,
     -9.460496661855133e-10),
    (-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
     -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
     1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
     8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
     2.8865829742708783e-08, -1.4189739437803219e-08, 3.4463580499464896e-09,
     -2.3024517174528067e-13),
    (-0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
     -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
     -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
     -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
     4.8240967037894184e-08, -1.7989466721743514e-14, -6.306194500013523e-09,
     3.162417628774568e-09),
    (0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
     7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05,
     -1.8329116582843375e-05, -3.0796134506033047e-09, 3.465155368803609e-06,
     -2.0291327396058603e-06, 5.788792863149004e-07, 2.338630673826657e-13,
     -8.828600746330484e-08, 4.7435958880408125e-08, -1.2545415020710383e-08,
     8.649648858010293e-14),
    (0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
     0.0002812695154763237, -0.00010976582244684731, -1.2741009095484485e-07,
     2.7744451511563645e-05, -1.8263488805711332e-05, 5.7876949497350525e-06,
     4.93875893393627e-10, -1.0595367014026043e-06, 6.166714376110408e-07,
     -1.7562973359060463e-07, -1.297447328701544e-12, 2.695423606288966e-08,
     -1.4578352908731272e-08),
    (-0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721,
     -6.969091458420552e-07, 0.00016644846642067547, -0.00012783517679769218,
     4.629953263691304e-05, 4.557909867922708e-09, -1.0595271125805195e-05,
     6.783342904865167e-06, -2.1075476666258803e-06, -1.7213731432817144e-11,
     3.773587741611098e-07, -2.1867506700122867e-07, 6.220228804018927e-08, 6.597703826733e-16),
)
# 1/3, 1/5, .., 1/23: the odd series of atanh(s) / s - 1 over s^2, to
# 1e-17 of its sum for s^2 <= 0.032, where |mu| <= 0.3.
_ATANH_ODD = tuple(1.0 / j for j in range(3, 25, 2))


def _igam_temme(a, x):
    """(P, Q) at a >= 20 and |x - a| < 0.3 a by Temme's expansion: with
    mu = x/a - 1 and eta^2 / 2 = mu - log(1 + mu), eta of the sign of mu,

        Q = erfc(eta sqrt(a/2)) / 2 + R,  P = erfc(-eta sqrt(a/2)) / 2 - R,
        R = exp(-a eta^2 / 2) / sqrt(2 pi a) * sum_k c_k(eta) a^-k.

    a eta^2 / 2 is (x - a) s - 2 a s^3 (1/3 + s^2/5 + ..), the atanh series
    of log(1 + mu) with s = (x - a) / (x + a); x - a is exact here, so it
    keeps its relative accuracy as x -> a. The smaller tail, Q from x = a up
    and P below, is exp(-a eta^2 / 2) times erfcx(|eta| sqrt(a/2)) / 2 +-
    the sum / sqrt(2 pi a), which never cancels; the other is one minus it."""
    d = x - a
    s = d / (x + a)
    s2 = s * s
    a_half_eta2 = d * s - (2.0 * a) * s * s2 * horner(s2, _ATANH_ODD)
    below = d < 0.0
    eta = np.copysign(np.sqrt(a_half_eta2 * (2.0 / a)), d)
    inv_a = 1.0 / a
    small = horner(eta, [horner(inv_a, column) for column in zip(*_TEMME_C)])
    small *= 1.0 / math.sqrt(2.0 * math.pi * a)
    small[below] *= -1.0
    small += 0.5 * _calerf(np.sqrt(a_half_eta2), scaled=True)
    small *= np.exp(-a_half_eta2)
    large = 1.0 - small
    return np.where(below, small, large), np.where(below, large, small)


def _igam_both(a, x):
    """(P, Q) at every x; x = +inf gives exactly (1, 0)."""
    if not 0.0 < a < math.inf:
        raise NumericError(f"incomplete gamma requires a finite a > 0, got {a}")
    flat = np.atleast_1d(x).ravel().astype(np.float64)
    if np.isnan(flat).any():
        raise NumericError("incomplete gamma requires x that is not NaN")
    if np.any(flat < 0.0):
        raise NumericError("incomplete gamma requires x >= 0")
    p = np.ones_like(flat)
    q = np.zeros_like(flat)
    near = (a >= _TEMME_MIN_A) & (np.abs(flat - a) < _TEMME_WIDTH * a)
    if np.any(near):
        p[near], q[near] = _igam_temme(a, flat[near])
    lower = (flat < a + 1.0) & ~near
    if np.any(lower):
        ps = _igam_series(a, flat[lower])
        p[lower] = ps
        q[lower] = 1.0 - ps
    upper = ~(lower | near) & (flat < math.inf)
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

# The 48-point Gauss-Legendre rule on [-1, 1] as the doubles numpy's
# leggauss(48) gives, on which every pinned output was computed: the 24 nodes
# above zero with their weights (tests/data/make_gauss_legendre.py prints
# them and checks them against mpmath), then their mirror images.
_GL_HALF = (  # (node, weight), ascending
    ('0x1.094223ea6196ep-5', '0x1.092a652a0fba4p-4'),
    ('0x1.8d54ccaa9b7b4p-4', '0x1.080dac3f3724cp-4'),
    ('0x1.4a2ef25599831p-3', '0x1.05d56c2248c2dp-4'),
    ('0x1.cc50f5488fbefp-3', '0x1.028406fc86d22p-4'),
    ('0x1.26425a1527d42p-2', '0x1.fc3a19b11a281p-5'),
    ('0x1.65204357a6388p-2', '0x1.f14a6f9e10aacp-5'),
    ('0x1.a27eb589dea3bp-2', '0x1.e444cde6cfffcp-5'),
    ('0x1.de1bcb894046ap-2', '0x1.d537300bfd4b4p-5'),
    ('0x1.0bdbc159f3714p-1', '0x1.c431bfe4b318dp-5'),
    ('0x1.2789ffd1f24a0p-1', '0x1.b146c443c7e03p-5'),
    ('0x1.41fae84d5a001p-1', '0x1.9c8a8d586186bp-5'),
    ('0x1.5b1216aac49a1p-1', '0x1.86135edf0a9e7p-5'),
    ('0x1.72b49a0302d99p-1', '0x1.6df9583af7196p-5'),
    ('0x1.88c91196f8e2dp-1', '0x1.54565a91a83e9p-5'),
    ('0x1.9d37c81006d1dp-1', '0x1.3945ed05d7d52p-5'),
    ('0x1.afeaccf5eeb9ep-1', '0x1.1ce51f31f7018p-5'),
    ('0x1.c0ce0c3f55453p-1', '0x1.fea4d40fed237p-6'),
    ('0x1.cfcf63e4a4e84p-1', '0x1.c15b1e8f69982p-6'),
    ('0x1.dcdeb7610754bp-1', '0x1.822eefbc974b7p-6'),
    ('0x1.e7ee011520dfap-1', '0x1.416423e8cbb26p-6'),
    ('0x1.f0f161978472fp-1', '0x1.fe80c5c315b36p-7'),
    ('0x1.f7df2d6c8eed7p-1', '0x1.781605954a664p-7'),
    ('0x1.fcaffc9af24a4p-1', '0x1.e037f45d9bc6dp-8'),
    ('0x1.ff5ee9d8af2e2p-1', '0x1.9d50bc55d51a7p-9'),
)
_GL_NODES = (tuple(-float.fromhex(x) for x, _ in reversed(_GL_HALF))
             + tuple(float.fromhex(x) for x, _ in _GL_HALF))
_GL_WEIGHTS = tuple(float.fromhex(w) for _, w in (*reversed(_GL_HALF), *_GL_HALF))
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
    """Owen's T(h, a) at points h for one slope a, extended to all real h and
    a by its symmetries: T is even in h and odd in a; for |a| > 1 the complement
    identity T(h, a) = Phi(h)/2 + Phi(ah)/2 - Phi(h) Phi(ah) - T(ah, 1/a) applies."""
    arr, scalar = _wrap(h)
    hh = np.minimum(np.abs(np.atleast_1d(arr)), _OWENS_H_MAX)
    av = abs(float(a))
    if av <= 1.0:
        out = _owens_quad(hh, av)
    else:
        # At a = inf, h = 0 gives ah = 0, the limit T(0, a) takes, not inf * 0.
        ah = np.where(hh == 0.0, 0.0, math.inf) if math.isinf(av) else av * hh
        phi_h, phi_ah = std_normal_cdf(hh), std_normal_cdf(ah)
        out = 0.5 * (phi_h + phi_ah) - phi_h * phi_ah - _owens_quad(ah, 1.0 / av)
    return _unwrap((np.sign(a) * out).reshape(arr.shape), scalar)


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


def _times_factorial_ratio(s, exp10, n):
    """s n! / n^n as (s', exp10'), the product being s' 10^exp10'.

    The factors j / n multiply into s for j = 1, ..., n in order, and each
    time s falls below 1e-140 it is scaled up by 1e140 and exp10 lowered by
    140. At n = 10^4 the loop takes ~0.4 ms on Python floats, a tenth of
    the exact p-value's time (2-vCPU Xeon)."""
    s = float(s)
    for j in range(1, n + 1):
        s *= j / n
        if s < 1e-140:
            s *= _RESCALE
            exp10 -= 140
    return s, exp10


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
    s, exp_r = _times_factorial_ratio(result[k - 1, k - 1], exp_r, n)
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
