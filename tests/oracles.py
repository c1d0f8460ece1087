"""Independent oracles for the test suite.

Everything here is deliberately written against the mathematical
definitions (mpmath arbitrary precision, exact rational arithmetic, or
naive full rescans) and shares no code with the implementations it checks.
The reference copies at the end keep earlier forms of Owen's T
quadrature, of the incomplete
gamma series and continued fraction, of the bootstrap kernel, of the
exact KS product loop, of the run-log writer and of the polynomial loops
of erfc, the normal quantile, digamma and Temme's expansion, which the
current forms must match to the bit.
"""

import io
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

mp.mp.dps = 40

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def phi_ref(x: float) -> float:
    return float(mp.ncdf(x))


def log_phi_ref(x: float) -> float:
    return float(mp.log(mp.ncdf(x)))


def erfc_ref(x: float) -> float:
    return float(mp.erfc(x))


def digamma_ref(x: float) -> float:
    return float(mp.digamma(mp.mpf(x)))


def loggamma_loglik_ref(data, t, m, s):
    """loggamma's log-likelihood at the search point t = (u, (mu - m)/s,
    log(sigma/s)), summed at 40 digits from the raw log-density
    c y - e^y - log Gamma(c) - log scale, y = (x - loc)/scale, with
    (c, loc, scale) = (u^-2, mu - (sigma/u) log c, sigma/u)."""
    u, mu, log_sigma = (mp.mpf(float(v)) for v in t)
    c = 1 / (u * u)
    scale = mp.mpf(s) * mp.exp(log_sigma) / u
    loc = mp.mpf(m) + mp.mpf(s) * mu - scale * mp.log(c)
    total = mp.mpf(0)
    for x in data:
        y = (mp.mpf(float(x)) - loc) / scale
        total += c * y - mp.exp(y) - mp.loggamma(c) - mp.log(scale)
    return float(total)


def loggamma_h_ref(v):
    """(expm1(v)/v, (expm1 v - v)/v^2, (v expm1 v - 2 (expm1 v - v))/v^3)
    for v != 0, at 60 digits more than the three terms of h3's numerator
    cancel, about 3 log10(1/|v|)."""
    with mp.workdps(60 + 3 * max(0, -math.floor(math.log10(abs(v))))):
        v = mp.mpf(float(v))
        e = mp.expm1(v)
        return float(e / v), float((e - v) / v**2), float((v * e - 2 * (e - v)) / v**3)


def quantile_grid():
    """The p grid of the quantile oracle fixture: deep lower tail to 1e-250,
    upper tail to 1 - 1e-16."""
    return np.concatenate(
        [np.geomspace(1e-250, 0.5, 500), 1.0 - np.geomspace(1e-16, 0.5, 500)]
    )


def quantile_ref(p: float) -> float:
    with mp.workdps(400):
        return float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(float(p)) - 1))


def igam_lower_ref(a: float, x: float) -> float:
    return float(mp.gammainc(a, 0, x, regularized=True))


def igam_tails_ref(a: float, x: float):
    """(P(a, x), Q(a, x)) at any a > 0, x > 0, where mp.gammainc gives up
    at large a: P = x^a e^-x / Gamma(a + 1) * 1F1(1; a + 1; x) (DLMF
    8.5.1), a series of positive terms, and Q = 1 - P worked with as many
    more digits as Q has leading zeros, so that both keep 40. Where Q lies
    below ~1e-330 (its exponent's estimate a eta^2 / 2 from 760 up), the
    result is (1.0, 0.0) without the series, whose terms would number
    about x - a."""
    with mp.workdps(40):
        a, x = mp.mpf(a), mp.mpf(x)
        zeros = (x - a - a * mp.log(x / a)) / mp.log(10) if x > a else 0
    if zeros >= 330:
        return 1.0, 0.0
    with mp.workdps(50 + int(zeros)):
        p = mp.exp(a * mp.log(x) - x - mp.loggamma(a + 1)) * mp.hyp1f1(1, a + 1, x, maxterms=10**8)
        q = 1 - p
    return float(p), float(q)


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
    episodes = list(zip(run.steps.tolist(), run.returns.tolist()))
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


def owens_quad_matrix_ref(h, a):
    """Owen's T quadrature in the matrix form the streamed one replaced: all
    48 Gauss-Legendre terms of each point in one (n x 48) array, summed by
    np.sum along the row. The slope is one per point or one for all."""
    nodes, weights = np.polynomial.legendre.leggauss(48)
    half = 0.5 * np.asarray(a, dtype=np.float64)
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


def bootstrap_means_chunked_ref(sample, n_resamples, key0, key1, domain):
    """The bootstrap kernel in the form its bounded-scratch one replaced:
    resamples in chunks of up to 2^20 Philox blocks, each chunk's blocks
    from one vectorised call, its draws and indices whole (chunk x n)
    arrays, the mean accumulated in draw order."""
    m0, m1 = np.uint64(0xD2511F53), np.uint64(0xCD9E8D57)
    w0, w1 = np.uint64(0x9E3779B9), np.uint64(0xBB67AE85)
    mask, shift = np.uint64(_MASK32), np.uint64(32)
    src = np.ascontiguousarray(sample, dtype=np.float64)
    n = src.shape[0]
    blocks_per = (n + 3) // 4
    means = np.empty(n_resamples, dtype=np.float64)
    chunk = max(1, (1 << 20) // blocks_per)
    for start in range(0, n_resamples, chunk):
        stop = min(start + chunk, n_resamples)
        block = np.arange(blocks_per, dtype=np.uint64)
        c0, c1 = block & mask, block >> shift
        c2, c3 = np.arange(start, stop, dtype=np.uint64).reshape(-1, 1), np.uint64(domain)
        k0, k1 = np.uint64(key0), np.uint64(key1)
        for _ in range(10):
            p0 = m0 * c0
            p1 = m1 * c2
            c0, c1, c2, c3 = (p1 >> shift) ^ c1 ^ k0, p1 & mask, (p0 >> shift) ^ c3 ^ k1, p0 & mask
            k0 = (k0 + w0) & mask
            k1 = (k1 + w1) & mask
        blocks = np.empty((stop - start, blocks_per, 4), dtype=np.uint32)
        for lane, word in enumerate((c0, c1, c2, c3)):
            blocks[:, :, lane] = word
        draws = blocks.reshape(stop - start, blocks_per * 4)[:, :n].astype(np.uint64)
        idx = ((draws * np.uint64(n)) >> shift).astype(np.intp)
        acc = np.zeros(stop - start, dtype=np.float64)
        for j in range(n):
            acc += src[idx[:, j]]
        means[start:stop] = acc / n
    return means


def run_log_text_ref(steps, returns):
    """A run log's CSV text written one row at a time, as the writer did
    before it joined the rows: the header, then `step,return` with each
    return's repr, given a `.0` before a bare exponent so that a YAML 1.1
    parser reads it as a float."""
    out = io.StringIO()
    out.write("step,return\n")
    for step, ret in zip(steps, returns):
        text = repr(float(ret))
        mantissa, exp, exponent = text.partition("e")
        if exp and "." not in mantissa:
            text = f"{mantissa}.0e{exponent}"
        out.write(f"{int(step)},{text}\n")
    return out.getvalue()


# Cody's CALERF tables in his order: a numerator's last coefficient leads
# and the one before it is the constant term; a denominator is monic and
# its last coefficient is the constant term.
CODY_REF = {
    "A": (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
          3.20937758913846947e03, 1.85777706184603153e-1),
    "B": (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03),
    "C": (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
          2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
          2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8),
    "D": (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
          1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
          3.43936767414372164e03, 1.23033935480374942e03),
    "P": (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
          1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2),
    "Q": (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
          6.05183413124413191e-2, 2.33520497626869185e-3),
}


def cody_ratio_ref(t, num_c, den_c):
    """Cody's rational in his table order, by the loop that read it."""
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


def calerf_ref(y, scaled):
    """erfc(y), or erfcx(y) when `scaled`, for y >= 0 or NaN: the kernel as
    it read Cody's tables in his order through `cody_ratio_ref`."""
    def exp_neg_square(v):
        s = np.trunc(v * 16.0) / 16.0
        return np.exp(-s * s) * np.exp(-(v - s) * (v + s))

    flat = y.ravel()
    out = np.empty_like(flat)
    small = flat <= 0.46875
    ys = flat[small]
    z = ys * ys
    r = 1.0 - ys * cody_ratio_ref(z, CODY_REF["A"], CODY_REF["B"])
    out[small] = np.exp(z) * r if scaled else r
    mid = (flat <= 4.0) & ~small
    ym = flat[mid]
    r = cody_ratio_ref(ym, CODY_REF["C"], CODY_REF["D"])
    out[mid] = r if scaled else exp_neg_square(ym) * r
    big = ~(flat <= 4.0)
    yb = flat[big] if scaled else np.minimum(flat[big], 26.543)
    with np.errstate(over="ignore"):
        z = 1.0 / (yb * yb)
    r = (1.0 / math.sqrt(math.pi) - z * cody_ratio_ref(z, CODY_REF["P"], CODY_REF["Q"])) / yb
    out[big] = r if scaled else np.where(yb >= 26.543, 0.0, exp_neg_square(yb) * r)
    return out.reshape(y.shape)


def as241_ratio_ref(t, coeffs):
    """One AS 241 rational, numerator and denominator in one loop."""
    num_c, den_c = coeffs
    num = num_c[-1] * t
    den = den_c[-1] * t
    for a, b in zip(num_c[-2:0:-1], den_c[-2:0:-1]):
        num += a
        num *= t
        den += b
        den *= t
    return (num + num_c[0]) / (den + den_c[0])


def as241_quantile_ref(p, central, near, far):
    """Phi^-1 on a 1-d array of p in (0, 1) by `as241_ratio_ref` on the
    three rationals given, constant term first."""
    q = p - 0.5
    out = np.empty_like(p)
    mid = np.abs(q) <= 0.425
    qm = q[mid]
    out[mid] = qm * as241_ratio_ref(0.180625 - qm * qm, central)
    pt = p[~mid]
    r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    x = np.where(r <= 5.0, as241_ratio_ref(r - 1.6, near), as241_ratio_ref(r - 5.0, far))
    out[~mid] = np.where(pt < 0.5, -x, x)
    return out


def horner_loop_ref(t, coeffs):
    """sum_k coeffs[k] t^k, constant first, by the float loop of digamma
    and of Temme's coefficient sums: total * t + coef over the reversed
    table, from 0."""
    total = 0.0
    for coef in reversed(coeffs):
        total = total * t + coef
    return total


def horner_full_like_ref(t, coeffs):
    """sum_k coeffs[k] t^k, constant first, on an array t, by the loop of
    Temme's series in eta and in s^2: an array of the leading coefficient,
    then times t, plus the next, in place."""
    total = np.full_like(t, coeffs[-1])
    for coef in coeffs[-2::-1]:
        total *= t
        total += coef
    return total


def igam_temme_ref(a, x, table, atanh_odd):
    """(P, Q) by Temme's expansion as it summed its coefficients in 1/a
    with `horner_loop_ref` and its series in eta and s^2 with
    `horner_full_like_ref`, on the tables given, with `calerf_ref`."""
    d = x - a
    s = d / (x + a)
    s2 = s * s
    a_half_eta2 = d * s - (2.0 * a) * s * s2 * horner_full_like_ref(s2, atanh_odd)
    below = d < 0.0
    eta = np.copysign(np.sqrt(a_half_eta2 * (2.0 / a)), d)
    sums = [horner_loop_ref(1.0 / a, column) for column in zip(*table)]
    small = horner_full_like_ref(eta, sums)
    small *= 1.0 / math.sqrt(2.0 * math.pi * a)
    small[below] *= -1.0
    small += 0.5 * calerf_ref(np.sqrt(a_half_eta2), scaled=True)
    small *= np.exp(-a_half_eta2)
    large = 1.0 - small
    return np.where(below, small, large), np.where(below, large, small)


def digamma_loop_ref(x, root_hi, root_lo, taylor, asymptotic):
    """psi(x) for a float x > 0 as digamma summed its two series with
    `horner_loop_ref`, on the root and tables given."""
    d = x - root_hi
    if abs(d) < 0.25:
        d -= root_lo
        return horner_loop_ref(d, taylor) * d
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    return math.log(x) - 0.5 / x - horner_loop_ref(inv2, asymptotic) * inv2 - shift
