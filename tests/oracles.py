"""Independent oracles for the test suite.

Everything here is deliberately written against the mathematical
definitions (mpmath arbitrary precision, exact rational arithmetic, or
naive full rescans) and shares no code with the implementations it checks.
"""

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


def johnsonsb_mean_ref(a: float, b: float) -> float:
    """Mean of the standard Johnson SB, E[1 / (1 + exp(-(u - a) / b))] over
    u ~ N(0, 1), by quadrature split where the normal mass and the sigmoid
    sit."""
    a, b = mp.mpf(a), mp.mpf(b)
    pts = sorted({-mp.inf, mp.mpf(-40), mp.mpf(0), mp.mpf(40), mp.inf,
                  a - 40 * b, a - 5 * b, a, a + 5 * b, a + 40 * b})
    return float(mp.quad(lambda u: mp.npdf(u) / (1 + mp.exp(-(u - a) / b)), pts))


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
