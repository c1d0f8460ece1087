"""Derive the Taylor coefficients of Temme's c_k(eta) in exact rationals.

Temme's uniform expansion of the incomplete gamma function (DLMF 8.12.3-9)
writes Q(a, x) = erfc(eta sqrt(a/2)) / 2 + R with

    R = exp(-a eta^2 / 2) / sqrt(2 pi a) * sum_k c_k(eta) a^-k,

where lambda = x / a, mu = lambda - 1 and eta^2 / 2 = mu - log(1 + mu),
eta taking the sign of mu. The c_k are analytic at eta = 0:

    c_0 = 1/mu - 1/eta,
    c_k = c_{k-1}'(eta) / eta + (-1)^k g_k / mu,

with g_k the coefficients of Stirling's series, Gamma(z) ~ sqrt(2 pi / z)
(z/e)^z sum_k g_k z^-k: 1, 1/12, 1/288, -139/51840, ... Every step here is
done in fractions.Fraction on truncated power series in eta, so the table is
exact; `special._TEMME_C` holds its rows as the nearest doubles.

    python tests/data/make_temme_coefficients.py

prints the table as Python source in well under a second; the test suite
loads this file, calls `temme_coefficients` and compares.
"""

from fractions import Fraction
from math import comb

ROWS = 9  # c_0 .. c_8
TERMS = 16  # eta^0 .. eta^15 of each row


def _mul(u, v, n):
    """The product of two power series, to n terms."""
    out = [Fraction(0)] * n
    for i, ui in enumerate(u[:n]):
        if ui:
            for j, vj in enumerate(v[:n - i]):
                out[i + j] += ui * vj
    return out


def _inverse(u, n):
    """1 / u for a power series with u[0] != 0, to n terms."""
    out = [Fraction(0)] * n
    out[0] = 1 / u[0]
    for m in range(1, n):
        out[m] = -sum(u[j] * out[m - j] for j in range(1, min(m, len(u) - 1) + 1)) / u[0]
    return out


def _sqrt(u, n):
    """sqrt(u) for a power series with u[0] = 1, to n terms."""
    out = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for m in range(1, n):
        out[m] = (u[m] - sum(out[j] * out[m - j] for j in range(1, m))) / 2
    return out


def _mu_over_eta(n):
    """mu / eta as a power series in eta, to n terms.

    eta = mu / psi(mu) with psi = (2 (mu - log(1 + mu)) / mu^2)^(-1/2), so
    by Lagrange inversion the eta^m coefficient of mu is
    [mu^(m-1)] psi^m / m."""
    half_sq = [Fraction(2 * (-1) ** i, i + 2) for i in range(n)]
    psi = _inverse(_sqrt(half_sq, n), n)
    out = []
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for m in range(1, n + 1):
        power = _mul(power, psi, n)
        out.append(power[m - 1] / m)
    return out


def _bernoulli(n):
    """B_0 .. B_n, with B_1 = -1/2."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def stirling_coefficients(n):
    """g_0 .. g_{n-1} of Stirling's series: the power series in 1/z of
    exp(sum_{m>=1} B_2m / (2m (2m - 1) z^(2m-1)))."""
    b = _bernoulli(2 * n)
    log_series = [Fraction(0)] * n
    for m in range(1, n + 1):
        if 2 * m - 1 < n:
            log_series[2 * m - 1] = b[2 * m] / (2 * m * (2 * m - 1))
    out = [Fraction(1)] + [Fraction(0)] * (n - 1)
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)
    factorial = 1
    for k in range(1, n):
        power = _mul(power, log_series, n)
        factorial *= k
        out = [o + p / factorial for o, p in zip(out, power)]
    return out


def temme_coefficients(rows=ROWS, terms=TERMS):
    """[[d_k0, d_k1, ...] for k in range(rows)], c_k(eta) = sum_n d_kn eta^n,
    as Fractions."""
    n = terms + 2 * rows + 2
    g = stirling_coefficients(rows + 1)
    # 1/mu = (1/eta) * inv_w, inv_w = eta / mu.
    inv_w = _inverse(_mu_over_eta(n + 1), n + 1)
    # c_0 = (inv_w - 1) / eta: drop inv_w's constant 1 and shift down.
    row = inv_w[1:n + 1]
    table = [row[:terms]]
    for k in range(1, rows):
        # c_{k-1}' / eta = sum_m m d_m eta^(m-2); its eta^-1 part, d_1, and
        # that of (-1)^k g_k / mu, (-1)^k g_k inv_w[0], must cancel.
        pole = row[1] + (-1) ** k * g[k] * inv_w[0]
        if pole != 0:
            raise ArithmeticError(f"c_{k} keeps a pole: {pole}")
        size = len(row) - 2
        row = [(m + 2) * row[m + 2] + (-1) ** k * g[k] * inv_w[m + 1] for m in range(size)]
        table.append(row[:terms])
    return table


def main():
    print("_TEMME_C = (")
    for row in temme_coefficients():
        values = [repr(float(v)) for v in row]
        lines, line = [], "    ("
        for text in values:
            if len(line) + len(text) + 2 > 96:
                lines.append(line.rstrip())
                line = "     "
            line += text + ", "
        lines.append(line.rstrip(", ") + "),")
        print("\n".join(lines))
    print(")")


if __name__ == "__main__":
    main()
