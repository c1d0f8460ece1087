"""Derive the 48-point Gauss-Legendre table of `special._owens_quad`.

Owen's T has always been integrated on numpy's `leggauss(48)`, whose nodes
are the eigenvalues of the Legendre companion matrix (a LAPACK solve)
polished by one Newton step, with weights normalised to sum to 2. Every
pinned output was computed on those doubles, so `special._GL_HALF` holds
their 24 positive (node, weight) pairs, and the 24 negative ones mirror
them. The table loads neither `numpy.polynomial` nor LAPACK, and its bits
no longer depend on the LAPACK kernel.

`exact_half` gives the same 24 pairs from mpmath at 50 digits: Newton on
P_48 from each leggauss node, weight 2 / ((1 - x^2) P_48'(x)^2). The nodes
agree with it to 6e-17. leggauss's weights are up to 4.0e-15 off it (at the
outermost node, 1.3e-12 relative), which moves Owen's T by far less than
its 1e-10 target.

    python tests/data/make_gauss_legendre.py

prints the table as Python source and each column's largest distance from
mpmath; the test suite loads this file and compares.
"""

import mpmath
import numpy as np

POINTS = 48


def leggauss_half():
    """numpy's leggauss(48) nodes and weights for the nodes above zero, in
    ascending order."""
    nodes, weights = np.polynomial.legendre.leggauss(POINTS)
    half = POINTS // 2
    return [float(x) for x in nodes[half:]], [float(w) for w in weights[half:]]


def _legendre(x):
    """P_48(x) and P_47(x) by the three-term recurrence."""
    before, now = mpmath.mpf(1), x
    for k in range(2, POINTS + 1):
        before, now = now, ((2 * k - 1) * x * now - (k - 1) * before) / k
    return now, before


def exact_half(digits=50):
    """The nodes above zero and their weights, in ascending order, as mpf."""
    nodes, weights = [], []
    with mpmath.workdps(digits):
        for start in leggauss_half()[0]:
            x = mpmath.mpf(start)
            for _ in range(8):
                p, p_before = _legendre(x)
                x -= p / (POINTS * (x * p - p_before) / (x * x - 1))
            p, p_before = _legendre(x)
            slope = POINTS * (x * p - p_before) / (x * x - 1)
            nodes.append(+x)
            weights.append(2 / ((1 - x * x) * slope * slope))
    return nodes, weights


def main():
    nodes, weights = leggauss_half()
    print("_GL_HALF = (  # (node, weight), ascending")
    for x, w in zip(nodes, weights):
        print(f"    ({x.hex()!r}, {w.hex()!r}),")
    print(")")
    exact_nodes, exact_weights = exact_half()
    for name, got, exact in (("nodes", nodes, exact_nodes), ("weights", weights, exact_weights)):
        worst = max(abs(float(mpmath.mpf(g) - e)) for g, e in zip(got, exact))
        print(f"# {name}: largest distance from mpmath {worst:.2g}")


if __name__ == "__main__":
    main()
