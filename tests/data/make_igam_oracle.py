"""Write igam_oracle.txt: P(a, x) and Q(a, x) by `oracles.igam_tails_ref`
(mpmath's 1F1 series at 40 digits and more) on a grid around Temme's
domain of the incomplete gamma, a >= 20 with |x - a| < 0.3 a, for a from
20 to 1e9. Each a gets the domain's two edges and the doubles next to them,
31 points across the domain, and x = a + k sqrt(a) at k from -37 to 37,
where the tails run from ~1e-300 to 1/2. One line per point, "a x P Q", all
four as Python float reprs, which read back bit for bit.

    PYTHONPATH=src python tests/data/make_igam_oracle.py

takes about two minutes; test_special.py reads the file instead of calling
mpmath, which needs seconds a point at a ~ 1e8.
"""

import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import oracles  # noqa: E402

SHAPES = (20.0, 20.5, 37.3, 100.7, 877.15, 1e4 + 0.3, 1.36e5, 2.65e5 + 0.6,
          1e6 + 0.25, 1e7 + 0.5, 1e8 + 0.5, 1e9 + 0.5)
STEPS = (-37.0, -30.0, -20.0, -10.0, -5.0, -3.0, -2.0, -1.0, -0.5, -0.1, 0.0,
         0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 30.0, 37.0)


def grid(a):
    """The x of one shape a, ascending, without repeats."""
    width = 0.3 * a
    xs = set()
    for edge in (a - width, a + width):
        xs.update((math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)))
    xs.update(float(x) for x in np.linspace(a - width, a + width, 33)[1:-1])
    xs.update(a + k * math.sqrt(a) for k in STEPS if abs(k) * math.sqrt(a) < width)
    return sorted(xs)


def main():
    lines = []
    for a in SHAPES:
        for x in grid(a):
            p, q = oracles.igam_tails_ref(a, x)
            lines.append(f"{a!r} {x!r} {p!r} {q!r}\n")
    (HERE / "igam_oracle.txt").write_text("".join(lines))


if __name__ == "__main__":
    main()
