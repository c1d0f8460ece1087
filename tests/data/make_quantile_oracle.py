"""Write quantile_oracle.txt: the normal quantile at every point of
`oracles.quantile_grid()`, by `oracles.quantile_ref` (mpmath erfinv at 400
digits). One line per point, "p quantile", both as Python float reprs,
which read back bit for bit.

    PYTHONPATH=src python tests/data/make_quantile_oracle.py

takes about 80 s; test_special.py reads the file instead of calling mpmath.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import oracles  # noqa: E402


def main():
    lines = [f"{float(p)!r} {oracles.quantile_ref(p)!r}\n" for p in oracles.quantile_grid()]
    (HERE / "quantile_oracle.txt").write_text("".join(lines))


if __name__ == "__main__":
    main()
