#!/usr/bin/env python3
"""The rleval benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. With --trace 0 it times the `rleval`
CLI end to end in fresh subprocesses: `validate` for set-up, `synth` for the
inputs, then `analyze` repeated until S seconds have passed. With --trace 1
it makes one traced run instead: the stages of `analyze` called in-process
with a span around each, then one CLI `analyze` whose bundle must match.
Every bundle is checked from outside (checks.py). The last line of standard
output is a JSON object with keys correct, attempted, failed and metrics;
the lines before it print every metric with its unit and sample count.

--data-seed replaces the pinned inputs of the fit-bound workloads, to
re-check a claim on data not used while a change was written.
"""

import argparse
import sys
import time
from pathlib import Path

from spawn import Spawner

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("quickstart", "skewed-runs", "long-logs")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int, default=None)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    if not (SRC / "rleval" / "cli.py").is_file():
        print(f"error: no rleval sources under {SRC}", file=sys.stderr)
        return 2
    # The spawner starts before numpy, scipy and rleval are imported here.
    spawner = Spawner(SRC)
    try:
        sys.path.insert(0, str(SRC))
        import bench

        return bench.measure(args, spawner, began)
    finally:
        spawner.close()


if __name__ == "__main__":
    sys.exit(main())
