"""Learning-curve metrics over per-episode run logs, and the one run metric:
`run_average_return`, the mean of all of a run's episode returns.

The curve value at evaluation step t is the mean episode return over the
half-open trailing window (t - window, t]. Evaluation steps sit on the
stride grid and extend to the smallest multiple of the stride at or past
the final episode. Steps before the first defined window are omitted;
later empty windows carry the last defined value forward (declared in
output provenance as the empty-window policy).

Window means accumulate left to right in episode order; the brute-force
oracle in the test suite reproduces them bit for bit.
"""

import math
from dataclasses import dataclass

from ._fmt import fmt_shortest
from .errors import ValidationError

DEFAULT_WINDOW = 5000
DEFAULT_STRIDE = 1000

EMPTY_WINDOW_POLICY = "carry_forward"


@dataclass(frozen=True)
class LearningCurve:
    points: tuple  # ((eval_step, value), ...)
    window: int
    stride: int

    @property
    def eval_steps(self):
        return tuple(s for s, _ in self.points)


@dataclass(frozen=True)
class CurveBand:
    points: tuple  # ((eval_step, mean, se, n), ...)


def learning_curve(run, window: int = DEFAULT_WINDOW, stride: int = DEFAULT_STRIDE) -> LearningCurve:
    """Windowed mean returns on the stride grid.

    Each window's bounds come from a binary search of the steps. The sums
    run over all windows at once, one episode position at a time, so each
    window still adds its returns to 0.0 left to right, as a scalar loop
    would; a pairwise sum or a difference of prefix sums would round
    differently."""
    import numpy as np  # here, so that `rleval validate` starts without numpy

    if window <= 0 or stride <= 0:
        raise ValidationError("window and stride must be positive")
    steps, returns = run.steps, run.returns
    if not steps.size:
        raise ValidationError(f"{run.run_id}: cannot compute a curve for an empty run")
    last_step = int(steps[-1])
    grid_end = ((last_step + stride - 1) // stride) * stride
    grid = np.arange(stride, grid_end + 1, stride, dtype=np.int64)
    hi = np.searchsorted(steps, grid, side="right")  # first episode past t
    lo = np.searchsorted(steps, grid - window, side="right")  # first inside the window
    counts = hi - lo
    totals = np.zeros(grid.size)
    for k in range(int(counts.max(initial=0))):  # a run ending at step 0 has no grid
        live = np.flatnonzero(counts > k)
        totals[live] += returns[lo[live] + k]
    # An empty window carries the last defined value forward; grid points
    # before the first defined window are omitted.
    defined = counts > 0
    means = totals[defined] / counts[defined]
    latest = np.maximum.accumulate(np.where(defined, np.cumsum(defined) - 1, -1))
    kept = latest >= 0
    points = tuple(zip(grid[kept].tolist(), means[latest[kept]].tolist()))
    return LearningCurve(points=points, window=window, stride=stride)


def run_average_return(run, mode: str = "episodes", window: int = DEFAULT_WINDOW,
                       stride: int = DEFAULT_STRIDE) -> float:
    """The mean of every episode return in the run. `mode` accepts only
    "episodes"; `window` and `stride` are unused, for callers that pass them."""
    if mode != "episodes":
        raise ValidationError(f"unknown average-return mode {mode!r}")
    if not run.returns.size:
        raise ValidationError(f"{run.run_id}: empty run")
    values = memoryview(run.returns)  # iterates as Python floats, with no list
    return math.fsum(values) / len(values)


def curve_band(curves) -> CurveBand:
    """Cross-run mean and standard error at each shared evaluation step."""
    curves = list(curves)
    if len(curves) < 2:
        raise ValidationError("curve_band requires at least 2 curves")
    window = curves[0].window
    stride = curves[0].stride
    for curve in curves[1:]:
        if curve.window != window or curve.stride != stride:
            raise ValidationError("curves mix window/stride settings")
    shared = set(curves[0].eval_steps)
    for curve in curves[1:]:
        shared &= set(curve.eval_steps)
    lookup = [dict(curve.points) for curve in curves]
    n = len(curves)
    points = []
    for t in sorted(shared):
        values = [table[t] for table in lookup]
        mean = math.fsum(values) / n
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        points.append((t, mean, math.sqrt(var) / math.sqrt(n), n))
    return CurveBand(points=tuple(points))


def curve_csv(curve: LearningCurve) -> str:
    return "eval_step,value\n" + "".join(
        [f"{step},{fmt_shortest(float(value))}\n" for step, value in curve.points])


def band_csv(band: CurveBand) -> str:
    return "eval_step,mean,se,n\n" + "".join(
        [f"{step},{fmt_shortest(float(mean))},{fmt_shortest(float(se))},{n}\n"
         for step, mean, se, n in band.points])
