"""Learning-curve metrics over per-episode run logs.

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
AVERAGE_RETURN_MODES = ("episodes", "curve_points")


@dataclass(frozen=True)
class LearningCurve:
    points: tuple  # ((eval_step, value), ...)
    window: int
    stride: int

    def __post_init__(self):
        if self.window <= 0 or self.stride <= 0:
            raise ValidationError("window and stride must be positive")
        for step, _ in self.points:
            if step % self.stride != 0:
                raise ValidationError(
                    f"eval step {step} is not a multiple of stride {self.stride}"
                )

    @property
    def eval_steps(self):
        return tuple(s for s, _ in self.points)

    @property
    def values(self):
        return tuple(v for _, v in self.points)


@dataclass(frozen=True)
class CurveBand:
    points: tuple  # ((eval_step, mean, se, n), ...)


def learning_curve(run, window: int = DEFAULT_WINDOW, stride: int = DEFAULT_STRIDE) -> LearningCurve:
    """Windowed mean returns on the stride grid (two-pointer evaluation)."""
    if window <= 0 or stride <= 0:
        raise ValidationError("window and stride must be positive")
    episodes = run.episodes
    if not episodes:
        raise ValidationError(f"{run.run_id}: cannot compute a curve for an empty run")
    last_step = episodes[-1][0]
    grid_end = ((last_step + stride - 1) // stride) * stride
    points = []
    lo = 0  # first episode with end_step > t - window
    hi = 0  # first episode with end_step > t
    previous = None
    for t in range(stride, grid_end + 1, stride):
        while hi < len(episodes) and episodes[hi][0] <= t:
            hi += 1
        while lo < len(episodes) and episodes[lo][0] <= t - window:
            lo += 1
        if hi > lo:
            total = 0.0
            for i in range(lo, hi):
                total += episodes[i][1]
            previous = total / (hi - lo)
        elif previous is None:
            continue  # before the first defined window
        points.append((t, previous))
    return LearningCurve(points=tuple(points), window=window, stride=stride)


def run_average_return(run, mode: str = "episodes", window: int = DEFAULT_WINDOW,
                       stride: int = DEFAULT_STRIDE) -> float:
    """Scalar summary of one run.

    `episodes` (default): mean over every episode return in the run.
    `curve_points`: mean over the smoothed curve values instead; reports
    record which mode produced the number.
    """
    if mode not in AVERAGE_RETURN_MODES:
        raise ValidationError(f"unknown average-return mode {mode!r}")
    if not run.episodes:
        raise ValidationError(f"{run.run_id}: empty run")
    if mode == "episodes":
        values = [r for _, r in run.episodes]
    else:
        values = list(learning_curve(run, window, stride).values)
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


def write_curve_csv(curve: LearningCurve, stream) -> None:
    stream.write("eval_step,value\n")
    for step, value in curve.points:
        stream.write(f"{step},{fmt_shortest(float(value))}\n")


def write_band_csv(band: CurveBand, stream) -> None:
    stream.write("eval_step,mean,se,n\n")
    for step, mean, se, n in band.points:
        stream.write(f"{step},{fmt_shortest(float(mean))},{fmt_shortest(float(se))},{n}\n")
