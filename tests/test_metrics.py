"""Learning-curve metrics against the brute-force rescan oracle."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rleval.errors import ValidationError
from rleval.ingest import RunLog
from rleval.metrics import (
    CurveBand,
    LearningCurve,
    curve_band,
    learning_curve,
    run_average_return,
    write_band_csv,
    write_curve_csv,
)


def _random_run(rng, run_id="r"):
    n = int(rng.integers(1, 120))
    steps = np.cumsum(rng.integers(1, 900, size=n))
    returns = rng.normal(50.0, 20.0, size=n)
    return RunLog(run_id, tuple((int(s), float(r)) for s, r in zip(steps, returns)))


class TestLearningCurve:
    def test_hand_example(self):
        run = RunLog("t", ((500, 10.0), (1500, 20.0)))
        curve = learning_curve(run, 5000, 1000)
        assert curve.points == ((1000, 10.0), (2000, 15.0))

    def test_constant_returns(self):
        run = RunLog("t", tuple((200 * i, 7.5) for i in range(1, 40)))
        curve = learning_curve(run)
        assert all(v == 7.5 for v in curve.values)

    def test_matches_bruteforce_oracle_bitwise(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            run = _random_run(rng)
            window = int(rng.integers(1, 6)) * 500
            stride = int(rng.integers(1, 5)) * 250
            mine = learning_curve(run, window, stride)
            assert mine.points == oracles.curve_oracle(run, window, stride)

    def test_leading_empty_windows_omitted(self):
        run = RunLog("t", ((7000, 3.0),))
        curve = learning_curve(run, 5000, 1000)
        assert curve.points[0][0] == 7000
        assert len(curve.points) == 1

    def test_carry_forward_fills_gaps(self):
        run = RunLog("t", ((500, 4.0), (9500, 8.0)))
        curve = learning_curve(run, 2000, 1000)
        values = dict(curve.points)
        assert values[1000] == 4.0
        assert values[5000] == 4.0  # carried across the gap
        assert values[10000] == 8.0

    def test_grid_extends_to_cover_last_episode(self):
        run = RunLog("t", ((1500, 2.0),))
        curve = learning_curve(run, 5000, 1000)
        assert curve.points[-1][0] == 2000

    def test_empty_run_rejected(self):
        with pytest.raises(ValidationError):
            learning_curve(RunLog("t", ()))


class TestAverageReturn:
    def test_simple_mean(self):
        run = RunLog("t", ((1, 1.0), (2, 2.0), (3, 3.0)))
        assert run_average_return(run) == 2.0

    def test_single_episode(self):
        assert run_average_return(RunLog("t", ((5, 9.25),))) == 9.25

    def test_matches_exact_rational_oracle(self):
        rng = np.random.default_rng(3)
        run = _random_run(rng)
        values = [r for _, r in run.episodes]
        assert run_average_return(run) == pytest.approx(
            oracles.mean_fraction_ref(values), abs=5e-16 * max(1.0, abs(values[0]))
        )

    def test_curve_points_mode_differs_and_is_named(self):
        run = RunLog("t", ((500, 0.0), (1500, 30.0)))
        episodes_mode = run_average_return(run, mode="episodes")
        curve_mode = run_average_return(run, mode="curve_points", window=5000, stride=1000)
        assert episodes_mode == 15.0
        assert curve_mode == pytest.approx((0.0 + 15.0) / 2)
        with pytest.raises(ValidationError):
            run_average_return(run, mode="bogus")


class TestBand:
    def test_identical_curves_zero_se(self):
        curve = LearningCurve(((1000, 5.0), (2000, 6.0)), 5000, 1000)
        band = curve_band([curve, curve, curve])
        assert all(se == 0.0 for _, _, se, _ in band.points)

    def test_two_point_hand_values(self):
        a = LearningCurve(((1000, 0.0),), 5000, 1000)
        b = LearningCurve(((1000, 2.0),), 5000, 1000)
        band = curve_band([a, b])
        assert band.points == ((1000, 1.0, 1.0, 2),)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(12)
        curves = [learning_curve(_random_run(rng, f"r{i}"), 2000, 500) for i in range(10)]
        band = curve_band(curves)
        ref = oracles.band_oracle(curves)
        assert len(band.points) == len(ref)
        for mine, theirs in zip(band.points, ref):
            assert mine[0] == theirs[0]
            assert mine[1] == pytest.approx(theirs[1], abs=1e-12)
            assert mine[2] == pytest.approx(theirs[2], abs=1e-12)

    def test_mismatched_window_rejected(self):
        a = LearningCurve(((1000, 0.0),), 5000, 1000)
        b = LearningCurve(((1000, 2.0),), 4000, 1000)
        with pytest.raises(ValidationError):
            curve_band([a, b])

    def test_needs_two_curves(self):
        with pytest.raises(ValidationError):
            curve_band([LearningCurve(((1000, 0.0),), 5000, 1000)])


class TestRepeatability:
    def test_same_seed_synthetic_runs_repeat_exactly(self):
        from rleval.ingest import SynthSpec, synthesize_runs

        spec = SynthSpec(run_count=1, total_steps=20000, episode_steps=100,
                         plateau_level=70.0, noise_scale=4.0)
        curves = [
            learning_curve(synthesize_runs(spec, seed=6)[0]) for _ in range(3)
        ]
        assert curves[0].points == curves[1].points == curves[2].points


class TestCsv:
    def test_curve_csv(self):
        curve = LearningCurve(((1000, 1.5), (2000, 2.5)), 5000, 1000)
        buf = io.StringIO()
        write_curve_csv(curve, buf)
        assert buf.getvalue() == "eval_step,value\n1000,1.5\n2000,2.5\n"

    def test_band_csv(self):
        band = CurveBand(((1000, 1.0, 0.5, 4),))
        buf = io.StringIO()
        write_band_csv(band, buf)
        assert buf.getvalue() == "eval_step,mean,se,n\n1000,1.0,0.5,4\n"


@settings(max_examples=40, deadline=None)
@given(
    shift=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_shift_invariance(shift, seed):
    rng = np.random.default_rng(seed)
    run = _random_run(rng)
    shifted = RunLog("s", tuple((s, r + shift) for s, r in run.episodes))
    base = learning_curve(run, 2000, 500)
    moved = learning_curve(shifted, 2000, 500)
    assert base.eval_steps == moved.eval_steps
    for (_, v0), (_, v1) in zip(base.points, moved.points):
        assert v1 == pytest.approx(v0 + shift, abs=1e-9)
    assert run_average_return(shifted) == pytest.approx(
        run_average_return(run) + shift, abs=1e-9
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_window_containment(seed):
    rng = np.random.default_rng(seed)
    run = _random_run(rng)
    window, stride = 2000, 500
    curve = learning_curve(run, window, stride)
    for t, value in curve.points:
        inside = [r for s, r in run.episodes if t - window < s <= t]
        if inside:
            assert min(inside) - 1e-12 <= value <= max(inside) + 1e-12
