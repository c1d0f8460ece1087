"""Run-log ingestion, exclusions, and the synthetic generator."""

import hashlib
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rleval.config import ExperimentConfig, Exclusion, config_hash
from rleval.errors import DataError, ValidationError
from rleval.ingest import (
    RunLog,
    SynthSpec,
    apply_exclusions,
    read_run_log,
    read_run_log_path,
    synthesize_runs,
    write_run_dir,
    write_run_log,
)


def _config(run_count, exclusions=(), seeds=()):
    return ExperimentConfig(
        name="t", algorithm="a", environment="e", logger="l",
        tuned_params={}, fixed_params={}, run_count=run_count, seeds=tuple(seeds),
        excluded_runs=tuple(Exclusion(i, r) for i, r in exclusions),
    ).validate()


class TestReadWrite:
    def test_two_rows(self):
        run = read_run_log("step,return\n4000,10.5\n8000,12.0\n", "r0")
        assert run.episodes == ((4000, 10.5), (8000, 12.0))

    def test_non_monotone_rejected(self):
        with pytest.raises(DataError):
            read_run_log("step,return\n8000,1.0\n4000,2.0\n", "r0")

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            read_run_log("", "r0")
        with pytest.raises(DataError):
            read_run_log("step,return\n", "r0")

    def test_malformed_row_names_line(self):
        with pytest.raises(DataError) as err:
            read_run_log("step,return\n100,1.0\nxyz,2.0\n", "r0")
        assert "line 3" in str(err.value)

    def test_bad_header(self):
        with pytest.raises(DataError):
            read_run_log("time,reward\n1,2\n", "r0")

    def test_lossless_roundtrip(self):
        run = RunLog("r", ((1, 0.1), (2, 1.0 / 3.0), (5, -7.25e-12)))
        buf = io.StringIO()
        write_run_log(run, buf)
        again = read_run_log(buf.getvalue(), "r")
        assert again.episodes == run.episodes

    def test_sidecar_metadata(self, tmp_path):
        run = RunLog("run_00", ((100, 1.0),), seed=7, config_hash="ab" * 32,
                     metadata={"note": "x"})
        write_run_dir([run], tmp_path)
        back = read_run_log_path(tmp_path / "run_00.csv")
        assert back.seed == 7
        assert back.config_hash == "ab" * 32
        assert back.metadata["note"] == "x"

    def test_path_read_hashes_the_parsed_bytes(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"step,return\r\n100,1.5\r\n200,2.5\r\n")
        run = read_run_log_path(path)
        assert run.episodes == ((100, 1.5), (200, 2.5))
        assert run.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


class TestExclusions:
    def test_published_exclusion_shape(self):
        # ten runs with the ninth excluded leaves nine for analysis
        runs = [RunLog(f"r{i}", ((10, float(i)),)) for i in range(10)]
        trial = apply_exclusions(runs, _config(10, [(8, "run failed; outlier")]))
        assert len(trial.runs) == 9
        assert all(run.run_id != "r8" for run in trial.runs)
        assert trial.exclusion_reasons == ((8, "run failed; outlier"),)

    def test_empty_exclusions_identity(self):
        runs = [RunLog(f"r{i}", ((10, 1.0),)) for i in range(3)]
        trial = apply_exclusions(runs, _config(3))
        assert trial.runs == tuple(runs)

    def test_sidecar_seed_must_match_config_seed(self):
        # run i is the config's run i; a run without a sidecar seed is not checked
        runs = [RunLog(f"r{i}", ((10, 1.0),), seed=seed) for i, seed in enumerate((3, 4, None))]
        assert apply_exclusions(runs, _config(3, seeds=(3, 4, 5))).runs == tuple(runs)
        assert apply_exclusions(runs, _config(3)).runs == tuple(runs)
        with pytest.raises(ValidationError) as err:
            apply_exclusions(runs, _config(3, seeds=(3, 7, 5)))
        assert "'r1'" in str(err.value) and "index 1" in str(err.value)
        assert "seed 4" in str(err.value) and "seeds[1] = 7" in str(err.value)
        # an excluded run is checked too: its log is still mislabelled
        with pytest.raises(ValidationError):
            apply_exclusions(runs, _config(3, [(1, "crashed")], seeds=(3, 7, 5)))

    def test_count_mismatch(self):
        runs = [RunLog("r0", ((10, 1.0),))]
        with pytest.raises(ValidationError):
            apply_exclusions(runs, _config(2))

    def test_repeated_run_id_rejected(self):
        runs = [RunLog(f"r{i}", ((10, float(i)),)) for i in (0, 1, 0)]
        with pytest.raises(ValidationError, match="'r0' is given more than once"):
            apply_exclusions(runs, _config(3))

    def test_identical_contents_rejected(self):
        # equal digests under different ids are one log given twice; runs
        # built in memory carry no digest and are not compared
        runs = [RunLog(f"r{i}", ((10, 1.0),), sha256=digest)
                for i, digest in enumerate(("ab" * 32, "cd" * 32, "ab" * 32))]
        with pytest.raises(ValidationError) as err:
            apply_exclusions(runs, _config(3))
        assert "'r0' and 'r2' have identical contents" in str(err.value)
        same = [RunLog(f"r{i}", ((10, 1.0),)) for i in range(3)]
        assert apply_exclusions(same, _config(3)).runs == tuple(same)

    def test_sidecar_config_hash_must_match(self):
        config = _config(2)
        runs = [RunLog("r0", ((10, 1.0),), config_hash=config_hash(config)),
                RunLog("r1", ((10, 2.0),))]
        assert apply_exclusions(runs, config).runs == tuple(runs)
        runs[1] = RunLog("r1", ((10, 2.0),), config_hash="ab" * 32)
        with pytest.raises(ValidationError) as err:
            apply_exclusions(runs, config)
        assert "'r1'" in str(err.value) and "does not match the config" in str(err.value)

    def test_run_checks_precede_count_check(self):
        runs = [RunLog("r0", ((10, 1.0),)), RunLog("r0", ((10, 2.0),))]
        with pytest.raises(ValidationError, match="given more than once"):
            apply_exclusions(runs, _config(5))

    def test_out_of_range_index_rejected_at_config_level(self):
        with pytest.raises(Exception):
            _config(10, [(10, "x")])


class TestSynth:
    def test_noiseless_plateau_exact(self):
        spec = SynthSpec(run_count=1, total_steps=60000, episode_steps=200,
                         start_level=0.0, plateau_level=100.0, ramp_steps=10000)
        run = synthesize_runs(spec, seed=1)[0]
        late = [r for step, r in run.episodes if step >= 10000]
        assert late and all(r == 100.0 for r in late)

    def test_determinism(self):
        spec = SynthSpec(run_count=4, total_steps=20000, episode_steps=100,
                         noise_scale=3.0)
        a = synthesize_runs(spec, seed=123)
        b = synthesize_runs(spec, seed=123)
        assert all(x.episodes == y.episodes for x, y in zip(a, b))
        c = synthesize_runs(spec, seed=124)
        assert any(x.episodes != y.episodes for x, y in zip(a, c))

    def test_pinned_output_bytes(self):
        # Run i draws stream i of the synth domain; these bytes are part of
        # the reproducibility contract, not only equal between two calls.
        spec = SynthSpec(run_count=3, total_steps=2000, episode_steps=100,
                         start_level=5.0, plateau_level=50.0, ramp_steps=1000,
                         noise_scale=4.0)
        digest = hashlib.sha256()
        for run in synthesize_runs(spec, seed=11):
            buf = io.StringIO()
            write_run_log(run, buf)
            digest.update(buf.getvalue().encode("utf-8"))
        assert digest.hexdigest() == (
            "58f1145c50f57bc9c0806c154b31908882d086c64a0f3ad67c504c512a27ccb4"
        )

    def test_step_rate_keys_are_rejected(self):
        # episode_steps is the only way to set the episode length
        with pytest.raises(ValidationError, match="unknown generator keys"):
            SynthSpec.from_mapping({
                "run_count": 1, "total_steps": 150000,
                "step_hz": 25, "episode_seconds": 4.0,
            })

    def test_law_of_large_numbers_bound(self):
        spec = SynthSpec(run_count=10, total_steps=100000, episode_steps=100,
                         start_level=40.0, plateau_level=100.0, ramp_steps=30000,
                         noise_scale=5.0)
        runs = synthesize_runs(spec, seed=77)
        ends = list(spec.episode_end_steps())
        analytic = sum(spec.expected_level(t) for t in ends) / len(ends)
        per_run = [sum(r for _, r in run.episodes) / len(run.episodes) for run in runs]
        observed = sum(per_run) / len(per_run)
        episodes_total = len(ends) * spec.run_count
        bound = 3.0 * spec.noise_scale / math.sqrt(episodes_total)
        assert abs(observed - analytic) <= bound

    def test_invalid_sizes(self):
        with pytest.raises(ValidationError):
            SynthSpec(run_count=0, total_steps=10, episode_steps=1).validate()
        with pytest.raises(ValidationError):
            SynthSpec(run_count=1, total_steps=10, episode_steps=0).validate()
        with pytest.raises(ValidationError):
            SynthSpec.from_mapping({"run_count": 1, "total_steps": 10})


def _increasing_steps(rows):
    """Episodes from (gap, return) rows: steps start at gap - 1 >= 0 and grow
    by each later gap >= 1."""
    steps = itertools.accumulate(gap for gap, _ in rows)
    return tuple((step - 1, ret) for step, (_, ret) in zip(steps, rows))


_episodes = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=10**12),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    min_size=1, max_size=40,
).map(_increasing_steps)

MALFORMED_ROWS = ("xyz,2.0", "5,abc", "5", "5,1.0,2.0", "5,nan", "5,-inf", "5.5,1.0")


class TestRunLogProperties:
    @settings(max_examples=60, deadline=None)
    @given(episodes=_episodes)
    def test_write_read_roundtrip_is_bitwise(self, episodes):
        buf = io.StringIO()
        write_run_log(RunLog("r", episodes), buf)
        back = read_run_log(buf.getvalue(), "r").episodes
        assert [step for step, _ in back] == [step for step, _ in episodes]
        assert [ret.hex() for _, ret in back] == [ret.hex() for _, ret in episodes]

    @settings(max_examples=60, deadline=None)
    @given(episodes=_episodes, data=st.data())
    def test_malformed_row_reports_its_line(self, episodes, data):
        buf = io.StringIO()
        write_run_log(RunLog("r", episodes), buf)
        lines = buf.getvalue().splitlines()
        at = data.draw(st.integers(min_value=1, max_value=len(lines)), label="line index")
        lines.insert(at, data.draw(st.sampled_from(MALFORMED_ROWS), label="row"))
        with pytest.raises(DataError) as err:
            read_run_log("\n".join(lines) + "\n", "r")
        assert f"r: line {at + 1}:" in str(err.value)


def test_runlog_rejects_nonmonotone_construction():
    with pytest.raises(DataError):
        RunLog("r", ((5, 1.0), (5, 2.0)))
