"""Run-log ingestion, exclusions, and the synthetic generator."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from rleval import ingest
from rleval.config import ExperimentConfig, Exclusion, config_hash
from rleval.errors import DataError, ValidationError
from rleval.ingest import (
    RunLog,
    SynthSpec,
    apply_exclusions,
    read_run_log,
    read_run_log_path,
    refuse_stale_files,
    run_log_csv,
    synthesize_runs,
    write_run_dir,
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
        assert (run.steps.tolist(), run.returns.tolist()) == ([4000, 8000], [10.5, 12.0])

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
        run = RunLog("r", (1, 2, 5), (0.1, 1.0 / 3.0, -7.25e-12))
        again = read_run_log(run_log_csv(run), "r")
        assert np.array_equal(again.steps, run.steps)
        assert np.array_equal(again.returns, run.returns)

    def test_one_write_equals_the_row_at_a_time_text(self):
        # Each of the first five takes fmt_shortest's exponent branch.
        returns = (1e-05, 1e+16, -0.0, 5e-324, 1.7976931348623157e+308, 0.1, -7.25e-12, 3.0)
        run = RunLog("r", tuple(range(10, 10 * len(returns) + 1, 10)), returns)
        text = run_log_csv(run)
        assert text == oracles.run_log_text_ref(run.steps.tolist(), run.returns.tolist())
        assert "10,1.0e-05\n20,1.0e+16\n30,-0.0\n40,5.0e-324\n" in text

    def test_sidecar_metadata(self, tmp_path):
        run = RunLog("run_00", (100,), (1.0,), seed=7, config_hash="ab" * 32,
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
        assert (run.steps.tolist(), run.returns.tolist()) == ([100, 200], [1.5, 2.5])
        assert run.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


class TestExclusions:
    def test_published_exclusion_shape(self):
        # ten runs with the ninth excluded leaves nine for analysis
        runs = [RunLog(f"r{i}", (10,), (float(i),)) for i in range(10)]
        trial = apply_exclusions(runs, _config(10, [(8, "run failed; outlier")]))
        assert len(trial.runs) == 9
        assert all(run.run_id != "r8" for run in trial.runs)
        assert trial.exclusion_reasons == ((8, "run failed; outlier"),)

    def test_empty_exclusions_identity(self):
        runs = [RunLog(f"r{i}", (10,), (1.0,)) for i in range(3)]
        trial = apply_exclusions(runs, _config(3))
        assert trial.runs == tuple(runs)

    def test_sidecar_seed_must_match_config_seed(self):
        # run i is the config's run i; a run without a sidecar seed is not checked
        runs = [RunLog(f"r{i}", (10,), (1.0,), seed=seed) for i, seed in enumerate((3, 4, None))]
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
        runs = [RunLog("r0", (10,), (1.0,))]
        with pytest.raises(ValidationError):
            apply_exclusions(runs, _config(2))

    def test_repeated_run_id_rejected(self):
        runs = [RunLog(f"r{i}", (10,), (float(i),)) for i in (0, 1, 0)]
        with pytest.raises(ValidationError, match="'r0' is given more than once"):
            apply_exclusions(runs, _config(3))

    def test_identical_contents_rejected(self):
        # equal digests under different ids are one log given twice; runs
        # built in memory carry no digest and are not compared
        runs = [RunLog(f"r{i}", (10,), (1.0,), sha256=digest)
                for i, digest in enumerate(("ab" * 32, "cd" * 32, "ab" * 32))]
        with pytest.raises(ValidationError) as err:
            apply_exclusions(runs, _config(3))
        assert "'r0' and 'r2' have identical contents" in str(err.value)
        same = [RunLog(f"r{i}", (10,), (1.0,)) for i in range(3)]
        assert apply_exclusions(same, _config(3)).runs == tuple(same)

    def test_sidecar_config_hash_must_match(self):
        config = _config(2)
        runs = [RunLog("r0", (10,), (1.0,), config_hash=config_hash(config)),
                RunLog("r1", (10,), (2.0,))]
        assert apply_exclusions(runs, config).runs == tuple(runs)
        runs[1] = RunLog("r1", (10,), (2.0,), config_hash="ab" * 32)
        with pytest.raises(ValidationError) as err:
            apply_exclusions(runs, config)
        assert "'r1'" in str(err.value) and "does not match the config" in str(err.value)

    def test_run_checks_precede_count_check(self):
        runs = [RunLog("r0", (10,), (1.0,)), RunLog("r0", (10,), (2.0,))]
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
        late = run.returns[run.steps >= 10000].tolist()
        assert late and all(r == 100.0 for r in late)

    def test_determinism(self):
        spec = SynthSpec(run_count=4, total_steps=20000, episode_steps=100,
                         noise_scale=3.0)
        a = synthesize_runs(spec, seed=123)
        b = synthesize_runs(spec, seed=123)
        assert all(np.array_equal(x.returns, y.returns) for x, y in zip(a, b))
        c = synthesize_runs(spec, seed=124)
        assert any(not np.array_equal(x.returns, y.returns) for x, y in zip(a, c))

    def test_pinned_output_bytes(self):
        # Run i draws stream i of the synth domain; these bytes are part of
        # the reproducibility contract, not only equal between two calls.
        spec = SynthSpec(run_count=3, total_steps=2000, episode_steps=100,
                         start_level=5.0, plateau_level=50.0, ramp_steps=1000,
                         noise_scale=4.0)
        digest = hashlib.sha256()
        for run in synthesize_runs(spec, seed=11):
            digest.update(run_log_csv(run).encode("utf-8"))
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
        per_run = [sum(run.returns.tolist()) / len(run.returns) for run in runs]
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
        run = read_run_log(run_log_csv(RunLog("r", *zip(*episodes))), "r")
        back = list(zip(run.steps.tolist(), run.returns.tolist()))
        assert [step for step, _ in back] == [step for step, _ in episodes]
        assert [ret.hex() for _, ret in back] == [ret.hex() for _, ret in episodes]

    @settings(max_examples=60, deadline=None)
    @given(episodes=_episodes, data=st.data())
    def test_malformed_row_reports_its_line(self, episodes, data):
        lines = run_log_csv(RunLog("r", *zip(*episodes))).splitlines()
        at = data.draw(st.integers(min_value=1, max_value=len(lines)), label="line index")
        lines.insert(at, data.draw(st.sampled_from(MALFORMED_ROWS), label="row"))
        with pytest.raises(DataError) as err:
            read_run_log("\n".join(lines) + "\n", "r")
        assert f"r: line {at + 1}:" in str(err.value)


# How a row's fields may be spelled: the digits of three scripts, which
# int() and float() read alike, and tokens of every kind either may refuse.
# A text keeps to one of three character sets: "plain", ASCII digits,
# spaces and tabs with '\n' or '\r\n' line breaks; "ascii", also the other
# ASCII whitespace and line breaks and underscores; or "any".
_SCRIPTS = ("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
            "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")
# whitespace to str.strip(); "\x0b" to "\x1e", "\x85" and "\u2028" are
# line breaks to str.splitlines, and int() and float() strip no "\x1c" to
# "\x1f"
_SPACES = {"plain": ("", "", "", " ", "\t", "  ")}
_SPACES["ascii"] = _SPACES["plain"] + ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")
_SPACES["any"] = _SPACES["ascii"] + ("\xa0", "\u3000", "\x85", "\u2028")
_LINE_BREAKS = {"plain": ("\n",) * 6 + ("\r\n",)}
_LINE_BREAKS["ascii"] = _LINE_BREAKS["plain"] + ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")
_LINE_BREAKS["any"] = _LINE_BREAKS["ascii"] + ("\u2028", "\x85")
_ODD_STEPS = ("5.0", "1e3", "-3", "", "x", "1__0", "_1", "1_", "+-2", "0x10", str(2**63),
              str(2**64 + 5), str(10**30), str(-2**63 - 1), "\u0663")
_ODD_RETURNS = ("inf", "-inf", "+Infinity", "nan", "NaN", "-nan", "1e999", "-1e400", ".5", "5.",
                "-.5e-3", "0005.25", "1_000.5", "1_0e1_0", "1__0", "e5", "1e", ".", "", "abc",
                "1.2.3", "+-1", "0x1p3", "2.5E+03", "1E5", "4.9e-324", "2e-400")


def _padded(draw, text, chars):
    space = st.sampled_from(_SPACES[chars])
    return draw(space) + text + draw(space)


def _digits(draw, text, chars):
    if chars == "any":
        script = draw(st.sampled_from(_SCRIPTS[:1] + _SCRIPTS))
        text = text.translate(str.maketrans("0123456789", script))
    if chars != "plain" and len(text) > 1 and draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(1, len(text) - 1))
        text = text[:at] + "_" + text[at:]
    return text


@st.composite
def _step_field(draw, value, chars):
    if draw(st.integers(0, 40 if chars == "plain" else 10)) == 0:
        return draw(st.sampled_from(_ODD_STEPS))
    text = "0" * draw(st.sampled_from([0, 0, 0, 1, 3])) + str(abs(value))
    sign = "-" if value < 0 else draw(st.sampled_from(["", "", "", "+"]))
    return _padded(draw, sign + _digits(draw, text, chars), chars)


@st.composite
def _return_field(draw, chars):
    if draw(st.integers(0, 20 if chars == "plain" else 6)) == 0:
        return _padded(draw, draw(st.sampled_from(_ODD_RETURNS)), chars)
    x = draw(st.floats(allow_nan=False, allow_infinity=False))
    text = draw(st.sampled_from([repr(x), f"{x:e}", f"{x:E}", f"{x:.3f}", f"{x:+.17g}"]))
    sign, body = (text[0], text[1:]) if text[0] in "+-" else ("", text)
    mantissa, e, exponent = body.lower().partition("e")
    exponent = draw(st.sampled_from(["e", "E"])) + exponent if e else ""
    return _padded(draw, sign + _digits(draw, mantissa, chars) + exponent, chars)


@st.composite
def _run_log_texts(draw):
    """A run log's text: a header, then rows whose steps mostly rise, any
    of whose fields may be spelled in any way above, with blank lines and
    stray columns, in one character set."""
    chars = draw(st.sampled_from(["plain", "plain", "ascii", "any"]))
    breaks = st.sampled_from(_LINE_BREAKS[chars])
    step = draw(st.sampled_from([0, 0, 0, 7, 2**62, 2**63 - 40, -3]))
    lines = [draw(st.sampled_from(["step,return"] * 6 + [" step,return\t", "step;return"]))]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 29))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        step += draw(st.integers(-2 if kind == 1 else 1, 10**draw(st.integers(0, 12))))
        fields = [draw(_step_field(step, chars)), draw(_return_field(chars))]
        if kind == 2:
            fields = fields[:draw(st.integers(0, 1))] + ["1.0"] * draw(st.integers(0, 2))
        lines.append(",".join(fields))
    return "".join(line + draw(breaks) for line in lines)


def _outcome(read, text):
    """(steps, return bits) of the RunLog `read` builds, or the DataError."""
    try:
        run = read(text)
    except DataError as exc:
        return str(exc)
    return run.steps.tolist(), [ret.hex() for ret in run.returns.tolist()]


class TestFastParser:
    @settings(max_examples=300, deadline=None)
    @given(text=_run_log_texts())
    @example(text="step,return\n5,\u20281.0\n")  # whitespace to numpy, a line break here
    @example(text="step,return\n5,\x0b1.0\n")
    @example(text="step,return\n5,\x1f1.0\n")  # whitespace to numpy, not to float()
    @example(text="step,return\n5,1.0\n6,1e999\n")  # read as inf by both
    @example(text="step,return\n5,+nan\n")
    def test_numpy_parse_agrees_with_the_line_by_line_parse(self, text):
        expected = _outcome(lambda t: RunLog("r", *ingest._parse_rows(t, "r")), text)
        assert _outcome(lambda t: read_run_log(t, "r"), text) == expected

    @settings(max_examples=60, deadline=None)
    @given(episodes=_episodes)
    def test_written_logs_take_the_numpy_parse(self, episodes):
        assert ingest._parse_columns(run_log_csv(RunLog("r", *zip(*episodes)))) is not None

    def test_steps_beyond_int64_are_refused(self):
        for text in (f"step,return\n5,1.0\n{2**63},2.0\n", f"step,return\n{-2**63 - 1},1.0\n"):
            with pytest.raises(DataError, match="does not fit in int64"):
                read_run_log(text, "r")
        run = read_run_log(f"step,return\n{2**63 - 1},1.5\n", "r")
        assert run.steps.tolist() == [2**63 - 1]

    def test_columns_are_read_only_arrays(self):
        run = read_run_log("step,return\n4000,10.5\n8000,12.0\n", "r0")
        assert run.steps.dtype == np.int64 and run.returns.dtype == np.float64
        for column in (run.steps, run.returns):
            with pytest.raises(ValueError):
                column[0] = 0
        assert len(run.episodes) == 2


def _long_log(count):
    """A run log of `count` episodes, about 18 bytes a row."""
    return "step,return\n" + "".join(f"{50 * (i + 1)},{i * 0.37 - 1.5e3!r}\n"
                                       for i in range(count))


def test_read_holds_at_most_24_bytes_per_episode():
    """A 60 000-episode log holds two 8-byte columns once read, not a
    Python tuple of an int and a float per episode (about 112 bytes)."""
    count = 60_000
    text = _long_log(count)
    read_run_log(text, "r")
    tracemalloc.start()
    try:
        run = read_run_log(text, "r")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(run.steps) == count
    assert held <= 24 * count


def test_read_peaks_below_half_a_stringio_parse():
    """Reading a 60 000-episode log (1.1 MB) peaks at 36 bytes of traced
    memory an episode: the ASCII bytes, the rows and the columns. Handing
    numpy's reader a StringIO of the body, which holds four bytes a
    character, peaked at 110; the bound is half that."""
    count = 60_000
    text = _long_log(count)
    read_run_log(text, "r")
    tracemalloc.start()
    try:
        read_run_log(text, "r")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 55 * count


def test_runlog_rejects_nonmonotone_construction():
    with pytest.raises(DataError):
        RunLog("r", (5, 5), (1.0, 2.0))


@pytest.mark.parametrize("steps, message", [
    ((5, -1), "r: negative end step -1"),
    ((-2, 5), "r: negative end step -2"),
    ((5, 3, -1), r"r: end steps must be strictly increasing \(5 then 3\)"),
    ((0, 9, 9), r"r: end steps must be strictly increasing \(9 then 9\)"),
])
def test_runlog_names_the_first_fault_in_episode_order(steps, message):
    with pytest.raises(DataError, match=message):
        RunLog("r", steps, [1.0] * len(steps))


def test_runlog_columns_must_have_one_length():
    with pytest.raises(DataError, match="of one length"):
        RunLog("r", (1, 2), (1.0,))


def test_stale_file_check_ends_on_a_link_cycle(tmp_path):
    """A link back to the directory is walked once: the check ends, and it
    names each stale file once."""
    (tmp_path / "a.csv").write_text("")
    (tmp_path / "loop").symlink_to(".", target_is_directory=True)
    refuse_stale_files(tmp_path, ["a.csv"])
    (tmp_path / "old.csv").write_text("")
    with pytest.raises(ValidationError, match=r"would not write: old\.csv; "):
        refuse_stale_files(tmp_path, ["a.csv"])
