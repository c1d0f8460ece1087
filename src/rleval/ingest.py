"""Run-log ingestion and synthetic run generation.

A run log is a two-column CSV (`step,return`), one row per completed
episode, end steps strictly increasing. An optional sidecar with the same
basename and a `.meta.yaml` suffix carries the seed and config digest.
Before any analysis, `check_runs` rejects run logs that would count one
run twice or that name another config; `apply_exclusions` also requires a
sidecar seed to match the config's seed for the run's position.
Non-monotone logs are rejected outright; they indicate upstream corruption
that silent sorting would hide. Every file a command writes goes through
`write_files` and `write_file`, once `refuse_stale_files` passes: no other
file may be in the directory, and none of the files may be an input.
"""

import io
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._digest import sha256_hex
from ._fmt import fmt_shortest
from ._yamlio import dump_canonical, load_strict, read_text
from .config import config_hash as config_digest
from .errors import DataError, ValidationError
from .rng import DOMAIN_SYNTH, SeededRng

RUN_LOG_HEADER = "step,return"
META_SUFFIX = ".meta.yaml"


@dataclass(frozen=True, eq=False)
class RunLog:
    """One run's episodes as two read-only columns, int64 end `steps` and
    float64 `returns`, copied from the arrays or sequences given. The steps
    must be integers, non-negative and strictly increasing; the first fault
    in episode order is reported."""

    run_id: str
    steps: np.ndarray
    returns: np.ndarray
    seed: int = None
    config_hash: str = None
    metadata: dict = field(default_factory=dict)
    sha256: str = None  # hex digest of the file's bytes, when read from one

    def __post_init__(self):
        steps = _column(self.steps, np.int64)
        returns = _column(self.returns, np.float64)
        if steps.ndim != 1 or steps.shape != returns.shape:
            raise DataError(
                f"{self.run_id}: steps and returns must be 1-d and of one length, "
                f"got shapes {steps.shape} and {returns.shape}"
            )
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "returns", returns)
        # The first negative step and the first step not above its
        # predecessor; a negative step at the same place is named first.
        negative = np.flatnonzero(steps < 0)[:1]
        repeated = np.flatnonzero(steps[1:] <= steps[:-1])[:1] + 1
        if negative.size and (not repeated.size or negative[0] <= repeated[0]):
            raise DataError(f"{self.run_id}: negative end step {steps[negative[0]]}")
        if repeated.size:
            i = repeated[0]
            raise DataError(
                f"{self.run_id}: end steps must be strictly increasing "
                f"({steps[i - 1]} then {steps[i]})"
            )

    @property
    def episodes(self):
        """The (step, return) records, copied into one array on each access.
        `len(run.episodes)` is the episode count, as the benchmark's traced
        run reads it."""
        return np.rec.fromarrays((self.steps, self.returns), names="step,return")


def _column(values, dtype):
    """A read-only copy of `values` as a 1-d array of `dtype`, cast safely
    (an empty sequence takes the dtype as it is)."""
    arr = np.asarray(values)
    arr = arr.astype(dtype, casting="safe" if arr.size else "unsafe")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TrialSet:
    config: object
    runs: tuple
    exclusion_reasons: tuple = ()


MAX_STEP = 2**63 - 1  # the largest end step an int64 column holds

# ASCII whitespace to numpy's text reader that is something else to the
# line-by-line parse: line breaks to str.splitlines, and "\x1f", which
# int() and float() do not strip. A text holding one is parsed line by line.
_NOT_NUMPY_SPACE = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f")
_ROW_DTYPE = np.dtype([("step", np.int64), ("return", np.float64)])
_NON_SPACE = re.compile(r"\S")


def read_run_log(text: str, run_id: str, **fields) -> RunLog:
    """Parse one run log's text; malformed rows are reported by line number.
    `fields` are the RunLog's other fields (seed, config_hash, ...).

    numpy's text reader parses the text in one call where it can; any text
    it does not accept as it stands is parsed line by line, which is the
    rule for what a run log may hold and names the line at fault."""
    columns = _parse_columns(text)
    if columns is None:
        columns = _parse_rows(text, run_id)
    return RunLog(run_id, *columns, **fields)


def _parse_columns(text: str):
    """(steps, returns) arrays, or None where `_parse_rows` must decide.

    Accepted here: an ASCII text whose first line is the header and whose
    rows numpy reads as an int64 and a finite float64 field. In ASCII text
    without the characters in _NOT_NUMPY_SPACE, numpy and int()/float()
    read such a field alike: both strip the same whitespace and parse
    floats with PyOS_string_to_double. numpy refuses what it does not read
    alike, such as `1_000` or a float in the step column."""
    if not text.isascii() or any(char in text for char in _NOT_NUMPY_SPACE):
        return None
    newline = text.find("\n")
    if (newline < 0 or text[:newline].strip() != RUN_LOG_HEADER
            or not _NON_SPACE.search(text, newline + 1)):
        return None
    # loadtxt reads a stream line by line. A BytesIO shares the bytes it is
    # given, where a StringIO of the body would hold four bytes a character.
    body = io.BytesIO(text.encode("ascii"))
    body.seek(newline + 1)
    try:
        rows = np.loadtxt(body, dtype=_ROW_DTYPE, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    if not np.isfinite(rows["return"]).all():
        return None
    return rows["step"], rows["return"]


def _parse_rows(text: str, run_id: str):
    """(steps, returns) lists, read one line at a time."""
    lines = text.splitlines()
    if not lines:
        raise DataError(f"{run_id}: empty run log")
    if lines[0].strip() != RUN_LOG_HEADER:
        raise DataError(
            f"{run_id}: line 1: header must be '{RUN_LOG_HEADER}', got {lines[0]!r}"
        )
    steps, returns = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.split(",")
        if len(parts) != 2:
            raise DataError(f"{run_id}: line {lineno}: expected 2 columns, got {len(parts)}")
        try:
            step = int(parts[0])
        except ValueError:
            raise DataError(f"{run_id}: line {lineno}: bad step {parts[0]!r}") from None
        if not -MAX_STEP - 1 <= step <= MAX_STEP:
            raise DataError(
                f"{run_id}: line {lineno}: step {step} does not fit in int64 "
                f"(end steps run from 0 to 2^63 - 1)"
            )
        try:
            ret = float(parts[1])
        except ValueError:
            raise DataError(f"{run_id}: line {lineno}: bad return {parts[1]!r}") from None
        if not math.isfinite(ret):
            raise DataError(f"{run_id}: line {lineno}: non-finite return")
        steps.append(step)
        returns.append(ret)
    if not steps:
        raise DataError(f"{run_id}: run log has a header but no episodes")
    return steps, returns


def read_run_log_path(path) -> RunLog:
    """Read a run log file plus its optional .meta.yaml sidecar. The file is
    read once: the bytes that are parsed are the bytes hashed."""
    path = Path(path)
    data = path.read_bytes()
    fields = {"sha256": sha256_hex(data)}
    meta_path = path.with_name(path.stem + META_SUFFIX)
    if meta_path.exists():
        meta = load_strict(read_text(meta_path))
        if not isinstance(meta, dict):
            raise DataError(f"{meta_path}: sidecar must be a mapping")
        fields.update(
            seed=meta.get("seed"),
            config_hash=meta.get("config_hash"),
            metadata={k: v for k, v in meta.items() if k not in ("seed", "config_hash")},
        )
    return read_run_log(read_text(path, data), path.stem, **fields)


def run_log_csv(run: RunLog) -> str:
    """The run log's CSV text; numbers round-trip exactly."""
    rows = zip(run.steps.tolist(), run.returns.tolist())
    body = "".join([f"{step},{fmt_shortest(ret)}\n" for step, ret in rows])
    return f"{RUN_LOG_HEADER}\n{body}"


def check_runs(runs, config) -> None:
    """Reject runs that would count one run twice: a run id given more than
    once, or two logs with the same bytes (compared where both were read from
    a file). A sidecar `config_hash`, where present, must be the config's."""
    expected = config_digest(config)
    ids, owners = set(), {}
    for run in runs:
        if run.run_id in ids:
            raise ValidationError(f"run {run.run_id!r} is given more than once")
        if run.sha256 in owners:
            raise ValidationError(
                f"runs {owners[run.sha256]!r} and {run.run_id!r} have identical contents"
            )
        if run.config_hash is not None and run.config_hash != expected:
            raise ValidationError(
                f"run {run.run_id!r}: sidecar config_hash {run.config_hash} "
                f"does not match the config's {expected}"
            )
        ids.add(run.run_id)
        if run.sha256 is not None:
            owners[run.sha256] = run.run_id


def apply_exclusions(runs, config) -> TrialSet:
    """Check the runs (`check_runs`), then drop the config's excluded run
    indices, keeping the reasons. Run i is the config's run i: where both
    name its seed, they must agree."""
    runs = list(runs)
    check_runs(runs, config)
    if len(runs) != config.run_count:
        raise ValidationError(
            f"got {len(runs)} runs but config.run_count is {config.run_count}"
        )
    for index, (run, seed) in enumerate(zip(runs, config.seeds)):
        if run.seed is not None and run.seed != seed:
            raise ValidationError(
                f"run {run.run_id!r} (index {index}): sidecar seed {run.seed!r} does not "
                f"match the config's seeds[{index}] = {seed!r}"
            )
    excluded = {e.index: e.reason for e in config.excluded_runs}
    for index in excluded:
        if not 0 <= index < len(runs):
            raise ValidationError(f"excluded index {index} out of range")
    kept = tuple(run for i, run in enumerate(runs) if i not in excluded)
    reasons = tuple(
        (index, excluded[index]) for index in sorted(excluded)
    )
    return TrialSet(config=config, runs=kept, exclusion_reasons=reasons)


@dataclass(frozen=True)
class SynthSpec:
    """Parametric per-run return trajectory for pipeline tests.

    The expected return ramps linearly from start_level to plateau_level
    over ramp_steps, then stays flat; per-episode noise is gaussian.
    """

    run_count: int
    total_steps: int
    episode_steps: int
    start_level: float = 0.0
    plateau_level: float = 100.0
    ramp_steps: int = 0
    noise_scale: float = 0.0

    def validate(self) -> "SynthSpec":
        for name in ("run_count", "total_steps", "episode_steps", "ramp_steps"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        for name in ("start_level", "plateau_level", "noise_scale"):
            value = getattr(self, name)
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or not math.isfinite(value)):
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
        if self.run_count < 1:
            raise ValidationError(f"run_count must be >= 1, got {self.run_count}")
        if self.total_steps < 1:
            raise ValidationError(f"total_steps must be >= 1, got {self.total_steps}")
        if self.episode_steps < 1:
            raise ValidationError(f"episode_steps must be >= 1, got {self.episode_steps}")
        if self.ramp_steps < 0:
            raise ValidationError(f"ramp_steps must be >= 0, got {self.ramp_steps}")
        if self.noise_scale < 0:
            raise ValidationError(f"noise_scale must be >= 0, got {self.noise_scale}")
        return self

    @classmethod
    def from_mapping(cls, doc: dict) -> "SynthSpec":
        if not isinstance(doc, dict):
            raise ValidationError("generator settings must be a mapping")
        known = {
            "run_count", "total_steps", "episode_steps", "start_level",
            "plateau_level", "ramp_steps", "noise_scale",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValidationError(f"unknown generator keys: {sorted(unknown)}")
        missing = {"run_count", "total_steps", "episode_steps"} - set(doc)
        if missing:
            raise ValidationError(f"missing generator keys: {sorted(missing)}")
        return cls(**doc).validate()

    def expected_level(self, step: int) -> float:
        if self.ramp_steps <= 0 or step >= self.ramp_steps:
            return self.plateau_level
        frac = step / self.ramp_steps
        return self.start_level + (self.plateau_level - self.start_level) * frac

    def episode_end_steps(self):
        return range(self.episode_steps, self.total_steps + 1, self.episode_steps)


def synthesize_runs(spec: SynthSpec, seed: int):
    """Deterministic synthetic run logs; run i draws from Philox stream i."""
    spec.validate()
    rng = SeededRng(seed, DOMAIN_SYNTH)
    ends = spec.episode_end_steps()
    if not ends:
        raise ValidationError("total_steps shorter than one episode")
    runs = []
    n = len(ends)
    steps = np.arange(ends.start, ends.stop, ends.step, dtype=np.int64)
    levels = np.array([spec.expected_level(step) for step in ends])
    for i in range(spec.run_count):
        run_id = f"synth-{i:02d}"
        # Finite but huge levels or noise_scale overflow here; the check
        # below rejects the spec before anything is written.
        with np.errstate(over="ignore", invalid="ignore"):
            if spec.noise_scale > 0.0:
                noise = spec.noise_scale * rng.standard_normal(n)
            else:
                noise = np.zeros(n)
            returns = levels + noise
        if not np.isfinite(returns).all():
            raise ValidationError(
                f"{run_id}: the spec's levels and noise_scale give non-finite returns"
            )
        meta = {
            "generator": "linear-ramp",
            "stream": i,
            "episode_steps": spec.episode_steps,
        }
        runs.append(
            RunLog(run_id=run_id, steps=steps, returns=returns, seed=seed, metadata=meta)
        )
    return runs


def refuse_stale_files(directory, names, what="bundle", inputs=()) -> None:
    """Raise ValidationError if `directory` holds a file whose relative path
    is not in `names`, naming up to three of them, or holds one of `inputs`
    under a name of `names` (`refuse_inputs`); a missing directory passes."""
    directory = Path(directory)
    stale = sorted(set(_files_under(directory)) - set(names))
    if stale:
        more = f" and {len(stale) - 3} more" if len(stale) > 3 else ""
        raise ValidationError(f"{directory} holds files this {what} would not write: "
                              f"{', '.join(stale[:3])}{more}; use a new or empty directory")
    refuse_inputs([directory / name for name in names], inputs, what)


def _files_under(directory):
    """The relative paths of the files under `directory` as a writer reaches
    them: through links to directories too, each directory once."""
    seen = set()
    for root, dirs, files in os.walk(directory, followlinks=True):
        info = os.stat(root)
        if (info.st_dev, info.st_ino) in seen:  # a link back to a directory walked
            dirs.clear()
            continue
        seen.add((info.st_dev, info.st_ino))
        for name in files:
            path = Path(root, name)
            if path.is_file():
                yield path.relative_to(directory).as_posix()


def refuse_inputs(targets, inputs, what) -> None:
    """Raise ValidationError if a path of `targets` is the same file as one of `inputs`."""
    for target in map(Path, targets):
        if target.exists() and any(target.samefile(path) for path in inputs):
            raise ValidationError(f"this {what} would write over its input {target}; "
                                  "use another output path")


def write_files(directory, names, texts, what="bundle", inputs=()) -> None:
    """Write each of `texts`, a generator too, to its path of `names` under
    `directory`, making directories as needed, once `refuse_stale_files` passes."""
    refuse_stale_files(directory, names, what, inputs)
    for name, text in zip(names, texts, strict=True):
        path = Path(directory, name)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_file(path, text)


def write_file(path, text) -> None:
    """Write `text` to `path` as UTF-8 with "\\n" line ends, naming it in an OSError."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def write_run_dir(runs, directory, inputs=()) -> list:
    """Write run CSVs plus sidecars (`write_files`), none of them one of
    `inputs`, one log's text at a time; returns the relative file names."""
    files = {}  # name -> the run of a log, or a sidecar's text
    for run in runs:
        files[f"{run.run_id}.csv"] = run
        meta = dict(run.metadata)
        if run.seed is not None:
            meta = {"seed": run.seed, **meta}
        if run.config_hash is not None:
            meta["config_hash"] = run.config_hash
        if meta:
            files[f"{run.run_id}{META_SUFFIX}"] = dump_canonical(meta)
    texts = (run_log_csv(content) if isinstance(content, RunLog) else content
             for content in files.values())
    write_files(directory, files, texts, "synth call", inputs)
    return list(files)
