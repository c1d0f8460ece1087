"""Run-log ingestion and synthetic run generation.

A run log is a two-column CSV (`step,return`), one row per completed
episode, end steps strictly increasing. An optional sidecar with the same
basename and a `.meta.yaml` suffix carries the seed and config digest.
Before any analysis, `check_runs` rejects run logs that would count one
run twice or that name another config; `apply_exclusions` also requires a
sidecar seed to match the config's seed for the run's position.
Non-monotone logs are rejected outright; they indicate upstream corruption
that silent sorting would hide.
"""

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._fmt import fmt_shortest
from ._yamlio import dump_canonical, load_strict
from .config import config_hash as config_digest
from .errors import DataError, ValidationError
from .rng import DOMAIN_SYNTH, SeededRng

RUN_LOG_HEADER = "step,return"
META_SUFFIX = ".meta.yaml"


@dataclass(frozen=True)
class RunLog:
    run_id: str
    episodes: tuple  # ((end_step, episode_return), ...)
    seed: int = None
    config_hash: str = None
    metadata: dict = field(default_factory=dict)
    sha256: str = None  # hex digest of the file's bytes, when read from one

    def __post_init__(self):
        last = -1
        for step, _ in self.episodes:
            if step < 0:
                raise DataError(f"{self.run_id}: negative end step {step}")
            if step <= last:
                raise DataError(
                    f"{self.run_id}: end steps must be strictly increasing "
                    f"({last} then {step})"
                )
            last = step


@dataclass(frozen=True)
class TrialSet:
    config: object
    runs: tuple
    exclusion_reasons: tuple = ()

    def __post_init__(self):
        expected = self.config.run_count - len(self.config.excluded_runs)
        if len(self.runs) != expected:
            raise ValidationError(
                f"trial set holds {len(self.runs)} runs, expected {expected} "
                "after exclusions"
            )


def read_run_log(text: str, run_id: str, **fields) -> RunLog:
    """Parse one run log's text; malformed rows are reported by line number.
    `fields` are the RunLog's other fields (seed, config_hash, ...)."""
    lines = text.splitlines()
    if not lines:
        raise DataError(f"{run_id}: empty run log")
    if lines[0].strip() != RUN_LOG_HEADER:
        raise DataError(
            f"{run_id}: line 1: header must be '{RUN_LOG_HEADER}', got {lines[0]!r}"
        )
    episodes = []
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
        try:
            ret = float(parts[1])
        except ValueError:
            raise DataError(f"{run_id}: line {lineno}: bad return {parts[1]!r}") from None
        if not math.isfinite(ret):
            raise DataError(f"{run_id}: line {lineno}: non-finite return")
        episodes.append((step, ret))
    if not episodes:
        raise DataError(f"{run_id}: run log has a header but no episodes")
    return RunLog(run_id=run_id, episodes=tuple(episodes), **fields)


def read_run_log_path(path) -> RunLog:
    """Read a run log file plus its optional .meta.yaml sidecar. The file is
    read once: the bytes that are parsed are the bytes hashed."""
    path = Path(path)
    data = path.read_bytes()
    fields = {"sha256": hashlib.sha256(data).hexdigest()}
    meta_path = path.with_name(path.stem + META_SUFFIX)
    if meta_path.exists():
        meta = load_strict(meta_path.read_text(encoding="utf-8"))
        if not isinstance(meta, dict):
            raise DataError(f"{meta_path}: sidecar must be a mapping")
        fields.update(
            seed=meta.get("seed"),
            config_hash=meta.get("config_hash"),
            metadata={k: v for k, v in meta.items() if k not in ("seed", "config_hash")},
        )
    return read_run_log(data.decode("utf-8"), path.stem, **fields)


def write_run_log(run: RunLog, stream) -> None:
    """Emit the CSV form; numbers round-trip exactly."""
    stream.write(RUN_LOG_HEADER + "\n")
    for step, ret in run.episodes:
        stream.write(f"{step},{fmt_shortest(float(ret))}\n")


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
    ends = list(spec.episode_end_steps())
    if not ends:
        raise ValidationError("total_steps shorter than one episode")
    runs = []
    n = len(ends)
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
        episodes = tuple(zip(ends, returns.tolist()))
        meta = {
            "generator": "linear-ramp",
            "stream": i,
            "episode_steps": spec.episode_steps,
        }
        runs.append(
            RunLog(run_id=run_id, episodes=episodes, seed=seed, metadata=meta)
        )
    return runs


def write_run_dir(runs, directory) -> list:
    """Write run CSVs plus sidecars; returns the relative file names."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for run in runs:
        csv_path = directory / f"{run.run_id}.csv"
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            write_run_log(run, fh)
        written.append(csv_path.name)
        meta = dict(run.metadata)
        if run.seed is not None:
            meta = {"seed": run.seed, **meta}
        if run.config_hash is not None:
            meta["config_hash"] = run.config_hash
        if meta:
            meta_path = directory / f"{run.run_id}{META_SUFFIX}"
            meta_path.write_text(dump_canonical(meta), encoding="utf-8")
            written.append(meta_path.name)
    return written
