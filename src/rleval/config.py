"""Experiment configuration: parsing, validation, canonical form, hashing.

A config documents everything one experiment depends on: the algorithm,
environment and logger module paths, the tuned and fixed hyperparameters,
the planned seeds and run count, and any runs excluded from analysis (each
with a mandatory reason). The canonical serialization is deterministic, so
its SHA-256 digest identifies the experiment.
"""

import warnings
from dataclasses import dataclass, field

from ._digest import sha256_hex
from ._yamlio import dump_canonical, load_strict
from .errors import ConfigWarning, SchemaError

SCHEMA_VERSION = 1

# Canonical top-level key order for emission.
TOP_LEVEL_KEYS = (
    "schema_version",
    "name",
    "algorithm",
    "environment",
    "logger",
    "tuned_params",
    "fixed_params",
    "run_count",
    "seeds",
    "excluded_runs",
    "environment_notes",
)
REQUIRED_KEYS = TOP_LEVEL_KEYS[:8]

# Known parameter names come first in canonical order (matching the usual
# presentation of these hyperparameter tables); anything else follows
# alphabetically.
TUNED_KEY_ORDER = (
    "hidden_layers",
    "hidden_size",
    "batch_size",
    "step_size",
    "gamma",
    "lambda",
    "delta_kl",
    "optim_batch_size",
)
FIXED_KEY_ORDER = (
    "max_timesteps",
    "entropy_coef",
    "cg_iterations",
    "cg_damping",
    "vf_iterations",
    "clip_parameter",
    "optim_epochs",
    "adam_epsilon",
)

_UNIT_INTERVAL_PARAMS = ("gamma", "lambda")
_POSITIVE_INT_PARAMS = ("hidden_layers", "hidden_size", "batch_size", "optim_batch_size")
_POSITIVE_PARAMS = ("step_size", "delta_kl")


@dataclass(frozen=True)
class Exclusion:
    index: int
    reason: str


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    algorithm: str
    environment: str
    logger: str
    tuned_params: dict
    fixed_params: dict
    run_count: int
    seeds: tuple = ()
    excluded_runs: tuple = ()
    environment_notes: str = None
    extras: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def validate(self) -> "ExperimentConfig":
        for key in ("name", "algorithm", "environment", "logger"):
            value = getattr(self, key)
            if not isinstance(value, str) or not value:
                raise SchemaError(key, "must be a non-empty string")
        if not isinstance(self.run_count, int) or isinstance(self.run_count, bool):
            raise SchemaError("run_count", "must be an integer")
        if self.run_count < 1:
            raise SchemaError("run_count", f"must be >= 1, got {self.run_count}")
        if self.seeds:
            if len(self.seeds) != self.run_count:
                raise SchemaError(
                    "seeds",
                    f"length {len(self.seeds)} must equal run_count {self.run_count}",
                )
            for seed in self.seeds:
                if not isinstance(seed, int) or isinstance(seed, bool):
                    raise SchemaError("seeds", f"must be integers, got {seed!r}")
        for exclusion in self.excluded_runs:
            if not 0 <= exclusion.index < self.run_count:
                raise SchemaError(
                    "excluded_runs",
                    f"index {exclusion.index} outside [0, {self.run_count})",
                )
            if not exclusion.reason or not exclusion.reason.strip():
                raise SchemaError(
                    "excluded_runs", f"index {exclusion.index} is missing a reason"
                )
        indices = [e.index for e in self.excluded_runs]
        if len(indices) != len(set(indices)):
            raise SchemaError("excluded_runs", "duplicate run index")
        for map_name, params in (("tuned_params", self.tuned_params),
                                 ("fixed_params", self.fixed_params)):
            for key, value in params.items():
                _validate_param(map_name, key, value)
        return self


def _validate_param(map_name, key, value):
    label = f"{map_name}.{key}"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(label, f"must be an integer or decimal, got {value!r}")
    if isinstance(value, float) and not (value == value and abs(value) != float("inf")):
        raise SchemaError(label, "must be finite")
    if key in _UNIT_INTERVAL_PARAMS and not 0.0 <= value <= 1.0:
        raise SchemaError(label, f"must lie in [0, 1], got {value}")
    if key in _POSITIVE_INT_PARAMS:
        if not isinstance(value, int) or value < 1:
            raise SchemaError(label, f"must be a positive integer, got {value}")
    if key in _POSITIVE_PARAMS and not value > 0:
        raise SchemaError(label, f"must be > 0, got {value}")


def _ordered_params(params: dict, preferred) -> dict:
    known = [k for k in preferred if k in params]
    rest = sorted(k for k in params if k not in preferred)
    return {k: params[k] for k in [*known, *rest]}


def _require_mapping(doc, key):
    value = doc[key]
    if value is None:
        raise SchemaError(key, "must be a mapping")
    if not isinstance(value, dict):
        raise SchemaError(key, f"must be a mapping, got {type(value).__name__}")
    for sub in value:
        if not isinstance(sub, str):
            raise SchemaError(key, f"parameter names must be strings, got {sub!r}")
    return value


def _parse_exclusions(doc):
    raw = doc.get("excluded_runs") or []
    if not isinstance(raw, list):
        raise SchemaError("excluded_runs", "must be a list")
    out = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or set(item) != {"index", "reason"}:
            raise SchemaError(
                "excluded_runs",
                f"entry {i} must be a mapping with exactly 'index' and 'reason'",
            )
        index = item["index"]
        reason = item["reason"]
        if not isinstance(index, int) or isinstance(index, bool):
            raise SchemaError("excluded_runs", f"entry {i}: index must be an integer")
        if not isinstance(reason, str):
            raise SchemaError("excluded_runs", f"entry {i}: reason must be a string")
        out.append(Exclusion(index=index, reason=reason))
    return tuple(out)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate one YAML config document.

    Unknown top-level keys are preserved on the config and reported as a
    ConfigWarning, never dropped.
    """
    doc = load_strict(text)
    if not isinstance(doc, dict):
        raise SchemaError("document", "top level must be a mapping")
    for key in REQUIRED_KEYS:
        if key not in doc:
            raise SchemaError(key, "required key is missing")
    version = doc["schema_version"]
    if version != SCHEMA_VERSION:
        raise SchemaError(
            "schema_version", f"expected {SCHEMA_VERSION}, got {version!r}"
        )
    seeds = doc.get("seeds") or []
    if not isinstance(seeds, list):
        raise SchemaError("seeds", "must be a list of integers")
    notes = doc.get("environment_notes")
    if notes is not None and not isinstance(notes, str):
        raise SchemaError("environment_notes", "must be a string")
    extras = {k: doc[k] for k in doc if k not in TOP_LEVEL_KEYS}
    for key in sorted(extras):
        warnings.warn(
            f"unknown config key {key!r} preserved but not interpreted",
            ConfigWarning,
            stacklevel=2,
        )
    config = ExperimentConfig(
        name=doc["name"],
        algorithm=doc["algorithm"],
        environment=doc["environment"],
        logger=doc["logger"],
        tuned_params=_ordered_params(_require_mapping(doc, "tuned_params"), TUNED_KEY_ORDER),
        fixed_params=_ordered_params(_require_mapping(doc, "fixed_params"), FIXED_KEY_ORDER),
        run_count=doc["run_count"],
        seeds=tuple(seeds),
        excluded_runs=_parse_exclusions(doc),
        environment_notes=notes,
        extras={k: extras[k] for k in sorted(extras)},
    )
    return config.validate()


def canonicalize(config: ExperimentConfig) -> str:
    """Deterministic YAML emission: fixed key order, two-space indentation,
    shortest round-trip numbers; empty optional keys are omitted; unknown
    keys follow the schema keys in sorted order."""
    config.validate()
    doc = {
        "schema_version": config.schema_version,
        "name": config.name,
        "algorithm": config.algorithm,
        "environment": config.environment,
        "logger": config.logger,
        "tuned_params": _ordered_params(config.tuned_params, TUNED_KEY_ORDER),
        "fixed_params": _ordered_params(config.fixed_params, FIXED_KEY_ORDER),
        "run_count": config.run_count,
    }
    if config.seeds:
        doc["seeds"] = list(config.seeds)
    if config.excluded_runs:
        doc["excluded_runs"] = [
            {"index": e.index, "reason": e.reason} for e in config.excluded_runs
        ]
    if config.environment_notes is not None:
        doc["environment_notes"] = config.environment_notes
    for key in sorted(config.extras):
        doc[key] = config.extras[key]
    return dump_canonical(doc)


def config_hash(config: ExperimentConfig) -> str:
    """SHA-256 of the canonical serialization, lowercase hex."""
    return sha256_hex(canonicalize(config).encode("utf-8"))

