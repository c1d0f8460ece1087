"""Config parsing, canonical form and hashing."""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tables as ref
from rleval import config as C
from rleval._yamlio import dump_canonical
from rleval.errors import (
    ConfigSyntaxError,
    ConfigWarning,
    DuplicateKeyError,
    SchemaError,
)

MINIMAL = """\
schema_version: 1
name: minimal
algorithm: algos.example
environment: envs.example
logger: loggers.example
tuned_params:
  gamma: 0.99
fixed_params: {}
run_count: 1
"""


def _parse_quiet(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigWarning)
        return C.parse_config(text)


def _doc(algorithm, index):
    return dump_canonical(ref.make_config_mapping(algorithm, index))


class TestParse:
    def test_benchmark_row_values(self):
        config = _parse_quiet(_doc("trpo", 0))
        assert config.tuned_params["hidden_layers"] == 2
        assert config.tuned_params["hidden_size"] == 64
        assert config.tuned_params["batch_size"] == 4096
        assert config.tuned_params["step_size"] == 0.00472
        assert config.tuned_params["gamma"] == 0.96833
        assert config.tuned_params["lambda"] == 0.99874
        assert config.tuned_params["delta_kl"] == 0.02437
        assert config.run_count == 10

    def test_minimal(self):
        config = C.parse_config(MINIMAL)
        assert config.run_count == 1
        assert config.seeds == ()
        assert config.excluded_runs == ()

    def test_gamma_bound_violation_names_key(self):
        bad = MINIMAL.replace("gamma: 0.99", "gamma: 1.5")
        with pytest.raises(SchemaError) as err:
            C.parse_config(bad)
        assert "gamma" in str(err.value)

    def test_duplicate_key(self):
        bad = MINIMAL + "name: twice\n"
        with pytest.raises(DuplicateKeyError):
            C.parse_config(bad)

    def test_syntax_error_is_positioned(self):
        with pytest.raises(ConfigSyntaxError) as err:
            C.parse_config("name: [unclosed\n")
        assert err.value.line is not None

    def test_missing_required_key(self):
        bad = MINIMAL.replace("logger: loggers.example\n", "")
        with pytest.raises(SchemaError) as err:
            C.parse_config(bad)
        assert "logger" in str(err.value)

    def test_null_params_rejected(self):
        for key, text in (("tuned_params", "tuned_params:\n  gamma: 0.99\n"),
                          ("fixed_params", "fixed_params: {}\n")):
            with pytest.raises(SchemaError) as err:
                C.parse_config(MINIMAL.replace(text, f"{key}: null\n"))
            assert err.value.key == key and "must be a mapping" in str(err.value)

    def test_unknown_keys_preserved_and_warned(self):
        text = MINIMAL + "mystery_knob: 3\n"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config = C.parse_config(text)
        assert any("mystery_knob" in str(w.message) for w in caught)
        assert config.extras == {"mystery_knob": 3}
        assert "mystery_knob: 3" in C.canonicalize(config)

    def test_seed_length_mismatch(self):
        bad = MINIMAL + "seeds: [1, 2]\n"
        with pytest.raises(SchemaError) as err:
            C.parse_config(bad)
        assert "seeds" in str(err.value)

    def test_exclusion_requires_reason(self):
        bad = (
            MINIMAL.replace("run_count: 1", "run_count: 3")
            + 'excluded_runs:\n- index: 1\n  reason: "   "\n'
        )
        with pytest.raises(SchemaError) as err:
            C.parse_config(bad)
        assert "reason" in str(err.value)

    def test_exclusion_index_range(self):
        bad = (
            MINIMAL.replace("run_count: 1", "run_count: 3")
            + 'excluded_runs:\n- index: 3\n  reason: "broken"\n'
        )
        with pytest.raises(SchemaError):
            C.parse_config(bad)

    def test_wrong_schema_version(self):
        with pytest.raises(SchemaError):
            C.parse_config(MINIMAL.replace("schema_version: 1", "schema_version: 9"))


class TestCanonical:
    def test_roundtrip_identity(self):
        config = _parse_quiet(_doc("trpo", 0))
        again = _parse_quiet(C.canonicalize(config))
        assert again == config

    def test_step_size_survives_exactly(self):
        config = _parse_quiet(_doc("trpo", 0))
        assert _parse_quiet(C.canonicalize(config)).tuned_params["step_size"] == 0.00472

    def test_key_order_independence(self):
        mapping = ref.make_config_mapping("trpo", 1)
        reordered = dict(reversed(list(mapping.items())))
        reordered["tuned_params"] = dict(reversed(list(mapping["tuned_params"].items())))
        a = _parse_quiet(dump_canonical(mapping))
        b = _parse_quiet(dump_canonical(reordered))
        assert C.canonicalize(a) == C.canonicalize(b)
        assert C.config_hash(a) == C.config_hash(b)

    def test_hash_shape(self):
        import re

        digest = C.config_hash(_parse_quiet(_doc("ppo", 2)))
        assert re.fullmatch(r"[0-9a-f]{64}", digest)

    def test_one_decimal_changes_hash(self):
        a = _parse_quiet(_doc("trpo", 0))
        mapping = ref.make_config_mapping("trpo", 0)
        mapping["tuned_params"]["step_size"] = 0.00473
        b = _parse_quiet(dump_canonical(mapping))
        assert C.config_hash(a) != C.config_hash(b)


_param_values = st.one_of(
    st.integers(min_value=1, max_value=10**9),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False).filter(lambda v: v > 0),
)
_param_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12
).filter(lambda s: s not in C.TUNED_KEY_ORDER and s not in C.FIXED_KEY_ORDER)


@settings(max_examples=50, deadline=None)
@given(
    params=st.dictionaries(_param_names, _param_values, max_size=6),
    run_count=st.integers(min_value=1, max_value=20),
    notes=st.one_of(st.none(), st.text(max_size=40)),
)
def test_roundtrip_property(params, run_count, notes):
    config = C.ExperimentConfig(
        name="prop", algorithm="a.b", environment="e.f", logger="l.g",
        tuned_params=params, fixed_params={}, run_count=run_count,
        environment_notes=notes,
    ).validate()
    text = C.canonicalize(config)
    again = C.parse_config(text)
    assert again == config
    assert C.canonicalize(again) == text


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_hash_invariant_under_source_permutation(seed):
    import random

    mapping = ref.make_config_mapping("ppo", seed % 5)
    items = list(mapping.items())
    random.Random(seed).shuffle(items)
    shuffled = dict(items)
    a = _parse_quiet(dump_canonical(mapping))
    b = _parse_quiet(dump_canonical(shuffled))
    assert C.config_hash(a) == C.config_hash(b)

