"""Command-line behavior: happy paths, exit codes, determinism, seed policy."""

import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rleval
from rleval._yamlio import dump_canonical, load_strict
from rleval.cli import main
from rleval.distributions import fit_from_record, fit_record

CONFIG_TEXT = """\
schema_version: 1
name: cli-demo
algorithm: algos.demo
environment: envs.demo
logger: logs.demo
tuned_params:
  gamma: 0.97
fixed_params:
  max_timesteps: 30000
run_count: 5
excluded_runs:
- index: 4
  reason: "hardware fault mid-run"
"""

SPEC_TEXT = """\
run_count: 5
total_steps: 30000
episode_steps: 150
start_level: 5.0
plateau_level: 90.0
ramp_steps: 9000
noise_scale: 6.0
"""

VALID_RECORD = """\
family: normal
parameters: [100.0, 5.0]
log_likelihood: -30.5
converged: true
ks_statistic: 0.1
ks_pvalue: 0.5
post_fit_ks: true
"""


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "config.yaml").write_text(CONFIG_TEXT)
    (tmp_path / "spec.yaml").write_text(SPEC_TEXT)
    code = main(["synth", str(tmp_path / "spec.yaml"), "--seed", "5", "--out",
                 str(tmp_path / "runs")])
    assert code == 0
    return tmp_path


def _run_paths(workspace):
    return sorted(str(p) for p in (workspace / "runs").glob("synth-*.csv"))


class TestValidate:
    def test_ok_prints_digest(self, workspace, capsys):
        assert main(["validate", str(workspace / "config.yaml")]) == 0
        out = capsys.readouterr().out
        digest = out.split()[0]
        assert len(digest) == 64

    def test_bad_config_exit_1(self, workspace, capsys):
        bad = workspace / "bad.yaml"
        bad.write_text(CONFIG_TEXT.replace("gamma: 0.97", "gamma: 2.0"))
        assert main(["validate", str(bad)]) == 1
        assert "gamma" in capsys.readouterr().err

    def test_missing_file_exit_3(self, workspace):
        assert main(["validate", str(workspace / "absent.yaml")]) == 3


class TestCurves:
    def test_writes_curves_and_band(self, workspace):
        out = workspace / "curves"
        code = main(["curves", str(workspace / "config.yaml"), *_run_paths(workspace),
                     "--out", str(out)])
        assert code == 0
        assert len(list(out.glob("synth-*.csv"))) == 5
        assert (out / "band.csv").exists()
        header = (out / "synth-00.csv").read_text().splitlines()[0]
        assert header == "eval_step,value"


class TestAnalyze:
    def test_full_pipeline_and_exclusion_note(self, workspace, capsys):
        code = main([
            "analyze", str(workspace / "config.yaml"), *_run_paths(workspace),
            "--seed", "7", "--resamples", "1000", "--reported", "95.0",
            "--families", "normal,skewnorm", "--out", str(workspace / "bundle"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 of 5 runs analyzed" in out
        prov = load_strict((workspace / "bundle" / "provenance.yaml").read_text())
        assert prov["runs_excluded"] == [
            {"index": 4, "reason": "hardware fault mid-run"}
        ]

    def test_seed_required(self, workspace, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "analyze", str(workspace / "config.yaml"), *_run_paths(workspace),
                "--out", str(workspace / "nope"),
            ])
        assert exit_info.value.code == 1
        assert "--seed" in capsys.readouterr().err

    def test_byte_identical_bundles_across_repeats(self, workspace):
        args = [
            "analyze", str(workspace / "config.yaml"), *_run_paths(workspace),
            "--seed", "7", "--resamples", "1000", "--reported", "95.0",
            "--families", "normal,loggamma",
        ]
        assert main([*args, "--out", str(workspace / "b1")]) == 0
        assert main([*args, "--out", str(workspace / "b2")]) == 0
        assert main([*args, "--out", str(workspace / "b3")]) == 0
        files = sorted(
            str(p.relative_to(workspace / "b1"))
            for p in (workspace / "b1").rglob("*") if p.is_file()
        )
        for rel in files:
            a = (workspace / "b1" / rel).read_bytes()
            assert a == (workspace / "b2" / rel).read_bytes(), rel
            assert a == (workspace / "b3" / rel).read_bytes(), rel

    def test_no_family_exit_1(self, workspace, capsys):
        bundle = workspace / "no_family"
        code = main([
            "analyze", str(workspace / "config.yaml"), *_run_paths(workspace),
            "--seed", "7", "--resamples", "500", "--reported", "95.0",
            "--families", " , ", "--out", str(bundle),
        ])
        assert code == 1
        assert "no family requested" in capsys.readouterr().err
        assert not bundle.exists()

    @pytest.mark.parametrize("setting, value", [
        ("--alpha", "2"), ("--reported", "nan"), ("--resamples", "19"),
    ])
    def test_bad_setting_exit_1_before_any_stage(self, workspace, capsys, setting, value):
        bundle = workspace / "bad_setting"
        code = main([
            "analyze", str(workspace / "config.yaml"), *_run_paths(workspace),
            "--seed", "7", "--resamples", "500", setting, value, "--out", str(bundle),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation:") and setting[2:] in err
        assert not bundle.exists()

    def test_warns_for_each_unconverged_fit(self, workspace, capsys):
        """One stderr warning per fit whose `converged` is false, naming the
        family and its score norm; loggamma's simplex stops short here."""
        bundle = workspace / "warn"
        assert main([
            "analyze", str(workspace / "config.yaml"), *_run_paths(workspace),
            "--seed", "7", "--resamples", "1000", "--families", "normal,loggamma",
            "--out", str(bundle),
        ]) == 0
        fits = load_strict((bundle / "fits.yaml").read_text())["fits"]
        unconverged = [fit for fit in fits if not fit["converged"]]
        assert [fit["family"] for fit in unconverged] == ["loggamma"]
        assert capsys.readouterr().err.splitlines() == [
            f"warning: loggamma fit not converged: score norm {unconverged[0]['score_norm']:.3g}"
        ]

    def test_duplicate_run_exit_1(self, workspace, capsys):
        paths = _run_paths(workspace)
        bundle = workspace / "dup"
        code = main([
            "analyze", str(workspace / "config.yaml"), paths[0], *paths[:-1],
            "--seed", "7", "--resamples", "500", "--families", "normal",
            "--out", str(bundle),
        ])
        assert code == 1
        assert "'synth-00'" in capsys.readouterr().err
        assert not bundle.exists()
        code = main(["curves", str(workspace / "config.yaml"), paths[0], *paths[:-1],
                     "--out", str(workspace / "dup_curves")])
        assert code == 1
        assert not (workspace / "dup_curves").exists()

    def test_duplicate_content_exit_1(self, workspace, capsys):
        paths = _run_paths(workspace)
        twin = workspace / "elsewhere" / "twin-00.csv"
        twin.parent.mkdir()
        shutil.copyfile(paths[0], twin)
        runs = [*paths[:-1], str(twin)]
        bundle = workspace / "dup"
        code = main(["analyze", str(workspace / "config.yaml"), *runs, "--seed", "7",
                     "--resamples", "500", "--families", "normal", "--out", str(bundle)])
        assert code == 1
        err = capsys.readouterr().err
        assert "'synth-00'" in err and "'twin-00'" in err
        assert not bundle.exists()
        code = main(["curves", str(workspace / "config.yaml"), *runs,
                     "--out", str(workspace / "dup_curves")])
        assert code == 1
        assert "'twin-00'" in capsys.readouterr().err
        assert not (workspace / "dup_curves").exists()

    def test_sidecar_config_hash_mismatch_exit_1(self, workspace, capsys):
        paths = _run_paths(workspace)
        sidecar = Path(paths[0]).with_name("synth-00.meta.yaml")
        meta = load_strict(sidecar.read_text())
        config = str(workspace / "config.yaml")
        assert main(["validate", config]) == 0
        digest = capsys.readouterr().out.split()[0]
        sidecar.write_text(dump_canonical({**meta, "config_hash": digest}))
        assert main(["curves", config, *paths, "--out", str(workspace / "ok")]) == 0
        sidecar.write_text(dump_canonical({**meta, "config_hash": "ab" * 32}))
        bundle = workspace / "mismatch"
        code = main(["analyze", config, *paths[:-1], "--seed", "7", "--resamples", "500",
                     "--families", "normal", "--out", str(bundle)])
        assert code == 1
        err = capsys.readouterr().err
        assert "'synth-00'" in err and "ab" * 32 in err and digest in err
        assert not bundle.exists()
        code = main(["curves", config, *paths, "--out", str(workspace / "mismatch_curves")])
        assert code == 1
        assert not (workspace / "mismatch_curves").exists()

    def test_sidecar_seed_mismatch_exit_1(self, workspace, capsys):
        # every synth sidecar names seed 5; the config's seeds[2] says 9
        paths = _run_paths(workspace)
        config = workspace / "seeded.yaml"
        args = ["analyze", str(config), *paths, "--seed", "7", "--resamples", "500",
                "--families", "normal", "--out"]
        config.write_text(CONFIG_TEXT + "seeds: [5, 5, 5, 5, 5]\n")
        assert main([*args, str(workspace / "ok")]) == 0
        config.write_text(CONFIG_TEXT + "seeds: [5, 5, 9, 5, 5]\n")
        capsys.readouterr()
        bundle = workspace / "mismatch"
        assert main([*args, str(bundle)]) == 1
        err = capsys.readouterr().err
        assert "'synth-02'" in err and "index 2" in err
        assert "seed 5" in err and "seeds[2] = 9" in err
        assert not bundle.exists()
        # curves applies no exclusions and does not compare seeds
        assert main(["curves", str(config), *paths, "--out", str(workspace / "curves")]) == 0

    @pytest.mark.parametrize("command, flag, value", [
        ("analyze", "--ks-mode", "exact"),
        ("analyze", "--average-return-mode", "episodes"),
        ("fit", "--ks-mode", "exact"),
    ])
    def test_removed_mode_flags_exit_1(self, workspace, command, flag, value):
        out = workspace / "removed"
        if command == "analyze":
            args = ["analyze", str(workspace / "config.yaml"), *_run_paths(workspace),
                    "--seed", "7", "--resamples", "500", "--families", "normal"]
        else:
            means = workspace / "means.csv"
            means.write_text("mean\n" + "".join(f"{100 + i % 7}.5\n" for i in range(50)))
            args = ["fit", str(means), "--family", "normal", "--seed", "7"]
        with pytest.raises(SystemExit) as exit_info:
            main([*args, flag, value, "--out", str(out)])
        assert exit_info.value.code == 1
        assert not out.exists()

    def test_run_count_mismatch_exit_1(self, workspace):
        code = main([
            "analyze", str(workspace / "config.yaml"), _run_paths(workspace)[0],
            "--seed", "7", "--out", str(workspace / "x"),
        ])
        assert code == 1


class TestFitVerify:
    def test_fit_then_verify(self, workspace, capsys):
        bundle = workspace / "fbundle"
        assert main([
            "analyze", str(workspace / "config.yaml"), *_run_paths(workspace),
            "--seed", "9", "--resamples", "1000", "--families", "normal",
            "--out", str(bundle),
        ]) == 0
        capsys.readouterr()
        means = bundle / "bootstrap_means" / "means.csv"
        record = workspace / "fit.yaml"
        assert main(["fit", str(means), "--family", "normal", "--seed", "3",
                     "--out", str(record)]) == 0
        out = capsys.readouterr().out
        assert "family: normal" in out
        assert "ks_pvalue" in out
        assert main(["verify", str(record), "--reported", "95.0"]) == 0
        out = capsys.readouterr().out
        assert "decision:" in out
        assert "combined:" in out

    def test_fit_seed_required(self, workspace):
        with pytest.raises(SystemExit) as exit_info:
            main(["fit", "whatever.csv", "--family", "normal"])
        assert exit_info.value.code == 1

    def test_numeric_failure_exit_2(self, workspace, capsys):
        """Zero-variance means are a numeric failure for normal too: no
        point-mass fit is made up, and nothing is printed."""
        means = workspace / "degenerate.csv"
        means.write_text("mean\n" + "5.0\n" * 30)
        for family in ("beta", "normal"):
            code = main(["fit", str(means), "--family", family, "--seed", "1"])
            assert code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: numeric:")

    @pytest.mark.parametrize("family", ["normal", "loggamma"])
    def test_fit_prints_the_record_it_writes(self, family, tmp_path, capsys):
        """stdout starts with the --out file's bytes, which read back to the
        same record."""
        rng = random.Random(3)
        means = tmp_path / "means.csv"
        means.write_text("mean\n" + "".join(f"{rng.gauss(100.0, 5.0)!r}\n" for _ in range(200)))
        path = tmp_path / "fit.yaml"
        assert main(["fit", str(means), "--family", family, "--seed", "7",
                     "--out", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        assert capsys.readouterr().out == text + f"fit record written to {path}\n"
        record = load_strict(text)
        assert fit_record(fit_from_record(record)) == record

    def test_verify_bad_record_exit_1(self, workspace):
        bad = workspace / "bad_fit.yaml"
        bad.write_text(dump_canonical({"family": "beta"}))
        assert main(["verify", str(bad), "--reported", "1.0"]) == 1

    @pytest.mark.parametrize("line", [
        "parameters: [abc, 1.0]",
        'ks_pvalue: "0.5"',
        "log_likelihood: x",
        "ks_pvalue: true",
        "parameters: [0.0, .inf]",
        "parameters: [.nan, 1.0]",
    ], ids=["string-parameter", "string-pvalue", "string-loglik", "bool-pvalue", "inf-scale",
            "nan-loc"])
    def test_verify_rejects_a_field_that_is_not_a_finite_number(self, line, tmp_path, capsys):
        """A string, a bool or a non-finite value where the record holds a
        number is a validation error, reported before any verdict line."""
        path = tmp_path / "fit.yaml"
        path.write_text(VALID_RECORD)
        assert main(["verify", str(path), "--reported", "100.0"]) == 0
        capsys.readouterr()
        key = line.split(":")[0]
        path.write_text("".join(line + "\n" if row.startswith(key + ":") else row
                                for row in VALID_RECORD.splitlines(keepends=True)))
        assert main(["verify", str(path), "--reported", "100.0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: validation:")

    @pytest.mark.parametrize("line", [
        'converged: "no"',
        'post_fit_ks: "false"',
        "iterations: many",
        "iterations: -1",
        "iterations: 1.5",
        "seed: 7",
        "degenerate: true",
    ], ids=["string-converged", "string-post-fit-ks", "string-iterations",
            "negative-iterations", "float-iterations", "unknown-key", "degenerate"])
    def test_verify_rejects_a_record_fit_does_not_write(self, line, tmp_path, capsys):
        """A flag that is not a YAML bool, iterations that are not a count,
        or a key `fit_record` does not write, the retired `degenerate`
        included, is a validation error naming the key, reported before
        any verdict line."""
        key = line.split(":")[0]
        path = tmp_path / "fit.yaml"
        path.write_text("".join(row for row in VALID_RECORD.splitlines(keepends=True)
                                if not row.startswith(key + ":")) + line + "\n")
        assert main(["verify", str(path), "--reported", "100.0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: validation:") and key in err


class TestSynth:
    def test_deterministic_outputs(self, workspace, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["synth", str(workspace / "spec.yaml"), "--seed", "5",
                         "--out", str(out)]) == 0
        for path in sorted(out_a.glob("*")):
            assert path.read_bytes() == (out_b / path.name).read_bytes()

    def test_seed_required(self, workspace):
        with pytest.raises(SystemExit) as exit_info:
            main(["synth", str(workspace / "spec.yaml"), "--out", "x"])
        assert exit_info.value.code == 1

    def test_bad_spec_exit_1(self, workspace, tmp_path):
        bad = tmp_path / "bad_spec.yaml"
        bad.write_text("run_count: 0\ntotal_steps: 10\nepisode_steps: 1\n")
        assert main(["synth", str(bad), "--seed", "1", "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("key, text", [
        ("total_steps", '"abc"'),
        ("run_count", "2.5"),
        ("noise_scale", ".nan"),
        ("plateau_level", ".inf"),
    ])
    def test_mistyped_or_non_finite_spec_exit_1(self, tmp_path, capsys, key, text):
        lines = [
            f"{key}: {text}" if line.startswith(f"{key}:") else line
            for line in SPEC_TEXT.splitlines()
        ]
        bad = tmp_path / "bad_spec.yaml"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["synth", str(bad), "--seed", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation:") and key in err
        assert not out.exists()

    def test_overflowing_returns_exit_1_before_writing(self, tmp_path, capsys):
        bad = tmp_path / "bad_spec.yaml"
        bad.write_text(SPEC_TEXT.replace("noise_scale: 6.0", "noise_scale: 1.0e+308"))
        out = tmp_path / "o"
        out.mkdir()
        assert main(["synth", str(bad), "--seed", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation: synth-00:") and "non-finite" in err
        assert list(out.iterdir()) == []


def test_inputs_never_mutated(workspace):
    before = {p: p.read_bytes() for p in (workspace / "runs").glob("*")}
    main([
        "analyze", str(workspace / "config.yaml"), *_run_paths(workspace),
        "--seed", "7", "--resamples", "500", "--families", "normal",
        "--out", str(workspace / "mut"),
    ])
    after = {p: p.read_bytes() for p in (workspace / "runs").glob("*")}
    assert before == after


def test_runtime_imports_need_neither_scipy_nor_mpmath():
    """Runtime dependencies stay numpy + PyYAML: scipy and mpmath are test
    oracles only."""
    code = (
        "import sys, rleval.cli, rleval.pipeline; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath'}))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(rleval.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
