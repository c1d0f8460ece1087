"""Command-line behavior: happy paths, exit codes, determinism, seed policy."""

import shutil
from pathlib import Path

import pytest

from rleval._yamlio import dump_canonical, load_strict
from rleval.cli import main

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
        means = workspace / "degenerate.csv"
        means.write_text("mean\n" + "5.0\n" * 30)
        code = main(["fit", str(means), "--family", "beta", "--seed", "1"])
        assert code == 2
        assert "error: numeric:" in capsys.readouterr().err

    def test_verify_bad_record_exit_1(self, workspace):
        bad = workspace / "bad_fit.yaml"
        bad.write_text(dump_canonical({"family": "beta"}))
        assert main(["verify", str(bad), "--reported", "1.0"]) == 1


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


def test_inputs_never_mutated(workspace):
    before = {p: p.read_bytes() for p in (workspace / "runs").glob("*")}
    main([
        "analyze", str(workspace / "config.yaml"), *_run_paths(workspace),
        "--seed", "7", "--resamples", "500", "--families", "normal",
        "--out", str(workspace / "mut"),
    ])
    after = {p: p.read_bytes() for p in (workspace / "runs").glob("*")}
    assert before == after
