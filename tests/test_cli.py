"""Command-line behavior: happy paths, exit codes, determinism, seed policy."""

import dataclasses
import os
import pkgutil
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rleval
from conftest import QUICKSTART_SPEC, WORKLOAD_CONFIG
from rleval import pipeline, special
from rleval._yamlio import dump_canonical, load_strict
from rleval.cli import build_parser, main
from rleval.distributions import fit_from_record, fit_record
from rleval.inference import DEFAULT_ALPHA
from rleval.resample import DEFAULT_RESAMPLES

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

    def test_reused_out_with_stale_files_exit_1(self, tmp_path, capsys):
        """Three of the ten quick-start runs into the directory of all ten
        would leave seven curves of runs not read: exit 1, no byte written.
        The first call reruns into its own directory."""
        (tmp_path / "spec.yaml").write_text(dump_canonical(QUICKSTART_SPEC))
        assert main(["synth", str(tmp_path / "spec.yaml"), "--seed", "7",
                     "--out", str(tmp_path / "runs")]) == 0
        paths = sorted(str(p) for p in (tmp_path / "runs").glob("synth-*.csv"))
        ten, three = tmp_path / "ten.yaml", tmp_path / "three.yaml"
        ten.write_text(WORKLOAD_CONFIG.format(name="quickstart"))
        three.write_text(ten.read_text().replace("run_count: 10", "run_count: 3"))
        out = tmp_path / "curves"
        first = ["curves", str(ten), *paths, "--out", str(out)]
        assert main(first) == 0
        before = {p: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["curves", str(three), *paths[:3], "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: validation: {out} holds files this curves call would not write: "
            "synth-03.csv, synth-04.csv, synth-05.csv and 4 more; "
            "use a new or empty directory\n"
        )
        assert {p: p.read_bytes() for p in out.iterdir()} == before
        assert main(first) == 0
        assert {p: p.read_bytes() for p in out.iterdir()} == before

    def test_run_named_band_exit_1_before_writing(self, workspace, capsys):
        """With two runs or more the band goes to band.csv, where a run
        named `band` would have its curve written first: exit 1, nothing
        written."""
        logs = workspace / "logs"
        logs.mkdir()
        paths = _run_paths(workspace)
        shutil.copy(paths[0], logs / "band.csv")
        shutil.copy(paths[1], logs / "synth-01.csv")
        out = workspace / "curves"
        assert main(["curves", str(workspace / "config.yaml"), str(logs / "band.csv"),
                     str(logs / "synth-01.csv"), "--out", str(out)]) == 1
        assert "'band'" in capsys.readouterr().err
        assert not out.exists()
        assert main(["curves", str(workspace / "config.yaml"), str(logs / "band.csv"),
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["band.csv"]

    def test_out_holding_its_inputs_exit_1(self, workspace, capsys):
        """Logs without sidecars, curved into their own directory, would
        each be replaced by its curve: exit 1, no byte written."""
        logs = workspace / "logs"
        logs.mkdir()
        for path in _run_paths(workspace):
            shutil.copy(path, logs)
        before = {p: p.read_bytes() for p in logs.iterdir()}
        paths = sorted(str(p) for p in logs.iterdir())
        assert main(["curves", str(workspace / "config.yaml"), *paths,
                     "--out", str(logs)]) == 1
        assert capsys.readouterr().err == (
            f"error: validation: this curves call would write over its input "
            f"{logs / 'synth-00.csv'}; use another output path\n"
        )
        assert {p: p.read_bytes() for p in logs.iterdir()} == before

    def test_bad_window_creates_no_out(self, workspace):
        out = workspace / "new"
        assert main(["curves", str(workspace / "config.yaml"), *_run_paths(workspace),
                     "--window", "0", "--out", str(out)]) == 1
        assert not out.exists()


    def test_runs_ending_at_step_zero_give_header_only_files(self, tmp_path, capsys):
        """Two logs whose last episode ends at step 0, the first valid end
        step: `curves` and `analyze` exit 0 and write each curve and the
        band as a header with no point."""
        config = tmp_path / "config.yaml"
        config.write_text(CONFIG_TEXT.replace("run_count: 5", "run_count: 2")
                          .split("excluded_runs:")[0])
        logs = []
        for name, value in (("a", "1.5"), ("b", "2.5")):
            logs.append(str(tmp_path / f"{name}.csv"))
            Path(logs[-1]).write_text(f"step,return\n0,{value}\n")
        assert main(["curves", str(config), *logs, "--out", str(tmp_path / "curves")]) == 0
        assert main(["analyze", str(config), *logs, "--seed", "7", "--resamples", "200",
                     "--families", "normal", "--out", str(tmp_path / "bundle")]) == 0
        for written in ("curves/a.csv", "curves/b.csv", "bundle/curves/a.csv",
                        "bundle/curves/b.csv"):
            assert (tmp_path / written).read_text() == "eval_step,value\n"
        for written in ("curves/band.csv", "bundle/bands/band.csv"):
            assert (tmp_path / written).read_text() == "eval_step,mean,se,n\n"


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

    def test_reused_out_with_stale_files_exit_1(self, workspace, capsys):
        """A second analysis into the first one's directory would leave the
        first one's probabilities.csv beside it: exit 1 with no byte written.
        The first analysis reruns into its own bundle."""
        bundle = workspace / "bundle"
        args = ["analyze", str(workspace / "config.yaml"), *_run_paths(workspace),
                "--seed", "7", "--resamples", "500", "--out", str(bundle)]
        first = [*args, "--reported", "158.56", "--families", "normal,skewnorm"]
        assert main(first) == 0
        before = {p: p.read_bytes() for p in bundle.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main([*args, "--families", "normal"]) == 1
        assert "probabilities.csv" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in bundle.rglob("*") if p.is_file()} == before
        assert main(first) == 0
        assert (bundle / "manifest.txt").read_bytes() == before[bundle / "manifest.txt"]

    def test_stale_out_refused_before_any_stage(self, workspace, capsys, monkeypatch):
        """Run 4 is excluded, so its curve is not the bundle's: refused
        before run_analysis is called."""
        calls = []
        monkeypatch.setattr(pipeline, "run_analysis", lambda *a, **k: calls.append(a))
        bundle = workspace / "bundle"
        (bundle / "curves").mkdir(parents=True)
        (bundle / "curves" / "synth-04.csv").write_text("eval_step,value\n")
        code = main(["analyze", str(workspace / "config.yaml"), *_run_paths(workspace),
                     "--seed", "7", "--resamples", "500", "--out", str(bundle)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: validation: {bundle} holds files this bundle would not write: "
            "curves/synth-04.csv; use a new or empty directory\n"
        )
        assert calls == []

    def test_stale_file_behind_a_linked_curves_dir_exit_1(self, workspace, capsys):
        """The bundle's curves would go through a link to another directory,
        which holds a file the bundle would not write: exit 1, none written."""
        elsewhere = workspace / "elsewhere"
        elsewhere.mkdir()
        (elsewhere / "old.csv").write_text("eval_step,value\n")
        bundle = workspace / "bundle"
        bundle.mkdir()
        (bundle / "curves").symlink_to(elsewhere, target_is_directory=True)
        code = main(["analyze", str(workspace / "config.yaml"), *_run_paths(workspace),
                     "--seed", "7", "--resamples", "500", "--families", "normal",
                     "--out", str(bundle)])
        assert code == 1
        assert "curves/old.csv" in capsys.readouterr().err
        assert [p.name for p in bundle.iterdir()] == ["curves"]
        assert [p.name for p in elsewhere.iterdir()] == ["old.csv"]

    def test_out_holding_its_inputs_exit_1(self, workspace, capsys, monkeypatch):
        """Logs kept where the bundle puts their curves, <out>/curves/<id>.csv,
        are refused before any stage; none is written over."""
        calls = []
        monkeypatch.setattr(pipeline, "run_analysis", lambda *a, **k: calls.append(a))
        bundle = workspace / "bundle"
        (bundle / "curves").mkdir(parents=True)
        paths = _run_paths(workspace)
        for path in paths[:4]:  # run 4 is excluded: it has no curve in the bundle
            shutil.copy(path, bundle / "curves")
        kept = sorted(str(p) for p in (bundle / "curves").iterdir())
        before = {p: p.read_bytes() for p in (bundle / "curves").iterdir()}
        code = main(["analyze", str(workspace / "config.yaml"), *kept, paths[4],
                     "--seed", "7", "--resamples", "500", "--out", str(bundle)])
        assert code == 1
        assert "would write over its input" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in bundle.rglob("*") if p.is_file()} == before
        assert calls == []

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

    def test_warns_for_each_unconverged_fit(self, workspace, capsys, monkeypatch):
        """One stderr warning per fit whose `converged` is false, naming the
        family and its score norm, beside loggamma's warning about its
        shape cap. Every fit here converges, so loggamma's is marked
        unconverged on its way out of `fit_mle`."""
        fit_mle = pipeline.fit_mle

        def unconverged_loggamma(family, means):
            fit = fit_mle(family, means)
            if fit.family.name != "loggamma":
                return fit
            return dataclasses.replace(fit, converged=False, score_norm=0.0037)

        monkeypatch.setattr(pipeline, "fit_mle", unconverged_loggamma)
        bundle = workspace / "warn"
        assert main([
            "analyze", str(workspace / "config.yaml"), *_run_paths(workspace),
            "--seed", "7", "--resamples", "1000", "--families", "normal,loggamma",
            "--out", str(bundle),
        ]) == 0
        fits = load_strict((bundle / "fits.yaml").read_text())["fits"]
        assert [fit["family"] for fit in fits if not fit["converged"]] == ["loggamma"]
        assert capsys.readouterr().err.splitlines() == [
            "warning: loggamma fit not converged: score norm 0.0037",
            "warning: loggamma fit at its shape cap c = 1e+06; its normal limit lies beyond",
        ]

    def test_warns_for_a_fit_at_the_shape_cap(self, workspace, capsys):
        """loggamma's fit on these means sits at its shape cap c = 1e6, short
        of its normal limit: one stderr line says so, and none other."""
        bundle = workspace / "cap"
        assert main([
            "analyze", str(workspace / "config.yaml"), *_run_paths(workspace),
            "--seed", "7", "--resamples", "1000", "--families", "normal,loggamma",
            "--out", str(bundle),
        ]) == 0
        fits = load_strict((bundle / "fits.yaml").read_text())["fits"]
        assert [(fit["converged"], fit["parameters"][0]) for fit in fits[1:]] == [(True, 1e6)]
        assert capsys.readouterr().err.splitlines() == [
            "warning: loggamma fit at its shape cap c = 1e+06; its normal limit lies beyond"
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
            args = ["fit", str(means), "--family", "normal"]
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
        assert main(["fit", str(means), "--family", "normal", "--out", str(record)]) == 0
        out = capsys.readouterr().out
        assert "family: normal" in out
        assert "ks_pvalue" in out
        assert main(["verify", str(record), "--reported", "95.0"]) == 0
        out = capsys.readouterr().out
        assert "decision:" in out
        assert "combined:" in out

    def test_fit_takes_no_seed(self, workspace, capsys):
        """No fit reads a seed, so `fit --seed` is a usage error (exit 1)
        that names it, raised before the means file is opened."""
        with pytest.raises(SystemExit) as exit_info:
            main(["fit", "whatever.csv", "--family", "normal", "--seed", "7"])
        assert exit_info.value.code == 1
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err

    def test_unknown_family_exit_1_before_reading_means(self, tmp_path, capsys):
        """An unknown family is a validation error that lists the known
        ones, raised before the means file is opened: here it does not
        exist, and the exit is still 1, not 3."""
        code = main(["fit", str(tmp_path / "missing.csv"), "--family", "gamma"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: validation: unknown family 'gamma'; known: normal, beta, johnsonsb, "
            "johnsonsu, loggamma, powernorm, skewnorm\n"
        )

    def test_numeric_failure_exit_2(self, workspace, capsys):
        """Zero-variance means are a numeric failure for normal too: no
        point-mass fit is made up, and nothing is printed."""
        means = workspace / "degenerate.csv"
        means.write_text("mean\n" + "5.0\n" * 30)
        for family in ("beta", "normal"):
            code = main(["fit", str(means), "--family", family])
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
        assert main(["fit", str(means), "--family", family, "--out", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        assert capsys.readouterr().out == text + f"fit record written to {path}\n"
        record = load_strict(text)
        assert fit_record(fit_from_record(record)) == record

    @pytest.mark.parametrize("link", [None, "symlink", "hardlink"])
    def test_out_that_is_the_means_exit_1(self, tmp_path, capsys, link):
        """--out naming the means file, or a link to it, would write the
        record over the means: exit 1, nothing printed or written."""
        means = tmp_path / "means.csv"
        means.write_text("mean\n" + "".join(f"{100 + i % 7}.5\n" for i in range(50)))
        before = means.read_bytes()
        out = means if link is None else tmp_path / "out.yaml"
        if link == "symlink":
            out.symlink_to(means)
        elif link == "hardlink":
            out.hardlink_to(means)
        assert main(["fit", str(means), "--family", "normal", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", (
            f"error: validation: this fit call would write over its input {out}; "
            "use another output path\n"))
        assert means.read_bytes() == before

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

    @pytest.mark.parametrize("converged, score_norm", [("true", "0.0037"), ("false", "1.0e-12")])
    def test_verify_rejects_converged_that_contradicts_score_norm(
        self, converged, score_norm, tmp_path, capsys
    ):
        """`converged` means score_norm <= 1e-9, so a record whose flag says
        otherwise, like quick-start loggamma's from before every family's
        flag came from the score test, is a validation error before any
        verdict line."""
        path = tmp_path / "fit.yaml"
        path.write_text(
            "family: loggamma\n"
            "parameters: [136206.2529579847, -896.0445952330674, 85.29206779108705]\n"
            "log_likelihood: 465.13791837895405\n"
            f"converged: {converged}\n"
            "ks_statistic: 0.008804077966155344\n"
            "ks_pvalue: 0.41795714393842687\n"
            "post_fit_ks: true\n"
            "iterations: 2860\n"
            f"score_norm: {score_norm}\n"
        )
        assert main(["verify", str(path), "--reported", "158.56"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: validation: fit record converged: {converged} contradicts")


    @pytest.mark.parametrize("reported", ["nan", "inf", "-inf"])
    def test_verify_rejects_a_non_finite_reported_value(self, reported, tmp_path, capsys):
        path = tmp_path / "fit.yaml"
        path.write_text(VALID_RECORD)
        assert main(["verify", str(path), f"--reported={reported}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: validation: reported value must be finite")


class TestSynth:
    def test_deterministic_outputs(self, workspace, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["synth", str(workspace / "spec.yaml"), "--seed", "5",
                         "--out", str(out)]) == 0
        for path in sorted(out_a.glob("*")):
            assert path.read_bytes() == (out_b / path.name).read_bytes()

    def test_reused_out_with_stale_runs_exit_1(self, tmp_path, capsys):
        """A 2-run spec (seed 2) into the directory of a 3-run one (seed 1)
        would leave the seed-1 third run and its sidecar beside the seed-2
        runs: exit 1 after synthesis, no byte written. The first call
        reruns into its own directory."""
        three, two = tmp_path / "three.yaml", tmp_path / "two.yaml"
        three.write_text(SPEC_TEXT.replace("run_count: 5", "run_count: 3"))
        two.write_text(SPEC_TEXT.replace("run_count: 5", "run_count: 2"))
        out = tmp_path / "runs"
        first = ["synth", str(three), "--seed", "1", "--out", str(out)]
        assert main(first) == 0
        before = {p: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["synth", str(two), "--seed", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: validation: {out} holds files this synth call would not write: "
            "synth-02.csv, synth-02.meta.yaml; use a new or empty directory\n"
        )
        assert {p: p.read_bytes() for p in out.iterdir()} == before
        assert main(first) == 0
        assert {p: p.read_bytes() for p in out.iterdir()} == before

    def test_out_holding_its_spec_exit_1(self, tmp_path, capsys):
        """A spec kept where its first run's sidecar goes would be written
        over: exit 1, the spec as it was."""
        out = tmp_path / "runs"
        out.mkdir()
        spec = out / "synth-00.meta.yaml"
        spec.write_text(SPEC_TEXT)
        assert main(["synth", str(spec), "--seed", "1", "--out", str(out)]) == 1
        assert "would write over its input" in capsys.readouterr().err
        assert list(out.iterdir()) == [spec]
        assert spec.read_text() == SPEC_TEXT

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


def _spoil(path, marker):
    """Write a Latin-1 e-acute, which is not UTF-8, over the first byte of
    `marker` in the file at `path`, and return that byte's offset."""
    data = path.read_bytes()
    at = data.index(marker)
    path.write_bytes(data[:at] + "é".encode("latin-1") + data[at + 1:])
    return at


class TestNotUtf8:
    """Each input that is not UTF-8 is a validation error that names the
    file and the offset of its first bad byte, not a traceback."""

    @staticmethod
    def _expect(capsys, path, at):
        out, err = capsys.readouterr()
        assert err == f"error: validation: {path}: not UTF-8: byte 0xe9 at offset {at}\n"
        return out

    def test_config_and_validate_goes_on(self, workspace, capsys):
        bad = workspace / "bad.yaml"
        bad.write_text(CONFIG_TEXT)
        at = _spoil(bad, b"demo")
        good = workspace / "config.yaml"
        assert main(["validate", str(bad), str(good)]) == 1
        assert self._expect(capsys, bad, at).endswith(f"  {good}\n")

    def test_run_log(self, workspace, capsys):
        runs = _run_paths(workspace)
        at = _spoil(Path(runs[0]), b"step")
        code = main(["curves", str(workspace / "config.yaml"), *runs,
                     "--out", str(workspace / "curves")])
        assert code == 1
        assert self._expect(capsys, runs[0], at) == ""

    def test_sidecar(self, workspace, capsys):
        sidecar = workspace / "runs" / "synth-00.meta.yaml"
        at = _spoil(sidecar, b"seed")
        code = main(["analyze", str(workspace / "config.yaml"), *_run_paths(workspace),
                     "--seed", "7", "--out", str(workspace / "bundle")])
        assert code == 1
        assert self._expect(capsys, sidecar, at) == ""

    def test_means(self, tmp_path, capsys):
        means = tmp_path / "means.csv"
        means.write_text("mean\n1.0\n2.0\nx\n")
        at = _spoil(means, b"x")
        assert main(["fit", str(means), "--family", "normal"]) == 1
        assert self._expect(capsys, means, at) == ""

    def test_fit_record(self, tmp_path, capsys):
        record = tmp_path / "fit.yaml"
        record.write_text(VALID_RECORD)
        at = _spoil(record, b"normal")
        assert main(["verify", str(record), "--reported", "95.0"]) == 1
        assert self._expect(capsys, record, at) == ""

    def test_synth_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.yaml"
        spec.write_text(SPEC_TEXT)
        at = _spoil(spec, b"run_count")
        out = tmp_path / "runs"
        assert main(["synth", str(spec), "--seed", "1", "--out", str(out)]) == 1
        assert self._expect(capsys, spec, at) == ""
        assert not out.exists()


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
    oracles only. Every module of the package is imported, since the CLI
    imports most of them only when a command runs."""
    names = [f"rleval.{m.name}" for m in pkgutil.iter_modules(rleval.__path__)]
    assert {"rleval.cli", "rleval.pipeline", "rleval.special"} <= set(names)
    code = (
        f"import importlib, sys; [importlib.import_module(m) for m in {names!r}]; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath'}))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(rleval.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


# `python -m rleval.cli ARGS` in a fresh interpreter, then the numeric
# modules that it loaded, on stderr's last line.
_RUN_CLI = """\
import runpy, sys
sys.argv = ["rleval", *sys.argv[1:]]
try:
    runpy.run_module("rleval.cli", run_name="__main__")
finally:
    watched = {"numpy", "numpy.ma", "numpy.polynomial", "rleval.special",
               "rleval.distributions", "rleval.pipeline", "_hashlib", "_ssl"}
    print(sorted(watched & set(sys.modules)), file=sys.stderr)
"""


@pytest.mark.parametrize("argv, code, stdout", [
    (["validate", "config.yaml"], 0, "  config.yaml\n"),
    (["--version"], 0, f"rleval {rleval.__version__}\n"),
    (["--help"], 0, "validate,curves,analyze,fit,verify,synth}"),
    (["fit", "means.csv"], 1, ""),
], ids=["validate", "version", "help", "usage-error"])
def test_start_up_without_numpy(argv, code, stdout, tmp_path):
    """`validate`, `--version`, `--help` and usage errors load no numeric
    module and no OpenSSL: every command pays the CLI's start-up, and these
    need only PyYAML and CPython's own SHA-256."""
    (tmp_path / "config.yaml").write_text(CONFIG_TEXT)
    env = {**os.environ, "PYTHONPATH": str(Path(rleval.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", _RUN_CLI, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == code, done.stderr
    assert stdout in done.stdout and (stdout or not done.stdout)
    assert done.stderr.splitlines()[-1] == "[]"


_QUICKSTART_RUNS = [f"runs/synth-{i:02d}.csv" for i in range(10)]


@pytest.mark.parametrize("argv, loaded", [
    (["synth", "spec.yaml", "--seed", "7", "--out", "again"], ["numpy"]),
    (["curves", "experiment.yaml", *_QUICKSTART_RUNS, "--out", "curves"], ["numpy"]),
    (["analyze", "experiment.yaml", *_QUICKSTART_RUNS, "--seed", "7", "--resamples", "10000",
      "--alpha", "0.05", "--reported", "158.56", "--out", "bundle"],
     ["numpy", "rleval.distributions", "rleval.pipeline", "rleval.special"]),
], ids=["synth", "curves", "analyze"])
def test_commands_load_only_what_they_run(argv, loaded, tmp_path):
    """On the quick-start inputs, `synth` and `curves` load no `special`,
    `analyze` loads neither numpy.ma (np.median's NaN check) nor
    numpy.polynomial (leggauss), and no command loads OpenSSL, since every
    file hashed is under 1 MiB: no result needs them, and they cost
    start-up and memory."""
    (tmp_path / "spec.yaml").write_text(dump_canonical(QUICKSTART_SPEC))
    (tmp_path / "experiment.yaml").write_text(WORKLOAD_CONFIG.format(name="quickstart"))
    assert main(["synth", str(tmp_path / "spec.yaml"), "--seed", "7",
                 "--out", str(tmp_path / "runs")]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(rleval.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", _RUN_CLI, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == repr(loaded)


def test_cli_defaults_are_the_library_constants():
    """`cli` spells the `--resamples` and `--alpha` defaults as literals, so
    that parsing loads no numpy; they equal the library's constants."""
    parser = build_parser()
    analyze = parser.parse_args(["analyze", "c.yaml", "r.csv", "--seed", "1", "--out", "o"])
    verify = parser.parse_args(["verify", "fit.yaml", "--reported", "1"])
    assert analyze.resamples == DEFAULT_RESAMPLES
    assert analyze.alpha == verify.alpha == DEFAULT_ALPHA


# Run by a fresh interpreter: `rleval synth` through cli.main, then the BLAS
# thread count and OPENBLAS_NUM_THREADS on the last line.
_THREADS_SCRIPT = """\
import os, sys
from rleval.cli import main
assert main(["synth", "spec.yaml", "--seed", "5", "--out", "runs"]) == 0
from rleval.special import _blas_thread_controls
print(_blas_thread_controls()[0](), os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def _blas_threads_after_synth(tmp_path, preset):
    (tmp_path / "spec.yaml").write_text(SPEC_TEXT)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(rleval.__file__).resolve().parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


_NO_THREAD_CONTROLS = pytest.mark.skipif(
    special._blas_thread_controls() is None, reason="needs numpy on OpenBLAS")


@_NO_THREAD_CONTROLS
def test_cli_loads_blas_on_one_thread(tmp_path):
    """A command started by cli.main loads numpy with OPENBLAS_NUM_THREADS=1,
    so no idle BLAS worker spins beside it."""
    assert _blas_threads_after_synth(tmp_path, None) == "1 1"


@_NO_THREAD_CONTROLS
@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: [])(0)) < 2,
                    reason="needs two CPUs this process may run on")
def test_cli_keeps_a_preset_blas_thread_count(tmp_path):
    assert _blas_threads_after_synth(tmp_path, "2") == "2 2"


def test_cli_leaves_environment_alone_once_numpy_is_loaded(workspace, monkeypatch):
    """Where numpy came first, as in a library caller or this test process,
    the BLAS has started its threads and cli.main sets nothing."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert main(["synth", str(workspace / "spec.yaml"), "--seed", "5", "--out",
                 str(workspace / "again")]) == 0
    assert dict(os.environ) == before
