"""Report rendering and bundle emission."""

import dataclasses

import pytest

from rleval._fmt import fmt_fixed
from rleval._yamlio import load_strict
from rleval.config import ExperimentConfig
from rleval.errors import ValidationError
from rleval.ingest import SynthSpec, synthesize_runs
from rleval.pipeline import run_analysis
from rleval.report import (
    bundle_files,
    emit_bundle,
    render_probability_table,
    render_summary_table,
)

SPEC = SynthSpec(run_count=6, total_steps=30000, episode_steps=150,
                 start_level=10.0, plateau_level=120.0, ramp_steps=12000,
                 noise_scale=8.0)


def _config(run_count=6):
    return ExperimentConfig(
        name="report-demo", algorithm="algos.x", environment="envs.y",
        logger="logs.z", tuned_params={"gamma": 0.9}, fixed_params={},
        run_count=run_count,
    ).validate()


@pytest.fixture(scope="module")
def report():
    runs = synthesize_runs(SPEC, seed=31)
    return run_analysis(
        _config(), runs, seed=31, resamples=2000, reported=118.0,
        families=("normal", "skewnorm"),
    )


class TestTables:
    def test_summary_layout(self, report):
        table = render_summary_table(report)
        assert table.columns == ["config", "reported", "mean", "ci_low", "ci_high"]
        assert len(table.rows) == 1
        assert table.rows[0][0] == "report-demo"

    def test_summary_row_uses_shared_formatter(self, report):
        table = render_summary_table(report)
        assert table.rows[0][2] == fmt_fixed(report.bootstrap.empirical_mean, 2)

    def test_summary_placeholder_without_reported(self):
        runs = synthesize_runs(SPEC, seed=32)
        rep = run_analysis(_config(), runs, seed=32, resamples=500,
                           families=("normal",))
        table = render_summary_table(rep)
        assert table.rows[0][1] == "-"

    def test_probability_table(self, report):
        table = render_probability_table(report)
        assert table.columns == ["family", "report-demo"]
        assert [row[0] for row in table.rows] == ["normal", "skewnorm"]
        assert table.footer.startswith("rejected ")

    def test_probability_requires_verdicts(self):
        runs = synthesize_runs(SPEC, seed=33)
        rep = run_analysis(_config(), runs, seed=33, resamples=500,
                           families=("normal",))
        with pytest.raises(ValidationError):
            render_probability_table(rep)


class TestBundle:
    def test_emit_and_manifest(self, report, tmp_path):
        manifest = emit_bundle(report, tmp_path / "bundle")
        names = {rel for _, rel in manifest}
        assert "summary.csv" in names
        assert "probabilities.csv" in names
        assert "normality.csv" in names
        assert "fits.yaml" in names
        assert "bootstrap_means/means.csv" in names
        assert "bands/band.csv" in names
        assert "provenance.yaml" in names
        assert any(rel.startswith("curves/") for rel in names)
        listed = (tmp_path / "bundle" / "manifest.txt").read_text().splitlines()
        assert len(listed) == len(manifest)
        # every emitted file except the manifest itself is listed
        on_disk = {
            str(p.relative_to(tmp_path / "bundle")).replace("\\", "/")
            for p in (tmp_path / "bundle").rglob("*")
            if p.is_file()
        }
        assert on_disk == names | {"manifest.txt"}

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("reported", [True, False])
    def test_writes_exactly_bundle_files(self, report, tmp_path, runs, reported):
        """`analyze` checks its --out against `bundle_files` before any
        stage, so the files `emit_bundle` writes must be those."""
        fewer = dataclasses.replace(
            report, curves=report.curves[:runs], band=report.band if runs > 1 else None,
            verdicts=report.verdicts if reported else ())
        emit_bundle(fewer, tmp_path)
        written = sorted(p.relative_to(tmp_path).as_posix()
                         for p in tmp_path.rglob("*") if p.is_file())
        assert written == sorted(bundle_files([run_id for run_id, _ in fewer.curves], reported))

    def test_byte_determinism(self, report, tmp_path):
        m1 = emit_bundle(report, tmp_path / "a")
        m2 = emit_bundle(report, tmp_path / "b")
        assert m1 == m2
        for _, rel in m1:
            a = (tmp_path / "a" / rel).read_bytes()
            b = (tmp_path / "b" / rel).read_bytes()
            assert a == b, rel

    def test_stale_curve_refused_before_any_byte(self, report, tmp_path):
        emit_bundle(report, tmp_path / "d")
        before = {p: p.read_bytes() for p in (tmp_path / "d").rglob("*") if p.is_file()}
        fewer = dataclasses.replace(report, curves=report.curves[:2])
        with pytest.raises(ValidationError, match=r"curves/.* and 1 more; use a new"):
            emit_bundle(fewer, tmp_path / "d")
        assert {p: p.read_bytes() for p in (tmp_path / "d").rglob("*") if p.is_file()} == before
        assert emit_bundle(report, tmp_path / "d") == emit_bundle(report, tmp_path / "e")

    def test_repeated_run_id_rejected_before_any_bundle(self, tmp_path):
        # one curve file per run id: three runs named alike would leave one
        # curve behind three run averages
        runs = [dataclasses.replace(run, run_id="same")
                for run in synthesize_runs(SPEC, seed=34)[:3]]
        with pytest.raises(ValidationError, match="'same' is given more than once"):
            emit_bundle(run_analysis(_config(3), runs, seed=34, resamples=500,
                                     families=("normal",)), tmp_path / "bundle")
        assert not (tmp_path / "bundle").exists()

    def test_no_family_rejected_before_any_bundle(self):
        # a bundle without fits has no verdict to give
        with pytest.raises(ValidationError, match="no family requested"):
            run_analysis(_config(), synthesize_runs(SPEC, seed=31), seed=31,
                         resamples=500, reported=118.0, families=[])

    def test_provenance_roundtrips(self, report, tmp_path):
        emit_bundle(report, tmp_path / "c")
        doc = load_strict((tmp_path / "c" / "provenance.yaml").read_text())
        assert doc["seed"] == 31
        assert doc["resamples"] == 2000
        assert doc["config_digest"] == report.config_digest
        assert doc["ks_mode"] == "exact"
        assert doc["empty_window_policy"] == "carry_forward"
        assert doc["average_return_mode"] == "episodes"
        assert doc["runs_analyzed"] == 6
