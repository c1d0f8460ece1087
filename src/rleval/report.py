"""Report assembly and deterministic bundle emission.

An AnalysisReport gathers everything one `analyze` invocation produced:
the config digest, per-run averages and curves, the bootstrap distribution,
the normality result, the fitted families with their KS scores, the
reproducibility verdicts, and a provenance block naming every setting that
influenced a number. Emitting the same report twice yields byte-identical
files; the manifest lists each file with its SHA-256 digest.
"""

import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from ._fmt import fmt_fixed, fmt_shortest
from ._yamlio import dump_canonical
from .distributions import fit_record
from .errors import ValidationError
from .inference import Decision, significance_summary
from .metrics import EMPTY_WINDOW_POLICY, write_band_csv, write_curve_csv
from .resample import CI_METHOD, write_means_csv
from .tabular import Table

MANIFEST_NAME = "manifest.txt"


@dataclass
class AnalysisReport:
    config: object
    config_digest: str
    reported_value: float
    bootstrap: object
    normality: object
    fits: tuple
    verdicts: tuple
    run_averages: tuple  # ((run_id, value), ...)
    curves: tuple = ()  # ((run_id, LearningCurve), ...)
    band: object = None
    provenance: dict = field(default_factory=dict)


def build_provenance(
    *, config_digest, config_name, seed, resamples, confidence, alpha,
    window, stride, families, reported_value, runs_total, runs_excluded,
    ks_mode, average_return_mode,
):
    """Every setting a reader needs to regenerate the bundle bit for bit."""
    return {
        "tool": "rleval",
        "tool_version": __version__,
        "rng": "philox4x32-10",
        "config_name": config_name,
        "config_digest": config_digest,
        "seed": seed,
        "resamples": resamples,
        "confidence": confidence,
        "alpha": alpha,
        "window": window,
        "stride": stride,
        "ci_method": CI_METHOD,
        "ks_mode": ks_mode,
        "empty_window_policy": EMPTY_WINDOW_POLICY,
        "average_return_mode": average_return_mode,
        "families": list(families),
        "reported_value": reported_value,
        "runs_total": runs_total,
        "runs_analyzed": runs_total - len(runs_excluded),
        "runs_excluded": [
            {"index": index, "reason": reason} for index, reason in runs_excluded
        ],
    }


def _reports_list(report_or_reports):
    if isinstance(report_or_reports, AnalysisReport):
        return [report_or_reports]
    reports = list(report_or_reports)
    if not reports:
        raise ValidationError("no reports to render")
    return reports


def render_summary_table(report_or_reports) -> Table:
    """Per-configuration summary: reported value, bootstrap mean, CI."""
    reports = _reports_list(report_or_reports)
    rows = []
    for rep in reports:
        rows.append([
            rep.config.name,
            fmt_fixed(rep.reported_value, 2),
            fmt_fixed(rep.bootstrap.empirical_mean, 2),
            fmt_fixed(rep.bootstrap.ci_low, 2),
            fmt_fixed(rep.bootstrap.ci_high, 2),
        ])
    return Table(
        columns=["config", "reported", "mean", "ci_low", "ci_high"],
        rows=rows,
    )


def render_probability_table(report_or_reports) -> Table:
    """Families x configurations matrix of combined probabilities."""
    reports = _reports_list(report_or_reports)
    for rep in reports:
        if not rep.verdicts:
            raise ValidationError(
                f"{rep.config.name}: no verdicts (analyze ran without a "
                "reported value)"
            )
    families = [v.fit.family.name for v in reports[0].verdicts]
    for rep in reports[1:]:
        if [v.fit.family.name for v in rep.verdicts] != families:
            raise ValidationError("reports carry different family sets")
    matrix = [
        [rep.verdicts[i] for rep in reports] for i in range(len(families))
    ]
    return significance_summary(
        matrix, family_names=families, config_names=[r.config.name for r in reports]
    )


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def emit_bundle(report: AnalysisReport, directory) -> list:
    """Write the full artifact bundle; returns (digest, relative path) pairs.

    Layout: summary.csv, probabilities.csv, normality.csv, fits.yaml,
    curves/<run>.csv, bands/band.csv, bootstrap_means/means.csv,
    provenance.yaml, manifest.txt.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = {}

    files["summary.csv"] = render_summary_table(report).to_csv()

    if report.verdicts:
        rows = []
        for verdict in report.verdicts:
            rows.append([
                verdict.fit.family.name,
                fmt_shortest(verdict.p_v),
                fmt_shortest(verdict.p_d),
                fmt_shortest(verdict.combined),
                "failed_to_reject" if verdict.decision is Decision.FAILED_TO_REJECT else "rejected",
            ])
        probs = Table(columns=["family", "p_v", "p_d", "combined", "decision"], rows=rows)
        files["probabilities.csv"] = probs.to_csv()

    files["normality.csv"] = Table(
        columns=["statistic", "pvalue", "decision", "alpha"],
        rows=[[
            fmt_shortest(report.normality.statistic),
            fmt_shortest(report.normality.pvalue),
            report.normality.decision.value,
            fmt_shortest(report.normality.alpha),
        ]],
    ).to_csv()

    files["run_averages.csv"] = Table(
        columns=["run_id", "average_return"],
        rows=[[run_id, fmt_shortest(value)] for run_id, value in report.run_averages],
    ).to_csv()

    files["fits.yaml"] = dump_canonical({"fits": [fit_record(f) for f in report.fits]})

    means_buf = io.StringIO()
    write_means_csv(report.bootstrap, means_buf)
    files["bootstrap_means/means.csv"] = means_buf.getvalue()

    for run_id, curve in report.curves:
        buf = io.StringIO()
        write_curve_csv(curve, buf)
        files[f"curves/{run_id}.csv"] = buf.getvalue()
    if report.band is not None:
        buf = io.StringIO()
        write_band_csv(report.band, buf)
        files["bands/band.csv"] = buf.getvalue()

    files["provenance.yaml"] = dump_canonical(report.provenance)

    manifest = []
    for rel in sorted(files):
        data = files[rel].encode("utf-8")
        target = directory / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(target, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(files[rel])
        except OSError as exc:
            raise OSError(f"{target}: {exc}") from exc
        manifest.append((_digest(data), rel))
    manifest_text = "".join(f"{digest}  {rel}\n" for digest, rel in manifest)
    with open(directory / MANIFEST_NAME, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(manifest_text)
    return manifest
