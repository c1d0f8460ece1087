"""Report assembly and deterministic bundle emission.

An AnalysisReport gathers everything one `analyze` invocation produced:
the config digest, per-run averages and curves, the bootstrap distribution,
the normality result, the fitted families with their KS scores, the
reproducibility verdicts, and a provenance block naming every setting that
influenced a number. Emitting the same report twice yields byte-identical
files; the manifest lists each file with its SHA-256 digest.

`curves` imports this module for its curve files, so `distributions` and
`inference`, which load `special`, are imported only by the functions that
write fits and verdicts.
"""

from dataclasses import dataclass, field

from . import __version__
from ._digest import sha256_hex
from ._fmt import fmt_fixed, fmt_shortest
from ._yamlio import dump_canonical
from .errors import ValidationError
from .ingest import write_files
from .metrics import EMPTY_WINDOW_POLICY, band_csv, curve_csv
from .resample import CI_METHOD, means_csv
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


def render_summary_table(report) -> Table:
    """The summary row: reported value, bootstrap mean, CI."""
    boot = report.bootstrap
    return Table(
        columns=["config", "reported", "mean", "ci_low", "ci_high"],
        rows=[[
            report.config.name,
            fmt_fixed(report.reported_value, 2),
            fmt_fixed(boot.empirical_mean, 2),
            fmt_fixed(boot.ci_low, 2),
            fmt_fixed(boot.ci_high, 2),
        ]],
    )


def render_probability_table(report) -> Table:
    """The paper's probability table for one configuration: the combined
    probability per family, starred where not rejected."""
    from .inference import significance_summary

    return significance_summary(
        [[v] for v in report.verdicts], config_names=[report.config.name]
    )


def curve_files(run_ids, curve_dir="", band_dir="") -> list:
    """The curve files for runs `run_ids`: `<run>.csv` each, and `band.csv`
    when there are two runs or more."""
    names = [f"{curve_dir}{run_id}.csv" for run_id in run_ids]
    if len(names) >= 2:
        names.append(f"{band_dir}band.csv")
    return names


def curve_texts(curves, band, curve_dir="", band_dir="") -> dict:
    """The texts of the `curve_files` of `curves`, ((run_id, LearningCurve),
    ...), by name: each run's curve, then the band's where `band` is given."""
    names = curve_files([run_id for run_id, _ in curves], curve_dir, band_dir)
    if len(set(names)) < len(names):
        raise ValidationError("a run with id 'band' would have its curve overwritten by "
                              f"the band in {band_dir}band.csv; rename its log")
    texts = [curve_csv(curve) for _, curve in curves]
    if band is not None:
        texts.append(band_csv(band))
    return dict(zip(names, texts, strict=True))


def bundle_files(run_ids, with_probabilities: bool) -> list:
    """Every file, manifest included, that `emit_bundle` writes for the kept
    runs `run_ids`; `probabilities.csv` is there when there are verdicts,
    which is when a reported value is given."""
    names = ["summary.csv", "normality.csv", "run_averages.csv", "fits.yaml",
             "bootstrap_means/means.csv", "provenance.yaml", MANIFEST_NAME]
    if with_probabilities:
        names.append("probabilities.csv")
    return names + curve_files(run_ids, "curves/", "bands/")


def emit_bundle(report: AnalysisReport, directory) -> list:
    """Write the full artifact bundle; returns (digest, relative path) pairs.

    Layout: summary.csv, probabilities.csv, normality.csv, fits.yaml,
    curves/<run>.csv, bands/band.csv, bootstrap_means/means.csv,
    provenance.yaml, manifest.txt (`bundle_files`), the manifest last. A
    directory holding any other file is refused before a file is written, so
    no stale file sits beside the bundle; `analyze` checks it before any stage.
    """
    from .distributions import fit_record

    files = {"summary.csv": render_summary_table(report).to_csv()}

    if report.verdicts:
        rows = []
        for verdict in report.verdicts:
            rows.append([
                verdict.fit.family.name,
                fmt_shortest(verdict.p_v),
                fmt_shortest(verdict.p_d),
                fmt_shortest(verdict.combined),
                verdict.decision.value,
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

    files["bootstrap_means/means.csv"] = means_csv(report.bootstrap)
    files.update(curve_texts(report.curves, report.band, "curves/", "bands/"))
    files["provenance.yaml"] = dump_canonical(report.provenance)

    manifest = [(sha256_hex(files[rel].encode("utf-8")), rel) for rel in sorted(files)]
    files[MANIFEST_NAME] = "".join(f"{digest}  {rel}\n" for digest, rel in manifest)
    write_files(directory, list(files), files.values())
    return manifest
