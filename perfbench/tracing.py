"""The traced run: rleval's public functions called in the order
`pipeline.run_analysis` calls them, with a span around each call.

Spans live in memory and are written as JSON when the run ends. They are
recorded here, around the calls into each module, not inside rleval.
"""

import json
import math
import time
import uuid
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from rleval import special
from rleval._yamlio import load_strict
from rleval.config import config_hash, parse_config
from rleval.distributions import FAMILY_NAMES, fit_mle, get_family, with_gof
from rleval.inference import dagostino_pearson, verify_reproducibility
from rleval.ingest import (
    META_SUFFIX,
    SynthSpec,
    apply_exclusions,
    read_run_log_path,
    synthesize_runs,
    write_run_dir,
)
from rleval.metrics import (
    DEFAULT_STRIDE as STRIDE,
    DEFAULT_WINDOW as WINDOW,
    curve_band,
    learning_curve,
    run_average_return,
)
from rleval.pipeline import fitting_seed_for, run_analysis
from rleval.report import AnalysisReport, build_provenance, emit_bundle
from rleval.resample import DEFAULT_CONFIDENCE, bootstrap_means

from workloads import spec_text


class Tracer:
    """Spans of one run: name, start, end, parent and the run's trace id."""

    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.spans = []
        self._open = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "trace_id": self.trace_id,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def total(self, name):
        """Summed duration of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, span):
        """Duration minus the part of it that child spans cover."""
        covered = 0.0
        reach = span["start"]
        children = sorted(
            (s["start"], s["end"]) for s in self.spans if s["parent"] == span["id"]
        )
        for start, end in children:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return span["end"] - span["start"] - covered

    def write(self, path):
        for span in self.spans:
            span["self"] = self.self_time(span)
        Path(path).write_text(
            json.dumps({"trace_id": self.trace_id, "spans": self.spans}, indent=1) + "\n",
            encoding="utf-8",
        )


def synth_inputs(tracer, jobs, directory):
    """In-process equivalent of the `rleval synth` calls of a workload."""
    directory = Path(directory)
    with tracer.span("synth"):
        for index, job in enumerate(jobs):
            out = directory / f"job{index:02d}"
            with tracer.span("ingest.synth"):
                spec = SynthSpec.from_mapping(load_strict(spec_text(job.spec)))
                runs = synthesize_runs(spec, seed=job.seed)
            with tracer.span("ingest.write"):
                write_run_dir(runs, out)


def analyze_traced(tracer, config_text, run_paths, *, seed, resamples, alpha,
                   reported, families, out):
    """`run_analysis` plus `emit_bundle`, stage by stage, with spans.

    Returns the report; the bundle is written to `out`.
    """
    families = [get_family(f).name for f in families]
    with tracer.span("analyze") as root:
        with tracer.span("config.parse"):
            config = parse_config(config_text)
            digest = config_hash(config)
        with tracer.span("ingest.read") as span:
            runs = [read_run_log_path(p) for p in run_paths]
            trial_set = apply_exclusions(runs, config)
            span["episodes"] = sum(len(run.episodes) for run in runs)
            span["input_bytes"] = sum(
                Path(p).stat().st_size + _sidecar_size(p) for p in run_paths
            )
        with tracer.span("metrics.curves") as span:
            curves = tuple(
                (run.run_id, learning_curve(run, WINDOW, STRIDE)) for run in trial_set.runs
            )
            span["curve_points"] = sum(len(c.points) for _, c in curves)
        with tracer.span("metrics.band"):
            band = curve_band([c for _, c in curves]) if len(curves) >= 2 else None
        with tracer.span("metrics.averages"):
            averages = tuple(
                (run.run_id, run_average_return(run, mode="episodes", window=WINDOW, stride=STRIDE))
                for run in trial_set.runs
            )
        with tracer.span("resample.bootstrap") as span:
            boot = bootstrap_means(
                [value for _, value in averages], resamples, seed=seed,
                confidence=DEFAULT_CONFIDENCE,
            )
            span["resamples"] = boot.resample_count
        with tracer.span("inference.normality"):
            normality = dagostino_pearson(boot.means, alpha=alpha)
        fits = []
        for index, name in enumerate(families):
            with tracer.span(f"distributions.fit.{name}"):
                fit = fit_mle(name, boot.means, fitting_seed=fitting_seed_for(seed, index))
            with tracer.span(f"distributions.ks.{name}"):
                fits.append(with_gof(fit, boot.means, mode="exact"))
        fits = tuple(fits)
        with tracer.span("inference.verdicts"):
            verdicts = tuple(verify_reproducibility(boot, fits, reported, alpha=alpha))
        with tracer.span("report.emit") as span:
            provenance = build_provenance(
                config_digest=digest, config_name=config.name, seed=seed,
                resamples=resamples, confidence=DEFAULT_CONFIDENCE, alpha=alpha,
                window=WINDOW, stride=STRIDE, families=families,
                reported_value=reported, runs_total=config.run_count,
                runs_excluded=trial_set.exclusion_reasons, ks_mode="exact",
                average_return_mode="episodes",
            )
            report = AnalysisReport(
                config=config, config_digest=digest, reported_value=reported,
                bootstrap=boot, normality=normality, fits=fits, verdicts=verdicts,
                run_averages=averages, curves=curves, band=band, provenance=provenance,
            )
            manifest = emit_bundle(report, out)
            span["files"] = len(manifest) + 1
            span["bundle_bytes"] = sum(p.stat().st_size for p in Path(out).rglob("*") if p.is_file())
    return report, root


def _sidecar_size(run_path):
    meta = Path(run_path).with_suffix(META_SUFFIX)
    return meta.stat().st_size if meta.exists() else 0


def fit_remaining(tracer, means, families, seed):
    """Fit the families a workload's `analyze` leaves out, under their own
    root span, outside the `analyze` span. Every per-family figure is then
    measured on every workload without adding to the traced total."""
    fits = []
    with tracer.span("remaining-fits"):
        for index, name in enumerate(FAMILY_NAMES):
            if name in families:
                continue
            with tracer.span(f"distributions.fit.{name}"):
                fit = fit_mle(name, means, fitting_seed=fitting_seed_for(seed, index))
            with tracer.span(f"distributions.ks.{name}"):
                fits.append(with_gof(fit, means, mode="exact"))
    return tuple(fits)


def analyze_untraced(config_text, run_paths, *, seed, resamples, alpha, reported,
                     families, out):
    """The same work through `run_analysis`; returns its wall seconds."""
    start = time.perf_counter()
    config = parse_config(config_text)
    runs = [read_run_log_path(p) for p in run_paths]
    report = run_analysis(
        config, runs, seed=seed, resamples=resamples, alpha=alpha,
        reported=reported, families=families,
    )
    emit_bundle(report, out)
    return time.perf_counter() - start


def _time_per_call(fn, budget=0.25, min_calls=3):
    """Median wall seconds of one call, over calls that fill `budget`."""
    samples = []
    start = time.perf_counter()
    while len(samples) < min_calls or time.perf_counter() - start < budget:
        t = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t)
    return float(np.median(samples))


def kernel_cases(means, fits):
    """(kernel, rleval call, scipy call) on 10k points from the workload's
    standardized bootstrap means. Shape arguments come from the workload's
    own fits of all seven families, so the series and continued fractions
    run the iteration counts the fits make them run."""
    from scipy import special as sps
    from scipy import stats

    z = (means - np.mean(means)) / np.std(means)
    shapes = {fit.family.name: fit.shapes for fit in fits}
    (a_skew,) = shapes["skewnorm"]
    a, b = shapes["beta"]
    (c,) = shapes["loggamma"]
    p = np.clip(special.std_normal_cdf(z), 1e-300, 1.0 - 2.0**-53)
    # beta(a, b) and gamma(c) variates at the same standard scores
    beta_sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    x_beta = np.clip(a / (a + b) + beta_sd * z, 1e-12, 1.0 - 1e-12)
    x_gamma = np.maximum(c + math.sqrt(c) * z, 1e-12)
    n = means.size
    normal_d = next(f.ks_statistic for f in fits if f.family.name == "normal")
    d = min(normal_d, 3.0 / math.sqrt(n))  # stay on the exact path
    return [
        ("std_normal_cdf", lambda: special.std_normal_cdf(z), lambda: sps.ndtr(z)),
        ("std_normal_logcdf", lambda: special.std_normal_logcdf(z), lambda: sps.log_ndtr(z)),
        ("owens_t", lambda: special.owens_t(z, a_skew), lambda: sps.owens_t(z, a_skew)),
        ("std_normal_quantile", lambda: special.std_normal_quantile(p), lambda: sps.ndtri(p)),
        ("reg_inc_beta", lambda: special.reg_inc_beta(a, b, x_beta),
         lambda: sps.betainc(a, b, x_beta)),
        ("reg_inc_gamma_lower", lambda: special.reg_inc_gamma_lower(c, x_gamma),
         lambda: sps.gammainc(c, x_gamma)),
        ("ks_one_sample_pvalue", lambda: special.ks_one_sample_pvalue(d, n),
         lambda: stats.kstwo.sf(d, n)),
    ]


def kernel_timings(means, fits):
    """{kernel: (rleval us per call, scipy us per call)}."""
    return {
        name: (_time_per_call(ours) * 1e6, _time_per_call(ref) * 1e6)
        for name, ours, ref in kernel_cases(means, fits)
    }

