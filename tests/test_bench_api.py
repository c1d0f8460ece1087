"""The calls the benchmark's traced run makes into rleval
(perfbench/tracing.py) still work: the stage-by-stage analysis writes the
same bundle as `run_analysis`, for all seven families and for a subset,
whose fits the traced run seeds by their place in the subset, a seed no
fit reads."""

import sys
from pathlib import Path

import pytest

from rleval.distributions import FAMILY_NAMES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)
    sys.modules.pop("workloads", None)


def _manifests(tracing, tmp_path, families):
    """The manifests of the untraced and the traced analysis of the
    quick-start runs (B = 500, seed 7), fitting `families`."""
    from workloads import ALPHA, REPORTED, WORKLOADS

    workload = WORKLOADS["quickstart"]
    tracer = tracing.Tracer()
    tracing.synth_inputs(tracer, workload.synth_jobs(7), tmp_path / "synth")
    runs = sorted((tmp_path / "synth" / "job00").glob("*.csv"))
    settings = dict(seed=7, resamples=500, alpha=ALPHA, reported=REPORTED,
                    families=list(families))
    config_text = workload.config_text()

    tracing.analyze_untraced(config_text, runs, out=tmp_path / "untraced", **settings)
    report, _ = tracing.analyze_traced(tracer, config_text, runs, out=tmp_path / "traced",
                                       **settings)
    assert len(report.fits) == len(families)
    return tuple((tmp_path / kind / "manifest.txt").read_bytes() for kind in ("untraced", "traced"))


def test_traced_bundle_equals_run_analysis_bundle(tracing, tmp_path):
    untraced, traced = _manifests(tracing, tmp_path, FAMILY_NAMES)
    assert untraced == traced


def test_traced_bundle_equals_run_analysis_bundle_for_a_subset(tracing, tmp_path):
    untraced, traced = _manifests(tracing, tmp_path, ("normal", "loggamma"))
    assert untraced == traced
