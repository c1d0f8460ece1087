"""The calls the benchmark's traced run makes into rleval
(perfbench/tracing.py) still work: the stage-by-stage analysis writes the
same bundle as `run_analysis`."""

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


def test_traced_bundle_equals_run_analysis_bundle(tracing, tmp_path):
    from workloads import ALPHA, REPORTED, WORKLOADS

    workload = WORKLOADS["quickstart"]
    tracer = tracing.Tracer()
    tracing.synth_inputs(tracer, workload.synth_jobs(7), tmp_path / "synth")
    runs = sorted((tmp_path / "synth" / "job00").glob("*.csv"))
    # All seven families in FAMILY_NAMES order: the traced run seeds each fit
    # by its index in the list it is given, run_analysis by FAMILY_NAMES.
    settings = dict(seed=7, resamples=500, alpha=ALPHA, reported=REPORTED,
                    families=list(FAMILY_NAMES))
    config_text = workload.config_text()

    tracing.analyze_untraced(config_text, runs, out=tmp_path / "untraced", **settings)
    report, _ = tracing.analyze_traced(tracer, config_text, runs, out=tmp_path / "traced",
                                       **settings)
    assert len(report.fits) == len(FAMILY_NAMES)
    manifest = (tmp_path / "untraced" / "manifest.txt").read_bytes()
    assert manifest == (tmp_path / "traced" / "manifest.txt").read_bytes()
