"""Each pinned workload's `analyze` bundle (quickstart, skewed-runs),
re-derived from outside the program as the benchmark's correctness checks
(`perfbench/checks.py`) re-derive it: each record's log-likelihood and KS D
under scipy.stats at its recorded parameters, `p_d` as the record's
`ks_pvalue`, `combined` as exactly `p_d * p_v` with its decision against
alpha, `summary.csv` against numpy's linear quantiles, the run averages as
the fsum of the input files, the normality decision against its p-value,
and every file against `manifest.txt`. `bundle_problems` reads only files,
with no help from rleval."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import REPORTED, WORKLOAD_RESAMPLES, WORKLOAD_SEED, _workload_runs, workload_analysis
from rleval import distributions as D
from rleval.distributions import FAMILY_NAMES
from rleval.inference import DEFAULT_ALPHA
from rleval.ingest import write_run_dir
from rleval.report import emit_bundle

stats = pytest.importorskip("scipy.stats")

# The largest gaps to scipy are loggamma's, at its shape cap c = 1e6, where
# scipy's c y - e^y - lgamma(c) cancels: 6.1e-6 nats on both workloads
# (4.7e-6 and 2.3e-6 near c ~ 1e5, where its simplex fit ended). Its D gaps
# were 3.0e-10 and 1.3e-10 while the incomplete gamma summed a series cut at
# 4000 terms there; with Temme's expansion they are 0 (pinned below). The
# other families stay below 4e-9 nats and 1e-13. The tolerances leave eight
# times the largest gap and still catch a wrong parameter or formula.
LL_TOL = 5e-5
KS_TOL = 3e-9

SCIPY_FAMILIES = {
    "normal": stats.norm,
    "beta": stats.beta,
    "johnsonsb": stats.johnsonsb,
    "johnsonsu": stats.johnsonsu,
    "loggamma": stats.loggamma,
    "powernorm": stats.powernorm,
    "skewnorm": stats.skewnorm,
}


def _read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def _manifest_problems(bundle):
    """Every file is listed once and its bytes match the listed digest."""
    listed = {}
    for line in (bundle / "manifest.txt").read_text(encoding="utf-8").splitlines():
        digest, rel = line.split("  ", 1)
        listed[rel] = digest
    present = {p.relative_to(bundle).as_posix() for p in bundle.rglob("*")
               if p.is_file() and p.name != "manifest.txt"}
    problems = []
    if present != set(listed):
        problems.append(f"manifest lists {sorted(set(listed) ^ present)} wrongly")
    for rel in sorted(present & set(listed)):
        if hashlib.sha256((bundle / rel).read_bytes()).hexdigest() != listed[rel]:
            problems.append(f"{rel}: digest does not match the manifest")
    return problems


def _run_averages(run_paths):
    """Mean episode return of each run log, read from its file."""
    out = []
    for path in run_paths:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        returns = [float(line.split(",")[1]) for line in lines[1:] if line]
        out.append((Path(path).stem, math.fsum(returns) / len(returns)))
    return out


def _ks_statistic(sorted_data, cdf_values):
    n = sorted_data.size
    i = np.arange(1, n + 1, dtype=np.float64)
    return max(float(np.max(i / n - cdf_values)), float(np.max(cdf_values - (i - 1.0) / n)))


def bundle_problems(bundle, run_paths, *, families, resamples, alpha, reported):
    """Each way the bundle disagrees with what its inputs re-derive; an
    empty list when it agrees."""
    bundle = Path(bundle)
    problems = _manifest_problems(bundle)

    means = np.array([float(r["mean"]) for r in _read_csv(bundle / "bootstrap_means/means.csv")])
    if means.size != resamples:
        problems.append(f"means.csv holds {means.size} values, expected {resamples}")
    (summary,) = _read_csv(bundle / "summary.csv")
    low, high = np.quantile(means, [0.025, 0.975], method="linear")
    expected = {
        "reported": f"{reported:.2f}",
        "mean": f"{math.fsum(means) / means.size:.2f}",
        "ci_low": f"{low:.2f}",
        "ci_high": f"{high:.2f}",
    }
    for key, text in expected.items():
        if summary[key] != text:
            problems.append(f"summary.csv {key} is {summary[key]}, expected {text}")

    got = [(r["run_id"], float(r["average_return"]))
           for r in _read_csv(bundle / "run_averages.csv")]
    if got != _run_averages(run_paths):
        problems.append("run_averages.csv differs from the fsum of the input runs")

    (normality,) = _read_csv(bundle / "normality.csv")
    if (normality["decision"] == "rejected") != (float(normality["pvalue"]) < alpha):
        problems.append("normality decision disagrees with its p-value and alpha")

    fits = yaml.safe_load((bundle / "fits.yaml").read_text(encoding="utf-8"))["fits"]
    probabilities = _read_csv(bundle / "probabilities.csv")
    if [f["family"] for f in fits] != list(families):
        problems.append(f"fits.yaml families {[f['family'] for f in fits]} != {list(families)}")
    if [p["family"] for p in probabilities] != list(families):
        problems.append("probabilities.csv families differ from the requested families")

    for row in probabilities:
        p_v, p_d, combined = float(row["p_v"]), float(row["p_d"]), float(row["combined"])
        if combined != p_d * p_v:
            problems.append(f"{row['family']}: combined != p_d * p_v")
        decision = "failed_to_reject" if combined >= alpha else "rejected"
        if row["decision"] != decision:
            problems.append(f"{row['family']}: decision disagrees with combined and alpha")

    ordered = np.sort(means)
    for rec, row in zip(fits, probabilities):
        family = rec["family"]
        dist = SCIPY_FAMILIES[family](*rec["parameters"])
        with np.errstate(all="ignore"):
            ll = math.fsum(dist.logpdf(means))
            d = _ks_statistic(ordered, dist.cdf(ordered))
        if not abs(ll - rec["log_likelihood"]) <= LL_TOL:
            problems.append(f"{family}: log_likelihood {rec['log_likelihood']!r} vs scipy {ll!r}")
        if not abs(d - rec["ks_statistic"]) <= KS_TOL:
            problems.append(f"{family}: ks_statistic {rec['ks_statistic']!r} vs scipy {d!r}")
        if float(row["p_d"]) != rec["ks_pvalue"]:
            problems.append(f"{family}: p_d differs from the fit's ks_pvalue")
    return problems


@pytest.mark.parametrize("workload", ["quickstart", "skewed-runs"])
def test_bundle_agrees_with_its_rederivation(workload, tmp_path):
    runs = _workload_runs(workload, WORKLOAD_SEED)
    write_run_dir(runs, tmp_path / "runs")
    emit_bundle(workload_analysis(workload, runs), tmp_path / "bundle")
    problems = bundle_problems(
        tmp_path / "bundle", [tmp_path / "runs" / f"{run.run_id}.csv" for run in runs],
        families=FAMILY_NAMES, resamples=WORKLOAD_RESAMPLES, alpha=DEFAULT_ALPHA,
        reported=REPORTED,
    )
    assert problems == []


@pytest.mark.parametrize("workload", ["quickstart", "skewed-runs"])
def test_loggamma_ks_statistic_matches_scipy(workload, workload_fit, workload_means):
    """loggamma's KS statistic, as `analyze` records it, is scipy's D at the
    recorded parameters to 1e-14. Before Temme's expansion it was 1.3e-10
    (quickstart) and 3.0e-10 (skewed-runs) off."""
    means = workload_means[workload]
    record = D.with_gof(workload_fit(workload, "loggamma"), means)
    ordered = np.sort(means)
    dist = stats.loggamma(*record.shapes, loc=record.loc, scale=record.scale)
    assert abs(_ks_statistic(ordered, dist.cdf(ordered)) - record.ks_statistic) <= 1e-14
