"""Correctness checks made from outside the program on one `analyze` bundle.

They re-derive what can be re-derived without rleval: file digests, the
verdict arithmetic, the percentile interval, the per-run averages from the
input files, and each fit's log-likelihood and KS statistic under
scipy.stats. They return a list of problems; an empty list means the bundle
passed.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import yaml
from scipy import stats

# The largest gaps to scipy are loggamma's, near its normal limit (c ~ 1e5):
# 4.7e-6 nats and 2.7e-10 in D on skewed-runs, 2.3e-6 and 7.6e-11 on
# quickstart. The other families stay below 4e-8 nats and 1e-12. The
# tolerances leave ten times the largest gap and still catch a wrong
# parameter or formula.
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


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def run_averages(run_paths):
    """Mean episode return of each run log, read with no help from rleval."""
    out = []
    for path in run_paths:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        returns = [float(line.split(",")[1]) for line in lines[1:] if line]
        out.append((Path(path).stem, math.fsum(returns) / len(returns)))
    return out


def ks_statistic(sorted_data, cdf_values):
    n = sorted_data.size
    i = np.arange(1, n + 1, dtype=np.float64)
    return max(float(np.max(i / n - cdf_values)), float(np.max(cdf_values - (i - 1.0) / n)))


def check_manifest(bundle):
    """Every file is listed once and its bytes match the listed digest."""
    problems = []
    listed = {}
    for line in (bundle / "manifest.txt").read_text(encoding="utf-8").splitlines():
        digest, rel = line.split("  ", 1)
        listed[rel] = digest
    present = {
        p.relative_to(bundle).as_posix()
        for p in bundle.rglob("*")
        if p.is_file() and p.name != "manifest.txt"
    }
    if present != set(listed):
        problems.append(f"manifest lists {sorted(set(listed) ^ present)} wrongly")
    for rel in sorted(present & set(listed)):
        if sha256_file(bundle / rel) != listed[rel]:
            problems.append(f"{rel}: digest does not match the manifest")
    return problems


def check_bundle(bundle, *, families, averages, resamples, alpha, reported):
    """Check one bundle; returns (problems, fits), where fits maps each family
    to its `converged` flag and its gaps to scipy in log-likelihood and D."""
    bundle = Path(bundle)
    problems = check_manifest(bundle)

    means = np.array([float(r["mean"]) for r in read_csv(bundle / "bootstrap_means/means.csv")])
    if means.size != resamples:
        problems.append(f"means.csv holds {means.size} values, expected {resamples}")
    (summary,) = read_csv(bundle / "summary.csv")
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

    got = [(r["run_id"], float(r["average_return"])) for r in read_csv(bundle / "run_averages.csv")]
    if got != averages:
        problems.append("run_averages.csv differs from the fsum of the input runs")

    (normality,) = read_csv(bundle / "normality.csv")
    rejected = float(normality["pvalue"]) < alpha
    if (normality["decision"] == "rejected") != rejected:
        problems.append("normality decision disagrees with its p-value and alpha")

    fits = yaml.safe_load((bundle / "fits.yaml").read_text(encoding="utf-8"))["fits"]
    probabilities = read_csv(bundle / "probabilities.csv")
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
    fit_info = {}
    for rec, row in zip(fits, probabilities):
        family = rec["family"]
        dist = SCIPY_FAMILIES[family](*rec["parameters"])
        with np.errstate(all="ignore"):
            ll = math.fsum(dist.logpdf(means))
            d = ks_statistic(ordered, dist.cdf(ordered))
        fit_info[family] = {
            "converged": bool(rec["converged"]),
            "ll_gap": abs(ll - rec["log_likelihood"]),
            "ks_gap": abs(d - rec["ks_statistic"]),
        }
        if not fit_info[family]["ll_gap"] <= LL_TOL:
            problems.append(
                f"{family}: log_likelihood {rec['log_likelihood']!r} vs scipy {ll!r}"
            )
        if not fit_info[family]["ks_gap"] <= KS_TOL:
            problems.append(f"{family}: ks_statistic {rec['ks_statistic']!r} vs scipy {d!r}")
        if float(row["p_d"]) != rec["ks_pvalue"]:
            problems.append(f"{family}: p_d differs from the fit's ks_pvalue")
    return problems, fit_info
