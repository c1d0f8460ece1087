"""Maximum-likelihood fits on the bootstrap means of the benchmark's
quickstart and skewed-runs inputs (the `workload_fit` fixture): each fit
reaches scipy's maximum, the families with a normal limit reach the normal
fit, and the families fitted in their raw parameters do not move."""

import warnings

import numpy as np
import pytest

from rleval import distributions as D

scipy_stats = pytest.importorskip("scipy.stats")

WORKLOADS = ("quickstart", "skewed-runs")
LL_TOL = 1e-6


def _scipy_mle_loglik(family, data):
    dist = getattr(scipy_stats, family)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        params = dist.fit(data)
        return float(np.sum(dist.logpdf(data, *params)))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("family", ["beta", "johnsonsu"])
def test_fit_reaches_scipy_mle(workload, family, workload_fit, workload_means):
    fit = workload_fit(workload, family)
    assert fit.converged
    assert fit.log_likelihood >= _scipy_mle_loglik(family, workload_means[workload]) - LL_TOL


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("family", [
    "beta",
    "johnsonsb",
    "johnsonsu",
    pytest.param("loggamma", marks=pytest.mark.xfail(
        strict=True,
        reason="loggamma ends short of its normal limit c -> inf (ROADMAP item 3)",
    )),
])
def test_fit_reaches_normal_limit(workload, family, workload_fit):
    normal = workload_fit(workload, "normal")
    assert workload_fit(workload, family).log_likelihood >= normal.log_likelihood - LL_TOL


# fit_record of the quickstart fits before the search coordinates were
# added; families searched in their own (shapes, loc, scale) must not move.
QUICKSTART_RECORDS = {
    "normal": {
        "family": "normal",
        "parameters": [112.27157587810578, 0.23096873170577206],
        "log_likelihood": 465.3440499881417,
        "converged": True,
    },
    "johnsonsb": {
        "family": "johnsonsb",
        "parameters": [3.5736456192189205, 10.984047023218542, 107.892423005507, 10.438114392513706],
        "log_likelihood": 466.99184017839434,
        "converged": True,
    },
    "loggamma": {
        "family": "loggamma",
        "parameters": [133259.19806255336, -883.5690716529782, 84.39293318233962],
        "log_likelihood": 465.1306390163736,
        "converged": True,
    },
    "powernorm": {
        "family": "powernorm",
        "parameters": [0.810436428063868, 112.22901535849743, 0.21665605693222806],
        "log_likelihood": 466.8763717606653,
        "converged": True,
    },
    "skewnorm": {
        "family": "skewnorm",
        "parameters": [0.6230799816881163, 112.16408153821311, 0.25475789964827744],
        "log_likelihood": 466.8886383701047,
        "converged": True,
    },
}


@pytest.mark.parametrize("family", sorted(QUICKSTART_RECORDS))
def test_identity_search_fits_unchanged(family, workload_fit):
    assert D.fit_record(workload_fit("quickstart", family)) == QUICKSTART_RECORDS[family]
