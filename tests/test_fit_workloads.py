"""Maximum-likelihood fits on the bootstrap means of the benchmark's
quickstart and skewed-runs inputs (the `workload_fit` fixture): each fit
reaches scipy's maximum, the families with a normal limit reach the normal
fit, converged means a small score, a score-searched fit does not read the
fitting seed, no fit moves, no search takes another path, `analyze` and
`fit` make the same fit of a family whichever other families they are
asked for, and no bundle byte moves, nor under another BLAS kernel or
thread count; a decision that moves with the resample count is a known
fault (strict xfail)."""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import WORKLOAD_RESAMPLES, WORKLOAD_SEED, _workload_runs, workload_analysis
from rleval import distributions as D
from rleval._yamlio import dump_canonical
from rleval.cli import main
from rleval.metrics import run_average_return
from rleval.pipeline import fitting_seed_for
from rleval.report import MANIFEST_NAME, emit_bundle
from rleval.resample import bootstrap_means, write_means_csv

scipy_stats = pytest.importorskip("scipy.stats")

WORKLOADS = ("quickstart", "skewed-runs")
SCORE_FAMILIES = [f for f in D.FAMILY_NAMES if not D.get_family(f).simplex]
LL_TOL = 1e-6


def _scipy_mle_loglik(family, data):
    dist = getattr(scipy_stats, "norm" if family == "normal" else family)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        params = dist.fit(data)
        return float(np.sum(dist.logpdf(data, *params)))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("family", SCORE_FAMILIES)
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


# The log-likelihoods (float.hex) of the Nelder-Mead fits that the six
# score-searched families made before they moved to BFGS, on the inputs
# where the two searches part most: quick-start data seed 107 and
# skewed-runs data seeds 104 and 109 (data, analyze and fitting seed N).
HARD_INPUT_SIMPLEX_LL = {
    ("quickstart", 107): {
        "normal": "0x1.5c4c17ec7dd0cp+12",
        "beta": "0x1.5d1526020f6a0p+12",
        "johnsonsb": "0x1.5d172191f5cd8p+12",
        "johnsonsu": "0x1.5d309e23404d4p+12",
        "powernorm": "0x1.5d06c1134a118p+12",
        "skewnorm": "0x1.5d2ccd4b502a4p+12",
    },
    ("skewed-runs", 104): {
        "normal": "-0x1.545126bd654cep+15",
        "beta": "-0x1.4bbf7adcc30b0p+15",
        "johnsonsb": "-0x1.4c064bdb19475p+15",
        "johnsonsu": "-0x1.4e3a6a0ac9df2p+15",
        "powernorm": "-0x1.4d9b93af802cdp+15",
        "skewnorm": "-0x1.4a837a3ca7749p+15",
    },
    ("skewed-runs", 109): {
        "normal": "-0x1.0799e86b4ae76p+15",
        "beta": "-0x1.07789f74cb3b0p+15",
        "johnsonsb": "-0x1.0778a8a200fadp+15",
        "johnsonsu": "-0x1.0778b103abf0ep+15",
        "powernorm": "-0x1.077a83ac05dc0p+15",
        "skewnorm": "-0x1.077a470da6d6cp+15",
    },
}


@pytest.mark.parametrize("workload, seed", sorted(HARD_INPUT_SIMPLEX_LL))
def test_hard_inputs_reach_the_simplex_or_say_so(workload, seed):
    """Each fit ends at or above the simplex's log-likelihood, or reports
    converged false; converged means the score norm is within tolerance."""
    runs = _workload_runs(workload, seed)
    means = bootstrap_means(
        [run_average_return(run) for run in runs], WORKLOAD_RESAMPLES, seed=seed
    ).means
    for family, simplex_ll in HARD_INPUT_SIMPLEX_LL[workload, seed].items():
        seed_f = fitting_seed_for(seed, D.FAMILY_NAMES.index(family))
        fit = D.fit_mle(family, means, fitting_seed=seed_f)
        assert fit.converged == (fit.score_norm <= D._SCORE_TOL), family
        assert fit.log_likelihood >= float.fromhex(simplex_ll) - LL_TOL or not fit.converged, family


@pytest.mark.parametrize("workload", WORKLOADS)
def test_converged_means_a_small_score(workload, workload_fit, workload_means):
    """converged is the score test for every family; every fit carries its
    search's iterations and the score norm at its result, in the search
    coordinates (raw parameters for loggamma)."""
    means = workload_means[workload]
    for family in D.FAMILY_NAMES:
        fit = workload_fit(workload, family)
        best = min(workload_fit.starts[workload, family], key=lambda row: float.fromhex(row[3]))
        assert fit.iterations == best[0]
        F = D.get_family(family)
        m, s = float(np.mean(means)), float(np.std(means))
        with np.errstate(all="ignore"):
            t = F.to_search(np.array(fit.params), m, s)
            theta = F.from_search(t, m, s)
            _, score = D._loglik_score(F, means, theta)
        norm = float(np.max(np.abs(F.search_score(t, theta, score, m, s)))) / means.size
        assert fit.score_norm == pytest.approx(norm, rel=1e-3, abs=1e-12)
        assert fit.converged == (fit.score_norm <= D._SCORE_TOL)


# fit_record of every family's fit on both inputs, all seven recorded when
# the normal quantile became Wichura's AS 241, which redrew the synth run
# logs and so the bootstrap means (and loggamma's jittered starts). The
# six BFGS log-likelihoods moved by at most 2.5e-9 nats then. The fits must
# not move.
WORKLOAD_RECORDS = {
    "quickstart": {
        "normal": {
            "family": "normal",
            "parameters": [
                112.27157587810578, 0.23096873170577106,
            ],
            "log_likelihood": 465.3440499881872,
            "converged": True,
        },
        "beta": {
            "family": "beta",
            "parameters": [
                149.73612707488155, 228.49980764353248, 108.63050905291455, 9.197395039043526,
            ],
            "log_likelihood": 466.99310963830067,
            "converged": True,
        },
        "johnsonsb": {
            "family": "johnsonsb",
            "parameters": [
                3.57365080110523, 10.984057238757048, 107.89241923203396, 10.438124423037781,
            ],
            "log_likelihood": 466.991840178438,
            "converged": True,
        },
        "johnsonsu": {
            "family": "johnsonsu",
            "parameters": [
                -638.3508009837976, 68.19916038891944, 96.52052635618273, 0.002711777473403971,
            ],
            "log_likelihood": 466.942069597244,
            "converged": True,
        },
        "loggamma": {
            "family": "loggamma",
            "parameters": [
                136206.2529579847, -896.0445952330674, 85.29206779108705,
            ],
            "log_likelihood": 465.13791837895405,
            "converged": False,
        },
        "powernorm": {
            "family": "powernorm",
            "parameters": [
                0.8104357148377371, 112.22901518385852, 0.21665598958518026,
            ],
            "log_likelihood": 466.87637176075077,
            "converged": True,
        },
        "skewnorm": {
            "family": "skewnorm",
            "parameters": [
                0.6230797266238824, 112.16408158732162, 0.2547578803390921,
            ],
            "log_likelihood": 466.88863837016106,
            "converged": True,
        },
    },
    "skewed-runs": {
        "normal": {
            "family": "normal",
            "parameters": [
                84.59925276367215, 8.19673696753692,
            ],
            "log_likelihood": -35226.74677491233,
            "converged": True,
        },
        "beta": {
            "family": "beta",
            "parameters": [
                3.2741447367951992, 14.1550079010254, 67.73615451873135, 89.77659008611604,
            ],
            "log_likelihood": -34616.870389623175,
            "converged": True,
        },
        "johnsonsb": {
            "family": "johnsonsb",
            "parameters": [
                1.6197853056216727, 1.4812882932394629, 66.78367850708183, 66.04586511818987,
            ],
            "log_likelihood": -34609.41487509488,
            "converged": True,
        },
        "johnsonsu": {
            "family": "johnsonsu",
            "parameters": [
                -49.85153285031481, 3.083847002283863, 59.31613340144949, 4.578834973048335e-06,
            ],
            "log_likelihood": -34709.19176527296,
            "converged": True,
        },
        "loggamma": {
            "family": "loggamma",
            "parameters": [
                265214.9403881943, -52786.0698599079, 4233.618200541316,
            ],
            "log_likelihood": -35228.99065386146,
            "converged": False,
        },
        "powernorm": {
            "family": "powernorm",
            "parameters": [
                0.0016087847866633129, 69.4822164843901, 0.4893631446606895,
            ],
            "log_likelihood": -34618.33927660127,
            "converged": True,
        },
        "skewnorm": {
            "family": "skewnorm",
            "parameters": [
                6.017184116079119, 73.59190620083541, 13.7239999735647,
            ],
            "log_likelihood": -34645.46402813383,
            "converged": True,
        },
    },
}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("family", SCORE_FAMILIES)
def test_score_fit_ignores_fitting_seed(workload, family, workload_means):
    """A score-searched fit is one search from the moment start: the
    fitting seed, which draws only loggamma's jittered starts, moves none
    of its fields."""
    means = workload_means[workload]
    records = [D.fit_record(D.fit_mle(family, means, fitting_seed=seed)) for seed in (0, 1)]
    assert records[0] == records[1]


@pytest.mark.parametrize("family", D.FAMILY_NAMES)
def test_identity_search_fits_unchanged(family, workload_fit):
    # The search diagnostics are checked against WORKLOAD_STARTS by
    # test_converged_means_a_small_score.
    for workload in WORKLOADS:
        record = D.fit_record(workload_fit(workload, family))
        del record["iterations"], record["score_norm"]
        assert record == WORKLOAD_RECORDS[workload][family]


# Each search of every family's fit on both inputs, one per start:
# (iterations, objective calls, converged, fval as float.hex): loggamma's
# three simplex searches, the other six's one BFGS search from the moment
# start, all recorded when the normal quantile became AS 241. A search that
# reaches the same fit by another path moves these.
WORKLOAD_STARTS = {
    "quickstart": {
        "normal": [
            (0, 1, True, "-0x1.d15813a8f7740p+8"),
        ],
        "beta": [
            (261, 334, True, "-0x1.d2fe3c6ee9d80p+8"),
        ],
        "johnsonsb": [
            (32, 37, True, "-0x1.d2fde93ce9400p+8"),
        ],
        "johnsonsu": [
            (65, 70, True, "-0x1.d2f12b791eb80p+8"),
        ],
        "loggamma": [
            (1946, 3355, True, "-0x1.d10aef3590200p+8"),
            (2860, 4966, True, "-0x1.d1234e9e6f200p+8"),
            (2667, 4644, True, "-0x1.d11c2850ffe80p+8"),
        ],
        "powernorm": [
            (18, 27, True, "-0x1.d2e059e653900p+8"),
        ],
        "skewnorm": [
            (13, 27, True, "-0x1.d2e37dcde1d00p+8"),
        ],
    },
    "skewed-runs": {
        "normal": [
            (0, 1, True, "0x1.13357e594803ep+15"),
        ],
        "beta": [
            (30, 43, True, "0x1.0e71bda3b56cap+15"),
        ],
        "johnsonsb": [
            (18, 25, True, "0x1.0e62d46a8228ep+15"),
        ],
        "johnsonsu": [
            (53, 56, True, "0x1.0f2a622f0ecfcp+15"),
        ],
        "loggamma": [
            (2582, 4490, True, "0x1.133a894f299aep+15"),
            (2387, 4151, True, "0x1.133a004d2fccep+15"),
            (2606, 4527, True, "0x1.1339fb36fba14p+15"),
        ],
        "powernorm": [
            (77, 115, True, "0x1.0e74adb5a9a58p+15"),
        ],
        "skewnorm": [
            (20, 28, True, "0x1.0eaaed9518767p+15"),
        ],
    },
}


@pytest.mark.parametrize("family", D.FAMILY_NAMES)
def test_simplex_searches_unchanged(family, workload_fit):
    for workload in WORKLOADS:
        workload_fit(workload, family)
        assert workload_fit.starts[workload, family] == WORKLOAD_STARTS[workload][family]


@pytest.fixture(scope="module")
def quickstart_analysis():
    """analysis(families): the analysis of the quick-start runs, fitting
    `families`."""
    runs = _workload_runs("quickstart", WORKLOAD_SEED)
    cache = {}

    def analysis(families=D.FAMILY_NAMES):
        if families not in cache:
            cache[families] = workload_analysis("quickstart", runs, families)
        return cache[families]

    return analysis


def _records(report):
    return {fit.family.name: D.fit_record(fit) for fit in report.fits}


@pytest.mark.parametrize("families", [("johnsonsb",), ("skewnorm", "johnsonsb")])
def test_fit_independent_of_family_selection(families, quickstart_analysis, workload_fit,
                                             workload_means):
    """A family's fit is the one `analyze` makes with all seven families,
    whichever other families are fitted and in whichever order."""
    means = workload_means["quickstart"]
    full = _records(quickstart_analysis())
    subset = quickstart_analysis(families)
    assert np.array_equal(subset.bootstrap.means, means)
    for name, record in _records(subset).items():
        assert record == full[name]
        assert record == D.fit_record(D.with_gof(workload_fit("quickstart", name), means))


@pytest.mark.parametrize("family", ["beta", "johnsonsb"])
def test_cli_fit_rederives_analyze_fit(family, quickstart_analysis, workload_means, tmp_path):
    """`rleval fit --seed 7` on the bundle's means writes the record that
    `analyze --seed 7` wrote for the same family."""
    means = tmp_path / "means.csv"
    with open(means, "w", encoding="utf-8", newline="\n") as fh:
        write_means_csv(quickstart_analysis().bootstrap, fh)
    out = tmp_path / "fit.yaml"
    assert main(["fit", str(means), "--family", family, "--seed", str(WORKLOAD_SEED),
                 "--out", str(out)]) == 0
    expected = _records(quickstart_analysis())[family]
    assert out.read_text(encoding="utf-8") == dump_canonical(expected)


@pytest.mark.parametrize("family", ["loggamma", "normal"])
def test_verify_warns_on_an_unconverged_record(family, quickstart_analysis, tmp_path, capsys):
    """`rleval verify` prints `analyze`'s stderr warning for a record whose
    `converged` is false (quick-start loggamma's), with its score norm
    where the record has one, and nothing for a converged record (normal's);
    stdout carries the verdict either way."""
    record = _records(quickstart_analysis())[family]
    assert record["converged"] == (family == "normal")
    path = tmp_path / "fit.yaml"
    norm = record["score_norm"]
    for score_norm, detail in ((norm, f": score norm {norm:.3g}"), (None, "")):
        path.write_text(dump_canonical({**record, "score_norm": score_norm}), encoding="utf-8")
        assert main(["verify", str(path), "--reported", "158.56"]) == 0
        out, err = capsys.readouterr()
        assert out.endswith("decision: rejected\n")
        warning = [] if record["converged"] else [f"warning: {family} fit not converged{detail}"]
        assert err.splitlines() == warning


# manifest.txt of `rleval analyze --seed 7 --reported 158.56` with all seven
# families on the benchmark's inputs (the skewed-runs logs are run-00 to
# run-09), recorded when the normal quantile became AS 241: that redrew the
# synth run logs, so every line but summary.csv's and provenance.yaml's
# moved. It pins every bundle file: P_d, the KS statistics, the fits,
# curves, band, summary, normality and provenance.
WORKLOAD_MANIFESTS = {
    "quickstart": (
        "945bf83158a1195eca4d1c1992005c6a1a9e338b0cd1a3451be665e735ab0490  bands/band.csv\n"
        "af5f0233cee7465698af1fe36d1a555c62c1992aa0372106704e72d8bb9f51fc  bootstrap_means/means.csv\n"
        "18ea2bcf77cf90a1a8115603cf8b928c5139c0c0a866d1be505e7aa7f0612a51  curves/synth-00.csv\n"
        "ab6a104d775fdac0b7f55cb8e7a18a6a5d55cdeb5f208c778b11d6eb37508b4b  curves/synth-01.csv\n"
        "b44ca39b0c4ec4c1707aba0efa4279fc2fb86facb42f25b2110bf0faa498fa0d  curves/synth-02.csv\n"
        "3fc8aced5424d25a459417f8f1a606e7907c940a4ccdc078996f55ee41e6fe90  curves/synth-03.csv\n"
        "df15449cc94515a4e9e8f01cc5dacfeebaa5f43f0e93e603a08fd13ca807b88d  curves/synth-04.csv\n"
        "a5f8da444ade8c3b7ed0d91a4f5ec6d718a71a432ce3c3fdb93bf4bfcf3708d6  curves/synth-05.csv\n"
        "ab26a732374f191ffc8ef4ebc6036d67be8e9a851eb799934b98371e486ae68a  curves/synth-06.csv\n"
        "306e76ac3197096f616d833ba4a0f2f956f2a9822499dc46c8c0a589850f4b2f  curves/synth-07.csv\n"
        "92e4a52f047964f227735e065a9618a78b61168f443088139f16d5462b32b418  curves/synth-08.csv\n"
        "7947207407e632e3f5b5ffd1322c9d64723fcbb1ce67bcf89722c17ceb0abfda  curves/synth-09.csv\n"
        "6865dcc73b00073948a9f30b98c228f219411d62c430de0decb284570f5681e0  fits.yaml\n"
        "deb8035d8a595bc8f2fcca5b16a02f70370cd6c3557ced6918547116ae249347  normality.csv\n"
        "043788f3381e33bd5b9c527e0479b676d6c342cb36a83f72d4b7e8c66194f88d  probabilities.csv\n"
        "e552af12e95d3eacdd383dd15396db927e4b9d50c695d7ad039ecfd17cd2ca42  provenance.yaml\n"
        "3e0c988c5ff21cf81438c5e371bd226fa40a3273c1264c9aa64ea6db509e1d7d  run_averages.csv\n"
        "7a9b2316e627beb42ecf5f79a54ebae6f2aa711721f6eb8a21003785c826f911  summary.csv\n"
    ),
    "skewed-runs": (
        "baec5345f6d597bfe7a079be235d5123eeb52d41ca3b04ebb9006697ac09841c  bands/band.csv\n"
        "9bece86825a57053411e59e3d31da54380dd47f893e2d0739f5f4fc4667cbb52  bootstrap_means/means.csv\n"
        "423f20d2b3eb8fe7f990530f8d6b57e8e7644fa953b41259ce49527d0cb43a28  curves/run-00.csv\n"
        "a124bf25b6c55f8f434ba70b8d530b41211e5d9423d55619f48321df9b738cbf  curves/run-01.csv\n"
        "090467aee5b913c61e29962efba8b64e26e8326e7e14af5800866221613c2b5e  curves/run-02.csv\n"
        "f1f91f29ba19b4b51f62ac57dc337f037bb3e717e4210f1e189c311269f9b58c  curves/run-03.csv\n"
        "407e3a1039b47d103cf2ff6a533f94345a6111b61ac76deeb09d34889bde17b7  curves/run-04.csv\n"
        "874b9d434db69ed94b285d6ce897b85d94a0a73d7bfbe937753df04bb6086b68  curves/run-05.csv\n"
        "ab4ecfbc2806d9d27b4a287886e5ae9b0a0b1fbeb2bfb7758617adc6aec6c890  curves/run-06.csv\n"
        "5f175623a3a8cb7963df1f06d55a5e579a663ae547f70bd50d69d31bd0318035  curves/run-07.csv\n"
        "5082f363bbdc6ffc8ed96826ad7503cde9bac9b2f1db10ac850f760f73636cbb  curves/run-08.csv\n"
        "4f3595b34701e1d5375c46f2d4cc6a1464c7c6ac576795f819176b5abda77472  curves/run-09.csv\n"
        "348b600597ff1fad9066398f35a1554ff7bbf40c70b1f45b23c0e02926622edb  fits.yaml\n"
        "9f3f2c1fe77a6870964ccb27b568cdd022ba262365574aa535489a1b2377ff2a  normality.csv\n"
        "88c7dadecdf99feb9dbea13a1c8c142c5856a79411ed10aa748d39e2b142d6ea  probabilities.csv\n"
        "e79b38e3e8ba52f675d512b7c21eba09786729d24c8c5114e2b7a82ff3b74b45  provenance.yaml\n"
        "70746998360540f848480fc2c810e153fda8a3b0b96933ce2d910eb9a29e8d06  run_averages.csv\n"
        "1d7c6da4e003a7783bf228c8cea8a20e9b435f1af53c425ad7261a2bfe92418a  summary.csv\n"
    ),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bundle_bytes_unchanged(workload, quickstart_analysis, tmp_path):
    if workload == "quickstart":
        report = quickstart_analysis()
    else:
        report = workload_analysis(workload, _workload_runs(workload, WORKLOAD_SEED))
    emit_bundle(report, tmp_path)
    assert (tmp_path / MANIFEST_NAME).read_text(encoding="utf-8") == WORKLOAD_MANIFESTS[workload]


def _openblas_with_avx2():
    """numpy links OpenBLAS and the CPU has AVX2, so OpenBLAS's Haswell and
    Sandybridge kernels can both be picked by OPENBLAS_CORETYPE."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        cpuinfo = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except (TypeError, KeyError, OSError):
        return False
    return "openblas" in blas.lower() and " avx2" in cpuinfo


# Run by a fresh interpreter with one BLAS setting: write the quick-start
# bundle to argv[1], or print the six score-searched fits on the quick-start
# means at B = 30000.
_BUNDLE_SCRIPT = """\
import sys
from conftest import WORKLOAD_SEED, _workload_runs, workload_analysis
from rleval.report import emit_bundle
emit_bundle(workload_analysis("quickstart", _workload_runs("quickstart", WORKLOAD_SEED)), sys.argv[1])
"""
_FITS_SCRIPT = """\
from conftest import WORKLOAD_SEED, _workload_runs
from rleval import distributions as D
from rleval.metrics import run_average_return
from rleval.resample import bootstrap_means
runs = _workload_runs("quickstart", WORKLOAD_SEED)
means = bootstrap_means([run_average_return(r) for r in runs], 30000, seed=WORKLOAD_SEED).means
print([D.fit_record(D.fit_mle(f, means)) for f in D.FAMILY_NAMES if not D.get_family(f).simplex])
"""


def _bundle_files(root):
    return {
        path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def _without_ks_pvalues(bundle):
    """The bundle with each ks_pvalue, p_d and combined value blanked, and
    without the manifest lines of fits.yaml and probabilities.csv."""
    out = dict(bundle, **{"fits.yaml": re.sub(r"ks_pvalue: .*", "", bundle["fits.yaml"])})
    rows = [line.split(",") for line in bundle["probabilities.csv"].splitlines()]
    blank = [rows[0].index("p_d"), rows[0].index("combined")]
    out["probabilities.csv"] = [[v if i not in blank else "" for i, v in enumerate(row)]
                                for row in rows]
    out[MANIFEST_NAME] = [line for line in bundle[MANIFEST_NAME].splitlines()
                          if not line.endswith((" fits.yaml", " probabilities.csv"))]
    return out


@pytest.mark.skipif(not _openblas_with_avx2(), reason="needs numpy on OpenBLAS and AVX2")
def test_bundle_independent_of_blas(quickstart_analysis, tmp_path):
    """The fits reduce without BLAS. Rerun in fresh interpreters, the
    quick-start bundle is the in-process one byte for byte under OpenBLAS's
    Haswell kernel and on one BLAS thread. Under its Sandybridge kernel only
    the KS p-values may differ, whose exact path below sqrt(n) d = 2 powers
    a matrix through BLAS (ROADMAP item 6). At B = 30000, where OpenBLAS
    splits a long dot product over threads, the six score-searched fits are
    the same on one thread and on two."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(D.__file__).parents[1]), str(Path(__file__).parent)]))
    bundles = {"Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
               "Sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
               "one thread": {"OPENBLAS_NUM_THREADS": "1"}}
    procs = {
        name: subprocess.Popen([sys.executable, "-c", _BUNDLE_SCRIPT, str(tmp_path / name)],
                               env=dict(env, **setting), cwd=tmp_path)
        for name, setting in bundles.items()
    }
    for threads in ("1", "2"):
        procs[threads] = subprocess.Popen(
            [sys.executable, "-c", _FITS_SCRIPT], env=dict(env, OPENBLAS_NUM_THREADS=threads),
            cwd=tmp_path, stdout=subprocess.PIPE, text=True,
        )
    outputs = {name: proc.communicate()[0] for name, proc in procs.items()}
    assert all(proc.returncode == 0 for proc in procs.values())
    emit_bundle(quickstart_analysis(), tmp_path / "in-process")
    expected = _bundle_files(tmp_path / "in-process")
    assert _bundle_files(tmp_path / "Haswell") == expected
    assert _bundle_files(tmp_path / "one thread") == expected
    sandybridge = _bundle_files(tmp_path / "Sandybridge")
    assert _without_ks_pvalues(sandybridge) == _without_ks_pvalues(expected)
    assert outputs["1"] == outputs["2"]


@pytest.mark.xfail(strict=True, reason=(
    "P_d is the KS p-value at n = B against a fixed discrete law, so it "
    "falls toward 0 as B grows (ROADMAP item 1)"
))
def test_decision_independent_of_resample_count():
    """On skewed-runs, with the mean of its run averages as the reported
    value, beta's decision is the same at B = 1000, 3000 and 10000."""
    runs = _workload_runs("skewed-runs", WORKLOAD_SEED)
    reported = float(np.mean([run_average_return(run) for run in runs]))
    decisions = {
        resamples: workload_analysis("skewed-runs", runs, ("beta",), reported, resamples)
        .verdicts[0].decision
        for resamples in (1000, 3000, 10000)
    }
    assert len(set(decisions.values())) == 1, decisions
