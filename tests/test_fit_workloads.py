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


# fit_record of every family's fit on both inputs: loggamma's recorded
# before the restart polish was deleted from fit_mle (it never ran on these
# inputs), the other six's when they moved from the simplex to BFGS, again
# where the jittered starts had won when those left the score search, and
# beta's, johnsonsb's, johnsonsu's, powernorm's and skewnorm's when the line
# search became plain backtracking and again when the log-likelihood and
# its score were summed elementwise instead of through BLAS; loggamma's
# `converged` when it became the score test. The fits must not move.
WORKLOAD_RECORDS = {
    "quickstart": {
        "normal": {
            "family": "normal",
            "parameters": [
                112.27157587810578, 0.23096873170577206,
            ],
            "log_likelihood": 465.3440499881417,
            "converged": True,
        },
        "beta": {
            "family": "beta",
            "parameters": [
                149.73612842070503, 228.49981081718, 108.63050904023366, 9.197395098301136,
            ],
            "log_likelihood": 466.9931096358305,
            "converged": True,
        },
        "johnsonsb": {
            "family": "johnsonsb",
            "parameters": [
                3.5736508011337933, 10.984057238799327, 107.89241923201965, 10.438124423080033,
            ],
            "log_likelihood": 466.99184017838706,
            "converged": True,
        },
        "johnsonsu": {
            "family": "johnsonsu",
            "parameters": [
                -638.3730098872295, 68.19916039186216, 96.52052635536221, 0.002710894534153814,
            ],
            "log_likelihood": 466.9420695972003,
            "converged": True,
        },
        "loggamma": {
            "family": "loggamma",
            "parameters": [
                133259.19806255336, -883.5690716529782, 84.39293318233962,
            ],
            "log_likelihood": 465.1306390163736,
            "converged": False,
        },
        "powernorm": {
            "family": "powernorm",
            "parameters": [
                0.8104357148377322, 112.22901518385851, 0.21665598958518076,
            ],
            "log_likelihood": 466.87637176071075,
            "converged": True,
        },
        "skewnorm": {
            "family": "skewnorm",
            "parameters": [
                0.623079726623891, 112.1640815873216, 0.25475788033909363,
            ],
            "log_likelihood": 466.8886383701174,
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
                3.2741447367946916, 14.15500790101404, 67.7361545187315, 89.77659008606847,
            ],
            "log_likelihood": -34616.870389623284,
            "converged": True,
        },
        "johnsonsb": {
            "family": "johnsonsb",
            "parameters": [
                1.6197853056216773, 1.481288293239465, 66.78367850708182, 66.04586511818997,
            ],
            "log_likelihood": -34609.41487509489,
            "converged": True,
        },
        "johnsonsu": {
            "family": "johnsonsu",
            "parameters": [
                -49.64155924294155, 3.0838469990288084, 59.31613341409209, 4.9014583382596265e-06,
            ],
            "log_likelihood": -34709.191765272946,
            "converged": True,
        },
        "loggamma": {
            "family": "loggamma",
            "parameters": [
                210415.16160593642, -46145.93404983712, 3771.8163792220657,
            ],
            "log_likelihood": -35229.26818208709,
            "converged": False,
        },
        "powernorm": {
            "family": "powernorm",
            "parameters": [
                0.0016087847837322601, 69.48221648386617, 0.48936314422535054,
            ],
            "log_likelihood": -34618.339276601706,
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
# (iterations, objective calls, converged, fval as float.hex). loggamma's
# three simplex searches were recorded before the simplex moved onto Python
# floats, the other six's one BFGS search, from the moment start, when the
# line search became plain backtracking; beta's, johnsonsb's, johnsonsu's,
# powernorm's and skewnorm's again when the sums left BLAS. A search that
# reaches the same fit by another path moves these.
WORKLOAD_STARTS = {
    "quickstart": {
        "normal": [
            (0, 1, True, "-0x1.d15813a8f7420p+8"),
        ],
        "beta": [
            (259, 324, True, "-0x1.d2fe3c6edf3c0p+8"),
        ],
        "johnsonsb": [
            (32, 37, True, "-0x1.d2fde93ce9080p+8"),
        ],
        "johnsonsu": [
            (65, 70, True, "-0x1.d2f12b791e880p+8"),
        ],
        "loggamma": [
            (1946, 3355, True, "-0x1.d10aef380d700p+8"),
            (2694, 4686, True, "-0x1.d121718efee80p+8"),
            (2514, 4394, True, "-0x1.d110c9fd88880p+8"),
        ],
        "powernorm": [
            (18, 27, True, "-0x1.d2e059e653640p+8"),
        ],
        "skewnorm": [
            (13, 27, True, "-0x1.d2e37dcde1a00p+8"),
        ],
    },
    "skewed-runs": {
        "normal": [
            (0, 1, True, "0x1.13357e594803ep+15"),
        ],
        "beta": [
            (30, 43, True, "0x1.0e71bda3b56d9p+15"),
        ],
        "johnsonsb": [
            (18, 25, True, "0x1.0e62d46a8228fp+15"),
        ],
        "johnsonsu": [
            (53, 56, True, "0x1.0f2a622f0ecfap+15"),
        ],
        "loggamma": [
            (2582, 4490, True, "0x1.133a894f299aep+15"),
            (2164, 3780, True, "0x1.133aded725ae0p+15"),
            (2068, 3602, True, "0x1.133baaeea66f8p+15"),
        ],
        "powernorm": [
            (73, 112, True, "0x1.0e74adb5a9a94p+15"),
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


# manifest.txt of `rleval analyze --seed 7 --reported 158.56` with all seven
# families on the benchmark's inputs (the skewed-runs logs are run-00 to
# run-09), recorded before the bootstrap's Philox counters moved into
# `philox_u32_blocks`, and the fits.yaml and probabilities.csv lines when
# six families moved to BFGS, when their jittered starts were dropped, when
# the line search became plain backtracking and when the sums left BLAS, and
# the fits.yaml line when loggamma's `converged` became the score test. It
# pins every bundle file: P_d, the KS statistics, the fits, curves, band,
# summary, normality and provenance.
WORKLOAD_MANIFESTS = {
    "quickstart": (
        "9e3255a93724be0b9cdf44901d2b2e125783f8432d33e47abe9ca81466e78421  bands/band.csv\n"
        "2f1cce574881e36d69b6be6f4d72caa7d2688e7a58bee49876cb0c6809ecf606  bootstrap_means/means.csv\n"
        "c09ffd8f57f1105f7c82ed847d771b82a42d3311280818524061993b3f33f9e9  curves/synth-00.csv\n"
        "cd63e1930743da5f0e132823f3957e211b5d6316813cfa16cbd4198148b2aa43  curves/synth-01.csv\n"
        "98d82ad191aef4b756f9caf8a063d995763a867b00429a8f49eb5e658e795b6e  curves/synth-02.csv\n"
        "b5d35c8ee366b5c32892b4b28dc3d885835fdf02eaf54b72201f582c06c1396e  curves/synth-03.csv\n"
        "b72bf06d7f09f43127f84a598a9d86a9219712da205d9a95858f477670222cbd  curves/synth-04.csv\n"
        "48f696261a5b39d00fe475e831caeea5e3259f97df09c22111f10788d8620172  curves/synth-05.csv\n"
        "b35ed786597d576d3cf5caad59343566dd1f731198d7ae051975f3b83ed5d4a2  curves/synth-06.csv\n"
        "5040a9525ddcf7a99e58777461dfcf26566d98942b336fd80f67daf3f7dcc9bd  curves/synth-07.csv\n"
        "9fd8724dfcdc19ae3ad688fc0cf928a9a88baad7310591899c2add7a4215b442  curves/synth-08.csv\n"
        "1bd6a6625a218682227c0d9279a37481990df0b3a426d5731dcba74b5e5e507c  curves/synth-09.csv\n"
        "f73e5c8fc7ac18afb8334ca0a9e2ac0023b0ee896feda08350142780120b87e7  fits.yaml\n"
        "2d95855e29b745bbd468127440efe0714006e40b7eceb96658783cc73500f00d  normality.csv\n"
        "65c2ee6bf1542e1b6389b7883dde3c7937c1fada2a4514d4e390d24e369a9d09  probabilities.csv\n"
        "e552af12e95d3eacdd383dd15396db927e4b9d50c695d7ad039ecfd17cd2ca42  provenance.yaml\n"
        "bd6a71412e155f0d3d1752cadf7812770f0c8f9eca7bbbec24bc322508acfb27  run_averages.csv\n"
        "7a9b2316e627beb42ecf5f79a54ebae6f2aa711721f6eb8a21003785c826f911  summary.csv\n"
    ),
    "skewed-runs": (
        "a6b142c3be930e3ba5ebcc192b1e1448e6af549b0211f406034638a4dc514eb9  bands/band.csv\n"
        "6884163dc0a7a9be03248bf00b7f51de588a37093a4c5b9fafbef2c2ba58c535  bootstrap_means/means.csv\n"
        "1666900d776954d6c154b49a6cb09a78b0b5aa4478fe51967747d9c8b31c5592  curves/run-00.csv\n"
        "65348d6c5dab9c30c6ecb7436c04704809576dfec0b668b7a763b028ac2f99f2  curves/run-01.csv\n"
        "4260c260ab24cabb3c729ceea9c7af6e26ca393cb5ddf86c31363c9fdaace793  curves/run-02.csv\n"
        "d87654057f543255cd4463f29ec54c442ceae01f23a7ff56e06a90e2b9d25794  curves/run-03.csv\n"
        "2eff8c3ac7dd5ede5f9b8c615a5a2ae2a951272c139f73fb3624d2acc1e882bd  curves/run-04.csv\n"
        "b82c9ac4c84138f607e0527ecbb9daf4ac6dc43cf146ac5763d3329595363831  curves/run-05.csv\n"
        "3806be5cb348b09d6fa5b7a1daf313a6d1b6c1ac61e8caf97565feab7b28fbcb  curves/run-06.csv\n"
        "ae7b1053fb53477c63e267f9efe98f38c0feda3a47eccbdd55d73a7df5181986  curves/run-07.csv\n"
        "400d693d5eaed1f62d4be892cee0ab1bea5676647de2cce03ac06d54ba8dd4dd  curves/run-08.csv\n"
        "132fdcb512f6fb5b0e46d34ed087cc098ff58af60e26288fde54b81b1e40eb11  curves/run-09.csv\n"
        "a8341c796f91c38910005f022ceb3a1752a647f8ecd9d4da4fe275b9aa3a51ca  fits.yaml\n"
        "3cc055137ed0338b20ebb0b223efb910732b45f3b6f7bcdc7537e6d9e4730c7c  normality.csv\n"
        "4f98b630c4ee1eb5a6719b5c9576e280086345bdebc1f3dfad0cc13be901aedd  probabilities.csv\n"
        "e79b38e3e8ba52f675d512b7c21eba09786729d24c8c5114e2b7a82ff3b74b45  provenance.yaml\n"
        "898dc19e2f4f5feec598b161142441e58330e6d72274ce3b3ae8eb0a859b99b5  run_averages.csv\n"
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
