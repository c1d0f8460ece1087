"""Maximum-likelihood fits on the bootstrap means of the benchmark's
quickstart and skewed-runs inputs (the `workload_fit` fixture): each fit
reaches scipy's maximum, the families with a normal limit reach the normal
fit, no fit moves, no simplex search takes another path, `analyze` and
`fit` make the same fit of a family whichever other families they are asked
for, and no bundle byte moves."""

import warnings

import numpy as np
import pytest

from conftest import WORKLOAD_SEED, _workload_runs
from rleval import distributions as D
from rleval._yamlio import dump_canonical
from rleval.cli import main
from rleval.config import parse_config
from rleval.pipeline import run_analysis
from rleval.report import MANIFEST_NAME, emit_bundle
from rleval.resample import write_means_csv

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


# fit_record of every family's fit on both inputs, recorded before the
# restart polish was deleted from fit_mle (it never ran on these inputs):
# the fits must not move.
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
                149.72612809555653, 228.48021558450657, 108.63061694956143, 9.197017287509768,
            ],
            "log_likelihood": 466.9931096438704,
            "converged": True,
        },
        "johnsonsb": {
            "family": "johnsonsb",
            "parameters": [
                3.5736456192189205, 10.984047023218542, 107.892423005507, 10.438114392513706,
            ],
            "log_likelihood": 466.99184017839434,
            "converged": True,
        },
        "johnsonsu": {
            "family": "johnsonsu",
            "parameters": [
                -726.1463783093612, 68.1990988635488, 96.52054015322308, 0.0007484527497837408,
            ],
            "log_likelihood": 466.94206959736766,
            "converged": True,
        },
        "loggamma": {
            "family": "loggamma",
            "parameters": [
                133259.19806255336, -883.5690716529782, 84.39293318233962,
            ],
            "log_likelihood": 465.1306390163736,
            "converged": True,
        },
        "powernorm": {
            "family": "powernorm",
            "parameters": [
                0.810436428063868, 112.22901535849743, 0.21665605693222806,
            ],
            "log_likelihood": 466.8763717606653,
            "converged": True,
        },
        "skewnorm": {
            "family": "skewnorm",
            "parameters": [
                0.6230799816881163, 112.16408153821311, 0.25475789964827744,
            ],
            "log_likelihood": 466.8886383701047,
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
                3.274145242326592, 14.155028726424295, 67.73615503129398, 89.77668578027256,
            ],
            "log_likelihood": -34616.87038962338,
            "converged": True,
        },
        "johnsonsb": {
            "family": "johnsonsb",
            "parameters": [
                1.6197851838319477, 1.4812882315372113, 66.78367876679778, 66.04586770803729,
            ],
            "log_likelihood": -34609.414875095055,
            "converged": True,
        },
        "johnsonsu": {
            "family": "johnsonsu",
            "parameters": [
                -45.50842786549189, 3.083846836160596, 59.31613398445621, 1.87235809644716e-05,
            ],
            "log_likelihood": -34709.19176527299,
            "converged": True,
        },
        "loggamma": {
            "family": "loggamma",
            "parameters": [
                210415.16160593642, -46145.93404983712, 3771.8163792220657,
            ],
            "log_likelihood": -35229.26818208709,
            "converged": True,
        },
        "powernorm": {
            "family": "powernorm",
            "parameters": [
                0.001608785007498534, 69.48221629346912, 0.48936317912968647,
            ],
            "log_likelihood": -34618.33927660152,
            "converged": True,
        },
        "skewnorm": {
            "family": "skewnorm",
            "parameters": [
                6.017182406766015, 73.59190652203722, 13.723999353482741,
            ],
            "log_likelihood": -34645.46402813385,
            "converged": True,
        },
    },
}


@pytest.mark.parametrize("family", D.FAMILY_NAMES)
def test_identity_search_fits_unchanged(family, workload_fit):
    for workload in WORKLOADS:
        assert D.fit_record(workload_fit(workload, family)) == WORKLOAD_RECORDS[workload][family]


# Each simplex search of every family's fit on both inputs, one per start:
# (iterations, objective calls, converged, fval as float.hex), recorded
# before the simplex moved onto Python floats. A search that reaches the
# same fit by another path moves these.
WORKLOAD_STARTS = {
    "quickstart": {
        "normal": [
            (47, 85, True, "-0x1.d15813a8f7420p+8"),
            (49, 97, True, "-0x1.d15813a828080p+8"),
            (49, 97, True, "-0x1.d15813a4aca20p+8"),
        ],
        "beta": [
            (1391, 2272, True, "-0x1.d2fe3c6efb600p+8"),
            (4687, 7673, True, "-0x1.d264e3e03bf80p+8"),
            (1412, 2330, True, "-0x1.d2fe3c6f01c40p+8"),
        ],
        "johnsonsb": [
            (262, 485, True, "-0x1.d1580a35c0600p+8"),
            (472, 806, True, "-0x1.d2fde93ce9100p+8"),
            (482, 838, True, "-0x1.d2fde93ce90c0p+8"),
        ],
        "johnsonsu": [
            (676, 1192, True, "-0x1.d2f12b791f400p+8"),
            (214, 375, True, "-0x1.d15812d28e800p+8"),
            (300, 521, True, "-0x1.d1589b0ad2780p+8"),
        ],
        "loggamma": [
            (1946, 3355, True, "-0x1.d10aef380d700p+8"),
            (2694, 4686, True, "-0x1.d121718efee80p+8"),
            (2514, 4394, True, "-0x1.d110c9fd88880p+8"),
        ],
        "powernorm": [
            (121, 217, True, "-0x1.d2e059e652de0p+8"),
            (254, 460, True, "-0x1.d2e059e6532e0p+8"),
            (198, 349, True, "-0x1.d2e059e653320p+8"),
        ],
        "skewnorm": [
            (79, 145, True, "-0x1.d2e37dcde1920p+8"),
            (253, 452, True, "-0x1.d2e37dcde16e0p+8"),
            (114, 212, True, "-0x1.d2e34ca191120p+8"),
        ],
    },
    "skewed-runs": {
        "normal": [
            (45, 81, True, "0x1.13357e594803ep+15"),
            (45, 89, True, "0x1.13357e59482a7p+15"),
            (44, 89, True, "0x1.13357e5948340p+15"),
        ],
        "beta": [
            (182, 306, True, "0x1.0e71bda3b56f8p+15"),
            (238, 406, True, "0x1.0e71bda3b56e6p+15"),
            (173, 305, True, "0x1.0e71bda3b56e8p+15"),
        ],
        "johnsonsb": [
            (157, 270, True, "0x1.0e62d46a822a6p+15"),
            (186, 319, True, "0x1.0e62d46a822c0p+15"),
            (155, 265, True, "0x1.0e62d46a822adp+15"),
        ],
        "johnsonsu": [
            (383, 682, True, "0x1.0f2a622f0ed00p+15"),
            (264, 461, True, "0x1.13357e568e10cp+15"),
            (235, 414, True, "0x1.13357ea4d2b2cp+15"),
        ],
        "loggamma": [
            (2582, 4490, True, "0x1.133a894f299aep+15"),
            (2164, 3780, True, "0x1.133aded725ae0p+15"),
            (2068, 3602, True, "0x1.133baaeea66f8p+15"),
        ],
        "powernorm": [
            (247, 432, True, "0x1.0e74adb5a9a9bp+15"),
            (248, 438, True, "0x1.0e74adb5a9aaep+15"),
            (262, 461, True, "0x1.0e74adb5a9a7ap+15"),
        ],
        "skewnorm": [
            (101, 180, True, "0x1.0eaaed9518779p+15"),
            (128, 230, True, "0x1.0eaaed951876ap+15"),
            (108, 197, True, "0x1.0eaaed951876ep+15"),
        ],
    },
}


@pytest.mark.parametrize("family", D.FAMILY_NAMES)
def test_simplex_searches_unchanged(family, workload_fit):
    for workload in WORKLOADS:
        workload_fit(workload, family)
        assert workload_fit.starts[workload, family] == WORKLOAD_STARTS[workload][family]


# The benchmark's experiment config and reported value.
CONFIG_TEXT = """\
schema_version: 1
name: {name}
algorithm: algos.ppo
environment: envs.hopper
logger: logs.csv
tuned_params:
  hidden_layers: 2
  hidden_size: 64
  step_size: 0.0003
  gamma: 0.99
  lambda: 0.95
fixed_params:
  max_timesteps: 150000
run_count: 10
"""
REPORTED = 158.56


def _analysis(workload, runs, families=D.FAMILY_NAMES):
    """run_analysis with `analyze --seed 7 --reported 158.56`'s settings."""
    config = parse_config(CONFIG_TEXT.format(name=workload))
    return run_analysis(config, runs, seed=WORKLOAD_SEED, reported=REPORTED, families=families)


@pytest.fixture(scope="module")
def quickstart_analysis():
    """analysis(families): the analysis of the quick-start runs, fitting
    `families`."""
    runs = _workload_runs("quickstart", WORKLOAD_SEED)
    cache = {}

    def analysis(families=D.FAMILY_NAMES):
        if families not in cache:
            cache[families] = _analysis("quickstart", runs, families)
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
# `philox_u32_blocks`. It pins every bundle file: P_d, the KS statistics,
# the fits, curves, band, summary, normality and provenance.
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
        "e2634df66193765c6caf147d5ec927a8bf1039b446ee1ec8b47ad7ada0c9816a  fits.yaml\n"
        "2d95855e29b745bbd468127440efe0714006e40b7eceb96658783cc73500f00d  normality.csv\n"
        "4e3abc67c11cf607abc683654a9192d3429c92cb72dd86e5eb49f1e6b666d9c3  probabilities.csv\n"
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
        "e3682208c0482bd641f63c8323de0692ddb73d1613a9011f5e8bead19196c202  fits.yaml\n"
        "3cc055137ed0338b20ebb0b223efb910732b45f3b6f7bcdc7537e6d9e4730c7c  normality.csv\n"
        "aa02984e9aac0d84444c8ade41b17a89cb80b77f53ae49e7394b092a67a21d06  probabilities.csv\n"
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
        report = _analysis(workload, _workload_runs(workload, WORKLOAD_SEED))
    emit_bundle(report, tmp_path)
    assert (tmp_path / MANIFEST_NAME).read_text(encoding="utf-8") == WORKLOAD_MANIFESTS[workload]
