"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or check the
captured output) and enforces its stated tolerance and runtime budget.
The published benchmark tables in reference_tables.py are the input
fixtures; nothing here depends on network access or robot hardware.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import oracles
import reference_tables as ref
from rleval import distributions as D
from rleval import special as sp
from rleval.cli import main as cli_main
from rleval.inference import Decision, dagostino_pearson, make_verdict, significance_summary
from rleval.metrics import learning_curve
from rleval.ingest import RunLog
from rleval.resample import bootstrap_means
from rleval.rng import SeededRng


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {label}{(' - ' + detail) if detail else ''}")
    assert ok, f"criterion {number} failed: {label} {detail}"


class Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


def test_criterion_1_ks_pvalue_fixtures():
    with Timer() as timer:
        worst_exact = 0.0
        worst_gap = 0.0
        for d, printed in ref.KS_PAIRS:
            exact = sp.ks_one_sample_pvalue(d, ref.RESAMPLE_COUNT, mode="exact")
            asym = sp.ks_one_sample_pvalue(d, ref.RESAMPLE_COUNT, mode="asymptotic")
            worst_exact = max(worst_exact, abs(exact - printed))
            worst_gap = max(worst_gap, abs(asym - exact))
    ok = (
        len(ref.KS_PAIRS) >= 10
        and worst_exact <= 0.01
        and worst_gap <= 0.01
        and timer.elapsed < 1.0
    )
    _report(
        1, "KS p-value fixtures (n=10000)", ok,
        f"{len(ref.KS_PAIRS)} pairs, worst exact-vs-printed {worst_exact:.4f}, "
        f"worst asymptotic gap {worst_gap:.4f}, {timer.elapsed:.2f}s",
    )


def test_criterion_2_fitted_mean_cross_check():
    with Timer() as timer:
        checks = []
        for (algo, index), published_mean in [
            (("trpo", 0), 135.78),
            (("trpo", 1), 139.65),
        ]:
            row = [r for r in ref.FIT_ROWS[(algo, index)] if r[0] == "beta"][0]
            a, b, loc, scale = row[3]
            checks.append((loc + scale * a / (a + b), published_mean))
        worst = max(abs(mine - pub) for mine, pub in checks)
    expected_c1 = -175.37 + 374.38 * 824.65 / (824.65 + 167.66)
    ok = (
        worst <= 0.5
        and abs(checks[0][0] - expected_c1) < 1e-9
        and abs(checks[1][0] - 139.69) < 0.01
        and timer.elapsed < 1.0
    )
    _report(
        2, "beta-implied means match bootstrap means", ok,
        f"c1 {checks[0][0]:.2f} vs {checks[0][1]}, c2 {checks[1][0]:.2f} vs "
        f"{checks[1][1]}, {timer.elapsed:.2f}s",
    )


def test_criterion_3_probability_table_reconstruction():
    with Timer() as timer:
        worst = 0.0
        worst_cell = None
        star_cells = set()
        verdict_matrix = [[] for _ in ref.FAMILY_ROW_ORDER]
        readings = {"combined": 0, "p_v": 0}
        for algo in ("trpo", "ppo"):
            configs = ref.TRPO_CONFIGS if algo == "trpo" else ref.PPO_CONFIGS
            for index in range(5):
                reported = configs[index]["reported"]
                rows = {r[0]: r for r in ref.FIT_ROWS[(algo, index)]}
                for fam_i, family in enumerate(ref.FAMILY_ROW_ORDER):
                    name, d_stat, p_d, params = rows[family]
                    fit = dataclasses.replace(
                        D.make_fit(name, *params),
                        ks_statistic=d_stat, ks_pvalue=p_d, post_fit_ks=True,
                    )
                    verdict = make_verdict(fit, reported, alpha=0.05)
                    printed = ref.PROBABILITY_TABLE[algo][family][index]
                    err_combined = abs(verdict.combined - printed)
                    err_pv = abs(verdict.p_v - printed)
                    best = min(err_combined, err_pv)
                    readings["combined" if err_combined <= err_pv else "p_v"] += 1
                    if best > worst:
                        worst = best
                        worst_cell = (algo, index + 1, family)
                    if verdict.decision is Decision.FAILED_TO_REJECT:
                        star_cells.add((algo, index))
                    verdict_matrix[fam_i].append(verdict)
        table = significance_summary(
            verdict_matrix,
            family_names=list(ref.FAMILY_ROW_ORDER),
        )
        expected_stars = {
            (algo, idx) for (algo, idx) in ref.STARRED_CELLS
        }
        starred_count = sum(
            1 for row in verdict_matrix for v in row
            if v.decision is Decision.FAILED_TO_REJECT
        )
    # The star pattern (six failures to reject, all in the one starred
    # column) arithmetically implies 60 - 6 = 54 rejections; the published
    # prose count of 55 contradicts the published table by one. The
    # faithful count check lives in the xfail test below.
    ok = (
        worst <= 0.03
        and star_cells == expected_stars
        and starred_count == 6
        and table.footer == f"rejected {60 - starred_count} of 60"
        and timer.elapsed < 5.0
    )
    _report(
        3, "probability-table reconstruction", ok,
        f"worst cell err {worst:.4f} at {worst_cell}, stars {sorted(star_cells)}, "
        f"footer '{table.footer}', readings {readings}, {timer.elapsed:.2f}s",
    )


@pytest.mark.xfail(
    strict=True,
    reason="internally inconsistent fixture: the published table stars all "
    "six families of the one passing configuration (54 of 60 rejected), "
    "while the accompanying prose reports 55 of 60; both cannot hold",
)
def test_criterion_3_reject_count_as_stated():
    rejected = 0
    for algo in ("trpo", "ppo"):
        configs = ref.TRPO_CONFIGS if algo == "trpo" else ref.PPO_CONFIGS
        for index in range(5):
            reported = configs[index]["reported"]
            for family, d_stat, p_d, params in ref.FIT_ROWS[(algo, index)]:
                fit = dataclasses.replace(
                    D.make_fit(family, *params),
                    ks_statistic=d_stat, ks_pvalue=p_d, post_fit_ks=True,
                )
                verdict = make_verdict(fit, reported, alpha=0.05)
                rejected += verdict.decision is Decision.REJECTED
    assert rejected == 55


def test_criterion_4_bootstrap_coverage():
    with Timer() as timer:
        mu, sigma, n, trials = 100.0, 15.0, 10, 2000
        master = 11
        rng = SeededRng(master)
        covered = 0
        for t in range(trials):
            sample = mu + sigma * rng.standard_normal(n)
            boot = bootstrap_means(sample, 10000, seed=master * 1_000_000 + t)
            covered += boot.ci_low <= mu <= boot.ci_high
        rate = covered / trials
    ok = 0.90 <= rate <= 0.97 and timer.elapsed < 120.0
    _report(4, "bootstrap CI coverage at n=10", ok,
            f"rate {rate:.4f} over {trials} trials, {timer.elapsed:.1f}s")


MLE_CASES = [
    ("normal", (), 5.0, 2.0),
    ("beta", (18.83, 8.83), 89.22, 74.13),
    ("johnsonsb", (-1.62, 2.71), 89.67, 78.02),
    ("johnsonsu", (12.79, 8.57), 189.57, 23.46),
    ("loggamma", (10.59,), 92.24, 20.53),
    ("powernorm", (1.77,), 138.22, 5.22),
    ("skewnorm", (-1.53,), 145.51, 8.69),
]


def test_criterion_5_mle_recovery():
    with Timer() as timer:
        details = []
        ok = True
        for name, shapes, loc, scale in MLE_CASES:
            truth = D.make_fit(name, *shapes, loc, scale)
            data = D.sample(truth, 10000, SeededRng(1234))
            fit = D.fit_mle(name, data, fitting_seed=5)
            _, pvalue = D.gof_ks(fit, data)
            good = pvalue > 0.05
            if name == "normal":
                se_mu = scale / math.sqrt(10000)
                se_sigma = scale / math.sqrt(2 * 10000)
                good = good and abs(fit.loc - loc) <= 3 * se_mu
                good = good and abs(fit.scale - scale) <= 3 * se_sigma
            ok = ok and good
            details.append(f"{name} p={pvalue:.3f}")
    ok = ok and timer.elapsed < 120.0
    _report(5, "MLE self-recovery across all families", ok,
            ", ".join(details) + f", {timer.elapsed:.1f}s")


def test_criterion_6_normality_calibration():
    with Timer() as timer:
        trials, n = 2000, 1000
        normals = SeededRng(2121).standard_normal(trials * n).reshape(trials, n)
        reject_normal = sum(
            dagostino_pearson(row).decision is Decision.REJECTED for row in normals
        ) / trials
        lognormals = np.exp(SeededRng(2122).standard_normal(trials * n)).reshape(trials, n)
        reject_lognormal = sum(
            dagostino_pearson(row).decision is Decision.REJECTED for row in lognormals
        ) / trials
    ok = (
        0.03 <= reject_normal <= 0.07
        and reject_lognormal > 0.99
        and timer.elapsed < 60.0
    )
    _report(6, "normality-test calibration", ok,
            f"normal reject rate {reject_normal:.4f}, lognormal {reject_lognormal:.4f}, "
            f"{timer.elapsed:.1f}s")


def test_criterion_7_metric_oracle_equivalence():
    from rleval._fmt import fmt_shortest

    with Timer() as timer:
        layout_rng = np.random.default_rng(424242)
        mismatch = 0
        for _ in range(200):
            n = int(layout_rng.integers(1, 200))
            steps = np.cumsum(layout_rng.integers(1, 1200, size=n))
            returns = layout_rng.normal(80.0, 30.0, size=n)
            run = RunLog("r", steps, returns)
            window = int(layout_rng.integers(1, 8)) * 500
            stride = int(layout_rng.integers(1, 5)) * 250
            mine = learning_curve(run, window, stride).points
            theirs = oracles.curve_oracle(run, window, stride)
            if mine != theirs:
                mismatch += 1
                continue
            rendered_mine = [(t, fmt_shortest(v)) for t, v in mine]
            rendered_ref = [(t, fmt_shortest(v)) for t, v in theirs]
            if rendered_mine != rendered_ref:
                mismatch += 1
    ok = mismatch == 0 and timer.elapsed < 30.0
    _report(7, "learning-curve equals brute-force oracle bit-for-bit", ok,
            f"200 runs, {mismatch} mismatches, {timer.elapsed:.1f}s")


def test_criterion_8_analyze_determinism(tmp_path):
    config_text = """\
schema_version: 1
name: det-check
algorithm: algos.demo
environment: envs.demo
logger: logs.demo
tuned_params:
  gamma: 0.98
fixed_params: {}
run_count: 6
"""
    spec_text = """\
run_count: 6
total_steps: 40000
episode_steps: 200
start_level: 10.0
plateau_level: 110.0
ramp_steps: 15000
noise_scale: 9.0
"""
    with Timer() as timer:
        (tmp_path / "config.yaml").write_text(config_text)
        (tmp_path / "spec.yaml").write_text(spec_text)
        assert cli_main(["synth", str(tmp_path / "spec.yaml"), "--seed", "99",
                         "--out", str(tmp_path / "runs")]) == 0
        runs = sorted(str(p) for p in (tmp_path / "runs").glob("synth-*.csv"))
        base = ["analyze", str(tmp_path / "config.yaml"), *runs,
                "--seed", "99", "--resamples", "2000", "--reported", "105.0"]
        assert cli_main([*base, "--out", str(tmp_path / "b1")]) == 0
        assert cli_main([*base, "--out", str(tmp_path / "b2")]) == 0
        assert cli_main([*base, "--out", str(tmp_path / "b3")]) == 0
        identical = True
        for path in sorted((tmp_path / "b1").rglob("*")):
            if not path.is_file():
                continue
            rel = path.relative_to(tmp_path / "b1")
            blob = path.read_bytes()
            identical = identical and blob == (tmp_path / "b2" / rel).read_bytes()
            identical = identical and blob == (tmp_path / "b3" / rel).read_bytes()
    _report(8, "analyze bundles are byte-identical", identical,
            f"{timer.elapsed:.1f}s")


def test_criterion_9_special_function_oracles():
    with Timer() as timer:
        xs = np.linspace(-8.0, 8.0, 1000)
        err_phi = max(abs(sp.std_normal_cdf(x) - oracles.phi_ref(x)) for x in xs)

        err_gamma = 0.0
        for a in (0.5, 2.5, 10.59, 79.15, 877.15):
            grid = np.linspace(1e-8, 3.0 * a + 10.0, 200)
            for x in grid:
                err_gamma = max(
                    err_gamma,
                    abs(sp.reg_inc_gamma_lower(a, x) - oracles.igam_lower_ref(a, x)),
                )

        err_beta = 0.0
        for a, b in ((0.5, 0.5), (2.0, 9.0), (18.83, 8.83), (824.65, 167.66), (456.27, 282.03)):
            grid = np.linspace(1e-9, 1.0 - 1e-9, 200)
            for z in grid:
                err_beta = max(
                    err_beta, abs(sp.reg_inc_beta(a, b, z) - oracles.ibeta_ref(a, b, z))
                )

        err_owen = 0.0
        hs = np.linspace(-4.0, 4.0, 100)
        for a in (-3.5, -1.0, -0.58, 0.2, 0.58, 1.0, 2.5, 6.0, 0.92, -0.92):
            for h in hs:
                err_owen = max(err_owen, abs(sp.owens_t(h, a) - oracles.owens_t_ref(h, a)))
    ok = err_phi <= 1e-12 and err_gamma <= 1e-10 and err_beta <= 1e-10 and err_owen <= 1e-10
    _report(9, "special functions vs high-precision oracles", ok,
            f"phi {err_phi:.2e}, inc-gamma {err_gamma:.2e}, inc-beta {err_beta:.2e}, "
            f"owen {err_owen:.2e}, {timer.elapsed:.1f}s")
