import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from rleval import distributions as D
from rleval.config import parse_config
from rleval.distributions import fit_mle
from rleval.ingest import SynthSpec, synthesize_runs
from rleval.metrics import run_average_return
from rleval.pipeline import run_analysis
from rleval.resample import bootstrap_means

sys.path.insert(0, str(Path(__file__).parent))

# The benchmark's fit-bound inputs (perfbench/workloads.py), rebuilt through
# the library: the README quick-start spec, and ten one-run syntheses, named
# run-00 to run-09, whose plateaus are 60 + 40 * LN(0, 0.9). Both use data and
# analyze seed 7.
WORKLOAD_SEED = 7
WORKLOAD_RESAMPLES = 10000
QUICKSTART_SPEC = {
    "run_count": 10,
    "total_steps": 150000,
    "episode_steps": 100,
    "start_level": 20.0,
    "plateau_level": 135.0,
    "ramp_steps": 60000,
    "noise_scale": 25.0,
}


def _workload_runs(name, seed):
    if name == "quickstart":
        return synthesize_runs(SynthSpec.from_mapping(QUICKSTART_SPEC).validate(), seed)
    rng = np.random.default_rng(seed)
    plateaus = 60.0 + 40.0 * np.exp(0.9 * rng.standard_normal(10))
    run_seeds = rng.integers(0, 2**32, size=10)
    runs = []
    for i, (level, run_seed) in enumerate(zip(plateaus, run_seeds)):
        spec = {**QUICKSTART_SPEC, "run_count": 1, "plateau_level": round(float(level), 6)}
        (run,) = synthesize_runs(SynthSpec.from_mapping(spec).validate(), int(run_seed))
        runs.append(dataclasses.replace(run, run_id=f"run-{i:02d}"))
    return runs


# The benchmark's experiment config and reported value.
WORKLOAD_CONFIG = """\
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


def workload_analysis(workload, runs, families=D.FAMILY_NAMES, reported=REPORTED,
                      resamples=WORKLOAD_RESAMPLES):
    """run_analysis with `analyze --seed 7 --reported 158.56`'s settings."""
    config = parse_config(WORKLOAD_CONFIG.format(name=workload))
    return run_analysis(config, runs, seed=WORKLOAD_SEED, resamples=resamples,
                        reported=reported, families=families)


@pytest.fixture(scope="session")
def workload_means():
    """Bootstrap means that `analyze` fits on the quickstart and skewed-runs
    benchmark inputs, keyed by workload name."""
    return {
        name: bootstrap_means(
            [run_average_return(run) for run in _workload_runs(name, WORKLOAD_SEED)],
            WORKLOAD_RESAMPLES,
            seed=WORKLOAD_SEED,
        ).means
        for name in ("quickstart", "skewed-runs")
    }


def _logging_search(search, log):
    """`search` (D.bfgs), appending (iterations, objective calls,
    converged, fval as float.hex) of each search to `log`."""

    def logged(fn, x0, *args):
        calls = 0

        def counted(t):
            nonlocal calls
            calls += 1
            return fn(t)

        result = search(counted, x0, *args)
        log.append((result.iterations, calls, result.converged, float(result.fval).hex()))
        return result

    return logged


@pytest.fixture(scope="session")
def workload_fit(workload_means):
    """workload_fit(workload, family): the fit `analyze` makes on those
    means, computed once per session. workload_fit.starts[workload, family]
    logs its searches in order (`_logging_search`): loggamma's search on
    its floor, and its search over every coordinate where it runs."""
    cache = {}

    def fit(workload, family):
        if (workload, family) not in cache:
            log = fit.starts[workload, family] = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(D, "bfgs", _logging_search(D.bfgs, log))
                cache[workload, family] = fit_mle(family, workload_means[workload])
        return cache[workload, family]

    fit.starts = {}
    return fit
