"""The benchmark's workloads: what rleval is asked to do and on which inputs.
BENCHMARK.json lists quickstart and skewed-runs; long-logs is run by hand.

Every input is generated: an experiment config, synth specs and, through
`rleval synth`, the run logs. `analyze` always runs with the README settings
(B = 10000 resamples, alpha 0.05, reported value 158.56).
"""

from dataclasses import dataclass

import numpy as np

RESAMPLES = 10000
ALPHA = 0.05
REPORTED = 158.56

# The fit layer's cost at this commit is bimodal in its input: over synth
# seeds 1-7 the quick-start johnsonsu fit takes either ~0.4 s or ~10 s, and
# beta either ~0.3 s or ~4 s; changing only the analyze seed on fixed data
# moves the total fit time between 7.6 s and 15 s. A per-seed dataset would
# make analyze_s on the fit-bound workloads differ by 3x between seeds, so
# those workloads pin their data and analyze seed (the README's 7).
PINNED_SEED = 7

QUICKSTART_SPEC = {
    "run_count": 10,
    "total_steps": 150000,
    "episode_steps": 100,
    "start_level": 20.0,
    "plateau_level": 135.0,
    "ramp_steps": 60000,
    "noise_scale": 25.0,
}

LONG_LOGS_SPEC = {
    "run_count": 20,
    "total_steps": 3000000,
    "episode_steps": 50,
    "start_level": 20.0,
    "plateau_level": 135.0,
    "ramp_steps": 1200000,
    "noise_scale": 25.0,
}


@dataclass(frozen=True)
class SynthJob:
    """One `rleval synth` call. `run_id`, when set, renames the single run
    the call writes, so that several one-run calls can share a directory."""

    spec: dict
    seed: int
    run_id: str = None


@dataclass(frozen=True)
class Workload:
    name: str
    run_count: int
    families: tuple  # () means every family, the CLI default
    pinned: bool  # inputs and analyze seed ignore the benchmark seed

    def input_seed(self, seed):
        """The seed of the run logs and of `analyze --seed`."""
        return PINNED_SEED if self.pinned else seed

    def synth_jobs(self, input_seed):
        if self.name == "quickstart":
            return [SynthJob(QUICKSTART_SPEC, input_seed)]
        if self.name == "long-logs":
            return [SynthJob(LONG_LOGS_SPEC, input_seed)]
        return skewed_jobs(input_seed)

    def config_text(self):
        return (
            "schema_version: 1\n"
            f"name: {self.name}\n"
            "algorithm: algos.ppo\n"
            "environment: envs.hopper\n"
            "logger: logs.csv\n"
            "tuned_params:\n"
            "  hidden_layers: 2\n"
            "  hidden_size: 64\n"
            "  step_size: 0.0003\n"
            "  gamma: 0.99\n"
            "  lambda: 0.95\n"
            "fixed_params:\n"
            "  max_timesteps: 150000\n"
            f"run_count: {self.run_count}\n"
        )

    def analyze_args(self, config, runs, input_seed, out):
        args = [
            "analyze", str(config), *(str(p) for p in runs),
            "--seed", str(input_seed),
            "--resamples", str(RESAMPLES),
            "--alpha", str(ALPHA),
            "--reported", str(REPORTED),
            "--out", str(out),
        ]
        if self.families:
            args += ["--families", ",".join(self.families)]
        return args


def skewed_jobs(seed):
    """Ten one-run synth calls with the quick-start episode layout; each
    run's plateau is 60 + 40 * LN(0, 0.9), so the run averages, and with
    them the bootstrap means, are right-skewed."""
    rng = np.random.default_rng(seed)
    plateaus = 60.0 + 40.0 * np.exp(0.9 * rng.standard_normal(10))
    seeds = rng.integers(0, 2**32, size=10)
    return [
        SynthJob(
            {**QUICKSTART_SPEC, "run_count": 1, "plateau_level": round(float(level), 6)},
            int(run_seed),
            run_id=f"run-{i:02d}",
        )
        for i, (level, run_seed) in enumerate(zip(plateaus, seeds))
    ]


def spec_text(spec):
    return "".join(f"{key}: {value!r}\n" for key, value in spec.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload("quickstart", 10, (), pinned=True),
        Workload("skewed-runs", 10, (), pinned=True),
        Workload("long-logs", 20, ("normal",), pinned=False),
    )
}
