"""End-to-end analysis: exclusions, curves, averages, bootstrap, normality,
fits, KS, verdicts, report.

The stages run in order and family fits run in the order given, with one
exception: loggamma's two jittered simplex searches, about a third of
`analyze`'s time, run in a forked child process (`_in_child`) from before
the first fit, and the fit collects them after its moment-start search.
`fit_families` makes that choice and the fits, for `analyze` and for
`rleval fit` alike. The child sends back exactly what the parent would
have computed, so no output depends on whether it ran. Every random draw
derives from the one master seed: the bootstrap uses it directly, and each
family's fitting seed mixes the family's index in FAMILY_NAMES into it.
The fitting seed reaches only loggamma's two jittered simplex starts; the
other six fits draw nothing. A family's fit does not depend on which other
families are fitted or in which order.
"""

import math
import os
import pickle
import signal
import threading
from contextlib import ExitStack, contextmanager
from functools import partial

from .config import config_hash
from .distributions import FAMILY_NAMES, fit_mle, get_family, jittered_searches, with_gof
from .errors import ValidationError
from .inference import DEFAULT_ALPHA, dagostino_pearson, verify_reproducibility
from .ingest import apply_exclusions
from .metrics import (
    DEFAULT_STRIDE,
    DEFAULT_WINDOW,
    curve_band,
    learning_curve,
    run_average_return,
)
from .report import AnalysisReport, build_provenance
from .resample import DEFAULT_CONFIDENCE, DEFAULT_RESAMPLES, bootstrap_means
from .rng import splitmix64, validate_seed


def fitting_seed_for(master_seed: int, family_index: int) -> int:
    """Fitting seed of the family at `family_index` in FAMILY_NAMES."""
    return splitmix64(master_seed ^ (0xF17 + family_index))


def _fork_pays():
    """Whether a forked child can run beside this process: fork exists, two
    CPUs are usable, and no other thread could hold a lock the child needs.
    Usable CPUs are those of the process's affinity mask; a cgroup CPU
    quota is not read."""
    if not hasattr(os, "fork"):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) >= 2 and threading.active_count() == 1


@contextmanager
def _in_child(fn):
    """Starts fn() in a forked child process and yields a function that
    waits for its result and returns it, or raises the exception fn raised
    there. The result comes back pickled through a pipe. The child ends with
    os._exit, so it flushes none of the parent's buffers and runs no exit
    handler. On leaving the block the child is reaped; if its result was
    not collected (the parent raised first), it is killed."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                outcome = (True, fn())
            except BaseException as exc:
                outcome = (False, exc)
            with open(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe)
        except BaseException:
            os._exit(1)
        os._exit(0)
    os.close(write_fd)
    reaped = False

    def result():
        nonlocal reaped
        with open(read_fd, "rb", closefd=False) as pipe:
            payload = pipe.read()
        _, status = os.waitpid(pid, 0)
        reaped = True
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            how = f"by signal {-code}" if code < 0 else f"with exit status {code}"
            raise ChildProcessError(f"the fitting process ended {how} before its result")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        os.close(read_fd)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def fit_families(names, means, seed: int):
    """The fits of the families `names` to `means` under master seed `seed`,
    in order, each with its KS statistic and p-value. Where a child pays
    (`_fork_pays`), each simplex family's jittered searches start in a
    child process before the first fit; elsewhere `fit_mle` runs them."""
    validate_seed(seed)
    families = [get_family(name) for name in names]
    seeds = [fitting_seed_for(seed, FAMILY_NAMES.index(family.name)) for family in families]
    with ExitStack() as stack:
        jittered = [
            stack.enter_context(_in_child(partial(jittered_searches, family, means, fitting_seed)))
            if family.simplex and _fork_pays() else None
            for family, fitting_seed in zip(families, seeds)
        ]
        return [
            with_gof(fit_mle(family, means, fitting_seed=fitting_seed, jittered=collect), means)
            for family, fitting_seed, collect in zip(families, seeds, jittered)
        ]


def run_analysis(
    config,
    runs,
    *,
    seed: int,
    resamples: int = DEFAULT_RESAMPLES,
    alpha: float = DEFAULT_ALPHA,
    reported=None,
    families=FAMILY_NAMES,
    window: int = DEFAULT_WINDOW,
    stride: int = DEFAULT_STRIDE,
) -> AnalysisReport:
    validate_seed(seed)
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    if resamples < 20:  # the normality test and the fits need 20 means
        raise ValidationError(f"resamples must be at least 20, got {resamples}")
    if reported is not None and not math.isfinite(reported):
        raise ValidationError(f"reported value must be finite, got {reported}")
    families = [get_family(f).name for f in families]
    if not families:
        raise ValidationError("no family requested: name at least one to fit")
    if len(set(families)) != len(families):
        raise ValidationError("duplicate family names requested")

    digest = config_hash(config)
    trial_set = apply_exclusions(list(runs), config)

    curves = tuple(
        (run.run_id, learning_curve(run, window, stride)) for run in trial_set.runs
    )
    band = curve_band([c for _, c in curves]) if len(curves) >= 2 else None
    averages = tuple((run.run_id, run_average_return(run)) for run in trial_set.runs)

    boot = bootstrap_means(
        [value for _, value in averages], resamples, seed=seed, confidence=DEFAULT_CONFIDENCE
    )
    normality = dagostino_pearson(boot.means, alpha=alpha)

    fits = tuple(fit_families(families, boot.means, seed))

    verdicts = ()
    if reported is not None:
        verdicts = tuple(verify_reproducibility(boot, fits, reported, alpha=alpha))

    provenance = build_provenance(
        config_digest=digest,
        config_name=config.name,
        seed=seed,
        resamples=resamples,
        confidence=DEFAULT_CONFIDENCE,
        alpha=alpha,
        window=window,
        stride=stride,
        families=families,
        reported_value=reported,
        runs_total=config.run_count,
        runs_excluded=trial_set.exclusion_reasons,
        ks_mode="exact",
        average_return_mode="episodes",
    )
    return AnalysisReport(
        config=config,
        config_digest=digest,
        reported_value=reported,
        bootstrap=boot,
        normality=normality,
        fits=fits,
        verdicts=verdicts,
        run_averages=averages,
        curves=curves,
        band=band,
        provenance=provenance,
    )
