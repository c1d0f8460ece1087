"""loggamma's jittered simplex searches in a forked child process
(`pipeline._in_child`): the parent fits every other family before it waits
on the child, the fits come back in the order asked for, the bundle and
`rleval fit`'s record are the same with the child and without it, an
error raised in the child is raised in the parent, an error in the parent
and a killed child each raise without hanging, and no child process is
left after any of them."""

import os
import signal
import threading
import time

import numpy as np
import pytest

from conftest import WORKLOAD_RESAMPLES, WORKLOAD_SEED, _workload_runs, workload_analysis
from rleval import pipeline
from rleval.cli import main
from rleval.distributions import FAMILY_NAMES, fit_record
from rleval.errors import NumericError
from rleval.metrics import run_average_return
from rleval.report import emit_bundle
from rleval.resample import bootstrap_means, write_means_csv

needs_child = pytest.mark.skipif(
    not pipeline._fork_pays(), reason="a child needs os.fork, two usable CPUs and one thread")

# Means small enough that a loggamma fit on them takes milliseconds.
SMALL_MEANS = np.random.default_rng(25).normal(100.0, 5.0, 200)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children `pipeline` forks during the test."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(pipeline.os, "fork", counted)
    yield pids
    assert_no_child_left()


def _inline(monkeypatch):
    monkeypatch.setattr(pipeline, "_fork_pays", lambda: False)


def _record_fits(monkeypatch):
    """The names of the families `pipeline` calls `fit_mle` on, in call
    order."""
    calls = []
    fit_mle = pipeline.fit_mle

    def recorded(family, *args, **kwargs):
        calls.append(family.name)
        return fit_mle(family, *args, **kwargs)

    monkeypatch.setattr(pipeline, "fit_mle", recorded)
    return calls


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_no_child_beside_another_thread():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not pipeline._fork_pays()
    finally:
        release.set()
        thread.join()


@needs_child
def test_child_returns_its_result(forks):
    with pipeline._in_child(lambda: (os.getpid(), [0.1, np.float64(2.5)])) as result:
        pid, value = result()
    assert forks == [pid] and pid != os.getpid()
    assert value == [0.1, 2.5]


@needs_child
def test_loggamma_fitted_after_every_other_family(forks, monkeypatch):
    """The parent fits the families that wait on no child first, in the
    order given, so it reaches loggamma's wait for the child last."""
    calls = _record_fits(monkeypatch)
    fits = pipeline.fit_families(FAMILY_NAMES, SMALL_MEANS, WORKLOAD_SEED)
    assert len(forks) == 1
    assert calls == [name for name in FAMILY_NAMES if name != "loggamma"] + ["loggamma"]
    assert [fit.family.name for fit in fits] == list(FAMILY_NAMES)


def test_fits_in_the_order_given_without_a_child(monkeypatch):
    _inline(monkeypatch)
    calls = _record_fits(monkeypatch)
    pipeline.fit_families(FAMILY_NAMES, SMALL_MEANS, WORKLOAD_SEED)
    assert calls == list(FAMILY_NAMES)


def test_fits_returned_in_the_order_given():
    """For a shuffled family list the fits come back in that list's order,
    each the record the full analysis wrote for its family."""
    analysis = workload_analysis("quickstart", _workload_runs("quickstart", WORKLOAD_SEED))
    full = {fit.family.name: fit_record(fit) for fit in analysis.fits}
    names = ["skewnorm", "loggamma", "normal", "johnsonsu", "powernorm", "beta", "johnsonsb"]
    assert sorted(names) == sorted(FAMILY_NAMES) and names != list(FAMILY_NAMES)
    fits = pipeline.fit_families(names, analysis.bootstrap.means, WORKLOAD_SEED)
    assert [fit.family.name for fit in fits] == names
    assert [fit_record(fit) for fit in fits] == [full[name] for name in names]


@needs_child
def test_bundle_same_with_and_without_the_child(forks, monkeypatch, tmp_path):
    runs = _workload_runs("quickstart", WORKLOAD_SEED)
    emit_bundle(workload_analysis("quickstart", runs), tmp_path / "child")
    assert len(forks) == 1
    _inline(monkeypatch)
    emit_bundle(workload_analysis("quickstart", runs), tmp_path / "inline")
    assert len(forks) == 1
    assert _files(tmp_path / "child") == _files(tmp_path / "inline")


@needs_child
def test_cli_fit_same_with_and_without_the_child(forks, monkeypatch, tmp_path, capsys):
    runs = _workload_runs("quickstart", WORKLOAD_SEED)
    boot = bootstrap_means([run_average_return(run) for run in runs], WORKLOAD_RESAMPLES,
                           seed=WORKLOAD_SEED)
    means = tmp_path / "means.csv"
    with open(means, "w", encoding="utf-8", newline="\n") as fh:
        write_means_csv(boot, fh)
    printed = []
    for side in ("child", "inline"):
        if side == "inline":
            _inline(monkeypatch)
        out = tmp_path / f"{side}.yaml"
        assert main(["fit", str(means), "--family", "loggamma", "--seed", str(WORKLOAD_SEED),
                     "--out", str(out)]) == 0
        printed.append((capsys.readouterr().out.replace(str(out), "OUT"), out.read_bytes()))
    assert len(forks) == 1
    assert printed[0] == printed[1]


@needs_child
def test_child_error_is_raised_in_the_parent(forks, monkeypatch):
    def fail(*args):
        raise NumericError(f"injected in process {os.getpid()}")

    monkeypatch.setattr(pipeline, "jittered_searches", fail)
    with pytest.raises(NumericError) as raised:
        pipeline.fit_families(["loggamma"], SMALL_MEANS, WORKLOAD_SEED)
    assert type(raised.value) is NumericError
    assert str(raised.value) == f"injected in process {forks[0]}"


@needs_child
def test_parent_error_kills_the_child(forks, monkeypatch):
    """The child would sleep for a minute; a parent-side error in another
    family's fit ends the analysis at once."""
    fit_mle = pipeline.fit_mle

    def fail_beta(family, *args, **kwargs):
        if family.name == "beta":
            raise NumericError("injected in the parent")
        return fit_mle(family, *args, **kwargs)

    monkeypatch.setattr(pipeline, "jittered_searches", lambda *args: time.sleep(60.0))
    monkeypatch.setattr(pipeline, "fit_mle", fail_beta)
    began = time.perf_counter()
    with pytest.raises(NumericError, match="^injected in the parent$"):
        workload_analysis("quickstart", _workload_runs("quickstart", WORKLOAD_SEED),
                          resamples=200)
    assert time.perf_counter() - began < 30.0
    assert len(forks) == 1


@needs_child
def test_killed_child_raises(forks, monkeypatch):
    monkeypatch.setattr(pipeline, "jittered_searches",
                        lambda *args: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(ChildProcessError, match=f"by signal {int(signal.SIGKILL)} "):
        pipeline.fit_families(["loggamma"], SMALL_MEANS, WORKLOAD_SEED)
    assert len(forks) == 1


def test_no_child_where_it_would_not_pay(monkeypatch):
    """`fit_mle` runs the jittered searches itself, and the fit equals the
    one made with them passed in."""
    _inline(monkeypatch)
    monkeypatch.setattr(pipeline.os, "fork", None)  # a fork here would fail the test
    (inline,) = pipeline.fit_families(["loggamma"], SMALL_MEANS, WORKLOAD_SEED)
    fitting_seed = pipeline.fitting_seed_for(WORKLOAD_SEED, pipeline.FAMILY_NAMES.index("loggamma"))
    searches = pipeline.jittered_searches("loggamma", SMALL_MEANS, fitting_seed)
    passed = pipeline.fit_mle("loggamma", SMALL_MEANS, fitting_seed=fitting_seed,
                              jittered=lambda: searches)
    assert repr(fit_record(inline)) == repr(fit_record(pipeline.with_gof(passed, SMALL_MEANS)))
