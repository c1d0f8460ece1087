"""Measurement for the rleval benchmark: the untraced CLI timings, the traced
run, and the report both end with. run.py is the entry point."""

import hashlib
import json
import os
import shutil
import statistics
import time
from pathlib import Path

from rleval.distributions import FAMILY_NAMES

import checks
from workloads import ALPHA, REPORTED, RESAMPLES, WORKLOADS, spec_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 7
# `synth` repeats until it has made this many calls and spent this many
# seconds, half of that before the analyze repeats and half after: about 8
# repeats on quickstart, 4 on long-logs, 1 or 2 (of ten calls) on
# skewed-runs.
SYNTH_CALLS = 4
SYNTH_SECONDS = 3.0
MIN_ANALYZE_REPEATS = 2
# No analyze repeat starts if it would likely end past this many seconds of
# the benchmark's own run time.
RUN_DEADLINE = 150.0

KERNELS = (
    "std_normal_cdf", "std_normal_logcdf", "owens_t", "std_normal_quantile",
    "reg_inc_beta", "reg_inc_gamma_lower", "ks_one_sample_pvalue",
)


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what, problems):
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(f"{what}: {p}" for p in problems)


def exit_problems(sample):
    if sample.code == 0:
        return []
    return [f"exit code {sample.code}: {sample.output.strip()[-300:]}"]


def tree_digest(directory):
    """SHA-256 over every file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(directory).rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def collect_runs(jobs, source, runs_dir):
    """Move each synth job's files into one directory; returns the run CSVs."""
    runs_dir.mkdir(parents=True)
    for index, job in enumerate(jobs):
        for path in sorted((source / f"job{index:02d}").iterdir()):
            name = path.name
            if job.run_id is not None:
                name = job.run_id + name[len("synth-00"):]
            path.rename(runs_dir / name)
    return sorted(runs_dir.glob("*.csv"))


def write_inputs(workload, jobs, work):
    config = work / "experiment.yaml"
    config.write_text(workload.config_text(), encoding="utf-8")
    specs = []
    for index, job in enumerate(jobs):
        spec = work / f"spec{index:02d}.yaml"
        spec.write_text(spec_text(job.spec), encoding="utf-8")
        specs.append(spec)
    return config, specs


def bundle_problems(bundle, averages, families):
    problems, fits = checks.check_bundle(
        bundle, families=families, averages=averages, resamples=RESAMPLES,
        alpha=ALPHA, reported=REPORTED,
    )
    return problems, fits, checks.sha256_file(bundle / "manifest.txt")


def metric(value, unit, samples=None):
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def median_metric(values, unit):
    return metric(statistics.median(values), unit, len(values))


def run_untraced(spawner, workload, input_seed, seconds, work, ledger, record, began):
    jobs = workload.synth_jobs(input_seed)
    config, specs = write_inputs(workload, jobs, work)
    families = workload.families or FAMILY_NAMES

    setup, digests = [], set()

    def validate():
        sample = spawner.run_cli(["validate", config], work)
        problems = exit_problems(sample)
        digests.add(sample.output.split(" ", 1)[0])
        if len(digests) != 1:
            problems.append("validate printed different config digests")
        ledger.record("validate", problems)
        setup.append(sample.wall)

    synth_walls, trees = [], set()

    def synth():
        rep = len(synth_walls)
        wall = 0.0
        for index, (job, spec) in enumerate(zip(jobs, specs)):
            out = work / f"synth{rep}" / f"job{index:02d}"
            sample = spawner.run_cli(["synth", spec, "--seed", job.seed, "--out", out], work)
            ledger.record(f"synth {rep}.{index}", exit_problems(sample))
            wall += sample.wall
        synth_walls.append(wall)
        trees.add(tree_digest(work / f"synth{rep}"))
        if rep:
            shutil.rmtree(work / f"synth{rep}")

    def synth_until(calls, seconds):
        while len(synth_walls) * len(jobs) < calls or sum(synth_walls) < seconds:
            synth()

    # The machine's speed drifts over tens of seconds, so part of the set-up
    # and synth samples are taken before the analyze repeats and the rest
    # after them.
    for _ in range(SETUP_REPEATS // 2):
        validate()
    synth_until(SYNTH_CALLS / 2, SYNTH_SECONDS / 2)
    runs = collect_runs(jobs, work / "synth0", work / "runs")
    averages = checks.run_averages(runs)

    analyze, manifests = [], []
    start = time.perf_counter()
    while True:
        out = work / f"bundle{len(analyze)}"
        sample = spawner.run_cli(workload.analyze_args(config, runs, input_seed, out), work)
        problems = exit_problems(sample)
        if not problems:
            found, _, manifest = bundle_problems(out, averages, families)
            problems += found
            manifests.append(manifest)
            if manifest != manifests[0]:
                problems.append("bundle differs from the first repeat's")
        ledger.record(f"analyze {len(analyze)}", problems)
        analyze.append(sample)
        shutil.rmtree(out, ignore_errors=True)
        # After the minimum, repeats continue while the next one should end
        # within `seconds`.
        elapsed = time.perf_counter() - start
        per_repeat = elapsed / len(analyze)
        if time.perf_counter() - began + per_repeat > RUN_DEADLINE:
            break
        if len(analyze) >= MIN_ANALYZE_REPEATS and elapsed + per_repeat > seconds:
            break

    while len(setup) < SETUP_REPEATS:
        validate()
    synth_until(SYNTH_CALLS, SYNTH_SECONDS)
    if len(trees) != 1:
        ledger.record("synth", ["repeats wrote different run logs"])

    record["manifest_sha256"] = manifests[0] if manifests else None
    record["samples"] = {
        "analyze_s": [s.wall for s in analyze],
        "analyze_cpu_s": [s.cpu for s in analyze],
        "peak_rss_mb": [s.rss_mb for s in analyze],
        "synth_s": synth_walls,
        "setup_s": setup,
    }
    return {
        "analyze_s": median_metric([s.wall for s in analyze], "s"),
        "analyze_cpu_s": median_metric([s.cpu for s in analyze], "s"),
        "peak_rss_mb": median_metric([s.rss_mb for s in analyze], "MB"),
        "synth_s": median_metric(synth_walls, "s"),
        "setup_s": median_metric(setup, "s"),
    }


def run_traced(spawner, workload, input_seed, work, ledger, record):
    import tracing

    jobs = workload.synth_jobs(input_seed)
    config, _ = write_inputs(workload, jobs, work)
    config_text = config.read_text(encoding="utf-8")
    families = list(workload.families or FAMILY_NAMES)
    tracer = tracing.Tracer()
    tracing.synth_inputs(tracer, jobs, work / "synth")
    runs = collect_runs(jobs, work / "synth", work / "runs")
    averages = checks.run_averages(runs)
    settings = dict(seed=input_seed, resamples=RESAMPLES, alpha=ALPHA,
                    reported=REPORTED, families=families)

    untraced_s = tracing.analyze_untraced(config_text, runs, out=work / "inproc", **settings)
    report, root = tracing.analyze_traced(tracer, config_text, runs, out=work / "traced", **settings)
    problems, fits, traced_sha = bundle_problems(work / "traced", averages, families)
    record["fits"] = fits
    converged = {family: fit["converged"] for family, fit in fits.items()}
    if checks.sha256_file(work / "inproc" / "manifest.txt") != traced_sha:
        problems.append("stage-by-stage bundle differs from run_analysis's")
    ledger.record("traced analyze", problems)

    sample = spawner.run_cli(workload.analyze_args(config, runs, input_seed, work / "cli"), work)
    problems = exit_problems(sample)
    if not problems:
        problems, _, cli_sha = bundle_problems(work / "cli", averages, families)
        if cli_sha != traced_sha:
            problems.append("CLI bundle digest differs from the traced bundle's")
    ledger.record("cli analyze", problems)
    record["manifest_sha256"] = traced_sha

    remaining = tracing.fit_remaining(tracer, report.bootstrap.means, families, input_seed)
    converged.update((fit.family.name, bool(fit.converged)) for fit in remaining)
    kernels = tracing.kernel_timings(report.bootstrap.means, report.fits + remaining)
    record["kernels_us"] = {k: {"rleval": ours, "scipy": ref} for k, (ours, ref) in kernels.items()}

    def span_total(name):
        return metric(tracer.total(name), "s")

    def counter(span_name, key, unit):
        return metric(sum(s.get(key, 0) for s in tracer.spans if s["name"] == span_name), unit)

    total = root["end"] - root["start"]
    out = {
        "config.parse_s": span_total("config.parse"),
        "ingest.read_s": span_total("ingest.read"),
        "ingest.episodes": counter("ingest.read", "episodes", "count"),
        "ingest.input_bytes": counter("ingest.read", "input_bytes", "B"),
        "ingest.synth_s": span_total("ingest.synth"),
        "ingest.write_s": span_total("ingest.write"),
        "metrics.curves_s": span_total("metrics.curves"),
        "metrics.band_s": span_total("metrics.band"),
        "metrics.averages_s": span_total("metrics.averages"),
        "metrics.curve_points": counter("metrics.curves", "curve_points", "count"),
        "resample.bootstrap_s": span_total("resample.bootstrap"),
        "resample.resamples": counter("resample.bootstrap", "resamples", "count"),
        "inference.normality_s": span_total("inference.normality"),
        "inference.verdicts_s": span_total("inference.verdicts"),
    }
    for family in FAMILY_NAMES:
        out[f"distributions.fit_s.{family}"] = span_total(f"distributions.fit.{family}")
        out[f"distributions.ks_s.{family}"] = span_total(f"distributions.ks.{family}")
    for family in FAMILY_NAMES:
        out[f"distributions.converged.{family}"] = metric(int(converged[family]), "count")
    out["distributions.converged_ratio"] = metric(
        sum(converged.values()) / len(converged), "ratio")
    for kernel in KERNELS:
        out[f"special.{kernel}_us"] = metric(kernels[kernel][0], "us")
    out.update({
        "report.emit_s": span_total("report.emit"),
        "report.bundle_bytes": counter("report.emit", "bundle_bytes", "B"),
        "report.files": counter("report.emit", "files", "count"),
        "trace.total_s": metric(total, "s"),
        "trace.unaccounted_s": metric(tracer.self_time(root), "s"),
        "trace.overhead_s": metric(total - untraced_s, "s"),
    })
    return out, tracer


def recorded_digest(workload, input_seed):
    if not DIGESTS.exists():
        return None
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get(workload.name, {}).get(str(input_seed))


def print_report(args, input_seed, metrics, record, ledger):
    print(f"workload {args.workload}  seed {args.seed}  input seed {input_seed}  "
          f"trace {args.trace}")
    for name, m in metrics.items():
        count = f"  (median of {m['samples']})" if "samples" in m else ""
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{count}")
    for kernel, pair in record.get("kernels_us", {}).items():
        print(f"  scipy reference {kernel:25s} {pair['scipy']:.6g} us  "
              f"(rleval/scipy {pair['rleval'] / pair['scipy']:.3g}x)")
    sha = record.get("manifest_sha256")
    expected = record.get("recorded_sha256")
    match = "no digest recorded" if expected is None else (
        "matches the recorded digest" if sha == expected else "differs from the recorded digest")
    print(f"  manifest sha256 {sha}  ({match})")
    print(f"  operations {ledger.attempted} attempted, {ledger.failed} failed")
    for problem in ledger.problems:
        print(f"  FAILED {problem}")


def measure(args, spawner, began):
    workload = WORKLOADS[args.workload]
    input_seed = workload.input_seed(args.seed) if args.data_seed is None else args.data_seed
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    record = {"workload": args.workload, "seed": args.seed, "input_seed": input_seed,
              "trace": args.trace}
    try:
        if args.trace:
            metrics, tracer = run_traced(spawner, workload, input_seed, work, ledger, record)
        else:
            metrics = run_untraced(spawner, workload, input_seed, args.seconds, work, ledger,
                                   record, began)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(stem.with_name(stem.name + "-spans.json"))

    record["recorded_sha256"] = recorded_digest(workload, input_seed)
    record.update(metrics=metrics, attempted=ledger.attempted, problems=ledger.problems)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_report(args, input_seed, metrics, record, ledger)
    print(json.dumps({
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0
