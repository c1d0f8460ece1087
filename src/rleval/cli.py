"""Command-line interface.

Subcommands mirror the pipeline stages so every intermediate artifact is an
inspectable file: validate, curves, analyze, fit, verify, synth. Commands
never mutate their inputs and write only under --out. Any command that
consumes randomness requires an explicit --seed; there is no silent
time-based seeding.

Exit codes: 0 success, 1 validation error, 2 numeric failure, 3 I/O error.
"""

import argparse
import sys
import warnings
from pathlib import Path

from . import __version__
from ._fmt import fmt_shortest
from ._yamlio import dump_canonical, load_strict
from .config import config_hash, parse_config
from .distributions import FAMILY_NAMES, fit_from_record, fit_record
from .errors import ConfigWarning, NumericError, RlevalError
from .inference import make_verdict
from .ingest import SynthSpec, check_runs, read_run_log_path, synthesize_runs, write_run_dir
from .metrics import (
    DEFAULT_STRIDE,
    DEFAULT_WINDOW,
    curve_band,
    learning_curve,
    write_band_csv,
    write_curve_csv,
)
from .pipeline import fit_family, run_analysis
from .report import emit_bundle, render_probability_table, render_summary_table
from .resample import read_means_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


def _fail(category: str, message: str, code: int) -> int:
    print(f"error: {category}: {message}", file=sys.stderr)
    return code


def _read_config(path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConfigWarning)
        config = parse_config(Path(path).read_text(encoding="utf-8"))
    for item in caught:
        print(f"warning: {path}: {item.message}", file=sys.stderr)
    return config


def cmd_validate(args) -> int:
    status = EXIT_OK
    for path in args.configs:
        try:
            config = _read_config(path)
        except OSError as exc:
            print(f"error: io: {path}: {exc}", file=sys.stderr)
            status = EXIT_IO if status == EXIT_OK else status
            continue
        except RlevalError as exc:
            print(f"error: validation: {path}: {exc}", file=sys.stderr)
            status = EXIT_VALIDATION
            continue
        print(f"{config_hash(config)}  {path}")
    return status


def cmd_curves(args) -> int:
    config = _read_config(args.config)
    runs = [read_run_log_path(p) for p in args.runs]
    check_runs(runs, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    curves = []
    for run in runs:
        curve = learning_curve(run, args.window, args.stride)
        curves.append(curve)
        with open(out / f"{run.run_id}.csv", "w", encoding="utf-8", newline="\n") as fh:
            write_curve_csv(curve, fh)
    if len(curves) >= 2:
        with open(out / "band.csv", "w", encoding="utf-8", newline="\n") as fh:
            write_band_csv(curve_band(curves), fh)
    print(f"wrote {len(curves)} curve file(s) under {out} (config {config_hash(config)[:12]})")
    return EXIT_OK


def _warn_if_unconverged(fit):
    """A stderr warning for a fit whose `converged` is false, with its
    score norm when it has one."""
    if not fit.converged:
        norm = "" if fit.score_norm is None else f": score norm {fit.score_norm:.3g}"
        print(f"warning: {fit.family.name} fit not converged{norm}", file=sys.stderr)


def cmd_analyze(args) -> int:
    config = _read_config(args.config)
    runs = [read_run_log_path(p) for p in args.runs]
    families = args.families.split(",") if args.families else list(FAMILY_NAMES)
    report = run_analysis(
        config,
        runs,
        seed=args.seed,
        resamples=args.resamples,
        alpha=args.alpha,
        reported=args.reported,
        families=[f.strip() for f in families if f.strip()],
        window=args.window,
        stride=args.stride,
    )
    emit_bundle(report, args.out)
    for fit in report.fits:
        _warn_if_unconverged(fit)
    analyzed = report.provenance["runs_analyzed"]
    total = report.provenance["runs_total"]
    print(f"{analyzed} of {total} runs analyzed; bundle written to {args.out}")
    print(render_summary_table(report).render(), end="")
    if report.verdicts:
        print(render_probability_table(report).render(), end="")
    return EXIT_OK


def cmd_fit(args) -> int:
    with open(args.means, "r", encoding="utf-8") as fh:
        means = read_means_csv(fh)
    text = dump_canonical(fit_record(fit_family(args.family, means, args.seed)))
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"fit record written to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    doc = load_strict(Path(args.fit).read_text(encoding="utf-8"))
    fit = fit_from_record(doc)
    verdict = make_verdict(fit, args.reported, alpha=args.alpha)
    _warn_if_unconverged(fit)
    print(f"family: {fit.family.name}")
    print(f"reported_value: {fmt_shortest(verdict.reported_value)}")
    print(f"p_v: {fmt_shortest(verdict.p_v)}")
    print(f"p_d: {fmt_shortest(verdict.p_d)}")
    print(f"combined: {fmt_shortest(verdict.combined)}")
    print(f"alpha: {fmt_shortest(verdict.alpha)}")
    print(f"decision: {verdict.decision.value}")
    return EXIT_OK


def cmd_synth(args) -> int:
    doc = load_strict(Path(args.spec).read_text(encoding="utf-8"))
    spec = SynthSpec.from_mapping(doc)
    runs = synthesize_runs(spec, seed=args.seed)
    written = write_run_dir(runs, args.out)
    print(f"wrote {len(written)} file(s) under {args.out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for numeric
    failures, so usage problems map to the validation exit code."""

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"error: validation: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rleval",
        description="Statistical evaluation and reproducibility verification "
        "for episodic learning experiments.",
    )
    parser.add_argument("--version", action="version", version=f"rleval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse configs, check invariants, print digests")
    p.add_argument("configs", nargs="+")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("curves", help="per-run learning-curve CSVs plus the mean/SE band")
    p.add_argument("config")
    p.add_argument("runs", nargs="+")
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("analyze", help="full pipeline: bootstrap, fits, verdicts, bundle")
    p.add_argument("config")
    p.add_argument("runs", nargs="+")
    p.add_argument("--resamples", type=int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reported", type=float, default=None)
    p.add_argument("--families", default=None, help="comma-separated family names")
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fit", help="fit one family to a means vector")
    p.add_argument("means")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument(
        "--seed", type=int, required=True,
        help="analyze's --seed; only loggamma's fit reads it, for its jittered starts",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("verify", help="verdict from a stored fit record")
    p.add_argument("fit")
    p.add_argument("--reported", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synth", help="generate synthetic run logs for testing")
    p.add_argument("spec")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        return _fail("numeric", str(exc), EXIT_NUMERIC)
    except RlevalError as exc:
        return _fail("validation", str(exc), EXIT_VALIDATION)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
