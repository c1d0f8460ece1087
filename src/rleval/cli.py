"""Command-line interface.

Subcommands mirror the pipeline stages so every intermediate artifact is an
inspectable file: validate, curves, analyze, fit, verify, synth. Commands
never mutate their inputs: they write only under --out, and refuse one that
would write over an input, through a link too. Any command that consumes
randomness requires an explicit --seed; there is no silent time-based seeding.

Exit codes: 0 success, 1 validation error, 2 numeric failure, 3 I/O error.

Every command pays this module's start-up, and `validate` needs only
PyYAML. So the module level imports only the standard library and the
numpy-free modules: `config` with its YAML and number formatting,
`errors`, and `metrics`. Each other command imports its library modules
when it runs, so `validate`, `--help`, `--version` and usage errors never
load numpy. `synth` loads numpy with `ingest` and `rng`, which holds the
normal quantile, and `curves` with `ingest`, `metrics` and `report`;
neither loads `special`. `analyze` loads `special`, `distributions` and
`pipeline`, and `fit` the first two, but neither loads numpy.ma or
numpy.polynomial: the fits take medians as the type-7 quantile, by
sorting, and Owen's T reads its Gauss-Legendre nodes from a table. Every input file is decoded
by `_yamlio.read_text`, so a file that is not UTF-8 is a validation error.
No command loads OpenSSL for inputs under 1 MiB:
`_digest` hashes them with CPython's own SHA-256, since loading libcrypto
costs ~3 ms and 3.4 MB resident, more than its speed saves on so few bytes.

`main` starts OpenBLAS on one thread, unless OPENBLAS_NUM_THREADS is set or
numpy is already loaded. No command makes a BLAS call that a second thread
would speed up, yet OpenBLAS starts its workers when numpy loads and they
spin: on the quick-start `analyze` that cost about 0.12 s of CPU on a
2-vCPU host. Only the variable, read when numpy loads, stops them; setting
the thread count later does not.
"""

import argparse
import io
import os
import sys
import warnings

from . import __version__
from ._fmt import fmt_shortest
from ._yamlio import dump_canonical, load_strict, read_text
from .config import config_hash, parse_config
from .errors import ConfigWarning, NumericError, RlevalError
from .metrics import (
    DEFAULT_STRIDE,
    DEFAULT_WINDOW,
    curve_band,
    learning_curve,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


def _fail(category: str, message: str, code: int) -> int:
    print(f"error: {category}: {message}", file=sys.stderr)
    return code


def _parse_config(path, text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConfigWarning)
        config = parse_config(text)
    for item in caught:
        print(f"warning: {path}: {item.message}", file=sys.stderr)
    return config


def cmd_validate(args) -> int:
    status = EXIT_OK
    for path in args.configs:
        where = ""  # read_text's errors name the file, the parser's do not
        try:
            text = read_text(path)
            where = f"{path}: "
            config = _parse_config(path, text)
        except OSError as exc:
            print(f"error: io: {path}: {exc}", file=sys.stderr)
            status = EXIT_IO if status == EXIT_OK else status
            continue
        except RlevalError as exc:
            print(f"error: validation: {where}{exc}", file=sys.stderr)
            status = EXIT_VALIDATION
            continue
        print(f"{config_hash(config)}  {path}")
    return status


def cmd_curves(args) -> int:
    from .ingest import check_runs, read_run_log_path, write_files
    from .report import curve_texts

    config = _parse_config(args.config, read_text(args.config))
    runs = [read_run_log_path(p) for p in args.runs]
    check_runs(runs, config)
    curves = [(run.run_id, learning_curve(run, args.window, args.stride)) for run in runs]
    band = curve_band([curve for _, curve in curves]) if len(curves) >= 2 else None
    texts = curve_texts(curves, band)
    write_files(args.out, list(texts), texts.values(), "curves call",
                inputs=[args.config, *args.runs])
    print(f"wrote {len(curves)} curve file(s) under {args.out} "
          f"(config {config_hash(config)[:12]})")
    return EXIT_OK


def _warn_about(fit):
    """A stderr warning for a fit whose `converged` is false, with its
    score norm when it has one, and one for a fit at its family's shape
    cap (loggamma's c = 1e6), beyond which its normal limit lies."""
    name, cap = fit.family.name, fit.family.shape_cap
    if not fit.converged:
        norm = "" if fit.score_norm is None else f": score norm {fit.score_norm:.3g}"
        print(f"warning: {name} fit not converged{norm}", file=sys.stderr)
    if cap is not None and fit.shapes[0] == cap:
        print(f"warning: {name} fit at its shape cap c = {cap:g}; its normal limit lies beyond",
              file=sys.stderr)


def cmd_analyze(args) -> int:
    from .distributions import FAMILY_NAMES
    from .ingest import apply_exclusions, read_run_log_path, refuse_stale_files
    from .pipeline import run_analysis
    from .report import bundle_files, emit_bundle, render_probability_table, render_summary_table

    config = _parse_config(args.config, read_text(args.config))
    runs = [read_run_log_path(p) for p in args.runs]
    kept = apply_exclusions(runs, config).runs
    names = bundle_files([run.run_id for run in kept], args.reported is not None)
    refuse_stale_files(args.out, names, inputs=[args.config, *args.runs])
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
        _warn_about(fit)
    analyzed = report.provenance["runs_analyzed"]
    total = report.provenance["runs_total"]
    print(f"{analyzed} of {total} runs analyzed; bundle written to {args.out}")
    print(render_summary_table(report).render(), end="")
    if report.verdicts:
        print(render_probability_table(report).render(), end="")
    return EXIT_OK


def cmd_fit(args) -> int:
    from .distributions import fit_mle, fit_record, get_family, with_gof
    from .ingest import refuse_inputs, write_file
    from .resample import read_means_csv

    get_family(args.family)  # an unknown family fails before the means are read
    means = read_means_csv(io.StringIO(read_text(args.means), newline=None))
    if args.out:
        refuse_inputs([args.out], [args.means], "fit call")
    text = dump_canonical(fit_record(with_gof(fit_mle(args.family, means), means)))
    print(text, end="")
    if args.out:
        write_file(args.out, text)
        print(f"fit record written to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .distributions import fit_from_record
    from .inference import make_verdict

    doc = load_strict(read_text(args.fit))
    fit = fit_from_record(doc)
    verdict = make_verdict(fit, args.reported, alpha=args.alpha)
    _warn_about(fit)
    print(f"family: {fit.family.name}")
    print(f"reported_value: {fmt_shortest(verdict.reported_value)}")
    print(f"p_v: {fmt_shortest(verdict.p_v)}")
    print(f"p_d: {fmt_shortest(verdict.p_d)}")
    print(f"combined: {fmt_shortest(verdict.combined)}")
    print(f"alpha: {fmt_shortest(verdict.alpha)}")
    print(f"decision: {verdict.decision.value}")
    return EXIT_OK


def cmd_synth(args) -> int:
    from .ingest import SynthSpec, synthesize_runs, write_run_dir

    doc = load_strict(read_text(args.spec))
    spec = SynthSpec.from_mapping(doc)
    runs = synthesize_runs(spec, seed=args.seed)
    written = write_run_dir(runs, args.out, inputs=[args.spec])
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
    p.add_argument("--seed", type=int, required=True,
                   help="the bootstrap's seed; no fit reads one")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reported", type=float, default=None)
    p.add_argument("--families", default=None, help="comma-separated family names")
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fit", help="fit one family to a means vector")
    p.add_argument("means")
    p.add_argument("--family", required=True, help="one of the families analyze fits")
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
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
