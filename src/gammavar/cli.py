"""Command line runner: norm computations, verification suites, integration.

Reports are JSON documents with sorted keys written to stdout (or to the path
the config's output section names); CSV and SVG renderings are optional.
Progress notes, wall-clock duration, and thread count go to stderr, keeping
report bytes a pure function of config and seed.  Exit codes: 0 all checks
pass, 2 at least one check failed, 1 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ._version import __version__
from .groupings import SizeLimitError
from .reports import SuiteReport, render_csv, render_json, render_line_chart
from .suites import (
    SUITE_NAMES,
    ConfigError,
    resolve_config,
    run_integrate,
    run_norms,
    run_suite,
)

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammavar",
        description="Variation norms of vector measures: computations and "
        "verification suites.",
    )
    parser.add_argument("--version", action="version", version=f"gammavar {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--config", metavar="PATH", help="JSON config document")
        sub.add_argument("--seed", type=int, metavar="U64", help="override engine.seed")
        sub.add_argument(
            "--samples", type=int, metavar="N", help="override engine.samples"
        )
        sub.add_argument("--paths", type=int, metavar="N", help="override engine.paths")
        sub.add_argument(
            "--threads",
            type=int,
            default=1,
            metavar="N",
            help="worker threads for independent instances (default 1)",
        )
        sub.add_argument("--csv", metavar="PATH", help="also write the report as CSV")
        sub.add_argument(
            "--svg", metavar="PATH", help="also write a line chart where available"
        )
        sub.add_argument(
            "--report", metavar="PATH", help="write the JSON report here, not stdout"
        )

    norms = subparsers.add_parser(
        "norms", help="compute all norms of a configured measure or density"
    )
    add_common(norms)

    verify = subparsers.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", choices=SUITE_NAMES, metavar="suite")
    add_common(verify)

    integrate = subparsers.add_parser(
        "integrate", help="stochastic integral ensemble statistics for a density"
    )
    add_common(integrate)
    return parser


_DEFAULT_INTEGRATE_CONFIG = {
    "partition": {"uniform": 4},
    "space": {"dim": 2, "norm": "l2"},
    "input": {"density": [[3.0, 4.0], [3.0, 4.0], [3.0, 4.0], [3.0, 4.0]]},
}


def _load_config_document(path: str | None) -> dict | None:
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError("config: the top-level JSON value must be an object")
    return document


def _chart_for(report: SuiteReport) -> str | None:
    """A chart of any checks carrying an 'n' abscissa (the divergence suite)."""
    series: dict[str, tuple[list[float], list[float]]] = {}
    labels = {
        "total-variation": ("total_variation", "total variation"),
        "randomized-exact": ("randomized_variation", "randomized variation"),
    }
    for check in report.checks:
        for prefix, (key, label) in labels.items():
            if check.name.startswith(prefix) and "n" in check.values:
                xs, ys = series.setdefault(label, ([], []))
                xs.append(float(check.values["n"]))
                ys.append(float(check.values[key]))
    if not series or all(len(xs) < 2 for xs, _ in series.values()):
        return None
    return render_line_chart(
        series,
        title="Norm growth with partition size",
        x_label="atoms (log scale)",
        y_label="norm",
        log_x=True,
    )


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _emit(report: SuiteReport, args: argparse.Namespace, document: dict | None) -> None:
    """Write the report everywhere it was asked for; flags beat config paths."""
    outputs = {}
    if document and isinstance(document.get("output"), dict):
        outputs = document["output"]
    report_path = args.report or outputs.get("report")
    rendered = render_json(report.to_document())
    if report_path:
        _write_text(str(report_path), rendered)
        print(f"report written to {report_path}", file=sys.stderr)
    else:
        sys.stdout.write(rendered)
    csv_path = args.csv or outputs.get("csv")
    if csv_path:
        _write_text(str(csv_path), render_csv(report))
        print(f"csv written to {csv_path}", file=sys.stderr)
    svg_path = args.svg or outputs.get("svg")
    if svg_path:
        chart = _chart_for(report)
        if chart is None:
            print("no chart for this report; svg skipped", file=sys.stderr)
        else:
            _write_text(str(svg_path), chart)
            print(f"svg written to {svg_path}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code means "check failed"
        # here, so fold usage problems into the error exit instead
        return EXIT_PASS if exc.code == 0 else EXIT_ERROR
    overrides = {"seed": args.seed, "samples": args.samples, "paths": args.paths}
    started = time.monotonic()
    try:
        document = _load_config_document(args.config)
        if args.command == "verify":
            config = resolve_config(document, suite_name=args.suite, overrides=overrides)
            report = run_suite(args.suite, config, threads=args.threads)
        elif args.command == "norms":
            if document is None:
                raise ConfigError("norms: a --config document with an input is required")
            config = resolve_config(document, overrides=overrides)
            report = run_norms(config, threads=args.threads)
        else:
            config = resolve_config(
                document if document is not None else _DEFAULT_INTEGRATE_CONFIG,
                overrides=overrides,
            )
            report = run_integrate(config, threads=args.threads)
        # rendering refuses a non-finite value (an input that overflowed)
        _emit(report, args, document)
    except (ConfigError, SizeLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    duration = time.monotonic() - started
    print(
        f"{report.suite}: {'pass' if report.overall_pass else 'FAIL'} "
        f"({len(report.checks)} checks, {duration:.2f}s, threads={args.threads})",
        file=sys.stderr,
    )
    return EXIT_PASS if report.overall_pass else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
