"""Command-line driver: parse, validate, derive, attach, export, report.

Exit codes: 0 success, 1 error-level diagnostics (warnings too with
``--strict``), 2 usage error, 3 I/O error.  Diagnostics go to stderr;
artifacts go to stdout or the path given by ``--out``/``--items``.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import derive as derive_mod
from . import dsl, export as export_mod, report as report_mod
from .model import AlignmentModel, Diagnostic, ModelError, Severity, SourceSpan

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2
EXIT_IO = 3

_IO_CODES = ("E190", "E191")


class _Reporter:
    """Prints diagnostics to stderr, resolving subjects to source spans."""

    def __init__(self) -> None:
        no_color = os.environ.get("DSALIGN_NO_COLOR")
        self.color = sys.stderr.isatty() and not no_color
        self.errors = 0
        self.warnings = 0
        self.io_failure = False

    def emit(
        self,
        diagnostics: list[Diagnostic],
        file: str | None,
        spans: dict[str, SourceSpan] | None = None,
    ) -> None:
        for d in diagnostics:
            if d.location is None and spans and d.subject in spans:
                d = Diagnostic(d.code, d.severity, d.message, spans[d.subject], d.subject)
            line = d.render(file)
            if self.color:
                tint = "31" if d.severity is Severity.ERROR else "33"
                line = f"\x1b[{tint}m{line}\x1b[0m"
            print(line, file=sys.stderr)
            if d.severity is Severity.ERROR:
                self.errors += 1
            else:
                self.warnings += 1
            if d.code in _IO_CODES:
                self.io_failure = True

    def exit_code(self, strict: bool) -> int:
        if self.io_failure:
            return EXIT_IO
        if self.errors or (strict and self.warnings):
            return EXIT_DIAGNOSTICS
        return EXIT_OK


def _load_validated(path: str, reporter: _Reporter) -> dsl.ParseResult | None:
    """Parse and validate one file, reporting each finding at its source span.

    Returns None after an error-level finding.
    """
    result = dsl.load_file(path)
    reporter.emit(result.diagnostics, path)
    if result.model is None:
        return None
    diagnostics = result.model.validate()
    reporter.emit(diagnostics, path, result.spans)
    if any(d.severity is Severity.ERROR for d in diagnostics):
        return None
    return result


def _load_derived(
    path: str, reporter: _Reporter
) -> tuple[AlignmentModel, derive_mod.EvaluationItemSet] | None:
    """Load a valid model and derive its items; None only after a reported error."""
    loaded = _load_validated(path, reporter)
    if loaded is None:
        return None
    itemset = derive_mod.derive_all(loaded.model)
    # The itemset's warnings open with the validation warnings reported above.
    reported = sum(d.severity is Severity.WARNING for d in loaded.model.validate())
    reporter.emit(itemset.warnings[reported:], path, loaded.spans)
    return loaded.model, itemset


def _write_artifact(text: str, out: str | None) -> int:
    if out is None or out == "-":
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as err:
        print(f"cannot write {out}: {err.strerror}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    reporter = _Reporter()
    for path in args.inputs:
        _load_validated(path, reporter)
    return reporter.exit_code(args.strict)


def _cmd_derive(args: argparse.Namespace) -> int:
    reporter = _Reporter()
    loaded = _load_derived(args.input, reporter)
    code = reporter.exit_code(args.strict)
    if code != EXIT_OK:
        return code
    _, itemset = loaded
    if args.items:
        code = _write_artifact(derive_mod.serialize_itemset(itemset), args.items)
        if code != EXIT_OK:
            return code
    if args.items != "-":
        print(derive_mod.summary_line(itemset))
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    reporter = _Reporter()
    # ``--no-derived`` exports the model as parsed, so it derives nothing.
    loaded = (_load_validated if args.no_derived else _load_derived)(args.input, reporter)
    code = reporter.exit_code(args.strict)
    if code != EXIT_OK:
        return code
    if args.no_derived:
        target = loaded.model
        target.freeze()
    else:
        model, itemset = loaded
        try:
            target = derive_mod.attach(model, itemset)
        except ModelError as err:  # a model element holds an id that attach derives
            reporter.emit([Diagnostic(err.code, Severity.ERROR, err.message)], args.input)
            return reporter.exit_code(args.strict)
    exporter = {"open_exchange": export_mod.to_open_exchange, "dot": export_mod.to_dot}[args.format]
    return _write_artifact(exporter(target), args.out)


def _cmd_report(args: argparse.Namespace) -> int:
    reporter = _Reporter()
    itemsets = []
    for path in args.inputs:
        loaded = _load_derived(path, reporter)
        if loaded is not None:
            itemsets.append(loaded[1])
    code = reporter.exit_code(args.strict)
    if code != EXIT_OK or len(itemsets) != len(args.inputs):
        return max(code, EXIT_DIAGNOSTICS)
    if args.matrix:
        try:
            text = report_mod.matrix(itemsets, args.format)
        except ModelError as err:  # E400: two inputs share a system name
            reporter.emit([Diagnostic(err.code, Severity.ERROR, err.message)], None)
            return EXIT_USAGE
    else:
        parts = []
        for itemset in itemsets:
            if args.format == "markdown":
                parts.append(f"# {itemset.system_name}\n\n")
            parts.append(report_mod.item_table(itemset, args.format))
            parts.append("\n" if args.format == "markdown" else "")
        text = "".join(parts).rstrip("\n") + "\n"
    return _write_artifact(text, args.out)


def _cmd_fmt(args: argparse.Namespace) -> int:
    reporter = _Reporter()
    dirty: list[str] = []
    for path in args.inputs:
        loaded = _load_validated(path, reporter)
        if loaded is None:
            continue
        canonical = dsl.format_model(loaded.model)
        if args.check:
            try:
                with open(path, "r", encoding="utf-8", newline="") as handle:
                    current = handle.read()
            except OSError as err:
                print(f"cannot read {path}: {err.strerror}", file=sys.stderr)
                return EXIT_IO
            if current != canonical:
                dirty.append(path)
        elif args.write:
            code = _write_artifact(canonical, path)
            if code != EXIT_OK:
                return code
        else:
            sys.stdout.write(canonical)
    code = reporter.exit_code(strict=False)
    if code != EXIT_OK:
        return code
    for path in dirty:
        print(f"{path}: not in canonical form", file=sys.stderr)
    return EXIT_DIAGNOSTICS if dirty else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsalign",
        description="Model dialogue systems with their values, risks, and costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and validate .dsa files")
    check.add_argument("inputs", nargs="+", metavar="FILE")
    check.add_argument("--strict", action="store_true", help="warnings fail the check")
    check.set_defaults(func=_cmd_check)

    derive = sub.add_parser("derive", help="derive evaluation items")
    derive.add_argument("input", metavar="FILE")
    derive.add_argument("--items", metavar="OUT", help="write the itemset JSON here")
    derive.add_argument("--strict", action="store_true")
    derive.set_defaults(func=_cmd_derive)

    export = sub.add_parser("export", help="export the attached model")
    export.add_argument("input", metavar="FILE")
    export.add_argument("--format", choices=("open_exchange", "dot"), required=True)
    export.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    export.add_argument(
        "--no-derived", action="store_true", help="export without derived items"
    )
    export.add_argument("--strict", action="store_true")
    export.set_defaults(func=_cmd_export)

    report = sub.add_parser("report", help="render item tables or a comparison matrix")
    report.add_argument("inputs", nargs="+", metavar="FILE")
    report.add_argument("--matrix", action="store_true", help="cross-system matrix")
    report.add_argument("--format", choices=report_mod.FORMATS, default="markdown")
    report.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    report.add_argument("--strict", action="store_true")
    report.set_defaults(func=_cmd_report)

    fmt = sub.add_parser("fmt", help="print or rewrite canonical form")
    fmt.add_argument("inputs", nargs="+", metavar="FILE")
    mode = fmt.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help="rewrite files in place")
    mode.add_argument(
        "--check", action="store_true", help="exit 1 if any file is not canonical"
    )
    fmt.set_defaults(func=_cmd_fmt)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
