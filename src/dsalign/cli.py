"""Command-line driver: parse, validate, derive, attach, export, report.

Exit codes: 0 success, 1 error-level diagnostics (warnings too with
``--strict``), 2 usage error, 3 I/O error.  Diagnostics go to stderr;
artifacts go to stdout or the path given by ``--out``/``--items``.

``COMMANDS`` is the one declaration of the CLI.  ``_read`` takes each
well-formed run straight from it; help, usage errors and every form it does
not name go to the argparse parser that ``build_parser`` makes from the same
table, so each help and usage text is argparse's own.

A run is mostly interpreter start-up and import, so it imports only what it
uses: argparse, whose parser loads ``gettext`` and ``locale``, only for help
and usage errors, and ``derive``, ``export`` and ``report`` only in the
handlers that call them.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import dsl
from .model import (
    REPORT_FORMATS, AlignmentModel, Diagnostic, ModelError, Severity, SourceSpan, _LINE_BREAKS,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    import argparse
    from collections.abc import Mapping

    from .derive import EvaluationItemSet

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
        spans: Mapping[str, SourceSpan] | None = None,
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
) -> tuple[AlignmentModel, EvaluationItemSet] | None:
    """Load a valid model and derive its items; None only after a reported error."""
    from .derive import derive_all

    loaded = _load_validated(path, reporter)
    if loaded is None:
        return None
    itemset = derive_all(loaded.model)
    # The itemset's warnings open with the validation warnings reported above.
    reported = sum(d.severity is Severity.WARNING for d in loaded.model.validate())
    reporter.emit(itemset.warnings[reported:], path, loaded.spans)
    return loaded.model, itemset


def _print_error(line: str) -> None:
    """Print ``line`` to stderr with a path's line breaks escaped, as diagnostics are."""
    print(line.translate(_LINE_BREAKS), file=sys.stderr)


def _write_artifact(text: str, out: str | None) -> int:
    if out is None or out == "-":
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as err:
        _print_error(f"cannot write {out}: {err.strerror}")
        return EXIT_IO
    return EXIT_OK


def _cmd_check(args: SimpleNamespace) -> int:
    reporter = _Reporter()
    for path in args.inputs:
        _load_validated(path, reporter)
    return reporter.exit_code(args.strict)


def _cmd_derive(args: SimpleNamespace) -> int:
    from .derive import serialize_itemset, summary_line

    reporter = _Reporter()
    loaded = _load_derived(args.input, reporter)
    code = reporter.exit_code(args.strict)
    if code != EXIT_OK:
        return code
    _, itemset = loaded
    if args.items:
        code = _write_artifact(serialize_itemset(itemset), args.items)
        if code != EXIT_OK:
            return code
    if args.items != "-":
        print(summary_line(itemset))
    return EXIT_OK


def _cmd_export(args: SimpleNamespace) -> int:
    from . import export

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
        from .derive import attach

        model, itemset = loaded
        try:
            target = attach(model, itemset)
        except ModelError as err:  # a model element holds an id that attach derives
            reporter.emit([Diagnostic(err.code, Severity.ERROR, err.message)], args.input)
            return reporter.exit_code(args.strict)
    exporter = {"open_exchange": export.to_open_exchange, "dot": export.to_dot}[args.format]
    return _write_artifact(exporter(target), args.out)


def _cmd_report(args: SimpleNamespace) -> int:
    from .report import item_table, matrix

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
            text = matrix(itemsets, args.format)
        except ModelError as err:  # E400: two inputs share a system name
            reporter.emit([Diagnostic(err.code, Severity.ERROR, err.message)], None)
            return EXIT_USAGE
    else:
        parts = []
        for itemset in itemsets:
            if args.format == "markdown":
                parts.append(f"# {itemset.system_name}\n\n")
            parts.append(item_table(itemset, args.format))
            parts.append("\n" if args.format == "markdown" else "")
        text = "".join(parts).rstrip("\n") + "\n"
    return _write_artifact(text, args.out)


def _cmd_fmt(args: SimpleNamespace) -> int:
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
                _print_error(f"cannot read {path}: {err.strerror}")
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
        _print_error(f"{path}: not in canonical form")
    return EXIT_DIAGNOSTICS if dirty else EXIT_OK


# The one declaration of the CLI.  Per command: its help, its handler, its
# positional as (dest, nargs), the flags that exclude each other, and its
# options in help order as (flag, add_argument keywords): a flag (``action``),
# a value (``metavar``) or a choice (``choices``), with its ``default`` and
# whether it is ``required``.
_OUT = ("--out", {"metavar": "PATH", "help": "output path (default stdout)"})
_STRICT = ("--strict", {"action": "store_true"})
COMMANDS = {
    "check": ("parse and validate .dsa files", _cmd_check, ("inputs", "+"), (), [
        ("--strict", {"action": "store_true", "help": "warnings fail the check"})]),
    "derive": ("derive evaluation items", _cmd_derive, ("input", None), (), [
        ("--items", {"metavar": "OUT", "help": "write the itemset JSON here"}), _STRICT]),
    "export": ("export the attached model", _cmd_export, ("input", None), (), [
        ("--format", {"choices": ("open_exchange", "dot"), "required": True}), _OUT,
        ("--no-derived", {"action": "store_true", "help": "export without derived items"}),
        _STRICT]),
    "report": ("render item tables or a comparison matrix", _cmd_report, ("inputs", "+"), (), [
        ("--matrix", {"action": "store_true", "help": "cross-system matrix"}),
        ("--format", {"choices": REPORT_FORMATS, "default": "markdown"}), _OUT, _STRICT]),
    "fmt": ("print or rewrite canonical form", _cmd_fmt, ("inputs", "+"), ("--write", "--check"), [
        ("--write", {"action": "store_true", "help": "rewrite files in place"}),
        ("--check", {"action": "store_true", "help": "exit 1 if any file is not canonical"})]),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for COMMANDS, which prints every help and usage text."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="dsalign",
        description="Model dialogue systems with their values, risks, and costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, (dest, nargs), exclusive, options) in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        command.add_argument(dest, nargs=nargs, metavar="FILE")
        group = command.add_mutually_exclusive_group() if exclusive else command
        for flag, kwargs in options:
            (group if flag in exclusive else command).add_argument(flag, **kwargs)
        command.set_defaults(func=func)
    return parser


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would make of ``argv``, or None to let argparse decide.

    Takes only a command, its exact option flags, one word after each value
    option, and one unbroken run of positionals.  Declines help, ``--opt=value``,
    abbreviations, ``--``, a value that starts with ``-``, an unknown word, a
    missing or invalid value, and flags that exclude each other.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, (dest, nargs), exclusive, options = COMMANDS[argv[0]]
    spec = dict(options)
    given: dict[str, str | bool] = {}
    words: list[str] = []
    closed = False  # an option came after the positionals
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-") or token == "-":  # argparse reads "-" and "" as words
            if closed:
                return None
            words.append(token)
            continue
        kwargs = spec.get(token)
        if kwargs is None:
            return None
        closed = bool(words)
        if "action" in kwargs:
            given[token] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-") and value != "-":
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        given[token] = value
    if not words or not nargs and len(words) > 1:
        return None
    if sum(flag in given for flag in exclusive) > 1:
        return None
    values = {"command": argv[0], "func": func, dest: words if nargs else words[0]}
    for flag, kwargs in options:
        if flag not in given and kwargs.get("required"):
            return None
        default = kwargs.get("default", False if "action" in kwargs else None)
        values[flag[2:].replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv) or build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
