"""Command-line driver: parse, validate, derive, attach, export, report.

Exit codes: 0 success, 1 error-level diagnostics (warnings too with
``--strict``), 2 usage error, 3 I/O error.  Diagnostics go to stderr;
artifacts go to stdout or the path given by ``--out``/``--items``.  Any
failed write, argparse's help and usage text included, exits 3: one
``cannot write <stdout>`` line for stdout, nothing more for stderr.  ``main``
puts a stand-in that keeps what is written and fails to flush it with EBADF
in place of a stream that Python set to None (its descriptor closed at
start-up), so a closed stream fails as a full one.

``COMMANDS`` is the one declaration of the CLI.  ``_read`` takes each
well-formed run straight from it; help, usage errors and every form it does
not name go to the argparse parser that ``build_parser`` makes from the same
table, so each help and usage text is argparse's own.

``_load`` runs every command's stages in one order, parse and validate,
derive, attach, and stops at the one the command needs.

A run is mostly interpreter start-up and import, so it imports only what it
uses: argparse, whose parser loads ``gettext`` and ``locale``, only for help
and usage errors, ``derive`` only past validation, and ``export`` and
``report`` only in the handlers that call them.  ``run`` skips interpreter
teardown.
"""

from __future__ import annotations

import atexit
import errno
import io
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
    from typing import NoReturn

    from .derive import EvaluationItemSet

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2
EXIT_IO = 3

_IO_CODES = ("E190", "E191")


class _Reporter:
    """Prints diagnostics to stderr, resolving subjects to source spans; counts them."""

    def __init__(self, strict: bool = False) -> None:
        self.color = sys.stderr.isatty() and not os.environ.get("DSALIGN_NO_COLOR")
        self.strict = strict
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
            _print_error(line)
            if d.severity is Severity.ERROR:
                self.errors += 1
            else:
                self.warnings += 1
            if d.code in _IO_CODES:
                self.io_failure = True

    def exit_code(self) -> int:
        if self.io_failure:
            return EXIT_IO
        if self.errors or (self.strict and self.warnings):
            return EXIT_DIAGNOSTICS
        return EXIT_OK


def _load(path: str, reporter: _Reporter, upto: str) -> AlignmentModel | EvaluationItemSet | None:
    """Run the stages for one file up to ``upto`` and return that stage's product.

    The stages are "validate" (parse and validate; the model), "derive" (the
    itemset) and "attach" (the attached model).  Each finding goes through
    ``reporter`` at its source span.  Returns None after an error, and before
    attach once the run has failed (a warning under ``--strict``).
    """
    result = dsl.load_file(path)
    reporter.emit(result.diagnostics, path)
    model = result.model
    if model is None:
        return None
    found = model.validate()
    reporter.emit(found, path, result.spans)
    if any(d.severity is Severity.ERROR for d in found):
        return None
    if upto == "validate":
        return model
    from .derive import attach, derive_all

    itemset = derive_all(model)
    # The itemset's warnings open with the validation warnings reported above.
    reporter.emit(itemset.warnings[len(found):], path, result.spans)
    if upto == "derive":
        return itemset
    if reporter.exit_code() != EXIT_OK:
        return None
    try:
        return attach(model, itemset)
    except ModelError as err:  # a model element holds an id that attach derives
        reporter.emit([Diagnostic(err.code, Severity.ERROR, err.message)], path)
        return None


def _print_error(line: str) -> None:
    """Print ``line`` to stderr with a path's line breaks escaped, as diagnostics are.

    Raises ``OSError`` when stderr is closed or the write fails.
    """
    print(line.translate(_LINE_BREAKS), file=sys.stderr, flush=True)


def _write_artifact(text: str, out: str | None) -> int:
    # Stdout when ``out`` is None.  Each command writes stdout at most once,
    # so a failed write leaves nothing buffered for ``run`` to flush.
    try:
        if out is not None:
            with open(out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except OSError as err:  # BrokenPipeError included
        _print_error(f"cannot write {'<stdout>' if out is None else out}: {err.strerror}")
        return EXIT_IO
    return EXIT_OK


def _cmd_check(args: SimpleNamespace) -> int:
    reporter = _Reporter(args.strict)
    for path in args.inputs:
        _load(path, reporter, "validate")
    return reporter.exit_code()


def _cmd_derive(args: SimpleNamespace) -> int:
    from .derive import serialize_itemset, summary_line

    reporter = _Reporter(args.strict)
    itemset = _load(args.input, reporter, "derive")
    code = reporter.exit_code()
    if code != EXIT_OK:
        return code
    if args.items is not None:
        items = None if args.items == "-" else args.items
        code = _write_artifact(serialize_itemset(itemset), items)
        if code != EXIT_OK:
            return code
    if args.items != "-":
        return _write_artifact(summary_line(itemset) + "\n", None)
    return EXIT_OK


def _cmd_export(args: SimpleNamespace) -> int:
    from . import export

    reporter = _Reporter(args.strict)
    # ``--no-derived`` exports the model as parsed, so it derives nothing.
    target = _load(args.input, reporter, "validate" if args.no_derived else "attach")
    code = reporter.exit_code()
    if code != EXIT_OK:
        return code
    exporter = {"open_exchange": export.to_open_exchange, "dot": export.to_dot}[args.format]
    return _write_artifact(exporter(target), None if args.out == "-" else args.out)


def _cmd_report(args: SimpleNamespace) -> int:
    from .report import item_table, matrix

    reporter = _Reporter(args.strict)
    itemsets = [_load(path, reporter, "derive") for path in args.inputs]
    code = reporter.exit_code()
    if code != EXIT_OK:  # ``_load`` returns None only after reporting an error
        return code
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
    return _write_artifact(text, None if args.out == "-" else args.out)


def _cmd_fmt(args: SimpleNamespace) -> int:
    reporter = _Reporter()
    dirty: list[str] = []
    texts: list[str] = []
    for path in args.inputs:
        model = _load(path, reporter, "validate")
        if model is None:
            continue
        canonical = dsl.format_model(model)
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
            texts.append(canonical)
    if _write_artifact("".join(texts), None) != EXIT_OK:
        return EXIT_IO
    code = reporter.exit_code()
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

    class Parser(argparse.ArgumentParser):
        def _print_message(self, message: str, file: io.TextIOBase | None = None) -> None:
            if message:  # Python 3.10's body; 3.11+ would swallow a failed write
                (file or sys.stderr).write(message)

    parser = Parser(
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


class _ClosedStream(io.StringIO):
    """Stands in for a stream that Python set to None because its descriptor was closed."""

    def flush(self) -> None:  # fails once written to, as a buffered stream does
        if self.tell():
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))


def main(argv: list[str] | None = None) -> int:
    sys.stdout = sys.stdout or _ClosedStream()
    sys.stderr = sys.stderr or _ClosedStream()
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv) or build_parser().parse_args(argv)
    return args.func(args)


def run() -> NoReturn:
    """Run ``main``, then end the process without interpreter teardown.

    Help and usage errors end here too.  Runs the ``atexit`` handlers and
    flushes stdout and stderr, in the order Python's finalization does; dsalign
    closes its files and starts no threads.  A failed stderr write ends the run
    with EXIT_IO, flushing nothing more, so no later output follows it.
    """
    try:
        try:
            code = main()
        except SystemExit as stop:  # argparse's help and usage errors
            code = stop.code
        atexit._run_exitfuncs()
        try:
            sys.stdout.flush()
        except OSError as err:
            _print_error(f"cannot write <stdout>: {err.strerror}")
            code = EXIT_IO
        sys.stderr.flush()
    except OSError:  # a failed stderr write: each other I/O site catches its own
        code = EXIT_IO
    os._exit(code)


if __name__ == "__main__":
    run()
