"""The CLI's argv handling against a reference argparse parser.

``reference_parser`` is ``build_parser`` as it was written by hand, one
``add_argument`` call per option, before the command table replaced it.
Every help and usage text the CLI prints must match it byte for byte.
"""

from __future__ import annotations

import argparse

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from dsalign import cli
from dsalign import report as report_mod

from conftest import FIXTURES

FAQ = str(FIXTURES / "faq_chatbot.dsa")


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsalign",
        description="Model dialogue systems with their values, risks, and costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and validate .dsa files")
    check.add_argument("inputs", nargs="+", metavar="FILE")
    check.add_argument("--strict", action="store_true", help="warnings fail the check")
    check.set_defaults(func=cli._cmd_check)

    derive = sub.add_parser("derive", help="derive evaluation items")
    derive.add_argument("input", metavar="FILE")
    derive.add_argument("--items", metavar="OUT", help="write the itemset JSON here")
    derive.add_argument("--strict", action="store_true")
    derive.set_defaults(func=cli._cmd_derive)

    export = sub.add_parser("export", help="export the attached model")
    export.add_argument("input", metavar="FILE")
    export.add_argument("--format", choices=("open_exchange", "dot"), required=True)
    export.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    export.add_argument(
        "--no-derived", action="store_true", help="export without derived items"
    )
    export.add_argument("--strict", action="store_true")
    export.set_defaults(func=cli._cmd_export)

    report = sub.add_parser("report", help="render item tables or a comparison matrix")
    report.add_argument("inputs", nargs="+", metavar="FILE")
    report.add_argument("--matrix", action="store_true", help="cross-system matrix")
    report.add_argument("--format", choices=report_mod.FORMATS, default="markdown")
    report.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    report.add_argument("--strict", action="store_true")
    report.set_defaults(func=cli._cmd_report)

    fmt = sub.add_parser("fmt", help="print or rewrite canonical form")
    fmt.add_argument("inputs", nargs="+", metavar="FILE")
    mode = fmt.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help="rewrite files in place")
    mode.add_argument(
        "--check", action="store_true", help="exit 1 if any file is not canonical"
    )
    fmt.set_defaults(func=cli._cmd_fmt)

    return parser


HELP = [
    ["--help"],
    ["-h"],
    ["check", "--help"],
    ["derive", "--help"],
    ["export", "-h"],
    ["report", "--help"],
    ["fmt", "--help"],
    ["check", FAQ, "--help"],
    ["export", FAQ, "--format", "dot", "-h"],
]

USAGE_ERRORS = [
    [],
    ["frobnicate", FAQ],
    ["--strict", "check", FAQ],
    ["check"],
    ["check", "--"],
    ["check", FAQ, "--bogus"],
    ["check", "-x", FAQ],
    ["check", "a.dsa", "--strict", "b.dsa"],
    ["derive"],
    ["derive", "a.dsa", "b.dsa"],
    ["derive", FAQ, "--items"],
    ["derive", FAQ, "--out", "x"],
    ["export", FAQ],
    ["export", "--format", "dot"],
    ["export", FAQ, "--format", "svg"],
    ["export", FAQ, "--format"],
    ["export", FAQ, "--format", "dot", "--items", "x"],
    ["report", FAQ, "--format", "xml"],
    ["report", "a.dsa", "--matrix", "b.dsa"],
    ["fmt", "--write", "--check", FAQ],
    ["fmt", FAQ, "--check=yes"],
]


def outcome(parse, argv, capsys) -> tuple[str, str, object]:
    """(stdout, stderr, exit code) of a parse that must end in SystemExit."""
    with pytest.raises(SystemExit) as exit:
        parse(argv)
    out, err = capsys.readouterr()
    return out, err, exit.value.code


@pytest.mark.parametrize(
    "argv, code",
    [(argv, 0) for argv in HELP] + [(argv, 2) for argv in USAGE_ERRORS],
    ids=lambda value: " ".join(value).replace(FAQ, "FAQ") if isinstance(value, list) else None,
)
def test_help_and_usage_errors_match_the_reference_parser(argv, code, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = outcome(lambda a: reference_parser().parse_args(a), argv, capsys)
    assert expected[2] == code
    assert outcome(cli.main, argv, capsys) == expected


# Forms argparse reads or refuses that the reader must leave to it.
TRAPS = [
    ["check", "-h"],
    ["check", "a.dsa", "--help"],
    ["export", "a.dsa", "--format=dot"],
    ["check", "--str", "a.dsa"],
    ["chec", "a.dsa"],
    ["derive", "--", "a.dsa"],
    ["derive", "a.dsa", "--items", "-o"],
    ["derive", "a.dsa", "--items", "-1"],
    ["check", "-1"],
    ["check", "a.dsa", "--bogus"],
    ["derive", "a.dsa", "--out", "x"],
    ["export", "a.dsa", "--format"],
    ["export", "a.dsa", "--format", "svg"],
    ["export", "a.dsa"],
    ["fmt", "--write", "--check", "a.dsa"],
    ["check", "a.dsa", "--strict", "b.dsa"],
    ["report", "a.dsa", "--matrix", "b.dsa"],
    ["derive", "a.dsa", "b.dsa"],
    ["check"],
]
# Forms the reader must take: every command, options before, between and after
# the positionals, "-" and "" as words, and a repeated option.
WELL_FORMED = [
    ["check", "a.dsa"],
    ["check", "--strict", "a.dsa", "b.dsa"],
    ["check", "a.dsa", "b.dsa", "--strict"],
    ["derive", "a.dsa", "--items", "-"],
    ["derive", "--items", "out.json", "--strict", "a.dsa"],
    ["derive", "a.dsa", "--items", "x", "--items", ""],
    ["export", "a.dsa", "--format", "open_exchange"],
    ["export", "--format", "dot", "--no-derived", "a.dsa", "--out", "-"],
    ["report", "a.dsa", "b.dsa", "--matrix"],
    ["report", "--format", "csv", "a.dsa", "--out", "x.csv", "--strict"],
    ["fmt", "--check", "a.dsa"],
    ["fmt", "a.dsa", "--write", "--write"],
    ["fmt", "-", ""],
]


def reference_namespace(argv: list[str]) -> dict:
    try:
        return vars(reference_parser().parse_args(argv))
    except SystemExit:
        pytest.fail(f"the reference parser refuses {argv}")


@pytest.mark.parametrize("argv", TRAPS + WELL_FORMED, ids=" ".join)
def test_reader_takes_exactly_the_well_formed_forms(argv):
    read = cli._read(argv)
    if argv in TRAPS:
        assert read is None
    else:
        assert vars(read) == reference_namespace(argv)


def units(command: str) -> list[list[str]]:
    """Words of ``command``'s table entry: each flag alone, each value option
    with one of its choices or a file-like word, and two file names."""
    options = cli.COMMANDS[command][4]
    pairs = [
        [flag, value]
        for flag, kw in options
        if "action" not in kw
        for value in kw.get("choices", ("out", "-", ""))
    ]
    return [[flag] for flag, _ in options] + pairs + [["a.dsa"], ["b.dsa"]]


OTHER_WORDS = ["-", "", "-h", "--help", "--", "--format=dot", "--str", "-x", "-1", "svg"]
ANY_UNIT = st.sampled_from(
    [unit for name in cli.COMMANDS for unit in units(name)] + [[word] for word in OTHER_WORDS]
)


def argvs(head: str):
    """Half of the argvs draw only from their own command's entry, the other
    half also from the other entries and from words that only argparse reads."""
    own = st.sampled_from(units(head if head in cli.COMMANDS else "check"))
    drawn = st.lists(own, max_size=5) | st.lists(own | ANY_UNIT, max_size=5)
    return drawn.map(lambda tail: [head, *(word for unit in tail for word in unit)])


ARGVS = st.sampled_from([*cli.COMMANDS, "-h", "a.dsa"]).flatmap(argvs)


def with_examples(test):
    for argv in TRAPS + WELL_FORMED:
        test = example(argv)(test)
    return test


@settings(max_examples=500, deadline=None, database=None)
@seed(20261018)
@with_examples
@given(ARGVS)
def test_reader_agrees_with_the_reference_parser(argv):
    read = cli._read(argv)
    if read is not None:
        assert vars(read) == reference_namespace(argv)
