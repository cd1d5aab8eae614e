"""README.md's examples run as written, and its CLI synopses and tables match the code."""

from __future__ import annotations

import json
import re
from itertools import groupby

from conftest import GOLDEN, REPO
from dsalign import cli, derive_all, format_model, load_file, parse
from dsalign.derive import RULE_TABLE, summary_line
from dsalign.model import _ELEMENT_RULES, BRANCHES, STATEMENTS

README = (REPO / "README.md").read_text(encoding="utf-8")


def _block(lang: str) -> str:
    """The text of README's one fenced block of ``lang``."""
    blocks = re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)
    assert len(blocks) == 1, f"README has {len(blocks)} ```{lang} blocks"
    return blocks[0]


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_the_language_example_is_valid_and_canonical():
    text = _block("dsa")
    result = parse(text)
    assert result.diagnostics == []
    assert result.model.validate() == []
    assert format_model(result.model) == text


def test_derive_prints_the_summary_the_readme_gives_for_the_language_example(tmp_path, capsys):
    path = tmp_path / "example.dsa"
    path.write_text(_block("dsa"), encoding="utf-8")
    claimed = re.search(r"`dsalign derive` prints `([^`]+)`", README).group(1)
    assert cli.main(["derive", str(path)]) == 0
    assert capsys.readouterr() == (claimed + "\n", "")


def test_the_library_example_runs_from_the_root_of_the_checkout(monkeypatch):
    monkeypatch.chdir(REPO)
    names: dict = {}
    exec(compile(_block("python"), "README.md", "exec"), names)
    golden = (GOLDEN / "faq_chatbot.open_exchange.xml").read_text(encoding="utf-8")
    assert names["xml_text"] == golden


def test_the_itemset_excerpt_is_the_golden_cut_to_its_first_item():
    text = _block("json")
    excerpt = json.loads(text)
    golden = json.loads((GOLDEN / "faq_chatbot.items.json").read_text(encoding="utf-8"))
    assert excerpt == {
        "system": golden["system"],
        "items": golden["items"][:1],
        "warnings": golden["warnings"],
    }
    assert text == json.dumps(excerpt, indent=2, ensure_ascii=False) + "\n"
    count = re.search(r"cut to the first of its\s+(\d+) items", README).group(1)
    assert len(golden["items"]) == int(count)


def test_the_quick_start_summary_begins_the_summary_of_derive():
    path, shown = re.search(
        r'^dsalign derive (\S+) +# -> "(.*)"$', _section("Quick start"), re.M
    ).groups()
    itemset = derive_all(load_file(REPO / path).model)
    assert summary_line(itemset).startswith(shown.partition("...")[0])


def _synopsis(name: str) -> str:
    """The synopsis of command ``name`` as README writes it, from ``cli.COMMANDS``.

    The positional, then each option in table order with its metavar or its
    choices, bracketed unless required; flags that exclude each other share
    one bracket at the first one's place.
    """
    _, _, (_, nargs), exclusive, options = cli.COMMANDS[name]
    words = ["dsalign", name, {"+": "FILE...", None: "FILE"}[nargs]]
    for flag, kwargs in options:
        if flag in exclusive:
            if flag == exclusive[0]:
                words.append(f"[{'|'.join(exclusive)}]")
            continue
        word = flag
        if "action" not in kwargs:
            word += " " + ("|".join(kwargs["choices"]) if "choices" in kwargs else kwargs["metavar"])
        words.append(word if kwargs.get("required") else f"[{word}]")
    return " ".join(words)


def test_the_cli_synopses_match_the_command_table():
    bullets = re.findall(r"^- `(dsalign [^`]*)`", _section("CLI reference"), re.M)
    assert [" ".join(bullet.split()) for bullet in bullets] == list(map(_synopsis, cli.COMMANDS))


def test_the_taxonomy_bullets_match_the_branch_table():
    bullets = re.findall(r"^- \*\*([^*]+)\*\*:(.*?)(?=^- |\Z)", _section("The taxonomy"), re.M | re.S)
    assert [(path, tuple(re.findall(r"`(\w+)`", leaves))) for path, leaves in bullets] == list(
        BRANCHES.values()
    )


def test_the_v1_to_v6_rows_match_the_element_rules():
    rows = re.findall(r"^\| (V\d) +\| ([EW]\d+) +\| (\w+) +\|", _section("Validation rules"), re.M)
    table = [row[:2] for kind_rows in _ELEMENT_RULES.values() for row in kind_rows]
    assert rows == [(f"V{n}", code, severity) for n, (code, severity) in enumerate(table, 1)]


def test_the_attach_edges_match_the_rule_table():
    # One clause per run of rules that share an edge: "Influence for R1 and R2".
    clauses = []
    for edge, rows in groupby(RULE_TABLE.items(), key=lambda row: row[1][1]):
        rules = [rule[:2] for rule, _ in rows]
        span = {1: rules[0], 2: " and ".join(rules)}.get(len(rules), f"{rules[0]}-{rules[-1]}")
        clauses.append(f"{edge} for {span}")
    assert f"to item ({', '.join(clauses)})" in " ".join(README.split())


def test_the_statement_table_matches_the_statements():
    rows = re.findall(
        r"^\| `(\w+)[^|]*\| ([^|]+?) +\| ([^|]+?) +\|$", _section("The `.dsa` language"), re.M
    )
    table: dict = {}  # keyword -> (its element kinds, its entry keys)
    for kind, statement in STATEMENTS.items():
        table.setdefault(statement.keyword, ([], tuple(statement.entries)))[0].append(kind)
    assert [
        (keyword, kinds.split(" / "), tuple(re.findall(r"`(\w+)", entries)))
        for keyword, kinds, entries in rows
    ] == [(keyword, kinds, entries) for keyword, (kinds, entries) in table.items()]
