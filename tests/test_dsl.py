from __future__ import annotations

import gc
import random
import re
import time

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dsalign.dsl import KEYWORDS, _lex, _Parser, format_model, load_file, parse, suggest_leaf
from dsalign.model import (
    ALL_LEAVES,
    AlignmentModel,
    ElementKind,
    ModelError,
    RelationKind,
    Severity,
    SourceSpan,
)

from conftest import FIXTURES, FIXTURE_NAMES


def codes(result):
    return [d.code for d in result.diagnostics]


def error_codes(result):
    return [d.code for d in result.diagnostics if d.severity is Severity.ERROR]


MINIMAL = """system "Tiny" {
  actor user u1 "User"

  component comp "Component" {
    function fn "Function";
    uses: store;
  }

  data store "Store"

  event note "Note" {
    about: store;
    implies_cost: it "fees";
  }
}
"""


# ---------------------------------------------------------------------------
# parsing


def test_parse_faq_fixture_counts():
    result = load_file(FIXTURES / "faq_chatbot.dsa")
    assert result.model is not None
    kinds = [e.kind for e in result.model.elements]
    assert kinds.count(ElementKind.SYSTEM_COMPONENT) == 3
    assert kinds.count(ElementKind.DATA_MODEL) == 4
    assert kinds.count(ElementKind.DIALOGUE_SERVICE) == 1
    assert kinds.count(ElementKind.OPERATOR_ACTIVITY) == 2


def test_parse_empty_input():
    result = parse("")
    assert result.model is None
    assert error_codes(result) == ["E100"]


def test_parse_minimal():
    result = parse(MINIMAL)
    assert result.model is not None and result.diagnostics == []


def test_model_absent_iff_errors():
    assert parse(MINIMAL).model is not None
    bad = parse('system "X" { data data "D" }')  # reserved word as id
    assert bad.model is None
    assert any(d.severity is Severity.ERROR for d in bad.diagnostics)


@pytest.mark.parametrize(
    "snippet,code",
    [
        ('system "X" { actor user user "U" }', "E104"),  # reserved id
        ('system "X" { data Upper "D" }', "E005"),  # invalid identifier
        ('system "X" { data d "D"\n  data d "D2" }', "E001"),  # duplicate id
        ('system "X" { component c "C" { function f "F"; color: red; } }', "E002"),
        ('system "X" { event e "E" { about: missing; implies_cost: it "x"; } }', "E003"),
        ('system "X" { service s "S" { serves: d; }\n  data d "D" }', "E004"),
        ('system "" { }', "E000"),
        ('system "X" { data d "D }', "E102"),  # unterminated string
        ('system "X" { data d @ "D" }', "E103"),  # invalid character
        ('system "X" { data d "a\\qb" }', "E107"),  # invalid escape
        ('system "X" { data d "a\\\nb" }', "E107"),  # backslash before a line break
        ('system "X" { data d "a\x01b" }', "E108"),  # character XML 1.0 forbids
        ('system "X" { component c "C" { function f "F"; runs_on: cloud; } }', "E123"),
        ('system "X" { event e "E" { implies_cost: gold "x"; } }', "E124"),
        (
            'system "X" { event e "E" { hinders: privacy severity: extreme "x"; } }',
            "E122",
        ),
        (
            'system "X" { user_activity a "A" { yields_user_value: must_be "x"; } }',
            "E125",
        ),
        (
            'system "X" { component c "C" { function f "F"; runs_on: server; runs_on: device; } }',
            "E130",
        ),
        ('system "X" { } system "Y" { }', "E101"),  # one system per file
        ('system "X" { user_activity a "A" { function f "F"; } }', "E101"),
        ('system "X" { user_activity a "A" { yields_user_value: "x"; } }', "E101"),  # no leaf
    ],
)
def test_parse_error_codes(snippet, code):
    result = parse(snippet)
    assert code in codes(result), (codes(result), [d.message for d in result.diagnostics])
    for d in result.diagnostics:
        assert "\n" not in d.render() and "\r" not in d.render(), d.render()


def test_unknown_leaf_suggestion():
    result = parse(
        'system "X" { user_activity a "A" { yields_user_value: funktional "x"; } }'
    )
    e120 = [d for d in result.diagnostics if d.code == "E120"]
    assert len(e120) == 1
    assert "'functional'" in e120[0].message


def _reference_distance(a: str, b: str) -> int:
    # The unbounded two-row Levenshtein table the parser used before its scans
    # stopped early.
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _reference_suggestion(word: str) -> str | None:
    # Nearest leaf over all 19 by edit distance, ties by tree order, nothing
    # suggested past distance 2.
    best, best_d = None, 3
    for leaf in ALL_LEAVES:
        dist = _reference_distance(word, leaf)
        if dist < best_d:
            best, best_d = leaf, dist
    return best


@pytest.mark.parametrize(
    "typo", ["funktional", "must_bee", "privvacy", "emotionl", "it_resource", "zzzzzz"]
)
def test_suggestions_match_brute_force(typo):
    best = _reference_suggestion(typo)
    result = parse(
        f'system "X" {{ user_activity a "A" {{ yields_user_value: {typo} "x"; }} }}'
    )
    e120 = [d for d in result.diagnostics if d.code == "E120"]
    assert len(e120) == 1
    found = re.search(r"did you mean '([a-z_]+)'", e120[0].message)
    if best is None:
        assert found is None
    else:
        assert found and found.group(1) == best


def test_suggest_leaf_matches_the_reference_on_every_single_edit_of_a_leaf():
    # Each deletion, and each insertion and substitution of a letter or "_",
    # one of the two per position: the reference takes about 1.6 ms a word.
    words = set()
    for leaf in ALL_LEAVES:
        for k in range(len(leaf) + 1):
            head, ch = leaf[:k], "e_"[k % 2]
            words.update((head + leaf[k + 1 :], head + ch + leaf[k:], head + ch + leaf[k + 1 :]))
    for word in sorted(words):
        assert suggest_leaf(word) == _reference_suggestion(word), word


@settings(max_examples=150, deadline=None, database=None)
@seed(20261019)
@given(
    st.sampled_from(ALL_LEAVES),
    st.integers(0, 22),
    st.integers(0, 4),
    st.text(st.sampled_from("aeinorstu_") | st.characters(), max_size=4),
)
def test_suggest_leaf_matches_the_reference_on_drawn_words(leaf, at, cut, text):
    # ``text`` replaces ``cut`` characters of a leaf, so most words land near
    # the two-edit edge where the scans stop early.
    word = leaf[:at] + text + leaf[at + cut :]
    assert suggest_leaf(word) == _reference_suggestion(word)


def test_a_long_unknown_leaf_parses_fast_without_a_suggestion():
    word = "functional" * 5_000
    text = f'system "X" {{ user_activity a "A" {{ yields_user_value: {word} "x"; }} }}'
    began = time.process_time()
    result = parse(text)
    spent = time.process_time() - began
    assert [d.message for d in result.diagnostics] == [f"unknown taxonomy leaf {word!r}"]
    assert spent < 0.5, spent


def test_hinders_severity_defaults_to_medium():
    text = (
        'system "X" { data d "D"\n  component c "C" { function f "F"; uses: d; }\n'
        '  event e "E" { about: d; hinders: privacy "leaks"; } }'
    )
    result = parse(text)
    assert result.model is not None
    event = next(e for e in result.model.elements if e.id == "e")
    assert event.attrs["hinders"] == (("privacy", "medium", "leaks"),)


def test_error_locality_spans():
    text = 'system "X" {\n  data d "D"\n  data d "Again"\n}'
    result = parse(text)
    dup = [d for d in result.diagnostics if d.code == "E001"][0]
    assert dup.location is not None
    assert dup.location.line == 3
    assert dup.location.column == 8
    assert dup.location.length == 1


def _block(statement, *entries, after=""):
    """A system holding one statement with a block, one entry per line."""
    body = "".join(f"\n    {entry}" for entry in entries)
    return f'system "X" {{\n  {statement} {{{body}\n  }}{after}\n}}'


@pytest.mark.parametrize(
    "code,text,line,column,length",
    [
        ("E104", 'system "X" {\n  actor user user "U"\n}', 2, 14, 4),
        ("E101", 'system "X" {\n  actor admin a "A"\n}', 2, 9, 5),
        ("E005", 'system "X" {\n  data Upper "D"\n}', 2, 8, 5),
        ("E001", 'system "X" {\n  data d "D"\n  data d "D2"\n}', 3, 8, 1),
        # A failed nested declaration queues no relation, so no E004 for a
        # Realization to the data model follows.
        ("E001", 'system "X" {\n  data d "D"\n  component c "C" { function d "F"; }\n}', 3, 30, 1),
        ("E002", _block('component c "C"', 'function f "F";', "color: red;"), 4, 5, 5),
        ("E003", _block('event e "E"', "about: missing;", 'implies_cost: it "x";'), 3, 12, 7),
        ("E004", _block('service s "S"', "serves: d;", after='\n  data d "D"'), 3, 13, 1),
        ("E120", _block('user_activity a "A"', 'yields_user_value: funktional "x";'), 3, 24, 10),
        ("E122", _block('event e "E"', 'hinders: privacy severity: extreme "x";'), 3, 32, 7),
        ("E123", _block('component c "C"', 'function f "F";', "runs_on: cloud;"), 4, 14, 5),
        ("E124", _block('event e "E"', 'implies_cost: gold "x";'), 3, 19, 4),
        ("E125", _block('user_activity a "A"', 'yields_user_value: must_be "x";'), 3, 24, 7),
        (
            "E130",
            _block('component c "C"', 'function f "F";', "runs_on: server;", "runs_on: device;"),
            5,
            5,
            7,
        ),
        # A column counts code points: a tab, a lone carriage return and an
        # astral character are one column each.
        ("E103", 'system "X" {\n\tdata\td "D" @\n}', 2, 13, 1),
        ("E005", 'system "X" {\r  data Bad "D"\n}', 1, 21, 3),
        ("E103", 'system "X" {\n  data d "\U0001f600" @\n}', 2, 14, 1),
        ("E001", 'system "X" {\n  data d "D"\n  # note\n  data d "D2"\n}', 4, 8, 1),
        ("E007", 'system "X" {\n  actor user a "A"\n  actor user b "B"\n}', 3, 14, 1),
    ],
)
def test_parse_error_spans_are_pinned(code, text, line, column, length):
    result = parse(text, "m.dsa")
    assert [(d.code, d.location) for d in result.diagnostics] == [
        (code, SourceSpan("m.dsa", line, column, length))
    ]


@pytest.mark.parametrize(
    "text,expected",
    [
        # Blank lines and a comment before the block, an unterminated string
        # and a trailing comment with no final line feed: EOF sits at the '#'.
        (
            '\n\n# head\nsystem "X" {\n  data d "D\n# tail',
            [("E102", 5, 10, 2), ("E101", 6, 1, 0)],
        ),
        ('system "X" {\n  data d "D"\n# tail', [("E101", 3, 1, 0)]),
        ('system "X" {\n  data d "D"\n# tail\n', [("E101", 4, 1, 0)]),
        ('system "X" {\n  data d "D" # tail', [("E101", 2, 14, 0)]),
    ],
)
def test_parse_diagnostics_at_end_of_file_are_pinned(text, expected):
    result = parse(text, "m.dsa")
    assert [
        (d.code, d.location.line, d.location.column, d.location.length)
        for d in result.diagnostics
    ] == expected


def _recovered(statement, *entries):
    """One statement's block after ``data d``: the rendered diagnostics, and
    the rows and relations the parser kept after them."""
    body = "".join(f"\n    {entry}" for entry in entries)
    parser = _Parser(f'system "X" {{\n  data d "D"\n  {statement} {{{body}\n  }}\n}}', "m.dsa")
    parser.parse_file()
    assert parser.finish() is None
    rows = [(id, kind, attrs) for id, kind, _, _, attrs in parser.model._by_id.values()]
    return [d.render() for d in parser.diags], rows, parser.model._relations


_D_C_F = [("d", "DataModel", ()), ("c", "SystemComponent", ()), ("f", "ComponentFunction", ())]


@pytest.mark.parametrize(
    "entries,rendered,rows,relations",
    [
        # A known key without ':' reads on as if it were there.
        (
            ('function f "F";', "runs_on server;", "uses: d;"),
            ["m.dsa:5:13: error E101: expected ':', found 'server'"],
            [_D_C_F[0], ("c", "SystemComponent", (("runs_on", "server"),)), _D_C_F[2]],
            [("r001", "Realization", "c", "f"), ("r002", "Access", "c", "d")],
        ),
        # An unknown key without ':' is reported twice and skipped past its ';'.
        (
            ('function f "F";', "color red;", "uses: d;"),
            [
                "m.dsa:5:11: error E101: expected ':', found 'red'",
                "m.dsa:5:5: error E002: attr 'color' is not allowed on SystemComponent",
            ],
            _D_C_F,
            [("r001", "Realization", "c", "f"), ("r002", "Access", "c", "d")],
        ),
        # A statement keyword ends the block and is read as the next statement;
        # the component's '}' then closes the system.
        (
            ('function f "F";', 'data e "E"', "uses: d;"),
            [
                "m.dsa:5:5: error E101: expected an entry or '}'",
                "m.dsa:6:5: error E101: expected a statement, found 'uses'",
                "m.dsa:8:1: error E101: expected end of file, found '}'",
            ],
            [*_D_C_F, ("e", "DataModel", ())],
            [("r001", "Realization", "c", "f")],
        ),
        # A punctuation mark where a key should be skips past the next ';'.
        (
            ('function f "F";', ", uses: d;", "runs_on: device;"),
            ["m.dsa:5:5: error E101: expected an entry or '}', found ','"],
            [_D_C_F[0], ("c", "SystemComponent", (("runs_on", "device"),)), _D_C_F[2]],
            [("r001", "Realization", "c", "f")],
        ),
    ],
)
def test_entry_recovery_is_pinned(entries, rendered, rows, relations):
    assert _recovered('component c "C"', *entries) == (rendered, rows, relations)


def test_a_nested_declaration_outside_its_owner_is_skipped_past_its_semicolon():
    entries = ('function f "F";', 'yields_user_value: functional "x";', 'function g "G" by: d;')
    assert _recovered('user_activity a "A"', *entries) == (
        [
            "m.dsa:4:5: error E101: function declarations are only allowed inside component blocks",
            "m.dsa:6:5: error E101: function declarations are only allowed inside component blocks",
        ],
        [("d", "DataModel", ()),
         ("a", "UserActivity", (("yields_user_value", (("functional", "x"),)),))],
        [],
    )


def test_declaration_spans_count_code_points():
    text = 'system "X" {\r\tdata a "\U0001f600"\tdata b "B"\n  # c\n\tdata c "\\"C"\n}'
    result = parse(text, "m.dsa")
    assert result.diagnostics == []
    assert result.spans == {
        "a": SourceSpan("m.dsa", 1, 20, 1),
        "b": SourceSpan("m.dsa", 1, 31, 1),
        "c": SourceSpan("m.dsa", 3, 7, 1),
    }


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_declaration_spans_point_at_the_id(name):
    path = FIXTURES / f"{name}.dsa"
    lines = path.read_text().split("\n")
    result = load_file(path)
    assert result.model is not None
    assert set(result.spans) == {e.id for e in result.model.elements}
    for ident, span in result.spans.items():
        assert span.file == str(path)
        assert span.length == len(ident)
        start = span.column - 1
        assert lines[span.line - 1][start : start + span.length] == ident


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_the_three_sources_of_token_offsets_give_equal_spans(name):
    # The offsets come from a second lex after a clean parse, from the
    # parser's own lists after a parser error (a word after the block), and
    # from ``_lex`` after an odd lexeme (an '@', dropped from the tokens).
    text = (FIXTURES / f"{name}.dsa").read_text(encoding="utf-8")
    clean, word, odd = (parse(text + tail, "m.dsa") for tail in ("", "x", "@"))
    assert (codes(clean), codes(word), codes(odd)) == ([], ["E101"], ["E103"])
    ids = [e.id for e in clean.model.elements]
    assert list(clean.spans) == list(word.spans) == list(odd.spans) == ids
    for id in ids:
        assert clean.spans[id] == word.spans[id] == odd.spans[id], id


def test_tokens_are_not_tracked_by_the_cycle_collector():
    toks, *_ = _lex((FIXTURES / "faq_chatbot.dsa").read_text())
    gc.collect()
    assert not any(gc.is_tracked(tok) for tok in toks)


def test_attrs_are_not_tracked_by_the_cycle_collector():
    model = parse((FIXTURES / "faq_chatbot.dsa").read_text()).model
    # A collection untracks a tuple only once the tuples it holds are, one
    # level per collection, and a row nests five: the row, its attr pairs, a
    # pair, a list value's entries and one entry.
    for _ in range(5):
        gc.collect()
    tuples, pending = [], list(model._by_id.values())
    while pending:
        value = pending.pop()
        if isinstance(value, tuple):
            tuples.append(value)
            pending += value
    assert len(tuples) > len(model._by_id) * 2
    assert not [t for t in tuples if gc.is_tracked(t)]


def test_parsed_attr_entries_cannot_be_edited():
    # ``validate`` caches its findings, so an edited entry would go unchecked.
    model = parse((FIXTURES / "faq_chatbot.dsa").read_text(), "faq_chatbot").model
    found = model.validate()
    listed = [(e, k) for e in model.elements for k, v in e.attrs.items() if not isinstance(v, str)]
    assert listed
    for e, key in listed:
        with pytest.raises(AttributeError):
            e.attrs[key].append(("bogus_leaf", "extreme", "x"))
        with pytest.raises(TypeError):
            e.attrs[key][0][0] = "bogus_leaf"
    assert model.validate() == found == model.copy().validate()


def test_every_parse_error_carries_span():
    bad = 'system "X" {\n  service s "S" { serves: ; }\n  data 9bad "D"\n  junk\n}'
    result = parse(bad)
    assert result.model is None
    for d in result.diagnostics:
        assert d.location is not None
        assert d.location.line >= 1 and d.location.column >= 1


def test_crlf_accepted():
    result = parse(MINIMAL.replace("\n", "\r\n"))
    assert error_codes(result) == []


def test_comments_ignored():
    result = parse("# leading\n" + MINIMAL + "# trailing\n")
    assert result.model is not None


def lexed(text):
    """Tokens as (text, line, column, length); findings as (code, message, line, col, length)."""
    parser = _Parser(text, "f")
    spans = [parser.span(i) for i in range(len(parser.toks))]
    diags = [(d.code, d.message, d.location) for d in parser.diags]
    return (
        [(tok, s.line, s.column, s.length) for tok, s in zip(parser.toks, spans)],
        [(code, message, s.line, s.column, s.length) for code, message, s in diags],
    )


def test_lex_eof_after_trailing_comment_points_at_the_hash():
    # With no line feed after a trailing comment, EOF sits at its '#'.
    toks, _ = lexed("data d\n  d # note")
    assert toks[-1] == ("", 2, 5, 0)
    assert lexed("data d # note\n")[0][-1] == ("", 2, 1, 0)


def test_lex_unicode_word_characters():
    toks, diags = lexed("café² x_1")
    assert toks == [("café²", 1, 1, 5), ("x_1", 1, 7, 3), ("", 1, 10, 0)]
    assert diags == []


def test_lex_escape_and_unterminated_string_spans_on_second_line():
    _, diags = lexed('system "X" {\n  data d "a\\qb\n}')
    assert diags == [
        ("E107", "invalid escape sequence \\q", 2, 12, 2),
        ("E102", "unterminated string", 2, 10, 5),
    ]


def test_lex_escape_before_line_break_renders_with_repr():
    _, diags = lexed('data d "a\\\r\nb')
    assert diags[0] == ("E107", "invalid escape sequence \\ followed by '\\r'", 1, 10, 2)


def test_lex_lone_carriage_return_is_blank_outside_strings():
    toks, diags = lexed("a\rb")
    assert toks == [("a", 1, 1, 1), ("b", 1, 3, 1), ("", 1, 4, 0)]
    assert diags == []


def test_lex_forbidden_string_characters():
    toks, diags = lexed('"a\x01\tb\ufffe\r"')
    assert toks[0] == ('"a\x01\tb\ufffe\r"', 1, 1, 8)
    assert diags == [
        ("E108", "character '\\x01' is not allowed in a string", 1, 3, 1),
        ("E108", "character '\\ufffe' is not allowed in a string", 1, 6, 1),
        ("E108", "character '\\r' is not allowed in a string", 1, 7, 1),
    ]


def test_junk_before_system_block_recovers():
    result = parse("noise here\n" + MINIMAL)
    assert result.model is None  # E100 is an error
    assert "E100" in codes(result)
    # The system block after the noise is still parsed and checked.
    assert not any(c == "E101" for c in codes(result))


# ---------------------------------------------------------------------------
# load_file


def test_load_file_fixture():
    assert load_file(FIXTURES / "faq_chatbot.dsa").model is not None


def test_load_file_missing_path(tmp_path):
    result = load_file(tmp_path / "nope.dsa")
    assert result.model is None and codes(result) == ["E190"]


def test_load_file_invalid_utf8(tmp_path):
    p = tmp_path / "bad.dsa"
    p.write_bytes(b'system "\xff\xfe" { }')
    result = load_file(p)
    assert result.model is None and codes(result) == ["E191"]


# ---------------------------------------------------------------------------
# canonical formatting


def model_shape(m):
    return (
        [(e.id, e.kind, e.name, e.attrs) for e in m.elements],
        [(r.kind, r.source, r.target) for r in m.relations],
    )


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_round_trip_identity(name):
    source = (FIXTURES / f"{name}.dsa").read_text()
    first = parse(source, name)
    assert first.model is not None
    text = format_model(first.model)
    second = parse(text, name)
    assert second.model is not None
    assert model_shape(second.model) == model_shape(first.model)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_format_is_byte_stable(name):
    model = load_file(FIXTURES / f"{name}.dsa").model
    once = format_model(model)
    again = format_model(parse(once).model)
    assert again == once


def _shuffle_entries(source: str, rng: random.Random) -> str:
    """Permute entry lines within every block; statement order is untouched."""
    lines = source.split("\n")
    out: list[str] = []
    i = 0
    while i < len(lines):
        line = lines[i]
        out.append(line)
        i += 1
        if line.endswith("{") and line.startswith("  "):
            entries = []
            while i < len(lines) and lines[i].strip() != "}":
                entries.append(lines[i])
                i += 1
            rng.shuffle(entries)
            out.extend(entries)
    return "\n".join(out)


def test_entry_order_does_not_change_format():
    source = (FIXTURES / "faq_chatbot.dsa").read_text()
    canonical = format_model(parse(source).model)
    rng = random.Random(42)
    for _ in range(20):
        shuffled = _shuffle_entries(source, rng)
        result = parse(shuffled)
        assert result.model is not None, [d.render() for d in result.diagnostics]
        assert format_model(result.model) == canonical


RESERVED_WORDS = {
    "system", "actor", "user", "operator", "user_activity", "operator_activity",
    "service", "component", "data", "event", "function", "by", "serves",
    "realized_by", "uses", "runs_on", "about", "influences", "implies_cost",
    "hinders", "severity", "yields_user_value", "yields_quality_value",
    "yields_business_value",
}  # fmt: skip


def test_reserved_words_are_pinned():
    assert KEYWORDS == RESERVED_WORDS
    for word in sorted(RESERVED_WORDS):
        assert "E104" in codes(parse(f'system "X" {{ data {word} "D" }}')), word
    assert parse('system "X" { data user_value "D" }').diagnostics == []


# Each block statement's entries, in canonical order.
ENTRY_ORDER = {
    "user_activity": ["by", "yields_user_value", "yields_quality_value", "influences"],
    "operator_activity": ["by", "yields_business_value"],
    "service": ["serves", "realized_by"],
    "component": ["function", "uses", "runs_on"],
    "event": ["about", "implies_cost", "hinders"],
}

EVERY_ENTRY_REVERSED = """system "Order" {
  actor user u "U"
  actor operator o "O"
  user_activity ua "UA" {
    influences: oa;
    yields_quality_value: must_be "q";
    yields_user_value: functional "f";
    by: u;
  }
  operator_activity oa "OA" {
    yields_business_value: new_revenue "n";
    by: o;
  }
  service s "S" {
    realized_by: f;
    serves: ua;
  }
  component c "C" {
    runs_on: server;
    uses: d;
    function f "F";
  }
  data d "D"
  event e "E" {
    hinders: privacy severity: high "h";
    implies_cost: it "i";
    about: c;
  }
}
"""


def test_entry_order_per_statement_is_pinned():
    text = format_model(parse(EVERY_ENTRY_REVERSED).model)
    found = {}
    keyword = None
    for line in text.splitlines():
        if line.startswith("  ") and not line.startswith("   ") and line.endswith("{"):
            keyword = line.split()[0]
            found[keyword] = []
        elif line.startswith("    "):
            found[keyword].append(re.match(r"\s*(\w+)", line).group(1))
    assert found == ENTRY_ORDER


def test_format_requires_valid_model():
    # A component without a function fails V1, so formatting must refuse.
    m = AlignmentModel("X")
    m.add_element(ElementKind.SYSTEM_COMPONENT, "c", "C")
    with pytest.raises(ModelError) as err:
        format_model(m)
    assert err.value.code == "E141"


def test_format_rejects_motivation_elements():
    m = AlignmentModel("X")
    m.add_element(ElementKind.COST_ITEM, "c", "Cost", attrs={"category": "it_resources"})
    with pytest.raises(ModelError) as err:
        format_model(m)
    assert err.value.code == "E140"


def test_format_rejects_relation_without_surface():
    # Serving from a component to a service is permitted in the graph but
    # has no statement form, so the printer must refuse.
    m = AlignmentModel("X")
    m.add_element(ElementKind.SYSTEM_COMPONENT, "c", "C")
    m.add_element(ElementKind.COMPONENT_FUNCTION, "f", "F")
    m.add_element(ElementKind.DIALOGUE_SERVICE, "s", "S")
    m.add_relation(RelationKind.REALIZATION, "c", "f")
    m.add_relation(RelationKind.SERVING, "c", "s")
    with pytest.raises(ModelError) as err:
        format_model(m)
    assert err.value.code == "E140"


def test_format_rejects_orphan_function():
    m = AlignmentModel("X")
    m.add_element(ElementKind.COMPONENT_FUNCTION, "f", "F")
    with pytest.raises(ModelError) as err:
        format_model(m)
    assert err.value.code == "E140"


def _second_assignment():
    m = AlignmentModel("X")
    m.add_element(ElementKind.USER, "u", "U")
    m.add_element(ElementKind.USER_ACTIVITY, "a", "A")
    m.add_relation(RelationKind.ASSIGNMENT, "u", "a")
    m.add_relation(RelationKind.ASSIGNMENT, "u", "a")
    return m


def _function_realized_twice(owners):
    m = AlignmentModel("X")
    for owner in dict.fromkeys(owners):
        m.add_element(ElementKind.SYSTEM_COMPONENT, owner, "C")
    m.add_element(ElementKind.COMPONENT_FUNCTION, "f", "F")
    for owner in owners:
        m.add_relation(RelationKind.REALIZATION, owner, "f")
    return m


def _data(system="X", id="d", name="D", description=None):
    m = AlignmentModel(system)
    m.add_element(ElementKind.DATA_MODEL, id, name, description)
    return m


@pytest.mark.parametrize(
    "build",
    [
        _second_assignment,  # would print 'by: u;' twice (E130)
        lambda: _function_realized_twice(["c1", "c2"]),  # 'function f' twice (E001)
        lambda: _function_realized_twice(["c", "c"]),
        lambda: _data(system="two\nlines"),  # a string ends at its line (E102)
        lambda: _data(name="two\nlines"),
        lambda: _data(id="severity"),  # a reserved word as an id (E104)
        lambda: _data(description="dropped"),  # the language has no descriptions
    ],
    ids=[
        "second-assignment",
        "function-of-two-components",
        "function-realized-twice-by-one",
        "line-feed-in-system-name",
        "line-feed-in-element-name",
        "reserved-word-id",
        "description",
    ],
)
def test_format_refuses_what_would_not_parse_back(build):
    m = build()
    assert not [d for d in m.validate() if d.severity is Severity.ERROR]
    with pytest.raises(ModelError) as err:
        format_model(m)
    assert err.value.code == "E140" and "\n" not in str(err.value)


def _unsurfaced_relation_and_reserved_id():
    m = _data(id="severity")
    m.add_element(ElementKind.SYSTEM_COMPONENT, "c", "C")
    m.add_element(ElementKind.COMPONENT_FUNCTION, "f", "F")
    m.add_element(ElementKind.DIALOGUE_SERVICE, "s", "S")
    m.add_relation(RelationKind.REALIZATION, "c", "f")
    m.add_relation(RelationKind.SERVING, "c", "s")
    return m


def _second_assignment_and_description():
    m = _second_assignment()
    m.add_element(ElementKind.DATA_MODEL, "d", "D", "about D")
    return m


def _orphan_function_and_cost_item(function_first):
    m = AlignmentModel("X")
    adds = [
        lambda: m.add_element(ElementKind.COMPONENT_FUNCTION, "f", "F"),
        lambda: m.add_element(
            ElementKind.COST_ITEM, "k", "Cost", attrs={"category": "it_resources"}
        ),
    ]
    for add in adds if function_first else adds[::-1]:
        add()
    return m


def _cost_item_and_function_of_two_components():
    m = _function_realized_twice(["c1", "c2"])
    m.add_element(ElementKind.COST_ITEM, "k", "Cost", attrs={"category": "it_resources"})
    return m


@pytest.mark.parametrize(
    "build, message",
    [
        # Relations are checked before any element, whatever the element order.
        (
            _unsurfaced_relation_and_reserved_id,
            "Serving from 'c' to 's' is not expressible in the DSL",
        ),
        (_second_assignment_and_description, "a second 'by' entry on 'a' is not expressible"),
        (
            _cost_item_and_function_of_two_components,
            "function 'f' is declared by more than one owner",
        ),
        # Elements are checked in model order, and the system name after them.
        (lambda: _orphan_function_and_cost_item(True), "function 'f' has no owning component"),
        (
            lambda: _orphan_function_and_cost_item(False),
            "CostItem elements are not expressible in the DSL",
        ),
        (
            lambda: _data(system="two\nlines", id="severity"),
            "reserved word 'severity' is not expressible as an id",
        ),
    ],
    ids=[
        "unsurfaced-relation-before-reserved-id",
        "second-entry-before-description",
        "two-owners-before-cost-item",
        "orphan-function-then-cost-item",
        "cost-item-then-orphan-function",
        "reserved-id-before-system-name",
    ],
)
def test_format_reports_the_first_of_two_inexpressible_parts(build, message):
    m = build()
    assert not [d for d in m.validate() if d.severity is Severity.ERROR]
    with pytest.raises(ModelError) as err:
        format_model(m)
    assert err.value.code == "E140" and err.value.message == message


# ---------------------------------------------------------------------------
# totality


def test_parse_never_raises_on_random_text():
    rng = random.Random(20240809)
    alphabet = (
        'abcdefghij_{}";:,#\n\t \\ система 数'
        "system actor user service component data event function serves uses about"
    )
    for _ in range(300):
        length = rng.randrange(0, 160)
        text = "".join(rng.choice(alphabet) for _ in range(length))
        result = parse(text)
        assert result.model is None or isinstance(result.diagnostics, list)


@settings(max_examples=400, deadline=None, database=None)
@seed(20261018)
# Lexer-significant characters are drawn about as often as all others together.
@given(
    st.text(st.sampled_from('"\\\n\r#{}; d') | st.characters(), min_size=10),
    # A file name may hold any character at which ``str.splitlines`` breaks.
    st.text(st.sampled_from("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029a") | st.characters()),
)
def test_parse_is_total_and_diagnostics_render_on_one_line(text, file):
    result = parse(text, file)
    for d in result.diagnostics:
        for line in (d.render(), d.render(file)):
            assert line.splitlines() == [line]


def test_parse_never_raises_on_mangled_fixture():
    source = (FIXTURES / "faq_chatbot.dsa").read_text()
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randrange(len(source))
        b = rng.randrange(len(source))
        lo, hi = min(a, b), max(a, b)
        mangled = source[:lo] + source[hi:]
        result = parse(mangled)
        if result.model is None:
            assert any(d.severity is Severity.ERROR for d in result.diagnostics)
