"""How a model and a parse store their records, and that the public views hide it.

Relations are held as exact ``(id, kind, source, target)`` tuples and
elements as exact ``(id, kind, name, description, attrs)`` tuples whose attrs
are ``(key, value)`` pairs; the public readers build records from them on
each call.  A parse keeps each element's token index but no token list, sums
the token offsets on the first lookup, and builds its ``SourceSpan`` on lookup.  These records are
what the cycle collector would otherwise walk on every collection, so tests
pin how many objects a large model leaves tracked.
"""

from __future__ import annotations

import gc
import itertools
import sys
import tracemalloc

import pytest

from dsalign import attach, derive_all, dsl, parse
from dsalign.cli import _Reporter
from dsalign.derive import EvaluationItem, EvaluationItemSet, Rule
from dsalign.dsl import _TOKEN_RE, _lex
from dsalign.model import (
    _PERMITTED_TRIPLES,
    ELEMENT_KINDS,
    RELATION_KINDS,
    STATEMENTS,
    AlignmentModel,
    Diagnostic,
    Element,
    ElementKind,
    ModelError,
    Relation,
    RelationKind,
    Severity,
    SourceSpan,
)

from conftest import FIXTURES, FIXTURE_NAMES, REPO

sys.path.insert(0, str(REPO / "perfbench"))
import synth  # noqa: E402

K, R = ElementKind, RelationKind


@pytest.fixture(scope="module")
def attached_models(fixture_models):
    return {name: attach(m, derive_all(m)) for name, m in fixture_models.items()}


def test_relations_are_named_tuples_equal_to_the_stored_ones(attached_models):
    model = attached_models["faq_chatbot"]
    relations = model.relations
    assert relations and all(r.__class__ is Relation for r in relations)
    assert relations == model._relations
    assert all(stored.__class__ is tuple for stored in model._relations)


def test_editing_the_relations_list_leaves_the_model_unchanged(faq_model):
    before = list(faq_model._relations)
    found = faq_model.validate()
    relations = faq_model.relations
    relations.append(Relation("r999", R.ACCESS, "faq_set", "faq_set"))
    del relations[0]
    assert faq_model._relations == before
    assert faq_model.relations == before
    assert faq_model.validate() == found


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_element_rows_hold_the_record_fields_in_slot_order(name, attached_models):
    model = attached_models[name]
    rows = list(model._by_id.values())
    assert len(rows) == len(model.elements)
    for row, element in zip(rows, model.elements):
        assert row.__class__ is tuple and len(row) == 5 and row[4].__class__ is tuple
        assert row[:4] == tuple(getattr(element, field) for field in Element.__slots__[:4])
        assert Element.__slots__[4] == "attrs" and dict(row[4]) == element.attrs
        assert all(pair.__class__ is tuple and len(pair) == 2 for pair in row[4])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_element_reads_are_new_records_that_edits_leave_the_model_unchanged(
    name, attached_models
):
    model = attached_models[name]
    rows = dict(model._by_id)
    found = model.validate()
    for first, second in zip(model.elements, model.elements):
        assert first == second and first is not second
        assert first.attrs == second.attrs and first.attrs is not second.attrs
        assert model.element(first.id) == first
        with pytest.raises(TypeError):
            first.attrs["category"] = "privacy"
        first.kind, first.name, first.description = K.DATA_MODEL, "edited", "edited"
        first.attrs = {"runs_on": "nowhere"}
        assert model.element(second.id) == second
    assert model._by_id == rows
    assert model.validate() == found == model.copy().validate()


def test_only_alike_values_share_a_view(faq_model):
    event = faq_model.elements_of_kind(K.OBSERVED_EVENT)[0].id
    items = [
        EvaluationItem(f"item_r1_cost_{n}", category, "x", [event], Rule.R1_COST)
        for n, category in enumerate(["it_resources", "it_resources", 1, True, ["a"]], 1)
    ]
    attached = attach(faq_model, EvaluationItemSet(faq_model.system_name, items))
    _, _, one, true, listed = (attached.element(item.id).attrs for item in items)
    assert one["category"] == 1 and one["category"] is not True
    assert true["category"] is True and listed["category"] == ["a"]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_validate_on_a_copy_equals_a_fresh_full_pass(name, attached_models):
    model = attached_models[name]  # its findings were seeded by ``attach``
    assert model.copy().validate() == model.validate()


def test_add_relation_and_the_parser_path_agree_on_every_triple():
    # ``_add_relation`` is the path the parser and ``attach`` take.
    def added(add, skind, rkind, tkind):
        m = AlignmentModel("x")
        m.add_element(skind, "src", "Source")
        target = "src"  # a loop where the kinds are equal: one user per model
        if tkind is not skind:
            target = m.add_element(tkind, "dst", "Target")
        try:
            add(m, rkind, "src", target)
        except ModelError as err:
            assert err.code == "E004"
            return None
        return m._relations

    accepted = set()
    for triple in itertools.product(ELEMENT_KINDS, RELATION_KINDS, ELEMENT_KINDS):
        stored = added(AlignmentModel._add_relation, *triple)
        assert added(AlignmentModel.add_relation, *triple) == stored, triple
        if stored is not None:
            accepted.add(triple)
    # The table holds the directed triples; Association joins any two kinds.
    associations = {(s, R.ASSOCIATION, t) for s in ELEMENT_KINDS for t in ELEMENT_KINDS}
    assert accepted == _PERMITTED_TRIPLES | associations


def test_a_large_attached_model_leaves_few_objects_for_the_collector():
    # Relations and elements as exact tuples of strings and tuples let the
    # collector skip most records; this pin drops the ``ParseResult``.
    text, _ = synth.generate(800, 1)
    gc.collect()
    before = len(gc.get_objects())
    model = parse(text, "synthetic.dsa").model
    attached = attach(model, derive_all(model))
    gc.collect()
    gc.collect()  # a tuple is untracked once the tuples it holds are
    tracked = len(gc.get_objects()) - before
    assert len(attached.elements) == 11_207
    assert tracked <= 20_000, tracked


def test_a_large_attached_model_with_its_parse_alive_leaves_few_tracked_objects():
    text, _ = synth.generate(800, 1)
    gc.collect()
    before = len(gc.get_objects())
    result = parse(text, "synthetic.dsa")
    attached = attach(result.model, derive_all(result.model))
    # A collection untracks a tuple only if nothing it holds is tracked, and
    # it looks at a tuple before the tuples it holds, so nested tuples are
    # untracked one level per collection.  An element row is nested three
    # deep (row, attr pairs, one pair), an event's five (the pair's entries
    # tuple and each entry).  The collections that run during the pass
    # untrack most of the deeper levels; after one more, the pairs tuples
    # and the rows above them stay tracked, and it takes three to untrack
    # nearly all rows (about 130 objects stay).
    for _ in range(3):
        gc.collect()
    tracked = len(gc.get_objects()) - before
    assert result.model is not None and len(attached.elements) == 11_207
    assert tracked <= 2_000, tracked


def test_a_parse_kept_alive_holds_no_span_objects():
    text, _ = synth.generate(800, 1)
    result = parse(text, "synthetic-spans.dsa")
    gc.collect()
    spans = [o for o in gc.get_objects() if o.__class__ is SourceSpan]
    assert not [s for s in spans if s.file == "synthetic-spans.dsa"]
    assert len(result.spans) == 5_602


def test_a_parse_sums_token_offsets_only_when_a_span_is_read(monkeypatch):
    text, _ = synth.generate(800, 1)
    lexes, sums = [], []
    lexed, summed = dsl._lex, dsl._starts
    monkeypatch.setattr(dsl, "_lex", lambda *args: lexes.append(1) or lexed(*args))
    monkeypatch.setattr(dsl, "_starts", lambda *args: sums.append(1) or summed(*args))
    result = parse(text, "synthetic.dsa")
    assert result.model is not None and len(lexes) == 1 and not sums
    # The parse keeps no token or trail list: only the id -> token index map.
    assert [o for o in gc.get_referents(result.spans) if o.__class__ is list] == []
    first, *_, last = result.spans
    assert first in result.spans and "no_such_id" not in result.spans
    assert len(list(result.spans)) == 5_602
    assert len(lexes) == 1 and not sums
    # The first span read lexes the text again and sums the offsets once.
    assert result.spans[last].line > result.spans[first].line
    assert len(lexes) == 2 and len(sums) == 1
    assert len(dict(result.spans)) == 5_602 and len(lexes) == 2 and len(sums) == 1


def test_a_parse_kept_alive_holds_at_most_6_kib_per_block():
    text, _ = synth.generate(800, 1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = parse(text, "synthetic.dsa")
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.model is not None
    assert held / 800 <= 6 * 1024, held / 800


# Words after which the parser reads a declared id: each statement keyword
# but ``actor``, the role words after ``actor``, and ``function``.
_DECLARING = {s.role or s.keyword for s in STATEMENTS.values()} | {"function"}


def _eager_spans(text: str, file: str) -> dict[str, SourceSpan]:
    """The spans as the parser built them eagerly: one per declared id token."""
    toks, *_ = _lex(text)
    starts = [m.start() - 1 for m in _TOKEN_RE.finditer(";" + text)][1:]
    spans = {}
    for word, tok, start in zip(toks, toks[1:], starts[1:]):
        if word in _DECLARING:
            column = start - text.rfind("\n", 0, start)
            spans[tok] = SourceSpan(file, text.count("\n", 0, start) + 1, column, len(tok))
    return spans


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_spans_equal_the_eager_dict_in_declaration_order(name):
    text = (FIXTURES / f"{name}.dsa").read_text()
    result = parse(text, f"{name}.dsa")
    eager = _eager_spans(text, f"{name}.dsa")
    assert list(result.spans) == list(eager) == [e.id for e in result.model.elements]
    assert result.spans == eager and dict(result.spans) == eager
    assert [result.spans[id] for id in eager] == list(eager.values())


def test_spans_are_read_only_and_refuse_unknown_ids():
    result = parse((FIXTURES / "faq_chatbot.dsa").read_text(), "faq_chatbot.dsa")
    spans = result.spans
    assert "no_such_id" not in spans and spans.get("no_such_id") is None
    with pytest.raises(KeyError):
        spans["no_such_id"]
    with pytest.raises(TypeError):
        spans["faq_set"] = SourceSpan("faq_chatbot.dsa", 1, 1)
    assert spans["faq_set"] == spans["faq_set"] and spans["faq_set"] is not spans["faq_set"]


def test_the_reporter_anchors_model_findings_at_their_declarations(capsys):
    text = (
        'system "X" {\n  data d "D"\n\n  component c "C" {\n    function f "F";\n  }\n'
        '\tdata  e "E"\n}\n'
    )
    result = parse(text, "w.dsa")
    stray = Diagnostic("W104", Severity.WARNING, "not declared here", subject="zz")
    reporter = _Reporter()
    reporter.emit([*result.model.validate(), stray], "w.dsa", result.spans)
    assert capsys.readouterr().err.splitlines() == [
        "w.dsa:2:8: warning W104: data model 'd' is not accessed by any component",
        "w.dsa:7:8: warning W104: data model 'e' is not accessed by any component",
        "w.dsa: warning W104: not declared here",
    ]
