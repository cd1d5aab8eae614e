"""How a model and a parse store their records, and that the public views hide it.

Relations are held as exact ``(id, kind, source, target)`` tuples and elements
without attrs, or derived items with equal attrs, share one read-only view.
A parse keeps each element's start offset and builds its ``SourceSpan`` on
lookup.  These records are what the cycle collector would otherwise walk on
every collection, so tests pin how many objects a large model leaves tracked.
"""

from __future__ import annotations

import gc
import itertools
import sys

import pytest

from dsalign import attach, derive_all, parse
from dsalign.cli import _Reporter
from dsalign.derive import EvaluationItem, EvaluationItemSet, Rule
from dsalign.dsl import _lex
from dsalign.model import (
    ELEMENT_KINDS,
    RELATION_KINDS,
    STATEMENTS,
    Diagnostic,
    ElementKind,
    ModelError,
    Relation,
    RelationKind,
    Severity,
    SourceSpan,
    new_model,
    relation_permitted,
)

from conftest import FIXTURES, FIXTURE_NAMES, REPO

sys.path.insert(0, str(REPO / "perfbench"))
import synth  # noqa: E402

K, R = ElementKind, RelationKind
DIRECTIONS = ("in", "out", "any")


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


def _neighbors_by_scan(model, id, kind=None, direction="any"):
    """``neighbors`` as a scan over the public ``relations`` view."""
    found = {}
    for rel in model.relations:
        if kind is not None and rel.kind != kind:
            continue
        out = rel.target if rel.source == id else None
        into = rel.source if rel.target == id else None
        if rel.kind is R.ASSOCIATION or direction == "any":
            other = out or into
        else:
            other = out if direction == "out" else into
        if other is not None:
            found.setdefault(other, None)
    return [model.element(other) for other in found]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_neighbors_match_a_scan_of_the_relations(name, fixture_models, attached_models):
    for model in (fixture_models[name], attached_models[name]):
        for e in model.elements:
            for kind, direction in itertools.product((None, *RELATION_KINDS), DIRECTIONS):
                expected = _neighbors_by_scan(model, e.id, kind, direction)
                assert model.neighbors(e.id, kind, direction) == expected, (e.id, kind, direction)


def test_attached_items_share_one_read_only_attrs_view(attached_models):
    model = attached_models["faq_chatbot"]
    by_attrs = {}
    for e in model.elements:
        by_attrs.setdefault(tuple(e.attrs.items()), []).append(e)
    shared = [group for group in by_attrs.values() if len(group) > 1 and group[0].attrs]
    assert shared, "no two attached items with equal attrs"
    for first, second, *_ in shared:
        assert first.attrs is second.attrs
        with pytest.raises(TypeError):
            first.attrs["category"] = "privacy"
        with pytest.raises(TypeError):
            second.attrs["severity"] = "high"
    empty = [e for e in model.elements if not e.attrs]
    assert len({id(e.attrs) for e in empty}) == 1


def test_only_alike_values_share_a_view(faq_model):
    event = faq_model.elements_of_kind(K.OBSERVED_EVENT)[0].id
    items = [
        EvaluationItem(f"item_r1_cost_{n}", category, "x", [event], Rule.R1_COST)
        for n, category in enumerate(["it_resources", "it_resources", 1, True, ["a"]], 1)
    ]
    attached = attach(faq_model, EvaluationItemSet(faq_model.system_name, items))
    first, second, one, true, listed = (attached.element(item.id).attrs for item in items)
    assert first is second
    assert one["category"] == 1 and one["category"] is not True
    assert true["category"] is True and listed["category"] == ["a"]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_validate_on_a_copy_equals_a_fresh_full_pass(name, attached_models):
    model = attached_models[name]  # its findings were seeded by ``attach``
    assert model.copy().validate() == model.validate()


def test_relation_permitted_and_add_relation_agree_on_every_triple():
    for skind, rkind, tkind in itertools.product(ELEMENT_KINDS, RELATION_KINDS, ELEMENT_KINDS):
        m = new_model("x")
        m.add_element(skind, "src", "Source")
        target = "src"  # a loop where the kinds are equal: one user per model
        if tkind is not skind:
            target = m.add_element(tkind, "dst", "Target")
        try:
            m._add_relation(rkind, "src", target)
            added = True
        except ModelError as err:
            assert err.code == "E004"
            added = False
        assert relation_permitted(skind, rkind, tkind) is added, (skind, rkind, tkind)


def test_a_large_attached_model_leaves_few_objects_for_the_collector():
    # Relations as exact tuples of strings and shared attrs views let the
    # collector skip most records: about 14,500 stay tracked at 800 blocks.
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


def test_a_parse_kept_alive_holds_no_span_objects():
    text, _ = synth.generate(800, 1)
    result = parse(text, "synthetic-spans.dsa")
    gc.collect()
    spans = [o for o in gc.get_objects() if o.__class__ is SourceSpan]
    assert not [s for s in spans if s.file == "synthetic-spans.dsa"]
    assert len(result.spans) == 5_602


# Words after which the parser reads a declared id: each statement keyword
# but ``actor``, the role words after ``actor``, and ``function``.
_DECLARING = {s.role or s.keyword for s in STATEMENTS.values()} | {"function"}


def _eager_spans(text: str, file: str) -> dict[str, SourceSpan]:
    """The spans as the parser built them eagerly: one per declared id token."""
    toks, starts, _ = _lex(text)
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
