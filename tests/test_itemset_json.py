"""``serialize_itemset`` writes what ``json.dumps(indent=2)`` writes, byte for byte."""

from __future__ import annotations

import importlib
import json
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dsalign import derive_all
from dsalign.derive import RULES, EvaluationItem, EvaluationItemSet, Rule, serialize_itemset
from dsalign.model import ALL_LEAVES, Diagnostic, Severity, leaf_path

from conftest import FIXTURE_NAMES, GOLDEN


def reference_serialize(itemset: EvaluationItemSet) -> str:
    """The document built and dumped by the standard library's JSON encoder."""
    doc = {
        "system": itemset.system_name,
        "items": [
            {
                "id": item.id,
                "rule": item.rule,
                "category": item.category_path,
                "description": item.description,
                "sources": item.sources,
                "severity": item.severity,
            }
            for item in itemset.items
        ],
        "warnings": [
            {
                "code": d.code,
                "severity": d.severity,
                "message": d.message,
                "subject": d.subject,
            }
            for d in itemset.warnings
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_itemsets_match_the_reference(name, fixture_models):
    itemset = derive_all(fixture_models[name])
    assert serialize_itemset(itemset) == reference_serialize(itemset)


def test_empty_lists_and_nulls_match_the_reference():
    item = EvaluationItem("i", "privacy", "", [], Rule.R2_RISK)
    warning = Diagnostic("W105", Severity.WARNING, "", subject=None)
    for itemset in (
        EvaluationItemSet("S", []),
        EvaluationItemSet("S", [item]),
        EvaluationItemSet("S", [], [warning]),
        EvaluationItemSet("S", [item, item], [warning, warning]),
    ):
        assert serialize_itemset(itemset) == reference_serialize(itemset)


# Rules and categories repeat, ``privacy`` sits under two rules, and the items
# have no, one and three sources (the three as a list) and both kinds of severity.
FIXED = EvaluationItemSet("S", [
    EvaluationItem("a", "human_resources", "develop \"x\"", ("c1",), Rule.R1_COST),
    EvaluationItem("b", "human_resources", "operate x", ("c1",), Rule.R1_COST),
    EvaluationItem("c", "it_resources", "fees", ["c1", "c2", "ü"], Rule.R1_COST),
    EvaluationItem("d", "privacy", "leak", ("e1",), Rule.R2_RISK, "high"),
    EvaluationItem("e", "privacy", "leak again", (), Rule.R2_RISK, "high"),
    EvaluationItem("f", "privacy", "calm", ("e2",), Rule.R2_RISK, "low"),
    EvaluationItem("g", "privacy", "kept private", ("u1",), Rule.R5_QUALITY),
])


def test_a_fixed_itemset_matches_the_reference():
    assert serialize_itemset(FIXED) == reference_serialize(FIXED)


def test_each_rule_category_and_severity_is_encoded_once(monkeypatch):
    # ``serialize_itemset`` imports the encoder on each call, so it finds this one.
    import _json

    encoded = []
    encode = _json.encode_basestring

    def counting(text):
        encoded.append(text)
        return encode(text)

    monkeypatch.setattr(_json, "encode_basestring", counting)
    assert serialize_itemset(FIXED) == reference_serialize(FIXED)
    items = FIXED.items
    per_item = sum(2 + len(item.sources) for item in items)  # id, description, sources
    distinct = {item.rule for item in items} | {item.category_path for item in items}
    distinct |= {item.severity for item in items} - {None}
    assert len(encoded) == 1 + per_item + len(distinct)  # 1: the system name
    assert encoded.count(leaf_path("privacy")) == 1 and encoded.count(Rule.R1_COST) == 1


@pytest.mark.parametrize("severity", [5, ["high"]])
def test_a_severity_that_is_no_string_raises_type_error(severity):
    item = EvaluationItem("i", "privacy", "", ("s",), Rule.R2_RISK, severity)
    with pytest.raises(TypeError):
        serialize_itemset(EvaluationItemSet("S", [item]))


# Arbitrary Unicode, with lone surrogates, C0 controls, the characters JSON
# escapes, U+2028 and astral characters drawn about as often as all others.
SPECIAL = st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\u2029\ud800\udfff\U00010000\U0001f600\ufeff')
TEXTS = st.text(SPECIAL | st.characters(), max_size=6)
NULLABLE = st.none() | TEXTS

ITEMS = st.builds(
    EvaluationItem,
    TEXTS,
    st.sampled_from(ALL_LEAVES),
    TEXTS,
    st.lists(TEXTS, max_size=3),
    st.sampled_from(RULES),
    NULLABLE,
)
WARNINGS = st.builds(
    Diagnostic, TEXTS, st.sampled_from((Severity.ERROR, Severity.WARNING)), TEXTS, st.none(), NULLABLE
)


@settings(max_examples=150, deadline=None, database=None)
@seed(20261019)
@given(st.builds(EvaluationItemSet, TEXTS, st.lists(ITEMS, max_size=3), st.lists(WARNINGS, max_size=3)))
def test_random_itemsets_match_the_reference(itemset):
    assert serialize_itemset(itemset) == reference_serialize(itemset)


def test_without_the_c_accelerator_the_text_is_the_same(monkeypatch, fixture_models):
    # ``serialize_itemset`` takes the C encoder from ``_json``; an interpreter
    # without it falls back to ``json.encoder``'s pure-Python one.  That module
    # picks its encoder when it is imported, so it is imported again here.
    item = EvaluationItem("i", "privacy", '"\\/\x00\x1f\x7f \ud800\U0001f600é', ["s"], Rule.R2_RISK)
    tricky = EvaluationItemSet("S", [item])
    expected = serialize_itemset(tricky)
    monkeypatch.setitem(sys.modules, "_json", None)
    for name in [name for name in sys.modules if name.partition(".")[0] == "json"]:
        monkeypatch.delitem(sys.modules, name)
    encoder = importlib.import_module("json.encoder")
    assert encoder.encode_basestring is encoder.py_encode_basestring
    encoded = []

    def encode(text):
        encoded.append(text)
        return encoder.py_encode_basestring(text)

    monkeypatch.setattr(encoder, "encode_basestring", encode)
    for name in FIXTURE_NAMES:
        text = serialize_itemset(derive_all(fixture_models[name]))
        assert text.encode() == (GOLDEN / f"{name}.items.json").read_bytes(), name
    assert serialize_itemset(tricky) == expected
    assert "S" in encoded and fixture_models["faq_chatbot"].system_name in encoded
