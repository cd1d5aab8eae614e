"""``serialize_itemset`` writes what ``json.dumps(indent=2)`` writes, byte for byte."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dsalign import derive_all
from dsalign.derive import RULES, EvaluationItem, EvaluationItemSet, Rule, serialize_itemset
from dsalign.model import ALL_LEAVES, Diagnostic, Severity

from conftest import FIXTURE_NAMES, FIXTURES, REPO


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


def test_without_the_c_accelerator_the_text_is_the_same(fixture_models):
    # ``serialize_itemset`` takes the C encoder from ``_json``; an interpreter
    # without it falls back to ``json.encoder``'s pure-Python one.
    tricky = EvaluationItem("i", "privacy", '"\\/\x00\x1f\x7f \ud800\U0001f600é', ["s"], Rule.R2_RISK)
    code = (
        "import sys\n"
        "sys.modules['_json'] = None\n"
        "import json.encoder\n"
        "from dsalign import EvaluationItem, EvaluationItemSet, Rule, derive_all, load_file, serialize_itemset\n"
        "assert json.encoder.c_encode_basestring is None\n"
        f"tricky = EvaluationItem('i', 'privacy', {tricky.description!r}, ['s'], Rule.R2_RISK)\n"
        "texts = [serialize_itemset(derive_all(load_file(p).model)) for p in sys.argv[1:]]\n"
        "texts.append(serialize_itemset(EvaluationItemSet('S', [tricky])))\n"
        "sys.stdout.buffer.write('\\0'.join(texts).encode('utf-8', 'surrogatepass'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    paths = [str(FIXTURES / f"{n}.dsa") for n in FIXTURE_NAMES]
    proc = subprocess.run([sys.executable, "-c", code, *paths], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    expected = [serialize_itemset(derive_all(fixture_models[n])) for n in FIXTURE_NAMES]
    expected.append(serialize_itemset(EvaluationItemSet("S", [tricky])))
    assert proc.stdout.decode("utf-8", "surrogatepass").split("\0") == expected
