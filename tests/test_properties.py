"""Model-level properties of the printer, the exporters and the id check.

Random models are built through ``AlignmentModel``: surface kinds only, texts
in arbitrary Unicode, attrs drawn from the statement table, directed relations
from ``PERMITTED_RELATIONS`` and associations from ``ASSOCIATION_CORE``.
Associations with an event at either end are drawn too, so the printer's
choice of owner for an association is exercised.  Only the system name and
the descriptions may hold characters XML 1.0 cannot carry, and most
components and events are anchored, so that most models are valid and every
rule yields items in some of them.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections import Counter

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from dsalign import Rule, attach, derive_all, format_model, parse, to_dot, to_open_exchange
from dsalign.dsl import KEYWORDS
from dsalign.model import (
    ASSOCIATION_CORE,
    BRANCHES,
    ELEMENT_KINDS,
    PERMITTED_RELATIONS,
    SEVERITY_LEVELS,
    STATEMENTS,
    XML_FORBIDDEN,
    AlignmentModel,
    ElementKind,
    ModelError,
    RelationKind,
    Severity,
    is_valid_id,
)

# Every kind but the motivation kinds: the item branches and principles.
SURFACE_KINDS = [
    kind for kind in ELEMENT_KINDS if kind not in BRANCHES and kind != ElementKind.PRINCIPLE
]

# Per rule: the kind of its items and the relation from a source to its item.
ITEM_SHAPES = {
    Rule.R1_COST: (ElementKind.COST_ITEM, RelationKind.INFLUENCE),
    Rule.R2_RISK: (ElementKind.RISK_ITEM, RelationKind.INFLUENCE),
    Rule.R3_BUSINESS: (ElementKind.BUSINESS_VALUE, RelationKind.ASSOCIATION),
    Rule.R4_USER: (ElementKind.USER_VALUE, RelationKind.ASSOCIATION),
    Rule.R5_QUALITY: (ElementKind.QUALITY_VALUE, RelationKind.ASSOCIATION),
}
# What an event may be about (V2).
EVENT_ANCHORS = (
    ElementKind.SYSTEM_COMPONENT,
    ElementKind.COMPONENT_FUNCTION,
    ElementKind.DATA_MODEL,
)
# R2-R5: the (element kind, attr) whose entries each yield one item.
ENTRY_SOURCES = {
    Rule.R2_RISK: (ElementKind.OBSERVED_EVENT, "hinders"),
    Rule.R3_BUSINESS: (ElementKind.OPERATOR_ACTIVITY, "yields_business_value"),
    Rule.R4_USER: (ElementKind.USER_ACTIVITY, "yields_user_value"),
    Rule.R5_QUALITY: (ElementKind.USER_ACTIVITY, "yields_quality_value"),
}

# Arbitrary Unicode, with the characters the printer must escape or refuse
# drawn about as often as all others together.
ESCAPED = st.sampled_from('"\\\n\t{}')
TEXTS = st.text(ESCAPED | st.characters(), max_size=8)
# The same without the characters XML 1.0 cannot carry, for element names and
# attr entries.  A model with any E013 is refused before derivation, so most
# models would yield no items if these drew from TEXTS; the system name and the
# descriptions still do.
LEGAL_TEXTS = st.text(
    ESCAPED | st.characters().filter(lambda c: not re.match(f"[{XML_FORBIDDEN}]", c)),
    max_size=8,
)
# Mostly False: integer draws favour 0, and list draws favour the first item.
RARELY = st.sampled_from([False] * 9 + [True])
IDS = st.tuples(
    RARELY,
    st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True),
    st.sampled_from(sorted(KEYWORDS)),
).map(lambda t: t[2] if t[0] else t[1])


def _entry_values(entry):
    if entry.form == "word":
        return st.sampled_from(entry.leaves)
    parts = [st.sampled_from(entry.leaves), LEGAL_TEXTS]
    if entry.form == "hinders":
        parts.insert(1, st.sampled_from(SEVERITY_LEVELS))
    # A parsed model never holds an empty entry list.
    return st.lists(st.tuples(*parts), min_size=1, max_size=2)


def _attrs(kind):
    entries = STATEMENTS[kind].entries if kind in STATEMENTS else {}
    optional = {key: _entry_values(entry) for key, entry in entries.items() if entry.form}
    return st.fixed_dictionaries({}, optional=optional)


@st.composite
def models(draw):
    m = AlignmentModel(draw(TEXTS.filter(bool)))
    # Draws favour the first of a list, so each model orders the kinds anew.
    kinds = st.sampled_from(draw(st.permutations(SURFACE_KINDS)))
    for id in draw(st.lists(IDS, unique=True, max_size=8)):
        kind = draw(kinds)
        description = draw(TEXTS) if draw(RARELY) else None
        try:
            m.add_element(kind, id, draw(LEGAL_TEXTS), description, draw(_attrs(kind)))
        except ModelError as err:
            assert err.code == "E007"  # a second user or operator
        if kind is ElementKind.SYSTEM_COMPONENT and not draw(RARELY):
            # Most components declare a function (V1 refuses the rest).  Drawn
            # ids are keywords or at most six characters, so none clashes.
            m.add_element(ElementKind.COMPONENT_FUNCTION, f"{id}_function", draw(LEGAL_TEXTS))
            m.add_relation(RelationKind.REALIZATION, id, f"{id}_function")
    elements = m.elements
    # Most events are about a part of the system (V2 refuses the rest).
    anchors = [e.id for e in elements if e.kind in EVENT_ANCHORS]
    for event in m.elements_of_kind(ElementKind.OBSERVED_EVENT):
        if anchors and not draw(RARELY):
            m.add_relation(RelationKind.ASSOCIATION, event.id, draw(st.sampled_from(anchors)))
    candidates = [
        (kind, s.id, t.id)
        for kind, pairs in PERMITTED_RELATIONS.items()
        for s in elements
        for t in elements
        if (s.kind, t.kind) in pairs
    ] + [
        (RelationKind.ASSOCIATION, s.id, t.id)
        for s in elements
        for t in elements
        if frozenset({s.kind, t.kind}) in ASSOCIATION_CORE
        or ElementKind.OBSERVED_EVENT in (s.kind, t.kind)
    ]
    if candidates:
        for i in draw(st.lists(st.integers(0, len(candidates) - 1), max_size=12)):
            m.add_relation(*candidates[i])
    return m


def _relations(model):
    """Relations as a multiset; an association is an unordered pair."""
    return Counter(
        (r.kind, frozenset((r.source, r.target)))
        if r.kind is RelationKind.ASSOCIATION
        else (r.kind, r.source, r.target)
        for r in model.relations
    )


def _braces_balance(dot: str) -> bool:
    depth, in_string, escaped = 0, False, False
    for ch in dot:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch in "{}":
            depth += 1 if ch == "{" else -1
            if depth < 0:
                return False
    return depth == 0 and not in_string


def _assert_items_follow_the_rules(m, itemset, attached):
    """R2-R5 give one item per attr entry; every item attaches as its rule says."""
    for rule, (kind, attr) in ENTRY_SOURCES.items():
        entries = [(e, entry) for e in m.elements_of_kind(kind) for entry in e.attrs.get(attr, ())]
        expected = [
            (
                f"item_{rule.lower()}_{n}",
                entry[0],
                f"{entry[-1]} ({e.name})",
                (e.id,),
                entry[1] if rule is Rule.R2_RISK else None,
            )
            for n, (e, entry) in enumerate(entries, start=1)
        ]
        got = [(i.id, i.category, i.description, i.sources, i.severity) for i in itemset.by_rule(rule)]
        assert got == expected
    edges = Counter((r.source, r.target, r.kind) for r in attached.relations)
    for item in itemset.items:
        item_kind, edge = ITEM_SHAPES[item.rule]
        assert attached.element(item.id).kind is item_kind
        assert edges[(item.sources[0], item.id, edge)] == 1


def _assert_one_line(diagnostics):
    for d in diagnostics:
        assert d.render().splitlines() == [d.render()]


@settings(max_examples=200, deadline=None, database=None)
@seed(20261018)
@given(models())
def test_format_round_trips_or_refuses_and_exports_are_well_formed(m):
    found = m.validate()
    _assert_one_line(found)
    if any(d.severity is Severity.ERROR for d in found):
        with pytest.raises(ModelError) as err:
            format_model(m)
        assert err.value.code == "E141"
        return

    try:
        text = format_model(m)
    except ModelError as err:
        assert err.code == "E140" and "\n" not in str(err)
    else:
        result = parse(text)
        _assert_one_line(result.diagnostics)
        assert result.model is not None, [d.render() for d in result.diagnostics]
        assert format_model(result.model) == text
        assert _relations(result.model) == _relations(m)

    itemset = derive_all(m)
    _assert_one_line(itemset.warnings)
    attached = attach(m, itemset)
    _assert_items_follow_the_rules(m, itemset, attached)
    root = ET.fromstring(to_open_exchange(attached))
    ns = {"oe": "http://www.opengroup.org/xsd/archimate/3.0/"}
    ids = {e.get("identifier") for e in root.findall("oe:elements/oe:element", ns)}
    for rel in root.findall("oe:relationships/oe:relationship", ns):
        assert rel.get("source") in ids and rel.get("target") in ids
    assert _braces_balance(to_dot(attached))


# Characters near the id alphabet: non-ASCII letters and digits, among them
# the Kelvin sign and the long s, which case-fold to ASCII letters.
ID_LIKE = st.sampled_from("az09_AZ\u212a\u017f\u0131\u00e9\u00df\u0663\u00b2\n-")


@settings(max_examples=500, deadline=None, database=None)
@seed(20261019)
@given(st.text(ID_LIKE | st.characters(), max_size=6) | st.text(ID_LIKE, max_size=6))
@example("")
@example("a\n")
@example("_a")
@example("1a")
@example("A")
@example("\u212a")
@example("a\u212a")
def test_is_valid_id_accepts_exactly_the_id_pattern(s):
    assert is_valid_id(s) == bool(re.fullmatch(r"[a-z][a-z0-9_]*", s))


def test_is_valid_id_on_every_code_point_alone_and_after_a_letter():
    code_points = list(map(chr, range(0x110000)))
    assert "".join(filter(is_valid_id, code_points)) == "abcdefghijklmnopqrstuvwxyz"
    after = [c for c in code_points if is_valid_id("a" + c)]
    assert "".join(after) == "0123456789_abcdefghijklmnopqrstuvwxyz"
