from __future__ import annotations

import itertools
import re

import pytest

from conftest import REPO

from dsalign.export import to_dot
from dsalign.model import (
    ALL_LEAVES,
    ALLOWED_ATTRS,
    BRANCHES,
    COST_LEAVES,
    ELEMENT_KINDS,
    RELATION_KINDS,
    AlignmentModel,
    ElementKind,
    ModelError,
    RelationKind,
    RISK_LEAVES,
    Severity,
    VALUE_LEAVES,
)

K = ElementKind
R = RelationKind


def codes(diagnostics):
    return [d.code for d in diagnostics]


# ---------------------------------------------------------------------------
# construction


def test_empty_model():
    m = AlignmentModel("FAQ Chatbot")
    assert m.system_name == "FAQ Chatbot"
    assert m.elements == [] and m.relations == []


def test_model_rejects_empty_name():
    with pytest.raises(ModelError) as err:
        AlignmentModel("")
    assert err.value.code == "E000"


def test_model_refuses_a_name_that_is_not_a_string():
    for bad in (5, None, b"FAQ"):
        with pytest.raises(ModelError) as err:
            AlignmentModel(bad)
        assert err.value.code == "E015"
    assert err.value.message == "system name must be a string, not bytes"


def test_model_other_name():
    assert AlignmentModel("Job Interview Practice").elements == []


def test_add_element_basic():
    m = AlignmentModel("x")
    m.add_element(K.SYSTEM_COMPONENT, "faq_search", "FAQ search module")
    [element] = m.elements
    assert element.id == "faq_search" and element.kind is K.SYSTEM_COMPONENT


def test_add_element_duplicate_id():
    m = AlignmentModel("x")
    m.add_element(K.DATA_MODEL, "faq_set", "FAQ set")
    with pytest.raises(ModelError) as err:
        m.add_element(K.DATA_MODEL, "faq_set", "again")
    assert err.value.code == "E001"


def test_add_element_event_with_hinders_attr():
    m = AlignmentModel("x")
    m.add_element(
        K.OBSERVED_EVENT,
        "pii",
        "personal information in utterances",
        attrs={"hinders": [("privacy", "medium", "may leak")]},
    )
    assert m.elements[0].attrs["hinders"][0][0] == "privacy"


def test_add_element_keeps_its_own_attr_entries():
    entries = [["privacy", "medium", "may leak"]]
    m = AlignmentModel("x")
    m.add_element(K.OBSERVED_EVENT, "pii", "PII", attrs={"hinders": entries})
    m.add_relation(R.ASSOCIATION, "pii", m.add_element(K.DATA_MODEL, "d", "D"))
    found = m.validate()
    entries.append(("bogus_leaf", "extreme", "x"))
    entries[0][0] = "bogus_leaf"
    assert m.elements[0].attrs["hinders"] == (("privacy", "medium", "may leak"),)
    assert m.validate() == found == m.copy().validate()


def test_add_element_rejects_unknown_attr_key():
    m = AlignmentModel("x")
    with pytest.raises(ModelError) as err:
        m.add_element(K.DATA_MODEL, "d", "D", attrs={"runs_on": "server"})
    assert err.value.code == "E002"


def test_add_element_rejects_bad_id():
    m = AlignmentModel("x")
    for bad in ("Faq", "1faq", "faq-search", "_x", 5, None, ("a",)):
        with pytest.raises(ModelError) as err:
            m.add_element(K.DATA_MODEL, bad, "D")
        assert err.value.code == "E005"


def test_single_user_and_operator():
    m = AlignmentModel("x")
    m.add_element(K.USER, "u", "User")
    with pytest.raises(ModelError) as err:
        m.add_element(K.USER, "u2", "Second user")
    assert err.value.code == "E007"


def test_unknown_kinds_are_e008():
    m = two_element_model(K.SYSTEM_COMPONENT, K.DATA_MODEL)
    for kind in ("Bogus", R.ACCESS, ""):
        with pytest.raises(ModelError) as err:
            m.add_element(kind, "d2", "D")
        assert err.value.code == "E008"
    for kind in ("Bogus", K.DATA_MODEL):
        with pytest.raises(ModelError) as err:
            m.add_relation(kind, "src", "dst")
        assert err.value.code == "E008"
    assert m.elements[2:] == [] and m.relations == []


def test_a_kind_built_at_run_time_is_stored_as_its_constant():
    # An equal string that is not the constant itself: the rules compare
    # kinds with ``is``, so the model must hold the constant.
    user, access = "".join(["Us", "er"]), "".join(["Acc", "ess"])
    assert user == K.USER and user is not K.USER
    m = AlignmentModel("x")
    m.add_element(user, "u", "Alice")
    assert m.elements[0].kind is K.USER
    assert '"u" [label="User\\nAlice"];' in to_dot(m)
    with pytest.raises(ModelError) as err:
        m.add_element("".join(["Us", "er"]), "u2", "Second user")
    assert err.value.code == "E007"
    m.add_element(K.SYSTEM_COMPONENT, "c", "C")
    m.add_element(K.DATA_MODEL, "d", "D")
    m.add_relation(access, "c", "d")
    assert m.relations[0].kind is R.ACCESS
    assert [e.id for e in m.elements if e.kind == user] == ["u"]


def test_frozen_model_rejects_mutation():
    m = AlignmentModel("x")
    m.freeze()
    with pytest.raises(ModelError) as err:
        m.add_element(K.DATA_MODEL, "d", "D")
    assert err.value.code == "E006"


# ---------------------------------------------------------------------------
# relations


def two_element_model(skind, tkind):
    m = AlignmentModel("x")
    m.add_element(skind, "src", "Source")
    m.add_element(tkind, "dst", "Target")
    return m


def test_add_relation_realization_function_to_service():
    m = two_element_model(K.COMPONENT_FUNCTION, K.DIALOGUE_SERVICE)
    rid = m.add_relation(R.REALIZATION, "src", "dst")
    assert m.relations[0].id == rid


def test_add_relation_forbidden_triple():
    m = two_element_model(K.DATA_MODEL, K.USER)
    with pytest.raises(ModelError) as err:
        m.add_relation(R.SERVING, "src", "dst")
    assert err.value.code == "E004"


def test_add_relation_unknown_endpoint():
    m = AlignmentModel("x")
    m.add_element(K.DATA_MODEL, "d", "D")
    with pytest.raises(ModelError) as err:
        m.add_relation(R.ACCESS, "d", "nope")
    assert err.value.code == "E003"


# The permitted-connections table, written out independently of the
# implementation so the check is an exhaustive enumeration, not a tautology.
EXPECTED_DIRECTED = {
    ("Assignment", "User", "UserActivity"),
    ("Assignment", "Operator", "OperatorActivity"),
    ("Serving", "DialogueService", "UserActivity"),
    ("Serving", "DialogueService", "OperatorActivity"),
    ("Serving", "SystemComponent", "DialogueService"),
    ("Realization", "ComponentFunction", "DialogueService"),
    ("Realization", "SystemComponent", "ComponentFunction"),
    ("Access", "SystemComponent", "DataModel"),
    ("Access", "ComponentFunction", "DataModel"),
    ("Influence", "UserValue", "BusinessValue"),
    ("Influence", "QualityValue", "BusinessValue"),
    ("Influence", "ObservedEvent", "Principle"),
    ("Influence", "ObservedEvent", "CostItem"),
    ("Influence", "ObservedEvent", "RiskItem"),
    ("Influence", "SystemComponent", "CostItem"),
    ("Influence", "UserActivity", "OperatorActivity"),
}


def test_permitted_connections_exhaustive():
    singletons = (K.USER, K.OPERATOR)
    for skind, rkind, tkind in itertools.product(ELEMENT_KINDS, RELATION_KINDS, ELEMENT_KINDS):
        if rkind is R.ASSOCIATION:
            expected = True  # any pair may associate (W105 outside the core pairs)
        else:
            expected = (rkind, skind, tkind) in EXPECTED_DIRECTED
        if skind is tkind and skind in singletons:
            # One User/Operator per model: a loop on the one element.
            m, target = AlignmentModel("x"), "src"
            m.add_element(skind, "src", "Source")
        else:
            m, target = two_element_model(skind, tkind), "dst"
        try:
            m.add_relation(rkind, "src", target)
            accepted = True
        except ModelError as err:
            assert err.code == "E004"
            accepted = False
        assert accepted == expected, (skind, rkind, tkind)


def test_relation_closure_over_fixture(faq_model):
    kinds = {e.id: e.kind for e in faq_model.elements}
    for rel in faq_model.relations:
        skind, tkind = kinds[rel.source], kinds[rel.target]
        if rel.kind is not R.ASSOCIATION:
            assert (rel.kind, skind, tkind) in EXPECTED_DIRECTED


# ---------------------------------------------------------------------------
# validation


def test_validate_faq_fixture_clean(faq_model):
    assert faq_model.validate() == []


def test_validate_dangling_event_w101():
    m = AlignmentModel("x")
    m.add_element(K.DATA_MODEL, "d", "D")
    m.add_element(K.OBSERVED_EVENT, "e", "Event")
    m.add_relation(R.ASSOCIATION, "e", "d")
    found = codes(m.validate())
    assert "W101" in found and "E011" not in found


def test_validate_component_without_function_v1():
    m = AlignmentModel("x")
    m.add_element(K.SYSTEM_COMPONENT, "c", "Component")
    assert "E010" in codes(m.validate())


def test_validate_unanchored_event_v2():
    m = AlignmentModel("x")
    m.add_element(
        K.OBSERVED_EVENT, "e", "Event", attrs={"implies_cost": [("it_resources", "x")]}
    )
    assert "E011" in codes(m.validate())


def test_validate_operator_activity_without_value_w102():
    m = AlignmentModel("x")
    m.add_element(K.OPERATOR_ACTIVITY, "a", "Activity")
    assert "W102" in codes(m.validate())


def test_validate_unserved_user_activity_w103():
    m = AlignmentModel("x")
    m.add_element(K.USER_ACTIVITY, "a", "Activity")
    assert "W103" in codes(m.validate())


def test_validate_unaccessed_data_w104():
    m = AlignmentModel("x")
    m.add_element(K.DATA_MODEL, "d", "D")
    assert "W104" in codes(m.validate())


def test_validate_unusual_association_w105():
    m = two_element_model(K.DATA_MODEL, K.DATA_MODEL)
    m.add_relation(R.ASSOCIATION, "src", "dst")
    found = codes(m.validate())
    assert "W105" in found


def test_validate_unknown_leaf_in_attr_value():
    m = AlignmentModel("x")
    m.add_element(
        K.OBSERVED_EVENT,
        "e",
        "Event",
        attrs={"hinders": [("privasy", "medium", "typo")]},
    )
    assert "E120" in codes(m.validate())


def test_validate_wrong_branch_category():
    m = AlignmentModel("x")
    m.add_element(K.COST_ITEM, "c", "Cost", attrs={"category": "privacy"})
    assert "E125" in codes(m.validate())


def test_allowed_attrs_per_kind_are_pinned():
    # The attr keys of each kind, in the printer's order.
    assert ALLOWED_ATTRS == {
        K.USER: (),
        K.OPERATOR: (),
        K.USER_ACTIVITY: ("yields_user_value", "yields_quality_value"),
        K.OPERATOR_ACTIVITY: ("yields_business_value",),
        K.DIALOGUE_SERVICE: (),
        K.SYSTEM_COMPONENT: ("runs_on",),
        K.COMPONENT_FUNCTION: (),
        K.DATA_MODEL: (),
        K.OBSERVED_EVENT: ("implies_cost", "hinders"),
        K.USER_VALUE: ("category",),
        K.QUALITY_VALUE: ("category",),
        K.BUSINESS_VALUE: ("category",),
        K.COST_ITEM: ("category",),
        K.RISK_ITEM: ("category", "severity"),
        K.PRINCIPLE: (),
    }


def test_validate_malformed_attr_value():
    m = AlignmentModel("x")
    m.add_element(K.OBSERVED_EVENT, "e", "Event", attrs={"hinders": "privacy"})
    assert "E012" in codes(m.validate())


def test_validate_malformed_list_entry_shows_as_the_stored_tuple():
    m = AlignmentModel("x")
    m.add_element(K.OBSERVED_EVENT, "e", "Event", attrs={"implies_cost": [["it_resources"]]})
    message = "'e': malformed 'implies_cost' entry ('it_resources',)"
    assert [d.message for d in m.validate() if d.code == "E012"] == [message]


def test_validate_non_string_description_e012():
    # The printer and derivation use the last part of an entry as text.
    m = AlignmentModel("x")
    m.add_element(K.OBSERVED_EVENT, "e", "Event", attrs={"implies_cost": [("it_resources", 5)]})
    assert "E012" in codes(m.validate())


def test_validate_bad_severity_level():
    m = AlignmentModel("x")
    m.add_element(
        K.OBSERVED_EVENT,
        "e",
        "Event",
        attrs={"hinders": [("privacy", "extreme", "x")]},
    )
    assert "E122" in codes(m.validate())
    # The same word checks on a derived item's severity and on runs_on.
    m.add_element(K.RISK_ITEM, "r", "Risk", attrs={"category": "privacy", "severity": "extreme"})
    m.add_element(K.SYSTEM_COMPONENT, "c", "C", attrs={"runs_on": "cloud"})
    found = [(d.code, d.subject) for d in m.validate() if d.code in ("E122", "E123")]
    assert found == [("E122", "e"), ("E122", "r"), ("E123", "c")]


@pytest.mark.parametrize(
    "description, attrs",
    [
        ("a\x1fb", {}),
        (None, {"hinders": [("privacy", "medium", "leaks \ud800")]}),
        (None, {"implies_cost": [("it_resources", "\ufffe")]}),
    ],
)
def test_validate_xml_forbidden_character_e013(description, attrs):
    m = AlignmentModel("x")
    m.add_element(K.OBSERVED_EVENT, "e", "Event", description, attrs)
    found = [d for d in m.validate() if d.code == "E013"]
    assert len(found) == 1 and found[0].severity is Severity.ERROR
    assert found[0].subject == "e" and "\n" not in found[0].render()


def test_validate_tab_and_line_feed_are_not_e013():
    m = AlignmentModel("S\tT")
    m.add_element(K.USER_ACTIVITY, "a", "line\tone\nline two")
    assert "E013" not in codes(m.validate())


def test_validate_reports_every_rule_in_a_pinned_order():
    # V9 on the system name first; then per element in insertion order: V9 on
    # its name and description, its V1-V6 rows, V7 (and V9 on entry parts);
    # V8's W105 last.
    m = AlignmentModel("Sys\x01")
    m.add_element(K.SYSTEM_COMPONENT, "c", "Comp\x02", attrs={"runs_on": "cloud"})
    m.add_element(K.OBSERVED_EVENT, "e", "Event", "about\x03")
    m.add_element(K.DATA_MODEL, "d", "Data")
    m.add_element(K.DATA_MODEL, "d2", "Other data")
    m.add_element(
        K.OBSERVED_EVENT,
        "f",
        "Fault",
        attrs={
            "implies_cost": [("it_resources", "cost \x04"), ("it_resources",)],
            "hinders": [
                ("privasy", "medium", "typo"),
                ("must_be", "high", "branch"),
                ("privacy", "extreme", "x"),
            ],
        },
    )
    m.add_element(K.OBSERVED_EVENT, "g", "Gap", attrs={"hinders": "privacy"})
    m.add_element(K.OPERATOR_ACTIVITY, "o", "Operate")
    m.add_element(K.USER_ACTIVITY, "u", "Use")
    m.add_element(K.RISK_ITEM, "r", "Risk", attrs={"category": "it_resources", "severity": "extreme"})
    m.add_element(K.COST_ITEM, "k", "Cost", attrs={"category": "gold"})
    m.add_relation(R.ASSOCIATION, "f", "d")
    m.add_relation(R.ASSOCIATION, "g", "c")
    m.add_relation(R.ASSOCIATION, "d", "d2")
    error, warning = Severity.ERROR, Severity.WARNING
    assert [(d.code, d.severity, d.message, d.subject) for d in m.validate()] == [
        ("E013", error, "character '\\x01' is not allowed in the system name", None),
        ("E013", error, "'c': character '\\x02' is not allowed in its name", "c"),
        ("E010", error, "component 'c' realizes no function", "c"),
        ("E123", error, "'c': unknown runtime target 'cloud'", "c"),
        ("E013", error, "'e': character '\\x03' is not allowed in its description", "e"),
        (
            "E011",
            error,
            "event 'e' has no association to a component, function, or data model",
            "e",
        ),
        ("W101", warning, "dangling event 'e': no implies_cost or hinders entry", "e"),
        ("W104", warning, "data model 'd' is not accessed by any component", "d"),
        ("W104", warning, "data model 'd2' is not accessed by any component", "d2"),
        ("E013", error, "'f': character '\\x04' is not allowed in its 'implies_cost' entry", "f"),
        ("E012", error, "'f': malformed 'implies_cost' entry ('it_resources',)", "f"),
        ("E120", error, "'f': unknown taxonomy leaf 'privasy' in hinders", "f"),
        ("E125", error, "'f': leaf 'must_be' is from the wrong branch for hinders", "f"),
        ("E122", error, "'f': unknown severity level 'extreme'", "f"),
        ("E012", error, "'g': attr 'hinders' must be a list of entries", "g"),
        ("W102", warning, "operator activity 'o' declares no business value", "o"),
        ("W103", warning, "user activity 'u' is not served by any dialogue service", "u"),
        ("E125", error, "'r': leaf 'it_resources' is from the wrong branch for category", "r"),
        ("E122", error, "'r': unknown severity level 'extreme'", "r"),
        ("E120", error, "'k': unknown taxonomy leaf 'gold' in category", "k"),
        ("W105", warning, "unusual association between DataModel and DataModel", "r003"),
    ]


def test_validate_reruns_rules_after_add_element():
    m = AlignmentModel("x")
    assert m.validate() == []
    m.add_element(K.USER_ACTIVITY, "a", "Activity")
    assert codes(m.validate()) == ["W103"]


def test_validate_reruns_rules_after_add_relation():
    m = two_element_model(K.DIALOGUE_SERVICE, K.USER_ACTIVITY)
    assert codes(m.validate()) == ["W103"]
    m.add_relation(R.SERVING, "src", "dst")
    assert m.validate() == []


def test_validate_returns_a_fresh_list():
    m = AlignmentModel("x")
    m.add_element(K.DATA_MODEL, "d", "D")
    first = m.validate()
    with pytest.raises(AttributeError):  # diagnostics are shared between calls
        first[0].message = "edited"
    first.clear()
    assert codes(m.validate()) == ["W104"]
    assert m.validate() is not m.validate()


def test_validation_soundness_replay(fixture_models):
    # A model with zero errors accepts a replay of its own contents.
    for model in fixture_models.values():
        assert not any(d.severity is Severity.ERROR for d in model.validate())
        replay = AlignmentModel(model.system_name)
        for e in model.elements:
            replay.add_element(e.kind, e.id, e.name, e.description, dict(e.attrs))
        for rel in model.relations:
            replay.add_relation(rel.kind, rel.source, rel.target)
        assert len(replay.elements) == len(model.elements)
        assert len(replay.relations) == len(model.relations)


# ---------------------------------------------------------------------------
# taxonomy and queries


def test_taxonomy_arity():
    assert len(VALUE_LEAVES) == 9
    assert len(RISK_LEAVES) == 7
    assert len(COST_LEAVES) == 3
    assert len(set(ALL_LEAVES)) == 19
    assert tuple(leaf for _, leaves in BRANCHES.values() for leaf in leaves) == ALL_LEAVES


def test_elements_of_kind_order(faq_model):
    ids = [e.id for e in faq_model.elements if e.kind is K.SYSTEM_COMPONENT]
    assert ids == ["web_server", "dialogue_manager", "faq_search"]


def test_elements_of_kind_empty_model():
    assert [e for e in AlignmentModel("x").elements if e.kind is K.DATA_MODEL] == []


def test_elements_of_kind_data_models(faq_model):
    ids = [e.id for e in faq_model.elements if e.kind is K.DATA_MODEL]
    assert ids == [
        "request_utterances",
        "system_responses",
        "dialogue_scenario",
        "faq_set",
    ]


def test_queries_are_deterministic(faq_model):
    first = [e.id for e in faq_model.elements if e.kind is K.DATA_MODEL]
    second = [e.id for e in faq_model.elements if e.kind is K.DATA_MODEL]
    assert first == second


# ---------------------------------------------------------------------------
# record types


def _records():
    """Each record type with its fields in declaration order.

    A field is (name, default, a, b): ``default`` is ``REQUIRED`` for a field
    without one, and ``a`` and ``b`` are two values that differ from each
    other and from the default.
    """
    from dsalign.derive import EvaluationItem, EvaluationItemSet, Rule
    from dsalign.dsl import ParseResult
    from dsalign.model import Diagnostic, Element, Entry, Relation, SourceSpan, Statement
    from dsalign.report import Matrix

    span = SourceSpan("m.dsa", 3, 5)
    warn = Diagnostic("W104", Severity.WARNING, "unused")
    return {
        Entry: [
            ("relation", None, R.ACCESS, R.SERVING),
            ("owner_is_source", True, False, None),
            ("single", False, True, None),
            ("nested", None, K.COMPONENT_FUNCTION, K.DATA_MODEL),
            ("form", None, "leaf", "word"),
            ("leaves", (), ("functional",), ("social",)),
        ],
        Statement: [
            ("keyword", REQUIRED, "data", "event"),
            ("entries", {}, {"uses": Entry(R.ACCESS)}, {"about": Entry(R.ASSOCIATION)}),
            ("role", None, "user", "operator"),
        ],
        SourceSpan: [
            ("file", REQUIRED, "m.dsa", "n.dsa"),
            ("line", REQUIRED, 3, 4),
            ("column", REQUIRED, 5, 6),
            ("length", 1, 7, 8),
        ],
        Diagnostic: [
            ("code", REQUIRED, "W104", "W101"),
            ("severity", REQUIRED, Severity.WARNING, Severity.ERROR),
            ("message", REQUIRED, "unused", "dangling"),
            ("location", None, span, SourceSpan("m.dsa", 1, 1)),
            ("subject", None, "d", "e"),
        ],
        Element: [
            ("id", REQUIRED, "d", "e"),
            ("kind", REQUIRED, K.DATA_MODEL, K.OBSERVED_EVENT),
            ("name", REQUIRED, "D", "E"),
            ("description", None, "about D", "about E"),
            ("attrs", {}, {"runs_on": "server"}, {"runs_on": "device"}),
        ],
        Relation: [
            ("id", REQUIRED, "r001", "r002"),
            ("kind", REQUIRED, R.ACCESS, R.SERVING),
            ("source", REQUIRED, "c", "s"),
            ("target", REQUIRED, "d", "u"),
        ],
        ParseResult: [
            ("model", REQUIRED, AlignmentModel("x"), AlignmentModel("y")),
            ("diagnostics", REQUIRED, [warn], []),
            ("spans", {}, {"d": span}, {"e": span}),
        ],
        EvaluationItem: [
            ("id", REQUIRED, "item_r2_risk_1", "item_r2_risk_2"),
            ("category", REQUIRED, "privacy", "beneficence"),
            ("description", REQUIRED, "leak (E)", "harm (E)"),
            ("sources", REQUIRED, ["e"], ["f"]),
            ("rule", REQUIRED, Rule.R2_RISK, Rule.R1_COST),
            ("severity", None, "high", "low"),
        ],
        EvaluationItemSet: [
            ("system_name", REQUIRED, "X", "Y"),
            ("items", REQUIRED, [], [None]),
            ("warnings", [], [warn], [warn, warn]),
        ],
        Matrix: [
            ("rows", REQUIRED, ["privacy"], ["social"]),
            ("columns", REQUIRED, ["X"], ["Y"]),
            ("cells", REQUIRED, [[["leak"]]], [[[]]]),
            ("common_row_ids", REQUIRED, ["privacy"], []),
        ],
    }


REQUIRED = object()
RECORDS = list(_records().items())
RECORD_IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
def test_record_construction_and_defaults(cls, fields):
    values = {name: a for name, _, a, _ in fields}
    for record in (cls(*values.values()), cls(**values)):
        assert {name: getattr(record, name) for name in values} == values
    required = {name: a for name, default, a, _ in fields if default is REQUIRED}
    for record in (cls(*required.values()), cls(**required)):
        for name, default, _, _ in fields:
            expected = required[name] if default is REQUIRED else default
            assert getattr(record, name) == expected, name
    for name, default, _, _ in fields:
        if isinstance(default, (dict, list)):  # a fresh mutable default per record
            assert getattr(cls(**required), name) is not getattr(cls(**required), name)
    with pytest.raises(TypeError):
        cls(*values.values(), None)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
def test_record_equality_is_field_wise(cls, fields):
    values = {name: a for name, _, a, _ in fields}
    record = cls(**values)
    assert record == cls(**values) and not record != cls(**values)
    for name, _, _, b in fields:
        changed = cls(**{**values, name: b})
        assert record != changed and not record == changed, name
    for other_cls, other_fields in RECORDS:
        if other_cls is not cls:
            other = other_cls(**{name: a for name, _, a, _ in other_fields})
            assert record != other and not record == other, other_cls.__name__


@pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
def test_record_repr_names_the_class_and_each_field(cls, fields):
    values = {name: a for name, _, a, _ in fields}
    text = repr(cls(**values))
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
    for name, a in values.items():
        assert f"{name}={a!r}" in text


def test_record_repr_is_pinned():
    from dsalign.model import Diagnostic, SourceSpan

    span = SourceSpan("m.dsa", 3, 5)
    assert repr(span) == "SourceSpan(file='m.dsa', line=3, column=5, length=1)"
    assert repr(Diagnostic("W104", Severity.WARNING, "unused", span, "d")) == (
        "Diagnostic(code='W104', severity='warning', message='unused', "
        "location=SourceSpan(file='m.dsa', line=3, column=5, length=1), subject='d')"
    )


@pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
def test_record_assignment_only_to_mutable_records(cls, fields):
    record = cls(**{name: a for name, _, a, _ in fields})
    frozen = cls.__name__ in ("Diagnostic", "Relation", "Entry", "Statement")
    for name, _, _, b in fields:
        if frozen:
            with pytest.raises(AttributeError):
                setattr(record, name, b)
        else:
            setattr(record, name, b)
            assert getattr(record, name) == b


def test_record_hashability():
    from dsalign.model import Diagnostic, Element, Entry, Relation

    assert hash(Relation("r001", R.ACCESS, "c", "d")) == hash(Relation("r001", R.ACCESS, "c", "d"))
    assert hash(Entry(R.ACCESS)) == hash(Entry(R.ACCESS))
    hash(Diagnostic("W104", Severity.WARNING, "unused", subject="d"))
    with pytest.raises(TypeError):
        hash(Element("d", K.DATA_MODEL, "D"))
    for cls, fields in RECORDS:
        if cls.__name__ not in ("Entry", "Diagnostic", "Relation"):
            with pytest.raises(TypeError):  # mutable, or holding a dict
                hash(cls(**{name: a for name, _, a, _ in fields}))


def test_the_readme_catalogue_lists_exactly_the_codes_under_src():
    # README's "Diagnostic codes" table, with its W101-W105 row expanded, is
    # the set of code literals in the source: no code undocumented, none stale.
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Diagnostic codes\n", 1)[1].split("\n## ", 1)[0]
    listed = set()
    for first, last in re.findall(r"^\| ([EW]\d{3})(?:-([EW]\d{3}))? \|", table, re.M):
        numbers = range(int(first[1:]), int((last or first)[1:]) + 1)
        listed.update(f"{first[0]}{n:03}" for n in numbers)
    in_src = set()
    for path in (REPO / "src").rglob("*.py"):
        in_src.update(re.findall(r'"([EW]\d{3})"', path.read_text(encoding="utf-8")))
    assert listed == in_src
