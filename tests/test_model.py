from __future__ import annotations

import itertools

import pytest

from dsalign.model import (
    ALL_LEAVES,
    COST_LEAVES,
    ElementKind,
    ModelError,
    RelationKind,
    RISK_LEAVES,
    Severity,
    VALUE_LEAVES,
    new_model,
    relation_permitted,
)

K = ElementKind
R = RelationKind


def codes(diagnostics):
    return [d.code for d in diagnostics]


# ---------------------------------------------------------------------------
# construction


def test_new_model_empty():
    m = new_model("FAQ Chatbot")
    assert m.system_name == "FAQ Chatbot"
    assert m.elements == [] and m.relations == []


def test_new_model_rejects_empty_name():
    with pytest.raises(ModelError) as err:
        new_model("")
    assert err.value.code == "E000"


def test_new_model_other_name():
    assert new_model("Job Interview Practice").elements == []


def test_add_element_basic():
    m = new_model("x")
    m.add_element(K.SYSTEM_COMPONENT, "faq_search", "FAQ search module")
    assert m.element("faq_search").kind is K.SYSTEM_COMPONENT


def test_add_element_duplicate_id():
    m = new_model("x")
    m.add_element(K.DATA_MODEL, "faq_set", "FAQ set")
    with pytest.raises(ModelError) as err:
        m.add_element(K.DATA_MODEL, "faq_set", "again")
    assert err.value.code == "E001"


def test_add_element_event_with_hinders_attr():
    m = new_model("x")
    m.add_element(
        K.OBSERVED_EVENT,
        "pii",
        "personal information in utterances",
        attrs={"hinders": [("privacy", "medium", "may leak")]},
    )
    assert m.element("pii").attrs["hinders"][0][0] == "privacy"


def test_add_element_rejects_unknown_attr_key():
    m = new_model("x")
    with pytest.raises(ModelError) as err:
        m.add_element(K.DATA_MODEL, "d", "D", attrs={"runs_on": "server"})
    assert err.value.code == "E002"


def test_add_element_rejects_bad_id():
    m = new_model("x")
    for bad in ("Faq", "1faq", "faq-search", "_x"):
        with pytest.raises(ModelError) as err:
            m.add_element(K.DATA_MODEL, bad, "D")
        assert err.value.code == "E005"


def test_single_user_and_operator():
    m = new_model("x")
    m.add_element(K.USER, "u", "User")
    with pytest.raises(ModelError) as err:
        m.add_element(K.USER, "u2", "Second user")
    assert err.value.code == "E007"


def test_frozen_model_rejects_mutation():
    m = new_model("x")
    m.freeze()
    with pytest.raises(ModelError) as err:
        m.add_element(K.DATA_MODEL, "d", "D")
    assert err.value.code == "E006"


# ---------------------------------------------------------------------------
# relations


def two_element_model(skind, tkind):
    m = new_model("x")
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
    m = new_model("x")
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
    for skind, rkind, tkind in itertools.product(ElementKind, RelationKind, ElementKind):
        if rkind is R.ASSOCIATION:
            expected = True  # any pair may associate (W105 outside the core pairs)
        else:
            expected = (rkind.value, skind.value, tkind.value) in EXPECTED_DIRECTED
        assert relation_permitted(skind, rkind, tkind) == expected, (skind, rkind, tkind)
        if skind is tkind and skind in singletons:
            continue  # not constructible: one User/Operator per model
        m = two_element_model(skind, tkind)
        try:
            m.add_relation(rkind, "src", "dst")
            accepted = True
        except ModelError as err:
            assert err.code == "E004"
            accepted = False
        assert accepted == expected, (skind, rkind, tkind)


def test_relation_closure_over_fixture(faq_model):
    for rel in faq_model.relations:
        skind = faq_model.element(rel.source).kind
        tkind = faq_model.element(rel.target).kind
        if rel.kind is not R.ASSOCIATION:
            assert (rel.kind.value, skind.value, tkind.value) in EXPECTED_DIRECTED


# ---------------------------------------------------------------------------
# validation


def test_validate_faq_fixture_clean(faq_model):
    assert faq_model.validate() == []


def test_validate_dangling_event_w101():
    m = new_model("x")
    m.add_element(K.DATA_MODEL, "d", "D")
    m.add_element(K.OBSERVED_EVENT, "e", "Event")
    m.add_relation(R.ASSOCIATION, "e", "d")
    found = codes(m.validate())
    assert "W101" in found and "E011" not in found


def test_validate_component_without_function_v1():
    m = new_model("x")
    m.add_element(K.SYSTEM_COMPONENT, "c", "Component")
    assert "E010" in codes(m.validate())


def test_validate_unanchored_event_v2():
    m = new_model("x")
    m.add_element(
        K.OBSERVED_EVENT, "e", "Event", attrs={"implies_cost": [("it_resources", "x")]}
    )
    assert "E011" in codes(m.validate())


def test_validate_operator_activity_without_value_w102():
    m = new_model("x")
    m.add_element(K.OPERATOR_ACTIVITY, "a", "Activity")
    assert "W102" in codes(m.validate())


def test_validate_unserved_user_activity_w103():
    m = new_model("x")
    m.add_element(K.USER_ACTIVITY, "a", "Activity")
    assert "W103" in codes(m.validate())


def test_validate_unaccessed_data_w104():
    m = new_model("x")
    m.add_element(K.DATA_MODEL, "d", "D")
    assert "W104" in codes(m.validate())


def test_validate_unusual_association_w105():
    m = two_element_model(K.DATA_MODEL, K.DATA_MODEL)
    m.add_relation(R.ASSOCIATION, "src", "dst")
    found = codes(m.validate())
    assert "W105" in found


def test_validate_unknown_leaf_in_attr_value():
    m = new_model("x")
    m.add_element(
        K.OBSERVED_EVENT,
        "e",
        "Event",
        attrs={"hinders": [("privasy", "medium", "typo")]},
    )
    assert "E120" in codes(m.validate())


def test_validate_wrong_branch_category():
    m = new_model("x")
    m.add_element(K.COST_ITEM, "c", "Cost", attrs={"category": "privacy"})
    assert "E125" in codes(m.validate())


def test_validate_malformed_attr_value():
    m = new_model("x")
    m.add_element(K.OBSERVED_EVENT, "e", "Event", attrs={"hinders": "privacy"})
    assert "E012" in codes(m.validate())


def test_validate_bad_severity_level():
    m = new_model("x")
    m.add_element(
        K.OBSERVED_EVENT,
        "e",
        "Event",
        attrs={"hinders": [("privacy", "extreme", "x")]},
    )
    assert "E122" in codes(m.validate())


@pytest.mark.parametrize(
    "description, attrs",
    [
        ("a\x1fb", {}),
        (None, {"hinders": [("privacy", "medium", "leaks \ud800")]}),
        (None, {"implies_cost": [("it_resources", "\ufffe")]}),
    ],
)
def test_validate_xml_forbidden_character_e013(description, attrs):
    m = new_model("x")
    m.add_element(K.OBSERVED_EVENT, "e", "Event", description, attrs)
    found = [d for d in m.validate() if d.code == "E013"]
    assert len(found) == 1 and found[0].severity is Severity.ERROR
    assert found[0].subject == "e" and "\n" not in found[0].render()


def test_validate_tab_and_line_feed_are_not_e013():
    m = new_model("S\tT")
    m.add_element(K.USER_ACTIVITY, "a", "line\tone\nline two")
    assert "E013" not in codes(m.validate())


def test_validate_reruns_rules_after_add_element():
    m = new_model("x")
    assert m.validate() == []
    m.add_element(K.USER_ACTIVITY, "a", "Activity")
    assert codes(m.validate()) == ["W103"]


def test_validate_reruns_rules_after_add_relation():
    m = two_element_model(K.DIALOGUE_SERVICE, K.USER_ACTIVITY)
    assert codes(m.validate()) == ["W103"]
    m.add_relation(R.SERVING, "src", "dst")
    assert m.validate() == []


def test_validate_returns_a_fresh_list():
    m = new_model("x")
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
        replay = new_model(model.system_name)
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


def test_elements_of_kind_order(faq_model):
    ids = [e.id for e in faq_model.elements_of_kind(K.SYSTEM_COMPONENT)]
    assert ids == ["web_server", "dialogue_manager", "faq_search"]


def test_elements_of_kind_empty_model():
    assert new_model("x").elements_of_kind(K.DATA_MODEL) == []


def test_elements_of_kind_data_models(faq_model):
    ids = [e.id for e in faq_model.elements_of_kind(K.DATA_MODEL)]
    assert ids == [
        "request_utterances",
        "system_responses",
        "dialogue_scenario",
        "faq_set",
    ]


def test_neighbors_association(faq_model):
    ids = [e.id for e in faq_model.neighbors("faq_set", R.ASSOCIATION)]
    assert "needs_faq_set" in ids


def test_neighbors_isolated_element():
    m = new_model("x")
    m.add_element(K.DATA_MODEL, "d", "D")
    assert m.neighbors("d") == []


def test_neighbors_access_out(faq_model):
    ids = [e.id for e in faq_model.neighbors("dialogue_manager", R.ACCESS, "out")]
    assert ids == ["dialogue_scenario"]


def test_neighbors_unknown_id(faq_model):
    with pytest.raises(ModelError) as err:
        faq_model.neighbors("nope")
    assert err.value.code == "E003"


def test_neighbors_in_direction(faq_model):
    ids = [e.id for e in faq_model.neighbors("dialogue_scenario", R.ACCESS, "in")]
    assert ids == ["dialogue_manager"]
    assert faq_model.neighbors("dialogue_scenario", R.ACCESS, "out") == []


def test_neighbors_rejects_bad_direction(faq_model):
    with pytest.raises(ValueError):
        faq_model.neighbors("faq_set", direction="sideways")


def test_queries_are_deterministic(faq_model):
    first = [e.id for e in faq_model.elements_of_kind(K.DATA_MODEL)]
    second = [e.id for e in faq_model.elements_of_kind(K.DATA_MODEL)]
    assert first == second
    n1 = [e.id for e in faq_model.neighbors("faq_service")]
    n2 = [e.id for e in faq_model.neighbors("faq_service")]
    assert n1 == n2
