from __future__ import annotations

import pytest

from dsalign.derive import (
    RULE_TABLE,
    RULES,
    EvaluationItem,
    EvaluationItemSet,
    Rule,
    attach,
    derive_all,
    derive_rule,
    serialize_itemset,
    summary_line,
)
from dsalign.model import (
    BRANCHES,
    RUNTIME_TARGETS,
    STATEMENTS,
    AlignmentModel,
    ElementKind,
    ModelError,
    RelationKind,
    Severity,
)
from dsalign import derive as derive_module
from dsalign import model as model_module
from dsalign.dsl import format_model, parse
from dsalign.export import to_dot, to_open_exchange

from conftest import FIXTURE_NAMES, FIXTURES

K = ElementKind


def item_key(item):
    return (item.rule, item.category, item.description, tuple(item.sources), item.severity)


def expected_cost_count(model) -> int:
    # Independent recount straight from the model contents, rule by rule.
    components = model.elements_of_kind(K.SYSTEM_COMPONENT)
    events = model.elements_of_kind(K.OBSERVED_EVENT)
    per_component = 2 * len(components)
    fees = sum(1 for c in components if c.attrs.get("runs_on") in ("server", "external_api"))
    notes = sum(len(e.attrs.get("implies_cost", [])) for e in events)
    return per_component + fees + notes


def test_rule_table_has_a_row_per_rule_and_per_item_yielding_entry():
    # A statement entry of form leaf, cost or hinders without a row would
    # silently yield no items.
    yielding = {
        (kind, key)
        for kind, statement in STATEMENTS.items()
        for key, entry in statement.entries.items()
        if entry.form in ("leaf", "cost", "hinders")
    }
    assert list(RULE_TABLE) == list(RULES)
    assert {(kind, attr) for _, _, kind, attr in RULE_TABLE.values()} == yielding
    # Each row's entries take exactly its item kind's leaves, so no derived
    # item fails V7 on the attached model (which would make export stop, E300).
    for item_kind, _, kind, attr in RULE_TABLE.values():
        assert STATEMENTS[kind].entries[attr].leaves == BRANCHES[item_kind][1]
    m = AlignmentModel("x")
    for runtime in RUNTIME_TARGETS:
        m.add_element(K.SYSTEM_COMPONENT, f"c_{runtime}", runtime, attrs={"runs_on": runtime})
    fixed = {item.category for item in derive_rule(m, Rule.R1_COST)}
    assert fixed and fixed <= set(BRANCHES[RULE_TABLE[Rule.R1_COST][0]][1])


# ---------------------------------------------------------------------------
# R1 costs


def test_faq_cost_breakdown(faq_model):
    items = derive_rule(faq_model, Rule.R1_COST)
    assert len(items) == 9 == expected_cost_count(faq_model)
    human = [i for i in items if i.category == "human_resources"]
    it = [i for i in items if i.category == "it_resources"]
    info = [i for i in items if i.category == "information_resources"]
    assert (len(human), len(it), len(info)) == (6, 1, 2)
    assert it[0].description == "server usage fees for Web application server"


def test_faq_information_costs_cover_faq_set_and_scenario(faq_model):
    info = [i for i in derive_rule(faq_model, Rule.R1_COST) if i.category == "information_resources"]
    blobs = " | ".join(i.description for i in info)
    assert "FAQ set" in blobs and "dialogue management scenarios" in blobs
    assert {i.sources[0] for i in info} == {"needs_faq_set", "needs_scenario"}


def test_costs_empty_without_components_and_events():
    m = AlignmentModel("x")
    m.add_element(K.USER, "u", "User")
    assert derive_rule(m, Rule.R1_COST) == []


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cost_counts_match_recount(name, fixture_models):
    model = fixture_models[name]
    assert len(derive_rule(model, Rule.R1_COST)) == expected_cost_count(model)


def test_development_and_operation_items_per_component(faq_model):
    human = [i for i in derive_rule(faq_model, Rule.R1_COST) if i.category == "human_resources"]
    for comp in faq_model.elements_of_kind(K.SYSTEM_COMPONENT):
        descs = [i.description for i in human if i.sources == (comp.id,)]
        assert descs == [
            f"develop and test {comp.name}",
            f"operate and maintain {comp.name}",
        ]


# ---------------------------------------------------------------------------
# R2 risks


def test_faq_privacy_risk(faq_model):
    risks = derive_rule(faq_model, Rule.R2_RISK)
    privacy = [i for i in risks if i.category == "privacy"]
    assert len(privacy) == 1
    assert privacy[0].sources == ("pii_in_utterances",)
    assert privacy[0].severity == "medium"


def test_faq_responsibility_risk_low(faq_model):
    risks = derive_rule(faq_model, Rule.R2_RISK)
    resp = [i for i in risks if i.category == "responsibility"]
    assert len(resp) == 1 and resp[0].severity == "low"


def test_two_hinders_entries_two_items():
    m = AlignmentModel("x")
    m.add_element(
        K.OBSERVED_EVENT,
        "e",
        "Event",
        attrs={
            "hinders": [
                ("privacy", "high", "leaks"),
                ("transparency", "low", "opaque"),
            ]
        },
    )
    items = derive_rule(m, Rule.R2_RISK)
    assert [(i.category, i.severity) for i in items] == [
        ("privacy", "high"),
        ("transparency", "low"),
    ]


# ---------------------------------------------------------------------------
# R3-R5 values


def test_faq_business_values(faq_model):
    items = derive_rule(faq_model, Rule.R3_BUSINESS)
    assert [i.category for i in items] == ["cost_reduction", "new_revenue"]
    assert items[0].sources == ("provide_info",)


def test_business_values_empty_without_activities():
    m = AlignmentModel("x")
    m.add_element(K.USER, "u", "User")
    assert derive_rule(m, Rule.R3_BUSINESS) == []


def test_faq_user_value_functional(faq_model):
    items = derive_rule(faq_model, Rule.R4_USER)
    assert [i.category for i in items] == ["functional"]


def test_activity_without_user_value_yields_nothing():
    m = AlignmentModel("x")
    m.add_element(
        K.USER_ACTIVITY,
        "a",
        "A",
        attrs={"yields_quality_value": [("must_be", "works")]},
    )
    assert derive_rule(m, Rule.R4_USER) == []
    assert [i.category for i in derive_rule(m, Rule.R5_QUALITY)] == ["must_be"]


def test_emotional_value_for_chat_character_system():
    m = AlignmentModel("Character Chat")
    m.add_element(
        K.USER_ACTIVITY,
        "chat",
        "Enjoy chatting with the character",
        attrs={"yields_user_value": [("emotional", "casual conversations are fun")]},
    )
    items = derive_rule(m, Rule.R4_USER)
    assert [i.category for i in items] == ["emotional"]


def test_faq_quality_value_must_be(faq_model):
    items = derive_rule(faq_model, Rule.R5_QUALITY)
    assert [i.category for i in items] == ["must_be"]
    assert "service interruption" in items[0].description


def test_attractive_quality_value(fixture_models):
    items = derive_rule(fixture_models["job_interview"], Rule.R5_QUALITY)
    assert [i.category for i in items] == ["attractive"]


def test_no_quality_entries_no_items():
    m = AlignmentModel("x")
    m.add_element(K.USER_ACTIVITY, "a", "A")
    assert derive_rule(m, Rule.R5_QUALITY) == []


# ---------------------------------------------------------------------------
# derive_all


def test_faq_derive_all_summary(faq_model):
    itemset = derive_all(faq_model)
    assert summary_line(itemset) == "15 items (9 cost, 2 risk, 2 business, 1 user, 1 quality)"
    assert itemset.warnings == []


def test_item_ids_are_deterministic(faq_model):
    itemset = derive_all(faq_model)
    assert itemset.items[0].id == "item_r1_cost_1"
    assert itemset.items[9].id == "item_r2_risk_1"
    assert itemset.items[-1].id == "item_r5_quality_1"
    assert len({i.id for i in itemset.items}) == len(itemset.items)


def test_rules_run_in_order(faq_model):
    rules = [i.rule for i in derive_all(faq_model).items]
    assert rules == sorted(rules, key=RULES.index)


def test_derive_all_rejects_invalid_model():
    m = AlignmentModel("x")
    m.add_element(K.SYSTEM_COMPONENT, "c", "C")  # V1 error
    with pytest.raises(ModelError) as err:
        derive_all(m)
    assert err.value.code == "E200"


def test_derive_all_actors_only():
    m = AlignmentModel("x")
    m.add_element(K.USER, "u", "User")
    m.add_element(K.OPERATOR, "o", "Operator")
    itemset = derive_all(m)
    assert itemset.items == []
    assert all(d.severity is Severity.WARNING for d in itemset.warnings)


def test_statement_order_does_not_change_item_multiset():
    source = (FIXTURES / "faq_chatbot.dsa").read_text()
    baseline = {item_key(i) for i in derive_all(parse(source).model).items}
    # Move the data statements ahead of the components; forward references
    # are legal, so the model holds the same elements in another order.
    lines = source.split("\n")
    data = [l for l in lines if l.startswith("  data ")]
    rest = [l for l in lines if not l.startswith("  data ")]
    reordered = "\n".join(rest[:1] + data + rest[1:])
    result = parse(reordered)
    assert result.model is not None
    assert {item_key(i) for i in derive_all(result.model).items} == baseline


def test_random_element_permutations_keep_item_multiset(fixture_models):
    import random

    rng = random.Random(99)
    for name, model in fixture_models.items():
        baseline = {item_key(i) for i in derive_all(model).items}
        for _ in range(10):
            order = list(model.elements)
            rng.shuffle(order)
            rebuilt = AlignmentModel(model.system_name)
            for e in order:
                rebuilt.add_element(e.kind, e.id, e.name, e.description, dict(e.attrs))
            for rel in model.relations:
                rebuilt.add_relation(rel.kind, rel.source, rel.target)
            assert {item_key(i) for i in derive_all(rebuilt).items} == baseline, name


def test_derive_all_is_deterministic(fixture_models):
    for model in fixture_models.values():
        assert serialize_itemset(derive_all(model)) == serialize_itemset(derive_all(model))


def test_inert_element_does_not_change_items(faq_model):
    before = [item_key(i) for i in derive_all(faq_model).items]
    faq_model.add_element(K.DIALOGUE_SERVICE, "spare_service", "Spare service")
    after = [item_key(i) for i in derive_all(faq_model).items]
    assert before == after


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_provenance_and_rule_partition(name, fixture_models):
    model = fixture_models[name]
    source_kinds = {
        Rule.R1_COST: {K.SYSTEM_COMPONENT, K.OBSERVED_EVENT},
        Rule.R2_RISK: {K.OBSERVED_EVENT},
        Rule.R3_BUSINESS: {K.OPERATOR_ACTIVITY},
        Rule.R4_USER: {K.USER_ACTIVITY},
        Rule.R5_QUALITY: {K.USER_ACTIVITY},
    }
    branches = {
        Rule.R1_COST: "cost",
        Rule.R2_RISK: "risk",
        Rule.R3_BUSINESS: "value/business",
        Rule.R4_USER: "value/user",
        Rule.R5_QUALITY: "value/quality",
    }
    for item in derive_all(model).items:
        assert item.sources
        for source in item.sources:
            assert model.element(source).kind in source_kinds[item.rule]
        assert item.category_path.startswith(branches[item.rule] + "/")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_event_contributes_or_warns(name, fixture_models):
    model = fixture_models[name]
    itemset = derive_all(model)
    sourced = {s for item in itemset.items for s in item.sources}
    warned = {d.subject for d in itemset.warnings if d.code == "W101"}
    for event in model.elements_of_kind(K.OBSERVED_EVENT):
        assert event.id in sourced or event.id in warned


def test_influence_on_non_yielding_activity_warns_w110():
    text = (
        'system "X" {\n'
        '  user_activity a "A" { yields_user_value: functional "f"; influences: op; }\n'
        '  operator_activity op "Op"\n'
        "}"
    )
    result = parse(text)
    assert result.model is not None
    warnings = derive_all(result.model).warnings
    assert "W110" in {d.code for d in warnings}


# ---------------------------------------------------------------------------
# attach


def test_attach_faq_counts(faq_model):
    itemset = derive_all(faq_model)
    attached = attach(faq_model, itemset)
    new_elements = [e for e in attached.elements if e.id not in faq_model]
    item_elements = [e for e in new_elements if e.id.startswith("item_")]
    principles = [e for e in new_elements if e.kind is K.PRINCIPLE]
    assert len(item_elements) == 15
    assert sorted(p.id for p in principles) == [
        "principle_privacy",
        "principle_responsibility",
    ]
    added_edges = len(attached.relations) - len(faq_model.relations)
    assert added_edges >= 15
    assert attached.frozen


def test_attach_kind_per_rule(faq_model):
    itemset = derive_all(faq_model)
    attached = attach(faq_model, itemset)
    expected = {
        Rule.R1_COST: K.COST_ITEM,
        Rule.R2_RISK: K.RISK_ITEM,
        Rule.R3_BUSINESS: K.BUSINESS_VALUE,
        Rule.R4_USER: K.USER_VALUE,
        Rule.R5_QUALITY: K.QUALITY_VALUE,
    }
    for item in itemset.items:
        element = attached.element(item.id)
        assert element.kind is expected[item.rule]
        assert element.attrs["category"] == item.category


def test_attach_links_every_item_to_its_sources(faq_model):
    itemset = derive_all(faq_model)
    attached = attach(faq_model, itemset)
    links = {}
    for r in attached.relations:
        links.setdefault((r.source, r.target), []).append(r.kind)
    assert itemset.items
    for item in itemset.items:
        for source in item.sources:
            assert links[source, item.id] == [RULE_TABLE[item.rule][1]], (source, item.id)


def test_attach_records_influence_lift(faq_model):
    attached = attach(faq_model, derive_all(faq_model))
    lifts = [
        r
        for r in attached.relations
        if r.kind is RelationKind.INFLUENCE
        and attached.element(r.source).kind is K.USER_VALUE
    ]
    assert [(r.source, r.target) for r in lifts] == [("item_r4_user_1", "item_r3_business_1")]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_attach_soundness(name, fixture_models):
    model = fixture_models[name]
    attached = attach(model, derive_all(model))
    errors = [d for d in attached.validate() if d.severity is Severity.ERROR]
    assert errors == []


def test_attach_empty_itemset_is_identity(faq_model):
    empty = EvaluationItemSet(system_name=faq_model.system_name, items=[])
    attached = attach(faq_model, empty)
    assert len(attached.elements) == len(faq_model.elements)
    assert len(attached.relations) == len(faq_model.relations)
    assert attached.frozen and not faq_model.frozen


def test_attach_twice_rejected(faq_model):
    itemset = derive_all(faq_model)
    attached = attach(faq_model, itemset)
    with pytest.raises(ModelError) as err:
        attach(attached, itemset)
    assert err.value.code == "E201"


def test_attach_mismatched_system_rejected(faq_model, fixture_models):
    other = derive_all(fixture_models["job_interview"])
    with pytest.raises(ModelError) as err:
        attach(faq_model, other)
    assert err.value.code == "E201"


def test_attach_unknown_source_rejected(faq_model):
    from dsalign.derive import EvaluationItem

    bogus = EvaluationItemSet(
        system_name=faq_model.system_name,
        items=[
            EvaluationItem(
                id="item_r1_cost_1",
                category="it_resources",
                description="fees",
                sources=["not_in_model"],
                rule=Rule.R1_COST,
            )
        ],
    )
    with pytest.raises(ModelError) as err:
        attach(faq_model, bogus)
    assert err.value.code == "E201"


def test_attach_refuses_an_invalid_item_id(faq_model):
    source = faq_model.elements_of_kind(K.SYSTEM_COMPONENT)[0].id
    for bad, shown in (("Item-1", "'Item-1'"), (5, "5")):
        item = EvaluationItem(bad, "it_resources", "fees", [source], Rule.R1_COST)
        with pytest.raises(ModelError) as err:
            attach(faq_model, EvaluationItemSet(system_name=faq_model.system_name, items=[item]))
        assert err.value.code == "E005"
        assert err.value.message == f"invalid identifier {shown}"


def test_attach_refuses_a_risk_item_outside_the_risk_branch(faq_model):
    event = faq_model.elements_of_kind(K.OBSERVED_EVENT)[0].id
    item = EvaluationItem("item_r2_risk_1", "functional", "x", [event], Rule.R2_RISK, "low")
    with pytest.raises(ModelError) as err:
        attach(faq_model, EvaluationItemSet(system_name=faq_model.system_name, items=[item]))
    assert err.value.code == "E201"
    assert "'functional'" in err.value.message


def test_attach_refuses_an_item_of_an_unknown_rule(faq_model):
    itemset = derive_all(faq_model)
    item = EvaluationItem("item_x_1", "functional", "d", ["faq_set"], "R9_other")
    with pytest.raises(ModelError) as err:
        attach(faq_model, EvaluationItemSet(itemset.system_name, itemset.items + [item]))
    assert err.value.code == "E201"
    assert err.value.message == "item 'item_x_1' has unknown rule 'R9_other'"


def test_attach_refuses_a_principle_id_held_by_another_kind():
    # The fixture's privacy risk makes ``attach`` add ``principle_privacy``.
    text = (FIXTURES / "faq_chatbot.dsa").read_text()
    end = text.rindex("}")
    model = parse(f'{text[:end]}  data principle_privacy "P"\n{text[end:]}').model
    with pytest.raises(ModelError) as err:
        attach(model, derive_all(model))
    assert err.value.code == "E201"
    assert err.value.message == (
        "derived id 'principle_privacy' is already used by a DataModel element"
    )


def test_attach_refuses_an_item_that_takes_a_derived_principle_id(faq_model):
    itemset = derive_all(faq_model)
    risks = {item.category for item in itemset.by_rule(Rule.R2_RISK)}
    assert "responsibility" in risks
    before = faq_model.validate()
    item = EvaluationItem(
        "principle_responsibility", "it_resources", "x", ["needs_faq_set"], Rule.R1_COST
    )
    with pytest.raises(ModelError) as err:
        attach(faq_model, EvaluationItemSet(itemset.system_name, itemset.items + [item]))
    assert err.value.code == "E201"
    assert err.value.message == (
        "item 'principle_responsibility' has the id of a derived Principle element"
    )
    assert "principle_responsibility" not in faq_model and faq_model.validate() == before


def _influence_model(activities: int):
    """User activities u1..uN, each influencing operator activity o(i % 3 + 1)."""
    model = AlignmentModel("Influences")
    for i in range(1, 4):
        model.add_element(K.OPERATOR_ACTIVITY, f"o{i}", f"O{i}")
    for i in range(1, activities + 1):
        model.add_element(K.USER_ACTIVITY, f"u{i}", f"U{i}")
        model.add_relation(RelationKind.INFLUENCE, f"u{i}", f"o{i % 3 + 1}")
    return model


def _itemset(model, r4_sources):
    def item(rule, n, sources, category):
        return EvaluationItem(f"item_{rule.lower()}_{n}", category, "x", sources, rule)

    business = [item(Rule.R3_BUSINESS, i, [f"o{i}"], "revenue_increase") for i in range(1, 4)]
    user = [item(Rule.R4_USER, n, s, "functional") for n, s in enumerate(r4_sources, start=1)]
    return EvaluationItemSet(system_name=model.system_name, items=business + user)


def test_attach_multi_source_user_item_keeps_relation_order():
    # u1 -> o2, then u2 -> o3, then u1 -> o1: the pairs of u1 are not adjacent.
    model = _influence_model(2)
    model.add_relation(RelationKind.INFLUENCE, "u1", "o1")
    attached = attach(model, _itemset(model, [["u2", "u1", "u2"]]))
    lifts = [
        (r.source, r.target)
        for r in attached.relations
        if r.kind is RelationKind.INFLUENCE and r.source.startswith("item_r4")
    ]
    assert lifts == [
        ("item_r4_user_1", "item_r3_business_2"),
        ("item_r4_user_1", "item_r3_business_3"),
        ("item_r4_user_1", "item_r3_business_1"),
    ]


def test_attach_scans_relations_a_constant_number_of_times(monkeypatch):
    # ``attach`` never reads the ``relations`` view, whatever the number of items.
    reads = []
    plain = AlignmentModel.relations.fget

    def counting(self):
        reads.append(self)
        return plain(self)

    monkeypatch.setattr(AlignmentModel, "relations", property(counting))

    def relation_reads(activities: int) -> int:
        model = _influence_model(activities)
        itemset = _itemset(model, [[f"u{i}"] for i in range(1, activities + 1)])
        before = len(reads)
        attach(model, itemset)
        return len(reads) - before

    assert relation_reads(2) == relation_reads(20) == 0


def test_attach_scans_the_stored_relations_a_constant_number_of_times(monkeypatch):
    # ``attach`` reads the stored relation tuples, not the ``relations`` view.
    scans = []
    plain = derive_module._influence_pairs

    def counting(model):
        scans.append(model)
        return plain(model)

    monkeypatch.setattr(derive_module, "_influence_pairs", counting)

    def relation_scans(activities: int) -> int:
        model = _influence_model(activities)
        itemset = _itemset(model, [[f"u{i}"] for i in range(1, activities + 1)])
        before = len(scans)
        attach(model, itemset)
        return len(scans) - before

    assert relation_scans(2) == relation_scans(20) == 1


def test_pipeline_runs_the_rules_once_per_model_state(monkeypatch):
    # ``attach`` seeds its model's findings, so each element is checked once.
    checked = []
    plain = model_module._check_element

    def counting(row, *args):
        checked.append(row[0])  # the stored row's id
        return plain(row, *args)

    monkeypatch.setattr(model_module, "_check_element", counting)
    model = parse((FIXTURES / "faq_chatbot.dsa").read_text(), "faq_chatbot").model
    model.validate()
    attached = attach(model, derive_all(model))
    to_open_exchange(attached)
    to_dot(attached)
    format_model(model)
    assert checked == [e.id for e in attached.elements]


def test_element_attrs_are_read_only(faq_model):
    attached = attach(faq_model, derive_all(faq_model))
    for model in (faq_model, attached):
        for e in model.elements:
            with pytest.raises(TypeError):
                e.attrs["x"] = 1
