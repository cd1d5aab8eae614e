from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from dsalign.derive import attach, derive_all
from dsalign.dsl import format_model
from dsalign.export import ExportOptions, export_model, to_dot, to_open_exchange
from dsalign.model import ElementKind, ModelError, new_model

from conftest import FIXTURE_NAMES

NS = {"oe": "http://www.opengroup.org/xsd/archimate/3.0/"}


def attached_fixture(fixture_models, name):
    model = fixture_models[name]
    return model, attach(model, derive_all(model))


def parse_xml(text):
    return ET.fromstring(text)


def xml_elements(root):
    return root.findall("oe:elements/oe:element", NS)


def xml_relationships(root):
    return root.findall("oe:relationships/oe:relationship", NS)


XSI_TYPE = "{http://www.w3.org/2001/XMLSchema-instance}type"


# ---------------------------------------------------------------------------
# Open Exchange


def test_faq_export_has_three_application_components(fixture_models):
    _, attached = attached_fixture(fixture_models, "faq_chatbot")
    root = parse_xml(to_open_exchange(attached))
    components = [e for e in xml_elements(root) if e.get(XSI_TYPE) == "ApplicationComponent"]
    assert len(components) == 3


def test_empty_model_export():
    m = new_model("Empty")
    text = to_open_exchange(m)
    root = parse_xml(text)
    assert root.get("identifier") == "id-empty"
    assert xml_elements(root) == [] and xml_relationships(root) == []


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_reference_closure(name, fixture_models):
    _, attached = attached_fixture(fixture_models, name)
    root = parse_xml(to_open_exchange(attached))
    ids = {e.get("identifier") for e in xml_elements(root)}
    assert len(ids) == len(xml_elements(root))  # injective
    for rel in xml_relationships(root):
        assert rel.get("source") in ids
        assert rel.get("target") in ids


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_element_and_relation_conservation(name, fixture_models):
    _, attached = attached_fixture(fixture_models, name)
    root = parse_xml(to_open_exchange(attached))
    assert len(xml_elements(root)) == len(attached.elements)
    assert len(xml_relationships(root)) == len(attached.relations)


def test_ids_derive_from_slugs(fixture_models):
    model, attached = attached_fixture(fixture_models, "faq_chatbot")
    root = parse_xml(to_open_exchange(attached))
    assert {e.get("identifier") for e in xml_elements(root)} == {
        f"id-{e.id}" for e in attached.elements
    }


def test_risk_and_cost_items_carry_role_properties(fixture_models):
    _, attached = attached_fixture(fixture_models, "faq_chatbot")
    root = parse_xml(to_open_exchange(attached))
    by_id = {e.get("identifier"): e for e in xml_elements(root)}
    risk = by_id["id-item_r2_risk_2"]
    assert risk.get(XSI_TYPE) == "Assessment"
    values = {
        p.get("propertyDefinitionRef"): p.find("oe:value", NS).text
        for p in risk.findall("oe:properties/oe:property", NS)
    }
    assert values["propid-role"] == "risk"
    assert values["propid-severity"] == "medium"
    assert values["propid-category"] == "risk/privacy"
    cost = by_id["id-item_r1_cost_1"]
    assert cost.get(XSI_TYPE) == "Value"


def test_export_is_deterministic(fixture_models):
    _, attached = attached_fixture(fixture_models, "speech_assistant")
    assert to_open_exchange(attached) == to_open_exchange(attached)
    assert to_dot(attached) == to_dot(attached)


def test_export_without_derived(fixture_models):
    model, attached = attached_fixture(fixture_models, "faq_chatbot")
    options = ExportOptions(include_derived=False)
    root = parse_xml(to_open_exchange(attached, options))
    assert len(xml_elements(root)) == len(model.elements)
    assert len(xml_relationships(root)) == len(model.relations)


def test_export_rejects_invalid_model():
    m = new_model("x")
    m.add_element(ElementKind.SYSTEM_COMPONENT, "c", "C")
    with pytest.raises(ModelError) as err:
        to_open_exchange(m)
    assert err.value.code == "E300"
    with pytest.raises(ModelError):
        to_dot(m)


def test_xml_forbidden_character_from_the_api_never_reaches_an_export():
    m = new_model("S\x01")
    m.add_element(ElementKind.DATA_MODEL, "d", "bad\x01name")
    assert [d.code for d in m.validate()] == ["E013", "E013", "W104"]
    for render in (to_open_exchange, to_dot):
        with pytest.raises(ModelError) as err:
            render(m)
        assert err.value.code == "E300"
    with pytest.raises(ModelError) as err:
        format_model(m)
    assert err.value.code == "E141"


def test_xml_escaping_round_trips():
    m = new_model('Ampersand & <Friends> "quoted"')
    m.add_element(ElementKind.DATA_MODEL, "d", 'a & b < c > "d"')
    m.add_element(ElementKind.SYSTEM_COMPONENT, "c", "C")
    m.add_element(ElementKind.COMPONENT_FUNCTION, "f", "F")
    m.add_relation(__import__("dsalign").RelationKind.REALIZATION, "c", "f")
    m.add_relation(__import__("dsalign").RelationKind.ACCESS, "c", "d")
    root = parse_xml(to_open_exchange(m))
    names = [e.find("oe:name", NS).text for e in xml_elements(root)]
    assert 'a & b < c > "d"' in names


# ---------------------------------------------------------------------------
# DOT


def test_dot_clusters_by_branch(fixture_models):
    _, attached = attached_fixture(fixture_models, "faq_chatbot")
    clusters: dict[str, int] = {}
    current = None
    for line in to_dot(attached).splitlines():
        stripped = line.strip()
        if stripped.startswith("subgraph "):
            current = stripped.split()[1]
            clusters[current] = 0
        elif stripped == "}" and current:
            current = None
        elif current and stripped.startswith('"'):
            clusters[current] += 1
    assert clusters == {"cluster_value": 4, "cluster_risk": 2, "cluster_cost": 9}
    assert sum(clusters.values()) == 15


def test_dot_association_is_undirected(fixture_models):
    _, attached = attached_fixture(fixture_models, "faq_chatbot")
    lines = to_dot(attached).splitlines()
    association = [l for l in lines if 'label="Association"' in l]
    assert association and all("dir=none" in l for l in association)
    directed = [l for l in lines if 'label="Serving"' in l]
    assert directed and all("dir=none" not in l for l in directed)


def test_dot_node_labels_and_graph_name(fixture_models):
    _, attached = attached_fixture(fixture_models, "faq_chatbot")
    text = to_dot(attached)
    assert text.startswith("digraph faq_chatbot {")
    assert '"web_server" [label="SystemComponent\\nWeb application server"];' in text


def test_dot_counts_match_model(fixture_models):
    _, attached = attached_fixture(fixture_models, "status_interview")
    text = to_dot(attached)
    node_lines = [l for l in text.splitlines() if l.strip().startswith('"') and "->" not in l]
    edge_lines = [l for l in text.splitlines() if "->" in l]
    assert len(node_lines) == len(attached.elements)
    assert len(edge_lines) == len(attached.relations)


def test_dot_escapes_quotes():
    m = new_model("x")
    m.add_element(ElementKind.DATA_MODEL, "d", 'say "hi" \\ bye')
    m.add_element(ElementKind.SYSTEM_COMPONENT, "c", "C")
    m.add_element(ElementKind.COMPONENT_FUNCTION, "f", "F")
    m.add_relation(__import__("dsalign").RelationKind.REALIZATION, "c", "f")
    m.add_relation(__import__("dsalign").RelationKind.ACCESS, "c", "d")
    text = to_dot(m)
    assert '\\"hi\\"' in text and "\\\\ bye" in text


def test_non_deterministic_ids_still_close(fixture_models):
    _, attached = attached_fixture(fixture_models, "faq_chatbot")
    options = ExportOptions(deterministic_ids=False)
    first = to_open_exchange(attached, options)
    second = to_open_exchange(attached, options)
    assert first != second  # fresh ids every run
    root = parse_xml(first)
    ids = {e.get("identifier") for e in xml_elements(root)}
    assert len(ids) == len(attached.elements)
    for rel in xml_relationships(root):
        assert rel.get("source") in ids and rel.get("target") in ids


def test_export_model_dispatch(fixture_models):
    _, attached = attached_fixture(fixture_models, "faq_chatbot")
    assert export_model(attached, ExportOptions(format="dot")) == to_dot(attached)
    assert export_model(attached, ExportOptions(format="open_exchange")) == to_open_exchange(
        attached
    )
    with pytest.raises(ValueError):
        export_model(attached, ExportOptions(format="svg"))
