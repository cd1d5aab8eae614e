from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from dsalign import export
from dsalign.derive import EvaluationItem, EvaluationItemSet, Rule, attach, derive_all
from dsalign.dsl import format_model, parse
from dsalign.export import to_dot, to_open_exchange
from dsalign.model import AlignmentModel, ElementKind, ModelError, leaf_path

from conftest import FIXTURE_NAMES
from corpus_digests import HAND_WRITTEN

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
    m = AlignmentModel("Empty")
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


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_each_element_carries_the_properties_of_its_own_attrs(name, fixture_models):
    # The exporter renders one properties block per (kind, category,
    # severity) and reuses it; each element must still get its own values.
    _, attached = attached_fixture(fixture_models, name)
    root = parse_xml(to_open_exchange(attached))
    for xml, e in zip(xml_elements(root), attached.elements, strict=True):
        found = {
            p.get("propertyDefinitionRef"): p.find("oe:value", NS).text
            for p in xml.findall("oe:properties/oe:property", NS)
        }
        expected = {}
        if "category" in e.attrs:
            expected["propid-category"] = leaf_path(e.attrs["category"])
        if e.kind in (ElementKind.RISK_ITEM, ElementKind.COST_ITEM):
            expected["propid-role"] = "risk" if e.kind == ElementKind.RISK_ITEM else "cost"
        if "severity" in e.attrs:
            expected["propid-severity"] = e.attrs["severity"]
        assert found == expected, e.id


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_each_properties_block_is_rendered_once(name, fixture_models, monkeypatch):
    # Rendering a block per element instead of per key costs more than twice
    # the time of the whole export on an 800-block model.
    _, attached = attached_fixture(fixture_models, name)
    keys = []
    render = export._properties

    def counted(*key):
        keys.append(key[:3])
        return render(*key)

    monkeypatch.setattr(export, "_properties", counted)
    to_open_exchange(attached)
    distinct = {
        (e.kind, e.attrs.get("category"), e.attrs.get("severity")) for e in attached.elements
    }
    assert len(keys) == len(distinct) and set(keys) == distinct


@pytest.mark.parametrize(
    "rule, category, attr",
    [(Rule.R1_COST, "it_resources", "category"), (Rule.R2_RISK, "privacy", "severity")],
)
def test_equal_values_of_other_types_never_reach_a_properties_block(
    rule, category, attr, faq_model
):
    # 1 == True, so a block keyed on them could be shared; validate refuses both.
    event = next(e.id for e in faq_model.elements if e.kind is ElementKind.OBSERVED_EVENT)
    items = [
        EvaluationItem(f"item_{rule.lower()}_{n}", category, "x", [event], rule, "high")
        for n in (1, 2)
    ]
    setattr(items[0], attr, 1)
    setattr(items[1], attr, True)
    attached = attach(faq_model, EvaluationItemSet(faq_model.system_name, items))
    for render in (to_open_exchange, to_dot):
        with pytest.raises(ModelError) as err:
            render(attached)
        assert err.value.code == "E300"


def test_export_is_deterministic(fixture_models):
    _, attached = attached_fixture(fixture_models, "speech_assistant")
    assert to_open_exchange(attached) == to_open_exchange(attached)
    assert to_dot(attached) == to_dot(attached)


def test_export_rejects_invalid_model():
    m = AlignmentModel("x")
    m.add_element(ElementKind.SYSTEM_COMPONENT, "c", "C")
    with pytest.raises(ModelError) as err:
        to_open_exchange(m)
    assert err.value.code == "E300"
    with pytest.raises(ModelError):
        to_dot(m)


def test_xml_forbidden_character_from_the_api_never_reaches_an_export():
    m = AlignmentModel("S\x01")
    m.add_element(ElementKind.DATA_MODEL, "d", "bad\x01name")
    assert [d.code for d in m.validate()] == ["E013", "E013", "W104"]
    for render in (to_open_exchange, to_dot):
        with pytest.raises(ModelError) as err:
            render(m)
        assert err.value.code == "E300"
    with pytest.raises(ModelError) as err:
        format_model(m)
    assert err.value.code == "E141"


@pytest.mark.parametrize(
    "name, description, message",
    [
        (5, None, "'d': its name must be a string, not int"),
        (None, None, "'d': its name must be a string, not NoneType"),
        ("D", 7, "'d': its description must be a string, not int"),
        ("D", b"bytes", "'d': its description must be a string, not bytes"),
    ],
    ids=["int-name", "no-name", "int-description", "bytes-description"],
)
def test_model_text_that_is_not_a_string_never_reaches_a_writer(name, description, message):
    m = AlignmentModel("x")
    m.add_element(ElementKind.DATA_MODEL, "d", name, description)
    errors = [d for d in m.validate() if d.code == "E015"]
    assert [(d.message, d.severity, d.subject) for d in errors] == [(message, "error", "d")]
    for render in (to_open_exchange, to_dot):
        with pytest.raises(ModelError) as err:
            render(m)
        assert err.value.code == "E300"
    with pytest.raises(ModelError) as err:
        format_model(m)
    assert err.value.code == "E141"


def test_a_derived_item_whose_description_is_not_a_string_is_not_exported(faq_model):
    source = next(e.id for e in faq_model.elements if e.kind is ElementKind.SYSTEM_COMPONENT)
    item = EvaluationItem("item_r1_cost_9", "it_resources", 7, [source], Rule.R1_COST)
    attached = attach(faq_model, EvaluationItemSet(faq_model.system_name, [item]))
    assert [d.message for d in attached.validate() if d.code == "E015"] == [
        "'item_r1_cost_9': its name must be a string, not int"
    ]
    for render in (to_open_exchange, to_dot):
        with pytest.raises(ModelError) as err:
            render(attached)
        assert err.value.code == "E300"


def test_xml_escaping_round_trips():
    m = AlignmentModel('Ampersand & <Friends> "quoted"')
    m.add_element(ElementKind.DATA_MODEL, "d", 'a & b < c > "d"')
    m.add_element(ElementKind.SYSTEM_COMPONENT, "c", "C")
    m.add_element(ElementKind.COMPONENT_FUNCTION, "f", "F")
    m.add_relation(__import__("dsalign").RelationKind.REALIZATION, "c", "f")
    m.add_relation(__import__("dsalign").RelationKind.ACCESS, "c", "d")
    root = parse_xml(to_open_exchange(m))
    names = [e.find("oe:name", NS).text for e in xml_elements(root)]
    assert 'a & b < c > "d"' in names


# Models whose Open Exchange identifiers would repeat, each refused with E014:
# an element id of a relation's form, an element id equal to the system
# name's slug, a system name whose slug has a relation's form, and a system
# name whose slug equals an id that ``attach`` adds.
CLASHING_MODELS = {
    "function_r001": 'system "Faq" {\n  component c "C" {\n    function r001 "F";\n  }\n}\n',
    "data_faq": 'system "Faq" {\n  data faq "D"\n}\n',
    "system_r001": 'system "R001" {\n  component c "C" {\n    function f "F";\n  }\n}\n',
    "principle_privacy": HAND_WRITTEN["principle_privacy.dsa"],
}


def _exports(model):
    """Open Exchange text of the model and of its attached model, or the code refusing each."""
    out = []
    for target in (lambda: model, lambda: attach(model, derive_all(model))):
        try:
            out.append(to_open_exchange(target()))
        except ModelError as err:
            out.append(err.code)
    return out


@pytest.mark.parametrize("name", CLASHING_MODELS)
def test_exports_never_repeat_an_identifier(name):
    model = parse(CLASHING_MODELS[name], f"{name}.dsa").model
    exports = _exports(model)
    refused = [text for text in exports if text.startswith("E")]
    for text in exports:
        if text not in refused:
            ids = [node.get("identifier") for node in parse_xml(text).iter() if node.get("identifier")]
            repeated = {i for i in ids if ids.count(i) > 1}
            assert not repeated, (name, repeated)
    if name == "principle_privacy":
        assert model.validate() == [] and exports[1] == "E014"
    else:
        assert "E014" in [d.code for d in model.validate()]
        assert refused == ["E300", "E200"]


def test_e014_names_the_clashing_ids():
    found = {
        name: [d.render(f"{name}.dsa") for d in parse(text, name).model.validate() if d.code == "E014"]
        for name, text in CLASHING_MODELS.items()
    }
    assert found == {
        "function_r001": [
            "function_r001.dsa: error E014: 'r001': element id has the form of a relation id"
            " (r and three or more digits)"
        ],
        "data_faq": [
            "data_faq.dsa: error E014: 'faq': element id repeats the Open Exchange identifier"
            " of the system name"
        ],
        "system_r001": [
            "system_r001.dsa: error E014: system name 'R001' gives id 'r001', which has the form"
            " of a relation id (r and three or more digits)"
        ],
        "principle_privacy": [],
    }


def test_attach_refuses_an_item_id_equal_to_the_system_slug():
    m = AlignmentModel("Item R1 Cost 1")
    m.add_element(ElementKind.SYSTEM_COMPONENT, "c", "C")
    m.add_element(ElementKind.COMPONENT_FUNCTION, "f", "F")
    m.add_relation("Realization", "c", "f")
    with pytest.raises(ModelError) as err:
        attach(m, derive_all(m))
    assert err.value.code == "E014"


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


@pytest.mark.parametrize("name", ["Node", "Graph", "Edge", "Strict", "Subgraph", "Digraph"])
def test_dot_quotes_a_graph_id_that_is_a_dot_keyword(name):
    # DOT reserves these words in any case, so a bare one is no graph id.
    assert to_dot(AlignmentModel(name)).startswith(f'digraph "{name.lower()}" {{\n')
    assert to_dot(AlignmentModel(f"{name} bot")).startswith(f"digraph {name.lower()}_bot {{\n")


def test_dot_counts_match_model(fixture_models):
    _, attached = attached_fixture(fixture_models, "status_interview")
    text = to_dot(attached)
    node_lines = [l for l in text.splitlines() if l.strip().startswith('"') and "->" not in l]
    edge_lines = [l for l in text.splitlines() if "->" in l]
    assert len(node_lines) == len(attached.elements)
    assert len(edge_lines) == len(attached.relations)


def test_dot_escapes_quotes():
    m = AlignmentModel("x")
    m.add_element(ElementKind.DATA_MODEL, "d", 'say "hi" \\ bye')
    m.add_element(ElementKind.SYSTEM_COMPONENT, "c", "C")
    m.add_element(ElementKind.COMPONENT_FUNCTION, "f", "F")
    m.add_relation(__import__("dsalign").RelationKind.REALIZATION, "c", "f")
    m.add_relation(__import__("dsalign").RelationKind.ACCESS, "c", "d")
    text = to_dot(m)
    assert '\\"hi\\"' in text and "\\\\ bye" in text

