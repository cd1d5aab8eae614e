"""Serialization of alignment models to ArchiMate Open Exchange XML and DOT.

Both exporters are pure functions of the model and produce
byte-identical output for identical inputs: elements come out in model order,
attributes in fixed order, ids derived 1:1 from element slugs.
"""

from __future__ import annotations

from .model import (
    BRANCHES,
    AlignmentModel,
    Element,
    ElementKind,
    ModelError,
    RelationKind,
    Severity,
    leaf_path,
    slugify,
)

OPEN_EXCHANGE_NS = "http://www.opengroup.org/xsd/archimate/3.0/"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"

# Element kind -> Open Exchange xsi:type. Risk and cost items ride on
# Assessment/Value with a "role" property since ArchiMate has no native
# risk or cost element.
XSI_TYPES: dict[ElementKind, str] = {
    ElementKind.USER: "BusinessActor",
    ElementKind.OPERATOR: "BusinessActor",
    ElementKind.USER_ACTIVITY: "BusinessProcess",
    ElementKind.OPERATOR_ACTIVITY: "BusinessProcess",
    ElementKind.DIALOGUE_SERVICE: "BusinessService",
    ElementKind.SYSTEM_COMPONENT: "ApplicationComponent",
    ElementKind.COMPONENT_FUNCTION: "ApplicationFunction",
    ElementKind.DATA_MODEL: "DataObject",
    ElementKind.OBSERVED_EVENT: "Assessment",
    ElementKind.USER_VALUE: "Value",
    ElementKind.QUALITY_VALUE: "Value",
    ElementKind.BUSINESS_VALUE: "Value",
    ElementKind.COST_ITEM: "Value",
    ElementKind.RISK_ITEM: "Assessment",
    ElementKind.PRINCIPLE: "Principle",
}


# DOT cluster of each derived item kind: the first segment of its branch path.
_CLUSTERS = {kind: path.partition("/")[0] for kind, (path, _) in BRANCHES.items()}

# Words DOT reserves in any case; a graph id that is one must be quoted.
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def _check_exportable(model: AlignmentModel) -> None:
    if any(d.severity is Severity.ERROR for d in model.validate()):
        raise ModelError("E300", "cannot export a model with validation errors")


def _xml_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def to_open_exchange(model: AlignmentModel) -> str:
    """Render the model in the Open Exchange 3.x layout (UTF-8 text, LF)."""
    _check_exportable(model)
    relations = model._relations

    def properties_of(e: Element) -> list[tuple[str, str]]:
        # ``ALLOWED_ATTRS`` keeps category to derived items, severity to risks.
        props: list[tuple[str, str]] = []
        if "category" in e.attrs:
            props.append(("category", leaf_path(e.attrs["category"])))
        role = _CLUSTERS.get(e.kind)
        if role not in (None, "value"):
            props.append(("role", role))
        if "severity" in e.attrs:
            props.append(("severity", e.attrs["severity"]))
        return props

    elements = model.elements
    used_propdefs: set[str] = set()

    # Identifiers come from ids and slugs, which hold only [a-z0-9_], so
    # they need no escaping.
    out: list[str] = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append(
        f'<model xmlns="{OPEN_EXCHANGE_NS}" xmlns:xsi="{XSI_NS}" '
        f'identifier="id-{slugify(model.system_name)}">'
    )
    out.append(f'  <name xml:lang="en">{_xml_text(model.system_name)}</name>')

    if elements:
        out.append("  <elements>")
        for e in elements:
            props = properties_of(e)
            open_tag = (
                f'    <element identifier="id-{e.id}" '
                f'xsi:type="{XSI_TYPES[e.kind]}">'
            )
            out.append(open_tag)
            out.append(f'      <name xml:lang="en">{_xml_text(e.name)}</name>')
            if e.description:
                out.append(
                    f'      <documentation xml:lang="en">{_xml_text(e.description)}</documentation>'
                )
            if props:
                out.append("      <properties>")
                for key, value in props:
                    used_propdefs.add(key)
                    out.append(
                        f'        <property propertyDefinitionRef="propid-{key}">'
                    )
                    out.append(f'          <value xml:lang="en">{_xml_text(value)}</value>')
                    out.append("        </property>")
                out.append("      </properties>")
            out.append("    </element>")
        out.append("  </elements>")

    if relations:
        out.append("  <relationships>")
        for rid, kind, source, target in relations:
            out.append(
                f'    <relationship identifier="id-{rid}" '
                f'source="id-{source}" target="id-{target}" '
                f'xsi:type="{kind}"/>'
            )
        out.append("  </relationships>")

    if used_propdefs:
        out.append("  <propertyDefinitions>")
        for key in sorted(used_propdefs):
            out.append(
                f'    <propertyDefinition identifier="propid-{key}" type="string">'
            )
            out.append(f"      <name>{_xml_text(key)}</name>")
            out.append("    </propertyDefinition>")
        out.append("  </propertyDefinitions>")

    out.append("</model>")
    return "\n".join(out) + "\n"


def _dot_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(model: AlignmentModel) -> str:
    """Render the model as a DOT digraph.

    Nodes carry ``kind\\nname`` labels; motivation elements are grouped into
    value/risk/cost cluster subgraphs; Association edges render undirected.
    """
    _check_exportable(model)

    def node_line(e: Element, indent: str) -> str:
        label = f"{_dot_escape(e.kind)}\\n{_dot_escape(e.name)}"
        return f'{indent}"{e.id}" [label="{label}"];'

    clusters: dict[str, list[Element]] = {branch: [] for branch in _CLUSTERS.values()}
    plain: list[Element] = []
    for e in model.elements:
        branch = _CLUSTERS.get(e.kind)
        if branch is None:
            plain.append(e)
        else:
            clusters[branch].append(e)

    principle = ElementKind.PRINCIPLE
    graph_id = slugify(model.system_name)
    if graph_id in _DOT_KEYWORDS:
        graph_id = f'"{graph_id}"'
    out = [f"digraph {graph_id} {{"]
    out.append("  rankdir=LR;")
    out.append("  node [shape=box];")
    for e in plain:
        if e.kind is not principle:
            out.append(node_line(e, "  "))
    for branch, members in clusters.items():
        if not members:
            continue
        out.append(f"  subgraph cluster_{branch} {{")
        out.append(f'    label="{branch}";')
        for e in members:
            out.append(node_line(e, "    "))
        out.append("  }")
    for e in plain:
        if e.kind is principle:
            out.append(node_line(e, "  "))
    association = RelationKind.ASSOCIATION
    for _, kind, source, target in model._relations:
        style = ", dir=none" if kind is association else ""
        out.append(f'  "{source}" -> "{target}" [label="{kind}"{style}];')
    out.append("}")
    return "\n".join(out) + "\n"

