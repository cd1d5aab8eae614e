"""Serialization of alignment models to ArchiMate Open Exchange XML and DOT.

Both exporters are pure functions of the model and options and produce
byte-identical output for identical inputs: elements come out in model order,
attributes in fixed order, ids derived 1:1 from element slugs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    AlignmentModel,
    Element,
    ElementKind,
    MOTIVATION_KINDS,
    ModelError,
    Relation,
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

_ROLE_PROPERTY = {ElementKind.RISK_ITEM: "risk", ElementKind.COST_ITEM: "cost"}

# DOT cluster per taxonomy branch; principles stay outside the clusters.
_CLUSTER_OF = {
    ElementKind.USER_VALUE: "value",
    ElementKind.QUALITY_VALUE: "value",
    ElementKind.BUSINESS_VALUE: "value",
    ElementKind.RISK_ITEM: "risk",
    ElementKind.COST_ITEM: "cost",
}


@dataclass
class ExportOptions:
    include_derived: bool = True


def _check_exportable(model: AlignmentModel) -> None:
    if any(d.severity is Severity.ERROR for d in model.validate()):
        raise ModelError("E300", "cannot export a model with validation errors")


def _visible(model: AlignmentModel, options: ExportOptions) -> tuple[list[Element], list[Relation]]:
    elements = model.elements
    relations = model.relations
    if not options.include_derived:
        kept = {e.id for e in elements if e.kind not in MOTIVATION_KINDS}
        elements = [e for e in elements if e.id in kept]
        relations = [r for r in relations if r.source in kept and r.target in kept]
    return elements, relations


def _xml_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def to_open_exchange(model: AlignmentModel, options: ExportOptions | None = None) -> str:
    """Render the model in the Open Exchange 3.x layout (UTF-8 text, LF)."""
    options = options or ExportOptions()
    _check_exportable(model)
    elements, relations = _visible(model, options)

    def properties_of(e: Element) -> list[tuple[str, str]]:
        props: list[tuple[str, str]] = []
        if e.kind in MOTIVATION_KINDS and "category" in e.attrs:
            props.append(("category", leaf_path(e.attrs["category"])))
        if e.kind in _ROLE_PROPERTY:
            props.append(("role", _ROLE_PROPERTY[e.kind]))
        if e.kind is ElementKind.RISK_ITEM and "severity" in e.attrs:
            props.append(("severity", e.attrs["severity"]))
        return props

    used_propdefs: list[str] = []
    for e in elements:
        for key, _ in properties_of(e):
            if key not in used_propdefs:
                used_propdefs.append(key)
    used_propdefs.sort()

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
        for r in relations:
            out.append(
                f'    <relationship identifier="id-{r.id}" '
                f'source="id-{r.source}" target="id-{r.target}" '
                f'xsi:type="{r.kind.value}"/>'
            )
        out.append("  </relationships>")

    if used_propdefs:
        out.append("  <propertyDefinitions>")
        for key in used_propdefs:
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


def to_dot(model: AlignmentModel, options: ExportOptions | None = None) -> str:
    """Render the model as a DOT digraph.

    Nodes carry ``kind\\nname`` labels; motivation elements are grouped into
    value/risk/cost cluster subgraphs; Association edges render undirected.
    """
    options = options or ExportOptions()
    _check_exportable(model)
    elements, relations = _visible(model, options)

    def node_line(e: Element, indent: str) -> str:
        label = f"{_dot_escape(e.kind.value)}\\n{_dot_escape(e.name)}"
        return f'{indent}"{e.id}" [label="{label}"];'

    clusters: dict[str, list[Element]] = {"value": [], "risk": [], "cost": []}
    plain: list[Element] = []
    for e in elements:
        branch = _CLUSTER_OF.get(e.kind)
        if branch is None:
            plain.append(e)
        else:
            clusters[branch].append(e)

    out = [f"digraph {slugify(model.system_name)} {{"]
    out.append("  rankdir=LR;")
    out.append("  node [shape=box];")
    for e in plain:
        if e.kind is not ElementKind.PRINCIPLE:
            out.append(node_line(e, "  "))
    for branch in ("value", "risk", "cost"):
        members = clusters[branch]
        if not members:
            continue
        out.append(f"  subgraph cluster_{branch} {{")
        out.append(f'    label="{branch}";')
        for e in members:
            out.append(node_line(e, "    "))
        out.append("  }")
    for e in plain:
        if e.kind is ElementKind.PRINCIPLE:
            out.append(node_line(e, "  "))
    for r in relations:
        style = ", dir=none" if r.kind is RelationKind.ASSOCIATION else ""
        out.append(f'  "{r.source}" -> "{r.target}" [label="{r.kind.value}"{style}];')
    out.append("}")
    return "\n".join(out) + "\n"

