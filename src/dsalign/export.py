"""Serialization of alignment models to ArchiMate Open Exchange XML and DOT.

Both exporters are pure functions of the model and produce
byte-identical output for identical inputs: elements come out in model order,
attributes in fixed order, identifiers ``id-`` plus the element or relation
id or, for the model, the system name's slug.
"""

from __future__ import annotations

from .model import (
    BRANCHES,
    AlignmentModel,
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


def _properties(
    kind: ElementKind, category: str | None, severity: str | None, used: set[str]
) -> str:
    """An element's ``<properties>`` block ("" if none); adds its keys to ``used``."""
    # ``ALLOWED_ATTRS`` keeps category to derived items, severity to risks.
    role = _CLUSTERS.get(kind)
    props = {
        "category": None if category is None else leaf_path(category),
        "role": None if role == "value" else role,
        "severity": severity,
    }
    used.update(key for key, value in props.items() if value is not None)
    rows = "".join(
        f'        <property propertyDefinitionRef="propid-{key}">\n'
        f'          <value xml:lang="en">{_xml_text(value)}</value>\n'
        "        </property>\n"
        for key, value in props.items()
        if value is not None
    )
    return rows and f"      <properties>\n{rows}      </properties>\n"


def to_open_exchange(model: AlignmentModel) -> str:
    """Render the model in the Open Exchange 3.x layout (UTF-8 text, LF)."""
    _check_exportable(model)
    used_propdefs: set[str] = set()
    # A derived item's (kind, attrs), or any other element's kind -> properties
    # block: only items carry a category or severity, and ``validate`` admits only str ones.
    blocks: dict[object, str] = {}

    # Identifiers come from ids and slugs, which hold only [a-z0-9_], so
    # they need no escaping.
    elements: list[str] = []
    for id, kind, name, doc, attrs in model._by_id.values():
        key = (kind, attrs) if kind in _CLUSTERS else kind
        props = blocks.get(key)
        if props is None:
            attrs = dict(attrs)
            category, severity = attrs.get("category"), attrs.get("severity")
            props = blocks[key] = _properties(kind, category, severity, used_propdefs)
        if doc:
            doc = f'      <documentation xml:lang="en">{_xml_text(doc)}</documentation>\n'
        elements.append(
            f'    <element identifier="id-{id}" xsi:type="{XSI_TYPES[kind]}">\n'
            f'      <name xml:lang="en">{_xml_text(name)}</name>\n'
            f"{doc or ''}{props}    </element>"
        )
    relationships = [
        f'    <relationship identifier="id-{rid}" source="id-{source}" '
        f'target="id-{target}" xsi:type="{kind}"/>'
        for rid, kind, source, target in model._relations
    ]
    definitions = [
        f'    <propertyDefinition identifier="propid-{key}" type="string">\n'
        f"      <name>{key}</name>\n    </propertyDefinition>"
        for key in sorted(used_propdefs)
    ]
    out: list[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<model xmlns="{OPEN_EXCHANGE_NS}" xmlns:xsi="{XSI_NS}" '
        f'identifier="id-{slugify(model.system_name)}">',
        f'  <name xml:lang="en">{_xml_text(model.system_name)}</name>',
    ]
    for tag, rows in (
        ("elements", elements), ("relationships", relationships),
        ("propertyDefinitions", definitions),
    ):
        if rows:
            out += (f"  <{tag}>", *rows, f"  </{tag}>")
    out += ("</model>", "")  # the last line ends in a line feed too
    return "\n".join(out)


def _dot_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(model: AlignmentModel) -> str:
    """Render the model as a DOT digraph.

    Nodes carry ``kind\\nname`` labels; motivation elements are grouped into
    value/risk/cost cluster subgraphs; Association edges render undirected.
    """
    _check_exportable(model)

    plain: list[tuple] = []  # element rows
    clusters: dict[str, list[tuple]] = {branch: [] for branch in _CLUSTERS.values()}
    groups = {kind: clusters[branch] for kind, branch in _CLUSTERS.items()}
    principles = groups[ElementKind.PRINCIPLE] = []
    for row in model._by_id.values():
        groups.get(row[1], plain).append(row)

    def nodes(members: list[tuple], indent: str) -> list[str]:
        # Kinds are fixed words, so only names (``e[2]``) need escaping.
        return [f'{indent}"{e[0]}" [label="{e[1]}\\n{_dot_escape(e[2])}"];' for e in members]

    graph_id = slugify(model.system_name)
    if graph_id in _DOT_KEYWORDS:
        graph_id = f'"{graph_id}"'
    out = [f"digraph {graph_id} {{", "  rankdir=LR;", "  node [shape=box];"]
    out += nodes(plain, "  ")
    for branch, members in clusters.items():
        if members:
            out += (f"  subgraph cluster_{branch} {{", f'    label="{branch}";')
            out += nodes(members, "    ")
            out.append("  }")
    out += nodes(principles, "  ")
    association = RelationKind.ASSOCIATION
    out += [
        f'  "{source}" -> "{target}" '
        f'[label="{kind}"{", dir=none" if kind is association else ""}];'
        for _, kind, source, target in model._relations
    ]
    out += ("}", "")
    return "\n".join(out)
