"""Rule-based derivation of evaluation items from a validated model.

Five rules, run in order, each sourcing items at model elements:

* R1 (costs): every component needs development/testing and operation
  effort; server- and external-API-backed components carry usage fees;
  ``implies_cost`` notes on events become items in the stated cost leaf.
* R2 (risks): every ``hinders`` note on an event becomes a risk item in the
  hindered principle's leaf, carrying the note's severity.
* R3-R5 (values): ``yields_*`` declarations on activities become business,
  user, and quality value items.

``attach`` materializes a derived itemset back into the graph as
motivation-layer elements with provenance edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .model import (
    AlignmentModel,
    Diagnostic,
    Element,
    ElementKind,
    ModelError,
    PRINCIPLE_NAMES,
    RelationKind,
    Severity,
    leaf_path,
)


class Rule(str, Enum):
    R1_COST = "R1_cost"
    R2_RISK = "R2_risk"
    R3_BUSINESS = "R3_business"
    R4_USER = "R4_user"
    R5_QUALITY = "R5_quality"


_ITEM_KIND = {
    Rule.R1_COST: ElementKind.COST_ITEM,
    Rule.R2_RISK: ElementKind.RISK_ITEM,
    Rule.R3_BUSINESS: ElementKind.BUSINESS_VALUE,
    Rule.R4_USER: ElementKind.USER_VALUE,
    Rule.R5_QUALITY: ElementKind.QUALITY_VALUE,
}

# Components on these runtimes accrue recurring usage fees.
_FEE_RUNTIMES = ("server", "external_api")

_FEE_TEMPLATES = {
    "server": "server usage fees for {name}",
    "external_api": "external API service usage fees for {name}",
}


@dataclass
class EvaluationItem:
    id: str
    category: str  # taxonomy leaf
    description: str
    sources: list[str]
    rule: Rule
    severity: str | None = None  # risk items only

    @property
    def category_path(self) -> str:
        return leaf_path(self.category)


@dataclass
class EvaluationItemSet:
    system_name: str
    items: list[EvaluationItem]
    warnings: list[Diagnostic] = field(default_factory=list)

    def by_rule(self, rule: Rule) -> list[EvaluationItem]:
        return [item for item in self.items if item.rule is rule]


def _item_id(rule: Rule, n: int) -> str:
    return f"item_{rule.value.lower()}_{n}"


def _noted(desc: str, element: Element) -> str:
    return f"{desc} ({element.name})"


def derive_costs(model: AlignmentModel) -> list[EvaluationItem]:
    """R1: cost items from components and from events' implies_cost notes."""
    items: list[EvaluationItem] = []

    def emit(category: str, description: str, source: str) -> None:
        items.append(
            EvaluationItem(
                id=_item_id(Rule.R1_COST, len(items) + 1),
                category=category,
                description=description,
                sources=[source],
                rule=Rule.R1_COST,
            )
        )

    components = model.elements_of_kind(ElementKind.SYSTEM_COMPONENT)
    for comp in components:
        emit("human_resources", f"develop and test {comp.name}", comp.id)
        emit("human_resources", f"operate and maintain {comp.name}", comp.id)
    for comp in components:
        runtime = comp.attrs.get("runs_on")
        if runtime in _FEE_RUNTIMES:
            emit("it_resources", _FEE_TEMPLATES[runtime].format(name=comp.name), comp.id)
    for event in model.elements_of_kind(ElementKind.OBSERVED_EVENT):
        for leaf, desc in event.attrs.get("implies_cost", []):
            emit(leaf, _noted(desc, event), event.id)
    return items


def derive_risks(model: AlignmentModel) -> list[EvaluationItem]:
    """R2: one risk item per (event, hinders entry), keeping the severity."""
    items: list[EvaluationItem] = []
    for event in model.elements_of_kind(ElementKind.OBSERVED_EVENT):
        for principle, severity, desc in event.attrs.get("hinders", []):
            items.append(
                EvaluationItem(
                    id=_item_id(Rule.R2_RISK, len(items) + 1),
                    category=principle,
                    description=_noted(desc, event),
                    sources=[event.id],
                    rule=Rule.R2_RISK,
                    severity=severity,
                )
            )
    return items


def derive_business_values(model: AlignmentModel) -> list[EvaluationItem]:
    """R3: one item per (operator activity, yields_business_value entry)."""
    items: list[EvaluationItem] = []
    for activity in model.elements_of_kind(ElementKind.OPERATOR_ACTIVITY):
        for leaf, desc in activity.attrs.get("yields_business_value", []):
            items.append(
                EvaluationItem(
                    id=_item_id(Rule.R3_BUSINESS, len(items) + 1),
                    category=leaf,
                    description=_noted(desc, activity),
                    sources=[activity.id],
                    rule=Rule.R3_BUSINESS,
                )
            )
    return items


def derive_user_values(model: AlignmentModel) -> list[EvaluationItem]:
    """R4: one item per (user activity, yields_user_value entry).

    Declared ``influences:`` targets become user-value to business-value
    edges when the itemset is attached; they never create items.
    """
    items: list[EvaluationItem] = []
    for activity in model.elements_of_kind(ElementKind.USER_ACTIVITY):
        for leaf, desc in activity.attrs.get("yields_user_value", []):
            items.append(
                EvaluationItem(
                    id=_item_id(Rule.R4_USER, len(items) + 1),
                    category=leaf,
                    description=_noted(desc, activity),
                    sources=[activity.id],
                    rule=Rule.R4_USER,
                )
            )
    return items


def derive_quality_values(model: AlignmentModel) -> list[EvaluationItem]:
    """R5: one item per (user activity, yields_quality_value entry)."""
    items: list[EvaluationItem] = []
    for activity in model.elements_of_kind(ElementKind.USER_ACTIVITY):
        for leaf, desc in activity.attrs.get("yields_quality_value", []):
            items.append(
                EvaluationItem(
                    id=_item_id(Rule.R5_QUALITY, len(items) + 1),
                    category=leaf,
                    description=_noted(desc, activity),
                    sources=[activity.id],
                    rule=Rule.R5_QUALITY,
                )
            )
    return items


def _influence_pairs(model: AlignmentModel) -> list[tuple[str, str]]:
    """Declared (user activity, operator activity) influence pairs, in order."""
    pairs = []
    for rel in model.relations:
        if (
            rel.kind is RelationKind.INFLUENCE
            and model.element(rel.source).kind is ElementKind.USER_ACTIVITY
        ):
            pairs.append((rel.source, rel.target))
    return pairs


def _influence_warnings(model: AlignmentModel) -> list[Diagnostic]:
    out = []
    for source, target in _influence_pairs(model):
        if not model.element(target).attrs.get("yields_business_value"):
            out.append(
                Diagnostic(
                    "W110",
                    Severity.WARNING,
                    f"influence target {target!r} of {source!r} yields no business value",
                    subject=target,
                )
            )
    return out


def derive_all(model: AlignmentModel) -> EvaluationItemSet:
    """Run rules R1-R5 over a model that validates without errors (E200)."""
    diagnostics = model.validate()
    if any(d.severity is Severity.ERROR for d in diagnostics):
        codes = ", ".join(sorted({d.code for d in diagnostics if d.severity is Severity.ERROR}))
        raise ModelError("E200", f"model has validation errors ({codes})")
    items = (
        derive_costs(model)
        + derive_risks(model)
        + derive_business_values(model)
        + derive_user_values(model)
        + derive_quality_values(model)
    )
    warnings = [d for d in diagnostics if d.severity is Severity.WARNING]
    warnings.extend(_influence_warnings(model))
    return EvaluationItemSet(system_name=model.system_name, items=items, warnings=warnings)


def attach(model: AlignmentModel, itemset: EvaluationItemSet) -> AlignmentModel:
    """Materialize an itemset into a new frozen model (E201 on mismatch).

    Adds one motivation element per item plus one Principle element per risk
    leaf referenced, then provenance edges: influence from each source to its
    cost/risk item, association between each activity and its value item,
    influence from events to the principles they hinder, and the declared
    user-value to business-value influences.
    """
    if itemset.system_name != model.system_name:
        raise ModelError(
            "E201",
            f"itemset for {itemset.system_name!r} does not match model "
            f"{model.system_name!r}",
        )
    for item in itemset.items:
        if item.id in model:
            raise ModelError("E201", f"item {item.id!r} is already materialized")
        for source in item.sources:
            if source not in model:
                raise ModelError(
                    "E201", f"item {item.id!r} references unknown source {source!r}"
                )

    out = model.copy()
    for item in itemset.items:
        attrs: dict = {"category": item.category}
        if item.rule is Rule.R2_RISK:
            attrs["severity"] = item.severity
        out.add_element(
            _ITEM_KIND[item.rule], item.id, item.description, attrs=attrs
        )

    risk_items = itemset.by_rule(Rule.R2_RISK)
    principle_ids: dict[str, str] = {}
    for item in risk_items:
        if item.category not in principle_ids:
            pid = f"principle_{item.category}"
            if pid not in out:
                out.add_element(
                    ElementKind.PRINCIPLE, pid, PRINCIPLE_NAMES[item.category]
                )
            principle_ids[item.category] = pid

    for item in itemset.items:
        for source in item.sources:
            if item.rule is Rule.R1_COST or item.rule is Rule.R2_RISK:
                out.add_relation(RelationKind.INFLUENCE, source, item.id)
            else:
                out.add_relation(RelationKind.ASSOCIATION, source, item.id)

    hindered: set[tuple[str, str]] = set()
    for item in risk_items:
        principle = principle_ids[item.category]
        for source in item.sources:
            if (source, principle) not in hindered:
                out.add_relation(RelationKind.INFLUENCE, source, principle)
                hindered.add((source, principle))
        out.add_relation(RelationKind.ASSOCIATION, item.id, principle)

    business_by_activity: dict[str, list[str]] = {}
    for item in itemset.by_rule(Rule.R3_BUSINESS):
        for source in item.sources:
            business_by_activity.setdefault(source, []).append(item.id)
    # (relation position, target) per source activity, so that each user-value
    # item visits only its own pairs and still emits them in relation order.
    influenced: dict[str, list[tuple[int, str]]] = {}
    for position, (activity, target) in enumerate(_influence_pairs(model)):
        influenced.setdefault(activity, []).append((position, target))
    for item in itemset.by_rule(Rule.R4_USER):
        pairs = sorted(
            pair for source in dict.fromkeys(item.sources) for pair in influenced.get(source, ())
        )
        for _, target in pairs:
            for business_id in business_by_activity.get(target, []):
                out.add_relation(RelationKind.INFLUENCE, item.id, business_id)

    out.freeze()
    return out


def summary_line(itemset: EvaluationItemSet) -> str:
    """One-line count summary, e.g. ``15 items (9 cost, 2 risk, ...)``."""
    counts = {rule: len(itemset.by_rule(rule)) for rule in Rule}
    return (
        f"{len(itemset.items)} items ({counts[Rule.R1_COST]} cost, "
        f"{counts[Rule.R2_RISK]} risk, {counts[Rule.R3_BUSINESS]} business, "
        f"{counts[Rule.R4_USER]} user, {counts[Rule.R5_QUALITY]} quality)"
    )


def serialize_itemset(itemset: EvaluationItemSet) -> str:
    """Deterministic JSON rendering used for golden files (LF, fixed keys)."""
    import json  # imported here: of the CLI commands, only ``derive --items`` needs it

    doc = {
        "system": itemset.system_name,
        "items": [
            {
                "id": item.id,
                "rule": item.rule.value,
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
                "severity": d.severity.value,
                "message": d.message,
                "subject": d.subject,
            }
            for d in itemset.warnings
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
