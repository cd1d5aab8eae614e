"""Rule-based derivation of evaluation items from a validated model.

Five rules, run in order, each sourcing items at model elements.  One table,
``RULE_TABLE``, gives each rule's source (an element kind and one of its
attrs), the kind of its items, and the edge ``attach`` adds from source to
item:

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

from functools import cache

from .model import (
    ALL_LEAVES,
    AlignmentModel,
    Diagnostic,
    ElementKind,
    ModelError,
    PRINCIPLE_NAMES,
    RISK_LEAVES,
    SEVERITY_LEVELS,
    RelationKind,
    Severity,
    _Record,
    _constants,
    is_valid_id,
    leaf_path,
    slugify,
)


class Rule:
    R1_COST = "R1_cost"
    R2_RISK = "R2_risk"
    R3_BUSINESS = "R3_business"
    R4_USER = "R4_user"
    R5_QUALITY = "R5_quality"


RULES = _constants(Rule)


K, R = ElementKind, RelationKind

# One row per rule, in rule order: (item kind, relation from each source to
# its item, source element kind, attr whose entries each yield one item).
RULE_TABLE: dict[Rule, tuple[ElementKind, RelationKind, ElementKind, str]] = {
    Rule.R1_COST: (K.COST_ITEM, R.INFLUENCE, K.OBSERVED_EVENT, "implies_cost"),
    Rule.R2_RISK: (K.RISK_ITEM, R.INFLUENCE, K.OBSERVED_EVENT, "hinders"),
    Rule.R3_BUSINESS: (K.BUSINESS_VALUE, R.ASSOCIATION, K.OPERATOR_ACTIVITY, "yields_business_value"),
    Rule.R4_USER: (K.USER_VALUE, R.ASSOCIATION, K.USER_ACTIVITY, "yields_user_value"),
    Rule.R5_QUALITY: (K.QUALITY_VALUE, R.ASSOCIATION, K.USER_ACTIVITY, "yields_quality_value"),
}

del K, R

# R1's usage-fee item for components on these runtimes.
_FEE_TEMPLATES = {
    "server": "server usage fees for {name}",
    "external_api": "external API service usage fees for {name}",
}


# A derived item's attr pairs by its (category,) or a risk item's (category,
# severity) words: one shared tuple per combination of taxonomy words.
_ITEM_ATTRS = {(leaf,): (("category", leaf),) for leaf in ALL_LEAVES} | {
    (leaf, level): (("category", leaf), ("severity", level))
    for leaf in RISK_LEAVES for level in SEVERITY_LEVELS
}


class EvaluationItem(_Record):
    # ``category`` is a taxonomy leaf; only risk items have a ``severity``.
    __slots__ = ("id", "category", "description", "sources", "rule", "severity")

    def __init__(
        self, id: str, category: str, description: str, sources: tuple[str, ...], rule: Rule,
        severity: str | None = None,
    ) -> None:
        self.id = id
        self.category = category
        self.description = description
        self.sources = sources
        self.rule = rule
        self.severity = severity

    @property
    def category_path(self) -> str:
        return leaf_path(self.category)


class EvaluationItemSet(_Record):
    __slots__ = ("system_name", "items", "warnings")

    def __init__(
        self, system_name: str, items: list[EvaluationItem], warnings: list[Diagnostic] | None = None
    ) -> None:
        self.system_name = system_name
        self.items = items
        self.warnings = [] if warnings is None else warnings

    def by_rule(self, rule: Rule) -> list[EvaluationItem]:
        return [item for item in self.items if item.rule == rule]


def derive_rule(model: AlignmentModel, rule: Rule) -> list[EvaluationItem]:
    """One rule's items, numbered ``item_<rule>_<n>`` in output order.

    Each entry of the row's attr, on the row's elements in model order,
    yields one item.  R1 first gives each component its develop, operate
    and usage-fee items.
    """
    items: list[EvaluationItem] = []
    prefix = f"item_{rule.lower()}_"

    def emit(category: str, description: str, source: str, severity: str | None = None) -> None:
        item_id = f"{prefix}{len(items) + 1}"
        items.append(EvaluationItem(item_id, category, description, (source,), rule, severity))

    rows = model._by_id.values()
    if rule == Rule.R1_COST:
        components = [row for row in rows if row[1] is ElementKind.SYSTEM_COMPONENT]
        for id, _, name, _, _ in components:
            emit("human_resources", f"develop and test {name}", id)
            emit("human_resources", f"operate and maintain {name}", id)
        for id, _, name, _, attrs in components:
            runtime = dict(attrs).get("runs_on")
            if runtime in _FEE_TEMPLATES:
                emit("it_resources", _FEE_TEMPLATES[runtime].format(name=name), id)
    _, _, source_kind, attr = RULE_TABLE[rule]
    for id, kind, name, _, attrs in rows:
        if kind is source_kind:
            for entry in dict(attrs).get(attr, ()):
                severity = entry[1] if len(entry) == 3 else None  # hinders: leaf, severity, text
                emit(entry[0], f"{entry[-1]} ({name})", id, severity)
    return items


def _influence_pairs(model: AlignmentModel) -> list[tuple[str, str]]:
    """Declared (user activity, operator activity) influence pairs, in order."""
    influence, user_activity = RelationKind.INFLUENCE, ElementKind.USER_ACTIVITY
    by_id = model._by_id
    return [
        (source, target)
        for _, kind, source, target in model._relations
        if kind is influence and by_id[source][1] is user_activity
    ]


def _influence_warnings(model: AlignmentModel) -> list[Diagnostic]:
    by_id = model._by_id
    return [
        Diagnostic(
            "W110", Severity.WARNING,
            f"influence target {target!r} of {source!r} yields no business value", subject=target,
        )
        for source, target in _influence_pairs(model)
        if not dict(by_id[target][4]).get("yields_business_value")
    ]


def derive_all(model: AlignmentModel) -> EvaluationItemSet:
    """Run rules R1-R5 over a model that validates without errors (E200)."""
    warnings = model.validate()  # a new list, which holds only warnings once E200 is passed
    if codes := {d.code for d in warnings if d.severity is Severity.ERROR}:
        raise ModelError("E200", f"model has validation errors ({', '.join(sorted(codes))})")
    items = [item for rule in RULES for item in derive_rule(model, rule)]
    warnings.extend(_influence_warnings(model))
    return EvaluationItemSet(system_name=model.system_name, items=items, warnings=warnings)


def attach(model: AlignmentModel, itemset: EvaluationItemSet) -> AlignmentModel:
    """Materialize an itemset into a new frozen model (E201 on mismatch).

    Adds one motivation element per item plus one Principle element per risk
    leaf referenced, then provenance edges: influence from each source to its
    cost/risk item, association between each activity and its value item,
    influence from events to the principles they hinder, and the declared
    user-value to business-value influences.  The new model's rule pass
    extends ``model``'s with the added records only.  An id it would add
    that repeats the system name's Open Exchange identifier raises E014.
    """
    if itemset.system_name != model.system_name:
        raise ModelError(
            "E201",
            f"itemset for {itemset.system_name!r} does not match model "
            f"{model.system_name!r}",
        )
    slug = slugify(model.system_name)  # the model's Open Exchange identifier is id-<slug>
    clash = f"derived id {slug!r} repeats the Open Exchange identifier of the system name"
    risk = Rule.R2_RISK
    risk_items = itemset.by_rule(risk)
    principles = {f"principle_{item.category}" for item in risk_items}
    for item in itemset.items:
        if item.rule not in RULE_TABLE:
            raise ModelError("E201", f"item {item.id!r} has unknown rule {item.rule!r}")
        if item.id in model._by_id:  # not ``in model``: no method call per id
            raise ModelError("E201", f"item {item.id!r} is already materialized")
        if item.id in principles:
            raise ModelError("E201", f"item {item.id!r} has the id of a derived Principle element")
        if item.id == slug:
            raise ModelError("E014", clash)
        for source in item.sources:
            if source not in model._by_id:
                raise ModelError("E201", f"item {item.id!r} references unknown source {source!r}")
    for item in risk_items:
        if item.category not in RISK_LEAVES:
            raise ModelError(
                "E201", f"risk item {item.id!r} has category {item.category!r}, not a risk leaf"
            )
        pid = f"principle_{item.category}"
        row = model._by_id.get(pid)
        if row is not None and row[1] is not ElementKind.PRINCIPLE:
            raise ModelError("E201", f"derived id {pid!r} is already used by a {row[1]} element")
        if pid == slug:
            raise ModelError("E014", clash)

    # ``out`` is a new unfrozen copy and ``category`` and ``severity`` are on
    # every item kind's allowlist: of ``add_element``'s checks, only E005 remains.
    out = model.copy()
    add_element, add_relation = out._add_element, out._add_relation
    for item in itemset.items:
        if not is_valid_id(item.id):
            raise ModelError("E005", f"invalid identifier {item.id!r}")
        values = (item.category, item.severity) if item.rule == risk else (item.category,)
        try:
            attrs = _ITEM_ATTRS[values]
        except (KeyError, TypeError):  # values that are no taxonomy words, or unhashable
            attrs = tuple(zip(("category", "severity"), values))
        add_element(RULE_TABLE[item.rule][0], item.id, item.description, None, attrs)

    for item in itemset.items:
        edge = RULE_TABLE[item.rule][1]
        for source in item.sources:
            add_relation(edge, source, item.id)

    influence = RelationKind.INFLUENCE
    hindered: set[tuple[str, str]] = set()
    for item in risk_items:
        principle = f"principle_{item.category}"
        if principle not in out:
            add_element(ElementKind.PRINCIPLE, principle, PRINCIPLE_NAMES[item.category], None, ())
        for source in item.sources:
            if (source, principle) not in hindered:
                add_relation(influence, source, principle)
                hindered.add((source, principle))
        add_relation(RelationKind.ASSOCIATION, item.id, principle)

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
                add_relation(influence, item.id, business_id)

    out._diagnostics = out._rule_pass(model)
    out.freeze()
    return out


def summary_line(itemset: EvaluationItemSet) -> str:
    """One-line count summary, e.g. ``15 items (9 cost, 2 risk, ...)``."""
    counts = (f"{len(itemset.by_rule(rule))} {rule.partition('_')[2]}" for rule in RULES)
    return f"{len(itemset.items)} items ({', '.join(counts)})"


def serialize_itemset(itemset: EvaluationItemSet) -> str:
    """Deterministic JSON rendering used for golden files (LF, fixed keys).

    The text is ``json.dumps(doc, indent=2, ensure_ascii=False)`` of the
    document, written from the C string encoder that call uses: an indent
    makes ``json.dumps`` fall back to its pure-Python encoder.
    """
    # The C encoder itself, which ``json.encoder`` re-exports: importing the
    # ``json`` package would cost a ``derive --items`` run about 2 ms more.
    try:
        from _json import encode_basestring as enc
    except ImportError:  # an interpreter without the C accelerator
        from json.encoder import encode_basestring as enc

    # Each distinct rule, category and severity is encoded once per call.
    word, path = cache(enc), cache(lambda leaf: enc(leaf_path(leaf)))
    items = [
        f'{{\n      "id": {enc(item.id)},\n      "rule": {word(item.rule)},'
        f'\n      "category": {path(item.category)},'
        f'\n      "description": {enc(item.description)},'
        f'\n      "sources": {_sources(item.sources, enc)},'
        f'\n      "severity": {"null" if item.severity is None else word(item.severity)}\n    }}'
        for item in itemset.items
    ]
    warnings = [
        f'{{\n      "code": {enc(d.code)},\n      "severity": {enc(d.severity)},'
        f'\n      "message": {enc(d.message)},'
        f'\n      "subject": {"null" if d.subject is None else enc(d.subject)}\n    }}'
        for d in itemset.warnings
    ]
    return (
        f'{{\n  "system": {enc(itemset.system_name)},\n  "items": {_json_list(items, "  ")},'
        f'\n  "warnings": {_json_list(warnings, "  ")}\n}}\n'
    )


def _sources(sources: tuple[str, ...], enc) -> str:
    """An item's sources array; one source, as every derived item has, takes no list."""
    if len(sources) == 1:
        return f"[\n        {enc(*sources)}\n      ]"
    return _json_list(list(map(enc, sources)), "      ")


def _json_list(values: list[str], indent: str) -> str:
    """A JSON array of encoded values, laid out as ``json.dumps`` indents it."""
    if not values:
        return "[]"
    inner = f"\n{indent}  "
    return f"[{inner}{f',{inner}'.join(values)}\n{indent}]"
