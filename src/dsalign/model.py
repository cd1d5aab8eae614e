"""Typed graph of a dialogue system and its business context.

An :class:`AlignmentModel` holds elements (actors, activities, services,
components, data, events, and the motivation-layer items derived from them)
and relations between them.  Element and relation kinds are closed sets, and
every relation must use a permitted (source kind, relation kind, target kind)
combination.  ``validate`` runs the structural rules and returns diagnostics
instead of raising.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
import re
from types import MappingProxyType


class ElementKind(str, Enum):
    # System-side kinds, one per element of the generic dialogue-system model.
    USER = "User"
    OPERATOR = "Operator"
    USER_ACTIVITY = "UserActivity"
    OPERATOR_ACTIVITY = "OperatorActivity"
    DIALOGUE_SERVICE = "DialogueService"
    SYSTEM_COMPONENT = "SystemComponent"
    COMPONENT_FUNCTION = "ComponentFunction"
    DATA_MODEL = "DataModel"
    OBSERVED_EVENT = "ObservedEvent"
    # Motivation-layer kinds holding derived evaluation items.
    USER_VALUE = "UserValue"
    QUALITY_VALUE = "QualityValue"
    BUSINESS_VALUE = "BusinessValue"
    COST_ITEM = "CostItem"
    RISK_ITEM = "RiskItem"
    PRINCIPLE = "Principle"


class RelationKind(str, Enum):
    SERVING = "Serving"
    REALIZATION = "Realization"
    ASSIGNMENT = "Assignment"
    ASSOCIATION = "Association"  # the only undirected kind
    INFLUENCE = "Influence"
    AGGREGATION = "Aggregation"
    ACCESS = "Access"


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


# ---------------------------------------------------------------------------
# Evaluation-item taxonomy: a fixed three-branch tree.

USER_VALUE_LEAVES = ("functional", "emotional", "self_expressive", "social")
QUALITY_VALUE_LEAVES = ("must_be", "attractive")
BUSINESS_VALUE_LEAVES = ("revenue_increase", "cost_reduction", "new_revenue")
VALUE_LEAVES = USER_VALUE_LEAVES + QUALITY_VALUE_LEAVES + BUSINESS_VALUE_LEAVES

RISK_LEAVES = (
    "transparency",
    "justice_fairness",
    "non_maleficence",
    "responsibility",
    "privacy",
    "beneficence",
    "freedom_autonomy",
)

COST_LEAVES = ("human_resources", "information_resources", "it_resources")

ALL_LEAVES = VALUE_LEAVES + RISK_LEAVES + COST_LEAVES

# The leaves each ``yields_*`` entry may name, for the parser and for V7.
YIELDS_LEAVES: dict[str, tuple[str, ...]] = {
    "yields_user_value": USER_VALUE_LEAVES,
    "yields_quality_value": QUALITY_VALUE_LEAVES,
    "yields_business_value": BUSINESS_VALUE_LEAVES,
}

_LEAF_PATHS = {
    **{leaf: f"value/user/{leaf}" for leaf in USER_VALUE_LEAVES},
    **{leaf: f"value/quality/{leaf}" for leaf in QUALITY_VALUE_LEAVES},
    **{leaf: f"value/business/{leaf}" for leaf in BUSINESS_VALUE_LEAVES},
    **{leaf: f"risk/{leaf}" for leaf in RISK_LEAVES},
    **{leaf: f"cost/{leaf}" for leaf in COST_LEAVES},
}

PRINCIPLE_NAMES = {
    "transparency": "Transparency",
    "justice_fairness": "Justice and fairness",
    "non_maleficence": "Non-maleficence",
    "responsibility": "Responsibility",
    "privacy": "Privacy",
    "beneficence": "Beneficence",
    "freedom_autonomy": "Freedom and autonomy",
}

SEVERITY_LEVELS = ("low", "medium", "high")
DEFAULT_RISK_SEVERITY = "medium"

RUNTIME_TARGETS = ("server", "device", "external_api", "browser")

# Leaf counts are part of the contract; fail fast if the tree is edited badly.
assert len(VALUE_LEAVES) == 9 and len(RISK_LEAVES) == 7 and len(COST_LEAVES) == 3
assert len(set(ALL_LEAVES)) == 19


def leaf_path(leaf: str) -> str:
    """Full taxonomy path for a leaf, e.g. ``value/user/functional``."""
    return _LEAF_PATHS[leaf]


def leaf_branch(leaf: str) -> str:
    """Top-level branch (``value``, ``risk``, or ``cost``) of a leaf."""
    return _LEAF_PATHS[leaf].split("/", 1)[0]


def is_leaf(name: str) -> bool:
    return name in _LEAF_PATHS


# ---------------------------------------------------------------------------
# Attribute allowlist per element kind; tuple order is the canonical
# serialization order used by the formatter.

ALLOWED_ATTRS: dict[ElementKind, tuple[str, ...]] = {
    ElementKind.USER: (),
    ElementKind.OPERATOR: (),
    ElementKind.USER_ACTIVITY: ("yields_user_value", "yields_quality_value"),
    ElementKind.OPERATOR_ACTIVITY: ("yields_business_value",),
    ElementKind.DIALOGUE_SERVICE: (),
    ElementKind.SYSTEM_COMPONENT: ("runs_on",),
    ElementKind.COMPONENT_FUNCTION: (),
    ElementKind.DATA_MODEL: (),
    ElementKind.OBSERVED_EVENT: ("implies_cost", "hinders"),
    ElementKind.USER_VALUE: ("category",),
    ElementKind.QUALITY_VALUE: ("category",),
    ElementKind.BUSINESS_VALUE: ("category",),
    ElementKind.COST_ITEM: ("category",),
    ElementKind.RISK_ITEM: ("category", "severity"),
    ElementKind.PRINCIPLE: (),
}

_CATEGORY_BRANCH: dict[ElementKind, tuple[str, ...]] = {
    ElementKind.USER_VALUE: USER_VALUE_LEAVES,
    ElementKind.QUALITY_VALUE: QUALITY_VALUE_LEAVES,
    ElementKind.BUSINESS_VALUE: BUSINESS_VALUE_LEAVES,
    ElementKind.COST_ITEM: COST_LEAVES,
    ElementKind.RISK_ITEM: RISK_LEAVES,
}


# ---------------------------------------------------------------------------
# Permitted (source kind, relation kind, target kind) combinations.
# Directed kinds are checked against PERMITTED_RELATIONS; Association accepts
# any pair but pairs outside ASSOCIATION_CORE only validate with warning W105.

K = ElementKind

PERMITTED_RELATIONS: dict[RelationKind, frozenset[tuple[ElementKind, ElementKind]]] = {
    RelationKind.ASSIGNMENT: frozenset(
        {
            (K.USER, K.USER_ACTIVITY),
            (K.OPERATOR, K.OPERATOR_ACTIVITY),
        }
    ),
    RelationKind.SERVING: frozenset(
        {
            (K.DIALOGUE_SERVICE, K.USER_ACTIVITY),
            (K.DIALOGUE_SERVICE, K.OPERATOR_ACTIVITY),
            (K.SYSTEM_COMPONENT, K.DIALOGUE_SERVICE),
        }
    ),
    RelationKind.REALIZATION: frozenset(
        {
            (K.COMPONENT_FUNCTION, K.DIALOGUE_SERVICE),
            (K.SYSTEM_COMPONENT, K.COMPONENT_FUNCTION),
        }
    ),
    RelationKind.ACCESS: frozenset(
        {
            (K.SYSTEM_COMPONENT, K.DATA_MODEL),
            (K.COMPONENT_FUNCTION, K.DATA_MODEL),
        }
    ),
    RelationKind.INFLUENCE: frozenset(
        {
            (K.USER_VALUE, K.BUSINESS_VALUE),
            (K.QUALITY_VALUE, K.BUSINESS_VALUE),
            (K.OBSERVED_EVENT, K.PRINCIPLE),
            (K.OBSERVED_EVENT, K.COST_ITEM),
            (K.OBSERVED_EVENT, K.RISK_ITEM),
            (K.SYSTEM_COMPONENT, K.COST_ITEM),
            (K.USER_ACTIVITY, K.OPERATOR_ACTIVITY),
        }
    ),
    RelationKind.AGGREGATION: frozenset(),
}

# Unordered pairs; any other Association validates with warning W105.
ASSOCIATION_CORE: frozenset[frozenset[ElementKind]] = frozenset(
    {
        frozenset({K.OBSERVED_EVENT, K.SYSTEM_COMPONENT}),
        frozenset({K.OBSERVED_EVENT, K.COMPONENT_FUNCTION}),
        frozenset({K.OBSERVED_EVENT, K.DATA_MODEL}),
        frozenset({K.USER_ACTIVITY, K.USER_VALUE}),
        frozenset({K.USER_ACTIVITY, K.QUALITY_VALUE}),
        frozenset({K.OPERATOR_ACTIVITY, K.BUSINESS_VALUE}),
        frozenset({K.RISK_ITEM, K.PRINCIPLE}),
    }
)

MOTIVATION_KINDS = frozenset(
    {
        K.USER_VALUE,
        K.QUALITY_VALUE,
        K.BUSINESS_VALUE,
        K.COST_ITEM,
        K.RISK_ITEM,
        K.PRINCIPLE,
    }
)

del K

_ID_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

# Characters XML 1.0 (section 2.2, ``Char``) cannot carry: C0 controls other
# than tab and line feed, U+FFFE, U+FFFF and lone surrogates.  A carriage
# return is a legal XML character, but parsers fold it into a space or a line
# feed, so it could not survive export either.  The lexer rejects them in
# strings (E108) and ``validate`` in every text that reaches an export (E013).
XML_FORBIDDEN = "\x00-\x08\x0b-\x1f\ufffe\uffff\ud800-\udfff"


def is_valid_id(candidate: str) -> bool:
    return bool(_ID_RE.match(candidate))


def relation_permitted(
    source_kind: ElementKind, kind: RelationKind, target_kind: ElementKind
) -> bool:
    """True if the triple may be added at all (W105 pairs included)."""
    if kind is RelationKind.ASSOCIATION:
        return True
    return (source_kind, target_kind) in PERMITTED_RELATIONS[kind]


# ---------------------------------------------------------------------------


@dataclass
class SourceSpan:
    """Location of a token in a ``.dsa`` file (1-based line and column)."""

    file: str
    line: int
    column: int
    length: int = 1


@dataclass(frozen=True)
class Diagnostic:
    code: str
    severity: Severity
    message: str
    location: SourceSpan | None = None
    subject: str | None = None

    def render(self, file: str | None = None) -> str:
        """Stable single-line rendering: ``file:line:col: severity CODE: message``."""
        if self.location is not None:
            prefix = f"{self.location.file}:{self.location.line}:{self.location.column}: "
        elif file is not None:
            prefix = f"{file}: "
        else:
            prefix = ""
        return f"{prefix}{self.severity.value} {self.code}: {self.message}"


class ModelError(Exception):
    """Contract violation in a model-building call. Carries a stable code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


@dataclass
class Element:
    """One element record.

    Records belong to the model that made them and to its copies.  Their
    fields must not be reassigned nor their attr entries edited, because
    ``validate`` caches its findings per model state; ``attrs`` itself is a
    read-only view.
    """

    id: str
    kind: ElementKind
    name: str
    description: str | None = None
    attrs: Mapping = field(default_factory=dict)


@dataclass(frozen=True)
class Relation:
    id: str
    kind: RelationKind
    source: str
    target: str


class AlignmentModel:
    """Ordered, typed graph for one dialogue system.

    Elements and relations keep insertion order; that order is the canonical
    order for formatting, derivation, and export.  Models are mutable while
    being built and should be frozen before they are shared.  Only
    ``add_element`` and ``add_relation`` change a model, so ``validate``
    runs its rules once per model state.
    """

    def __init__(self, system_name: str):
        if not system_name:
            raise ModelError("E000", "system name must not be empty")
        self._system_name = system_name
        self._elements: list[Element] = []
        self._by_id: dict[str, Element] = {}
        self._relations: list[Relation] = []
        self._frozen = False
        self._diagnostics: list[Diagnostic] | None = None  # last rule pass

    @property
    def system_name(self) -> str:
        return self._system_name

    # -- construction -------------------------------------------------------

    def add_element(
        self,
        kind: ElementKind,
        id: str,
        name: str,
        description: str | None = None,
        attrs: dict | None = None,
    ) -> str:
        self._check_mutable()
        if not is_valid_id(id):
            raise ModelError("E005", f"invalid identifier {id!r}")
        if id in self._by_id:
            raise ModelError("E001", f"duplicate element id {id!r}")
        if kind in (ElementKind.USER, ElementKind.OPERATOR):
            if any(e.kind is kind for e in self._elements):
                raise ModelError(
                    "E007", f"model already has an element of kind {kind.value}"
                )
        attrs = dict(attrs or {})
        allowed = ALLOWED_ATTRS[kind]
        for key in attrs:
            if key not in allowed:
                raise ModelError(
                    "E002", f"attr {key!r} is not allowed on {kind.value}"
                )
        element = Element(id, kind, name, description, MappingProxyType(attrs))
        self._elements.append(element)
        self._by_id[id] = element
        self._diagnostics = None
        return id

    def add_relation(self, kind: RelationKind, source: str, target: str) -> str:
        self._check_mutable()
        for endpoint in (source, target):
            if endpoint not in self._by_id:
                raise ModelError("E003", f"unknown element id {endpoint!r}")
        source_kind = self._by_id[source].kind
        target_kind = self._by_id[target].kind
        if not relation_permitted(source_kind, kind, target_kind):
            raise ModelError(
                "E004",
                f"{kind.value} from {source_kind.value} to {target_kind.value} "
                "is not permitted",
            )
        rel = Relation(
            id=f"r{len(self._relations) + 1:03d}", kind=kind, source=source, target=target
        )
        self._relations.append(rel)
        self._diagnostics = None
        return rel.id

    def freeze(self) -> None:
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _check_mutable(self) -> None:
        if self._frozen:
            raise ModelError("E006", "model is frozen")

    # -- queries -------------------------------------------------------------

    @property
    def elements(self) -> list[Element]:
        return list(self._elements)

    @property
    def relations(self) -> list[Relation]:
        return list(self._relations)

    def __contains__(self, id: str) -> bool:
        return id in self._by_id

    def element(self, id: str) -> Element:
        if id not in self._by_id:
            raise ModelError("E003", f"unknown element id {id!r}")
        return self._by_id[id]

    def elements_of_kind(self, kind: ElementKind) -> list[Element]:
        return [e for e in self._elements if e.kind is kind]

    def neighbors(
        self,
        id: str,
        kind: RelationKind | None = None,
        direction: str = "any",
    ) -> list[Element]:
        """Adjacent elements in relation insertion order.

        ``direction`` is ``in``, ``out``, or ``any`` and applies to directed
        relations only; Association edges are undirected and match every
        direction.  Repeated neighbors are reported once.
        """
        if direction not in ("in", "out", "any"):
            raise ValueError(f"bad direction {direction!r}")
        self.element(id)
        seen: dict[str, None] = {}
        for rel in self._relations:
            if kind is not None and rel.kind is not kind:
                continue
            other: str | None = None
            if rel.kind is RelationKind.ASSOCIATION:
                if rel.source == id:
                    other = rel.target
                elif rel.target == id:
                    other = rel.source
            elif direction in ("out", "any") and rel.source == id:
                other = rel.target
            elif direction in ("in", "any") and rel.target == id:
                other = rel.source
            if other is not None:
                seen.setdefault(other, None)
        return [self._by_id[other] for other in seen]

    def copy(self) -> AlignmentModel:
        """Unfrozen copy that shares the (read-only) element and relation records."""
        dup = AlignmentModel(self.system_name)
        dup._elements = list(self._elements)
        dup._by_id = dict(self._by_id)
        dup._relations = list(self._relations)
        return dup

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[Diagnostic]:
        """Run structural rules V1-V9 and return every finding.

        An empty list means the model is a well-formed pre-derivation model;
        error-level findings make it unsuitable for derivation and export.
        The rules run once per model state; every call returns a new list.
        """
        if self._diagnostics is not None:
            return list(self._diagnostics)
        out: list[Diagnostic] = []
        _check_text(self._system_name, "the system name", None, out)
        realizes: dict[str, list[str]] = {}
        accessed: set[str] = set()
        served: set[str] = set()
        associated: dict[str, list[str]] = {}
        for rel in self._relations:
            skind = self._by_id[rel.source].kind
            tkind = self._by_id[rel.target].kind
            if rel.kind is RelationKind.REALIZATION and skind is ElementKind.SYSTEM_COMPONENT:
                realizes.setdefault(rel.source, []).append(rel.target)
            if rel.kind is RelationKind.ACCESS:
                accessed.add(rel.target)
            if rel.kind is RelationKind.SERVING and tkind is ElementKind.USER_ACTIVITY:
                served.add(rel.target)
            if rel.kind is RelationKind.ASSOCIATION:
                associated.setdefault(rel.source, []).append(rel.target)
                associated.setdefault(rel.target, []).append(rel.source)

        for e in self._elements:
            out.extend(self._validate_element(e, realizes, accessed, served, associated))
        for rel in self._relations:
            out.extend(self._validate_relation(rel))
        self._diagnostics = out
        return list(out)

    def _validate_element(
        self,
        e: Element,
        realizes: dict[str, list[str]],
        accessed: set[str],
        served: set[str],
        associated: dict[str, list[str]],
    ) -> list[Diagnostic]:
        out: list[Diagnostic] = []

        def add(code: str, severity: Severity, message: str) -> None:
            out.append(Diagnostic(code, severity, message, subject=e.id))

        _check_text(e.name, "its name", e.id, out)
        _check_text(e.description, "its description", e.id, out)
        kind = e.kind
        if kind is ElementKind.SYSTEM_COMPONENT and not realizes.get(e.id):
            # V1: a component must expose at least one function.
            add("E010", Severity.ERROR, f"component {e.id!r} realizes no function")
        if kind is ElementKind.OBSERVED_EVENT:
            anchors = [
                other
                for other in associated.get(e.id, [])
                if self._by_id[other].kind
                in (
                    ElementKind.SYSTEM_COMPONENT,
                    ElementKind.COMPONENT_FUNCTION,
                    ElementKind.DATA_MODEL,
                )
            ]
            if not anchors:
                # V2: events must be anchored to the system they observe.
                add(
                    "E011",
                    Severity.ERROR,
                    f"event {e.id!r} has no association to a component, function, or data model",
                )
            if not e.attrs.get("implies_cost") and not e.attrs.get("hinders"):
                # V3: an event that grounds neither a cost nor a risk is dangling.
                add(
                    "W101",
                    Severity.WARNING,
                    f"dangling event {e.id!r}: no implies_cost or hinders entry",
                )
        if kind is ElementKind.OPERATOR_ACTIVITY and not e.attrs.get("yields_business_value"):
            add(
                "W102",
                Severity.WARNING,
                f"operator activity {e.id!r} declares no business value",
            )
        if kind is ElementKind.USER_ACTIVITY and e.id not in served:
            add(
                "W103",
                Severity.WARNING,
                f"user activity {e.id!r} is not served by any dialogue service",
            )
        if kind is ElementKind.DATA_MODEL and e.id not in accessed:
            add(
                "W104",
                Severity.WARNING,
                f"data model {e.id!r} is not accessed by any component",
            )
        out.extend(self._validate_attrs(e))
        return out

    def _validate_attrs(self, e: Element) -> list[Diagnostic]:
        """V7: attr keys on the per-kind allowlist, values well-formed."""
        out: list[Diagnostic] = []
        allowed = ALLOWED_ATTRS[e.kind]

        def add(code: str, message: str) -> None:
            out.append(Diagnostic(code, Severity.ERROR, message, subject=e.id))

        def check_leaf(value: object, leaves: tuple[str, ...], what: str) -> None:
            if not isinstance(value, str) or not is_leaf(value):
                add("E120", f"{e.id!r}: unknown taxonomy leaf {value!r} in {what}")
            elif value not in leaves:
                add(
                    "E125",
                    f"{e.id!r}: leaf {value!r} is from the wrong branch for {what}",
                )

        for key, value in e.attrs.items():
            if key not in allowed:
                add("E002", f"attr {key!r} is not allowed on {e.kind.value}")
                continue
            if key == "runs_on":
                if value not in RUNTIME_TARGETS:
                    add("E123", f"{e.id!r}: unknown runtime target {value!r}")
            elif key == "category":
                check_leaf(value, _CATEGORY_BRANCH[e.kind], "category")
            elif key == "severity":
                if value not in SEVERITY_LEVELS:
                    add("E122", f"{e.id!r}: unknown severity level {value!r}")
            elif key in YIELDS_LEAVES:
                for entry in _entries(value, 2, e.id, key, out):
                    check_leaf(entry[0], YIELDS_LEAVES[key], key)
            elif key == "implies_cost":
                for entry in _entries(value, 2, e.id, key, out):
                    check_leaf(entry[0], COST_LEAVES, key)
            elif key == "hinders":
                for entry in _entries(value, 3, e.id, key, out):
                    check_leaf(entry[0], RISK_LEAVES, key)
                    if entry[1] not in SEVERITY_LEVELS:
                        add("E122", f"{e.id!r}: unknown severity level {entry[1]!r}")
        return out

    def _validate_relation(self, rel: Relation) -> list[Diagnostic]:
        """V8: relation typing, with W105 for unusual associations."""
        skind = self._by_id[rel.source].kind
        tkind = self._by_id[rel.target].kind
        if rel.kind is RelationKind.ASSOCIATION:
            if frozenset({skind, tkind}) not in ASSOCIATION_CORE:
                return [
                    Diagnostic(
                        "W105",
                        Severity.WARNING,
                        f"unusual association between {skind.value} and {tkind.value}",
                        subject=rel.id,
                    )
                ]
            return []
        if (skind, tkind) not in PERMITTED_RELATIONS[rel.kind]:
            return [
                Diagnostic(
                    "E004",
                    Severity.ERROR,
                    f"{rel.kind.value} from {skind.value} to {tkind.value} is not permitted",
                    subject=rel.id,
                )
            ]
        return []


def _entries(
    value: object, arity: int, subject: str, key: str, out: list[Diagnostic]
) -> list[tuple]:
    """Return the well-shaped entries of a list-valued attr.

    Reports E012 for a malformed entry and E013 for a forbidden character in
    any string part of a well-shaped one.
    """
    if not isinstance(value, (list, tuple)):
        out.append(
            Diagnostic(
                "E012",
                Severity.ERROR,
                f"{subject!r}: attr {key!r} must be a list of entries",
                subject=subject,
            )
        )
        return []
    good = []
    where = f"its {key!r} entry"
    for entry in value:
        if not isinstance(entry, (list, tuple)) or len(entry) != arity:
            out.append(
                Diagnostic(
                    "E012",
                    Severity.ERROR,
                    f"{subject!r}: malformed {key!r} entry {entry!r}",
                    subject=subject,
                )
            )
        else:
            good.append(tuple(entry))
            for part in entry:
                _check_text(part, where, subject, out)
    return good


def _check_text(text: object, where: str, subject: str | None, out: list[Diagnostic]) -> None:
    """V9: report E013 if a string holds a character XML 1.0 cannot carry.

    Every text that reaches an export is checked; the lexer's E108 already
    keeps these characters out of parsed models.
    """
    if not isinstance(text, str) or text.isprintable():  # no forbidden character is printable
        return
    # Compiled on first use and cached by ``re``: compiling costs about 1 ms,
    # which every CLI run would otherwise pay at import.
    m = re.search(f"[{XML_FORBIDDEN}]", text)
    if m:
        prefix = f"{subject!r}: " if subject else ""
        message = f"{prefix}character {m.group()!r} is not allowed in {where}"
        out.append(Diagnostic("E013", Severity.ERROR, message, subject=subject))


def new_model(system_name: str) -> AlignmentModel:
    """Create an empty model. The name must be non-empty (E000)."""
    return AlignmentModel(system_name)


def slugify(name: str) -> str:
    """Derive a stable ``[a-z][a-z0-9_]*`` slug from a display name."""
    slug = re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")
    if not slug or not slug[0].isalpha():
        slug = "m_" + slug
    return slug
