"""Typed graph of a dialogue system and its business context.

An :class:`AlignmentModel` holds elements (actors, activities, services,
components, data, events, and the motivation-layer items derived from them)
and relations between them.  Element and relation kinds are closed sets, and
every relation must use a permitted (source kind, relation kind, target kind)
combination.  ``validate`` runs the structural rules and returns diagnostics
instead of raising.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from itertools import islice
import re
from types import MappingProxyType

# Kinds, severities and rules are plain ``str`` constants grouped in
# namespaces, so ``ElementKind.USER == "User"`` and a kind prints as itself.
# Models hold only these constant objects (``add_element`` and
# ``add_relation`` map an equal string to its constant), so the rules may
# compare kinds with ``is``.


class ElementKind:
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


class RelationKind:
    SERVING = "Serving"
    REALIZATION = "Realization"
    ASSIGNMENT = "Assignment"
    ASSOCIATION = "Association"  # the only undirected kind
    INFLUENCE = "Influence"
    ACCESS = "Access"


class Severity:
    ERROR = "error"
    WARNING = "warning"


def _constants(namespace: type) -> tuple[str, ...]:
    """A namespace's constants in declaration order."""
    return tuple(value for name, value in vars(namespace).items() if not name.startswith("_"))


ELEMENT_KINDS = _constants(ElementKind)
RELATION_KINDS = _constants(RelationKind)
# Each kind mapped to itself, for the one lookup that makes an equal string canonical.
_ELEMENT_KIND = {kind: kind for kind in ELEMENT_KINDS}
_RELATION_KIND = {kind: kind for kind in RELATION_KINDS}


# ---------------------------------------------------------------------------
# Evaluation-item taxonomy: a fixed three-branch tree.  ``BRANCHES`` gives each
# derived item kind its branch path and leaves, in tree order; a leaf's path
# is its branch path and the leaf, e.g. ``value/user/functional``.

USER_VALUE_LEAVES = ("functional", "emotional", "self_expressive", "social")
QUALITY_VALUE_LEAVES = ("must_be", "attractive")
BUSINESS_VALUE_LEAVES = ("revenue_increase", "cost_reduction", "new_revenue")
VALUE_LEAVES = USER_VALUE_LEAVES + QUALITY_VALUE_LEAVES + BUSINESS_VALUE_LEAVES

# A risk hinders one principle; the risk leaves are the principles' ids.
PRINCIPLE_NAMES = {
    "transparency": "Transparency",
    "justice_fairness": "Justice and fairness",
    "non_maleficence": "Non-maleficence",
    "responsibility": "Responsibility",
    "privacy": "Privacy",
    "beneficence": "Beneficence",
    "freedom_autonomy": "Freedom and autonomy",
}
RISK_LEAVES = tuple(PRINCIPLE_NAMES)

COST_LEAVES = ("human_resources", "information_resources", "it_resources")

ALL_LEAVES = VALUE_LEAVES + RISK_LEAVES + COST_LEAVES

BRANCHES: dict[ElementKind, tuple[str, tuple[str, ...]]] = {
    ElementKind.USER_VALUE: ("value/user", USER_VALUE_LEAVES),
    ElementKind.QUALITY_VALUE: ("value/quality", QUALITY_VALUE_LEAVES),
    ElementKind.BUSINESS_VALUE: ("value/business", BUSINESS_VALUE_LEAVES),
    ElementKind.RISK_ITEM: ("risk", RISK_LEAVES),
    ElementKind.COST_ITEM: ("cost", COST_LEAVES),
}

_LEAF_PATHS = {leaf: f"{path}/{leaf}" for path, leaves in BRANCHES.values() for leaf in leaves}

SEVERITY_LEVELS = ("low", "medium", "high")
DEFAULT_RISK_SEVERITY = "medium"

RUNTIME_TARGETS = ("server", "device", "external_api", "browser")

# Formats of ``report``; declared here so the CLI can offer them without
# importing the report module.
REPORT_FORMATS = ("markdown", "csv")

# Leaf counts are part of the contract; fail fast if the tree is edited badly.
assert len(VALUE_LEAVES) == 9 and len(RISK_LEAVES) == 7 and len(COST_LEAVES) == 3
assert len(set(ALL_LEAVES)) == 19


def leaf_path(leaf: str) -> str:
    """Full taxonomy path for a leaf, e.g. ``value/user/functional``."""
    return _LEAF_PATHS[leaf]


def is_leaf(name: str) -> bool:
    return name in _LEAF_PATHS


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

# ---------------------------------------------------------------------------
# The ``.dsa`` statement table: each surface kind's statement keyword and its
# entries in canonical order.  The lexer, the parser, the printer and V7 all
# read it, so what one accepts the others print and check.


class Entry(
    namedtuple(
        "Entry",
        "relation owner_is_source single nested form leaves",
        defaults=(None, True, False, None, None, ()),
    )
):
    """One keyed entry of a statement.

    A relation entry names its ``relation`` and whether the statement's
    element is its source; a ``nested`` entry declares an element of that
    kind inside the statement.  An attr entry names its value ``form``:
    ``word`` (one of ``leaves``), ``leaf`` (a leaf of ``leaves`` and a
    description), ``cost`` (a cost word and a description) or ``hinders``
    (a leaf, a severity and a description).
    """

    __slots__ = ()


class Statement(namedtuple("Statement", "keyword entries role")):
    __slots__ = ()  # ``role`` is the word after ``actor`` that picks the kind

    def __new__(cls, keyword: str, entries: dict[str, Entry] | None = None, role: str | None = None):
        return super().__new__(cls, keyword, {} if entries is None else entries, role)


R = RelationKind
_BY = Entry(R.ASSIGNMENT, owner_is_source=False, single=True)

STATEMENTS: dict[ElementKind, Statement] = {
    K.USER: Statement("actor", role="user"),
    K.OPERATOR: Statement("actor", role="operator"),
    K.USER_ACTIVITY: Statement(
        "user_activity",
        {
            "by": _BY,
            "yields_user_value": Entry(form="leaf", leaves=USER_VALUE_LEAVES),
            "yields_quality_value": Entry(form="leaf", leaves=QUALITY_VALUE_LEAVES),
            "influences": Entry(R.INFLUENCE),
        },
    ),
    K.OPERATOR_ACTIVITY: Statement(
        "operator_activity",
        {"by": _BY, "yields_business_value": Entry(form="leaf", leaves=BUSINESS_VALUE_LEAVES)},
    ),
    K.DIALOGUE_SERVICE: Statement(
        "service",
        {"serves": Entry(R.SERVING), "realized_by": Entry(R.REALIZATION, owner_is_source=False)},
    ),
    K.SYSTEM_COMPONENT: Statement(
        "component",
        {
            "function": Entry(R.REALIZATION, nested=K.COMPONENT_FUNCTION),
            "uses": Entry(R.ACCESS),
            "runs_on": Entry(form="word", leaves=RUNTIME_TARGETS, single=True),
        },
    ),
    K.DATA_MODEL: Statement("data"),
    K.OBSERVED_EVENT: Statement(
        "event",
        {
            "about": Entry(R.ASSOCIATION),
            "implies_cost": Entry(form="cost", leaves=COST_LEAVES),
            "hinders": Entry(form="hinders", leaves=RISK_LEAVES),
        },
    ),
}

# Attribute allowlist per element kind, in the printer's order: a leaf
# category on derived items, the table's attr entries on surface kinds.
ALLOWED_ATTRS: dict[ElementKind, tuple[str, ...]] = {
    kind: ("category",) if kind in BRANCHES else () for kind in ELEMENT_KINDS
}
ALLOWED_ATTRS[K.RISK_ITEM] += ("severity",)
ALLOWED_ATTRS.update(
    (kind, tuple(key for key, entry in statement.entries.items() if entry.form))
    for kind, statement in STATEMENTS.items()
)

# ---------------------------------------------------------------------------
# Structural rules V1-V6: what each element of a kind must have, in the order
# ``validate`` reports them.  A row is (code, severity, message, attrs, link):
# one of ``attrs`` must be set (V3, V4), or the element needs a relation of
# kind ``link[0]`` to an element of a kind in ``link[1:]`` (V1, V2, V5, V6);
# the permitted relations fix which end it is on.
_ELEMENT_RULES: dict[ElementKind, tuple[tuple, ...]] = {
    K.SYSTEM_COMPONENT: (
        ("E010", Severity.ERROR, "component {!r} realizes no function",
         (), (R.REALIZATION, K.COMPONENT_FUNCTION)),
    ),
    K.OBSERVED_EVENT: (
        ("E011", Severity.ERROR,
         "event {!r} has no association to a component, function, or data model",
         (), (R.ASSOCIATION, K.SYSTEM_COMPONENT, K.COMPONENT_FUNCTION, K.DATA_MODEL)),
        ("W101", Severity.WARNING, "dangling event {!r}: no implies_cost or hinders entry",
         ("implies_cost", "hinders"), None),
    ),
    K.OPERATOR_ACTIVITY: (
        ("W102", Severity.WARNING, "operator activity {!r} declares no business value",
         ("yields_business_value",), None),
    ),
    K.USER_ACTIVITY: (
        ("W103", Severity.WARNING, "user activity {!r} is not served by any dialogue service",
         (), (R.SERVING, K.DIALOGUE_SERVICE)),
    ),
    K.DATA_MODEL: (
        ("W104", Severity.WARNING, "data model {!r} is not accessed by any component",
         (), (R.ACCESS, K.SYSTEM_COMPONENT, K.COMPONENT_FUNCTION)),
    ),
}

# Kind -> the (relation kind, kind at the other end) pairs that give it its link.
_LINKS = {
    kind: frozenset((link[0], other) for other in link[1:])
    for kind, rows in _ELEMENT_RULES.items()
    for *_, link in rows
    if link
}

# Kinds a model holds at most one element of (E007).
_ONE_PER_MODEL = (K.USER, K.OPERATOR)

del K, R

# Characters XML 1.0 (section 2.2, ``Char``) cannot carry: C0 controls other
# than tab and line feed, U+FFFE, U+FFFF and lone surrogates.  A carriage
# return is a legal XML character, but parsers fold it into a space or a line
# feed, so it could not survive export either.  The lexer rejects them in
# strings (E108) and ``validate`` in every text that reaches an export (E013).
XML_FORBIDDEN = "\x00-\x08\x0b-\x1f\ufffe\uffff\ud800-\udfff"


def is_valid_id(id: object) -> bool:
    """A ``str`` of the form ``[a-z][a-z0-9_]*``: an ASCII identifier, no capital, a letter first."""
    identifier = isinstance(id, str) and id.isascii() and id.isidentifier()
    return identifier and id.islower() and id[0].isalpha()


# ---------------------------------------------------------------------------
# Records: named tuples if immutable, else ``_Record`` subclasses.  Importing
# the standard library's class generator would cost more than all of dsalign.


class _Record:
    """Field-wise ``==`` and a ``Name(field=value, ...)`` repr over ``__slots__``.

    Subclasses declare their ``__slots__`` and ``__init__``; they are unhashable.
    """

    __slots__ = ()

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__slots__
        return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class SourceSpan(_Record):
    """Location of a token in a ``.dsa`` file (1-based line and column)."""

    __slots__ = ("file", "line", "column", "length")

    def __init__(self, file: str, line: int, column: int, length: int = 1) -> None:
        self.file = file
        self.line = line
        self.column = column
        self.length = length


# Each character at which ``str.splitlines`` breaks, written as ``repr`` writes
# it.  Messages ``repr`` their tokens, so only a file name can carry one.
_LINE_BREAKS = {ord(ch): repr(ch)[1:-1] for ch in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


class Diagnostic(
    namedtuple("Diagnostic", "code severity message location subject", defaults=(None, None))
):
    __slots__ = ()

    def render(self, file: str | None = None) -> str:
        """Stable single-line rendering: ``file:line:col: severity CODE: message``."""
        if self.location is not None:
            prefix = f"{self.location.file}:{self.location.line}:{self.location.column}: "
        elif file is not None:
            prefix = f"{file}: "
        else:
            prefix = ""
        return f"{prefix}{self.severity} {self.code}: {self.message}".translate(_LINE_BREAKS)


class ModelError(Exception):
    """Contract violation in a model-building call. Carries a stable code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class Element(_Record):
    """One element record, built on each read from the model's stored row.

    A record is the caller's own: editing it leaves the model unchanged.
    ``attrs`` is a read-only view of a new dict whose list values are tuples
    of entry tuples.
    """

    __slots__ = ("id", "kind", "name", "description", "attrs")

    def __init__(
        self, id: str, kind: ElementKind, name: str, description: str | None = None,
        attrs: Mapping | None = None,
    ) -> None:
        self.id = id
        self.kind = kind
        self.name = name
        self.description = description
        self.attrs = {} if attrs is None else attrs


Relation = namedtuple("Relation", "id kind source target")


def _element(row: tuple) -> Element:
    """The record of a stored ``(id, kind, name, description, attrs)`` row."""
    return Element(*row[:4], MappingProxyType(dict(row[4])))


class AlignmentModel:
    """Ordered, typed graph for one dialogue system.

    Elements and relations keep insertion order; that order is the canonical
    order for formatting, derivation, and export.  Models are mutable while
    being built and should be frozen before they are shared.  Only
    ``add_element`` and ``add_relation`` change a model, so ``validate``
    runs its rules once per model state.  ``attach`` extends the rule pass
    of the model it copies with the records it adds, so a pipeline checks
    each element once.
    """

    def __init__(self, system_name: str):
        if not isinstance(system_name, str):
            kind = type(system_name).__name__
            raise ModelError("E015", f"system name must be a string, not {kind}")
        if not system_name:
            raise ModelError("E000", "system name must not be empty")
        self._system_name = system_name
        # Every element in insertion order, as an exact (id, kind, name,
        # description, attrs) tuple whose attrs are (key, value) pairs; and
        # (id, kind, source, target) per relation.  The cycle collector stops
        # tracking tuples that hold only strings and such tuples.
        self._by_id: dict[str, tuple] = {}
        self._relations: list[tuple[str, str, str, str]] = []
        self._frozen = False
        self._diagnostics: tuple[list, list] | None = None  # last rule pass

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
        kind = _canonical(_ELEMENT_KIND, kind, "element")
        if not is_valid_id(id):
            raise ModelError("E005", f"invalid identifier {id!r}")
        attrs = dict(attrs or {})
        allowed = ALLOWED_ATTRS[kind]
        for key, value in attrs.items():
            if key not in allowed:
                raise ModelError("E002", f"attr {key!r} is not allowed on {kind}")
            if isinstance(value, (list, tuple)):  # the model's own copy, immutable
                attrs[key] = tuple(tuple(e) if isinstance(e, list) else e for e in value)
        return self._add_element(kind, id, name, description, tuple(attrs.items()))

    def _add_element(
        self, kind: ElementKind, id: str, name: str, description: str | None, attrs: tuple
    ) -> str:
        """``add_element`` after its checks; ``attrs`` is (key, value) pairs, lists made tuples."""
        if id in self._by_id:
            raise ModelError("E001", f"duplicate element id {id!r}")
        if kind in _ONE_PER_MODEL and any(row[1] is kind for row in self._by_id.values()):
            raise ModelError("E007", f"model already has an element of kind {kind}")
        self._by_id[id] = (id, kind, name, description, attrs)
        self._diagnostics = None
        return id

    def add_relation(self, kind: RelationKind, source: str, target: str) -> str:
        self._check_mutable()
        return self._add_relation(_canonical(_RELATION_KIND, kind, "relation"), source, target)

    def _add_relation(self, kind: RelationKind, source: str, target: str) -> str:
        """``add_relation`` on a model known to be mutable."""
        by_id = self._by_id
        try:
            source_kind = by_id[source][1]
            target_kind = by_id[target][1]
        except KeyError as err:
            raise ModelError("E003", f"unknown element id {err.args[0]!r}") from None
        if (
            kind is not RelationKind.ASSOCIATION
            and (source_kind, target_kind) not in PERMITTED_RELATIONS[kind]
        ):
            raise ModelError(
                "E004", f"{kind} from {source_kind} to {target_kind} is not permitted"
            )
        id = "r" + str(len(self._relations) + 1).zfill(3)  # as f"r{n:03d}", in half the time
        self._relations.append((id, kind, source, target))
        self._diagnostics = None
        return id

    def freeze(self) -> None:
        self._frozen = True

    def _check_mutable(self) -> None:
        if self._frozen:
            raise ModelError("E006", "model is frozen")

    # -- queries -------------------------------------------------------------

    @property
    def elements(self) -> list[Element]:
        """The elements in insertion order, as records made on each call."""
        return list(map(_element, self._by_id.values()))

    @property
    def relations(self) -> list[Relation]:
        """The relations in insertion order, as named tuples made on each call."""
        return list(map(Relation._make, self._relations))

    def __contains__(self, id: str) -> bool:
        return id in self._by_id

    def copy(self) -> AlignmentModel:
        """Unfrozen copy that shares the (immutable) element and relation rows."""
        dup = AlignmentModel(self.system_name)
        dup._by_id = dict(self._by_id)
        dup._relations = list(self._relations)
        return dup

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[Diagnostic]:
        """Run structural rules V1-V10 and return every finding.

        An empty list means the model is a well-formed pre-derivation model;
        error-level findings make it unsuitable for derivation and export.
        The rules run once per model state; every call returns a new list.
        """
        if self._diagnostics is None:
            self._diagnostics = self._rule_pass()
        found, unusual = self._diagnostics
        return found + unusual

    def _rule_pass(self, base: AlignmentModel | None = None) -> tuple[list, list]:
        """The findings in report order, as two lists: V9 and V10 on the system
        name and each element's findings, then V8's W105 per association.

        Given ``base``, a model this one copied and then only added records
        to, it extends ``base``'s lists with the findings of the added
        records.  That equals a full pass only if no added relation gives an
        element its V1-V6 link: each needs an end of a kind that no
        ``_LINKS`` row names, as the records ``attach`` adds have.
        """
        by_id = self._by_id
        slug = slugify(self._system_name)
        association = RelationKind.ASSOCIATION
        if base is None:
            found: list[Diagnostic] = []
            unusual: list[Diagnostic] = []
            _check_text(self._system_name, "the system name", None, found)
            if _is_relation_id(slug):
                name = self._system_name
                message = f"system name {name!r} gives id {slug!r}, which has the form "
                found.append(_error("E014", message + _OF_RELATION, None))
            rows, relations, links = by_id.values(), self._relations, _LINKS
        else:
            base.validate()  # sets ``base._diagnostics`` if nothing has validated it
            found, unusual = map(list, base._diagnostics)
            rows = islice(by_id.values(), len(base._by_id), None)
            relations = [r for r in self._relations[len(base._relations):] if r[1] is association]
            links = {}  # no added relation gives an element its link: only W105 can apply
        linked: set[str] = set()  # ids of elements that have their V1-V6 link
        for rid, kind, source, target in relations:
            skind = by_id[source][1]
            tkind = by_id[target][1]
            if (kind, tkind) in links.get(skind, ()):
                linked.add(source)
            if (kind, skind) in links.get(tkind, ()):
                linked.add(target)
            # ``add_relation`` refuses unpermitted directed relations (E004);
            # an association outside the core pairs only warns.
            if kind is association and frozenset({skind, tkind}) not in ASSOCIATION_CORE:
                message = f"unusual association between {skind} and {tkind}"
                unusual.append(Diagnostic("W105", Severity.WARNING, message, subject=rid))
        for row in rows:
            _check_element(row, row[0] in linked, slug, found)
        return found, unusual


def _check_element(row: tuple, linked: bool, slug: str, out: list[Diagnostic]) -> None:
    """One element row's findings: V10 on its id, V9 on its texts, its kind's V1-V6 rows, V7.

    ``linked`` says whether the element has the relation its kind's row needs;
    ``slug`` is the system name's, whose Open Exchange identifier no id may take.
    """
    id, kind, name, description, attrs = row
    if id == slug:
        message = f"{id!r}: element id repeats the Open Exchange identifier of the system name"
        out.append(_error("E014", message, id))
    elif _is_relation_id(id):
        out.append(_error("E014", f"{id!r}: element id has the form {_OF_RELATION}", id))
    _check_text(name, "its name", id, out)
    if description is not None:
        _check_text(description, "its description", id, out)
    for code, severity, message, keys, link in _ELEMENT_RULES.get(kind, ()):
        if not (linked if link else any(value for key, value in attrs if key in keys)):
            out.append(Diagnostic(code, severity, message.format(id), subject=id))
    if attrs:
        _check_attrs(id, kind, attrs, out)


def _check_attrs(id: str, kind: ElementKind, attrs: tuple, out: list[Diagnostic]) -> None:
    """V7: attr values well-formed (``add_element`` keeps keys on the allowlist)."""
    for key, value in attrs:
        if key == "category":
            _check_leaf(value, BRANCHES[kind][1], "category", id, out)
        elif key == "severity":
            if value not in SEVERITY_LEVELS:
                out.append(_error("E122", f"{id!r}: unknown severity level {value!r}", id))
        else:
            spec = STATEMENTS[kind].entries[key]
            if spec.form == "word":
                if value not in spec.leaves:
                    out.append(_error("E123", f"{id!r}: unknown runtime target {value!r}", id))
                continue
            hinders = spec.form == "hinders"
            for entry in _entries(value, 3 if hinders else 2, id, key, out):
                _check_leaf(entry[0], spec.leaves, key, id, out)
                if hinders and entry[1] not in SEVERITY_LEVELS:
                    out.append(_error("E122", f"{id!r}: unknown severity level {entry[1]!r}", id))


def _check_leaf(
    value: object, leaves: tuple[str, ...], what: str, subject: str, out: list[Diagnostic]
) -> None:
    """E120 for a value that is no taxonomy leaf, E125 for a leaf not in ``leaves``."""
    if not isinstance(value, str) or not is_leaf(value):
        message = f"{subject!r}: unknown taxonomy leaf {value!r} in {what}"
        out.append(_error("E120", message, subject))
    elif value not in leaves:
        message = f"{subject!r}: leaf {value!r} is from the wrong branch for {what}"
        out.append(_error("E125", message, subject))


# Relation ids are ``r`` and a number of three or more digits; the Open
# Exchange export gives relations and elements identifiers from one space.
_OF_RELATION = "of a relation id (r and three or more digits)"


def _is_relation_id(id: str) -> bool:
    return len(id) > 3 and id[0] == "r" and id[1:].isdigit()


def _error(code: str, message: str, subject: str | None) -> Diagnostic:
    return Diagnostic(code, Severity.ERROR, message, subject=subject)


def _entries(
    value: object, arity: int, subject: str, key: str, out: list[Diagnostic]
) -> list[tuple]:
    """Return the well-shaped entries of a list-valued attr.

    Reports E012 for a malformed entry (its last part is a description, so
    it must be a string) and E013 for a forbidden character in any string
    part of a well-shaped one.
    """
    if not isinstance(value, tuple):
        out.append(_error("E012", f"{subject!r}: attr {key!r} must be a list of entries", subject))
        return []
    good = []
    where = f"its {key!r} entry"
    for entry in value:
        shaped = isinstance(entry, tuple) and len(entry) == arity
        if not shaped or not isinstance(entry[-1], str):
            out.append(_error("E012", f"{subject!r}: malformed {key!r} entry {entry!r}", subject))
        else:
            good.append(entry)
            for part in entry:  # a part that is not a string is a leaf or level: E120, E122
                if isinstance(part, str):
                    _check_text(part, where, subject, out)
    return good


def _check_text(text: object, where: str, subject: str | None, out: list[Diagnostic]) -> None:
    """V9: report E015 if ``text`` is not a string, E013 if it holds a
    character XML 1.0 cannot carry.

    Every text that reaches an export is checked; the lexer's E108 already
    keeps these characters out of parsed models.
    """
    if not isinstance(text, str):
        message = f"{subject!r}: {where} must be a string, not {type(text).__name__}"
        out.append(_error("E015", message, subject))
        return
    if text.isprintable():  # no forbidden character is printable
        return
    # Compiled on first use and cached by ``re``: compiling costs about 1 ms,
    # which every CLI run would otherwise pay at import.
    m = re.search(f"[{XML_FORBIDDEN}]", text)
    if m:
        prefix = f"{subject!r}: " if subject else ""
        message = f"{prefix}character {m.group()!r} is not allowed in {where}"
        out.append(_error("E013", message, subject))


def _canonical(constants: dict[str, str], kind: str, what: str) -> str:
    """The constant equal to ``kind``; E008 for a kind outside the closed set."""
    try:
        return constants[kind]
    except KeyError:
        raise ModelError("E008", f"unknown {what} kind {kind!r}") from None


def slugify(name: str) -> str:
    """Derive a stable ``[a-z][a-z0-9_]*`` slug from a display name."""
    slug = re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")
    if not slug or not slug[0].isalpha():
        slug = "m_" + slug
    return slug
