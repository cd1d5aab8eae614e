"""Business-dialogue-system alignment models.

Parse ``.dsa`` descriptions of practical dialogue systems, validate the
resulting typed graph, derive their evaluation items (values, risks, costs),
and export the attached model as ArchiMate Open Exchange XML or DOT.
"""

from .model import (
    AlignmentModel,
    Diagnostic,
    ELEMENT_KINDS,
    Element,
    ElementKind,
    ModelError,
    RELATION_KINDS,
    Relation,
    RelationKind,
    Severity,
    SourceSpan,
)
from .dsl import ParseResult, format_model, load_file, parse

# The names of ``derive``, ``export`` and ``report`` load their module on
# first use (PEP 562), so a CLI command imports only the modules it runs.
_LAZY = {
    name: module
    for module, names in (
        ("derive", "EvaluationItem EvaluationItemSet RULES Rule attach derive_all serialize_itemset"),
        ("export", "to_dot to_open_exchange"),
        ("report", "Matrix build_matrix item_table matrix"),
    )
    for name in names.split()
}

__version__ = "0.1.0"

__all__ = [
    "AlignmentModel",
    "Diagnostic",
    "ELEMENT_KINDS",
    "Element",
    "ElementKind",
    "EvaluationItem",
    "EvaluationItemSet",
    "Matrix",
    "ModelError",
    "ParseResult",
    "RELATION_KINDS",
    "RULES",
    "Relation",
    "RelationKind",
    "Rule",
    "Severity",
    "SourceSpan",
    "attach",
    "build_matrix",
    "derive_all",
    "format_model",
    "item_table",
    "load_file",
    "matrix",
    "parse",
    "serialize_itemset",
    "to_dot",
    "to_open_exchange",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
