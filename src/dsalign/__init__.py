"""Business-dialogue-system alignment models.

Parse ``.dsa`` descriptions of practical dialogue systems, validate the
resulting typed graph, derive their evaluation items (values, risks, costs),
and export the attached model as ArchiMate Open Exchange XML or DOT.
"""

from .model import (
    AlignmentModel,
    Diagnostic,
    Element,
    ElementKind,
    ModelError,
    Relation,
    RelationKind,
    Severity,
    SourceSpan,
    new_model,
)
from .dsl import ParseResult, format_model, load_file, parse
from .derive import (
    EvaluationItem,
    EvaluationItemSet,
    Rule,
    attach,
    derive_all,
    serialize_itemset,
)
from .export import to_dot, to_open_exchange
from .report import Matrix, build_matrix, item_table, matrix

__version__ = "0.1.0"

__all__ = [
    "AlignmentModel",
    "Diagnostic",
    "Element",
    "ElementKind",
    "EvaluationItem",
    "EvaluationItemSet",
    "Matrix",
    "ModelError",
    "ParseResult",
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
    "new_model",
    "parse",
    "serialize_itemset",
    "to_dot",
    "to_open_exchange",
]
