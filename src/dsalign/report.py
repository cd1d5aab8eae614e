"""Evaluation-item tables and cross-system comparison matrices.

``item_table`` lists one system's items; ``matrix`` lines systems up against
the 19 taxonomy leaves and reports which leaves are populated for every
system ("common to all systems").  Both render to GitHub-style markdown or
RFC-4180-style CSV.
"""

from __future__ import annotations

from .model import ALL_LEAVES, REPORT_FORMATS as FORMATS, ModelError, _Record, leaf_path
from .derive import EvaluationItemSet


class Matrix(_Record):
    """Taxonomy leaves (``rows``, fixed order) against system names
    (``columns``, input order).  ``cells[row][column]`` lists item
    descriptions; ``common_row_ids`` are the leaves populated in every column.
    """

    __slots__ = ("rows", "columns", "cells", "common_row_ids")

    def __init__(
        self, rows: list[str], columns: list[str], cells: list[list[list[str]]],
        common_row_ids: list[str],
    ) -> None:
        self.rows = rows
        self.columns = columns
        self.cells = cells
        self.common_row_ids = common_row_ids


def build_matrix(itemsets: list[EvaluationItemSet]) -> Matrix:
    if not itemsets:
        raise ValueError("at least one itemset is required")
    names = [s.system_name for s in itemsets]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ModelError("E400", f"duplicate system names: {', '.join(dupes)}")
    rows = list(ALL_LEAVES)
    cells = [
        [[i.description for i in s.items if i.category == leaf] for s in itemsets]
        for leaf in rows
    ]
    common = [leaf for leaf, row in zip(rows, cells) if all(row)]
    return Matrix(rows=rows, columns=names, cells=cells, common_row_ids=common)


def _md_cell(text: str) -> str:
    return text.replace("|", "\\|").replace("\n", " ")


def _md_table(header: list[str], rows: list[list[str]]) -> list[str]:
    out = ["| " + " | ".join(_md_cell(h) for h in header) + " |"]
    out.append("|" + " --- |" * len(header))
    for row in rows:
        out.append("| " + " | ".join(_md_cell(c) for c in row) + " |")
    return out


def _csv_table(header: list[str], rows: list[list[str]]) -> str:
    import csv  # imported here: only the CSV reports need csv and io
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


_ITEM_HEADER = ["id", "category", "description", "sources", "severity", "rule"]


def item_table(itemset: EvaluationItemSet, format: str = "markdown") -> str:
    """One row per evaluation item, in itemset order."""
    _check_format(format)
    rows = [
        [
            item.id,
            item.category_path,
            item.description,
            ", ".join(item.sources),
            item.severity or "",
            item.rule,
        ]
        for item in itemset.items
    ]
    if format == "csv":
        return _csv_table(_ITEM_HEADER, rows)
    return "\n".join((*_md_table(_ITEM_HEADER, rows), ""))


def matrix(itemsets: list[EvaluationItemSet], format: str = "markdown") -> str:
    """Cross-system matrix with a leading common-to-all-systems section."""
    _check_format(format)
    m = build_matrix(itemsets)
    if format == "csv":
        header = ["category", "common"] + m.columns
        rows = []
        for leaf, row in zip(m.rows, m.cells):
            common = "yes" if leaf in m.common_row_ids else ""
            rows.append([leaf_path(leaf), common] + ["; ".join(c) for c in row])
        return _csv_table(header, rows)

    out = ["# Evaluation item matrix", ""]
    out.append("## Common to all systems")
    out.append("")
    if m.common_row_ids:
        out.extend(f"- {leaf_path(leaf)}" for leaf in m.common_row_ids)
    else:
        out.append("(none)")
    out.append("")
    out.append("## Items by category")
    out.append("")
    rows = [
        [leaf_path(leaf)] + ["; ".join(c) for c in row]
        for leaf, row in zip(m.rows, m.cells)
    ]
    out += (*_md_table(["category"] + m.columns, rows), "")
    return "\n".join(out)


def _check_format(format: str) -> None:
    if format not in FORMATS:
        raise ValueError(f"unknown report format {format!r}")
