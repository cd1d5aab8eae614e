from __future__ import annotations

import csv
import io

import pytest

from dsalign.derive import EvaluationItem, EvaluationItemSet, Rule, derive_all
from dsalign.model import ALL_LEAVES, ModelError
from dsalign.report import build_matrix, item_table, matrix

from conftest import FIXTURE_NAMES


@pytest.fixture
def corpus_itemsets(fixture_models):
    return [derive_all(fixture_models[name]) for name in FIXTURE_NAMES]


def md_data_rows(text):
    lines = [l for l in text.splitlines() if l.startswith("|")]
    return lines[2:]  # header + separator


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# item tables


def test_faq_item_table_markdown(corpus_itemsets):
    faq = corpus_itemsets[0]
    text = item_table(faq, "markdown")
    rows = md_data_rows(text)
    assert len(rows) == 15
    assert rows[0].split("|")[1].strip() == "item_r1_cost_1"


def test_empty_itemset_header_only():
    empty = EvaluationItemSet(system_name="X", items=[])
    md = item_table(empty, "markdown")
    assert md_data_rows(md) == []
    rows = csv_rows(item_table(empty, "csv"))
    assert rows == [["id", "category", "description", "sources", "severity", "rule"]]


def test_csv_and_markdown_row_counts_agree(corpus_itemsets):
    for itemset in corpus_itemsets:
        md = item_table(itemset, "markdown")
        as_csv = item_table(itemset, "csv")
        assert len(md_data_rows(md)) == len(csv_rows(as_csv)) - 1


def test_csv_quoting_round_trips():
    tricky = EvaluationItemSet(
        system_name="X",
        items=[
            EvaluationItem(
                id="item_r1_cost_1",
                category="it_resources",
                description='fees, "premium" tier',
                sources=["a", "b"],
                rule=Rule.R1_COST,
            )
        ],
    )
    rows = csv_rows(item_table(tricky, "csv"))
    assert rows[1][2] == 'fees, "premium" tier'
    assert rows[1][3] == "a, b"


def test_item_table_rejects_unknown_format(corpus_itemsets):
    with pytest.raises(ValueError):
        item_table(corpus_itemsets[0], "html")


# ---------------------------------------------------------------------------
# matrix


def test_matrix_five_columns(corpus_itemsets):
    m = build_matrix(corpus_itemsets)
    assert len(m.columns) == 5
    assert len(m.rows) == 19
    assert m.rows == list(ALL_LEAVES)


def test_human_resources_is_common(corpus_itemsets):
    m = build_matrix(corpus_itemsets)
    assert "human_resources" in m.common_row_ids
    text = matrix(corpus_itemsets, "markdown")
    common_section = text.split("## Items by category")[0]
    assert "- cost/human_resources" in common_section


def test_single_system_common_equals_populated(corpus_itemsets):
    faq = corpus_itemsets[0]
    m = build_matrix([faq])
    populated = {item.category for item in faq.items}
    assert set(m.common_row_ids) == populated
    empty = matrix([EvaluationItemSet("Empty", [])], "markdown")
    assert "## Common to all systems\n\n(none)\n\n## Items by category" in empty


def test_duplicate_system_names_rejected(corpus_itemsets):
    with pytest.raises(ModelError) as err:
        build_matrix([corpus_itemsets[0], corpus_itemsets[0]])
    assert err.value.code == "E400"


def test_common_row_soundness(corpus_itemsets):
    m = build_matrix(corpus_itemsets)
    for leaf, row in zip(m.rows, m.cells):
        expected = all(cell for cell in row)
        assert (leaf in m.common_row_ids) == expected


def test_cell_conservation(corpus_itemsets):
    m = build_matrix(corpus_itemsets)
    total_cells = sum(len(cell) for row in m.cells for cell in row)
    total_items = sum(len(s.items) for s in corpus_itemsets)
    assert total_cells == total_items


def test_matrix_csv_shape(corpus_itemsets):
    rows = csv_rows(matrix(corpus_itemsets, "csv"))
    assert rows[0] == ["category", "common"] + [s.system_name for s in corpus_itemsets]
    assert len(rows) == 20  # header + 19 leaves
    common_flags = {row[0]: row[1] for row in rows[1:]}
    assert common_flags["cost/human_resources"] == "yes"
    assert common_flags["value/user/social"] == ""


def test_matrix_markdown_has_all_leaf_rows(corpus_itemsets):
    text = matrix(corpus_itemsets, "markdown")
    rows = md_data_rows(text.split("## Items by category")[1])
    assert len(rows) == 19


def test_matrix_requires_itemsets():
    with pytest.raises(ValueError):
        build_matrix([])
