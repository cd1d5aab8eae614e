"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import ast
import json
import random
import re
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from dsalign.derive import attach, derive_all, serialize_itemset
from dsalign.dsl import format_model, load_file, parse
from dsalign.export import to_dot, to_open_exchange
from dsalign.model import AlignmentModel, ElementKind, Severity
from dsalign.report import build_matrix

from conftest import FIXTURES, GOLDEN, FIXTURE_NAMES, REPO, run_cli

NS = {"oe": "http://www.opengroup.org/xsd/archimate/3.0/"}


def _passed(name: str) -> None:
    print(f"PASS {name}")


def _fixture_path(name: str) -> Path:
    return FIXTURES / f"{name}.dsa"


def test_acceptance_faq_golden_derivation(fixture_models):
    """derive on faq_chatbot.dsa emits exactly the golden itemset, < 1 s."""
    model = fixture_models["faq_chatbot"]
    start = time.perf_counter()
    itemset = derive_all(model)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"derivation took {elapsed:.3f}s"

    produced = serialize_itemset(itemset)
    golden = (GOLDEN / "faq_chatbot.items.json").read_text()
    assert produced == golden

    def keys(doc):
        return {
            (i["rule"], i["category"], i["description"], tuple(i["sources"]), i["severity"])
            for i in doc["items"]
        }

    assert keys(json.loads(produced)) == keys(json.loads(golden))

    # Every evaluation item called out in the case study must be present.
    items = itemset.items
    by_cat = {}
    for item in items:
        by_cat.setdefault(item.category, []).append(item)

    for comp in [e for e in model.elements if e.kind is ElementKind.SYSTEM_COMPONENT]:
        descs = [i.description for i in by_cat["human_resources"] if i.sources == (comp.id,)]
        assert f"develop and test {comp.name}" in descs
        assert f"operate and maintain {comp.name}" in descs
    info_sources = {i.sources[0] for i in by_cat["information_resources"]}
    assert info_sources == {"needs_faq_set", "needs_scenario"}
    assert [i.severity for i in by_cat["privacy"]] == ["medium"]
    assert [i.severity for i in by_cat["responsibility"]] == ["low"]
    assert len(by_cat["cost_reduction"]) == 1
    assert len(by_cat["new_revenue"]) == 1
    assert len(by_cat["functional"]) == 1
    assert len(by_cat["must_be"]) == 1
    assert len(items) == 15
    _passed("FAQ golden derivation")


def test_acceptance_corpus_health(fixture_models):
    """All fixtures parse, validate cleanly, derive; prose spot checks hold."""
    itemsets = {}
    for name in FIXTURE_NAMES:
        result = load_file(_fixture_path(name))
        assert result.model is not None, name
        assert result.model.validate() == [], name
        itemsets[name] = derive_all(result.model)

    m = build_matrix(list(itemsets.values()))
    assert "human_resources" in m.common_row_ids

    paths = [str(_fixture_path(n)) for n in sorted(FIXTURE_NAMES)]
    proc = run_cli("report", *paths, "--matrix")
    assert proc.returncode == 0, proc.stderr
    common_section = proc.stdout.split("## Items by category")[0]
    assert "- cost/human_resources" in common_section

    job = [i for i in itemsets["job_interview"].items if i.category == "non_maleficence"]
    assert len(job) == 1
    assert job[0].sources == ("llm_generation",)
    assert job[0].severity == "low"
    assert "pre-checked" in job[0].description

    status = [i for i in itemsets["status_interview"].items if i.category == "emotional"]
    assert len(status) == 1
    assert "enjoyable for the users" in status[0].description
    _passed("corpus health")


def test_acceptance_round_trip():
    """parse . format . parse is identity; fmt --check passes on fixtures."""
    for name in FIXTURE_NAMES:
        source = _fixture_path(name).read_text()
        first = parse(source, name)
        assert first.model is not None
        second = parse(format_model(first.model), name)
        assert second.model is not None

        def shape(m: AlignmentModel):
            return (
                [(e.id, e.kind, e.name, e.attrs) for e in m.elements],
                [(r.kind, r.source, r.target) for r in m.relations],
            )

        assert shape(second.model) == shape(first.model), name

    proc = run_cli("fmt", "--check", *[str(_fixture_path(n)) for n in FIXTURE_NAMES])
    assert proc.returncode == 0, proc.stderr
    _passed("round-trip property")


def test_acceptance_determinism(tmp_path):
    """Two consecutive full pipeline runs produce byte-identical outputs."""

    def run_pipeline(outdir: Path) -> dict[str, bytes]:
        outdir.mkdir()
        produced: dict[str, bytes] = {}
        for name in FIXTURE_NAMES:
            src = str(_fixture_path(name))
            items = outdir / f"{name}.items.json"
            xml = outdir / f"{name}.xml"
            dot = outdir / f"{name}.dot"
            for args in (
                ("derive", src, "--items", str(items)),
                ("export", src, "--format", "open_exchange", "--out", str(xml)),
                ("export", src, "--format", "dot", "--out", str(dot)),
            ):
                proc = run_cli(*args)
                assert proc.returncode == 0, proc.stderr
                produced[f"{args[0]}:{name}:stdout"] = proc.stdout.encode()
            for p in (items, xml, dot):
                produced[p.name] = p.read_bytes()
        matrix_out = outdir / "matrix.md"
        proc = run_cli(
            "report",
            *[str(_fixture_path(n)) for n in FIXTURE_NAMES],
            "--matrix",
            "--out",
            str(matrix_out),
        )
        assert proc.returncode == 0, proc.stderr
        produced["matrix.md"] = matrix_out.read_bytes()
        return produced

    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    assert first == second
    _passed("determinism")


INERT_KINDS = (
    ElementKind.DIALOGUE_SERVICE,
    ElementKind.DATA_MODEL,
    ElementKind.COMPONENT_FUNCTION,
)


def _reinsert(model: AlignmentModel, index: int, kind: ElementKind, ident: str) -> AlignmentModel:
    """Rebuild the model with one extra element spliced in at ``index``."""
    rebuilt = AlignmentModel(model.system_name)
    elements = model.elements
    for pos, e in enumerate(elements):
        if pos == index:
            rebuilt.add_element(kind, ident, f"Inert {ident}")
        rebuilt.add_element(e.kind, e.id, e.name, e.description, dict(e.attrs))
    if index >= len(elements):
        rebuilt.add_element(kind, ident, f"Inert {ident}")
    for rel in model.relations:
        rebuilt.add_relation(rel.kind, rel.source, rel.target)
    return rebuilt


def test_acceptance_monotonicity(fixture_models):
    """>= 200 random inert insertions never change the derived multiset."""

    def multiset(itemset):
        return sorted(
            (i.rule, i.category, i.description, tuple(i.sources), i.severity)
            for i in itemset.items
        )

    baselines = {name: multiset(derive_all(m)) for name, m in fixture_models.items()}
    rng = random.Random(1729)
    for case in range(200):
        name = rng.choice(FIXTURE_NAMES)
        model = fixture_models[name]
        kind = rng.choice(INERT_KINDS)
        index = rng.randrange(len(model.elements) + 1)
        mutated = _reinsert(model, index, kind, f"inert_{case}")
        errors = [d for d in mutated.validate() if d.severity is Severity.ERROR]
        assert errors == [], (name, kind, index)
        assert multiset(derive_all(mutated)) == baselines[name], (name, kind, index)
    _passed("monotonicity (200 randomized cases)")


# One mutation per validator rule: (rule tag, expected code, mutate function).
MUTATIONS = [
    (
        "V1",
        "E010",
        lambda s: s[: s.rfind("}")]
        + '\n  component orphan_comp "Orphan component" {\n    runs_on: server;\n  }\n'
        + s[s.rfind("}") :],
    ),
    (
        "V2",
        "E011",
        lambda s: s[: s.rfind("}")]
        + '\n  event floating_event "Floating event" {\n'
        + '    implies_cost: it "unanchored fees";\n  }\n'
        + s[s.rfind("}") :],
    ),
    (
        "V3",
        "W101",
        lambda s: s[: s.rfind("}")]
        + '\n  event idle_event "Idle event" {\n    about: faq_set;\n  }\n'
        + s[s.rfind("}") :],
    ),
    (
        "V4",
        "W102",
        lambda s: s[: s.rfind("}")]
        + '\n  operator_activity extra_op "Extra operator activity"\n'
        + s[s.rfind("}") :],
    ),
    (
        "V5",
        "W103",
        lambda s: s[: s.rfind("}")]
        + '\n  user_activity extra_ua "Extra user activity"\n'
        + s[s.rfind("}") :],
    ),
    (
        "V6",
        "W104",
        lambda s: s[: s.rfind("}")] + '\n  data unused_data "Unused data"\n' + s[s.rfind("}") :],
    ),
    (
        "V7",
        "E002",
        lambda s: s.replace(
            "    runs_on: server;", '    maintenance_window: "sundays";\n    runs_on: server;'
        ),
    ),
    (
        "V8",
        "E004",
        lambda s: s.replace(
            "serves: obtain_info, provide_info, obtain_requests;",
            "serves: obtain_info, provide_info, obtain_requests, faq_set;",
        ),
    ),
    (
        "E004-access",
        "E004",
        lambda s: s.replace("    uses: faq_set;", "    uses: faq_set, obtain_info;"),
    ),
    (
        "E120",
        "E120",
        lambda s: s.replace("yields_user_value: functional", "yields_user_value: funktional"),
    ),
]


def test_acceptance_validator_seeding(tmp_path):
    """10 mutated fixtures each produce exactly the expected code, exit 1."""
    source = _fixture_path("faq_chatbot").read_text()
    assert len(MUTATIONS) == 10
    for tag, expected, mutate in MUTATIONS:
        mutated = mutate(source)
        assert mutated != source, tag
        path = tmp_path / f"mutant_{tag.lower().replace('-', '_')}.dsa"
        path.write_text(mutated)
        proc = run_cli("check", "--strict", str(path))
        assert proc.returncode == 1, (tag, proc.returncode, proc.stderr)
        found = set(re.findall(r"\b([EW]\d{3})\b", proc.stderr))
        assert found == {expected}, (tag, found, proc.stderr)
    _passed("validator seeding (10 mutants)")


def test_acceptance_export_closure(fixture_models):
    """Attached exports are well-formed, conserving, and reference-closed."""
    for name in FIXTURE_NAMES:
        model = fixture_models[name]
        attached = attach(model, derive_all(model))
        text = to_open_exchange(attached)
        root = ET.fromstring(text)  # raises on malformed XML
        elements = root.findall("oe:elements/oe:element", NS)
        relationships = root.findall("oe:relationships/oe:relationship", NS)
        assert len(elements) == len(attached.elements), name
        assert len(relationships) == len(attached.relations), name
        ids = {e.get("identifier") for e in elements}
        assert len(ids) == len(elements), name
        for rel in relationships:
            assert rel.get("source") in ids, name
            assert rel.get("target") in ids, name
        assert text == (GOLDEN / f"{name}.open_exchange.xml").read_text(), name
        assert to_dot(attached) == (GOLDEN / f"{name}.dot").read_text(), name
    _passed("export closure")


def test_acceptance_attach_soundness(fixture_models):
    """attach(model, derive_all(model)) validates with zero errors."""
    for name in FIXTURE_NAMES:
        model = fixture_models[name]
        attached = attach(model, derive_all(model))
        errors = [d for d in attached.validate() if d.severity is Severity.ERROR]
        assert errors == [], (name, [d.render() for d in errors])
    _passed("attach soundness")


def test_acceptance_syntax_floor():
    """Every src and tests file parses as the oldest Python pyproject.toml admits."""
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (REPO / "pyproject.toml").read_text())
    version = (3, int(floor[1]))
    paths = [*(REPO / "src" / "dsalign").glob("*.py"), *(REPO / "tests").glob("*.py")]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
    _passed(f"syntax floor {version}")
