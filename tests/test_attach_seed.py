"""``attach`` extends its input model's rule pass instead of running a new one.

The extended pass checks only the records ``attach`` adds, and must equal a
full rule pass over the attached model, which these tests force by clearing
the memo and validating again.  Deterministic inputs carry the check: the
fixtures (validated, and freshly parsed so that ``attach`` runs the input's
pass itself), an invalid model that nothing validates before ``attach``,
synthetic models, the benchmark's mutant pool and hand-built itemsets whose
new records draw findings.  A hypothesis test adds random
models, but its draws change with any edit to the package's source, so it
is not the only witness.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, seed, settings

from dsalign import attach, derive_all, parse
from dsalign.derive import RULE_TABLE, RULES, EvaluationItem, EvaluationItemSet, Rule, derive_rule
from dsalign.model import _LINKS, AlignmentModel, ElementKind, ModelError, RelationKind, Severity

from conftest import FIXTURE_NAMES, FIXTURES, REPO
from test_properties import models

sys.path.insert(0, str(REPO / "perfbench"))
import mutants  # noqa: E402
import synth  # noqa: E402

K = ElementKind


def assert_seeded(model, itemset) -> list:
    """Attach, and check the seeded findings against a full rule pass."""
    attached = attach(model, itemset)
    seeded = attached.validate()
    attached._diagnostics = None
    assert attached.validate() == seeded
    return seeded


def all_items(model) -> EvaluationItemSet:
    """R1-R5's items whether or not the model validates, for ``attach``."""
    items = [item for rule in RULES for item in derive_rule(model, rule)]
    return EvaluationItemSet(model.system_name, items)


def test_no_structural_link_involves_a_kind_attach_creates():
    # The seed keeps every old element's findings, which holds only while no
    # V1-V6 row links a kind that ``attach`` creates.
    created = {row[0] for row in RULE_TABLE.values()} | {K.PRINCIPLE}
    for kind, links in _LINKS.items():
        assert kind not in created
        assert not {other for _, other in links} & created


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_seed_equals_a_full_pass_on_the_fixtures(name, fixture_models):
    model = fixture_models[name]
    assert_seeded(model, derive_all(model))
    # A model nobody validated, with items from ``derive_rule``, which does not
    # validate: ``attach`` runs the input's pass before it extends that pass.
    fresh = parse((FIXTURES / f"{name}.dsa").read_text(encoding="utf-8"), f"{name}.dsa").model
    items = all_items(fresh)
    assert fresh._diagnostics is None
    assert_seeded(fresh, items)
    assert fresh._diagnostics is not None


@pytest.mark.parametrize("blocks", [1, 3, 20, 100])
def test_seed_equals_a_full_pass_on_synthetic_models(blocks):
    text, _ = synth.generate(blocks, blocks)
    model = parse(text, "synthetic.dsa").model
    seeded = assert_seeded(model, derive_all(model))
    assert [d.code for d in seeded] == [d.code for d in model.validate()]


def test_seed_equals_a_full_pass_on_the_mutant_pool():
    bases = {n: (FIXTURES / f"{n}.dsa").read_text(encoding="utf-8") for n in FIXTURE_NAMES}
    valid = 0
    for name, text in mutants.generate(bases, 4000, 1):
        model = parse(text, name).model
        if model is None:
            continue
        if any(d.severity is Severity.ERROR for d in model.validate()):
            # ``attach`` does not require a valid model: the old findings,
            # errors included, must come through the seed unchanged.
            try:
                assert_seeded(model, all_items(model))
            except ModelError:
                pass
        else:
            assert_seeded(model, derive_all(model))
            valid += 1
    assert valid > 300


@settings(max_examples=50, deadline=None, database=None)
@seed(20261019)
@given(models())
def test_seed_equals_a_full_pass_on_random_models(m):
    try:
        assert_seeded(m, all_items(m))
    except ModelError as err:
        assert err.code in ("E004", "E201")


def _item(rule, n, category, sources, description="x", severity=None):
    id = f"item_{rule.lower()}_{n}"
    return EvaluationItem(id, category, description, sources, rule, severity)


def test_seed_reports_the_findings_of_added_records(fixture_models):
    model = fixture_models["faq_chatbot"]
    event = next(e.id for e in model.elements if e.kind is K.OBSERVED_EVENT)
    items = [
        # A user value sourced at a component, in the wrong branch.
        _item(Rule.R4_USER, 1, "revenue_increase", ["web_server"]),
        _item(Rule.R2_RISK, 1, "privacy", [event], severity="extreme"),
        _item(Rule.R1_COST, 1, "no_such_leaf", [event], description="bad\x00text"),
        _item(Rule.R3_BUSINESS, 1, "cost_reduction", ["web_server", event]),
    ]
    seeded = assert_seeded(model, EvaluationItemSet(model.system_name, items))
    assert model.validate() == []
    codes = ["E125", "E122", "E013", "E120", "W105", "W105", "W105"]
    assert [d.code for d in seeded] == codes


def test_seed_keeps_the_errors_of_an_invalid_model_and_a_declared_principle():
    model = AlignmentModel("Broken")
    model.add_element(K.SYSTEM_COMPONENT, "bare", "Bare component", attrs={"runs_on": "server"})
    model.add_element(
        K.OBSERVED_EVENT, "loose", "Loose\x01event", attrs={"hinders": [("privacy", "high", "leak")]}
    )
    model.add_element(K.PRINCIPLE, "principle_privacy", "Privacy")
    model.add_element(K.USER_ACTIVITY, "ask", "Ask")
    model.add_relation(RelationKind.ASSOCIATION, "ask", "bare")
    found = model.validate()
    assert {"E010", "E011", "E013", "W103", "W105"} <= {d.code for d in found}
    seeded = assert_seeded(model, all_items(model))
    assert seeded[: len(found) - 1] == found[:-1]  # the parent's W105 tail moves last


def test_seed_keeps_the_findings_of_an_invalid_model_nobody_validated():
    # ``attach`` must run the pass of an input that has findings but was never
    # validated, not take it as finding-free.
    text = (
        'system "Bad" {\n  component c "C" {\n    runs_on: server;\n  }\n  data d "D"\n'
        '  user_activity a "A" {\n    yields_user_value: functional "Quick answers";\n  }\n}\n'
    )
    model = parse(text, "bad.dsa").model
    items = all_items(model)
    assert items.items and model._diagnostics is None
    seeded = assert_seeded(model, items)
    assert [d.code for d in model.validate()] == ["E010", "W104", "W103"]
    assert {"E010", "W104", "W103"} <= {d.code for d in seeded}
