"""Seeded synthetic ``.dsa`` model generator (standard library only).

A model is two actors followed by N copies of one six-statement block:

* a user activity with ``yields_user_value`` and ``influences`` on the
  block's operator activity,
* an operator activity with ``yields_business_value``,
* a service serving both activities and realized by the block's function,
* a component declaring that function, using the block's data, on
  ``runs_on: server``,
* a data model,
* an event about the data with ``implies_cost`` and ``hinders``.

The expected sizes come from this block arithmetic alone, never from
dsalign, so the benchmark can check dsalign's outputs against them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Taxonomy words the generator draws from.  They mirror the documented
# ``.dsa`` surface; a leaf dsalign did not accept would show as a parse error.
USER_VALUE_LEAVES = ("functional", "emotional", "self_expressive", "social")
BUSINESS_VALUE_LEAVES = ("revenue_increase", "cost_reduction", "new_revenue")
COST_WORDS = ("human", "information", "it")
RISK_LEAVES = ("privacy", "responsibility", "justice_fairness", "non_maleficence", "transparency")
SEVERITIES = ("low", "medium", "high")

_WORDS = (
    "answer", "booking", "catalog", "context", "dialogue", "feedback", "intent",
    "ledger", "memo", "order", "profile", "query", "record", "schedule",
    "session", "ticket", "utterance", "voice",
)

# Per block: elements declared, relations declared, items per rule.
ELEMENTS_PER_BLOCK = 7  # ua, oa, service, component, function, data, event
ACTORS = 2
RELATIONS_PER_BLOCK = 9  # by x2, influences, serves x2, realized_by, function, uses, about
ITEMS_PER_BLOCK = {
    "R1_cost": 4,  # develop+test, operate+maintain, server fee, implies_cost
    "R2_risk": 1,  # hinders
    "R3_business": 1,  # yields_business_value
    "R4_user": 1,  # yields_user_value
    "R5_quality": 0,
}
# attach: one provenance edge per item, event -> principle, risk item ->
# principle, and the user-value -> business-value influence.
ATTACHED_RELATIONS_PER_BLOCK = sum(ITEMS_PER_BLOCK.values()) + 3


@dataclass(frozen=True)
class Expected:
    """Sizes the generated model must produce, from block arithmetic."""

    blocks: int
    elements: int
    relations: int
    items_by_rule: dict
    attached_elements: int
    attached_relations: int

    @property
    def items(self) -> int:
        return sum(self.items_by_rule.values())


def _phrase(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def _block(rng: random.Random, i: int) -> tuple[str, str]:
    """One block's text and the risk leaf it hinders."""
    risk = rng.choice(RISK_LEAVES)
    text = f"""
  user_activity ua_{i} "Use {_phrase(rng, 2)} {i}" {{
    by: end_user;
    yields_user_value: {rng.choice(USER_VALUE_LEAVES)} "Users get {_phrase(rng, 3)}";
    influences: oa_{i};
  }}

  operator_activity oa_{i} "Provide {_phrase(rng, 2)} {i}" {{
    by: provider;
    yields_business_value: {rng.choice(BUSINESS_VALUE_LEAVES)} "Operator gains {_phrase(rng, 3)}";
  }}

  service svc_{i} "Serve {_phrase(rng, 2)} {i}" {{
    serves: ua_{i}, oa_{i};
    realized_by: fn_{i};
  }}

  component comp_{i} "Component {_phrase(rng, 1)} {i}" {{
    function fn_{i} "Handle {_phrase(rng, 2)} {i}";
    uses: data_{i};
    runs_on: server;
  }}

  data data_{i} "Data {_phrase(rng, 2)} {i}"

  event ev_{i} "Need for {_phrase(rng, 2)} {i}" {{
    about: data_{i};
    implies_cost: {rng.choice(COST_WORDS)} "Maintain {_phrase(rng, 3)}";
    hinders: {risk} severity: {rng.choice(SEVERITIES)} "Exposure of {_phrase(rng, 3)}";
  }}
"""
    return text, risk


def generate(blocks: int, seed: int) -> tuple[str, Expected]:
    """Return the text of an N-block model and the sizes it must produce."""
    if blocks < 1:
        raise ValueError("a synthetic model needs at least one block")
    rng = random.Random(seed)
    parts = [
        f'system "Synthetic {seed} x{blocks}" {{\n',
        '  actor user end_user "End user"\n',
        '  actor operator provider "Service provider"\n',
    ]
    risks = set()
    for i in range(1, blocks + 1):
        text, risk = _block(rng, i)
        parts.append(text)
        risks.add(risk)
    parts.append("}\n")
    items_by_rule = {rule: n * blocks for rule, n in ITEMS_PER_BLOCK.items()}
    elements = ACTORS + ELEMENTS_PER_BLOCK * blocks
    expected = Expected(
        blocks=blocks,
        elements=elements,
        relations=RELATIONS_PER_BLOCK * blocks,
        items_by_rule=items_by_rule,
        # one element per item plus one principle per distinct risk leaf
        attached_elements=elements + sum(items_by_rule.values()) + len(risks),
        attached_relations=(RELATIONS_PER_BLOCK + ATTACHED_RELATIONS_PER_BLOCK) * blocks,
    )
    return "".join(parts), expected
