"""The in-process dsalign pipeline and the checks on what it produces.

One pass over one ``.dsa`` text runs what the CLI runs: parse, validate,
derive_all, serialize_itemset, attach, Open Exchange and DOT export, and
format_model.  Stages after validation run only for models without
validation errors, as in the CLI.
"""

from __future__ import annotations

import hashlib
import traceback
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from tracing import no_span

OE_NS = "{http://www.opengroup.org/xsd/archimate/3.0/}"
PROPERTY_CHECKS = (
    "no_exception",
    "diagnostic_one_line",
    "xml_well_formed",
    "dot_balanced",
    "fmt_round_trip",
)


@dataclass
class Outputs:
    diagnostics: list = field(default_factory=list)
    valid: bool = False  # parsed and validated without errors
    itemset: object = None
    items_json: str | None = None
    xml: str | None = None
    dot: str | None = None
    fmt: str | None = None
    attached: object = None
    stage: str = ""
    error: str | None = None  # traceback of an exception raised by a stage

    def digest(self, file: str) -> str:
        h = hashlib.sha256()
        for d in self.diagnostics:
            h.update(d.render(file).encode("utf-8", "surrogatepass") + b"\0")
        for text in (self.items_json, self.xml, self.dot, self.fmt, self.error):
            h.update(b"\1" if text is None else text.encode("utf-8", "surrogatepass") + b"\0")
        return h.hexdigest()


def run_pipeline(dsa, text: str, file: str, span=no_span) -> Outputs:
    """Run every stage on ``text``; an exception is recorded, not raised."""
    out = Outputs()

    def step(name, fn, *args):
        out.stage = name
        with span(name):
            return fn(*args)

    try:
        result = step("dsl.parse", dsa.parse, text, file)
        out.diagnostics.extend(result.diagnostics)
        if result.model is None:
            return out
        model = result.model
        out.stage = "model.validate"  # traced runs wrap validate itself
        found = model.validate()
        out.diagnostics.extend(found)
        if any(d.severity is dsa.Severity.ERROR for d in found):
            return out
        out.valid = True
        out.itemset = step("derive.derive_all", dsa.derive_all, model)
        out.items_json = step("derive.serialize", dsa.serialize_itemset, out.itemset)
        out.attached = step("derive.attach", dsa.attach, model, out.itemset)
        out.xml = step("export.open_exchange", dsa.to_open_exchange, out.attached)
        out.dot = step("export.dot", dsa.to_dot, out.attached)
        out.fmt = step("dsl.format", dsa.format_model, model)
    except Exception:  # the benchmark records the failure and keeps going
        out.error = f"{out.stage}: {traceback.format_exc()}"
    return out


def xml_counts(xml: str) -> tuple[int, int] | None:
    """(elements, relationships) in an Open Exchange document, None if ill-formed."""
    try:
        root = ET.fromstring(xml.encode("utf-8", "surrogatepass"))
    except ET.ParseError:
        return None
    return (
        len(root.findall(f"{OE_NS}elements/{OE_NS}element")),
        len(root.findall(f"{OE_NS}relationships/{OE_NS}relationship")),
    )


def dot_balanced(dot: str) -> bool:
    """Braces balance outside quoted strings and every string is closed."""
    depth = 0
    in_string = escaped = False
    for ch in dot:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0 and not in_string


def fmt_round_trips(dsa, fmt: str) -> bool:
    """format_model -> parse -> format_model gives the same text."""
    again = dsa.parse(fmt, "<fmt>")
    return again.model is not None and dsa.format_model(again.model) == fmt


def failed_checks(dsa, out: Outputs, file: str) -> list[str]:
    """Names of the property checks this pass's outputs fail."""
    failed = []
    if out.error is not None:
        failed.append("no_exception")
    if any(
        "\n" in line or "\r" in line for line in (d.render(file) for d in out.diagnostics)
    ):
        failed.append("diagnostic_one_line")
    if out.valid and out.error is None:
        if xml_counts(out.xml) is None:
            failed.append("xml_well_formed")
        if not dot_balanced(out.dot):
            failed.append("dot_balanced")
        try:
            round_trips = fmt_round_trips(dsa, out.fmt)
        except Exception:  # a raising re-parse or re-format fails the check
            round_trips = False
        if not round_trips:
            failed.append("fmt_round_trip")
    return failed
