"""Seeded mutations of ``.dsa`` texts (standard library only).

Each mutant applies one to three random edits to one base text: a deletion,
a duplication, a swap of two lines, or an insertion.  Insertions draw from
all of U+0000-U+007F, with extra weight on the backslash and the double
quote, plus a few non-ASCII characters, so mutants reach the lexer's string
and escape handling as well as the parser's error recovery.

No mutant is filtered out: whatever dsalign does with it is what the
benchmark measures and checks.
"""

from __future__ import annotations

import random
import re

INSERT_ALPHABET = (
    [chr(c) for c in range(0x80)]
    + ["\\", '"'] * 8
    + ["\u00e9", "\u2014", "\u3042", "\u00a0", "\ufeff", "\U0001f600"]
)
EDITS = ("delete", "duplicate", "swap", "insert")

# Characters XML 1.0 section 2.2 does not allow anywhere in a document.
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")
_ESCAPED_NEWLINE = re.compile(r"\\[\r\n]")


def mutate(text: str, rng: random.Random) -> str:
    """Apply one to three random edits to ``text``."""
    for _ in range(rng.randint(1, 3)):
        edit = rng.choice(EDITS)
        if edit == "swap":
            lines = text.split("\n")
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
            continue
        at = rng.randrange(len(text) + 1)
        if edit == "delete":
            text = text[:at] + text[at + rng.randint(1, 20):]
        elif edit == "duplicate":
            piece = text[at:at + rng.randint(1, 40)]
            text = text[:at] + piece + text[at:]
        else:
            chars = "".join(rng.choice(INSERT_ALPHABET) for _ in range(rng.randint(1, 3)))
            text = text[:at] + chars + text[at:]
    return text


def generate(bases: dict[str, str], count: int, seed: int) -> list[tuple[str, str]]:
    """Return ``count`` (name, text) mutants of the base texts."""
    rng = random.Random(seed)
    names = sorted(bases)
    out = []
    for i in range(count):
        base = rng.choice(names)
        out.append((f"{base}~{i}.dsa", mutate(bases[base], rng)))
    return out


def known_defect(check: str, text: str) -> str | None:
    """Name the documented dsalign defect that explains a failed check.

    Two input-to-artifact holes are known: control characters inside
    strings reach the XML output unescaped, and a backslash before a line
    break inside a string makes E107 render across two lines.  A failure
    these do not explain returns None and makes the run incorrect.
    """
    if check == "xml_well_formed" and _XML_FORBIDDEN.search(text):
        return "control_char_in_xml"
    if check == "diagnostic_one_line" and _ESCAPED_NEWLINE.search(text):
        return "escaped_newline_in_diagnostic"
    return None
