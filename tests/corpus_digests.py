"""The committed equivalence corpus: one output digest per input.

Each input runs through the whole in-process pipeline (parse, validate,
derive, itemset JSON, attach, Open Exchange, DOT, fmt), and its line in
``fixtures/golden/corpus.sha256`` holds a prefix of the pass's
``Outputs.digest`` (the diagnostics rendered at their spans and every
artifact) hashed together with the parse's ``ParseResult.spans``.  The
inputs are the five fixtures, the benchmark's seed-1 mutant pool and three
synthetic models; one more line pins a digest of the input texts
themselves, so that a changed generator reads as a changed corpus and not
as changed output.

A change that alters an output on purpose regenerates the file:

    PYTHONPATH=src python tests/corpus_digests.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
DIGESTS = FIXTURES / "golden" / "corpus.sha256"
FIXTURE_NAMES = ["conv_recommender", "faq_chatbot", "job_interview", "speech_assistant", "status_interview"]
MUTANTS, MUTANT_SEED = 4000, 1
SYNTH_BLOCKS, SYNTH_SEED = (1, 20, 100), 1
PREFIX = 16  # hex digits kept of each output digest

sys.path.insert(0, str(REPO / "perfbench"))
import mutants  # noqa: E402
import pipeline  # noqa: E402
import synth  # noqa: E402

HEADER = (
    "# dsalign output digests: <sha256 prefix> <input>; the inputs line hashes the inputs.\n"
    "# Regenerate with: PYTHONPATH=src python tests/corpus_digests.py\n"
)


def inputs() -> list[tuple[str, str]]:
    """(file name, text) of every corpus input, in a fixed order."""
    bases = {n: (FIXTURES / f"{n}.dsa").read_text(encoding="utf-8") for n in FIXTURE_NAMES}
    out = [(f"fixtures/{n}.dsa", text) for n, text in bases.items()]
    out += mutants.generate(bases, MUTANTS, MUTANT_SEED)
    out += [(f"synth/{n}.dsa", synth.generate(n, SYNTH_SEED)[0]) for n in SYNTH_BLOCKS]
    return out


def inputs_digest(corpus: list[tuple[str, str]]) -> str:
    h = hashlib.sha256()
    for name, text in corpus:
        h.update(f"{name}\0{text}\0".encode("utf-8", "surrogatepass"))
    return h.hexdigest()


class _KeepSpans:
    """``dsalign`` as ``run_pipeline`` calls it, keeping the spans of its last parse."""

    def __init__(self, dsa) -> None:
        self._dsa = dsa
        self.spans: dict = {}

    def __getattr__(self, name: str):
        return getattr(self._dsa, name)

    def parse(self, text: str, file: str):
        result = self._dsa.parse(text, file)
        self.spans = result.spans
        return result


def digests(corpus: list[tuple[str, str]]) -> dict[str, str]:
    """Input name -> prefix of the digest of everything its pipeline pass produced."""
    import dsalign

    dsa = _KeepSpans(dsalign)
    out = {}
    for name, text in corpus:
        dsa.spans = {}
        h = hashlib.sha256(pipeline.run_pipeline(dsa, text, name).digest(name).encode())
        for id, s in dsa.spans.items():
            span = f"{id} {s.file}:{s.line}:{s.column}:{s.length}\0"
            h.update(span.encode("utf-8", "surrogatepass"))
        out[name] = h.hexdigest()[:PREFIX]
    return out


def render(corpus: list[tuple[str, str]]) -> str:
    lines = [f"inputs {inputs_digest(corpus)}\n"]
    lines += [f"{digest} {name}\n" for name, digest in digests(corpus).items()]
    return HEADER + "".join(lines)


def read(path: Path = DIGESTS) -> tuple[str, dict[str, str]]:
    """The pinned inputs digest and the pinned digest of each input."""
    pinned: dict[str, str] = {}
    inputs_line = ""
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        digest, name = line.split(" ", 1)
        if digest == "inputs":
            inputs_line = name
        else:
            pinned[name] = digest
    return inputs_line, pinned


if __name__ == "__main__":
    DIGESTS.write_text(render(inputs()), encoding="utf-8", newline="\n")
    print(f"wrote {DIGESTS.relative_to(REPO)}")
