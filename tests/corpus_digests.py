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

``fixtures/golden/cli.sha256`` pins what the CLI itself prints: for each of
the five fixtures, the hand-written models in ``HAND_WRITTEN`` and the first
mutants of the same pool, a prefix of the digest of the exit code, stdout
and stderr of each run in ``CLI_FORMS``, made in-process through
``cli.main`` on the input written to a file.  It covers what the library
pass does not: the order of stderr lines, the warnings each command reports
and where ``--strict`` stops a command.

A change that alters an output on purpose regenerates both files, and the
script prints the inputs whose digest changed in each:

    PYTHONPATH=src python tests/corpus_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
DIGESTS = FIXTURES / "golden" / "corpus.sha256"
FIXTURE_NAMES = ["conv_recommender", "faq_chatbot", "job_interview", "speech_assistant", "status_interview"]
MUTANTS, MUTANT_SEED = 4000, 1
SYNTH_BLOCKS, SYNTH_SEED = (1, 20, 100), 1
PREFIX = 16  # hex digits kept of each output digest
CLI_DIGESTS = FIXTURES / "golden" / "cli.sha256"
CLI_MUTANTS = 600  # the first mutants of the seed-1 pool
CLI_FORMS = (  # each run is ``dsalign <command> <input> <options>``
    ("check", "--strict"),
    ("derive", "--items", "-"),
    ("export", "--format", "dot", "--strict"),
    ("export", "--format", "open_exchange", "--no-derived"),
    ("report",),
    ("fmt",),
)


def _collide(data_id: str, more: str = "") -> str:
    """A valid model whose data element takes an id that ``attach`` would create."""
    return (
        'system "Collide" {\n  component c "C" {\n    function f "F";\n'
        f'    uses: {data_id};\n  }}\n  data {data_id} "X"\n{more}}}\n'
    )


# Models the mutant pool never makes, which reach attach's E201 and E014,
# W110, a ``--strict`` stop before attach, E000, E125 and W105;
# ``test_cli.py`` checks what the CLI prints for the first five.
HAND_WRITTEN = {
    "collide_item_id.dsa": _collide("item_r1_cost_1"),
    "collide_principle_id.dsa": _collide(
        "principle_privacy",
        '  event e "E" {\n    about: principle_privacy;\n'
        '    hinders: privacy severity: low "leaks";\n  }\n',
    ),
    "collide_strict_warning_first.dsa": _collide("item_r1_cost_1", '  data unused "Unused"\n'),
    # The system name's slug is the id of the Principle that attach derives: E014.
    "principle_privacy.dsa": (
        'system "Principle Privacy" {\n  component c "C" {\n    function f "F";\n  }\n'
        '  event e "E" {\n    about: c;\n    hinders: privacy severity: low "leaks";\n  }\n}\n'
    ),
    # An influence whose target declares no business value: W102, W103 and W110.
    "unvalued_influence.dsa": (
        'system "W" {\n  user_activity a "A" {\n    influences: b;\n  }\n'
        '  operator_activity b "B"\n}\n'
    ),
    # Three codes no other pinned input reaches: E000, E125 and W105.
    "empty_system_name.dsa": 'system "" {}\n',
    "wrong_branch_leaf.dsa": (
        'system "Wrong Branch" {\n  user_activity a "A" {\n'
        '    yields_user_value: privacy "x";\n  }\n}\n'
    ),
    "event_about_activity.dsa": (
        'system "About" {\n  user_activity a "A"\n  data d "D"\n'
        '  event e "E" {\n    about: a, d;\n  }\n}\n'
    ),
}

sys.path.insert(0, str(REPO / "perfbench"))
import mutants  # noqa: E402
import pipeline  # noqa: E402
import synth  # noqa: E402

HEADER = (
    "# dsalign output digests: <sha256 prefix> <input>; the inputs line hashes the inputs.\n"
    "# Regenerate with: PYTHONPATH=src python tests/corpus_digests.py\n"
)
CLI_HEADER = (
    "# dsalign CLI run digests: <sha256 prefix> <input>; the inputs line hashes the inputs"
    " and the command forms.\n"
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


def cli_inputs() -> list[tuple[str, str]]:
    """(file name, text) of every CLI input: the fixtures, the hand-written
    models, then the first mutants."""
    bases = {n: (FIXTURES / f"{n}.dsa").read_text(encoding="utf-8") for n in FIXTURE_NAMES}
    out = [(f"{n}.dsa", text) for n, text in bases.items()] + list(HAND_WRITTEN.items())
    return out + mutants.generate(bases, CLI_MUTANTS, MUTANT_SEED)


def cli_forms_digest(corpus: list[tuple[str, str]]) -> str:
    """Digest of the CLI inputs and of the command forms run on each."""
    h = hashlib.sha256(inputs_digest(corpus).encode())
    h.update(repr(CLI_FORMS).encode())
    return h.hexdigest()


def cli_digests(corpus: list[tuple[str, str]]) -> dict[str, str]:
    """Input name -> prefix of the digest of every ``CLI_FORMS`` run on it.

    Each input is written to a file of its own name in a fresh directory,
    which is the working directory while the runs are made, so a diagnostic
    shows the name as the user gave it.
    """
    from dsalign import cli

    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in corpus:
                Path(name).write_bytes(text.encode("utf-8"))
                h = hashlib.sha256()
                for command, *options in CLI_FORMS:
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = cli.main([command, name, *options])
                    run = (command, *options, code, stdout.getvalue(), stderr.getvalue())
                    h.update("\0".join(map(str, run)).encode("utf-8", "surrogatepass") + b"\0")
                out[name] = h.hexdigest()[:PREFIX]
        finally:
            os.chdir(cwd)
    return out


def render_cli(corpus: list[tuple[str, str]]) -> str:
    lines = [f"inputs {cli_forms_digest(corpus)}\n"]
    lines += [f"{digest} {name}\n" for name, digest in cli_digests(corpus).items()]
    return CLI_HEADER + "".join(lines)


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
    for path, corpus, make in ((DIGESTS, inputs, render), (CLI_DIGESTS, cli_inputs, render_cli)):
        old_inputs, old = read(path) if path.exists() else ("", {})
        path.write_text(make(corpus()), encoding="utf-8", newline="\n")
        new_inputs, new = read(path)
        changed = [name for name in {**new, **old} if old.get(name) != new.get(name)]
        print(f"wrote {path.relative_to(REPO)}: {len(changed)} inputs changed")
        if new_inputs != old_inputs:
            print("  (the inputs line changed)")
        for name in changed:
            print(f"  {name}")
