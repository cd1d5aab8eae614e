"""Every corpus input still produces the outputs pinned in ``corpus.sha256``,
and every CLI run the ones pinned in ``cli.sha256``.

The goldens cover five files; this covers the benchmark's mutant pool and
synthetic models as well, so a refactor that must not change behaviour is
checked against several thousand inputs.  ``corpus_digests.py`` says how the
files are built and how to regenerate them after an intended output change.
"""

from __future__ import annotations

import corpus_digests


def test_corpus_inputs_are_the_pinned_ones():
    pinned_inputs, pinned = corpus_digests.read()
    corpus = corpus_digests.inputs()
    assert corpus_digests.inputs_digest(corpus) == pinned_inputs, "corpus changed"
    assert [name for name, _ in corpus] == list(pinned), "corpus changed"


def test_corpus_outputs_are_byte_identical_to_the_pinned_ones():
    _, pinned = corpus_digests.read()
    found = corpus_digests.digests(corpus_digests.inputs())
    changed = [name for name in pinned if found.get(name) != pinned[name]]
    assert not changed, f"output changed for {len(changed)} inputs: {changed[:10]}"


def test_cli_runs_print_the_pinned_outputs():
    pinned_inputs, pinned = corpus_digests.read(corpus_digests.CLI_DIGESTS)
    corpus = corpus_digests.cli_inputs()
    assert corpus_digests.cli_forms_digest(corpus) == pinned_inputs, "CLI corpus changed"
    found = corpus_digests.cli_digests(corpus)
    assert list(found) == list(pinned), "CLI corpus changed"
    changed = [name for name in pinned if found[name] != pinned[name]]
    assert not changed, f"CLI output changed for {len(changed)} inputs: {changed[:10]}"
