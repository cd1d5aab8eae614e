"""Every corpus input still produces the outputs pinned in ``corpus.sha256``.

The goldens cover five files; this covers the benchmark's mutant pool and
synthetic models as well, so a refactor that must not change behaviour is
checked against several thousand inputs.  ``corpus_digests.py`` says how the
file is built and how to regenerate it after an intended output change.
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
