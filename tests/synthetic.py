"""Synthetic corpus with known-optimal editing decisions.

Each document holds, in order: k sentences matching the reference verbatim
(optimal decision: keep), one noise-padded sentence whose salience
compression equals a reference sentence (optimal: abstract), and one verbatim
duplicate of the first sentence (optimal: reject). Extracting all sentences
in lead order therefore gives the decision pattern E^k, A, R as the
enumeration optimum.
"""
from __future__ import annotations

import numpy as np

from sumedit.text import Document, Example, ReferenceSummary, Sentence, tokenize

# Stopwords inside reference sentences (kept by E, stripped by abstraction)
# versus padding stopwords that never occur in the reference.
REF_STOPS = ("the", "a")
NOISE_STOPS = ("of", "and", "in")

VOCAB = tuple(f"w{i}" for i in range(40))


def document_from_strings(doc_id: str, sentences: list[str]) -> Document:
    """A document of raw sentence strings, tokenized as ingest does."""
    return Document(
        id=doc_id,
        sentences=tuple(Sentence(i, tuple(tokenize(s))) for i, s in enumerate(sentences)),
    )


def make_example(example_id: str, rng: np.random.Generator, k: int = 2) -> Example:
    words = rng.choice(len(VOCAB), size=3 * (k + 1), replace=False)
    groups = [tuple(VOCAB[w] for w in words[3 * j : 3 * j + 3]) for j in range(k + 1)]
    ref_sentences = []
    doc_sentences = []
    for j in range(k):
        w1, w2, w3 = groups[j]
        sent = (w1, REF_STOPS[0], w2, REF_STOPS[1], w3)
        ref_sentences.append(sent)
        doc_sentences.append(sent)
    abstract_target = groups[k]
    ref_sentences.append(abstract_target)
    x1, x2, x3 = abstract_target
    noisy = (NOISE_STOPS[0], x1, NOISE_STOPS[1], x2, NOISE_STOPS[2], x3)
    doc_sentences.append(noisy)
    doc_sentences.append(doc_sentences[0])  # duplicate of the first sentence
    doc = Document(
        id=example_id,
        sentences=tuple(Sentence(i, s) for i, s in enumerate(doc_sentences)),
    )
    return Example(document=doc, reference=ReferenceSummary(tuple(ref_sentences)))


def make_corpus(
    count: int, seed: int, k: int = 2, id_prefix: str = "syn"
) -> list[Example]:
    rng = np.random.default_rng(seed)
    return [make_example(f"{id_prefix}-{i:05d}", rng, k=k) for i in range(count)]
