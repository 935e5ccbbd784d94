"""Seeded random-vocabulary inputs for the long-extract-label and
greedy-summarize workloads.

The seed chooses the words and nothing else. Sentence lengths, stopword
positions, extract lengths and which documents carry a long reference
sentence, a duplicated sentence or a sentence whose abstraction equals its
source are fixed functions of the document and sentence index. The work
the program does per document (n-gram counts, LCS table sizes, distinct
realized summaries) therefore does not change with the seed, and runs on
different seeds can be compared.
"""
from __future__ import annotations

import numpy as np

from sumedit.text import Document, Example, ReferenceSummary, Sentence

VOCAB = tuple(f"v{i:03d}" for i in range(400))
# Stopwords score near zero in the salience abstractor, so abstractions drop
# them and the E and A versions of a sentence differ.
STOPS = ("the", "a", "of", "and", "in", "to", "is", "for", "on", "with")

LONG_REFERENCE_TOKENS = 66  # > 64 positions: a multi-word bitmask


def _words(rng: np.random.Generator, count: int, stops: bool = True) -> tuple[str, ...]:
    """`count` tokens; with `stops`, every third one is a stopword."""
    words = rng.integers(len(VOCAB), size=count)
    stop = rng.integers(len(STOPS), size=count)
    return tuple(
        STOPS[stop[p]] if stops and p % 3 == 2 else VOCAB[words[p]] for p in range(count)
    )


def _content(sentence: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(t for t in sentence if t not in STOPS)


def _short_sentence(rng: np.random.Generator) -> tuple[str, ...]:
    """Three distinct content words. Each scores the same, so the salience
    abstraction keeps all three and equals its source."""
    return tuple(VOCAB[int(i)] for i in rng.choice(len(VOCAB), size=3, replace=False))


def _sentences(rng: np.random.Generator, index: int, count: int, low: int, span: int):
    """Sentence j of document `index` has low + (index + j) % span tokens."""
    return [_words(rng, low + (index + j) % span) for j in range(count)]


def _reference(rng, sentences, picks: list[int], long: bool) -> tuple[tuple[str, ...], ...]:
    """One picked sentence verbatim, the other picks as their content words
    plus two new words, and optionally one sentence longer than 64 tokens
    that strings the picks together and pads with new words."""
    ref = [sentences[picks[0]]]
    ref += [_content(sentences[i]) + _words(rng, 2, stops=False) for i in picks[1:]]
    if long:
        joined = tuple(t for i in picks for t in sentences[i])
        joined += _words(rng, max(0, LONG_REFERENCE_TOKENS - len(joined)))
        ref.append(joined[:LONG_REFERENCE_TOKENS])
    return tuple(ref)


def _example(doc_id: str, sentences, reference) -> Example:
    doc = Document(id=doc_id, sentences=tuple(Sentence(i, s) for i, s in enumerate(sentences)))
    return Example(document=doc, reference=ReferenceSummary(tuple(reference)))


def long_extract_example(doc_id: str, index: int, l: int, rng: np.random.Generator) -> Example:
    """A document of exactly l sentences, so a lead-k extract (k >= l) has
    length l. Even indices repeat sentence 0 as the last sentence; odd ones
    have a short sentence at position 1 whose abstraction equals its source.
    Indices 0, 1, 4, 5, 8, 9, ... have a reference sentence longer than 64
    tokens."""
    sentences = _sentences(rng, index, l, 8, 5)
    if index % 2 == 0:
        sentences[-1] = sentences[0]
    else:
        sentences[1] = _short_sentence(rng)
    picks = [0, 2, l - 2]
    return _example(doc_id, sentences, _reference(rng, sentences, picks, long=index // 2 % 2 == 0))


def long_extract_corpus(seed: int, lengths: list[int], prefix: str) -> list[Example]:
    rng = np.random.default_rng([seed, 5])
    return [long_extract_example(f"{prefix}-{i:03d}", i, l, rng) for i, l in enumerate(lengths)]


def long_document_example(doc_id: str, index: int, n_sentences: int, rng: np.random.Generator) -> Example:
    """An n-sentence document whose reference comes from four of its
    sentences. The middle sentence is short (its abstraction equals it);
    even indices repeat the first reference source as the last sentence;
    every third document has a reference sentence longer than 64 tokens."""
    sentences = _sentences(rng, index, n_sentences, 10, 5)
    sentences[n_sentences // 2] = _short_sentence(rng)
    step = (n_sentences - 1) // 4
    picks = [1 + index % step + step * j for j in range(4)]
    if index % 2 == 0:
        sentences[-1] = sentences[picks[0]]
    return _example(doc_id, sentences, _reference(rng, sentences, picks, long=index % 3 == 0))


def long_document_corpus(seed: int, count: int, n_sentences: int, prefix: str) -> list[Example]:
    rng = np.random.default_rng([seed, 6])
    return [long_document_example(f"{prefix}-{i:03d}", i, n_sentences, rng) for i in range(count)]
