"""Deterministic sentence and document representations.

Sentences are embedded by seeded feature hashing of unigram+bigram counts with
random signs, L2-normalized (`raw_vectors`), then mixed with neighboring
sentences (`mix_context`) so that replacing one sentence has an observable
effect on its neighbors' context. Sentence i's vector depends only on the raw
rows of its window i-w .. i+w, so `encode_abstracted` hashes the abstracted
sentence alone and mixes it with the document's existing raw rows.
The document vector tanh(W_d @ mean(e) + b_d) has learnable W_d, b_d, so it
is computed by the editor (`sumedit.editor.forward`) from the mean sentence
vector kept in its EditContext.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .text import Document


@dataclass(frozen=True)
class EncoderConfig:
    n: int = 64
    hash_seed: int = 0
    context_window: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("representation width n must be >= 1")
        if self.context_window < 0:
            raise ValueError("context_window must be >= 0")


def _hash32(seed: int, feature: str) -> int:
    return zlib.crc32(f"{seed}\x00{feature}".encode("utf-8"))


def _normalize(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 0 else v


def _raw_sentence_vector(tokens: Sequence[str], config: EncoderConfig) -> np.ndarray:
    v = np.zeros(config.n)
    feats = [f"1:{t}" for t in tokens]
    feats += [f"2:{a}\x1f{b}" for a, b in zip(tokens, tokens[1:])]
    for feat in feats:
        h = _hash32(config.hash_seed, feat)
        sign = 1.0 if h & 0x80000000 else -1.0
        v[h % config.n] += sign
    return _normalize(v)


def raw_vectors(document: Document, config: EncoderConfig) -> np.ndarray:
    """Hashed vector of every sentence before mixing; an (N, n) array."""
    return np.stack([_raw_sentence_vector(s.tokens, config) for s in document.sentences])


def _mixed_row(raw: np.ndarray, i: int, w: int) -> np.ndarray:
    """Row i after mixing: the normalized mean of raw rows i-w .. i+w that
    exist; with w = 0 the raw row itself."""
    if w == 0:
        return raw[i]
    lo, hi = max(0, i - w), min(len(raw), i + w + 1)
    return _normalize(raw[lo:hi].mean(axis=0))


def mix_context(raw: np.ndarray, config: EncoderConfig) -> np.ndarray:
    """Every sentence's vector, mixed with its neighbors, from the document's
    raw vectors; an (N, n) array, one row per sentence."""
    return np.stack([_mixed_row(raw, i, config.context_window) for i in range(len(raw))])


def encode_abstracted(
    raw: np.ndarray,
    i: int,
    abstracted: Sequence[str],
    config: EncoderConfig,
) -> np.ndarray:
    """Representation of an abstracted sentence in document context.

    raw holds the document's raw sentence vectors (`raw_vectors`). The result
    is the vector at position i of the document with sentence i replaced by
    the abstracted tokens: only those tokens are hashed, and they are mixed
    with the raw rows of their window.
    """
    if not 0 <= i < len(raw):
        raise IndexError(f"sentence index {i} out of range")
    if not abstracted:
        raise ValueError("abstracted sentence must be non-empty")
    w = config.context_window
    lo, hi = max(0, i - w), min(len(raw), i + w + 1)
    window = raw[lo:hi].copy()
    window[i - lo] = _raw_sentence_vector(abstracted, config)
    return _mixed_row(window, i - lo, w)
