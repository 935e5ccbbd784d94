"""Deterministic sentence and document representations.

Sentences are embedded by seeded feature hashing of unigram+bigram counts with
random signs, L2-normalized, then mixed with neighboring sentences so that
replacing one sentence has an observable effect on its neighbors' context.
The document vector tanh(W_d @ mean(e) + b_d) has learnable W_d, b_d, so it
is computed by the editor (`sumedit.editor.forward`) from the mean sentence
vector kept in its EditContext.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .text import Document, Sentence


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


def encode_sentences(document: Document, config: EncoderConfig) -> np.ndarray:
    """Encode every sentence; returns an (N, n) array, one row per sentence."""
    raw = np.stack([_raw_sentence_vector(s.tokens, config) for s in document.sentences])
    if config.context_window == 0:
        return raw
    n_sent = raw.shape[0]
    mixed = np.empty_like(raw)
    w = config.context_window
    for i in range(n_sent):
        lo, hi = max(0, i - w), min(n_sent, i + w + 1)
        mixed[i] = _normalize(raw[lo:hi].mean(axis=0))
    return mixed


def encode_abstracted(
    document: Document,
    i: int,
    abstracted: Sequence[str],
    config: EncoderConfig,
) -> np.ndarray:
    """Representation of an abstracted sentence in document context.

    The sentence at position i is replaced with the abstracted tokens, the
    modified document is re-encoded, and the vector at position i is returned.
    """
    if not 0 <= i < len(document):
        raise IndexError(f"sentence index {i} out of range")
    if not abstracted:
        raise ValueError("abstracted sentence must be non-empty")
    replaced = tuple(
        Sentence(j, tuple(abstracted)) if j == i else s
        for j, s in enumerate(document.sentences)
    )
    modified = Document(id=document.id, sentences=replaced)
    return encode_sentences(modified, config)[i]
