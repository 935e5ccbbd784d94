"""Deterministic sentence and document representations.

Sentences are embedded by seeded feature hashing of unigram+bigram counts with
random signs, L2-normalized (the raw rows), then mixed with neighboring
sentences so that replacing one sentence has an observable effect on its
neighbors' context: sentence i's vector is the normalized mean of the raw
rows i-1 .. i+1 of its document that exist. An abstracted sentence is
encoded at its source's position, in the document with that one sentence
replaced.

`encode_split` encodes a whole split at once into one `SplitVectors` record,
padded to the longest extract and step-major, as the editor reads it: step
i of every extract is one (N, 2n) block of extracted and abstracted vectors
side by side, built once per split. Each distinct feature of the split is
hashed once and all raw rows come from one `np.bincount`. A raw row is a sum of
+-1.0 terms, so it is exact in any order; a window is added in document
order, one shifted add per offset, as a per-document mean adds its rows; and
each mixed row is normalized by the same per-row dot product that
`np.linalg.norm` takes. The vectors are therefore the ones of a sentence-at-
a-time encoding, bit for bit; that encoding is the slow reference in
`tests/test_encoder.py`.

The document vector tanh(W_d @ mean(e) + b_d) has learnable W_d, b_d, so it
is computed by the editor (`sumedit.editor.forward` and `decode`) from the
mean sentence vector `e_bar` of the record.
"""
from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

from . import slots_eq
from .text import Document


class EncoderConfig:
    __slots__ = ("n", "hash_seed")

    def __init__(self, n: int = 64, hash_seed: int = 0):
        for name, value in (("n", n), ("hash_seed", hash_seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"encoder {name} must be an integer, got {value!r}")
        if n < 1:
            raise ValueError("representation width n must be >= 1")
        self.n = n
        self.hash_seed = hash_seed

    __eq__ = slots_eq


class SplitVectors:
    """The frozen-encoder inputs of N extracts padded to the longest extract
    length L, step-major as the editor reads them.

    `ea` (L, N, 2n) holds each step's extracted and abstracted sentence
    vectors side by side, in extract order, zero past each extract's end;
    `e_bar` (N, n) holds each document's mean sentence vector and `lengths`
    (N,) the extract lengths.
    """

    __slots__ = ("ea", "e_bar", "lengths")

    def __init__(self, ea: np.ndarray, e_bar: np.ndarray, lengths: np.ndarray):
        self.ea = ea
        self.e_bar = e_bar
        self.lengths = lengths


def _raw_rows(sentences: Sequence[Sequence[str]], config: EncoderConfig) -> np.ndarray:
    """The L2-normalized hashed vector of every sentence; an (S, n) array.

    Feature f adds sign(h) to bucket h % n, h = crc32 of the UTF-8 bytes of
    f"{seed}\x00{f}" and sign + where its top bit is set. Every distinct
    unigram and bigram is hashed once, continuing the CRC of the seed prefix
    (crc32(b, crc32(a)) == crc32(a + b)), and a bigram the CRC of its first
    word's prefix, computed once per word."""
    vocab: dict[str, int] = {}
    tokens = np.array([vocab.setdefault(t, len(vocab)) for s in sentences for t in s], dtype=np.int64)
    row = np.repeat(np.arange(len(sentences)), [len(s) for s in sentences])
    inner = row[1:] == row[:-1]  # adjacent tokens of one sentence
    V = len(vocab)
    pairs, pair_of = np.unique(tokens[:-1][inner] * V + tokens[1:][inner], return_inverse=True)
    crc32, prefix = zlib.crc32, zlib.crc32(f"{config.hash_seed}\x00".encode())
    starts = [crc32(f"2:{w}\x1f".encode(), prefix) for w in vocab]  # of a bigram's first word
    words = [w.encode() for w in vocab]
    h = np.array(
        [crc32(f"1:{w}".encode(), prefix) for w in vocab]
        + [crc32(words[b], starts[a]) for a, b in zip((pairs // V).tolist(), (pairs % V).tolist())],
        dtype=np.int64,
    )
    bucket, sign = h % config.n, np.where(h & 0x80000000, 1.0, -1.0)
    feature = np.concatenate([tokens, V + pair_of.ravel()])
    owner = np.concatenate([row, row[1:][inner]])
    raw = np.bincount(
        owner * config.n + bucket[feature], weights=sign[feature], minlength=len(sentences) * config.n
    ).reshape(-1, config.n)
    # integer-valued rows: their squared norms are exact in any order
    return raw / _nonzero(np.sqrt((raw * raw).sum(axis=1)))


def _nonzero(norms: np.ndarray) -> np.ndarray:
    """Row norms as a divisor column: a zero row stays as it is."""
    return np.where(norms > 0, norms, 1.0)[:, None]


def _window_means(
    raw: np.ndarray, center: np.ndarray, pos: np.ndarray, size: np.ndarray, own: np.ndarray
) -> np.ndarray:
    """Row k: the normalized mean of raw rows center[k] + o, o = -1, 0, 1,
    that lie in its document (0 <= pos[k] + o < size[k]), added in that
    order, with own[k] in place of row center[k]."""
    total = np.zeros(own.shape)
    count = np.zeros(len(own))
    for o in (-1, 0, 1):
        inside = (pos + o >= 0) & (pos + o < size)
        add = own if o == 0 else raw[np.where(inside, center + o, 0)]
        # adding +0.0 to a sum that is never -0.0 leaves it as it is
        total += np.where(inside[:, None], add, 0.0)
        count += inside
    mean = total / count[:, None]
    # the per-row dot of np.linalg.norm, not a vectorized sum of squares
    norms = np.sqrt(np.matmul(mean[:, None, :], mean[:, :, None])[:, 0, 0])
    return mean / _nonzero(norms)


def encode_split(
    documents: Sequence[Document],
    orders: Sequence[Sequence[int]],
    abstractions: Sequence[Sequence[Sequence[str]]],
    config: EncoderConfig,
) -> SplitVectors:
    """Encode N examples at once: example j extracts sentences orders[j] of
    documents[j], and abstractions[j] holds the abstracted version of each
    extracted sentence, in extract order."""
    if not len(documents) == len(orders) == len(abstractions):
        raise ValueError("need one extract order and one abstraction list per document")
    for doc, order, abstracted in zip(documents, orders, abstractions):
        if len(abstracted) != len(order):
            raise ValueError(
                f"{doc.id}: {len(order)} extracted sentences but {len(abstracted)} abstractions"
            )
        for i in order:
            if not 0 <= i < len(doc):
                raise IndexError(f"{doc.id}: sentence index {i} out of range")
        if not all(abstracted):
            raise ValueError(f"{doc.id}: abstracted sentence must be non-empty")
    sizes = np.array([len(doc) for doc in documents], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    lengths = np.array([len(order) for order in orders], dtype=np.intp)
    sentences = [s.tokens for doc in documents for s in doc.sentences]
    raw = _raw_rows(sentences + [tuple(t) for a in abstractions for t in a], config)
    raw, own = raw[: len(sentences)], raw[len(sentences) :]
    # every sentence, and the source sentence of every extracted one
    doc_of = np.repeat(np.arange(len(documents)), sizes)
    pos = np.arange(len(sentences)) - starts[doc_of]
    step_doc = np.repeat(np.arange(len(documents)), lengths)
    step_pos = np.array([i for order in orders for i in order], dtype=np.intp)
    source = starts[step_doc] + step_pos
    mixed = _window_means(raw, np.arange(len(sentences)), pos, sizes[doc_of], raw)
    abstracted = _window_means(raw, source, step_pos, sizes[step_doc], own)
    # each document's mean vector, its rows added in order
    total = np.zeros((len(documents), config.n))
    for p in range(int(sizes.max(initial=0))):
        inside = p < sizes
        total += np.where(inside[:, None], mixed[np.where(inside, starts + p, 0)], 0.0)
    L = int(lengths.max(initial=0))
    step = np.arange(len(step_pos)) - (np.cumsum(lengths) - lengths)[step_doc]
    ea = np.zeros((L, len(documents), 2 * config.n))
    ea[step, step_doc, : config.n] = mixed[source]
    ea[step, step_doc, config.n :] = abstracted
    return SplitVectors(ea=ea, e_bar=total / sizes[:, None], lengths=lengths)
