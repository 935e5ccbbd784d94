"""Extractor and abstractor interfaces with deterministic defaults.

Extractors return the selected sentence order plus a selection likelihood
P(s) in (0, 1] for every sentence. The abstractor works on a chunk of up to
three consecutive sentences, rescales per-word attention by the owning
sentence's P(s), and compresses the center sentence to its most salient
tokens. Third-party extractors/abstractors plug in behind the same contracts
(determinism, P(s) in (0,1], non-empty abstraction).
"""
from __future__ import annotations

import math
from typing import Mapping, Protocol

import numpy as np

# `reward` stays a module attribute: the benchmark's tracer (perfbench) wraps
# `summarizers.reward` by name.
from .rouge import RewardWeights, reward, sentence_stats
from .text import Document, Example, Sentence

STOPWORDS = frozenset(
    """a an and are as at be but by for from has have he her his i in is it its
    of on or she that the their they this to was were will with you your not no
    we our""".split()
)

STOPWORD_SCORE = 1e-6
UNSELECTED_LIKELIHOOD = 1e-6


class ExtractResult:
    __slots__ = ("order", "likelihood")

    def __init__(self, order: tuple[int, ...], likelihood: Mapping[int, float]):
        if len(order) < 1:
            raise ValueError("extract must select at least one sentence")
        if len(set(order)) != len(order):
            raise ValueError("extract order has duplicate indices")
        for p in likelihood.values():
            if not 0 < p <= 1:
                raise ValueError("selection likelihoods must lie in (0, 1]")
        self.order = order
        self.likelihood = likelihood

    def __eq__(self, other):
        if type(other) is not ExtractResult:
            return NotImplemented
        return (self.order, self.likelihood) == (other.order, other.likelihood)


class Chunk:
    __slots__ = ("members", "center")

    def __init__(self, members: tuple[Sentence, ...], center: int):
        if not 0 <= center < len(members):
            raise ValueError("chunk center out of range")
        idx = [s.index for s in members]
        if idx != list(range(idx[0], idx[0] + len(idx))):
            raise ValueError("chunk members must be consecutive")
        self.members = members
        self.center = center


class AttentionMap:
    __slots__ = ("entries",)

    # entries: (sentence index, token position, weight)
    def __init__(self, entries: tuple[tuple[int, int, float], ...]):
        if any(w < 0 for _, _, w in entries):
            raise ValueError("attention weights must be non-negative")
        self.entries = entries


class AbstractResult:
    __slots__ = ("tokens", "attention")

    def __init__(self, tokens: tuple[str, ...], attention: AttentionMap):
        if not tokens:
            raise ValueError("abstraction must be non-empty")
        self.tokens = tokens
        self.attention = attention


class Extractor(Protocol):
    def __call__(self, example: Example) -> ExtractResult: ...


class Abstractor(Protocol):
    def __call__(self, chunk: Chunk, likelihood: Mapping[int, float]) -> AbstractResult: ...


def extract_lead(document: Document, k: int) -> ExtractResult:
    """First min(k, N) sentences; P(s) = 1/(1 + position)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(document)
    order = tuple(range(min(k, n)))
    likelihood = {i: 1.0 / (1 + i) for i in range(n)}
    return ExtractResult(order=order, likelihood=likelihood)


def extract_greedy_oracle(example: Example, k: int, weights: RewardWeights) -> ExtractResult:
    """Greedy reward-maximizing extractor used to build training data.

    Adds the sentence with the best marginal reward gain (ties: lowest index)
    until k sentences are selected or no addition strictly improves the
    reward. Each step scores every candidate at once from per-sentence ROUGE
    statistics (the selection's running sums plus the candidate's row).
    Selected sentences get P(s) = softmax over their selection-step gains;
    unselected ones get a small positive floor.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    doc = example.document
    stats = sentence_stats([doc.tokens_at(i) for i in range(len(doc))], example.reference)
    counts, lcs = np.zeros_like(stats.counts[0]), np.zeros_like(stats.lcs[0])
    unselected = np.ones(len(doc), dtype=bool)
    selected: list[int] = []
    gains: list[float] = []
    current = 0.0
    while len(selected) < min(k, len(doc)):
        rewards = stats.rewards(counts + stats.counts, lcs | stats.lcs, weights)
        best_idx = int(np.argmax(np.where(unselected, rewards, -np.inf)))
        best_reward = float(rewards[best_idx])
        if selected and best_reward <= current:
            break
        selected.append(best_idx)
        unselected[best_idx] = False
        counts += stats.counts[best_idx]
        lcs |= stats.lcs[best_idx]
        gains.append(best_reward - current)
        current = best_reward
    g = np.array(gains)
    p_sel = np.exp(g - g.max())
    p_sel /= p_sel.sum()
    likelihood = {i: UNSELECTED_LIKELIHOOD for i in range(len(doc))}
    for i, p in zip(selected, p_sel):
        likelihood[i] = float(p)
    return ExtractResult(order=tuple(selected), likelihood=likelihood)


def make_chunk(document: Document, i: int) -> Chunk:
    """Sentences {i-1, i, i+1} clipped to the document; two at the edges."""
    if not 0 <= i < len(document):
        raise IndexError(f"sentence index {i} out of range")
    lo, hi = max(0, i - 1), min(len(document), i + 2)
    members = document.sentences[lo:hi]
    return Chunk(members=tuple(members), center=i - lo)


def rescale_attention(attention: AttentionMap, likelihood: Mapping[int, float]) -> AttentionMap:
    """C'(w) = C(w) * P(s) / Z with Z the sum of C(w) * P(s) over the chunk."""
    scaled = [
        (sent, pos, w * likelihood[sent]) for sent, pos, w in attention.entries
    ]
    z = sum(w for _, _, w in scaled)
    if z <= 0:
        raise ValueError("degenerate attention: normalization term is zero")
    return AttentionMap(entries=tuple((s, p, w / z) for s, p, w in scaled))


def _content_scores(chunk: Chunk) -> AttentionMap:
    """IDF-weighted content score per token over the chunk's sentences.

    df(t) counts member sentences containing t; stopwords score epsilon.
    """
    m = len(chunk.members)
    df: dict[str, int] = {}
    for sent in chunk.members:
        for t in set(sent.tokens):
            df[t] = df.get(t, 0) + 1
    entries = []
    for sent in chunk.members:
        for pos, t in enumerate(sent.tokens):
            if t in STOPWORDS:
                score = STOPWORD_SCORE
            else:
                score = math.log(1 + m / df[t])
            entries.append((sent.index, pos, score))
    return AttentionMap(entries=tuple(entries))


def abstract_salience(chunk: Chunk, likelihood: Mapping[int, float], ratio: float) -> AbstractResult:
    """Compress the center sentence to its most salient tokens.

    Keeps, in original order, the center-sentence tokens whose cumulative
    rescaled attention mass (taken by descending weight) first covers the
    given fraction of the center sentence's mass. Never returns empty.
    """
    if not 0 < ratio <= 1:
        raise ValueError("ratio must lie in (0, 1]")
    rescaled = rescale_attention(_content_scores(chunk), likelihood)
    center = chunk.members[chunk.center]
    center_weights = [
        (pos, w) for sent, pos, w in rescaled.entries if sent == center.index
    ]
    total = sum(w for _, w in center_weights)
    ranked = sorted(center_weights, key=lambda pw: (-pw[1], pw[0]))
    kept: list[int] = []
    cum = 0.0
    for pos, w in ranked:
        kept.append(pos)
        cum += w
        if cum >= ratio * total - 1e-12:
            break
    tokens = tuple(center.tokens[p] for p in sorted(kept))
    return AbstractResult(tokens=tokens, attention=rescaled)


class LeadExtractor:
    __slots__ = ("k",)

    def __init__(self, k: int):
        self.k = k

    def __call__(self, example: Example) -> ExtractResult:
        return extract_lead(example.document, self.k)


class GreedyOracleExtractor:
    __slots__ = ("k", "weights")

    def __init__(self, k: int, weights: RewardWeights = RewardWeights()):
        self.k = k
        self.weights = weights

    def __call__(self, example: Example) -> ExtractResult:
        return extract_greedy_oracle(example, self.k, self.weights)


class SalienceAbstractor:
    __slots__ = ("ratio",)

    def __init__(self, ratio: float = 0.8):
        self.ratio = ratio

    def __call__(self, chunk: Chunk, likelihood: Mapping[int, float]) -> AbstractResult:
        return abstract_salience(chunk, likelihood, self.ratio)
