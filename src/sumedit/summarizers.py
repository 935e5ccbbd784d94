"""Extractor and abstractor interfaces with deterministic defaults.

Extractors return the selected sentence order plus a selection likelihood
P(s) in (0, 1] for every sentence. The greedy oracle extractor runs on a
batch of documents at once (`extract_greedy_oracle`), in passes of documents
of similar length whose padded `rouge.split_stats` record stays below a
fixed size. Each step scores every candidate from the selection's integer
ROUGE totals plus the candidate's marginal ones, which come from its
nonzero n-gram counts and matched reference positions alone (clipping is
per n-gram, Lin 2004, §3.1). Its per-example callable
(`GreedyOracleExtractor`) is the one-document batch, and `extract_batch`
hands a whole batch to it. The abstractor works on a chunk of up to three
consecutive sentences, rescales per-word attention by the owning sentence's
P(s), and compresses the center sentence to its most salient tokens.
Third-party extractors/abstractors plug in behind the same contracts
(determinism, P(s) in (0,1], non-empty abstraction).
"""
from __future__ import annotations

import math
from typing import Mapping, Protocol, Sequence

import numpy as np

from . import slots_eq
# `reward` stays a module attribute: the benchmark's tracer (perfbench) wraps
# `summarizers.reward` by name.
from .rouge import (
    BIGRAM_OVERLAP, BIGRAMS, LCS_MATCHES, TOKENS, UNIGRAM_OVERLAP, RewardWeights, f_measures, reward, split_stats,
)
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

    __eq__ = slots_eq


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


# Largest padded statistics record, in (document, sentence, column)
# entries, that one greedy pass builds; the steps work on its nonzero
# entries and on (document, sentence) totals. A larger bound saves little
# and costs memory: 2^19 puts 40 thirty-sentence documents in one pass
# instead of 39 + 1 (12.7 -> 10.2 ms warm), but raises the traced peak of
# 256 such documents from 2.8 to 5.3 MB.
GREEDY_ENTRIES = 1 << 18


def _greedy_passes(examples: Sequence[Example]) -> list[list[int]]:
    """Indices of `examples` grouped into greedy passes. Documents are taken
    by sentence count, so that a pass pads few sentence rows, and a pass is
    cut before its documents x longest document x widest reference bound
    (2 columns per reference token, plus the two totals) passes
    GREEDY_ENTRIES; a document past the bound is a pass of its own."""
    sizes = [len(ex.document) for ex in examples]
    widths = [2 * sum(len(s) for s in ex.reference.sentences) + 2 for ex in examples]
    passes: list[list[int]] = []
    rows = width = 0
    for j in sorted(range(len(examples)), key=sizes.__getitem__):
        rows, width = max(rows, sizes[j]), max(width, widths[j])
        if passes and (len(passes[-1]) + 1) * rows * width <= GREEDY_ENTRIES:
            passes[-1].append(j)
        else:
            passes.append([j])
            rows, width = sizes[j], widths[j]
    return passes


def _greedy_pass(examples: Sequence[Example], k: int, weights: RewardWeights) -> list[ExtractResult]:
    """`extract_greedy_oracle` of one pass: one `split_stats` record of all
    its sentences, then at most k steps, each scored from the selection's
    integer totals plus every candidate's marginal ones.

    A candidate's nonzero n-gram counts and its matched reference positions
    are taken from the record once, as flat entries. Against a selection,
    an n-gram column still has `room` = max(reference count - selected
    count, 0), so the candidate adds min(count, room) to the clipped
    overlap; it adds its matched positions that the selection lacks, and
    its token and bigram totals. Summed per candidate, these give exactly
    the integers of `SplitStats.totals` of the selection plus the
    candidate, and `f_measures` turns them into `SplitStats.rewards`'
    values bit for bit."""
    documents = [ex.document for ex in examples]
    stats = split_stats([[s.tokens for s in doc.sentences] for doc in documents], [ex.reference for ex in examples])
    D, S, width = stats.counts.shape
    C, T = width - 2, stats.lcs.shape[2]
    rows = stats.counts.reshape(D * S, width)
    row, col = np.nonzero(rows[:, :C])
    count = rows[row, col]
    cell = row // S * C + col  # the entry's column of its document
    kind = 2 * row + (col >= stats.unigrams)  # its candidate's unigram or bigram overlap
    match_row, pos = np.nonzero(stats.lcs.reshape(D * S, T))
    at = match_row // S * T + pos  # the entry's reference position of its document
    # the selection's totals, and per document its n-gram room and the
    # reference positions it has not matched
    base = np.zeros((D, 1, 5), dtype=np.int64)
    room = stats.ref_counts.copy()
    free = np.ones((D, T), dtype=bool)

    sizes = np.array([len(doc) for doc in documents], dtype=np.intp)
    steps = min(k, S)
    docs = np.arange(D)
    totals = np.zeros((D, S, 5), dtype=np.int64)
    unselected = np.arange(S) < sizes[:, None]
    active = np.ones(D, dtype=bool)
    current = np.zeros(D)
    order = np.zeros((D, steps), dtype=np.intp)
    gains = np.zeros((D, steps))
    taken = np.zeros(D, dtype=np.intp)
    for step in range(steps):
        overlap = np.bincount(kind, np.minimum(count, room.reshape(-1)[cell]), minlength=2 * D * S)
        totals[..., UNIGRAM_OVERLAP : BIGRAM_OVERLAP + 1] = overlap.reshape(D, S, 2)
        totals[..., TOKENS : BIGRAMS + 1] = stats.counts[..., C:]
        totals[..., LCS_MATCHES] = np.bincount(match_row, free.reshape(-1)[at], minlength=D * S).reshape(D, S)
        totals += base
        rewards = weights.combine(*f_measures(totals, stats.ref_tokens[:, None], stats.ref_bigrams[:, None]))
        best = np.argmax(np.where(unselected, rewards, -np.inf), axis=1)
        best_reward = rewards[docs, best]
        take = (active & (best_reward > current)) if step else active
        chosen, sentence = docs[take], best[take]
        order[take, step] = sentence
        gains[take, step] = best_reward[take] - current[take]
        current[take] = best_reward[take]
        unselected[chosen, sentence] = False
        base[chosen, 0] = totals[chosen, sentence]
        room[chosen] = np.maximum(room[chosen] - stats.counts[chosen, sentence, :C], 0)
        free[chosen] &= ~stats.lcs[chosen, sentence]
        taken += take
        active = take & (taken < np.minimum(sizes, k))
        if not active.any():
            break
    results = []
    for j, n in enumerate(taken.tolist()):
        g = gains[j, :n]
        p_sel = np.exp(g - g.max())
        p_sel /= p_sel.sum()
        likelihood = {i: UNSELECTED_LIKELIHOOD for i in range(sizes[j])}
        selected = order[j, :n].tolist()
        for i, p in zip(selected, p_sel.tolist()):
            likelihood[i] = p
        results.append(ExtractResult(order=tuple(selected), likelihood=likelihood))
    return results


def extract_greedy_oracle(
    examples: Sequence[Example], k: int, weights: RewardWeights
) -> list[ExtractResult]:
    """Greedy reward-maximizing extractor used to build training data, run
    on a batch of examples at once.

    For each document, adds the sentence with the best marginal reward gain
    (ties: lowest index) until k sentences are selected or no addition
    strictly improves the reward. The documents are scored in passes of
    similar sentence counts and bounded size (`_greedy_passes`): each pass
    takes its ROUGE statistics from one `split_stats` call, and each step
    scores every candidate of every document of the pass at once (the
    selection's integer totals plus the candidate's marginal ones,
    `_greedy_pass`); a document that has stopped takes no more sentences.
    Selected sentences get P(s) = softmax over their selection-step gains;
    unselected ones get a small positive floor. Results are in input order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    results: list[ExtractResult] = [None] * len(examples)  # type: ignore[list-item]
    for group in _greedy_passes(examples):
        for j, result in zip(group, _greedy_pass([examples[j] for j in group], k, weights)):
            results[j] = result
    return results


def extract_batch(extractor: Extractor, examples: Sequence[Example]) -> list[ExtractResult]:
    """`extractor` applied to every example; the greedy oracle extractor
    takes them as one batch."""
    if isinstance(extractor, GreedyOracleExtractor):
        return extract_greedy_oracle(examples, extractor.k, extractor.weights)
    return [extractor(ex) for ex in examples]


def make_chunk(document: Document, i: int) -> Chunk:
    """Sentences {i-1, i, i+1} clipped to the document; two at the edges."""
    if not 0 <= i < len(document):
        raise IndexError(f"sentence index {i} out of range")
    lo, hi = max(0, i - 1), min(len(document), i + 2)
    members = document.sentences[lo:hi]
    return Chunk(members=tuple(members), center=i - lo)


def rescale_attention(attention: AttentionMap, likelihood: Mapping[int, float]) -> AttentionMap:
    """C'(w) = C(w) * P(s) / Z with Z the sum of C(w) * P(s) over the chunk."""
    scaled = [(sent, pos, w * likelihood[sent]) for sent, pos, w in attention.entries]
    # Z adds left to right: builtin `sum` compensates float rounding from
    # Python 3.12 on, and `np.cumsum` costs several times this loop here
    z = 0.0
    for _, _, w in scaled:
        z += w
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
    center_weights, total = [], 0.0
    for sent, pos, w in rescaled.entries:
        if sent == center.index:
            center_weights.append((pos, w))
            total += w  # left to right, as rescale_attention's Z
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
        return extract_greedy_oracle([example], self.k, self.weights)[0]


class SalienceAbstractor:
    __slots__ = ("ratio",)

    def __init__(self, ratio: float = 0.8):
        self.ratio = ratio

    def __call__(self, chunk: Chunk, likelihood: Mapping[int, float]) -> AbstractResult:
        return abstract_salience(chunk, likelihood, self.ratio)
