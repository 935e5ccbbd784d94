"""Extractor and abstractor interfaces with deterministic defaults.

Extractors return the selected sentence order plus a selection likelihood
P(s) in (0, 1] for every sentence, a tuple indexed by sentence. The greedy
oracle extractor runs on a batch of documents at once
(`extract_greedy_oracle`), in one pass over the batch's sentences as flat
rows: one `rouge.split_entries` call, then each step scores every
candidate from the selection's integer ROUGE totals plus the candidate's
marginal ones, which come from its nonzero n-gram counts and matched
reference positions alone (clipping is per n-gram, Lin 2004, §3.1), read
by their column and position numbers, flat over the batch. Its
per-example callable (`GreedyOracleExtractor`) is the one-document batch,
and `extract_batch` hands a whole batch to it. An abstractor maps
(document, extract) to the abstractions: one non-empty token tuple per
extracted sentence, in extract order. The salience abstractor
(`abstract_extract`) scores the tokens of each extracted sentence's chunk
of up to three consecutive sentences, rescales them by the owning
sentence's P(s) (`rescale_attention`), and compresses the center sentence
to its most salient tokens, over flat lists of the chunk's tokens; the
per-chunk path it replaced is the slow reference in `tests/reference.py`.
Third-party extractors/abstractors plug in behind the same contracts
(determinism, P(s) in (0,1], non-empty abstraction).
"""
from __future__ import annotations

import math
from typing import Protocol, Sequence

import numpy as np

from . import slots_eq
# `reward` stays a module attribute: the benchmark's tracer (perfbench) wraps
# `summarizers.reward` by name.
from .rouge import (
    BIGRAM_OVERLAP, BIGRAMS, LCS_MATCHES, TOKENS, UNIGRAM_OVERLAP, RewardWeights, f_measures, reward, split_entries,
)
from .text import Document, Example

STOPWORDS = frozenset(
    """a an and are as at be but by for from has have he her his i in is it its
    of on or she that the their they this to was were will with you your not no
    we our""".split()
)

STOPWORD_SCORE = 1e-6
UNSELECTED_LIKELIHOOD = 1e-6


class ExtractResult:
    __slots__ = ("order", "likelihood")

    def __init__(self, order: tuple[int, ...], likelihood: tuple[float, ...]):
        if len(order) < 1:
            raise ValueError("extract must select at least one sentence")
        if len(set(order)) != len(order):
            raise ValueError("extract order has duplicate indices")
        for p in likelihood:
            if not 0 < p <= 1:
                raise ValueError("selection likelihoods must lie in (0, 1]")
        self.order = order
        self.likelihood = likelihood

    __eq__ = slots_eq


class Extractor(Protocol):
    def __call__(self, example: Example) -> ExtractResult: ...


class Abstractor(Protocol):
    def __call__(self, document: Document, extract: ExtractResult) -> tuple[tuple[str, ...], ...]: ...


def extract_lead(document: Document, k: int) -> ExtractResult:
    """First min(k, N) sentences; P(s) = 1/(1 + position)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(document)
    return ExtractResult(order=tuple(range(min(k, n))), likelihood=tuple(1.0 / (1 + i) for i in range(n)))


def extract_greedy_oracle(
    examples: Sequence[Example], k: int, weights: RewardWeights
) -> list[ExtractResult]:
    """Greedy reward-maximizing extractor used to build training data, run
    on a batch of examples at once.

    For each document, adds the sentence with the best marginal reward gain
    (ties: lowest index) until k sentences are selected or no addition
    strictly improves the reward. Selected sentences get P(s) = softmax
    over their selection-step gains; unselected ones get a small positive
    floor. Results are in input order.

    The statistics of every sentence of the batch come from one
    `split_entries` call, and each step scores all sentences as flat rows,
    from the selection's integer totals plus every candidate's marginal
    ones. Against a selection, an n-gram column still has `room` =
    max(reference count - selected count, 0), so a candidate adds
    min(count, room) over its n-gram entries to the clipped overlap; it
    adds its matched reference positions that are still `free` (unmatched
    by the selection), and its token and bigram totals. These are exactly
    the integers of `SplitEntries.totals` of the selection plus the
    candidate, and `f_measures` turns them into `reward`'s values bit for
    bit. A document's best row is the first maximum over its rows
    (`reduceat` over the document starts); a document that has stopped
    takes no more sentences.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    entries = split_entries([[s.tokens for s in ex.document.sentences] for ex in examples],
                            [ex.reference for ex in examples])
    (version, column, count), (matched, position) = entries.ngrams.T, entries.matches.T
    sizes = np.array([len(ex.document) for ex in examples], dtype=np.intp)
    D, V = len(sizes), int(sizes.sum())
    starts = np.cumsum(sizes) - sizes
    owner = entries.owner  # each row's document
    kind = 2 * version + entries.bigram[column]  # the entry's row's unigram or bigram overlap
    room = entries.ref_counts.copy()
    free = np.ones(int(entries.ref_tokens.sum()), dtype=bool)
    marginal = np.zeros((V, 5), dtype=np.int64)
    marginal[:, TOKENS] = entries.length
    marginal[:, BIGRAMS] = np.maximum(entries.length - 1, 0)
    base = np.zeros((D, 5), dtype=np.int64)  # the selection's totals
    unselected = np.ones(V, dtype=bool)
    steps = min(k, int(sizes.max(initial=0)))
    active = np.ones(D, dtype=bool)
    current = np.zeros(D)
    order = np.zeros((D, steps), dtype=np.intp)
    gains = np.zeros((D, steps))
    taken = np.zeros(D, dtype=np.intp)
    for step in range(steps):
        overlap = np.bincount(kind, np.minimum(count, room[column]), minlength=2 * V)
        marginal[:, UNIGRAM_OVERLAP : BIGRAM_OVERLAP + 1] = overlap.reshape(V, 2)
        marginal[:, LCS_MATCHES] = np.bincount(matched, free[position], minlength=V)
        totals = marginal + base[owner]
        rewards = weights.combine(*f_measures(totals, entries.ref_tokens[owner], entries.ref_bigrams[owner]))
        rewards[~unselected] = -np.inf
        best_reward = np.maximum.reduceat(rewards, starts)
        best = np.minimum.reduceat(np.where(rewards == best_reward[owner], np.arange(V), V), starts)
        take = (active & (best_reward > current)) if step else active
        chosen = best[take]
        order[take, step] = chosen - starts[take]
        gains[take, step] = best_reward[take] - current[take]
        current[take] = best_reward[take]
        unselected[chosen] = False
        base[take] = totals[chosen]
        picked = np.zeros(V, dtype=bool)
        picked[chosen] = True
        # one chosen row per document, so no column or reference position repeats
        mine = picked[version]
        room[column[mine]] = np.maximum(room[column[mine]] - count[mine], 0)
        free[position[picked[matched]]] = False
        taken += take
        active = take & (taken < np.minimum(sizes, k))
        if not active.any():
            break
    results = []
    for j, n in enumerate(taken.tolist()):
        g = gains[j, :n]
        p_sel = np.exp(g - g.max())
        p_sel /= p_sel.sum()
        likelihood = [UNSELECTED_LIKELIHOOD] * int(sizes[j])
        selected = order[j, :n].tolist()
        for i, p in zip(selected, p_sel.tolist()):
            likelihood[i] = p
        results.append(ExtractResult(order=tuple(selected), likelihood=tuple(likelihood)))
    return results


def extract_batch(extractor: Extractor, examples: Sequence[Example]) -> list[ExtractResult]:
    """`extractor` applied to every example; the greedy oracle extractor
    takes them as one batch."""
    if isinstance(extractor, GreedyOracleExtractor):
        return extract_greedy_oracle(examples, extractor.k, extractor.weights)
    return [extractor(ex) for ex in examples]


def rescale_attention(weights: Sequence[float], likelihoods: Sequence[float]) -> list[float]:
    """C'(w) = C(w) * P(s) / Z with Z the sum of C(w) * P(s) over the chunk;
    likelihoods[j] is P(s) of the sentence that holds weights[j]."""
    scaled = [w * p for w, p in zip(weights, likelihoods)]
    # Z adds left to right: builtin `sum` compensates float rounding from
    # Python 3.12 on, and `np.cumsum` costs several times this loop here
    z = 0.0
    for w in scaled:
        z += w
    if z <= 0:
        raise ValueError("degenerate attention: normalization term is zero")
    return [w / z for w in scaled]


def abstract_extract(document: Document, extract: ExtractResult, ratio: float) -> tuple[tuple[str, ...], ...]:
    """The abstraction of every extracted sentence, in extract order.

    Sentence i's chunk is sentences {i-1, i, i+1} clipped to the document.
    A chunk token t scores log(1 + m / df(t)), with m the chunk's sentence
    count and df(t) the number of them that hold t, or STOPWORD_SCORE for a
    stopword; `rescale_attention` scales the scores by P(s) and normalizes
    them over the chunk. The abstraction keeps, in original order, the
    center-sentence tokens whose cumulative weight (taken by descending
    weight, ties to the earlier token) first covers `ratio` of the center's
    weight, so it is never empty.

    Raises ValueError naming the example if the extract's likelihood misses
    a chunk sentence or a chunk's weights add to zero.
    """
    sentences, likelihood, out = document.sentences, extract.likelihood, []
    for i in extract.order:
        if not 0 <= i < len(sentences):
            raise IndexError(f"sentence index {i} out of range")
        lo, hi = max(0, i - 1), min(len(sentences), i + 2)
        if hi > len(likelihood):
            raise ValueError(f"{document.id}: extract likelihood has no entry for sentence "
                             f"{max(lo, len(likelihood))} (chunk of extracted sentence {i})")
        chunk = [s.tokens for s in sentences[lo:hi]]
        df: dict[str, int] = {}
        for tokens in chunk:
            for t in set(tokens):
                df[t] = df.get(t, 0) + 1
        m = len(chunk)
        scores = [STOPWORD_SCORE if t in STOPWORDS else math.log(1 + m / df[t]) for tokens in chunk for t in tokens]
        try:
            weights = rescale_attention(scores, [likelihood[j] for j in range(lo, hi) for _ in sentences[j].tokens])
        except ValueError as exc:
            raise ValueError(f"{document.id}: {exc} (chunk of extracted sentence {i})") from None
        start = len(chunk[0]) if i > lo else 0
        center = weights[start : start + len(sentences[i].tokens)]
        total = 0.0
        for w in center:
            total += w  # left to right, as rescale_attention's Z
        goal, kept, cum = ratio * total - 1e-12, [], 0.0
        for pos in sorted(range(len(center)), key=lambda pos: (-center[pos], pos)):
            kept.append(pos)
            cum += center[pos]
            if cum >= goal:
                break
        out.append(tuple(sentences[i].tokens[pos] for pos in sorted(kept)))
    return tuple(out)


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
        if not 0 < ratio <= 1:
            raise ValueError("ratio must lie in (0, 1]")
        self.ratio = ratio

    def __call__(self, document: Document, extract: ExtractResult) -> tuple[tuple[str, ...], ...]:
        return abstract_extract(document, extract, self.ratio)
