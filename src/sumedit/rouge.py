"""ROUGE-1/2/L F-measures and the weighted composite reward.

ROUGE-L is the summary-level variant: for each reference sentence, the union
of LCS-matched token positions against all candidate sentences. All scores are
full-length F; degenerate inputs yield zeros rather than NaN so the reward is
a total function.

`reward` scores one summary. `split_entries` computes, for a whole split in
one pass, every sentence version's nonzero n-gram counts and its
LCS-matched reference positions, as one flat record (`SplitEntries`): the
n-gram columns and reference positions of all examples are numbered
example-major, so no array is padded to the widest reference. A summary
made of some of an example's versions has the sum of their counts and the
union of their matched positions as its statistics. `SplitEntries.totals`
reduces those of one summary per example to five integer totals, and
`f_measures` turns totals into ROUGE-1/2/L F-measures with `reward`'s float
expressions (bit-identical); the trainer and the greedy extractor score
from the entries so. The oracle scores its grids of 3^l summaries per
example from dense records (`SplitEntries.stats`, `SplitStats.rewards`).
The one-example-at-a-time builder these replaced is the slow reference in
tests/reference.py.

`reward` aligns one pair of sentences at a time with `_lcs_positions`, the
textbook LCS table. `split_entries` runs that table and its traceback for
every (version, reference sentence) pair of its split that shares a token
at once, in lockstep (`_lcs_matched`). The program and its reference run one
recurrence, and `_lcs_positions` is the reference `_lcs_matched` is tested
against.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

import numpy as np

from . import slots_eq

TokenList = Sequence[str]


class RougeScore:
    __slots__ = ("precision", "recall", "f1")

    def __init__(self, precision: float, recall: float, f1: float):
        self.precision = precision
        self.recall = recall
        self.f1 = f1

    __eq__ = slots_eq

    @staticmethod
    def zero() -> "RougeScore":
        return RougeScore(0.0, 0.0, 0.0)


class RewardWeights:
    __slots__ = ("alpha", "beta", "gamma")

    def __init__(self, alpha: float = 0.4, beta: float = 1.0, gamma: float = 0.5):
        if not all(map(math.isfinite, (alpha, beta, gamma))):
            raise ValueError("weights must be finite")
        if min(alpha, beta, gamma) < 0:
            raise ValueError("weights must be non-negative")
        if alpha == beta == gamma == 0:
            raise ValueError("at least one weight must be positive")
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma

    def combine(self, r1, r2, rl):
        """alpha*R1 + beta*R2 + gamma*RL, of floats or of arrays alike."""
        return self.alpha * r1 + self.beta * r2 + self.gamma * rl


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def _ngrams(tokens: TokenList, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _pooled_ngrams(text, n: int) -> Counter:
    """Pool n-grams per sentence; a flat token list counts as one sentence.

    N-grams never cross sentence boundaries.
    """
    if text and not isinstance(text[0], str):
        counts: Counter = Counter()
        for sent in text:
            counts.update(_ngrams(sent, n))
        return counts
    return _ngrams(text, n)


def rouge_n(candidate, reference: Sequence[TokenList], n: int) -> RougeScore:
    """Clipped n-gram overlap against the pooled reference n-gram multiset.

    `candidate` is a flat token list or a list of sentence token lists.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cand = _pooled_ngrams(candidate, n)
    ref = _pooled_ngrams(reference, n)
    cand_total = sum(cand.values())
    ref_total = sum(ref.values())
    if cand_total == 0 or ref_total == 0:
        return RougeScore.zero()
    overlap = sum(min(c, ref[g]) for g, c in cand.items())
    p = overlap / cand_total
    r = overlap / ref_total
    return RougeScore(p, r, _f1(p, r))


def _lcs_positions(ref: TokenList, cand: TokenList) -> list[int]:
    """Positions in `ref` matched by one canonical LCS alignment with `cand`,
    in descending order: the textbook LCS table dp over `ref[:i]` and
    `cand[:j]`, walked back from (|ref|, |cand|) until dp reaches 0, diagonal
    on a token match, else up when dp[i-1][j] >= dp[i][j-1], else left."""
    if set(cand).isdisjoint(ref):
        return []
    dp = [[0] * (len(cand) + 1)]
    for t in ref:
        above, row, left = dp[-1], [0], 0
        for j, c in enumerate(cand):
            if t == c:
                left = above[j] + 1
            elif above[j + 1] > left:
                left = above[j + 1]
            row.append(left)
        dp.append(row)
    matched: list[int] = []
    i, j = len(ref), len(cand)
    while dp[i][j]:
        if ref[i - 1] == cand[j - 1]:
            i -= 1
            j -= 1
            matched.append(i)
        elif dp[i - 1][j] >= dp[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return matched


def rouge_l(candidate: Sequence[TokenList], reference: Sequence[TokenList]) -> RougeScore:
    """Summary-level ROUGE-L over per-reference-sentence LCS position unions."""
    ref_total = sum(len(s) for s in reference)
    cand_total = sum(len(s) for s in candidate)
    if ref_total == 0 or cand_total == 0:
        return RougeScore.zero()
    matched = 0
    for ref_sent in reference:
        union: set[int] = set()
        for cand_sent in candidate:
            union.update(_lcs_positions(ref_sent, cand_sent))
        matched += len(union)
    p = min(1.0, matched / cand_total)
    r = min(1.0, matched / ref_total)
    return RougeScore(p, r, _f1(p, r))


def reward(
    candidate: Sequence[TokenList],
    reference,
    weights: RewardWeights = RewardWeights(),
) -> float:
    """Weighted F-measure sum: alpha*R1 + beta*R2 + gamma*RL.

    `reference` is a ReferenceSummary or a plain list of token lists.
    """
    ref_sents = getattr(reference, "sentences", reference)
    r1 = rouge_n(candidate, ref_sents, 1).f1
    r2 = rouge_n(candidate, ref_sents, 2).f1
    rl = rouge_l(candidate, ref_sents).f1
    return weights.combine(r1, r2, rl)




# Columns of the integer totals of a summary (`SplitEntries.totals`).
UNIGRAM_OVERLAP, BIGRAM_OVERLAP, TOKENS, BIGRAMS, LCS_MATCHES = range(5)


class SplitStats:
    """ROUGE statistics of S sentence versions of each of N examples, each
    against its own reference, as one dense integer record: the record
    that the oracle scores its reward grids from (`SplitEntries.stats`).

    Row `counts[j, v]` holds version v of example j: its counts in the
    n-gram columns that example j's versions touch, unigrams in columns
    0 .. unigrams - 1 and bigrams from `unigrams` on (an example fills the
    start of each block; the rest is zero), then its token and bigram
    totals. `lcs[j, v]` marks its LCS-matched reference positions among
    those that example j's versions match. A summary made of some of an
    example's versions has the sum of their `counts` rows and the OR of
    their `lcs` rows as its statistics (n-grams never cross a sentence
    boundary; summary-level ROUGE-L is a union of per-sentence matched
    positions), and `rewards` turns those into `reward`'s value bit for bit.
    """

    __slots__ = ("counts", "lcs", "ref_counts", "unigrams", "ref_tokens", "ref_bigrams")

    def __init__(self, counts, lcs, ref_counts, unigrams, ref_tokens, ref_bigrams):
        self.counts = counts  # (N, S, W + 2) int64
        self.lcs = lcs  # (N, S, T) bool
        self.ref_counts = ref_counts  # (N, W) reference counts of the columns, zero-padded
        self.unigrams = unigrams  # the unigram columns: 0 .. unigrams - 1
        self.ref_tokens = ref_tokens  # (N,) int64
        self.ref_bigrams = ref_bigrams  # (N,) int64

    def rewards(
        self, counts: np.ndarray, lcs: np.ndarray, weights: RewardWeights = RewardWeights()
    ) -> np.ndarray:
        """`reward` (N, G) of G summaries of each example j, at row j, whose
        summed `counts` rows (N, G, W + 2) and OR-ed `lcs` rows (N, G, T)
        are given."""
        overlap = np.minimum(counts[..., :-2], self.ref_counts[:, None])
        totals = np.stack(
            [
                overlap[..., : self.unigrams].sum(axis=-1),
                overlap[..., self.unigrams :].sum(axis=-1),
                counts[..., -2],
                counts[..., -1],
                lcs.sum(axis=-1),
            ],
            axis=-1,
        )
        return weights.combine(*f_measures(totals, self.ref_tokens[:, None], self.ref_bigrams[:, None]))


def f_measures(totals: np.ndarray, ref_tokens, ref_bigrams) -> tuple[np.ndarray, ...]:
    """ROUGE-1, ROUGE-2 and ROUGE-L F of every summary with the given
    integer totals (columns UNIGRAM_OVERLAP ... LCS_MATCHES), against
    references of `ref_tokens` tokens and `ref_bigrams` bigrams (scalars, or
    arrays that broadcast against the leading axes of `totals`), as
    `rouge_n` and `rouge_l` compute them."""
    tokens = totals[..., TOKENS]
    return (
        _f1_array(totals[..., UNIGRAM_OVERLAP], tokens, ref_tokens),
        _f1_array(totals[..., BIGRAM_OVERLAP], totals[..., BIGRAMS], ref_bigrams),
        _f1_array(totals[..., LCS_MATCHES], tokens, ref_tokens, clamp=True),
    )


def _f1_array(overlap: np.ndarray, total: np.ndarray, ref_total, clamp: bool = False) -> np.ndarray:
    """Elementwise F-measure in `rouge_n`'s (and, clamped, `rouge_l`'s) float
    expressions; zero where either total is zero or p + r is not positive."""
    valid = (total > 0) & (ref_total > 0)
    p = overlap / np.where(valid, total, 1)
    r = overlap / np.where(ref_total > 0, ref_total, 1)
    if clamp:
        p = np.minimum(1.0, p)
        r = np.minimum(1.0, r)
    s = p + r
    valid &= s > 0
    return np.where(valid, 2 * p * r / np.where(valid, s, 1.0), 0.0)


def _ngrams_of(ids: list[int], lengths: list[int]) -> tuple[np.ndarray, ...]:
    """Of sentences given as their concatenated token ids and their lengths:
    the ids (T,), each token's sentence (T,), and the first and second id
    and the sentence of every bigram inside one sentence."""
    tokens = np.array(ids, dtype=np.int64)
    sentence = np.repeat(np.arange(len(lengths)), np.array(lengths, dtype=np.intp))
    inner = np.flatnonzero(sentence[1:] == sentence[:-1])
    return tokens, sentence, tokens[inner], tokens[inner + 1], sentence[inner]


# Bound on the padded LCS table cells ((most hits + 1) x (longest version +
# 1), over its pairs) of one block of (version, reference sentence) pairs in
# `_lcs_matched`; a block of one pair may exceed it.
LCS_ENTRIES = 1 << 18


def _lcs_matched(ref_key, ref_sentence, key, version, pos, length, sentences) -> np.ndarray:
    """`_lcs_positions` of every (version, reference sentence) pair of a
    split at once, as the keys g * R + r of the matched reference tokens r
    of each version g, for R reference tokens in all.

    Reference token r has key `ref_key[r]` and is in sentence
    `ref_sentence[r]` of its example's reference; version token `pos` of
    version `version` has key `key` (tokens no reference has are left out);
    version g has `length[g]` tokens, and its example's reference
    `sentences[g]` sentences.

    A reference token the version lacks leaves the row above in the pair's
    LCS table unchanged, so only the rows of the pair's hits, the reference
    tokens it has, are computed. The join of the reference tokens with the
    version tokens of equal key gives every pair that shares a token, with
    its hits in order. Pairs sorted by hits go in blocks of at most
    LCS_ENTRIES padded table cells, and each block runs `_lcs_positions`'s
    table and traceback in lockstep (`_lcs_block`).
    """
    if not len(key):
        return np.zeros(0, dtype=np.int64)
    order = np.lexsort((pos, version, key))
    key, version, pos = key[order], version[order], pos[order]
    # the join, in order of r and then of (version, pos): entry e is
    # reference token r against version token u of its key; version g has a
    # pair with each of the `sentences[g]` reference sentences of its example
    lo, hi = np.searchsorted(key, ref_key), np.searchsorted(key, ref_key, side="right")
    n = hi - lo
    r = np.repeat(np.arange(len(ref_key)), n)
    u = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(int(n.sum()))
    pair = (np.cumsum(sentences) - sentences)[version[u]] + ref_sentence[r]
    first = np.ones(len(key), dtype=bool)  # of a (key, version) run: one hit per pair it joins
    first[1:] = (key[1:] != key[:-1]) | (version[1:] != version[:-1])
    hits = np.bincount(pair[first[u]], minlength=int(sentences.sum()))
    shared = np.flatnonzero(hits)
    shared = shared[np.argsort(hits[shared], kind="stable")]
    rank = np.empty(len(hits), dtype=np.int64)
    rank[shared] = np.arange(len(shared))
    # the pairs that share a token, in ascending order of hits, so that a
    # block's pairs with more than h hits are a suffix; a stable sort keeps
    # each pair's entries in order of r
    order = np.argsort(rank[pair], kind="stable")
    r, u, pair = r[order], u[order], rank[pair[order]]
    hits, C = hits[shared], length[np.repeat(np.arange(len(sentences)), sentences)[shared]]
    hit = np.cumsum(first[u]) - 1 - (np.cumsum(hits) - hits)[pair]
    target = version[u] * len(ref_key) + r
    matched = []
    start = 0
    while start < len(hits):
        # no block from `start` holds more pairs: a later pair has at least as many cells
        most = max(1, LCS_ENTRIES // int((hits[start] + 1) * (C[start] + 1)))
        h, c = hits[start : start + most] + 1, np.maximum.accumulate(C[start : start + most]) + 1
        end = start + max(1, int(np.searchsorted(h * c * np.arange(1, len(h) + 1), LCS_ENTRIES, side="right")))
        e = slice(*np.searchsorted(pair, [start, end]))
        matched.append(_lcs_block(pair[e] - start, hit[e], pos[u[e]], target[e], hits[start:end], C[start:end]))
        start = end
    return np.concatenate(matched)


def _lcs_block(pair, hit, pos, target, hits, C) -> np.ndarray:
    """`_lcs_matched` of one block of P pairs, in ascending order of `hits`:
    entry e matches hit `hit[e]` of pair `pair[e]`, whose reference token
    has key `target[e]`, with token `pos[e]` of the pair's version; pair p
    has `hits[p]` hits and a version of `C[p]` tokens."""
    P, H, W = len(C), int(hits[-1]), int(C.max())
    # dp[p, k, j]: the LCS table of pair p over its reference sentence up to
    # hit k (row 0: none) and its version's first j tokens; match[p, k, j]:
    # whether hit k is the version's token j. A row never falls from left to
    # right and rises by at most one a column, so the textbook cell is the
    # running maximum of max(above[j], above[j-1] + match) along the row.
    dp = np.zeros((P, H + 1, W + 1), dtype=np.min_scalar_type(H))
    match = np.zeros(dp.shape, dtype=bool)
    match[pair, hit + 1, pos + 1] = True
    targets = np.zeros((P, H + 1), dtype=np.int64)
    targets[pair, hit + 1] = target
    for k, lo in enumerate(np.searchsorted(hits, np.arange(H), side="right").tolist()):
        above = dp[lo:, k]  # the pairs with more than k hits
        np.maximum.accumulate(np.maximum(above[:, 1:], above[:, :-1] + match[lo:, k + 1, 1:]), axis=1,
                              out=dp[lo:, k + 1, 1:])

    # The traceback, at the flat cells of the pairs while dp is positive:
    # diagonal on a match, else up when dp one row up is at least dp one
    # column left, else left. The table would go straight up through the
    # reference tokens between two hits, so they have no rows.
    dp, match = dp.ravel(), match.ravel()
    at = (np.arange(P) * (H + 1) + hits) * (W + 1) + C
    matched = []
    while len(at):
        diagonal = match[at]
        matched.append(at[diagonal])
        up = diagonal | (dp[at - W - 1] >= dp[at - 1])
        at = at - up * (W + 1) - (diagonal | ~up)
        at = at[dp[at] > 0]
    return targets.ravel()[np.concatenate(matched) // (W + 1)]


class SplitEntries:
    """The ROUGE statistics of a split's sentence versions, numbered flat (an
    example's versions are consecutive), as each version's nonzero entries.

    N-gram columns are numbered example-major: example j's reference
    unigrams, then its reference bigrams. Reference positions are numbered
    the same way, over every example's concatenated reference tokens.
    Version g of example `owner[g]` has `length[g]` tokens; each row
    (g, column, count) of `ngrams` is its count in a column of its example,
    and each row (g, position) of `matches` a reference position of its
    example that `_lcs_positions` matches against it. Both are sorted.
    """

    __slots__ = ("owner", "length", "ngrams", "matches", "ref_counts", "column_example", "bigram", "ref_tokens",
                 "ref_bigrams")

    def __init__(self, owner, length, ngrams, matches, ref_counts, column_example, bigram, ref_tokens, ref_bigrams):
        self.owner = owner  # (V,) int64
        self.length = length  # (V,) int64
        self.ngrams = ngrams  # (E, 3) int64
        self.matches = matches  # (M, 2) int64
        self.ref_counts = ref_counts  # (K,) int64, of each column
        self.column_example = column_example  # (K,) int64, the example of each column
        self.bigram = bigram  # (K,) bool, whether each column is a bigram column
        self.ref_tokens = ref_tokens  # (N,) int64
        self.ref_bigrams = ref_bigrams  # (N,) int64

    def stats(self, examples, first, rows: int) -> SplitStats:
        """The dense `SplitStats` of versions first[i] .. first[i] + rows - 1
        of each example `examples[i]`, over only the columns and reference
        positions those versions touch: an example's unigram columns in
        order from 0, its bigram columns in order after the widest unigram
        block, and its positions in order from 0."""
        first = np.asarray(first, dtype=np.int64)
        (g, column, count), (m, position) = self.ngrams.T, self.matches.T
        n, K, R = len(first), len(self.ref_counts), int(self.ref_tokens.sum())
        e, i = _entries_of(g, first, rows)
        # each touched column, keyed by its group: 2i for a unigram column of example i, 2i + 1 for a bigram one
        cols, at = np.unique((2 * i + self.bigram[column[e]]) * K + column[e], return_inverse=True)
        group = cols // K
        rank, widths = _ranks(group, 2 * n)
        u, b = int(widths[0::2].max(initial=0)), int(widths[1::2].max(initial=0))
        place = rank + u * (group & 1)
        counts = np.zeros((n, rows, u + b + 2), dtype=np.int64)
        counts[i, g[e] - first[i], place[at]] = count[e]
        length = self.length[first[:, None] + np.arange(rows)]
        counts[:, :, -2] = length
        counts[:, :, -1] = np.maximum(length - 1, 0)
        ref_counts = np.zeros((n, u + b), dtype=np.int64)
        ref_counts[group >> 1, place] = self.ref_counts[cols % K]
        e, i = _entries_of(m, first, rows)
        cols, at = np.unique(i * R + position[e], return_inverse=True)
        rank, widths = _ranks(cols // R, n)
        lcs = np.zeros((n, rows, int(widths.max(initial=0))), dtype=bool)
        lcs[i, m[e] - first[i], rank[at]] = True
        return SplitStats(counts, lcs, ref_counts, u, self.ref_tokens[examples], self.ref_bigrams[examples])

    def totals(self, chosen: np.ndarray) -> np.ndarray:
        """Integer totals (N, 5) of each example's summary of the versions
        that `chosen` (V,) marks, in columns UNIGRAM_OVERLAP ... LCS_MATCHES:
        each column's counts summed over the chosen versions, then clipped
        to its reference count, and each matched reference position counted
        once. (The float sums of these small integers are exact.)"""
        N, K = len(self.ref_tokens), len(self.ref_counts)
        (g, column, count), (m, position) = self.ngrams.T, self.matches.T
        e, hit = chosen[g], chosen[m]
        clipped = np.minimum(np.bincount(column[e], count[e], minlength=K), self.ref_counts)
        overlap = np.bincount(2 * self.column_example + self.bigram, clipped, minlength=2 * N).reshape(N, 2)
        owner, length = self.owner[chosen], self.length[chosen]
        tokens = np.bincount(owner, length, minlength=N)
        bigrams = np.bincount(owner, np.maximum(length - 1, 0), minlength=N)
        _, first = np.unique(position[hit], return_index=True)  # one chosen match per matched position
        matched = np.bincount(self.owner[m[hit][first]], minlength=N)
        return np.column_stack([overlap, tokens, bigrams, matched]).astype(np.int64)


def _entries_of(version: np.ndarray, first: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Of entries sorted by `version`: the indices of those of versions
    first[i] .. first[i] + rows - 1, and the i of each."""
    lo, hi = np.searchsorted(version, first), np.searchsorted(version, first + rows)
    n = hi - lo
    return np.repeat(lo - np.cumsum(n) + n, n) + np.arange(int(n.sum())), np.repeat(np.arange(len(first)), n)


def _ranks(group: np.ndarray, groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Of sorted group numbers below `groups`: each one's rank in its group,
    and the size of every group."""
    widths = np.bincount(group, minlength=groups)
    return np.arange(len(group)) - (np.cumsum(widths) - widths)[group], widths


def split_entries(versions: Sequence[Sequence[TokenList]], references: Sequence) -> SplitEntries:
    """`SplitEntries` of the sentence versions `versions[j]` of every
    example j against `references[j]` (a ReferenceSummary or a plain list
    of token lists).

    One dict pass gives every token an id in its example's reference
    vocabulary, in order of first appearance (-1 for a token the reference
    lacks); a unigram's column is its example's first column plus its id. A
    bigram is a key made of its example and its two ids; the distinct
    reference keys (`np.unique`) are, in order, the bigram columns of every
    example, and a version bigram of two known tokens finds its column by
    `searchsorted`. The n-gram entries are the distinct (version, column)
    cells of all these hits with their counts (one more `np.unique`). The
    LCS entries come from `_lcs_matched`, which aligns the pairs that share
    a token in lockstep, keyed by the same token ids.
    """
    refs = [getattr(r, "sentences", r) for r in references]
    N = len(versions)
    vocabs: list[dict[str, int]] = [{} for _ in refs]
    ref_ids = [vocab.setdefault(t, len(vocab)) for ref, vocab in zip(refs, vocabs) for sent in ref for t in sent]
    ids = [get(t, -1) for vs, get in zip(versions, [v.get for v in vocabs]) for sent in vs for t in sent]
    U = np.array([len(vocab) for vocab in vocabs], dtype=np.int64)
    # example j's bigram (a, b) is key offset[j] + a * U[j] + b
    offset = np.cumsum(U * U) - U * U

    ref_sentences = np.array([len(ref) for ref in refs], dtype=np.intp)
    ref_owner = np.repeat(np.arange(N), ref_sentences)
    ref_tok, ref_sent, first, second, pair_sent = _ngrams_of(ref_ids, [len(s) for ref in refs for s in ref])
    ref_example = ref_owner[ref_sent]
    owner = ref_owner[pair_sent]
    keys, at, ref_pair_counts = np.unique(
        offset[owner] + first * U[owner] + second, return_index=True, return_counts=True
    )
    B = np.bincount(owner[at], minlength=N)
    # example j's columns start at columns[j]; its bigram key b is column b + unigrams_to[j]
    columns, unigrams_to = np.cumsum(U + B) - U - B, np.cumsum(U)
    column_example = np.repeat(np.arange(N), U + B)
    K = len(column_example)
    ref_counts = np.bincount(columns[ref_example] + ref_tok, minlength=K)
    ref_counts[np.arange(len(keys)) + unigrams_to[owner[at]]] = ref_pair_counts

    owner = np.repeat(np.arange(N), np.array([len(vs) for vs in versions], dtype=np.intp))
    lengths = [len(sent) for vs in versions for sent in vs]
    tok, sent, first, second, pair_sent = _ngrams_of(ids, lengths)
    length = np.array(lengths, dtype=np.int64)

    # a token's key is its id in the reference vocabulary of all examples
    vocab_start = unigrams_to - U
    kept = np.flatnonzero(tok >= 0)
    version = sent[kept]
    matched = _lcs_matched(
        ref_key=vocab_start[ref_example] + ref_tok,
        ref_sentence=ref_sent - (np.cumsum(ref_sentences) - ref_sentences)[ref_example],
        key=vocab_start[owner[version]] + tok[kept],
        version=version,
        pos=kept - (np.cumsum(length) - length)[version],
        length=length,
        sentences=ref_sentences[owner],
    )

    known = (first >= 0) & (second >= 0)
    first, second, pair_sent = first[known], second[known], pair_sent[known]
    pair_owner = owner[pair_sent]
    pair_keys = offset[pair_owner] + first * U[pair_owner] + second
    col = np.searchsorted(keys, pair_keys)
    hit = np.append(keys, -1)[col] == pair_keys
    cells, counts = np.unique(
        np.concatenate([version * K + columns[owner[version]] + tok[kept],
                        pair_sent[hit] * K + col[hit] + unigrams_to[pair_owner[hit]]]),
        return_counts=True,
    )
    return SplitEntries(
        owner,
        length,
        np.column_stack([*np.divmod(cells, K), counts]),
        np.column_stack(np.divmod(np.sort(matched), len(ref_tok))),
        ref_counts, column_example, np.arange(K) >= (columns + U)[column_example],
        np.bincount(ref_example, minlength=N),
        np.array([sum(max(len(s) - 1, 0) for s in ref) for ref in refs], dtype=np.int64),
    )
