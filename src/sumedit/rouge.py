"""ROUGE-1/2/L F-measures and the weighted composite reward.

ROUGE-L is the summary-level variant: for each reference sentence, the union
of LCS-matched token positions against all candidate sentences. All scores are
full-length F; degenerate inputs yield zeros rather than NaN so the reward is
a total function.

`reward` scores one summary. `split_stats` computes, for a whole split in one
pass, every sentence version's n-gram counts over its example's reference
n-grams and its LCS-matched reference positions, padded into one integer
record (`SplitStats`). A summary built from some of an example's versions has
the sum of their count rows and the OR of their LCS rows as its statistics;
`SplitStats.totals` reduces these to five integer totals, and `f_measures`
turns the totals of any number of summaries, of one reference or of many,
into ROUGE-1/2/L F-measures with `reward`'s float expressions (the results
are bit-identical). `SplitStats.rewards` chains the two. The oracle, the
greedy extractor and the trainer all take their statistics from it; the
one-example-at-a-time builder it replaced is the slow reference in
tests/reference.py.

Both paths align sentences with `_lcs_positions`, which keeps each row of the
LCS table as one int of bits over the candidate's positions (the bit-vector
LCS of Allison & Dix 1986, "A bit-string longest-common-subsequence
algorithm") and walks the canonical traceback on it. The full-table dynamic
program it replaced is the slow reference in tests/test_rouge.py.
"""
from __future__ import annotations

from collections import Counter
from itertools import accumulate
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


def _match_masks(tokens: TokenList) -> dict[str, int]:
    """Bit j of `masks[t]` is set when `tokens[j] == t`."""
    masks: dict[str, int] = {}
    for j, t in enumerate(tokens):
        masks[t] = masks.get(t, 0) | 1 << j
    return masks


def _lcs_positions(ref: TokenList, cand: TokenList, masks: dict[str, int]) -> list[int]:
    """Positions in `ref` matched by one canonical LCS alignment with `cand`,
    in descending order; `masks` is `_match_masks(cand)`.

    Row i of the LCS table dp (over `ref[:i]` and `cand[:j]`) is kept as one
    int: bit j-1 is clear exactly where dp[i][j] = dp[i][j-1] + 1, so
    dp[i][j] = j - popcount(row & (2^j - 1)) (Allison & Dix 1986). A
    reference token that `cand` lacks leaves its row equal to the one above,
    so only the rows of `hits`, the reference tokens that `cand` has, are
    computed. The traceback is the textbook one from (|ref|, |cand|):
    diagonal on a token match, else up when dp[i-1][j] >= dp[i][j-1], else
    left. It goes straight up through rows outside `hits` and stops where
    dp reaches 0.
    """
    if masks.keys().isdisjoint(ref):
        return []
    hits = [(i, masks[t]) for i, t in enumerate(ref) if t in masks]
    full = (1 << len(cand)) - 1
    v = full
    rows = [v]  # rows[k + 1] is the row of hits[k], rows[k] the one above it
    for _, m in hits:
        u = v & m
        v = ((v + u) | (v - u)) & full
        rows.append(v)
    matched: list[int] = []
    k, j, low = len(hits) - 1, len(cand), full
    d = j - v.bit_count()
    while d:
        i, m = hits[k]
        if m >> (j - 1) & 1:
            matched.append(i)
            k -= 1
            j -= 1
            d -= 1
            low >>= 1
            continue
        up = j - (rows[k] & low).bit_count()
        left = d - 1 + (rows[k + 1] >> (j - 1) & 1)
        if up >= left:
            k -= 1
            d = up
        else:
            j -= 1
            d = left
            low >>= 1
    return matched


def rouge_l(candidate: Sequence[TokenList], reference: Sequence[TokenList]) -> RougeScore:
    """Summary-level ROUGE-L over per-reference-sentence LCS position unions."""
    ref_total = sum(len(s) for s in reference)
    cand_total = sum(len(s) for s in candidate)
    if ref_total == 0 or cand_total == 0:
        return RougeScore.zero()
    masks = [_match_masks(cand_sent) for cand_sent in candidate]
    matched = 0
    for ref_sent in reference:
        union: set[int] = set()
        for cand_sent, cand_masks in zip(candidate, masks):
            union.update(_lcs_positions(ref_sent, cand_sent, cand_masks))
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




# Columns of `SplitStats.totals`.
UNIGRAM_OVERLAP, BIGRAM_OVERLAP, TOKENS, BIGRAMS, LCS_MATCHES = range(5)


def _per_example(values: np.ndarray, ndim: int) -> np.ndarray:
    """Per-example `values` (N, ...) shaped to broadcast against (N, ..., ·)
    arrays of `ndim` dimensions."""
    return values.reshape(values.shape[:1] + (1,) * (ndim - 2) + values.shape[1:])


class SplitStats:
    """ROUGE statistics of the sentence versions of N examples, each against
    its own reference, padded to one integer record.

    Row `counts[j, v]` holds version v of example j: its counts of the
    example's reference unigrams in columns 0 .. unigrams - 1 and of its
    reference bigrams in columns unigrams .. C - 1 (an example fills the
    start of each block; the rest is zero), then the version's token and
    bigram totals in columns C and C + 1. `lcs[j, v]` marks the positions of
    the example's concatenated reference tokens (the first `ref_tokens[j]`
    of T) that `_lcs_positions` matches against the version, over every
    reference sentence. An empty version, or one past the end of its
    example's list, is a zero row.

    N-grams never cross a sentence boundary and summary-level ROUGE-L is a
    union of per-sentence matched positions, so a summary made of some of an
    example's versions has the sum of their `counts` rows and the OR of their
    `lcs` rows as its statistics, and `rewards` turns those into `reward`'s
    value bit for bit.
    """

    __slots__ = ("counts", "lcs", "ref_counts", "unigrams", "ref_tokens", "ref_bigrams")

    def __init__(
        self,
        counts: np.ndarray,  # (N, S, C + 2) int64
        lcs: np.ndarray,  # (N, S, T) bool
        ref_counts: np.ndarray,  # (N, C) reference n-gram counts, zero-padded
        unigrams: int,  # the unigram columns: 0 .. unigrams - 1
        ref_tokens: np.ndarray,  # (N,) int64
        ref_bigrams: np.ndarray,  # (N,) int64
    ):
        self.counts = counts
        self.lcs = lcs
        self.ref_counts = ref_counts
        self.unigrams = unigrams
        self.ref_tokens = ref_tokens
        self.ref_bigrams = ref_bigrams

    def totals(self, counts: np.ndarray, lcs: np.ndarray) -> np.ndarray:
        """Integer totals (N, ..., 5) of every summary whose summed `counts`
        rows (N, ..., C + 2) and OR-ed `lcs` rows (N, ..., T) are given,
        example j's summaries along axis 0 at j: clipped unigram and bigram
        overlap, tokens, bigrams and LCS-matched reference tokens (columns
        UNIGRAM_OVERLAP ... LCS_MATCHES)."""
        overlap = np.minimum(counts[..., :-2], _per_example(self.ref_counts, counts.ndim))
        return np.stack(
            [
                overlap[..., : self.unigrams].sum(axis=-1),
                overlap[..., self.unigrams :].sum(axis=-1),
                counts[..., -2],
                counts[..., -1],
                lcs.sum(axis=-1),
            ],
            axis=-1,
        )

    def rewards(
        self, counts: np.ndarray, lcs: np.ndarray, weights: RewardWeights = RewardWeights()
    ) -> np.ndarray:
        """`reward` (N, ...) of every summary whose summed `counts` rows and
        OR-ed `lcs` rows are given, as in `totals`."""
        ndim = counts.ndim
        ref_tokens = _per_example(self.ref_tokens, ndim)
        ref_bigrams = _per_example(self.ref_bigrams, ndim)
        return weights.combine(*f_measures(self.totals(counts, lcs), ref_tokens, ref_bigrams))

    def select(self, examples: Sequence[int], rows: int) -> "SplitStats":
        """The first `rows` versions of the given examples as a record of
        their own, cut to the widest one's n-gram columns and reference
        tokens."""
        U, C = self.unigrams, self.ref_counts.shape[1]
        ref_counts = self.ref_counts[examples]
        # an example's columns are the reference n-grams it has, so their
        # reference counts are positive and its padding columns zero
        u = int(np.count_nonzero(ref_counts[:, :U], axis=1).max(initial=0))
        b = int(np.count_nonzero(ref_counts[:, U:], axis=1).max(initial=0))
        cols = np.r_[0:u, U : U + b, C, C + 1]
        return SplitStats(
            counts=self.counts[examples, :rows][:, :, cols],
            lcs=self.lcs[examples, :rows, : self.ref_tokens[examples].max(initial=0)],
            ref_counts=ref_counts[:, cols[:-2]],
            unigrams=u,
            ref_tokens=self.ref_tokens[examples],
            ref_bigrams=self.ref_bigrams[examples],
        )


def f_measures(totals: np.ndarray, ref_tokens, ref_bigrams) -> tuple[np.ndarray, ...]:
    """ROUGE-1, ROUGE-2 and ROUGE-L F of every summary with the given
    `SplitStats.totals`, against references of `ref_tokens` tokens and
    `ref_bigrams` bigrams (scalars, or arrays that broadcast against the
    leading axes of `totals`), as `rouge_n` and `rouge_l` compute them."""
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


def split_stats(versions: Sequence[Sequence[TokenList]], references: Sequence) -> SplitStats:
    """`SplitStats` of the sentence versions `versions[j]` of every example
    j against `references[j]` (a ReferenceSummary or a plain list of token
    lists), padded to the longest list of versions.

    One dict pass gives every token an id in its example's reference
    vocabulary, in order of first appearance (-1 for a token the reference
    lacks), and a unigram's column is its id. A bigram is a key made of its
    example and its two ids; an example's bigram columns are its distinct
    reference keys (`np.unique`), and a version bigram of two known tokens
    finds its column by `searchsorted`. All counts then come from one
    `np.bincount`. The LCS rows take one `_lcs_positions` call per
    (version, reference sentence) pair; one without a common token returns
    at once.
    """
    refs = [getattr(r, "sentences", r) for r in references]
    N, S = len(versions), max(map(len, versions), default=0)
    vocabs: list[dict[str, int]] = [{} for _ in refs]
    ref_ids = [vocab.setdefault(t, len(vocab)) for ref, vocab in zip(refs, vocabs) for sent in ref for t in sent]
    sentences = [sent for vs in versions for sent in vs]
    ids = [get(t, -1) for vs, get in zip(versions, [v.get for v in vocabs]) for sent in vs for t in sent]
    U = np.array([len(vocab) for vocab in vocabs], dtype=np.int64)
    # example j's bigram (a, b) is key offset[j] + a * U[j] + b
    offset = np.cumsum(U * U) - U * U

    ref_owner = np.repeat(np.arange(N), np.array([len(ref) for ref in refs], dtype=np.intp))
    tok, sent, first, second, pair_sent = _ngrams_of(ref_ids, [len(s) for ref in refs for s in ref])
    owner = ref_owner[pair_sent]
    cols, at, ref_pair_counts = np.unique(
        offset[owner] + first * U[owner] + second, return_index=True, return_counts=True
    )
    col_owner = owner[at]
    rank = np.arange(len(cols)) - np.searchsorted(col_owner, col_owner)
    CU = int(U.max(initial=0))
    C = CU + int(np.bincount(col_owner, minlength=N).max(initial=0))
    ref_counts = np.zeros((N, C), dtype=np.int64)
    ref_counts[:, :CU] = np.bincount(ref_owner[sent] * CU + tok, minlength=N * CU).reshape(N, CU)
    ref_counts[col_owner, CU + rank] = ref_pair_counts

    per_example = np.array([len(vs) for vs in versions], dtype=np.intp)
    owner = np.repeat(np.arange(N), per_example)
    row = owner * S + np.arange(len(sentences)) - np.repeat(np.cumsum(per_example) - per_example, per_example)
    lengths = [len(s) for s in sentences]
    tok, sent, first, second, pair_sent = _ngrams_of(ids, lengths)
    known = (first >= 0) & (second >= 0)
    first, second, pair_sent = first[known], second[known], pair_sent[known]
    owner = owner[pair_sent]
    keys = offset[owner] + first * U[owner] + second
    col = np.searchsorted(cols, keys)
    hit = np.append(cols, -1)[col] == keys
    cells = np.concatenate(
        [(row[sent] * (C + 2) + tok)[tok >= 0], row[pair_sent][hit] * (C + 2) + CU + rank[col[hit]]]
    )
    counts = np.bincount(cells, minlength=N * S * (C + 2)).astype(np.int64, copy=False)
    counts = counts.reshape(N, S, C + 2)
    length = np.array(lengths, dtype=np.int64)
    counts.reshape(-1, C + 2)[row, C] = length
    counts.reshape(-1, C + 2)[row, C + 1] = np.maximum(length - 1, 0)

    ref_tokens = np.array([sum(map(len, ref)) for ref in refs], dtype=np.int64)
    T = int(ref_tokens.max(initial=0))
    matched: list[int] = []  # flat indices into lcs
    for j, (vs, ref) in enumerate(zip(versions, refs)):
        starts = list(accumulate(map(len, ref), initial=0))
        for v, version in enumerate(vs):
            masks = _match_masks(version)
            base = (j * S + v) * T
            for ref_sent, start in zip(ref, starts):
                matched += [base + start + pos for pos in _lcs_positions(ref_sent, version, masks)]
    lcs = np.zeros((N, S, T), dtype=bool)
    lcs.reshape(-1)[matched] = True
    return SplitStats(
        counts=counts,
        lcs=lcs,
        ref_counts=ref_counts,
        unigrams=CU,
        ref_tokens=ref_tokens,
        ref_bigrams=np.array([sum(max(len(s) - 1, 0) for s in ref) for ref in refs], dtype=np.int64),
    )
