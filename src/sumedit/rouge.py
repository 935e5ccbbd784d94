"""ROUGE-1/2/L F-measures and the weighted composite reward.

ROUGE-L is the summary-level variant: for each reference sentence, the union
of LCS-matched token positions against all candidate sentences. All scores are
full-length F; degenerate inputs yield zeros rather than NaN so the reward is
a total function.

`reward` scores one summary. `sentence_stats` precomputes per-sentence n-gram
counts and LCS-matched reference positions. A summary built from some of those
sentences has the sum of their count rows and the OR of their LCS rows as its
statistics; `SentenceStats.totals` reduces these to five integer totals, and
`f_measures` turns the totals of any number of summaries, of one reference or
of many, into ROUGE-1/2/L F-measures with `reward`'s float expressions (the
results are bit-identical). `SentenceStats.rewards` chains the two.

Both paths align sentences with `_lcs_positions`, which keeps each row of the
LCS table as one int of bits over the candidate's positions (the bit-vector
LCS of Allison & Dix 1986, "A bit-string longest-common-subsequence
algorithm") and walks the canonical traceback on it. The full-table dynamic
program it replaced is the slow reference in tests/test_rouge.py.
"""
from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Sequence

import numpy as np

TokenList = Sequence[str]


class RougeScore:
    __slots__ = ("precision", "recall", "f1")

    def __init__(self, precision: float, recall: float, f1: float):
        self.precision = precision
        self.recall = recall
        self.f1 = f1

    def __eq__(self, other):
        if type(other) is not RougeScore:
            return NotImplemented
        return (self.precision, self.recall, self.f1) == (other.precision, other.recall, other.f1)

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


# Columns of `SentenceStats.totals`.
UNIGRAM_OVERLAP, BIGRAM_OVERLAP, TOKENS, BIGRAMS, LCS_MATCHES = range(5)


class SentenceStats:
    """Per-sentence ROUGE statistics of candidate sentence versions against
    one reference.

    Row v of `counts` holds version v's unigram counts over the reference
    unigram vocabulary, then its bigram counts over the reference bigram
    vocabulary, then its token and bigram totals. Row v of `lcs` marks the
    positions of the concatenated reference tokens that `_lcs_positions`
    matches against version v, over every reference sentence.

    N-grams never cross a sentence boundary and summary-level ROUGE-L is a
    union of per-sentence matched positions, so a summary made of some of the
    versions has the sum of their `counts` rows and the OR of their `lcs`
    rows as its statistics, and `rewards` turns those into `reward`'s value
    bit for bit.
    """

    __slots__ = ("counts", "lcs", "ref_counts", "unigrams", "ref_bigrams")

    def __init__(
        self,
        counts: np.ndarray,  # (V, U1 + U2 + 2) int64
        lcs: np.ndarray,  # (V, T) bool, T reference tokens
        ref_counts: np.ndarray,  # (U1 + U2,) reference n-gram counts
        unigrams: int,  # U1
        ref_bigrams: int,  # reference bigram total
    ):
        self.counts = counts
        self.lcs = lcs
        self.ref_counts = ref_counts
        self.unigrams = unigrams
        self.ref_bigrams = ref_bigrams

    @property
    def ref_tokens(self) -> int:
        return self.lcs.shape[1]

    def totals(self, counts: np.ndarray, lcs: np.ndarray) -> np.ndarray:
        """Integer totals (..., 5) of every summary whose summed `counts`
        rows and OR-ed `lcs` rows are given, along the leading axes: clipped
        unigram and bigram overlap, tokens, bigrams and LCS-matched reference
        tokens (columns UNIGRAM_OVERLAP ... LCS_MATCHES)."""
        overlap = np.minimum(counts[..., :-2], self.ref_counts)
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
        """`reward` of every summary whose summed `counts` rows and OR-ed
        `lcs` rows are given, along the leading axes."""
        totals = self.totals(counts, lcs)
        return weights.combine(*f_measures(totals, self.ref_tokens, self.ref_bigrams))


def f_measures(totals: np.ndarray, ref_tokens, ref_bigrams) -> tuple[np.ndarray, ...]:
    """ROUGE-1, ROUGE-2 and ROUGE-L F of every summary with the given
    `SentenceStats.totals`, against references of `ref_tokens` tokens and
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


def sentence_stats(versions: Sequence[TokenList], reference) -> SentenceStats:
    """`SentenceStats` of each sentence version against `reference` (a
    ReferenceSummary or a plain list of token lists)."""
    ref_sents = getattr(reference, "sentences", reference)
    ref_grams = [_pooled_ngrams(ref_sents, n) for n in (1, 2)]
    # Unigram columns are keyed by the token, bigram columns by the pair.
    keys = [g[0] for g in ref_grams[0]] + list(ref_grams[1])
    column = {g: i for i, g in enumerate(keys)}
    width = len(column) + 2
    offsets = np.cumsum([0] + [len(s) for s in ref_sents])
    ref_tokens = int(offsets[-1])
    cells: list[int] = []  # flat indices into counts, one per n-gram hit
    matched: list[int] = []  # flat indices into lcs
    for v, sent in enumerate(versions):
        base = v * width
        cells += [base + c for c in map(column.get, chain(sent, zip(sent, sent[1:]))) if c is not None]
        masks = _match_masks(sent)
        base = v * ref_tokens
        for ref_sent, start in zip(ref_sents, offsets.tolist()):
            matched += [base + start + pos for pos in _lcs_positions(ref_sent, sent, masks)]
    counts = np.bincount(np.array(cells, dtype=np.intp), minlength=len(versions) * width)
    counts = counts.astype(np.int64, copy=False).reshape(len(versions), width)
    lengths = np.array([len(sent) for sent in versions], dtype=np.int64)
    counts[:, -2] = lengths
    counts[:, -1] = np.maximum(lengths - 1, 0)
    lcs = np.zeros((len(versions), ref_tokens), dtype=bool)
    lcs.reshape(-1)[matched] = True
    return SentenceStats(
        counts=counts,
        lcs=lcs,
        ref_counts=np.array([c for grams in ref_grams for c in grams.values()], dtype=np.int64),
        unigrams=len(ref_grams[0]),
        ref_bigrams=sum(ref_grams[1].values()),
    )
