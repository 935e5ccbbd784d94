"""Slow references shared by several test modules."""
import math
from collections import namedtuple
from itertools import chain

import numpy as np

from sumedit import oracle
from sumedit.editor import ABSTRACT, EXTRACT, LOG_CLAMP, REJECT, EditorParams, forced_batch
from sumedit.rouge import RewardWeights, _lcs_positions, _match_masks, _pooled_ngrams, f_measures
from sumedit.summarizers import STOPWORD_SCORE, STOPWORDS, UNSELECTED_LIKELIHOOD


def soft_cross_entropy(distributions, labels) -> float:
    """One example's loss: -(1/l) sum_i sum_k y_ik log p_ik, with p clamped
    below for finiteness. `editor.loss_and_gradients` sums it over a batch."""
    p = np.asarray(distributions, dtype=float)
    y = np.asarray(labels, dtype=float)
    if len(p) != len(y):
        raise ValueError("distributions and labels differ in length")
    if not len(p):
        raise ValueError("need at least one step")
    return -float(np.sum(y * np.log(np.maximum(p, LOG_CLAMP)))) / len(p)


def teacher_batch(vectors, decisions, labels=None):
    """`editor.forced_batch` of `encoder.SplitVectors` forced along decisions
    (L, B), with labels (L, B, 3) or, without them, zero labels."""
    L, B = vectors.ea.shape[:2]
    return forced_batch(vectors, np.asarray(decisions), np.zeros((L, B, 3)) if labels is None else labels)


# Every array of one run of the recurrence over a batch of B extracts padded
# to L steps, step-major: the fields of `editor.ForwardPass`, and the
# decisions (L, B) taken, the versions h (L, B, n) they put into the state
# and the mask (L, B) of the steps inside the extracts (`editor.Batch`).
Pass = namedtuple("Pass", "d g x t p q decisions h mask")


def _versions(decisions, x, n):
    return np.where(
        (decisions == EXTRACT)[..., None],
        x[..., :n],
        np.where((decisions == ABSTRACT)[..., None], x[..., n : 2 * n], 0.0),
    )


def _inputs(vectors, params):
    n = params.n
    L, B = vectors.ea.shape[:2]
    mask = np.arange(L)[:, None] < vectors.lengths
    d = np.tanh(vectors.e_bar @ params.W_d.T + params.b_d)
    x = np.zeros((L, B, 4 * n))
    x[:, :, : 2 * n] = vectors.ea
    x[:, :, 3 * n :] = d
    return d, x, mask


def vectors_forward(vectors, params, decisions) -> Pass:
    """Reference for `editor.forward`: the teacher-forced pass that takes
    `encoder.SplitVectors` and decisions (L, B), and builds its inputs, its
    mask and its versions on every call, with a fresh array for every
    intermediate. Its float operations are the ones the in-place pass on a
    `Batch` must repeat, in the same order."""
    n = params.n
    d, x, mask = _inputs(vectors, params)
    decisions = np.where(mask, decisions, REJECT)
    h = _versions(decisions, x, n)
    q = np.tanh(h @ params.W_g.T)
    g = np.zeros((len(x) + 1,) + d.shape)
    np.cumsum(q, axis=0, out=g[1:])
    x[:, :, 2 * n : 3 * n] = g[:-1]
    t = np.tanh(x @ params.W_c.T + params.b_c)
    logits = t @ params.V.T + params.b
    shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p = shifted / shifted.sum(axis=-1, keepdims=True)
    return Pass(d, g, x, t, p, q, decisions, h, mask)


def vectors_loss_and_gradients(vectors, labels, decisions, params):
    """Reference for `editor.loss_and_gradients`: the loss and gradient of
    `vectors_forward` along decisions (B, L), with labels (B, L, 3), every
    intermediate a fresh array."""
    n, m = params.n, params.m
    B, L = labels.shape[:2]
    y = np.ascontiguousarray(labels.transpose(1, 0, 2))
    run = vectors_forward(vectors, params, decisions.T)
    lengths = vectors.lengths
    terms = y * np.log(np.maximum(run.p, LOG_CLAMP))
    losses = -terms.transpose(1, 0, 2).reshape(B, -1).sum(axis=1) / lengths
    loss = float(np.cumsum(losses)[-1])
    du = ((run.p - y) / lengths[:, None] * run.mask[:, :, None]).reshape(-1, 3)
    t = run.t.reshape(-1, m)
    dz = (du @ params.V) * (1 - t**2)
    dx = (dz @ params.W_c).reshape(L, B, 4 * n)
    dg = dx[:, :, 2 * n : 3 * n]
    G = np.zeros((L, B, n))
    G[:-1] = np.cumsum(dg[:0:-1], axis=0)[::-1]
    dq = (G * (1 - run.q**2)).reshape(-1, n)
    dzd = dx[:, :, 3 * n :].sum(axis=0) * (1 - run.d**2)
    grad = EditorParams(m, n)
    np.matmul(dz.T, run.x.reshape(-1, 4 * n), out=grad.W_c)
    dz.sum(axis=0, out=grad.b_c)
    np.matmul(du.T, t, out=grad.V)
    du.sum(axis=0, out=grad.b)
    np.matmul(dq.T, run.h.reshape(-1, n), out=grad.W_g)
    np.matmul(dzd.T, vectors.e_bar, out=grad.W_d)
    dzd.sum(axis=0, out=grad.b_d)
    return loss, grad


def stepwise_forward(vectors, params, forced=None) -> Pass:
    """Slow reference for `editor.forward` and `editor.decode`: the batched
    recurrence one step at a time, g_{i+1} = g_i + q_i after step i's
    distribution, teacher-forced by forced (L, B) decisions or, without
    them, free-running."""
    n, m = params.n, params.m
    L, B = vectors.ea.shape[:2]
    d, x, mask = _inputs(vectors, params)
    g = np.zeros((L + 1, B, n))
    t = np.empty((L, B, m))
    p = np.empty((L, B, 3))
    decisions = np.empty((L, B), dtype=np.intp)
    h = np.empty((L, B, n))
    q = np.empty((L, B, n))
    for i in range(L):
        x[i, :, 2 * n : 3 * n] = g[i]
        t[i] = np.tanh(x[i] @ params.W_c.T + params.b_c)
        logits = t[i] @ params.V.T + params.b
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        p[i] = shifted / shifted.sum(axis=1, keepdims=True)
        chosen = p[i].argmax(axis=1) if forced is None else forced[i]
        decisions[i] = np.where(mask[i], chosen, REJECT)
        h[i] = _versions(decisions[i], x[i], n)
        q[i] = np.tanh(h[i] @ params.W_g.T)
        g[i + 1] = g[i] + q[i]
    return Pass(d, g, x, t, p, q, decisions, h, mask)


def best_sequence(rewards):
    """`oracle.best_sequence` of one (3,)*l reward array (a batch of one),
    as a tuple of decision indices."""
    return tuple(oracle.best_sequence(rewards[None])[0].tolist())


def soft_labels(rewards, best):
    """`oracle.soft_labels` of one (3,)*l reward array and its best decision
    sequence (a batch of one): (l, 3)."""
    return oracle.soft_labels(rewards[None], np.array([best]))[0]


class SentenceStats:
    """Per-example ROUGE statistics of candidate sentence versions against
    one reference (the slow reference for `rouge.split_entries` and
    `SplitEntries.stats`).

    Row v of `counts` holds version v's unigram counts over the reference
    unigram vocabulary, then its bigram counts over the reference bigram
    vocabulary (both in order of first appearance in the reference), then
    its token and bigram totals. Row v of `lcs` marks the positions of the
    concatenated reference tokens that `_lcs_positions` matches against
    version v, over every reference sentence.
    """

    __slots__ = ("counts", "lcs", "ref_counts", "unigrams", "ref_bigrams")

    def __init__(self, counts, lcs, ref_counts, unigrams, ref_bigrams):
        self.counts = counts  # (V, U1 + U2 + 2) int64
        self.lcs = lcs  # (V, T) bool, T reference tokens
        self.ref_counts = ref_counts  # (U1 + U2,) reference n-gram counts
        self.unigrams = unigrams  # U1
        self.ref_bigrams = ref_bigrams  # reference bigram total

    @property
    def ref_tokens(self) -> int:
        return self.lcs.shape[1]

    def totals(self, counts, lcs):
        """Integer totals (..., 5) of every summary whose summed `counts`
        rows and OR-ed `lcs` rows are given, along the leading axes."""
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

    def rewards(self, counts, lcs, weights=RewardWeights()):
        """`reward` of every summary whose summed `counts` rows and OR-ed
        `lcs` rows are given, along the leading axes."""
        totals = self.totals(counts, lcs)
        return weights.combine(*f_measures(totals, self.ref_tokens, self.ref_bigrams))


def sentence_stats(versions, reference) -> SentenceStats:
    """`SentenceStats` of each sentence version against `reference` (a
    ReferenceSummary or a plain list of token lists), one example at a time:
    dict lookups of each version's n-grams and `_lcs_positions` per
    reference sentence."""
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


def greedy_oracle(example, k, weights):
    """Slow reference for `summarizers.extract_greedy_oracle`: one document
    at a time, from its `sentence_stats`, with a Python loop over the steps.
    Returns (order, likelihood)."""
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
    likelihood = [UNSELECTED_LIKELIHOOD] * len(doc)
    for i, p in zip(selected, p_sel):
        likelihood[i] = float(p)
    return tuple(selected), tuple(likelihood)


def make_chunk(document, i):
    """Sentences {i-1, i, i+1} clipped to the document, two at the edges,
    and the place of sentence i among them."""
    if not 0 <= i < len(document):
        raise IndexError(f"sentence index {i} out of range")
    lo, hi = max(0, i - 1), min(len(document), i + 2)
    return document.sentences[lo:hi], i - lo


def content_scores(members):
    """(sentence index, token position, score) of every token of a chunk:
    log(1 + m / df(t)) with df(t) the number of member sentences holding t,
    STOPWORD_SCORE for a stopword."""
    df = {}
    for sent in members:
        for t in set(sent.tokens):
            df[t] = df.get(t, 0) + 1
    return [
        (sent.index, pos, STOPWORD_SCORE if t in STOPWORDS else math.log(1 + len(members) / df[t]))
        for sent in members
        for pos, t in enumerate(sent.tokens)
    ]


def rescale_entries(entries, likelihood):
    """`summarizers.rescale_attention` on (sentence index, position, weight)
    entries, with P(s) looked up by sentence index; Z adds left to right."""
    scaled = [(sent, pos, w * likelihood[sent]) for sent, pos, w in entries]
    z = 0.0
    for _, _, w in scaled:
        z += w
    if z <= 0:
        raise ValueError("degenerate attention: normalization term is zero")
    return [(sent, pos, w / z) for sent, pos, w in scaled]


def abstract_salience(members, center, likelihood, ratio):
    """One chunk's abstraction: the center-sentence tokens, in order, whose
    cumulative rescaled weight taken by descending weight first covers
    `ratio` of the center's weight."""
    if not 0 < ratio <= 1:
        raise ValueError("ratio must lie in (0, 1]")
    rescaled = rescale_entries(content_scores(members), likelihood)
    sentence = members[center]
    center_weights, total = [], 0.0
    for sent, pos, w in rescaled:
        if sent == sentence.index:
            center_weights.append((pos, w))
            total += w
    kept, cum = [], 0.0
    for pos, w in sorted(center_weights, key=lambda pw: (-pw[1], pw[0])):
        kept.append(pos)
        cum += w
        if cum >= ratio * total - 1e-12:
            break
    return tuple(sentence.tokens[p] for p in sorted(kept))


def salience_abstractions(document, extract, ratio):
    """Slow reference for `summarizers.abstract_extract`: one chunk at a
    time, through its (sentence index, position, weight) entries."""
    out = []
    for i in extract.order:
        members, center = make_chunk(document, i)
        likelihood = {s.index: extract.likelihood[s.index] for s in members}
        out.append(abstract_salience(members, center, likelihood, ratio))
    return tuple(out)
