"""ADAM optimization, the teacher-forced training loop, and evaluation.

Each split is encoded once into one record (`encoder.encode_split`: the
extracted and abstracted sentence vectors padded to the split's longest
extract, the document mean vectors and the extract lengths) with its soft
labels padded the same way. Training shuffles with a seeded generator, takes
each batch as a fancy index into the record cut to the batch's longest
extract, computes its loss and gradient in one batched editor pass, averages
the gradient, applies one bias-corrected ADAM update to the flat parameter
vector per batch, decodes the whole validation split free-running after
every epoch, and returns the checkpoint with the highest validation mean
reward (ties: earliest epoch). A non-finite loss or gradient stops training
with an error naming the epoch and the batch. Runs are bitwise reproducible
under a fixed seed with a single worker.

Decoded summaries are scored without realizing them: each summary is one of
the 3^l decision sequences over its extract, so, as in the oracle, its ROUGE
totals are the summed `rouge.sentence_stats` rows of the chosen sentence
versions (extracted sentences, then abstractions). The statistics of a split
are computed once (before the first epoch for validation), and one
vectorized `rouge.f_measures` pass scores the whole split, bit-identical to
`rouge.reward` on every summary. Means over a split are sequential sums, the
order of a running float total.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .editor import ABSTRACT, DECISIONS, REJECT, EditorParams, decode, loss_and_gradients
from .encoder import EncoderConfig, SplitVectors, encode_split
from .oracle import LabeledExample
# `context_from_abstractions` and `reward` stay module attributes although
# training no longer calls them: the benchmark's tracer (perfbench) wraps
# `trainer.context_from_abstractions` and `trainer.reward` by name.
from .editor import context_from_abstractions
from .rouge import RewardWeights, SentenceStats, f_measures, reward, sentence_stats
from .text import Example

LabeledPair = tuple[Example, LabeledExample]


@dataclass
class AdamState:
    """First and second moment estimates, flat like the parameters."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def fresh(cls, params: EditorParams, lr: float = 1e-4) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), lr=lr)


def adam_step(
    params: EditorParams, grad: np.ndarray, state: AdamState
) -> tuple[EditorParams, AdamState]:
    """One bias-corrected ADAM update of the flat parameter vector from the
    flat gradient `grad`; pure, returns new params and state."""
    if grad.shape != params.flat.shape:
        raise ValueError(f"gradient shape {grad.shape} differs from parameter shape {params.flat.shape}")
    t = state.t + 1
    m = state.beta1 * state.m + (1 - state.beta1) * grad
    v = state.beta2 * state.v + (1 - state.beta2) * grad * grad
    m_hat = m / (1 - state.beta1**t)
    v_hat = v / (1 - state.beta2**t)
    flat = params.flat - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    new_state = AdamState(
        m=m, v=v, t=t, lr=state.lr, beta1=state.beta1, beta2=state.beta2, eps=state.eps
    )
    return EditorParams(params.m, params.n, flat), new_state


@dataclass
class TrainConfig:
    batch_size: int = 32
    epochs: int = 20
    seed: int = 0
    lr: float = 1e-4

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")


def _encode(pairs: Sequence[LabeledPair], encoder_config: EncoderConfig) -> SplitVectors:
    return encode_split(
        [example.document for example, _ in pairs],
        [lab.extract.order for _, lab in pairs],
        [lab.abstractions for _, lab in pairs],
        encoder_config,
    )


def _labels(pairs: Sequence[LabeledPair], vectors: SplitVectors) -> np.ndarray:
    """The soft labels of a split, padded like its vectors: (N, L, 3), zero
    past each extract's end."""
    y = np.zeros(vectors.e.shape[:2] + (3,))
    for j, ((example, lab), l) in enumerate(zip(pairs, vectors.lengths.tolist())):
        rows = np.asarray(lab.labels, dtype=float)
        if rows.shape != (l, 3):
            raise ValueError(f"{example.document.id}: labels must have shape ({l}, 3)")
        y[j, :l] = rows
    return y


def _split_stats(pairs: Sequence[LabeledPair]) -> list[SentenceStats]:
    """Per example, the statistics of its 2l sentence versions (the
    extracted sentences, then their abstractions) against its reference."""
    return [
        sentence_stats(
            tuple(example.document.tokens_at(i) for i in lab.extract.order)
            + tuple(map(tuple, lab.abstractions)),
            example.reference,
        )
        for example, lab in pairs
    ]


def _f_measures(
    decisions: np.ndarray, lengths: np.ndarray, stats: Sequence[SentenceStats]
) -> tuple[np.ndarray, ...]:
    """ROUGE-1, ROUGE-2 and ROUGE-L F of each decoded summary, from its
    example's statistics: decision k (an index into DECISIONS) at step i of
    an l-step summary takes version row k * l + i, and REJECT takes none."""
    totals = np.empty((len(stats), 5), dtype=np.int64)
    for j, (row, l, st) in enumerate(zip(decisions.tolist(), lengths.tolist(), stats)):
        rows = [k * l + i for i, k in enumerate(row[:l]) if k != REJECT]
        totals[j] = st.totals(st.counts[rows].sum(axis=0), st.lcs[rows].any(axis=0))
    ref_tokens = np.array([st.ref_tokens for st in stats], dtype=np.int64)
    ref_bigrams = np.array([st.ref_bigrams for st in stats], dtype=np.int64)
    return f_measures(totals, ref_tokens, ref_bigrams)


def _mean(values: Sequence[float]) -> float:
    """Mean of a sequential sum in order, 0.0 when empty. (Builtin `sum`
    compensates float rounding from Python 3.12 on, so it would not.)"""
    return float(np.cumsum(values)[-1] / len(values)) if len(values) else 0.0


def train(
    train_set: Sequence[LabeledPair],
    val_set: Sequence[LabeledPair],
    config: TrainConfig,
    params: EditorParams,
    encoder_config: EncoderConfig,
    weights: RewardWeights = RewardWeights(),
) -> tuple[EditorParams, list[dict]]:
    """Teacher-forced training with validation-based model selection.

    Returns (best checkpoint params, per-epoch log of train loss and
    validation mean reward).
    """
    if not train_set:
        raise ValueError("empty train set")
    vectors = _encode(train_set, encoder_config)
    labels = _labels(train_set, vectors)
    val_vectors = _encode(val_set, encoder_config)
    val_stats = _split_stats(val_set)
    rng = np.random.default_rng(config.seed)
    state = AdamState.fresh(params, lr=config.lr)
    best_params, best_reward = params.copy(), -math.inf
    log: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(len(train_set))
        loss_total = 0.0
        for start in range(0, len(perm), config.batch_size):
            batch = perm[start : start + config.batch_size]
            inputs = vectors.take(batch)
            loss, grad = loss_and_gradients(
                inputs, labels[batch, : inputs.e.shape[1]], params, teacher_forcing=True
            )
            if not (math.isfinite(loss) and np.isfinite(grad.flat).all()):
                ids = ", ".join(train_set[j][0].document.id for j in batch)
                raise ValueError(
                    f"epoch {epoch}: non-finite training loss or gradient "
                    f"(loss {loss}) on the batch of examples {ids}"
                )
            loss_total += loss
            params, state = adam_step(params, grad.flat / len(batch), state)
        train_loss = loss_total / len(train_set)
        val_reward = mean_reward(val_vectors, val_stats, params, weights)
        log.append({"epoch": epoch, "train_loss": train_loss, "val_reward": val_reward})
        if val_reward > best_reward:
            best_params, best_reward = params.copy(), val_reward
    return best_params, log


def mean_reward(
    vectors: SplitVectors,
    stats: Sequence[SentenceStats],
    params: EditorParams,
    weights: RewardWeights,
) -> float:
    """Mean reward of the free-running decodes of a split, scored from each
    example's statistics (see `_split_stats`); 0.0 for an empty split."""
    decisions, _ = decode(vectors, params)
    return _mean(weights.combine(*_f_measures(decisions, vectors.lengths, stats)))


def evaluate(
    test_set: Sequence[LabeledPair],
    params: EditorParams,
    encoder_config: EncoderConfig,
    weights: RewardWeights = RewardWeights(),
) -> dict:
    """Decode a split and report corpus metrics and decision statistics."""
    vectors = _encode(test_set, encoder_config)
    decisions, _ = decode(vectors, params)
    steps = np.arange(decisions.shape[1]) < vectors.lengths[:, None]
    counts = np.bincount(decisions[steps], minlength=len(DECISIONS)).tolist()
    # per summary, the sentences it emits and how many of them are abstracted
    emitted = (decisions != REJECT).sum(axis=1)
    abstracted = (decisions == ABSTRACT).sum(axis=1)
    abstracted_fractions = abstracted[emitted > 0] / emitted[emitted > 0]
    r1, r2, rl = _f_measures(decisions, vectors.lengths, _split_stats(test_set))
    total_steps = sum(counts)
    fractions = {
        d.label: (counts[k] / total_steps if total_steps else 0.0) for k, d in enumerate(DECISIONS)
    }
    return {
        "examples": len(test_set),
        "rouge1": _mean(r1),
        "rouge2": _mean(r2),
        "rougeL": _mean(rl),
        "mean_reward": _mean(weights.combine(r1, r2, rl)),
        "decision_fractions": fractions,
        "abstracted_emitted_fraction": _mean(abstracted_fractions),
    }
