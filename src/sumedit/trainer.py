"""ADAM optimization, the teacher-forced training loop, and evaluation.

Training shuffles with a seeded generator, computes each batch's loss and
gradients in one batched editor pass, averages the gradients, applies one
bias-corrected ADAM update per batch, decodes the whole validation split
free-running after every epoch, and returns the checkpoint with the highest
validation mean reward (ties: earliest epoch). A non-finite loss or gradient
stops training with an error naming the epoch and the batch. Runs are
bitwise reproducible under a fixed seed with a single worker.

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

from .editor import (
    DECISION_INDEX,
    Decision,
    EditContext,
    EditorParams,
    MixedSummary,
    context_from_abstractions,
    decode,
    loss_and_gradients,
    zero_grads,
)
from .encoder import EncoderConfig
from .oracle import LabeledExample
# `reward` stays a module attribute: the benchmark's tracer (perfbench) wraps
# `trainer.reward` by name.
from .rouge import RewardWeights, SentenceStats, f_measures, reward, sentence_stats
from .text import Example

LabeledPair = tuple[Example, LabeledExample]


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def fresh(cls, params: EditorParams, lr: float = 1e-4) -> "AdamState":
        return cls(m=zero_grads(params), v=zero_grads(params), lr=lr)


def adam_step(
    params: EditorParams, grads: dict[str, np.ndarray], state: AdamState
) -> tuple[EditorParams, AdamState]:
    """One bias-corrected ADAM update; pure, returns new params and state."""
    t = state.t + 1
    new_arrays, new_m, new_v = {}, {}, {}
    for name, value in params.arrays().items():
        g = grads[name]
        if g.shape != value.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        m = state.beta1 * state.m[name] + (1 - state.beta1) * g
        v = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        m_hat = m / (1 - state.beta1**t)
        v_hat = v / (1 - state.beta2**t)
        new_arrays[name] = value - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        new_m[name], new_v[name] = m, v
    new_state = AdamState(
        m=new_m, v=new_v, t=t, lr=state.lr,
        beta1=state.beta1, beta2=state.beta2, eps=state.eps,
    )
    return EditorParams(**new_arrays), new_state


@dataclass
class TrainConfig:
    batch_size: int = 32
    epochs: int = 20
    seed: int = 0
    lr: float = 1e-4

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")


def _contexts(
    pairs: Sequence[LabeledPair], encoder_config: EncoderConfig
) -> tuple[list[EditContext], list[np.ndarray]]:
    ctxs, labels = [], []
    for example, lab in pairs:
        ctxs.append(
            context_from_abstractions(
                example.document, lab.extract, lab.abstractions, encoder_config
            )
        )
        labels.append(np.asarray(lab.labels, dtype=float))
    return ctxs, labels


def _split_stats(pairs: Sequence[LabeledPair], ctxs: Sequence[EditContext]) -> list[SentenceStats]:
    """Per example, the statistics of its 2l sentence versions (the
    extracted sentences, then their abstractions) against its reference."""
    return [
        sentence_stats(ctx.extracted_tokens + ctx.abstractions, example.reference)
        for ctx, (example, _) in zip(ctxs, pairs)
    ]


def _f_measures(
    summaries: Sequence[MixedSummary], stats: Sequence[SentenceStats]
) -> tuple[np.ndarray, ...]:
    """ROUGE-1, ROUGE-2 and ROUGE-L F of each decoded summary, from its
    example's statistics: the step i decision d of an l-step summary takes
    version row DECISION_INDEX[d] * l + i, and REJECT takes none."""
    totals = np.empty((len(summaries), 5), dtype=np.int64)
    for j, (summary, st) in enumerate(zip(summaries, stats)):
        l = len(summary.steps)
        rows = [
            DECISION_INDEX[step.decision] * l + i
            for i, step in enumerate(summary.steps)
            if step.decision is not Decision.REJECT
        ]
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
    ctxs, labels = _contexts(train_set, encoder_config)
    val_ctxs, _ = _contexts(val_set, encoder_config)
    val_stats = _split_stats(val_set, val_ctxs)
    rng = np.random.default_rng(config.seed)
    state = AdamState.fresh(params, lr=config.lr)
    best_params, best_reward = params.copy(), -math.inf
    log: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(len(ctxs))
        loss_total = 0.0
        for start in range(0, len(perm), config.batch_size):
            batch = perm[start : start + config.batch_size]
            loss, grads = loss_and_gradients(
                [ctxs[j] for j in batch], [labels[j] for j in batch], params,
                teacher_forcing=True,
            )
            if not (math.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())):
                ids = ", ".join(ctxs[j].example_id for j in batch)
                raise ValueError(
                    f"epoch {epoch}: non-finite training loss or gradient "
                    f"(loss {loss}) on the batch of examples {ids}"
                )
            loss_total += loss
            for name in grads:
                grads[name] /= len(batch)
            params, state = adam_step(params, grads, state)
        train_loss = loss_total / len(ctxs)
        val_reward = mean_reward(val_ctxs, val_stats, params, weights)
        log.append({"epoch": epoch, "train_loss": train_loss, "val_reward": val_reward})
        if val_reward > best_reward:
            best_params, best_reward = params.copy(), val_reward
    return best_params, log


def mean_reward(
    ctxs: Sequence[EditContext],
    stats: Sequence[SentenceStats],
    params: EditorParams,
    weights: RewardWeights,
) -> float:
    """Mean reward of the free-running decodes of `ctxs`, scored from each
    example's statistics (see `_split_stats`); 0.0 for no contexts."""
    return _mean(weights.combine(*_f_measures(decode(ctxs, params), stats)))


def evaluate(
    test_set: Sequence[LabeledPair],
    params: EditorParams,
    encoder_config: EncoderConfig,
    weights: RewardWeights = RewardWeights(),
) -> dict:
    """Decode a split and report corpus metrics and decision statistics."""
    ctxs, _ = _contexts(test_set, encoder_config)
    summaries = decode(ctxs, params)
    counts = {d: 0 for d in Decision}
    abstracted_fractions: list[float] = []
    for summary in summaries:
        for step in summary.steps:
            counts[step.decision] += 1
        emitted = [s for s in summary.steps if s.tokens is not None]
        if emitted:
            frac = sum(s.decision is Decision.ABSTRACT for s in emitted) / len(emitted)
            abstracted_fractions.append(frac)
    r1, r2, rl = _f_measures(summaries, _split_stats(test_set, ctxs))
    total_steps = sum(counts.values())
    fractions = {
        d.label: (counts[d] / total_steps if total_steps else 0.0) for d in Decision
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
