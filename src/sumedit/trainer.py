"""ADAM optimization, the teacher-forced training loop, and evaluation.

Training shuffles with a seeded generator, averages gradients over each
batch, applies one bias-corrected ADAM update per batch, decodes the
validation split free-running after every epoch, and returns the checkpoint
with the highest validation mean reward (ties: earliest epoch). Runs are
bitwise reproducible under a fixed seed with a single worker.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .editor import (
    Decision,
    EditContext,
    EditorParams,
    context_from_abstractions,
    decode,
    loss_and_gradients,
    zero_grads,
)
from .encoder import EncoderConfig
from .oracle import LabeledExample
from .rouge import RewardWeights, reward, rouge_l, rouge_n
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
    val_refs = [ex.reference for ex, _ in val_set]
    rng = np.random.default_rng(config.seed)
    state = AdamState.fresh(params, lr=config.lr)
    best_params, best_reward = params.copy(), -math.inf
    log: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(len(ctxs))
        loss_total = 0.0
        for start in range(0, len(perm), config.batch_size):
            batch = perm[start : start + config.batch_size]
            grad_sum = zero_grads(params)
            for j in batch:
                loss, grads = loss_and_gradients(
                    ctxs[j], labels[j], params, teacher_forcing=True
                )
                loss_total += loss
                for name in grad_sum:
                    grad_sum[name] += grads[name]
            for name in grad_sum:
                grad_sum[name] /= len(batch)
            params, state = adam_step(params, grad_sum, state)
        train_loss = loss_total / len(ctxs)
        val_reward = mean_reward(val_ctxs, val_refs, params, weights)
        log.append({"epoch": epoch, "train_loss": train_loss, "val_reward": val_reward})
        if val_reward > best_reward:
            best_params, best_reward = params.copy(), val_reward
    return best_params, log


def mean_reward(
    ctxs: Sequence[EditContext],
    references: Sequence,
    params: EditorParams,
    weights: RewardWeights,
) -> float:
    if not ctxs:
        return 0.0
    total = 0.0
    for ctx, ref in zip(ctxs, references):
        summary = decode(ctx, params)
        total += reward(summary.text, ref, weights)
    return total / len(ctxs)


def evaluate(
    test_set: Sequence[LabeledPair],
    params: EditorParams,
    encoder_config: EncoderConfig,
    weights: RewardWeights = RewardWeights(),
) -> dict:
    """Decode a split and report corpus metrics and decision statistics."""
    ctxs, _ = _contexts(test_set, encoder_config)
    refs = [ex.reference for ex, _ in test_set]
    counts = {d: 0 for d in Decision}
    r1 = r2 = rl = rew = 0.0
    abstracted_fractions: list[float] = []
    for ctx, ref in zip(ctxs, refs):
        summary = decode(ctx, params)
        for step in summary.steps:
            counts[step.decision] += 1
        emitted = [s for s in summary.steps if s.tokens is not None]
        if emitted:
            frac = sum(s.decision is Decision.ABSTRACT for s in emitted) / len(emitted)
            abstracted_fractions.append(frac)
        text = summary.text
        r1 += rouge_n(text, ref.sentences, 1).f1
        r2 += rouge_n(text, ref.sentences, 2).f1
        rl += rouge_l(text, ref.sentences).f1
        rew += reward(text, ref, weights)
    n = len(test_set)
    total_steps = sum(counts.values())
    fractions = {
        d.label: (counts[d] / total_steps if total_steps else 0.0) for d in Decision
    }
    return {
        "examples": n,
        "rouge1": r1 / n if n else 0.0,
        "rouge2": r2 / n if n else 0.0,
        "rougeL": rl / n if n else 0.0,
        "mean_reward": rew / n if n else 0.0,
        "decision_fractions": fractions,
        "abstracted_emitted_fraction": (
            sum(abstracted_fractions) / len(abstracted_fractions)
            if abstracted_fractions
            else 0.0
        ),
    }
