"""ADAM optimization, the teacher-forced training loop, and evaluation.

`train` reads its settings from the resolved `config.ExperimentConfig`:
`batch_size`, `epochs`, `lr`, the encoder settings and the reward weights.
Each split is encoded once into one step-major record
(`encoder.encode_split`: the extracted and abstracted sentence vectors side
by side, padded to the split's longest extract, the document mean vectors
and the extract lengths). The train split's record becomes one
`editor.Batch` before the first epoch (`editor.forced_batch`): with it go the
sentence versions along each example's best sequence and the soft labels
conditioned on that sequence, padded the same way. Training shuffles each
epoch with the caller's random stream (`Stream`, the one `sumedit train`
also draws the initial parameters from), cuts each batch from that record
with one fancy index per array (`Batch.take`), computes its loss and
gradient in one batched editor pass teacher-forced along the best sequence,
into one gradient vector reused by every batch, averages the gradient,
applies one bias-corrected ADAM update to the flat parameter vector per
batch (in place, on a copy of the caller's parameters), decodes the whole
validation split free-running from its record after every epoch, and
returns the checkpoint with the highest validation mean reward (ties:
earliest epoch). A non-finite loss or gradient stops training with an error
naming the epoch and the batch. Runs are bitwise reproducible under a fixed
seed.

Decoded summaries are scored without realizing them: a summary is a sum of
sentence versions (`oracle.sentence_versions`: an extract's sentences, then
its abstractions), so its ROUGE totals follow from the nonzero entries of
the versions it chooses. The entries of a split are computed once (before
the first epoch for validation), one `rouge.split_entries` record per run
of at most `editor.DECODE_CHUNK` examples. `oracle.chosen_versions` marks
the versions the decisions choose, `SplitEntries.totals` sums and clips
their entries into integer totals, and `rouge.f_measures` turns those into
F-measures bit-identical to `rouge.reward` on every summary.
Means over a split are sequential sums, the order of a running float total.
"""
from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

from . import editor
from .config import ExperimentConfig
from .editor import ABSTRACT, DECISIONS, REJECT, EditorParams, decode, forced_batch, loss_and_gradients
from .encoder import EncoderConfig, SplitVectors, encode_split
from .oracle import LabeledExample, chosen_versions, sentence_versions
# `context_from_abstractions` and `reward` stay module attributes although
# training no longer calls them: the benchmark's tracer (perfbench) wraps
# `trainer.context_from_abstractions` and `trainer.reward` by name.
from .editor import context_from_abstractions
from .rouge import RewardWeights, SplitEntries, f_measures, reward, split_entries
from .text import Example

LabeledPair = tuple[Example, LabeledExample]


class Stream:
    """One seeded stream of random numbers, over the standard library's
    `random.Random`, with the two `numpy.random.Generator` methods training
    calls: `editor.init_params` draws the initial parameters from it and
    `train` each epoch's shuffle. (`random` is loaded with numpy already;
    `numpy.random` is not.)"""

    __slots__ = ("_random",)

    def __init__(self, seed: int):
        self._random = random.Random(seed)

    def uniform(self, low: float, high: float, size: tuple[int, ...]) -> np.ndarray:
        """low + (high - low) * random() for each element of an array of
        shape `size`, drawn in row-major order."""
        draw = self._random.random
        return low + (high - low) * np.array([draw() for _ in range(math.prod(size))]).reshape(size)

    def permutation(self, n: int) -> np.ndarray:
        """0 .. n - 1 in a random order."""
        order = list(range(n))
        self._random.shuffle(order)
        return np.array(order, dtype=np.intp)


# ADAM's moment decay rates and denominator offset (Kingma & Ba 2015).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def adam_step(params: EditorParams, grad: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, lr: float) -> None:
    """ADAM step `t` (from 1): one bias-corrected update of `params.flat`
    from the flat gradient `grad` at learning rate `lr`, in place, as are
    the updates of the first and second moments `m` and `v`."""
    if grad.shape != params.flat.shape:
        raise ValueError(f"gradient shape {grad.shape} differs from parameter shape {params.flat.shape}")
    # the operations of m = BETA1 m + (1 - BETA1) grad, v = BETA2 v + (1 -
    # BETA2) grad grad and params -= lr m_hat / (sqrt(v_hat) + EPS), in that
    # order, through two work vectors
    step = np.multiply(grad, 1 - BETA1)
    m *= BETA1
    m += step
    np.multiply(grad, 1 - BETA2, out=step)
    step *= grad
    v *= BETA2
    v += step
    denominator = np.divide(v, 1 - BETA2**t)
    np.sqrt(denominator, out=denominator)
    denominator += EPS
    np.divide(m, 1 - BETA1**t, out=step)
    step *= lr
    step /= denominator
    np.subtract(params.flat, step, out=params.flat)


def _encode(pairs: Sequence[LabeledPair], encoder_config: EncoderConfig) -> SplitVectors:
    return encode_split(
        [example.document for example, _ in pairs],
        [lab.order for _, lab in pairs],
        [lab.abstractions for _, lab in pairs],
        encoder_config,
    )


def _targets(pairs: Sequence[LabeledPair], vectors: SplitVectors) -> tuple[np.ndarray, np.ndarray]:
    """The best sequences (L, N) of a split, REJECT past each extract's end,
    and the soft labels (L, N, 3) conditioned on them, zero past each
    extract's end: both step-major and padded like its vectors."""
    L, N = vectors.ea.shape[:2]
    best = np.full((L, N), REJECT, dtype=np.intp)
    y = np.zeros((L, N, 3))
    for j, ((example, lab), l) in enumerate(zip(pairs, vectors.lengths.tolist())):
        rows = np.asarray(lab.labels, dtype=float)
        if rows.shape != (l, 3) or len(lab.best) != l:
            raise ValueError(f"{example.document.id}: labels must have shape ({l}, 3) and best length {l}")
        best[:l, j] = lab.best
        y[:l, j] = rows
    return best, y


def _entries(pairs: Sequence[LabeledPair]) -> list[SplitEntries]:
    """The `split_entries` of a split's `oracle.sentence_versions` against
    their references, one record per run of at most DECODE_CHUNK pairs."""
    runs = (pairs[start : start + editor.DECODE_CHUNK] for start in range(0, len(pairs), editor.DECODE_CHUNK))
    return [
        split_entries([sentence_versions(ex, lab.order, lab.abstractions) for ex, lab in run],
                      [ex.reference for ex, _ in run])
        for run in runs
    ]


def _totals(decisions: np.ndarray, lengths: np.ndarray, records: Sequence[SplitEntries]) -> tuple[np.ndarray, ...]:
    """`SplitEntries.totals` (N, 5) of every decoded summary, from the
    versions its decisions choose (`oracle.chosen_versions`), with the
    reference token and bigram totals (N,) of its example. All sums are
    integer sums, so they are exact."""
    chosen = chosen_versions(decisions, lengths)
    bounds = np.cumsum([len(record.length) for record in records])[:-1]
    parts = [(np.zeros((0, 5), dtype=np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64))]
    parts += [(r.totals(c), r.ref_tokens, r.ref_bigrams) for r, c in zip(records, np.split(chosen, bounds))]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _mean(values: Sequence[float]) -> float:
    """Mean of a sequential sum in order, 0.0 when empty. (Builtin `sum`
    compensates float rounding from Python 3.12 on, so it would not.)"""
    return float(np.cumsum(values)[-1] / len(values)) if len(values) else 0.0


def train(
    train_set: Sequence[LabeledPair],
    val_set: Sequence[LabeledPair],
    config: ExperimentConfig,
    params: EditorParams,
    rng: Stream | np.random.Generator,
) -> tuple[EditorParams, list[dict]]:
    """Teacher-forced training with validation-based model selection, under
    the config's `batch_size`, `epochs`, `lr`, encoder settings and reward
    weights. Each epoch's order is `rng.permutation` of the train set.

    Returns (best checkpoint params, per-epoch log of train loss and
    validation mean reward).
    """
    if not train_set:
        raise ValueError("empty train set")
    encoder_config, weights = config.encoder_config(), config.reward_weights()
    vectors = _encode(train_set, encoder_config)
    split = forced_batch(vectors, *_targets(train_set, vectors))
    val_vectors = _encode(val_set, encoder_config)
    val_entries = _entries(val_set)
    params = params.copy()
    grad = EditorParams(params.m, params.n)
    m, v, t = np.zeros_like(params.flat), np.zeros_like(params.flat), 0
    best_params, best_reward = params.copy(), -math.inf
    log: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(len(train_set))
        loss_total = 0.0
        for start in range(0, len(perm), config.batch_size):
            batch = perm[start : start + config.batch_size]
            loss, grad = loss_and_gradients(split.take(batch), params, grad)
            if not (math.isfinite(loss) and np.isfinite(grad.flat).all()):
                ids = ", ".join(train_set[j][0].document.id for j in batch)
                raise ValueError(
                    f"epoch {epoch}: non-finite training loss or gradient "
                    f"(loss {loss}) on the batch of examples {ids}"
                )
            loss_total += loss
            t += 1
            np.divide(grad.flat, len(batch), out=grad.flat)
            adam_step(params, grad.flat, m, v, t, config.lr)
        train_loss = loss_total / len(train_set)
        val_reward = mean_reward(val_vectors, val_entries, params, weights)
        log.append({"epoch": epoch, "train_loss": train_loss, "val_reward": val_reward})
        if val_reward > best_reward:
            best_params, best_reward = params.copy(), val_reward
    return best_params, log


def mean_reward(
    vectors: SplitVectors,
    entries: Sequence[SplitEntries],
    params: EditorParams,
    weights: RewardWeights,
) -> float:
    """Mean reward of the free-running decodes of a split, scored from the
    split's `_entries` records; 0.0 for an empty split."""
    decisions = decode(vectors, params)
    return _mean(weights.combine(*f_measures(*_totals(decisions, vectors.lengths, entries))))


def evaluate(
    test_set: Sequence[LabeledPair],
    params: EditorParams,
    encoder_config: EncoderConfig,
    weights: RewardWeights = RewardWeights(),
) -> dict:
    """Decode a split and report corpus metrics and decision statistics."""
    vectors = _encode(test_set, encoder_config)
    decisions = decode(vectors, params)
    steps = np.arange(decisions.shape[1]) < vectors.lengths[:, None]
    counts = np.bincount(decisions[steps], minlength=len(DECISIONS)).tolist()
    # per summary, the sentences it emits and how many of them are abstracted
    emitted = (decisions != REJECT).sum(axis=1)
    abstracted = (decisions == ABSTRACT).sum(axis=1)
    abstracted_fractions = abstracted[emitted > 0] / emitted[emitted > 0]
    r1, r2, rl = f_measures(*_totals(decisions, vectors.lengths, _entries(test_set)))
    total_steps = sum(counts)
    fractions = {d: (counts[k] / total_steps if total_steps else 0.0) for k, d in enumerate(DECISIONS)}
    return {
        "examples": len(test_set),
        "rouge1": _mean(r1),
        "rouge2": _mean(r2),
        "rougeL": _mean(rl),
        "mean_reward": _mean(weights.combine(r1, r2, rl)),
        "decision_fractions": fractions,
        "abstracted_emitted_fraction": _mean(abstracted_fractions),
    }
