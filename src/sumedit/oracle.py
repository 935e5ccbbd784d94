"""Soft-label generation by exhaustive enumeration of decision sequences.

The composite reward of every one of the 3^l keep/abstract/reject sequences
over an extract is computed from per-sentence ROUGE statistics
(`rouge.sentence_stats`): the 2l sentence versions' count rows are added and
their LCS-position rows OR-ed over the `(3,)*l` grid, one decision axis at a
time, and the summed statistics are scored with `reward`'s float expressions,
so no summary is realized and every reward is bit-identical to `reward` on
it. The best sequence and prefix-conditioned reward averages yield one soft
label distribution per step; labels for a whole dataset are written to a
reproducible line-delimited JSON cache.
"""
from __future__ import annotations

import itertools
import json
import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import editor
from .editor import DECISION_INDEX, DECISIONS, Decision
# `reward` stays a module attribute: the benchmark's tracer (perfbench) wraps
# `oracle.reward` by name.
from .rouge import RewardWeights, reward, sentence_stats
from .summarizers import Abstractor, ExtractResult, Extractor
from .text import Document, Example, atomic_open

log = logging.getLogger(__name__)

DecisionSequence = tuple[Decision, ...]

DEFAULT_CAP = 12

# Largest number of (summary, statistic) entries one enumeration chunk holds.
CHUNK_ENTRIES = 1 << 21


class LabelingError(ValueError):
    """An example that cannot be labeled (e.g. its extract exceeds the
    enumeration cap); `label_dataset` records it as a per-example failure."""


@dataclass(frozen=True)
class LabeledExample:
    example_id: str
    extract: ExtractResult
    abstractions: tuple[tuple[str, ...], ...]
    labels: tuple[tuple[float, float, float], ...]
    best: DecisionSequence
    best_reward: float


def realize(
    document: Document,
    extract: ExtractResult,
    abstractions: Sequence[Sequence[str]],
    sequence: DecisionSequence,
) -> tuple[tuple[str, ...], ...]:
    """Summary realized by a decision sequence: E keeps, A substitutes, R drops."""
    if not len(extract.order) == len(abstractions) == len(sequence):
        raise ValueError("extract, abstractions, and sequence lengths differ")
    out = []
    for idx, abstracted, decision in zip(extract.order, abstractions, sequence):
        if decision is Decision.EXTRACT:
            out.append(tuple(document.tokens_at(idx)))
        elif decision is Decision.ABSTRACT:
            out.append(tuple(abstracted))
    return tuple(out)


def _grid(blocks: Sequence[np.ndarray], none: np.ndarray, combine) -> np.ndarray:
    """Row-wise `combine` of one (3, W) option block per decision axis over
    all 3^len(blocks) choices, in `itertools.product` order, starting from
    the row `none`: (3^len(blocks), W)."""
    acc = none[None]
    for block in blocks:
        acc = combine(acc[:, None], block[None]).reshape(-1, len(none))
    return acc


def enumerate_rewards(
    example: Example,
    extract: ExtractResult,
    abstractions: Sequence[Sequence[str]],
    reward_fn: Callable | None = None,
    weights: RewardWeights = RewardWeights(),
    cap: int = DEFAULT_CAP,
) -> np.ndarray:
    """Reward of every one of the 3^l decision sequences, as a `(3,)*l`
    array indexed by decision (E = 0, A = 1, R = 2), i.e. in
    `itertools.product(DECISIONS, repeat=l)` order.

    By default rewards come from per-sentence statistics (see the module
    docstring); the grid is built in chunks over a leading decision prefix so
    that memory stays bounded at the cap. With `reward_fn`, every sequence's
    realized summary is scored by `reward_fn` instead: the slow reference.
    """
    l = len(extract.order)
    if l > cap:
        raise LabelingError(f"enumeration cap exceeded (l={l}, cap={cap})")
    if len(abstractions) != l:
        raise ValueError("extract, abstractions, and sequence lengths differ")
    if reward_fn is not None:
        return np.array(
            [
                float(reward_fn(realize(example.document, extract, abstractions, seq)))
                for seq in itertools.product(DECISIONS, repeat=l)
            ]
        ).reshape((3,) * l)
    versions = [example.document.tokens_at(i) for i in extract.order] + list(abstractions)
    stats = sentence_stats(versions, example.reference)
    # Per decision axis, the E, A and R rows; R contributes nothing.
    no_counts, no_lcs = np.zeros_like(stats.counts[0]), np.zeros_like(stats.lcs[0])
    counts = [np.stack([stats.counts[i], stats.counts[l + i], no_counts]) for i in range(l)]
    lcs = [np.stack([stats.lcs[i], stats.lcs[l + i], no_lcs]) for i in range(l)]
    width = stats.counts.shape[1] + stats.lcs.shape[1]
    tail = 1
    while tail < l and 3 ** (tail + 1) * width <= CHUNK_ENTRIES:
        tail += 1
    head = l - tail
    tail_counts = _grid(counts[head:], no_counts, np.add)
    tail_lcs = _grid(lcs[head:], no_lcs, np.logical_or)
    chunks = zip(_grid(counts[:head], no_counts, np.add), _grid(lcs[:head], no_lcs, np.logical_or))
    return np.concatenate(
        [stats.rewards(c + tail_counts, m | tail_lcs, weights) for c, m in chunks]
    ).reshape((3,) * l)


def _indices(sequence: DecisionSequence) -> tuple[int, ...]:
    return tuple(DECISION_INDEX[d] for d in sequence)


def best_sequence(rewards: np.ndarray) -> DecisionSequence:
    """Argmax by reward; ties resolved lexicographically with E < A < R (the
    first maximum in product order)."""
    best = np.unravel_index(np.argmax(rewards), rewards.shape)
    return tuple(DECISIONS[int(i)] for i in best)


def soft_labels(rewards: np.ndarray, best: DecisionSequence) -> np.ndarray:
    """Per-step label distributions from prefix-conditioned reward averages.

    For step i, the three bucket averages are over all complete sequences
    sharing the best sequence's (i-1)-prefix, keyed by their i-th decision;
    labels are the normalized averages, uniform if the normalizer is zero.
    """
    labels = np.empty((len(best), 3))
    for i in range(len(best)):
        buckets = rewards[_indices(best[:i])].reshape(3, -1)
        # Sequential sums in product order, as the reference loop adds them
        # (ndarray.sum is pairwise and would move labels by about 1e-16).
        means = np.cumsum(buckets, axis=1)[:, -1] / buckets.shape[1]
        z = means.sum()
        labels[i] = means / z if z > 0 else np.full(3, 1.0 / 3.0)
    return labels


def label_example(
    example: Example,
    extractor: Extractor,
    abstractor: Abstractor,
    weights: RewardWeights = RewardWeights(),
    cap: int = DEFAULT_CAP,
) -> LabeledExample:
    extract = extractor(example)
    abstractions = editor.abstractions_for(example.document, extract, abstractor)
    rewards = enumerate_rewards(
        example, extract, abstractions, weights=weights, cap=cap
    )
    best = best_sequence(rewards)
    labels = soft_labels(rewards, best)
    return LabeledExample(
        example_id=example.document.id,
        extract=extract,
        abstractions=abstractions,
        labels=tuple(tuple(float(v) for v in row) for row in labels),
        best=best,
        best_reward=float(rewards[_indices(best)]),
    )


def _label_worker(args) -> tuple[str, object]:
    example, extractor, abstractor, weights, cap = args
    try:
        return "ok", label_example(example, extractor, abstractor, weights, cap)
    except LabelingError as exc:
        return "err", f"{example.document.id}: {exc}"


def label_dataset(
    examples: Sequence[Example],
    extractor: Extractor,
    abstractor: Abstractor,
    weights: RewardWeights = RewardWeights(),
    cap: int = DEFAULT_CAP,
    cache_path=None,
    workers: int = 1,
) -> tuple[list[LabeledExample], list[str]]:
    """Label a dataset; optionally write the cache file.

    Returns (labeled examples in input order, per-example failure messages).
    Re-running with the same inputs reproduces a byte-identical cache.
    """
    tasks = [(ex, extractor, abstractor, weights, cap) for ex in examples]
    if workers > 1:
        # Imported here: it loads multiprocessing, which a single worker
        # (the default, and every command but a parallel `label`) never uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_label_worker, tasks))
    else:
        results = [_label_worker(t) for t in tasks]
    labeled: list[LabeledExample] = []
    failures: list[str] = []
    for status, payload in results:
        if status == "ok":
            labeled.append(payload)
        else:
            failures.append(payload)
            log.warning("labeling failed: %s", payload)
    if cache_path is not None:
        write_label_cache(cache_path, labeled, weights, cap)
    return labeled, failures


CACHE_VERSION = 1


def write_label_cache(
    path, labeled: Sequence[LabeledExample], weights: RewardWeights, cap: int
) -> None:
    header = {
        "cache_version": CACHE_VERSION,
        "reward_weights": [weights.alpha, weights.beta, weights.gamma],
        "cap": cap,
    }
    with atomic_open(path) as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for lab in labeled:
            rec = {
                "id": lab.example_id,
                "order": list(lab.extract.order),
                "P": {str(k): v for k, v in sorted(lab.extract.likelihood.items())},
                "abstractions": [list(t) for t in lab.abstractions],
                "labels": [list(row) for row in lab.labels],
                "best": "".join(d.label for d in lab.best),
                "best_reward": lab.best_reward,
            }
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


CACHE_FIELDS = {
    "id": str, "order": list, "P": dict, "abstractions": list, "labels": list,
    "best": str, "best_reward": (int, float),
}
DECISION_OF_LABEL = {d.label: d for d in DECISIONS}


def _cache_record(rec) -> LabeledExample:
    """The LabeledExample of one parsed cache record; a ValueError says what
    is wrong with a record this program cannot have written."""
    if not isinstance(rec, dict):
        raise ValueError("record is not a JSON object")
    for name, kind in CACHE_FIELDS.items():
        if name not in rec:
            raise ValueError(f"missing field {name!r}")
        if not isinstance(rec[name], kind):
            raise ValueError(f"field {name!r} has the wrong type")
    # type(...) is, not isinstance: JSON true/false must not pass as numbers
    if not all(type(i) is int and i >= 0 for i in rec["order"]):
        raise ValueError(f"order {rec['order']!r} is not a list of sentence indices")
    if not all(type(t) is list and t and all(type(w) is str for w in t) for t in rec["abstractions"]):
        raise ValueError("abstractions are not non-empty lists of tokens")
    l = len(rec["order"])
    for name in ("labels", "abstractions", "best"):
        if len(rec[name]) != l:
            raise ValueError(f"{name} has {len(rec[name])} entries, order has {l}")
    for row in rec["labels"]:
        # 0 <= v < inf is false for NaN, infinities and negative numbers
        if not (type(row) is list and len(row) == 3 and all(type(v) in (int, float) and 0 <= v < math.inf for v in row)):
            raise ValueError(f"label row {row!r} is not three finite non-negative numbers")
    if not set(rec["best"]) <= DECISION_OF_LABEL.keys():
        raise ValueError(f"best {rec['best']!r} is not a sequence of E, A, R")
    return LabeledExample(
        example_id=rec["id"],
        extract=ExtractResult(
            order=tuple(rec["order"]),
            likelihood={int(k): v for k, v in rec["P"].items()},
        ),
        abstractions=tuple(tuple(t) for t in rec["abstractions"]),
        labels=tuple(tuple(row) for row in rec["labels"]),
        best=tuple(DECISION_OF_LABEL[c] for c in rec["best"]),
        best_reward=rec["best_reward"],
    )


def read_label_cache(path) -> tuple[list[LabeledExample], dict]:
    """Labeled examples and header of a cache file; a malformed line raises
    ValueError("<path>:<line>: ...")."""
    with open(path, encoding="utf-8") as fh:
        lines = [(no, ln) for no, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty label cache")
    records = []
    for no, ln in lines:
        try:
            records.append(json.loads(ln))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{no}: not valid JSON ({exc.msg})") from None
    header = records[0]
    if not isinstance(header, dict) or header.get("cache_version") != CACHE_VERSION:
        raise ValueError(f"{path}: unsupported cache version")
    labeled = []
    for (no, _), rec in zip(lines[1:], records[1:]):
        try:
            labeled.append(_cache_record(rec))
        except ValueError as exc:
            raise ValueError(f"{path}:{no}: {exc}") from None
    return labeled, header
