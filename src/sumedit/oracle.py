"""Soft-label generation by exhaustive enumeration of decision sequences.

All 3^l keep/abstract/reject sequences over an extract are realized and
scored with the composite reward. The best sequence and prefix-conditioned
reward averages yield one soft label distribution per step; labels for a
whole dataset are written to a reproducible line-delimited JSON cache.
"""
from __future__ import annotations

import itertools
import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import editor
from .editor import DECISIONS, Decision
from .rouge import RewardWeights, reward
from .summarizers import Abstractor, ExtractResult, Extractor
from .text import Document, Example

log = logging.getLogger(__name__)

DecisionSequence = tuple[Decision, ...]

DEFAULT_CAP = 12


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


def enumerate_rewards(
    example: Example,
    extract: ExtractResult,
    abstractions: Sequence[Sequence[str]],
    reward_fn: Callable | None = None,
    weights: RewardWeights = RewardWeights(),
    cap: int = DEFAULT_CAP,
) -> dict[DecisionSequence, float]:
    """Reward of every one of the 3^l decision sequences.

    Rewards are memoized by realized-summary identity; distinct sequences can
    share a realized summary (e.g. any all-reject suffix permutation).
    """
    l = len(extract.order)
    if l > cap:
        raise ValueError(f"enumeration cap exceeded (l={l}, cap={cap})")
    if reward_fn is None:
        reward_fn = lambda cand: reward(cand, example.reference, weights)
    memo: dict[tuple, float] = {}
    rewards: dict[DecisionSequence, float] = {}
    for seq in itertools.product(DECISIONS, repeat=l):
        summary = realize(example.document, extract, abstractions, seq)
        if summary not in memo:
            memo[summary] = float(reward_fn(summary))
        rewards[seq] = memo[summary]
    return rewards


def best_sequence(rewards: Mapping[DecisionSequence, float]) -> DecisionSequence:
    """Argmax by reward; ties resolved lexicographically with E < A < R."""
    if not rewards:
        raise ValueError("rewards map is empty")
    rank = {d: i for i, d in enumerate(DECISIONS)}
    best: DecisionSequence | None = None
    best_r = -np.inf
    for seq in sorted(rewards, key=lambda s: tuple(rank[d] for d in s)):
        if rewards[seq] > best_r:
            best, best_r = seq, rewards[seq]
    return best


def soft_labels(
    rewards: Mapping[DecisionSequence, float], best: DecisionSequence
) -> np.ndarray:
    """Per-step label distributions from prefix-conditioned reward averages.

    For step i, the three bucket averages are over all complete sequences
    sharing the best sequence's (i-1)-prefix, keyed by their i-th decision;
    labels are the normalized averages, uniform if the normalizer is zero.
    """
    l = len(best)
    sums = np.zeros((l, 3))
    counts = np.zeros((l, 3))
    for seq, r in rewards.items():
        for i in range(l):
            if i > 0 and seq[i - 1] is not best[i - 1]:
                break
            k = DECISIONS.index(seq[i])
            sums[i, k] += r
            counts[i, k] += 1
    labels = np.empty((l, 3))
    for i in range(l):
        means = np.where(counts[i] > 0, sums[i] / np.maximum(counts[i], 1), 0.0)
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
        best_reward=float(rewards[best]),
    )


def _label_worker(args) -> tuple[str, object]:
    example, extractor, abstractor, weights, cap = args
    try:
        return "ok", label_example(example, extractor, abstractor, weights, cap)
    except Exception as exc:  # per-example failures are reported, not fatal
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
    with open(path, "w", encoding="utf-8") as fh:
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


def read_label_cache(path) -> tuple[list[LabeledExample], dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty label cache")
    header = json.loads(lines[0])
    if header.get("cache_version") != CACHE_VERSION:
        raise ValueError(f"{path}: unsupported cache version")
    by_label = {d.label: d for d in DECISIONS}
    labeled = []
    for ln in lines[1:]:
        rec = json.loads(ln)
        extract = ExtractResult(
            order=tuple(rec["order"]),
            likelihood={int(k): v for k, v in rec["P"].items()},
        )
        labeled.append(
            LabeledExample(
                example_id=rec["id"],
                extract=extract,
                abstractions=tuple(tuple(t) for t in rec["abstractions"]),
                labels=tuple(tuple(row) for row in rec["labels"]),
                best=tuple(by_label[c] for c in rec["best"]),
                best_reward=rec["best_reward"],
            )
        )
    return labeled, header
