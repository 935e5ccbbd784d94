"""Soft-label generation by exhaustive enumeration of decision sequences.

The composite reward of every one of the 3^l keep/abstract/reject sequences
over an extract is computed from sentence statistics (`rouge.SplitStats`):
the 2l sentence versions' count rows are added and their LCS-position rows
OR-ed over the `(3,)*l` grid, one decision axis at a time, and the summed
statistics are scored with `reward`'s float expressions, so no summary is
realized and every reward is bit-identical to `reward` on it. The best
sequence and prefix-conditioned reward averages yield one soft label
distribution per step. A dataset is labeled in runs of consecutive
examples: a run's extracts come from one `summarizers.extract_batch` call,
the statistics of its examples within the cap from one `split_entries`
call, and its examples of one extract length share one stacked
(N,)+(3,)*l grid and one `best_sequence` and `soft_labels` call, in
batches of at most CHUNK_ENTRIES grid entries. Each batch gets a dense
record of its own (`SplitEntries.stats`: its examples' 2l versions, over
the columns and reference positions they touch); no record spans the run.
`write_label_cache` writes them to a reproducible line-delimited JSON cache
under the header `cache_header` builds from the resolved config;
`read_label_cache`, its one reader, decides in one pass whether a cache
belongs to a run.

A decision is an index into `editor.DECISIONS` (E = 0, A = 1, R = 2), and a
sequence is a tuple of them; only the cache writes their letters. An
extract's 2l sentence versions are laid out by `sentence_versions` (the
E versions 0..l-1, then the A versions l..2l-1), and `chosen_versions`
maps decisions to the versions they choose, for the trainer's scoring.
"""
from __future__ import annotations

import itertools
import json
import math
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from . import editor, slots_eq
from .editor import ABSTRACT, DECISIONS, EXTRACT, REJECT
# `reward` stays a module attribute: the benchmark's tracer (perfbench) wraps
# `oracle.reward` by name.
from .rouge import RewardWeights, SplitStats, reward, split_entries
from .text import Document, Example, atomic_open, json_line, warn

if TYPE_CHECKING:
    from .summarizers import Abstractor, ExtractResult, Extractor

DEFAULT_CAP = 12

# Largest number of (summary, statistic) entries one enumeration chunk holds.
CHUNK_ENTRIES = 1 << 21


class LabelingError(ValueError):
    """An example that cannot be labeled (e.g. its extract exceeds the
    enumeration cap); `label_dataset` records it as a per-example failure."""


class LabeledExample:
    __slots__ = ("example_id", "order", "abstractions", "labels", "best", "best_reward")

    def __init__(
        self,
        example_id: str,
        order: tuple[int, ...],
        abstractions: tuple[tuple[str, ...], ...],
        labels: tuple[tuple[float, float, float], ...],
        best: tuple[int, ...],
        best_reward: float,
    ):
        self.example_id = example_id
        self.order = order
        self.abstractions = abstractions
        self.labels = labels
        self.best = best
        self.best_reward = best_reward

    __eq__ = slots_eq


def realize(
    document: Document,
    order: Sequence[int],
    abstractions: Sequence[Sequence[str]],
    sequence: Sequence[int],
) -> tuple[tuple[str, ...], ...]:
    """Summary realized by a sequence of decision indices over the extracted
    sentences `order`: E keeps, A substitutes, R drops."""
    if not len(order) == len(abstractions) == len(sequence):
        raise ValueError("extract, abstractions, and sequence lengths differ")
    out = []
    for idx, abstracted, decision in zip(order, abstractions, sequence):
        if decision == EXTRACT:
            out.append(tuple(document.tokens_at(idx)))
        elif decision == ABSTRACT:
            out.append(tuple(abstracted))
    return tuple(out)


def _grid(blocks: Sequence[np.ndarray], none: np.ndarray, combine) -> np.ndarray:
    """Row-wise `combine`, per example, of one (N, 3, W) option block per
    decision axis over all 3^len(blocks) choices, in `itertools.product`
    order, starting from the rows `none` (N, W): (N, 3^len(blocks), W)."""
    acc = none[:, None]
    for block in blocks:
        acc = combine(acc[:, :, None], block[:, None]).reshape(none.shape[0], 3 * acc.shape[1], none.shape[1])
    return acc


def sentence_versions(example: Example, order: Sequence[int], abstractions: Sequence[Sequence[str]]) -> list:
    """The 2l sentence versions of an extract of l sentences `order`: the
    extracted sentences as versions 0..l-1, then their abstractions as
    l..2l-1."""
    return [example.document.tokens_at(i) for i in order] + list(abstractions)


def chosen_versions(decisions: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Which versions of a split's `sentence_versions`, laid out example
    after example, the (N, L) decisions choose (a flat boolean mask): of an
    extract of l sentences, EXTRACT at step i chooses version i, ABSTRACT
    version l + i and REJECT none."""
    version = (np.cumsum(2 * lengths) - 2 * lengths)[:, None] + np.arange(decisions.shape[1])
    version += lengths[:, None] * (decisions == ABSTRACT)
    chosen = np.zeros(2 * int(lengths.sum()), dtype=bool)
    chosen[version[decisions != REJECT]] = True
    return chosen


def _grid_rewards(stats: SplitStats, weights: RewardWeights) -> np.ndarray:
    """The (N,)+(3,)*l rewards of a record of N examples of 2l versions each
    (see the module docstring). When the whole grid holds more than
    CHUNK_ENTRIES entries, it is built in chunks over a leading decision
    prefix, so that memory stays bounded at the cap."""
    counts, lcs = stats.counts, stats.lcs
    n, l = counts.shape[0], counts.shape[1] // 2
    # Per decision axis, the E, A and R rows; R contributes nothing.
    no_counts, no_lcs = np.zeros_like(counts[:, 0]), np.zeros_like(lcs[:, 0])
    count_rows = [np.stack([counts[:, i], counts[:, l + i], no_counts], axis=1) for i in range(l)]
    lcs_rows = [np.stack([lcs[:, i], lcs[:, l + i], no_lcs], axis=1) for i in range(l)]
    width = n * (counts.shape[2] + lcs.shape[2])
    tail = 1
    while tail < l and 3 ** (tail + 1) * width <= CHUNK_ENTRIES:
        tail += 1
    head = l - tail
    tail_counts = _grid(count_rows[head:], no_counts, np.add)
    tail_lcs = _grid(lcs_rows[head:], no_lcs, np.logical_or)
    if not head:
        return stats.rewards(tail_counts, tail_lcs, weights).reshape((n,) + (3,) * l)
    heads = (_grid(count_rows[:head], no_counts, np.add), _grid(lcs_rows[:head], no_lcs, np.logical_or))
    chunks = zip(*(grid.swapaxes(0, 1) for grid in heads))
    return np.concatenate(
        [stats.rewards(c[:, None] + tail_counts, m[:, None] | tail_lcs, weights) for c, m in chunks], axis=1
    ).reshape((n,) + (3,) * l)


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
    `itertools.product(range(3), repeat=l)` order.

    By default rewards come from the example's sentence statistics (see the
    module docstring), from one `split_entries` call. With `reward_fn`, every
    sequence's realized summary is scored by `reward_fn` instead: the slow
    reference.
    """
    l = len(extract.order)
    if l > cap:
        raise LabelingError(f"enumeration cap exceeded (l={l}, cap={cap})")
    if len(abstractions) != l:
        raise ValueError("extract, abstractions, and sequence lengths differ")
    if reward_fn is not None:
        return np.array(
            [
                float(reward_fn(realize(example.document, extract.order, abstractions, seq)))
                for seq in itertools.product(range(3), repeat=l)
            ]
        ).reshape((3,) * l)
    entries = split_entries([sentence_versions(example, extract.order, abstractions)], [example.reference])
    return _grid_rewards(entries.stats([0], [0], 2 * l), weights)[0]


def best_sequence(rewards: np.ndarray) -> np.ndarray:
    """The (N, l) decision indices of each example's best sequence in an
    (N,)+(3,)*l reward array: its argmax, ties resolved lexicographically
    with E < A < R (the first maximum in product order)."""
    return np.stack(np.unravel_index(rewards.reshape(len(rewards), -1).argmax(axis=1), rewards.shape[1:]), axis=1)


def soft_labels(rewards: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Per-step label distributions (N, l, 3) from prefix-conditioned reward
    averages, of an (N,)+(3,)*l reward array and its (N, l) best indices.

    For step i, the three bucket averages are over all complete sequences
    sharing the best sequence's (i-1)-prefix, keyed by their i-th decision;
    labels are the normalized averages, uniform if the normalizer is zero.
    """
    labels = np.empty(best.shape + (3,))
    for i in range(best.shape[1]):
        buckets = rewards[(np.arange(len(best)), *best[:, :i].T)].reshape(len(best), 3, -1)
        # Sequential sums in product order, as the reference loop adds them
        # (ndarray.sum is pairwise and would move labels by about 1e-16).
        means = np.cumsum(buckets, axis=2)[:, :, -1] / buckets.shape[2]
        z = means.sum(axis=1, keepdims=True)
        labels[:, i] = np.where(z > 0, means / np.where(z > 0, z, 1.0), 1.0 / 3.0)
    return labels


def _label_chunk(
    examples: Sequence[Example],
    extractor: Extractor,
    abstractor: Abstractor,
    weights: RewardWeights,
    cap: int,
) -> list[LabeledExample | LabelingError]:
    """Label one run of consecutive examples: their extracts come from one
    `extract_batch` call, the statistics of every example within the cap
    from one `split_entries` call, and the examples of each extract length
    l share one grid, `best_sequence` and `soft_labels` call per batch of
    at most CHUNK_ENTRIES grid entries, on a record of the batch alone. An
    example whose extract exceeds the cap gets a LabelingError in its
    place. `label_dataset` calls it once per run of at most
    `editor.DECODE_CHUNK` examples."""
    # imported here, so that `train` and `evaluate`, which read caches but
    # extract nothing, do not import `summarizers`
    from .summarizers import extract_batch

    extracts = extract_batch(extractor, examples)
    abstractions = [editor.abstractions_for(ex.document, e, abstractor) for ex, e in zip(examples, extracts)]
    within = [j for j, e in enumerate(extracts) if len(e.order) <= cap]
    entries = split_entries(
        [sentence_versions(examples[j], extracts[j].order, abstractions[j]) for j in within],
        [examples[j].reference for j in within],
    )
    # each example's first version, and a bound on its width in a record
    sizes = np.array([2 * len(extracts[j].order) for j in within], dtype=np.int64)
    first = np.cumsum(sizes) - sizes
    width = np.bincount(entries.column_example, minlength=len(within)) + entries.ref_tokens + 2
    results: list[LabeledExample | LabelingError] = [
        LabelingError(f"enumeration cap exceeded (l={len(e.order)}, cap={cap})") for e in extracts
    ]
    groups: dict[int, list[int]] = {}
    for k, j in enumerate(within):
        groups.setdefault(len(extracts[j].order), []).append(k)
    for l, ks in groups.items():
        size = max(1, CHUNK_ENTRIES // (3**l * int(width[ks].max())))
        for part in (ks[start : start + size] for start in range(0, len(ks), size)):
            rewards = _grid_rewards(entries.stats(part, first[part], 2 * l), weights)
            best = best_sequence(rewards)
            labels = soft_labels(rewards, best)
            top = rewards.reshape(len(part), -1).max(axis=1)
            for k, b, lab, r in zip(part, best.tolist(), labels.tolist(), top.tolist()):
                j = within[k]
                results[j] = LabeledExample(
                    example_id=examples[j].document.id,
                    order=extracts[j].order,
                    abstractions=abstractions[j],
                    labels=tuple(map(tuple, lab)),
                    best=tuple(b),
                    best_reward=r,
                )
    return results


def label_example(
    example: Example,
    extractor: Extractor,
    abstractor: Abstractor,
    weights: RewardWeights = RewardWeights(),
    cap: int = DEFAULT_CAP,
) -> LabeledExample:
    """Label one example; an extract past the cap raises LabelingError."""
    (result,) = _label_chunk([example], extractor, abstractor, weights, cap)
    if isinstance(result, LabelingError):
        raise result
    return result


def label_dataset(
    examples: Sequence[Example],
    extractor: Extractor,
    abstractor: Abstractor,
    weights: RewardWeights = RewardWeights(),
    cap: int = DEFAULT_CAP,
) -> tuple[list[LabeledExample], list[str]]:
    """Label a dataset, in runs of `editor.DECODE_CHUNK` consecutive
    examples (the last run may be shorter), one run at a time.

    Returns (labeled examples in input order, per-example failure messages).
    The same inputs give the same labels, so `write_label_cache` writes a
    byte-identical cache from a rerun.
    """
    labeled: list[LabeledExample] = []
    failures: list[str] = []
    for start in range(0, len(examples), editor.DECODE_CHUNK):
        run = examples[start : start + editor.DECODE_CHUNK]
        for example, result in zip(run, _label_chunk(run, extractor, abstractor, weights, cap)):
            if isinstance(result, LabelingError):
                failures.append(f"{example.document.id}: {result}")
                warn(__name__, "labeling failed: %s", failures[-1])
            else:
                labeled.append(result)
    return labeled, failures


CACHE_VERSION = 3

# Config fields that shape a label cache besides the reward weights and the
# cap, and so go into its header.
LABEL_SETTINGS = ("k", "extractor", "abstract_ratio")


def cache_header(cfg) -> dict:
    """The label cache header of a resolved `ExperimentConfig`: the cache
    version, the reward weights, the cap, then the LABEL_SETTINGS fields.
    `label` writes it, and `train` and `evaluate` accept only a cache that
    has it."""
    weights = cfg.reward_weights()
    return {
        "cache_version": CACHE_VERSION,
        "reward_weights": [weights.alpha, weights.beta, weights.gamma],
        "cap": cfg.cap,
        **{name: getattr(cfg, name) for name in LABEL_SETTINGS},
    }


def write_label_cache(path, labeled: Sequence[LabeledExample], header: Mapping[str, object]) -> None:
    """Write `header` (see `cache_header`), then one record per labeled example."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for lab in labeled:
            rec = {
                "id": lab.example_id,
                "order": list(lab.order),
                "abstractions": [list(t) for t in lab.abstractions],
                "labels": [list(row) for row in lab.labels],
                "best": "".join(DECISIONS[i] for i in lab.best),
                "best_reward": lab.best_reward,
            }
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


# The exact JSON types of a record's fields; type(...) in, not isinstance,
# so that JSON true/false do not pass as numbers.
CACHE_FIELDS = {
    "id": (str,), "order": (list,), "abstractions": (list,), "labels": (list,),
    "best": (str,), "best_reward": (int, float),
}


def _cache_record(rec) -> LabeledExample:
    """The LabeledExample of one parsed cache record; a ValueError says what
    is wrong with a record this program cannot have written."""
    if not isinstance(rec, dict):
        raise ValueError("record is not a JSON object")
    for name, kinds in CACHE_FIELDS.items():
        if name not in rec:
            raise ValueError(f"missing field {name!r}")
        if type(rec[name]) not in kinds:
            raise ValueError(f"field {name!r} has the wrong type")
    if not all(type(i) is int and i >= 0 for i in rec["order"]):
        raise ValueError(f"order {rec['order']!r} is not a list of sentence indices")
    if not rec["order"]:
        raise ValueError("extract must select at least one sentence")
    if len(set(rec["order"])) != len(rec["order"]):
        raise ValueError("extract order has duplicate indices")
    for t in rec["abstractions"]:
        # a token that is empty or holds whitespace (tokenizing yields none)
        # does not survive the join and split
        if not (type(t) is list and t and all(type(w) is str for w in t) and " ".join(t).split() == t):
            raise ValueError("abstractions are not non-empty lists of tokens")
    l = len(rec["order"])
    for name in ("labels", "abstractions", "best"):
        if len(rec[name]) != l:
            raise ValueError(f"{name} has {len(rec[name])} entries, order has {l}")
    for row in rec["labels"]:
        # 0 <= v < inf is false for NaN, infinities and negative numbers
        if not (type(row) is list and len(row) == 3 and all(type(v) in (int, float) and 0 <= v < math.inf for v in row)):
            raise ValueError(f"label row {row!r} is not three finite non-negative numbers")
    if not set(rec["best"]) <= set(DECISIONS):
        raise ValueError(f"best {rec['best']!r} is not a sequence of E, A, R")
    if not math.isfinite(rec["best_reward"]):
        raise ValueError(f"best_reward {rec['best_reward']!r} is not a finite number")
    return LabeledExample(
        example_id=rec["id"],
        order=tuple(rec["order"]),
        abstractions=tuple(tuple(t) for t in rec["abstractions"]),
        labels=tuple(tuple(row) for row in rec["labels"]),
        best=tuple(DECISIONS.index(c) for c in rec["best"]),
        best_reward=rec["best_reward"],
    )


def read_label_cache(
    path, header: Mapping[str, object], examples: Sequence[Example], split: str
) -> list[tuple[Example, LabeledExample]]:
    """The (example, labeled example) pairs of the `split` split's label
    cache, in file order, read in one pass. The header is checked before any
    record: this CACHE_VERSION, then `header`'s value of every field. Each
    record must pass `_cache_record`, have an id seen once and found in
    `examples`, and extract only sentences of its document, and a cache with
    no record is refused. A refusal raises ValueError("<path>[:<line>]:
    <reason>; rerun sumedit label --split <split>"). The examples without a
    record are left out, and one warning counts them."""

    def refused(where, reason) -> ValueError:
        return ValueError(f"{where}: {reason}; rerun sumedit label --split {split}")

    def parsed(no, ln):
        try:
            return json_line(ln)
        except ValueError as exc:
            raise refused(f"{path}:{no}", f"not valid JSON ({exc})") from None

    by_id = {ex.document.id: ex for ex in examples}
    first_line: dict[str, int] = {}
    pairs = []
    with open(path, encoding="utf-8") as fh:
        lines = ((no, ln) for no, ln in enumerate(fh, 1) if ln.strip())
        no, ln = next(lines, (0, ""))
        if not no:
            raise refused(path, "empty label cache")
        found = parsed(no, ln)
        version = found.get("cache_version") if isinstance(found, dict) else None
        if version != CACHE_VERSION:
            raise refused(path, f"label cache version {version} is not supported")
        # The extracts, abstractions and soft labels depend on these fields,
        # so a cache labeled under others does not belong to the run.
        for name, value in header.items():
            if found.get(name) != value:
                raise refused(path, f"labeled with {name} {found.get(name)}, config has {name} {value}")
        for no, ln in lines:
            where, rec = f"{path}:{no}", parsed(no, ln)
            try:
                lab = _cache_record(rec)
            except ValueError as exc:
                raise refused(where, exc) from None
            first = first_line.setdefault(lab.example_id, no)
            if first != no:
                raise refused(where, f"duplicate id {lab.example_id!r} (first at line {first})")
            example = by_id.get(lab.example_id)
            if example is None:
                raise refused(where, f"example {lab.example_id!r} is not in the {split} dataset")
            past = [i for i in lab.order if i >= len(example.document)]
            if past:
                reason = f"extracts sentence {past[0]}, but its document has {len(example.document)} sentences"
                raise refused(where, f"example {lab.example_id!r} {reason}")
            pairs.append((example, lab))
    if not pairs:
        raise refused(path, f"the {split} split has no labeled examples")
    if len(pairs) < len(examples):
        reason = "%s: %d of %d %s examples have no label record and are left out"
        warn(__name__, reason, path, len(examples) - len(pairs), len(examples), split)
    return pairs
