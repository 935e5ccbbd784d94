"""Output checks. Each check records one pass/fail per example, document or
file in a Tally; the benchmark reports the tally as attempted/failed and is
correct only when nothing failed. Checks run outside the timed region."""
from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from sumedit import editor, rouge
from sumedit.summarizers import Abstractor, extract_lead
from sumedit.text import Example

LABEL_TOLERANCE = 1e-12
SYNTHETIC_OPTIMUM = "EEAR"


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.errors.append(message)
        return ok

    @property
    def failed(self) -> int:
        return len(self.errors)


def read_cache(path: Path) -> list[dict]:
    """Raw cache records (the header line dropped)."""
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(ln) for ln in fh if ln.strip()]
    return lines[1:]


def _label_rows_ok(labels) -> bool:
    rows = np.asarray(labels, dtype=float)
    return (
        rows.ndim == 2
        and rows.shape[1] == 3
        and bool(np.all(rows >= 0))
        and bool(np.all(np.abs(rows.sum(axis=1) - 1.0) <= LABEL_TOLERANCE))
    )


def check_cache(tally: Tally, path: Path, examples: list[Example], best: str | None = None) -> dict[str, dict]:
    """Every example has one cache record, in order, with label rows that are
    distributions; with `best`, every record's best sequence must equal it.
    Returns the records by id."""
    records = read_cache(path) if path.exists() else []
    by_id = {rec["id"]: rec for rec in records}
    tally.check(
        [rec["id"] for rec in records] == [ex.document.id for ex in examples],
        f"{path.name}: cache ids differ from the dataset",
    )
    for ex in examples:
        rec = by_id.get(ex.document.id)
        if not tally.check(rec is not None, f"{path.name}: {ex.document.id} not labeled"):
            continue
        ok = _label_rows_ok(rec["labels"]) and len(rec["labels"]) == len(rec["best"])
        if best is not None:
            ok = ok and rec["best"] == best
        tally.check(ok, f"{path.name}: {ex.document.id} has bad labels or best {rec['best']!r}")
    return by_id


def brute_force(example: Example, order, abstractions, weights: rouge.RewardWeights):
    """Reference enumeration: every E/A/R sequence in itertools.product order,
    scored with rouge.reward; best is the first maximum, and soft label i is
    the normalized per-decision mean reward over the sequences that share the
    best sequence's first i decisions."""
    l = len(order)
    versions = [
        (example.document.tokens_at(idx), tuple(abstracted))
        for idx, abstracted in zip(order, abstractions)
    ]
    seqs = list(itertools.product(range(3), repeat=l))
    rewards = []
    for seq in seqs:
        summary = [versions[i][d] for i, d in enumerate(seq) if d < 2]
        rewards.append(rouge.reward(summary, example.reference, weights))
    best_i = max(range(len(seqs)), key=lambda i: (rewards[i], -i))
    best = seqs[best_i]
    labels = []
    for i in range(l):
        sums, counts = [0.0] * 3, [0] * 3
        for seq, r in zip(seqs, rewards):
            if seq[:i] == best[:i]:
                sums[seq[i]] += r
                counts[seq[i]] += 1
        means = [s / c for s, c in zip(sums, counts)]
        z = sum(means)
        labels.append([m / z for m in means] if z > 0 else [1 / 3] * 3)
    return "".join("EAR"[d] for d in best), rewards[best_i], labels


def check_brute_force(
    tally: Tally,
    example: Example,
    rec: dict,
    k: int,
    abstractor: Abstractor,
    weights: rouge.RewardWeights,
) -> None:
    """The cached lead extract, abstractions, best sequence, best reward and
    labels agree with an independent enumeration of the same example."""
    eid = example.document.id
    extract = extract_lead(example.document, k)
    abstractions = editor.abstractions_for(example.document, extract, abstractor)
    tally.check(
        tuple(rec["order"]) == extract.order
        and [tuple(a) for a in rec["abstractions"]] == list(abstractions),
        f"{eid}: cached extract or abstractions differ from the lead extract",
    )
    best, best_reward, labels = brute_force(example, extract.order, abstractions, weights)
    tally.check(rec["best"] == best, f"{eid}: best {rec['best']} != brute force {best}")
    tally.check(
        rec["best_reward"] == best_reward,
        f"{eid}: best_reward {rec['best_reward']!r} != brute force {best_reward!r}",
    )
    diff = np.max(np.abs(np.asarray(rec["labels"], dtype=float) - np.asarray(labels)))
    tally.check(diff <= LABEL_TOLERANCE, f"{eid}: labels differ from brute force by {diff:.3g}")


def check_evaluation(tally: Tally, path: Path, test_size: int) -> float:
    """evaluation.json counts every test example and its decision fractions
    sum to 1. Returns its mean_reward (NaN when unreadable)."""
    if not tally.check(path.exists(), f"{path.name} missing"):
        return math.nan
    report = json.loads(path.read_text(encoding="utf-8"))
    tally.check(report["examples"] == test_size, f"evaluation examples {report['examples']} != {test_size}")
    total = sum(report["decision_fractions"].values())
    tally.check(abs(total - 1.0) <= 1e-9, f"decision fractions sum to {total!r}")
    return float(report["mean_reward"])


def parse_summaries(stdout: str) -> dict[str, tuple[list[tuple[str, tuple[str, ...]]], list[tuple[str, ...]]]]:
    """`sumedit summarize` output: per document, its decision lines and its
    summary sentences."""
    docs: dict = {}
    current = None
    in_summary = False
    for line in stdout.splitlines():
        if line.startswith("# "):
            current = docs.setdefault(line[2:], ([], []))
            in_summary = False
        elif current is None:
            continue
        elif line == "summary:":
            in_summary = True
        elif in_summary and line.startswith("  "):
            current[1].append(tuple(line[2:].split()))
        elif not in_summary and line[:3] in ("E: ", "A: ", "R: "):
            current[0].append((line[0], tuple(line[3:].split())))
    return docs


def check_summaries(
    tally: Tally, stdout: str, examples: list[Example], extracts, weights: rouge.RewardWeights
) -> float:
    """One decision line per extracted sentence for every document, kept and
    struck lines showing the extracted sentence, and a summary made of the
    E and A lines. Returns the mean reward of the extracts themselves (every
    extracted sentence kept), which measures the greedy extractor: the
    decisions of an untrained checkpoint say nothing about quality."""
    docs = parse_summaries(stdout)
    tally.check(list(docs) == [ex.document.id for ex in examples], "summarize documents out of order")
    total = 0.0
    for ex, extract in zip(examples, extracts):
        eid = ex.document.id
        decisions, summary = docs.get(eid, ([], []))
        ok = len(decisions) == len(extract.order)
        for (label, tokens), idx in zip(decisions, extract.order):
            source = ex.document.tokens_at(idx)
            ok = ok and (tokens == source if label in "ER" else 0 < len(tokens) <= len(source))
        ok = ok and summary == [tokens for label, tokens in decisions if label != "R"]
        tally.check(ok, f"{eid}: summarize output does not match its {len(extract.order)}-sentence extract")
        total += rouge.reward([ex.document.tokens_at(i) for i in extract.order], ex.reference, weights)
    return total / len(examples)
