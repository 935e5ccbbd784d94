"""The three benchmark workloads. Each one writes its inputs, lists the CLI
commands of one pass and checks their outputs.

See perfbench/README.md for why each workload exists.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sumedit import editor, oracle, summarizers, text
from sumedit.config import ExperimentConfig
from sumedit.encoder import EncoderConfig

import checks
import gen
from synthetic import make_corpus
from tracing import Tracer

SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class Command:
    name: str  # the sumedit subcommand
    argv: list[str]
    items: int  # examples, example-steps or documents the command handles


def _call(t: Tracer | None, name: str, fn, *args):
    return t.call(name, fn, *args) if t is not None else fn(*args)


class Workload:
    name = ""
    primary = ""  # the command whose throughput is primary_per_s

    def __init__(self, seed: int, tiny: bool, work: Path) -> None:
        self.seed, self.tiny = seed, tiny
        self.inputs, self.out = work / "inputs", work / "out"
        self.config_path = self.inputs / "config.json"

    def cli(self, command: str, *args: str) -> list[str]:
        return [sys.executable, "-m", "sumedit.cli", command, "--config", str(self.config_path), *args]

    def write_config(self, **fields) -> None:
        cfg = ExperimentConfig(out_dir=str(self.out), seed=self.seed, **fields)
        cfg.write(self.config_path)

    def config(self) -> ExperimentConfig:
        return ExperimentConfig.from_file(self.config_path)

    def artifacts(self) -> list[Path]:
        """Output files that every pass must reproduce byte for byte."""
        return sorted(p for p in self.out.iterdir() if p.is_file()) if self.out.is_dir() else []

    def scored_candidates(self) -> tuple[int, list]:
        """Untimed counting pass over the label command's enumeration: a
        reward_fn that records each candidate it is asked to score (one per
        distinct realized summary) instead of scoring it. Returns (sequences
        enumerated, [(candidate, reference)])."""
        cfg = self.config()
        extractor, abstractor = cfg.make_extractor(), cfg.make_abstractor()
        sequences, candidates = 0, []
        for ex in (ex for split in SPLITS for ex in self.examples[split]):
            extract = extractor(ex)
            abstractions = editor.abstractions_for(ex.document, extract, abstractor)

            def record(candidate, ref=ex.reference):
                candidates.append((candidate, ref))
                return 0.0

            oracle.enumerate_rewards(ex, extract, abstractions, reward_fn=record, cap=cfg.cap)
            sequences += 3 ** len(extract.order)
        return sequences, candidates

    def pipeline_items(self) -> int:
        """Examples or documents one pass handles."""
        return sum(len(v) for v in self.examples.values())


class SyntheticPipeline(Workload):
    """tests/synthetic.py corpus (k = 2: l = 4, known optimum EEAR) through
    label, train and evaluate with the criterion-7 model shape."""

    name = "synthetic-pipeline"
    primary = "train"

    def __init__(self, seed, tiny, work):
        super().__init__(seed, tiny, work)
        self.sizes = dict(train=8, val=4, test=4) if tiny else dict(train=100, val=25, test=40)
        self.epochs = 2 if tiny else 20

    def setup(self, t: Tracer | None = None) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.examples = {}
        for j, split in enumerate(SPLITS):
            self.examples[split] = make_corpus(
                self.sizes[split], seed=3 * self.seed + j, k=2, id_prefix=split
            )
            _call(t, "text.write_dataset", text.write_dataset, self.examples[split], self.inputs / f"{split}.jsonl")
        self.write_config(
            **{f"{s}_path": str(self.inputs / f"{s}.jsonl") for s in SPLITS},
            extractor="lead", k=4, abstract_ratio=0.95, encoder_n=24, hidden_m=24,
            hash_seed=7, epochs=self.epochs, batch_size=4 if self.tiny else 16, lr=1e-2,
        )

    def commands(self) -> list[Command]:
        ckpt = str(self.out / "checkpoint.json")
        return [
            Command("label", self.cli("label", *(a for s in SPLITS for a in ("--split", s))), sum(self.sizes.values())),
            Command("train", self.cli("train"), self.sizes["train"] * self.epochs),
            Command("evaluate", self.cli("evaluate", "--checkpoint", ckpt), self.sizes["test"]),
        ]

    def check(self, tally: checks.Tally, stdout: dict[str, str]) -> float:
        for split in SPLITS:
            checks.check_cache(tally, self.out / f"labels_{split}.jsonl", self.examples[split], best=checks.SYNTHETIC_OPTIMUM)
        ckpt = self.out / "checkpoint.json"
        if tally.check(ckpt.exists(), "checkpoint.json missing"):
            editor.load_checkpoint(ckpt)
        log = self.out / "train_log.jsonl"
        tally.check(
            log.exists() and len(log.read_text().splitlines()) == self.epochs,
            f"train_log.jsonl does not have {self.epochs} epochs",
        )
        return checks.check_evaluation(tally, self.out / "evaluation.json", self.sizes["test"])


class LongExtractLabel(Workload):
    """Random-vocabulary documents of l = 5, 6 or 7 sentences, labeled with
    a lead-7 extractor so the extract is the whole document."""

    name = "long-extract-label"
    primary = "label"
    K = 7

    def __init__(self, seed, tiny, work):
        super().__init__(seed, tiny, work)
        # The same mix of lengths in every split: one document per l per block.
        self.lengths = [5, 6] if tiny else [5, 6, 7]

    def setup(self, t: Tracer | None = None) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.examples = {}
        for j, split in enumerate(SPLITS):
            self.examples[split] = gen.long_extract_corpus(3 * self.seed + j, self.lengths, split)
            _call(t, "text.write_dataset", text.write_dataset, self.examples[split], self.inputs / f"{split}.jsonl")
        self.write_config(**{f"{s}_path": str(self.inputs / f"{s}.jsonl") for s in SPLITS}, extractor="lead", k=self.K)

    def commands(self) -> list[Command]:
        return [Command("label", self.cli("label", "--split", s), len(self.examples[s])) for s in SPLITS]

    def check(self, tally: checks.Tally, stdout: dict[str, str]) -> float:
        cfg = self.config()
        records = {}
        for split in SPLITS:
            records.update(checks.check_cache(tally, self.out / f"labels_{split}.jsonl", self.examples[split]))
        # A seeded sample, re-enumerated independently: one document per split.
        rng = np.random.default_rng([self.seed, 7])
        for split in SPLITS:
            ex = self.examples[split][int(rng.integers(len(self.examples[split])))]
            if ex.document.id in records:
                checks.check_brute_force(
                    tally, ex, records[ex.document.id], self.K, cfg.make_abstractor(), cfg.reward_weights()
                )
        rewards = [rec["best_reward"] for rec in records.values()]
        return float(np.mean(rewards)) if rewards else float("nan")


class GreedySummarize(Workload):
    """30-sentence random-vocabulary documents summarized with the greedy
    extractor (k = 4) and an untrained checkpoint read from disk."""

    name = "greedy-summarize"
    primary = "summarize"
    N_SENTENCES = 30
    K = 4

    def __init__(self, seed, tiny, work):
        super().__init__(seed, tiny, work)
        self.count = 3 if tiny else 40
        self.documents = self.inputs / "documents.jsonl"
        self.checkpoint = self.inputs / "checkpoint.json"

    def setup(self, t: Tracer | None = None) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.examples = gen.long_document_corpus(self.seed, self.count, self.N_SENTENCES, "doc")
        _call(t, "text.write_dataset", text.write_dataset, self.examples, self.documents)
        params = editor.init_params(64, 64, np.random.default_rng(0))
        _call(t, "editor.save_checkpoint", editor.save_checkpoint, params, EncoderConfig(n=64, hash_seed=0), self.checkpoint)
        self.write_config(extractor="greedy", k=self.K)

    def commands(self) -> list[Command]:
        argv = self.cli("summarize", "--checkpoint", str(self.checkpoint), "--document", str(self.documents))
        return [Command("summarize", argv, self.count)]

    def pipeline_items(self) -> int:
        return len(self.examples)

    def extracts(self):
        extractor = self.config().make_extractor()
        return [extractor(ex) for ex in self.examples]

    def scored_candidates(self) -> tuple[int, list]:
        """Untimed pass of the greedy extractor with the `reward` it looks up
        replaced by one that records each candidate before scoring it.
        Enumerates no sequences."""
        candidates, score = [], summarizers.reward

        def record(candidate, ref, weights):
            candidates.append((candidate, ref))
            return score(candidate, ref, weights)

        summarizers.reward = record
        try:
            self.extracts()
        finally:
            summarizers.reward = score
        return 0, candidates

    def check(self, tally: checks.Tally, stdout: dict[str, str]) -> float:
        return checks.check_summaries(
            tally, stdout["summarize"], self.examples, self.extracts(), self.config().reward_weights()
        )


WORKLOADS = {w.name: w for w in (SyntheticPipeline, LongExtractLabel, GreedySummarize)}

