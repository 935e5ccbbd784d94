"""Experiment configuration: one JSON file plus CLI-flag overrides.

Every run writes its resolved configuration next to its outputs so an
experiment can be replayed exactly from the artifacts alone.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .encoder import EncoderConfig
from .rouge import RewardWeights
from .summarizers import GreedyOracleExtractor, LeadExtractor, SalienceAbstractor
from .text import atomic_open, read_json_object

# What a field of each annotated type takes, and how an error names it; a
# bool is not a number here.
_ACCEPTS = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
}


@dataclass
class TrainConfig:
    """Training-loop settings. They live here, not in `trainer`, so that a
    command that reads a config does not import the trainer."""

    batch_size: int = 32
    epochs: int = 20
    seed: int = 0
    lr: float = 1e-4

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")


@dataclass
class ExperimentConfig:
    train_path: str | None = None
    val_path: str | None = None
    test_path: str | None = None
    extractor: str = "lead"  # "lead" or "greedy"
    k: int = 4
    abstract_ratio: float = 0.8
    encoder_n: int = 64
    hash_seed: int = 0
    context_window: int = 1
    hidden_m: int = 64
    alpha: float = 0.4
    beta: float = 1.0
    gamma: float = 0.5
    cap: int = 12
    batch_size: int = 32
    epochs: int = 20
    lr: float = 1e-4
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        for f in dataclasses.fields(self):
            types, expected = _ACCEPTS[f.type]
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"config field {f.name!r} must be {expected}, got {value!r}")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        data = read_json_object(path)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def apply_overrides(self, overrides: dict) -> "ExperimentConfig":
        updates = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **updates)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def write(self, path) -> None:
        with atomic_open(path) as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    def reward_weights(self) -> RewardWeights:
        return RewardWeights(alpha=self.alpha, beta=self.beta, gamma=self.gamma)

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            n=self.encoder_n,
            hash_seed=self.hash_seed,
            context_window=self.context_window,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            batch_size=self.batch_size, epochs=self.epochs, seed=self.seed, lr=self.lr
        )

    def make_extractor(self):
        if self.extractor == "lead":
            return LeadExtractor(k=self.k)
        if self.extractor == "greedy":
            return GreedyOracleExtractor(k=self.k, weights=self.reward_weights())
        raise ValueError(f"unknown extractor {self.extractor!r}")

    def make_abstractor(self) -> SalienceAbstractor:
        return SalienceAbstractor(ratio=self.abstract_ratio)
