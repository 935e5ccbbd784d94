"""Experiment configuration: one JSON file plus CLI-flag overrides.

Every run writes its resolved configuration next to its outputs so an
experiment can be replayed exactly from the artifacts alone.
"""
from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

from .rouge import RewardWeights
from .summarizers import GreedyOracleExtractor, LeadExtractor, SalienceAbstractor
from .text import atomic_open, read_json_object

if TYPE_CHECKING:
    from .encoder import EncoderConfig

# Every config field: the type it takes and its default. `ExperimentConfig`
# has all of them; `TrainConfig` has four, with the same defaults.
FIELDS = {
    "train_path": ("str | None", None),
    "val_path": ("str | None", None),
    "test_path": ("str | None", None),
    "extractor": ("str", "lead"),  # "lead" or "greedy"
    "k": ("int", 4),
    "abstract_ratio": ("float", 0.8),
    "encoder_n": ("int", 64),
    "hash_seed": ("int", 0),
    "context_window": ("int", 1),
    "hidden_m": ("int", 64),
    "alpha": ("float", 0.4),
    "beta": ("float", 1.0),
    "gamma": ("float", 0.5),
    "cap": ("int", 12),
    "batch_size": ("int", 32),
    "epochs": ("int", 20),
    "lr": ("float", 1e-4),
    "seed": ("int", 0),
    "out_dir": ("str", "out"),
}

# What a field of each type takes, and how an error names it; a bool is not
# a number here.
_ACCEPTS = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
}


def _assign(record, values: dict) -> None:
    """Set every field of `record` (its `__slots__`) from `values`, or to
    its default in FIELDS; a name that is not a field is an error."""
    unknown = values.keys() - record.__slots__
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    for name in record.__slots__:
        setattr(record, name, values.get(name, FIELDS[name][1]))


class TrainConfig:
    """Training-loop settings. They live here, not in `trainer`, so that a
    command that reads a config does not import the trainer."""

    __slots__ = ("batch_size", "epochs", "seed", "lr")

    def __init__(self, /, **values):
        _assign(self, values)
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be a finite number > 0, got {self.lr!r}")


class ExperimentConfig:
    """Every field of FIELDS, given by keyword and checked against its type
    and the values a command can run with."""

    __slots__ = tuple(FIELDS)

    def __init__(self, /, **values):
        _assign(self, values)
        for name, (kind, _) in FIELDS.items():
            types, expected = _ACCEPTS[kind]
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"config field {name!r} must be {expected}, got {value!r}")
        # values that no command can run with; every command checks them
        # all, so no command runs with a field that another one refuses
        for name in ("alpha", "beta", "gamma", "lr"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"config field {name!r} must be a finite number, got {getattr(self, name)!r}")
        for name, low in (("k", 1), ("encoder_n", 1), ("hidden_m", 1), ("cap", 1), ("batch_size", 1),
                          ("epochs", 1), ("context_window", 0), ("seed", 0), ("alpha", 0), ("beta", 0), ("gamma", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"config field {name!r} must be >= {low}, got {getattr(self, name)!r}")
        if self.lr <= 0:
            raise ValueError(f"config field 'lr' must be > 0, got {self.lr!r}")
        if self.alpha == self.beta == self.gamma == 0:
            raise ValueError(f"config fields 'alpha', 'beta' and 'gamma' must not all be 0, "
                             f"got {self.alpha!r}, {self.beta!r}, {self.gamma!r}")
        if self.extractor not in ("lead", "greedy"):
            raise ValueError(f"config field 'extractor' must be 'lead' or 'greedy', got {self.extractor!r}")
        if not 0 < self.abstract_ratio <= 1:
            raise ValueError(f"config field 'abstract_ratio' must be in (0, 1], got {self.abstract_ratio!r}")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls(**read_json_object(path))

    def apply_overrides(self, overrides: dict) -> "ExperimentConfig":
        updates = {k: v for k, v in overrides.items() if v is not None}
        return ExperimentConfig(**{**self.to_dict(), **updates})

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in FIELDS}

    def write(self, path) -> None:
        with atomic_open(path) as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    def reward_weights(self) -> RewardWeights:
        return RewardWeights(alpha=self.alpha, beta=self.beta, gamma=self.gamma)

    def encoder_config(self) -> EncoderConfig:
        from .encoder import EncoderConfig

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
        if self.extractor == "greedy":
            return GreedyOracleExtractor(k=self.k, weights=self.reward_weights())
        return LeadExtractor(k=self.k)

    def make_abstractor(self) -> SalienceAbstractor:
        return SalienceAbstractor(ratio=self.abstract_ratio)
