"""Experiment configuration: one JSON file plus CLI-flag overrides.

Every run writes its resolved configuration next to its outputs so an
experiment can be replayed exactly from the artifacts alone.
"""
from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Callable

from .rouge import RewardWeights
from .text import atomic_open, read_json_object

if TYPE_CHECKING:
    from .encoder import EncoderConfig
    from .summarizers import Abstractor, ExtractResult
    from .text import Example

# Every config field of `ExperimentConfig`: the type it takes and its default.
FIELDS = {
    "train_path": ("str | None", None),
    "val_path": ("str | None", None),
    "test_path": ("str | None", None),
    "extractor": ("str", "lead"),  # "lead" or "greedy"
    "k": ("int", 4),
    "abstract_ratio": ("float", 0.8),
    "encoder_n": ("int", 64),
    "hash_seed": ("int", 0),
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


class ExperimentConfig:
    """Every field of FIELDS, given by keyword or left at its default,
    checked against its type and the values that a command can run with; a
    name that is not a field is an error."""

    __slots__ = tuple(FIELDS)

    def __init__(self, /, **values):
        unknown = values.keys() - FIELDS.keys()
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        fields = {name: values.get(name, default) for name, (_, default) in FIELDS.items()}
        for name, value in fields.items():
            types, expected = _ACCEPTS[FIELDS[name][0]]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"config field {name!r} must be {expected}, got {value!r}")
        for name in ("alpha", "beta", "gamma", "lr"):
            if not math.isfinite(fields[name]):
                raise ValueError(f"config field {name!r} must be a finite number, got {fields[name]!r}")
        for name, low in (("k", 1), ("encoder_n", 1), ("hidden_m", 1), ("cap", 1), ("batch_size", 1), ("epochs", 1),
                          ("seed", 0), ("alpha", 0), ("beta", 0), ("gamma", 0)):
            if fields[name] < low:
                raise ValueError(f"config field {name!r} must be >= {low}, got {fields[name]!r}")
        if fields["lr"] <= 0:
            raise ValueError(f"config field 'lr' must be > 0, got {fields['lr']!r}")
        for name, value in fields.items():
            setattr(self, name, value)
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

        return EncoderConfig(n=self.encoder_n, hash_seed=self.hash_seed)

    # One example, or one (document, extract), at a time: `summarize`
    # abstracts through `make_abstractor`, and the benchmark's reference
    # scoring (perfbench) calls both. `summarizers` is imported by the
    # commands that extract or abstract only, so `train` and `evaluate` do
    # not compile it.
    def make_extractor(self) -> Callable[[Example], ExtractResult]:
        from . import summarizers

        return lambda example: summarizers.extract([example], self)[0]

    def make_abstractor(self) -> Abstractor:
        from .summarizers import abstract_extract

        return lambda document, extract: abstract_extract(document, extract, self.abstract_ratio)
