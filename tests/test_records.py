"""The record classes: plain `__slots__` classes with hand-written
constructors. Their constructors take what the corpus builders and the
benchmark pass, their checks raise the messages they always raised, and
equality holds where code and tests compare records."""
import json

import pytest

from sumedit.config import FIELDS, ExperimentConfig
from sumedit.encoder import EncoderConfig
from sumedit.oracle import LabeledExample
from sumedit.rouge import RewardWeights, RougeScore
from sumedit.summarizers import ExtractResult
from sumedit.text import Document, Example, ReferenceSummary, Sentence

S0, S1 = Sentence(0, ("a", "b")), Sentence(1, ("c",))


@pytest.mark.parametrize(
    "positional, keyword, fields",
    [
        (lambda: Sentence(0, ("a", "b")), lambda: Sentence(index=0, tokens=("a", "b")),
         {"index": 0, "tokens": ("a", "b")}),
        (lambda: Document("d", (S0, S1)), lambda: Document(id="d", sentences=(S0, S1)),
         {"id": "d", "sentences": (S0, S1)}),
        (lambda: ReferenceSummary((("a",),)), lambda: ReferenceSummary(sentences=(("a",),)),
         {"sentences": (("a",),)}),
        (lambda: Example(Document("d", (S0,)), ReferenceSummary((("a",),))),
         lambda: Example(document=Document("d", (S0,)), reference=ReferenceSummary((("a",),))),
         {"document": Document("d", (S0,)), "reference": ReferenceSummary((("a",),))}),
        (lambda: EncoderConfig(64, 0), lambda: EncoderConfig(n=64, hash_seed=0),
         {"n": 64, "hash_seed": 0, "context_window": 1}),
        (lambda: RewardWeights(0.4, 1.0, 0.5), lambda: RewardWeights(),
         {"alpha": 0.4, "beta": 1.0, "gamma": 0.5}),
    ],
    ids=["Sentence", "Document", "ReferenceSummary", "Example", "EncoderConfig", "RewardWeights"],
)
def test_constructors_take_positional_and_keyword_arguments(positional, keyword, fields):
    for record in (positional(), keyword()):
        assert {name: getattr(record, name) for name in type(record).__slots__} == fields
        assert not hasattr(record, "__dict__")


def test_experiment_config_takes_keywords_as_the_benchmark_passes_them():
    cfg = ExperimentConfig(out_dir="out/x", seed=3, **{"extractor": "greedy", "k": 30, "cap": 4})
    assert (cfg.out_dir, cfg.seed, cfg.extractor, cfg.k, cfg.cap) == ("out/x", 3, "greedy", 30, 4)
    assert cfg.to_dict() == {**{name: default for name, (_, default) in FIELDS.items()},
                             "out_dir": "out/x", "seed": 3, "extractor": "greedy", "k": 30, "cap": 4}


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Sentence(0, ()), "sentence has no tokens"),
        (lambda: Sentence(0, ("a", "b c")), "bad token 'b c'"),
        (lambda: Document("d", ()), "document has no sentences"),
        (lambda: Document("d", (S1,)), "sentence indices must be 0..N-1 contiguous"),
        (lambda: ReferenceSummary(()), "reference summary sentences must be non-empty"),
        (lambda: ReferenceSummary((("a",), ())), "reference summary sentences must be non-empty"),
        (lambda: RewardWeights(-0.1, 1.0, 0.5), "weights must be non-negative"),
        (lambda: RewardWeights(0, 0, 0), "at least one weight must be positive"),
        (lambda: RewardWeights(float("nan"), 1.0, 0.5), "weights must be finite"),
        (lambda: RewardWeights(0.4, float("inf"), 0.5), "weights must be finite"),
        (lambda: ExperimentConfig(lr=-1.0), "config field 'lr' must be > 0, got -1.0"),
        (lambda: ExperimentConfig(lr=0), "config field 'lr' must be > 0, got 0"),
        (lambda: ExperimentConfig(lr=float("nan")), "config field 'lr' must be a finite number, got nan"),
        (lambda: ExperimentConfig(lr=True), "config field 'lr' must be a number, got True"),
        (lambda: ExperimentConfig(seed=-1), "config field 'seed' must be >= 0, got -1"),
        (lambda: ExperimentConfig(seed=True), "config field 'seed' must be an integer, got True"),
        (lambda: ExperimentConfig(seed=1.5), "config field 'seed' must be an integer, got 1.5"),
        (lambda: ExperimentConfig(batch_size=2.5), "config field 'batch_size' must be an integer, got 2.5"),
        (lambda: ExperimentConfig(epochs=2.5), "config field 'epochs' must be an integer, got 2.5"),
        (lambda: ExperimentConfig(alpha=float("nan")), "config field 'alpha' must be a finite number, got nan"),
        (lambda: ExperimentConfig(lr=float("inf")), "config field 'lr' must be a finite number, got inf"),
        (lambda: ExperimentConfig(batch_size=0), "config field 'batch_size' must be >= 1, got 0"),
        (lambda: ExperimentConfig(epochs=0), "config field 'epochs' must be >= 1, got 0"),
        (lambda: ExperimentConfig(k=True), "config field 'k' must be an integer, got True"),
        (lambda: ExperimentConfig(alpha=False), "config field 'alpha' must be a number, got False"),
        (lambda: ExperimentConfig(epochs=2.0), "config field 'epochs' must be an integer, got 2.0"),
        (lambda: ExperimentConfig(out_dir=None), "config field 'out_dir' must be a string, got None"),
        (lambda: ExperimentConfig(val_path=1), "config field 'val_path' must be a string or null, got 1"),
        (lambda: ExperimentConfig(batchsize=8, seed=1), "unknown config fields: ['batchsize']"),
        (lambda: ExperimentConfig(**{"self": 1}), "unknown config fields: ['self']"),
    ],
)
def test_checks_raise_their_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "content, message",
    [
        ({"seed": 1, "bogus": 2, "k": "x"}, "unknown config fields: ['bogus']"),
        ({"encoder_n": True}, "config field 'encoder_n' must be an integer, got True"),
        ({"lr": "0.1"}, "config field 'lr' must be a number, got '0.1'"),
    ],
)
def test_config_file_rejects_unknown_fields_before_types(tmp_path, content, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(content))
    with pytest.raises(ValueError) as info:
        ExperimentConfig.from_file(path)
    assert str(info.value) == message


def test_resolved_config_bytes(tmp_path):
    cfg = ExperimentConfig(train_path="train.jsonl", k=3, alpha=1, lr=0.5, seed=7, out_dir="runs/a")
    cfg.write(tmp_path / "resolved_config.json")
    assert (tmp_path / "resolved_config.json").read_text() == (
        '{\n  "abstract_ratio": 0.8,\n  "alpha": 1,\n  "batch_size": 32,\n  "beta": 1.0,\n'
        '  "cap": 12,\n  "context_window": 1,\n  "encoder_n": 64,\n  "epochs": 20,\n'
        '  "extractor": "lead",\n  "gamma": 0.5,\n  "hash_seed": 0,\n  "hidden_m": 64,\n'
        '  "k": 3,\n  "lr": 0.5,\n  "out_dir": "runs/a",\n  "seed": 7,\n  "test_path": null,\n'
        '  "train_path": "train.jsonl",\n  "val_path": null\n}\n'
    )


def labeled(**changes) -> LabeledExample:
    fields = {
        "example_id": "e",
        "order": (0, 2),
        "abstractions": (("a",), ("b",)),
        "labels": ((0.5, 0.25, 0.25), (0.0, 0.0, 1.0)),
        "best": ("E", "R"),
        "best_reward": 0.75,
    }
    return LabeledExample(**{**fields, **changes})


@pytest.mark.parametrize(
    "make, changed",
    [
        (lambda **c: Sentence(**{"index": 0, "tokens": ("a",), **c}), {"tokens": ("b",)}),
        (lambda **c: Document(**{"id": "d", "sentences": (S0,), **c}), {"id": "e"}),
        (lambda **c: ReferenceSummary(**{"sentences": (("a",),), **c}), {"sentences": (("b",),)}),
        (lambda **c: Example(**{"document": Document("d", (S0,)),
                                "reference": ReferenceSummary((("a",),)), **c}),
         {"document": Document("d", (Sentence(0, ("z",)),))}),
        (lambda **c: RougeScore(**{"precision": 0.5, "recall": 0.25, "f1": 1 / 3, **c}), {"f1": 0.0}),
        (lambda **c: ExtractResult(**{"order": (0, 1), "likelihood": (1.0, 0.5), **c}),
         {"likelihood": (1.0, 0.25)}),
        (lambda **c: EncoderConfig(**{"n": 8, **c}), {"context_window": 0}),
        (labeled, {"order": (0, 1)}),
        (labeled, {"labels": ((0.5, 0.25, 0.25), (0.0, 1.0, 0.0))}),
    ],
    ids=["Sentence", "Document", "ReferenceSummary", "Example", "RougeScore", "ExtractResult",
         "EncoderConfig", "LabeledExample-extract", "LabeledExample-labels"],
)
def test_equality_compares_every_field(make, changed):
    assert make() == make() and not make() != make()
    assert make() != make(**changed)
    assert make() != object()


def test_unequal_types_with_equal_fields_differ():
    assert RougeScore(1.0, 1.0, 1.0) != ExtractResult((0,), (1.0,))
    assert Sentence(0, ("a",)) != Document("d", (Sentence(0, ("a",)),))

