"""The benchmark's tracer contract: `perfbench/tracing.py` wraps program
functions by module attribute, so every attribute it names must exist, be
wrapped while a trace is on and be restored afterwards, and a traced CLI run
must still work and record its layers."""
import importlib.util
import json
from pathlib import Path

import pytest

from synthetic import make_corpus
from sumedit import cli, editor, oracle, summarizers, text
from sumedit.config import ExperimentConfig

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def layer_functions():
    return [getattr(module, attr) for _, module, attr, _, _ in tracing.LAYER_CALLS]


class TestInstrument:
    def test_every_attribute_wrapped_then_restored(self):
        before = layer_functions()
        with tracing.Tracer().instrument():
            during = layer_functions()
            for (name, module, attr, _, _), fn, wrapped in zip(tracing.LAYER_CALLS, before, during):
                assert wrapped is not fn, f"{module.__name__}.{attr} ({name}) is not wrapped"
        for (_, module, attr, _, _), fn, restored in zip(tracing.LAYER_CALLS, before, layer_functions()):
            assert restored is fn, f"{module.__name__}.{attr} is not restored"

    def test_restored_when_the_traced_block_raises(self):
        before = layer_functions()
        with pytest.raises(RuntimeError):
            with tracing.Tracer().instrument():
                raise RuntimeError("stop")
        assert all(a is b for a, b in zip(layer_functions(), before))

    def test_traced_cli_run_records_its_layers(self, tmp_path, capsys):
        for split, count, seed in (("train", 6, 0), ("val", 3, 1), ("test", 3, 2)):
            examples = make_corpus(count, seed=seed, k=1, id_prefix=split)
            text.write_dataset(examples, tmp_path / f"{split}.jsonl")
        config = {
            **{f"{s}_path": str(tmp_path / f"{s}.jsonl") for s in ("train", "val", "test")},
            "k": 3, "abstract_ratio": 0.95, "encoder_n": 12, "hidden_m": 8,
            "epochs": 2, "batch_size": 4, "out_dir": str(tmp_path / "out"),
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        ckpt = str(tmp_path / "out" / "checkpoint.json")
        tracer = tracing.Tracer()
        with tracer.instrument():
            for argv in (
                ["label", "--split", "train", "--split", "val", "--split", "test"],
                ["train"],
                ["evaluate", "--checkpoint", ckpt],
                ["summarize", "--checkpoint", ckpt, "--document", str(tmp_path / "test.jsonl")],
            ):
                assert cli.main([argv[0], "--config", str(cfg), *argv[1:]]) == 0, argv
        capsys.readouterr()
        # 2 epochs of 2 batches, one validation decode per epoch, then the
        # evaluate and summarize decodes
        assert tracer.calls("editor.loss_and_gradients") == 4
        assert tracer.calls("trainer.adam_step") == 4
        assert tracer.calls("trainer.mean_reward") == 2
        assert tracer.calls("editor.decode") == 4
        for name in ("oracle.label_dataset", "trainer.train", "trainer.evaluate",
                     "editor.save_checkpoint", "editor.load_checkpoint", "summarizers.abstractions_for"):
            assert tracer.calls(name) > 0, name


class TestNamesTheBenchmarkReads:
    """The names that `src/` keeps for `perfbench/` alone (its tracer, and
    its reference scoring one example at a time) exist and keep their call
    shapes."""

    def test_every_layer_call_is_callable(self):
        for name, module, attr, _, _ in tracing.LAYER_CALLS:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"
        # `perfbench/checks.py` imports these two
        assert callable(summarizers.extract_lead) and isinstance(summarizers.Abstractor, type)

    @pytest.mark.parametrize("extractor", ["lead", "greedy"])
    def test_per_example_extractor_and_abstractor(self, extractor):
        cfg = ExperimentConfig(extractor=extractor, k=3, abstract_ratio=0.9, cap=5)
        examples = make_corpus(4, seed=3, k=2)
        for example, want in zip(examples, summarizers.extract(examples, cfg)):
            extract = cfg.make_extractor()(example)
            assert isinstance(extract, summarizers.ExtractResult) and extract == want
            abstractions = cfg.make_abstractor()(example.document, extract)
            assert abstractions == summarizers.abstract_extract(example.document, extract, 0.9)
            assert editor.abstractions_for(example.document, extract, cfg.make_abstractor()) == abstractions
            rewards = oracle.enumerate_rewards(example, extract, abstractions, reward_fn=lambda s: 0.0, cap=cfg.cap)
            assert rewards.shape == (3,) * len(extract.order)
