import json

import numpy as np
import pytest

from synthetic import make_corpus
from sumedit import cli, editor, text
from sumedit.encoder import EncoderConfig


def write_config(tmp_path, **overrides):
    cfg = {
        "train_path": str(tmp_path / "train.jsonl"),
        "val_path": str(tmp_path / "val.jsonl"),
        "test_path": str(tmp_path / "test.jsonl"),
        "extractor": "lead",
        "k": 3,
        "abstract_ratio": 0.95,
        "encoder_n": 12,
        "hidden_m": 8,
        "epochs": 2,
        "batch_size": 8,
        "seed": 11,
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def workspace(tmp_path):
    text.write_dataset(make_corpus(16, seed=0, k=1), tmp_path / "train.jsonl")
    text.write_dataset(make_corpus(6, seed=1, k=1, id_prefix="v"), tmp_path / "val.jsonl")
    text.write_dataset(make_corpus(6, seed=2, k=1, id_prefix="te"), tmp_path / "test.jsonl")
    return tmp_path


class TestIngest:
    def test_valid_file_report(self, tmp_path, capsys):
        text.write_dataset(make_corpus(2, seed=0, k=1), tmp_path / "in.jsonl")
        rc = cli.main(["ingest", str(tmp_path / "in.jsonl"), str(tmp_path / "out.jsonl")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["accepted"] == 2 and report["rejected"] == 0

    def test_empty_highlights_rejected(self, tmp_path, capsys):
        with open(tmp_path / "in.jsonl", "w") as fh:
            fh.write(json.dumps({"id": "x", "article_sentences": ["a b"], "highlights": []}) + "\n")
            fh.write(json.dumps({"id": "y", "article_sentences": ["a b"], "highlights": ["a b"]}) + "\n")
        rc = cli.main(["ingest", str(tmp_path / "in.jsonl"), str(tmp_path / "out.jsonl")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["accepted"] == 1 and report["rejected"] == 1
        assert "line 1" in report["reject_reasons"][0]

    def test_canonical_output_reingestable(self, tmp_path, capsys):
        text.write_dataset(make_corpus(3, seed=0, k=1), tmp_path / "in.jsonl")
        assert cli.main(["ingest", str(tmp_path / "in.jsonl"), str(tmp_path / "mid.jsonl")]) == 0
        capsys.readouterr()
        assert cli.main(["ingest", str(tmp_path / "mid.jsonl"), str(tmp_path / "out.jsonl")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"accepted": 3, "rejected": 0, "reject_reasons": []}

    def test_unreadable_input_fails(self, tmp_path, capsys):
        rc = cli.main(["ingest", str(tmp_path / "missing.jsonl"), str(tmp_path / "out.jsonl")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestLabelAndTrain:
    def test_label_then_train_artifacts(self, workspace, capsys):
        cfg = write_config(workspace)
        rc = cli.main(["label", "--config", str(cfg), "--split", "train", "--split", "val"])
        assert rc == 0
        out = workspace / "out"
        assert (out / "labels_train.jsonl").exists()
        assert (out / "labels_val.jsonl").exists()
        rc = cli.main(["train", "--config", str(cfg)])
        assert rc == 0
        assert (out / "checkpoint.json").exists()
        log_lines = (out / "train_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 2
        entry = json.loads(log_lines[0])
        assert entry["epoch"] == 1
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["seed"] == 11

    def test_train_without_cache_names_label_command(self, workspace, capsys):
        cfg = write_config(workspace)
        with pytest.raises(SystemExit, match="label"):
            cli.main(["train", "--config", str(cfg)])

    def test_fixed_seed_byte_identical(self, workspace):
        outs = []
        for name in ("out_a", "out_b"):
            cfg = write_config(workspace, out_dir=str(workspace / name))
            assert cli.main(["label", "--config", str(cfg), "--split", "train", "--split", "val"]) == 0
            assert cli.main(["train", "--config", str(cfg)]) == 0
            outs.append(workspace / name)
        for artifact in ("labels_train.jsonl", "checkpoint.json", "train_log.jsonl"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def checkpoint(tmp_path, bias):
    rng = np.random.default_rng(0)
    params = editor.init_params(8, 12, rng)
    for arr in params.arrays().values():
        arr[:] = 0.0
    params.b[:] = bias
    path = tmp_path / "ckpt.json"
    editor.save_checkpoint(params, EncoderConfig(n=12, hash_seed=0, context_window=1), path)
    return path


class TestSummarizeAndEvaluate:
    def test_all_extract_annotations(self, workspace, capsys):
        ckpt = checkpoint(workspace, [0.0, 0.0, 0.0])
        cfg = write_config(workspace)
        rc = cli.main(
            ["summarize", "--config", str(cfg), "--checkpoint", str(ckpt),
             "--document", str(workspace / "test.jsonl")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        decisions = [ln.split(":")[0] for ln in out.splitlines() if ln[:2] in ("E:", "A:", "R:")]
        assert decisions and set(decisions) == {"E"}

    def test_all_reject_empty_summary(self, workspace, capsys):
        ckpt = checkpoint(workspace, [-10.0, -10.0, 10.0])
        cfg = write_config(workspace)
        rc = cli.main(
            ["summarize", "--config", str(cfg), "--checkpoint", str(ckpt),
             "--document", str(workspace / "test.jsonl")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        decisions = [ln.split(":")[0] for ln in out.splitlines() if ln[:2] in ("E:", "A:", "R:")]
        assert decisions and set(decisions) == {"R"}
        blocks = out.split("summary:")
        assert all(not b.strip() or b.lstrip().startswith("#") for b in blocks[1:])

    def test_evaluate_writes_valid_report(self, workspace, capsys):
        ckpt = checkpoint(workspace, [0.0, 0.0, 0.0])
        cfg = write_config(workspace)
        assert cli.main(["label", "--config", str(cfg), "--split", "test"]) == 0
        capsys.readouterr()
        rc = cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt)])
        assert rc == 0
        report = json.loads((workspace / "out" / "evaluation.json").read_text())
        assert report["decision_fractions"]["E"] == 1.0
        assert sum(report["decision_fractions"].values()) == pytest.approx(1.0, abs=1e-9)
        printed = json.loads(capsys.readouterr().out)
        assert printed == report


class TestSummarizeInput:
    def summarize(self, workspace, records):
        path = workspace / "docs.jsonl"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        ckpt = checkpoint(workspace, [0.0, 0.0, 0.0])
        cfg = write_config(workspace)
        return cli.main(
            ["summarize", "--config", str(cfg), "--checkpoint", str(ckpt),
             "--document", str(path)]
        )

    @pytest.mark.parametrize(
        "record",
        [
            {"id": "x", "article_sentences": "xy"},
            {"id": "x", "article_sentences": [1, 2]},
            {"id": 7, "article_sentences": ["a b c"]},
        ],
        ids=["sentences-string", "sentences-not-strings", "id-not-string"],
    )
    def test_malformed_record_names_line(self, workspace, capsys, record):
        assert self.summarize(workspace, [record]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: line 1: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_lead_without_highlights(self, workspace, capsys):
        records = [
            {"id": "p", "article_sentences": ["a b c", "d e f", "g h", "i j"]},
            {"id": "q", "article_sentences": ["k l m", "n o"]},
        ]
        assert self.summarize(workspace, records) == 0
        out = capsys.readouterr().out
        assert [ln for ln in out.splitlines() if ln.startswith("#")] == ["# p", "# q"]
        decisions = [ln.split(":")[0] for ln in out.splitlines() if ln[:2] in ("E:", "A:", "R:")]
        assert decisions == ["E"] * 5


class TestWorkers:
    @pytest.mark.parametrize("value", ["two", "0", "-3"])
    def test_bad_value_is_an_error(self, workspace, capsys, monkeypatch, value):
        monkeypatch.setenv("EDITNET_WORKERS", value)
        cfg = write_config(workspace)
        assert cli.main(["label", "--config", str(cfg), "--split", "train"]) == 1
        assert "EDITNET_WORKERS" in capsys.readouterr().err
        assert not (workspace / "out" / "labels_train.jsonl").exists()
