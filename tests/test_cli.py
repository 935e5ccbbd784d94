import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from synthetic import make_corpus
from sumedit import cli, editor, text
from sumedit.config import ExperimentConfig
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


# Inputs for the ingest fuzz test: random JSON values, records with fields of
# the wrong type, blank, whitespace-only and non-ASCII-whitespace sentences,
# nesting past the recursion limit, and raw text lines.
WHITESPACE = " \t\u00a0\u1680\u2003\u2028\u3000\x1c\x85"
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
fuzz_sentences = st.text(alphabet=st.sampled_from(WHITESPACE + "abXé."), max_size=8)
fuzz_field = st.lists(fuzz_sentences, max_size=3) | json_values
fuzz_records = st.fixed_dictionaries(
    {},
    optional={
        "id": st.text(max_size=4) | json_values,
        "article_sentences": fuzz_field,
        "highlights": fuzz_field,
    },
)
fuzz_lines = st.lists(
    st.one_of(
        st.tuples(fuzz_records | json_values, st.booleans()).map(
            lambda value_ascii: json.dumps(value_ascii[0], ensure_ascii=value_ascii[1])
        ),
        st.integers(900, 5000).map(lambda depth: "[" * depth),
        st.integers(900, 5000).map(lambda depth: '{"id": ' * depth),
        st.sampled_from(["", "   ", WHITESPACE, "1" * 5000]),
        st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20),
    ),
    max_size=6,
)


class TestIngestFuzz:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(fuzz_lines)
    def test_exits_cleanly_and_keeps_previous_output_on_error(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            src, out = Path(tmp) / "in.jsonl", Path(tmp) / "out.jsonl"
            src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            out.write_bytes(b"previous\n")
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                rc = cli.main(["ingest", str(src), str(out)])
            err = stderr.getvalue().split("\n")
            assert err.pop() == ""
            if rc == 1:
                # one error line, after a warning per record rejected before it
                assert re.fullmatch(r"error: line \d+: .+", err.pop())
                assert all(e.startswith("WARNING sumedit.text: rejected record: line ") for e in err)
                assert out.read_bytes() == b"previous\n"
            else:
                assert rc == 0
                report = json.loads(stdout.getvalue())
                assert len(err) == report["rejected"]
                assert len(out.read_text(encoding="utf-8").splitlines()) == report["accepted"]


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


def rewrite_first_record(cache, change):
    """Replace line 2 of a label cache (its first record) by change(line)."""
    lines = cache.read_text().splitlines(keepends=True)
    lines[1] = change(lines[1])
    cache.write_text("".join(lines))


def edit_record(edit):
    def change(line):
        rec = json.loads(line)
        edit(rec)
        return json.dumps(rec) + "\n"

    return change


def set_label_row(row):
    def edit(rec):
        rec["labels"][0] = row

    return edit


class TestLabelCacheValidation:
    @pytest.fixture
    def labeled(self, workspace, capsys):
        cfg = write_config(workspace)
        assert cli.main(["label", "--config", str(cfg), "--split", "train", "--split", "val"]) == 0
        capsys.readouterr()
        return cfg, workspace / "out" / "labels_train.jsonl"

    @pytest.mark.parametrize(
        "change, message",
        [
            (edit_record(lambda rec: rec.pop("best")), "missing field 'best'"),
            (lambda line: line[: len(line) // 2] + "\n", "not valid JSON"),
            (lambda line: "[" * 5000 + "\n", "not valid JSON (nested too deeply)"),
            (edit_record(lambda rec: rec["labels"].pop()), "labels has 2 entries, order has 3"),
            (edit_record(lambda rec: rec["abstractions"].append(["x"])), "abstractions has 4 entries"),
            (edit_record(lambda rec: rec.update(best=rec["best"][:2])), "best has 2 entries"),
            (edit_record(set_label_row([float("nan"), 0.5, 0.5])), "not three finite non-negative"),
            (edit_record(set_label_row([-0.1, 0.6, 0.5])), "not three finite non-negative"),
            (edit_record(set_label_row([0.5, 0.5])), "not three finite non-negative"),
        ],
        ids=["missing-field", "truncated-line", "deep-nesting", "labels-length", "abstractions-length",
             "best-length", "nan-label", "negative-label", "short-label-row"],
    )
    def test_bad_record_names_file_and_line(self, labeled, capsys, change, message):
        cfg, cache = labeled
        rewrite_first_record(cache, change)
        assert cli.main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cache}:2: ")
        assert message in err
        assert "Traceback" not in err
        assert not (cache.parent / "checkpoint.json").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_loss_stops_train(self, labeled, capsys):
        # finite, non-negative label rows pass validation but overflow the loss
        cfg, cache = labeled
        rewrite_first_record(cache, edit_record(lambda rec: rec.update(labels=[[1e308] * 3] * 3)))
        example_id = json.loads(cache.read_text().splitlines()[1])["id"]
        assert cli.main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: epoch 1: non-finite training loss")
        assert example_id in err
        assert not (cache.parent / "checkpoint.json").exists()
        assert not (cache.parent / "train_log.jsonl").exists()


def order_past_document(cache):
    """Point the first record's last extracted sentence past its document
    (every synthetic document here has 3 sentences); returns the record's id."""
    rewrite_first_record(cache, edit_record(lambda rec: rec["order"].__setitem__(-1, 9)))
    return json.loads(cache.read_text().splitlines()[1])["id"]


class TestCacheAgainstDataset:
    def test_order_past_document_stops_train(self, workspace, capsys):
        cfg = write_config(workspace)
        assert cli.main(["label", "--config", str(cfg), "--split", "train", "--split", "val"]) == 0
        cache = workspace / "out" / "labels_val.jsonl"
        example_id = order_past_document(cache)
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cache}: example {example_id!r} extracts sentence 9, ")
        assert err.endswith("but its document has 3 sentences\n")
        assert "Traceback" not in err
        assert not (cache.parent / "checkpoint.json").exists()

    def test_order_past_document_stops_evaluate(self, workspace, capsys):
        ckpt = checkpoint(workspace, [0.0, 0.0, 0.0])
        cfg = write_config(workspace)
        assert cli.main(["label", "--config", str(cfg), "--split", "test"]) == 0
        cache = workspace / "out" / "labels_test.jsonl"
        example_id = order_past_document(cache)
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {cache}: example {example_id!r} extracts sentence 9, ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (cache.parent / "evaluation.json").exists()


class TestLabelFailureLog:
    def test_one_line_per_failed_example(self, workspace):
        """`sumedit label` runs in a child process, as users run it, so that
        no handler of the test runner stands in for the program's logging."""
        cfg = write_config(workspace, cap=2)  # every extract has l = 3
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "sumedit.cli", "label", "--config", str(cfg), "--split", "val"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        ids = [ex.document.id for ex in text.load_dataset(workspace / "val.jsonl")]
        assert len([ln for ln in lines if "labeling failed" in ln]) == len(ids) == 6
        for example_id in ids:
            assert sum(example_id in ln for ln in lines) == 1


def checkpoint(tmp_path, bias):
    rng = np.random.default_rng(0)
    params = editor.init_params(8, 12, rng)
    params.flat[:] = 0.0
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

    def test_output_does_not_depend_on_decode_chunk(self, workspace, capsys, monkeypatch):
        rng = np.random.default_rng(0)
        params = editor.init_params(8, 12, rng)
        params.flat[:] += rng.normal(0, 0.5, size=params.flat.size)
        ckpt = workspace / "random.json"
        editor.save_checkpoint(params, EncoderConfig(n=12, hash_seed=0, context_window=1), ckpt)
        argv = ["summarize", "--config", str(write_config(workspace)), "--checkpoint",
                str(ckpt), "--document", str(workspace / "test.jsonl")]
        assert cli.main(argv) == 0
        whole = capsys.readouterr().out
        monkeypatch.setattr(editor, "DECODE_CHUNK", 2)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == whole
        decisions = {ln[:2] for ln in whole.splitlines() if ln[:2] in ("E:", "A:", "R:")}
        assert len(decisions) > 1
        ids = [ex.document.id for ex in text.load_dataset(workspace / "test.jsonl")]
        assert [ln[2:] for ln in whole.splitlines() if ln.startswith("# ")] == ids
        assert len(ids) > 2

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


class TestStartup:
    def test_cli_import_loads_no_worker_pool(self):
        """Only `label` with more than one worker uses a process pool, so
        starting the CLI must not pay for importing one."""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        code = (
            "import sys, sumedit.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestWorkers:
    @pytest.mark.parametrize("value", ["two", "0", "-3"])
    def test_bad_value_is_an_error(self, workspace, capsys, monkeypatch, value):
        monkeypatch.setenv("EDITNET_WORKERS", value)
        cfg = write_config(workspace)
        assert cli.main(["label", "--config", str(cfg), "--split", "train"]) == 1
        assert "EDITNET_WORKERS" in capsys.readouterr().err
        assert not (workspace / "out" / "labels_train.jsonl").exists()


def edited(edit):
    """A checkpoint change: edit(payload) in place, then the payload's JSON."""

    def change(payload):
        edit(payload)
        return json.dumps(payload)

    return change


class TestConfigAndCheckpointFiles:
    """A config or a checkpoint that is not what it should be ends the
    command with one `error: ...` line that names the file or the field."""

    @staticmethod
    def assert_one_error_line(capsys, message):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "content, message",
        [
            ("[" * 5000, "not valid JSON (nested too deeply)"),
            ('["seed"]', "expected a JSON object, not list"),
            ('{"epochs": "3"}', "config field 'epochs' must be an integer, got '3'"),
            ('{"alpha": "x"}', "config field 'alpha' must be a number, got 'x'"),
            ('{"encoder_n": true}', "config field 'encoder_n' must be an integer, got True"),
            ('{"cap": 2.5}', "config field 'cap' must be an integer, got 2.5"),
            ('{"k": null}', "config field 'k' must be an integer, got None"),
            ('{"train_path": 3}', "config field 'train_path' must be a string or null, got 3"),
        ],
        ids=["deep-nesting", "not-an-object", "str-for-int", "str-for-float", "bool-for-int",
             "float-for-int", "null-for-int", "int-for-path"],
    )
    def test_bad_config(self, workspace, capsys, content, message):
        path = workspace / "bad_config.json"
        path.write_text(content)
        assert cli.main(["train", "--config", str(path)]) == 1
        self.assert_one_error_line(capsys, message)

    def test_numbers_and_null_paths_accepted_where_declared(self, workspace):
        cfg = ExperimentConfig.from_file(write_config(workspace, alpha=1, lr=0.5, test_path=None))
        assert (cfg.alpha, cfg.lr, cfg.test_path) == (1, 0.5, None)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda payload: "[1]", "expected a JSON object, not list"),
            (lambda payload: "[" * 5000, "not valid JSON (nested too deeply)"),
            (edited(lambda p: p.pop("W_c")), "checkpoint has no 'W_c'"),
            (edited(lambda p: p["encoder"].pop("hash_seed")), "checkpoint encoder has no 'hash_seed'"),
            (edited(lambda p: p.update(m="8")), "checkpoint m must be a positive integer, got '8'"),
            (edited(lambda p: p["W_g"].pop()), "W_g is not a number array of shape (12, 12)"),
            (edited(lambda p: p["b"].__setitem__(0, "x")), "b is not a number array of shape (3,)"),
            (edited(lambda p: p["encoder"].update(n=12.0)), "encoder n must be an integer, got 12.0"),
        ],
        ids=["not-an-object", "deep-nesting", "missing-array", "missing-encoder-field",
             "str-dimension", "ragged-array", "str-entry", "float-encoder-width"],
    )
    def test_bad_checkpoint(self, workspace, capsys, change, message):
        cfg = write_config(workspace)
        path = checkpoint(workspace, [0.0, 0.0, 0.0])
        path.write_text(change(json.loads(path.read_text())))
        assert cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(path)]) == 1
        self.assert_one_error_line(capsys, message)
