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
from sumedit import cli, editor, text, trainer
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
        assert capsys.readouterr().out == (
            '{"accepted": 1, "reject_reasons": ["line 1: empty article or highlights"], "rejected": 1}\n'
        )

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
                assert re.fullmatch(re.escape(f"error: {src}:") + r"\d+: .+", err.pop())
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
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: missing label cache {workspace / 'out' / 'labels_train.jsonl'}; "
            "run `sumedit label --split train` first\n"
        )

    def test_train_with_cache_entry_not_in_dataset_exits_1(self, workspace, capsys):
        cfg = write_config(workspace)
        assert cli.main(["label", "--config", str(cfg), "--split", "train", "--split", "val"]) == 0
        cache = workspace / "out" / "labels_train.jsonl"
        example_id = json.loads(cache.read_text().splitlines()[1])["id"]
        text.write_dataset(make_corpus(16, seed=0, k=1, id_prefix="other"), workspace / "train.jsonl")
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cache}:2: example {example_id!r} is not in the train dataset; rerun sumedit label --split train\n"
        )
        assert not (workspace / "out" / "checkpoint.json").exists()

    def test_label_without_dataset_path_exits_1(self, workspace, capsys):
        cfg = write_config(workspace, train_path=None)
        assert cli.main(["label", "--config", str(cfg), "--split", "train"]) == 1
        assert capsys.readouterr().err == "error: config has no train_path\n"

    def test_fixed_seed_byte_identical(self, workspace):
        outs = []
        for name, seed in (("out_a", 11), ("out_b", 11), ("out_c", 12)):
            cfg = write_config(workspace, out_dir=str(workspace / name), seed=seed)
            splits = ("--split", "train", "--split", "val", "--split", "test")
            assert cli.main(["label", "--config", str(cfg), *splits]) == 0
            assert cli.main(["train", "--config", str(cfg)]) == 0
            checkpoint = str(workspace / name / "checkpoint.json")
            assert cli.main(["evaluate", "--config", str(cfg), "--checkpoint", checkpoint]) == 0
            outs.append(workspace / name)
        for artifact in ("labels_train.jsonl", "checkpoint.json", "train_log.jsonl", "evaluation.json"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()
        # the seed reaches the stream: another seed trains another editor
        assert (outs[0] / "checkpoint.json").read_bytes() != (outs[2] / "checkpoint.json").read_bytes()

    def test_first_shuffle_continues_the_stream_that_drew_the_parameters(self, workspace, monkeypatch):
        shuffles = []
        stream = trainer.Stream

        class Recording(stream):
            def permutation(self, n):
                order = super().permutation(n)
                shuffles.append(order.tolist())
                return order

        monkeypatch.setattr(trainer, "Stream", Recording)
        cfg = write_config(workspace)  # seed 11, hidden_m 8, encoder_n 12, epochs 2
        assert cli.main(["label", "--config", str(cfg), "--split", "train", "--split", "val"]) == 0
        assert cli.main(["train", "--config", str(cfg)]) == 0
        want = stream(11)
        editor.init_params(8, 12, want)
        assert shuffles == [want.permutation(16).tolist(), want.permutation(16).tolist()]
        assert shuffles[0] != stream(11).permutation(16).tolist()


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
            (edit_record(lambda rec: rec.update(best_reward="0.5")), "field 'best_reward' has the wrong type"),
            (edit_record(lambda rec: rec.update(best_reward=True)), "field 'best_reward' has the wrong type"),
            (edit_record(lambda rec: rec.update(best_reward=float("nan"))), "best_reward nan is not a finite number"),
            (edit_record(lambda rec: rec.update(best_reward=float("inf"))), "best_reward inf is not a finite number"),
            (edit_record(lambda rec: rec.update(best="EXQ")), "best 'EXQ' is not a sequence of E, A, R"),
            (edit_record(lambda rec: rec.update(best="eea")), "best 'eea' is not a sequence of E, A, R"),
            (edit_record(lambda rec: rec.update(order=[], labels=[], abstractions=[], best="")),
             "extract must select at least one sentence"),
            (edit_record(lambda rec: rec.update(order=[0, 0, 1])), "extract order has duplicate indices"),
            (edit_record(lambda rec: rec["abstractions"][0].append("")),
             "abstractions are not non-empty lists of tokens"),
            (edit_record(lambda rec: rec["abstractions"].__setitem__(0, ["a b"])),
             "abstractions are not non-empty lists of tokens"),
        ],
        ids=["missing-field", "truncated-line", "deep-nesting", "labels-length", "abstractions-length",
             "best-length", "nan-label", "negative-label", "short-label-row", "str-best-reward",
             "bool-best-reward", "nan-best-reward", "infinite-best-reward", "bad-best-letter",
             "lowercase-best-letter", "empty-order", "repeated-order-index", "empty-abstraction-token",
             "spaced-abstraction-token"],
    )
    def test_bad_record_names_file_and_line(self, labeled, capsys, change, message):
        cfg, cache = labeled
        rewrite_first_record(cache, change)
        assert cli.main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cache}:2: ")
        assert message in err
        assert err.endswith("; rerun sumedit label --split train\n")
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
        assert err == (
            f"error: {cache}:2: example {example_id!r} extracts sentence 9, "
            "but its document has 3 sentences; rerun sumedit label --split val\n"
        )
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
        assert captured.err == (
            f"error: {cache}:2: example {example_id!r} extracts sentence 9, "
            "but its document has 3 sentences; rerun sumedit label --split test\n"
        )
        assert captured.out == ""
        assert not (cache.parent / "evaluation.json").exists()


class TestEmptySplit:
    """A split whose label cache holds no examples stops `train` and
    `evaluate` before they write any output."""

    def expected(self, workspace, split):
        cache = workspace / "out" / f"labels_{split}.jsonl"
        return f"error: {cache}: the {split} split has no labeled examples; rerun sumedit label --split {split}\n"

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_train(self, workspace, capsys, split):
        (workspace / f"{split}.jsonl").write_text("")
        cfg = write_config(workspace)
        assert cli.main(["label", "--config", str(cfg), "--split", "train", "--split", "val"]) == 0
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == self.expected(workspace, split)
        for name in ("checkpoint.json", "train_log.jsonl"):
            assert not (workspace / "out" / name).exists()

    def test_evaluate(self, workspace, capsys):
        ckpt = checkpoint(workspace, [0.0, 0.0, 0.0])
        (workspace / "test.jsonl").write_text("")
        cfg = write_config(workspace)
        assert cli.main(["label", "--config", str(cfg), "--split", "test"]) == 0
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", self.expected(workspace, "test"))
        assert not (workspace / "out" / "evaluation.json").exists()


class TestPartlyLabeledSplit:
    def test_evaluate_warns_of_the_examples_left_out(self, workspace, capsys):
        # lead k = 4 extracts 1-4 sentences; cap 3 fails the four l = 4
        # extracts, and `label` still writes the other four
        examples = [
            text.Example(text.Document(ex.document.id, ex.document.sentences[:size]), ex.reference)
            for ex, size in zip(make_corpus(8, seed=2, k=2, id_prefix="te"), (1, 4, 2, 4, 3, 4, 3, 4))
        ]
        text.write_dataset(examples, workspace / "test.jsonl")
        ckpt = checkpoint(workspace, [0.0, 0.0, 0.0])
        cfg = write_config(workspace, k=4, cap=3)
        assert cli.main(["label", "--config", str(cfg), "--split", "test"]) == 0
        assert capsys.readouterr().err.count("enumeration cap exceeded (l=4, cap=3)") == 4
        assert cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 0
        captured = capsys.readouterr()
        cache = workspace / "out" / "labels_test.jsonl"
        assert captured.err == (
            f"WARNING sumedit.oracle: {cache}: 4 of 8 test examples have no label record and are left out\n"
        )
        report = json.loads((workspace / "out" / "evaluation.json").read_text())
        assert report["examples"] == 4 and json.loads(captured.out) == report


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


# Runs one command through `cli.run()`, the process entry point, and reports
# its exit status and whether `logging` was imported.
# `cli.run()` ends a command that returns with `os._exit`, and one that
# raises SystemExit the normal way; the probe reports the code of either.
RUN_PROBE = (
    "import os, sys\n"
    "from sumedit import cli\n"
    "sys.argv[0] = 'sumedit'\n"
    "def report(code):\n"
    "    print('exit', code, 'logging' in sys.modules, file=sys.stderr, flush=True)\n"
    "exit_now = os._exit\n"
    "os._exit = lambda code: report(code) or exit_now(code)\n"
    "try:\n"
    "    cli.run()\n"
    "except SystemExit as exc:\n"
    "    report(exc.code)\n"
)


def run_entry_point(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_PROBE, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    _, code, imported = proc.stderr.splitlines()[-1].split()
    return int(code), imported == "True", proc


class TestNoCommandImportsLogging:
    """Warnings are lines that `text.warn` prints to stderr, so no command
    imports `logging` (and the threading and traceback modules it loads),
    whether it warns or not."""

    def test_clean_commands_do_not_import_logging(self, workspace):
        cfg = str(write_config(workspace))
        greedy = str(write_config(workspace, extractor="greedy"))
        ckpt = str(checkpoint(workspace, [0.0, 0.0, 0.0]))
        commands = [
            ["label", "--config", cfg, "--split", "train", "--split", "val", "--split", "test"],
            ["train", "--config", cfg],
            ["evaluate", "--config", cfg, "--checkpoint", ckpt],
            ["summarize", "--config", cfg, "--checkpoint", ckpt, "--document", str(workspace / "test.jsonl")],
            ["summarize", "--config", greedy, "--checkpoint", ckpt, "--document", str(workspace / "test.jsonl")],
        ]
        for argv in commands:
            code, imported, proc = run_entry_point(*argv)
            assert (code, imported) == (0, False), (argv[0], proc.stderr)

    def test_a_failed_example_warns_without_it(self, workspace):
        cfg = str(write_config(workspace, cap=2))  # every extract has l = 3
        code, imported, proc = run_entry_point("label", "--config", cfg, "--split", "val")
        assert (code, imported) == (1, False)
        failed = [ln for ln in proc.stderr.splitlines() if "labeling failed" in ln]
        assert len(failed) == 6 and all(ln.startswith("WARNING sumedit.oracle: labeling failed: ") for ln in failed)


def duplicate_first_id(path):
    """Append a copy of a dataset's first record with other sentences;
    returns the shared id and the new record's line number."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    record["article_sentences"] = ["another document", "with other sentences"]
    path.write_text("\n".join(lines + [json.dumps(record)]) + "\n")
    return record["id"], len(lines) + 1


class TestDuplicateIds:
    """Splits pair cache records with examples by id, so two records of one
    id would pair one document's labels with another's text."""

    def expected(self, path):
        example_id, line = duplicate_first_id(path)
        return f"error: {path}:{line}: duplicate id {example_id!r} (first at line 1)\n"

    def test_ingest(self, tmp_path, capsys):
        text.write_dataset(make_corpus(3, seed=0, k=1), tmp_path / "in.jsonl")
        message = self.expected(tmp_path / "in.jsonl")
        assert cli.main(["ingest", str(tmp_path / "in.jsonl"), str(tmp_path / "out.jsonl")]) == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out.jsonl").exists()

    def test_label(self, workspace, capsys):
        message = self.expected(workspace / "train.jsonl")
        assert cli.main(["label", "--config", str(write_config(workspace)), "--split", "train"]) == 1
        assert capsys.readouterr().err == message
        assert not (workspace / "out" / "labels_train.jsonl").exists()

    def test_train(self, workspace, capsys):
        cfg = write_config(workspace)
        assert cli.main(["label", "--config", str(cfg), "--split", "train", "--split", "val"]) == 0
        message = self.expected(workspace / "val.jsonl")
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == message
        assert not (workspace / "out" / "checkpoint.json").exists()

    def test_label_cache(self, workspace, capsys):
        """A copied cache record would train its example twice per epoch."""
        cfg = write_config(workspace)
        assert cli.main(["label", "--config", str(cfg), "--split", "train", "--split", "val"]) == 0
        cache = workspace / "out" / "labels_train.jsonl"
        lines = cache.read_text().splitlines(keepends=True)
        cache.write_text("".join(lines + [lines[1]]))
        example_id = json.loads(lines[1])["id"]
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cache}:{len(lines) + 1}: duplicate id {example_id!r} (first at line 2); "
            "rerun sumedit label --split train\n"
        )
        assert not (workspace / "out" / "checkpoint.json").exists()


class TestLabelCacheHeader:
    """A label cache records the reward weights and cap it was labeled
    with; `train` and `evaluate` stop when the config has others."""

    # The error names the first field that differs: the weights, then the cap.
    @pytest.mark.parametrize(
        "changed, field, was, has",
        [({"alpha": 0.0, "cap": 5}, "reward_weights", [0.4, 1.0, 0.5], [0.0, 1.0, 0.5]),
         ({"gamma": 2}, "reward_weights", [0.4, 1.0, 0.5], [0.4, 1.0, 2]),
         ({"cap": 11}, "cap", 12, 11)],
        ids=["weights-and-cap", "weights", "cap"],
    )
    def test_train_stops(self, workspace, capsys, changed, field, was, has):
        labeled = write_config(workspace)
        assert cli.main(["label", "--config", str(labeled), "--split", "train", "--split", "val"]) == 0
        (workspace / "out" / "resolved_config.json").unlink()
        capsys.readouterr()
        assert cli.main(["train", "--config", str(write_config(workspace, **changed))]) == 1
        cache = workspace / "out" / "labels_train.jsonl"
        assert capsys.readouterr().err == (
            f"error: {cache}: labeled with {field} {was}, config has {field} {has}; "
            f"rerun sumedit label --split train\n"
        )
        for artifact in ("checkpoint.json", "train_log.jsonl", "resolved_config.json"):
            assert not (workspace / "out" / artifact).exists()

    def test_evaluate_stops(self, workspace, capsys):
        ckpt = checkpoint(workspace, [0.0, 0.0, 0.0])
        assert cli.main(["label", "--config", str(write_config(workspace)), "--split", "test"]) == 0
        capsys.readouterr()
        cfg = write_config(workspace, beta=0.5)
        assert cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {workspace / 'out' / 'labels_test.jsonl'}: labeled with ")
        assert err.endswith("; rerun sumedit label --split test\n")
        assert not (workspace / "out" / "evaluation.json").exists()

    @pytest.mark.parametrize(
        "name, labeled, changed",
        [("k", 3, 2), ("extractor", "lead", "greedy"), ("abstract_ratio", 0.95, 0.5)],
        ids=["k", "extractor", "abstract-ratio"],
    )
    def test_label_settings_mismatch_stops_train_and_evaluate(self, workspace, capsys, name, labeled, changed):
        ckpt = checkpoint(workspace, [0.0, 0.0, 0.0])
        argv = ["--split", "train", "--split", "val", "--split", "test"]
        assert cli.main(["label", "--config", str(write_config(workspace)), *argv]) == 0
        header = json.loads((workspace / "out" / "labels_train.jsonl").read_text().splitlines()[0])
        assert (header["cache_version"], header[name]) == (3, labeled)
        capsys.readouterr()
        cfg = str(write_config(workspace, **{name: changed}))
        for command, split, artifact in (("train", "train", "checkpoint.json"),
                                         ("evaluate", "test", "evaluation.json")):
            extra = ["--checkpoint", str(ckpt)] if command == "evaluate" else []
            assert cli.main([command, "--config", cfg, *extra]) == 1
            assert capsys.readouterr().err == (
                f"error: {workspace / 'out' / f'labels_{split}.jsonl'}: labeled with {name} {labeled}, "
                f"config has {name} {changed}; rerun sumedit label --split {split}\n"
            )
            assert not (workspace / "out" / artifact).exists()

    # a version-1 header has no label settings
    @pytest.mark.parametrize("version, dropped", [(1, ("k", "extractor", "abstract_ratio")), (2, ())],
                             ids=["1", "2"])
    def test_old_cache_version_is_rejected(self, workspace, capsys, version, dropped):
        cfg = str(write_config(workspace))
        assert cli.main(["label", "--config", cfg, "--split", "train", "--split", "val"]) == 0
        cache = workspace / "out" / "labels_train.jsonl"
        lines = cache.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        for name in dropped:
            del header[name]
        cache.write_text(json.dumps(dict(header, cache_version=version)) + "\n" + "".join(lines[1:]))
        capsys.readouterr()
        assert cli.main(["train", "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            f"error: {cache}: label cache version {version} is not supported; rerun sumedit label --split train\n"
        )
        assert not (workspace / "out" / "checkpoint.json").exists()

    def test_cap_flag_that_matches_the_cache_is_accepted(self, workspace, capsys):
        cfg = write_config(workspace)
        assert cli.main(["label", "--config", str(cfg), "--cap", "7", "--split", "train", "--split", "val"]) == 0
        assert cli.main(["train", "--config", str(cfg), "--cap", "7"]) == 0
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert "rerun sumedit label --split train" in capsys.readouterr().err


def checkpoint(tmp_path, bias):
    rng = np.random.default_rng(0)
    params = editor.init_params(8, 12, rng)
    params.flat[:] = 0.0
    params.b[:] = bias
    path = tmp_path / "ckpt.json"
    editor.save_checkpoint(params, EncoderConfig(n=12, hash_seed=0), path)
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
        editor.save_checkpoint(params, EncoderConfig(n=12, hash_seed=0), ckpt)
        # the greedy extractor runs once per decode pass, the lead one per document
        outputs = {}
        for extractor in ("lead", "greedy"):
            argv = ["summarize", "--config", str(write_config(workspace, extractor=extractor)),
                    "--checkpoint", str(ckpt), "--document", str(workspace / "test.jsonl")]
            monkeypatch.setattr(editor, "DECODE_CHUNK", 256)
            assert cli.main(argv) == 0
            whole = capsys.readouterr().out
            monkeypatch.setattr(editor, "DECODE_CHUNK", 2)
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == whole
            ids = [ex.document.id for ex in text.load_dataset(workspace / "test.jsonl")]
            assert [ln[2:] for ln in whole.splitlines() if ln.startswith("# ")] == ids
            outputs[extractor] = whole
        decisions = {ln[:2] for ln in outputs["lead"].splitlines() if ln[:2] in ("E:", "A:", "R:")}
        assert len(decisions) > 1
        assert outputs["greedy"] != outputs["lead"]
        assert len(ids) > 2

    @pytest.mark.parametrize("field, key, value",
                             [("hidden_m", "m", 9), ("encoder_n", "n", 13), ("hash_seed", "hash_seed", 5)])
    def test_config_that_disagrees_with_the_checkpoint_is_refused(self, workspace, capsys, field, key, value):
        ckpt = checkpoint(workspace, [0.0, 0.0, 0.0])  # m 8, n 12, hash_seed 0
        saved = {"m": 8, "n": 12, "hash_seed": 0}[key]
        cfg = write_config(workspace, **{field: value})
        for argv in (["evaluate"], ["summarize", "--document", str(workspace / "test.jsonl")]):
            assert cli.main([*argv, "--config", str(cfg), "--checkpoint", str(ckpt)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: config field {field!r} is {value!r}, but checkpoint {ckpt} "
                                    f"has {key} {saved!r}; use the config it was trained with\n")
        assert not (workspace / "out").exists()

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
        assert captured.err.startswith(f"error: {workspace / 'docs.jsonl'}:1: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_no_usable_records_exits_1(self, workspace, capsys):
        assert self.summarize(workspace, []) == 1
        assert capsys.readouterr().err == f"error: no usable records in {workspace / 'docs.jsonl'}\n"

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


def per_command_parser():
    """The parser as it was built before the shared options moved to one
    `parents` parser: each subcommand adds every shared option itself."""
    import argparse

    def add_common(p):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", dest="out_dir", default=None, help="output directory")
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--extractor", choices=["lead", "greedy"], default=None)
        p.add_argument("--abstract-ratio", dest="abstract_ratio", type=float, default=None)
        p.add_argument("--encoder-n", dest="encoder_n", type=int, default=None)
        p.add_argument("--hidden-m", dest="hidden_m", type=int, default=None)
        p.add_argument("--cap", type=int, default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--train-path", dest="train_path", default=None)
        p.add_argument("--val-path", dest="val_path", default=None)
        p.add_argument("--test-path", dest="test_path", default=None)

    parser = argparse.ArgumentParser(prog="sumedit")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("ingest", help="validate and canonicalize a dataset")
    p.add_argument("input")
    p.add_argument("output")
    p = sub.add_parser("label", help="precompute soft-label caches")
    add_common(p)
    p.add_argument("--split", dest="splits", action="append", choices=["train", "val", "test"], required=True)
    p = sub.add_parser("train", help="train the editor")
    add_common(p)
    p = sub.add_parser("summarize", help="decode documents with a checkpoint")
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--document", required=True, help="dataset-format file to summarize")
    p = sub.add_parser("evaluate", help="score a checkpoint on the test split")
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    return parser


def subcommands(parser):
    [action] = [a for a in parser._actions if a.dest == "command"]
    return action.choices


class TestParser:
    def test_help_of_every_command_is_the_per_command_parsers(self):
        # the shared options come from one `parents` parser; every help text
        # and every parse stays as it was
        got, want = cli.build_parser(), per_command_parser()
        assert got.format_help() == want.format_help()
        assert list(subcommands(got)) == list(subcommands(want)) == ["ingest", "label", "train", "summarize", "evaluate"]
        for name, sub in subcommands(want).items():
            assert subcommands(got)[name].format_help() == sub.format_help(), name
        argv = ["summarize", "--checkpoint", "c", "--document", "d", "--k", "3", "--lr", "0.5", "--out", "o"]
        parsed = vars(got.parse_args(argv))
        assert {key: parsed[key] for key in vars(want.parse_args(argv))} == vars(want.parse_args(argv))


def run_child(*args, **env):
    """`python <args>` with sumedit on the path and `env` added."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), **env)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def imported_modules(stderr):
    """Module names in `python -X importtime` output."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


class TestStartup:
    """Every command is a fresh process, so what start-up imports and keeps
    is paid by every command."""

    def test_cli_import_loads_no_worker_pool(self):
        """No command uses a process pool, so starting the CLI must not pay
        for importing one."""
        code = (
            "import sys, sumedit.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        )
        proc = run_child("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_loads_no_command_layer_and_freezes_nothing(self):
        code = (
            "import gc, sys, sumedit.cli; "
            "print(sorted({'numpy', 'sumedit.config', 'sumedit.text', 'sumedit.oracle', 'sumedit.trainer', "
            "'sumedit.editor'} & set(sys.modules)), gc.get_freeze_count())"
        )
        proc = run_child("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[] 0"

    def test_label_never_imports_trainer(self, workspace):
        cfg = write_config(workspace)
        proc = run_child("-X", "importtime", "-m", "sumedit.cli", "label", "--config", str(cfg),
                         "--split", "val")
        assert proc.returncode == 0, proc.stderr
        modules = imported_modules(proc.stderr)
        assert "sumedit.oracle" in modules
        assert not {"sumedit.trainer", "sumedit.encoder"} & modules

    def test_train_and_evaluate_import_neither_numpy_random_nor_summarizers(self, workspace):
        cfg = write_config(workspace)
        assert cli.main(["label", "--config", str(cfg), "--split", "train", "--split", "val", "--split", "test"]) == 0
        for argv in (["train"], ["evaluate", "--checkpoint", str(workspace / "out" / "checkpoint.json")]):
            proc = run_child("-X", "importtime", "-m", "sumedit.cli", *argv, "--config", str(cfg))
            assert proc.returncode == 0, proc.stderr
            modules = imported_modules(proc.stderr)
            assert {"numpy", "sumedit.trainer"} <= modules
            assert not {"numpy.random", "sumedit.summarizers"} & modules, argv[0]

    def test_summarize_imports_neither_oracle_nor_trainer(self, workspace):
        ckpt = checkpoint(workspace, [0.0, 0.0, 0.0])
        cfg = write_config(workspace)
        proc = run_child("-X", "importtime", "-m", "sumedit.cli", "summarize", "--config", str(cfg),
                         "--checkpoint", str(ckpt), "--document", str(workspace / "val.jsonl"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("# ")
        modules = imported_modules(proc.stderr)
        assert "sumedit.editor" in modules
        assert not {"sumedit.oracle", "sumedit.trainer"} & modules

    def test_no_layer_imports_dataclasses(self):
        """The records are plain classes, so no process pays for
        `dataclasses` or for generating record methods with `exec`."""
        code = (
            "import sys, sumedit.cli; "
            "from sumedit import config, editor, encoder, oracle, rouge, summarizers, text, trainer; "
            "print('numpy' in sys.modules, 'dataclasses' in sys.modules)"
        )
        proc = run_child("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True False"

    @pytest.mark.parametrize(
        "argv, layer",
        [
            (["ingest", "in.jsonl", "out.jsonl"], "sumedit.text"),
            (["label", "--split", "train"], "sumedit.summarizers"),
            (["train"], "sumedit.trainer"),
            (["summarize", "--checkpoint", "c.json", "--document", "d.jsonl"], "sumedit.encoder"),
            (["evaluate", "--checkpoint", "c.json"], "sumedit.trainer"),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else v,
    )
    def test_run_imports_and_freezes_the_layers_then_runs_with_the_collector_on(self, argv, layer):
        """`run()` imports a command's layers with the collector off, freezes
        them, and runs the command with the collector on again."""
        command = argv[0]
        code = (
            "import gc, sys\n"
            "from sumedit import cli\n"
            "seen = {}\n"
            "freeze = gc.freeze\n"
            "def recording_freeze():\n"
            f"    seen['at freeze'] = (gc.isenabled(), {layer!r} in sys.modules)\n"
            "    freeze()\n"
            "gc.freeze = recording_freeze\n"
            "def command(args):\n"
            "    seen['in command'] = (gc.isenabled(), gc.get_freeze_count() > 0)\n"
            "    print(seen)\n"
            "    return 0\n"
            f"cli.cmd_{command} = command\n"
            f"sys.argv = ['sumedit', *{argv!r}]\n"
            "cli.run()\n"
        )
        proc = run_child("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "{'at freeze': (False, True), 'in command': (True, True)}"

    def test_main_in_process_leaves_the_collector_as_it_was(self, tmp_path):
        text.write_dataset(make_corpus(2, seed=0, k=1), tmp_path / "in.jsonl")
        code = (
            "import gc, sys\n"
            "from sumedit import cli\n"
            "for enabled in (True, False):\n"
            "    gc.enable() if enabled else gc.disable()\n"
            "    before = (gc.isenabled(), gc.get_freeze_count())\n"
            "    code = cli.main(['ingest', sys.argv[1], sys.argv[2]])\n"
            "    print(code, before == (gc.isenabled(), gc.get_freeze_count()))\n"
        )
        proc = run_child("-c", code, str(tmp_path / "in.jsonl"), str(tmp_path / "out.jsonl"))
        assert proc.returncode == 0, proc.stderr
        # each ingest prints its report first
        assert proc.stdout.splitlines()[1::2] == ["0 True", "0 True"]


class TestExitPath:
    """`run()` ends a command that returns with `os._exit` after flushing
    stdout and stderr; a command that raises, or a flush that fails, exits
    the normal way. A closed stdout ends the command with status 1 and
    nothing on stderr."""

    def test_large_stdout_arrives_complete_through_a_pipe(self, tmp_path, capsys):
        documents = tmp_path / "docs.jsonl"
        text.write_dataset(make_corpus(500, seed=5, k=2, id_prefix="big"), documents)
        argv = ["summarize", "--config", str(write_config(tmp_path)),
                "--checkpoint", str(checkpoint(tmp_path, [0.0, 0.0, 0.0])), "--document", str(documents)]
        proc = run_child("-m", "sumedit.cli", *argv)
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.encode()) > 64 * 1024
        assert cli.main(argv) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_a_reader_that_closes_stdout_gets_no_error(self, tmp_path):
        # more output than the pipe holds, so the child writes after the close
        documents = tmp_path / "docs.jsonl"
        text.write_dataset(make_corpus(1000, seed=5, k=2, id_prefix="big"), documents)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        argv = ["summarize", "--config", str(write_config(tmp_path)),
                "--checkpoint", str(checkpoint(tmp_path, [0.0, 0.0, 0.0])), "--document", str(documents)]
        with subprocess.Popen([sys.executable, "-m", "sumedit.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"# big-00000\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert (proc.wait(timeout=120), stderr) == (1, b"")

    def test_missing_label_cache_prints_its_message_and_exits_1(self, workspace):
        proc = run_child("-m", "sumedit.cli", "train", "--config", str(write_config(workspace)))
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: missing label cache {workspace / 'out' / 'labels_train.jsonl'}; "
            "run `sumedit label --split train` first\n"
        )

    def test_value_error_prints_error_and_exits_1(self, workspace):
        proc = run_child("-m", "sumedit.cli", "label", "--config", str(write_config(workspace)),
                         "--split", "val", "--epochs", "0")
        assert proc.returncode == 1
        assert proc.stderr == "error: config field 'epochs' must be >= 1, got 0\n"

    @pytest.mark.parametrize("flush_fails, how", [(False, "os._exit 0"), (True, "SystemExit 0")],
                             ids=["flushed", "flush-raises"])
    def test_a_failing_flush_falls_back_to_the_normal_exit(self, tmp_path, flush_fails, how):
        text.write_dataset(make_corpus(2, seed=0, k=1), tmp_path / "in.jsonl")
        code = (
            "import io, os, sys\n"
            "from sumedit import cli\n"
            "class Stdout(io.StringIO):\n"
            "    def flush(self):\n"
            f"        if {flush_fails}:\n"
            "            raise OSError('flush failed')\n"
            "sys.stdout = Stdout()\n"
            "def report(how, code):\n"
            "    print(how, code, file=sys.__stdout__, flush=True)\n"
            "exit_now = os._exit\n"
            "os._exit = lambda code: report('os._exit', code) or exit_now(code)\n"
            "sys.argv = ['sumedit', 'ingest', sys.argv[1], sys.argv[2]]\n"
            "try:\n"
            "    cli.run()\n"
            "except SystemExit as exc:\n"
            "    sys.stdout = sys.__stdout__\n"
            "    report('SystemExit', exc.code)\n"
        )
        proc = run_child("-c", code, str(tmp_path / "in.jsonl"), str(tmp_path / "out.jsonl"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, how + "\n", "")
        assert (tmp_path / "out.jsonl").read_text() == (tmp_path / "in.jsonl").read_text()


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

    @pytest.mark.parametrize(
        "command, flag, field",
        [("train", "--hidden-m", "hidden_m"), ("label", "--encoder-n", "encoder_n"),
         ("label", "--k", "k"), ("label", "--cap", "cap")],
        ids=["hidden-m", "encoder-n", "k", "cap"],
    )
    def test_size_below_1(self, workspace, capsys, command, flag, field):
        cfg = write_config(workspace)
        assert cli.main(["label", "--config", str(cfg), "--split", "train", "--split", "val"]) == 0
        out = workspace / "out"
        before = {path: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        for value in (0, -2):
            argv = [command, "--config", str(cfg), flag, str(value)]
            assert cli.main(argv + ["--split", "train"] * (command == "label")) == 1
            self.assert_one_error_line(capsys, f"config field {field!r} must be >= 1, got {value}")
        assert {path: path.read_bytes() for path in out.iterdir()} == before

    def test_a_flag_replaces_a_refused_file_value(self, workspace, capsys):
        cfg = write_config(workspace, epochs=0)
        assert cli.main(["label", "--config", str(cfg), "--split", "train", "--epochs", "3"]) == 0, \
            capsys.readouterr().err
        assert json.loads((workspace / "out" / "resolved_config.json").read_text())["epochs"] == 3

    # Field values that no command runs with: each is refused when the config
    # is resolved, before a command reads its inputs or makes its out_dir.
    REFUSED = pytest.mark.parametrize(
        "args, config, message",
        [(["--epochs", "0"], {}, "config field 'epochs' must be >= 1, got 0"),
         (["--batch-size", "0"], {}, "config field 'batch_size' must be >= 1, got 0"),
         ([], {"context_window": 1}, "unknown config fields: ['context_window']"),
         ([], {"extractor": "foo"}, "config field 'extractor' must be 'lead' or 'greedy', got 'foo'"),
         (["--abstract-ratio", "2.0"], {}, "config field 'abstract_ratio' must be in (0, 1], got 2.0"),
         ([], {"abstract_ratio": 0}, "config field 'abstract_ratio' must be in (0, 1], got 0"),
         ([], {"alpha": -1}, "config field 'alpha' must be >= 0, got -1"),
         ([], {"gamma": -0.5}, "config field 'gamma' must be >= 0, got -0.5"),
         ([], {"alpha": 0, "beta": 0.0, "gamma": 0},
          "config fields 'alpha', 'beta' and 'gamma' must not all be 0, got 0, 0.0, 0"),
         ([], {"lr": -1.0}, "config field 'lr' must be > 0, got -1.0"),
         (["--lr", "0"], {}, "config field 'lr' must be > 0, got 0.0"),
         ([], {"seed": -1}, "config field 'seed' must be >= 0, got -1")],
        ids=["epochs", "batch-size", "context-window", "extractor", "abstract-ratio-above-1",
             "abstract-ratio-0", "negative-alpha", "negative-gamma", "zero-weights", "negative-lr", "zero-lr",
             "negative-seed"],
    )

    @REFUSED
    def test_label_refuses_what_train_refuses(self, workspace, capsys, args, config, message):
        cfg = write_config(workspace, **config)
        assert cli.main(["label", "--config", str(cfg), "--split", "val", *args]) == 1
        self.assert_one_error_line(capsys, message)
        assert not (workspace / "out").exists()

    @REFUSED
    def test_summarize_refuses_what_label_refuses(self, workspace, capsys, args, config, message):
        ckpt = checkpoint(workspace, [0.0, 0.0, 0.0])
        cfg = write_config(workspace, **config)
        argv = ["summarize", "--config", str(cfg), "--checkpoint", str(ckpt),
                "--document", str(workspace / "val.jsonl"), *args]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize(
        "config, message",
        [({"alpha": float("nan")}, "config field 'alpha' must be a finite number, got nan"),
         ({"beta": float("inf")}, "config field 'beta' must be a finite number, got inf"),
         ({"gamma": float("-inf")}, "config field 'gamma' must be a finite number, got -inf"),
         ({"lr": float("nan")}, "config field 'lr' must be a finite number, got nan"),
         ({"lr": float("inf")}, "config field 'lr' must be a finite number, got inf"),
         ({"lr": -1.0}, "config field 'lr' must be > 0, got -1.0")],
        ids=["nan-alpha", "inf-beta", "minus-inf-gamma", "nan-lr", "inf-lr", "negative-lr"],
    )
    def test_every_command_refuses_bad_numbers(self, workspace, capsys, config, message):
        # json.dumps writes the NaN and Infinity literals, which json.loads reads back
        cfg = str(write_config(workspace, **config))
        ckpt = str(checkpoint(workspace, [0.0, 0.0, 0.0]))
        for argv in (["label", "--split", "val"], ["train"], ["evaluate", "--checkpoint", ckpt],
                     ["summarize", "--checkpoint", ckpt, "--document", str(workspace / "val.jsonl")]):
            assert cli.main([argv[0], "--config", cfg, *argv[1:]]) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (workspace / "out").exists()

    def test_numbers_and_null_paths_accepted_where_declared(self, workspace):
        cfg = ExperimentConfig.from_file(write_config(workspace, alpha=1, lr=0.5, test_path=None))
        assert (cfg.alpha, cfg.lr, cfg.test_path) == (1, 0.5, None)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda payload: "[1]", "expected a JSON object, not list"),
            (lambda payload: "[" * 5000, "not valid JSON (nested too deeply)"),
            (edited(lambda p: p.pop("W_c")), "checkpoint has no 'W_c'"),
            (edited(lambda p: p.pop("hash_seed")), "checkpoint has no 'hash_seed'"),
            (edited(lambda p: p.update(m="8")), "checkpoint m must be a positive integer, got '8'"),
            (edited(lambda p: p.update(W_g=p["W_g"][: -12 * 16])),
             "W_g is not the hex text of float64 words of shape (12, 12)"),
            (edited(lambda p: p.update(b="x" + p["b"][1:])), "b is not the hex text of float64 words of shape (3,)"),
            (edited(lambda p: p.update(n=12.0)), "checkpoint n must be a positive integer, got 12.0"),
            (edited(lambda p: p.update(b_d=p["b_d"][1:])),
             "b_d is not the hex text of float64 words of shape (12,)"),
            (edited(lambda p: p.update(V=[[0.0] * 8] * 3)), "V is not the hex text of float64 words of shape (3, 8)"),
            (edited(lambda p: p.update(version=1)), "checkpoint version 1 is not supported"),
            (edited(lambda p: p.update(W_c="000000000000f07f" + p["W_c"][16:])), "W_c contains non-finite values"),
        ],
        ids=["not-an-object", "deep-nesting", "missing-array", "missing-encoder-field",
             "str-dimension", "ragged-array", "str-entry", "float-encoder-width", "odd-length-words",
             "number-list", "version-1", "non-finite-word"],
    )
    def test_bad_checkpoint(self, workspace, capsys, change, message):
        cfg = write_config(workspace)
        path = checkpoint(workspace, [0.0, 0.0, 0.0])
        path.write_text(change(json.loads(path.read_text())))
        assert cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(path)]) == 1
        self.assert_one_error_line(capsys, f"{path}: {message}")
