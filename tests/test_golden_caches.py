"""Label caches of fixed seeded inputs against their recorded sha256.

The inputs come from `tests/synthetic.py` (`make_example(k)` is a document
of k + 2 sentences) and cover lead extracts of l = 4, one run that mixes
l = 1 .. 7, one extract of l = 10 and the greedy extractor at k = 4, each
labeled by `label_dataset` and written by `write_label_cache` under a
header of the default reward weights and cap only, plus one cache that
`sumedit label` writes from a config file: its header carries the config's
label settings, and its 300 examples span two runs of `editor.DECODE_CHUNK`. A change that alters the
cache format or any label on purpose updates these hashes and says so in
CHANGES.md. Labeling uses no BLAS product, so the bytes do not depend on
the matrix library.

The stdout of `sumedit summarize` is pinned the same way, for the lead and
the greedy extractor, under a seeded checkpoint that prints E, A and R
lines. Decoding does use BLAS products, but every decision there wins by
more than 2e-3 in probability, far above any difference of rounding.

The `train_log.jsonl`, `checkpoint.json` and `evaluation.json` of one
seeded `sumedit label` -> `train` -> `evaluate` run are pinned too; its val
and test splits each span two runs of `editor.DECODE_CHUNK`, so scoring
crosses a record boundary. Training sums BLAS products into its floats, so
these three pins hold for one matrix library build (they were recorded with
the OpenBLAS 0.3.31 that numpy bundles, on its AVX-512 SkylakeX kernels); on
another one, record them again from an unchanged tree. Which of them are
portable across kernels is tested too: with OpenBLAS's AVX2 (Haswell)
kernels, `train_log.jsonl` and `evaluation.json` keep their digests and
`checkpoint.json` does not.
"""
import hashlib
import json

import numpy as np
import pytest

from synthetic import make_example
from sumedit import cli, editor, text
from sumedit.encoder import EncoderConfig
from sumedit.oracle import label_dataset, write_label_cache
from sumedit.summarizers import GreedyOracleExtractor, LeadExtractor, SalienceAbstractor, extract_lead


def corpus(seed, ks, prefix):
    rng = np.random.default_rng(seed)
    return [make_example(f"{prefix}-{j:03d}", rng, k=k) for j, k in enumerate(ks)]


def mixed_lead(example):
    """Lead extract of 1 + j % 7 sentences for example j: l = 1 .. 7 in one run."""
    j = int(example.document.id.rsplit("-", 1)[1])
    return extract_lead(example.document, 1 + j % 7)


CASES = {
    "lead-l4": (lambda: corpus(21, [2] * 60, "lead"), LeadExtractor(4), {4},
                "f0a5316147a22027fb0226b49cde30d792b60fac5063d23a536c9f6c7c62f616"),
    "mixed-l1-7": (lambda: corpus(22, [5 + j % 4 for j in range(42)], "mixed"), mixed_lead, set(range(1, 8)),
                   "88bf275f75554dbba3f0aba0cdbde9e110132ed835b6b4416fb682f23b23449b"),
    "l10": (lambda: corpus(23, [8], "ten"), LeadExtractor(10), {10},
            "55b099392199d50588749fed2afb8f55846593d75dc678b372de115b08cbeab3"),
    "greedy-k4": (lambda: corpus(24, [j % 9 for j in range(45)], "greedy"), GreedyOracleExtractor(4), {1, 2, 3, 4},
                  "4de20a01410a2c3d082a7712be3e554f4e2c60c7cc483217afb90a6a9e869678"),
}


@pytest.mark.parametrize("name", CASES)
def test_cache_bytes_are_recorded(tmp_path, name):
    examples, extractor, lengths, digest = CASES[name]
    path = tmp_path / "labels.jsonl"
    labeled, failures = label_dataset(examples(), extractor, SalienceAbstractor(0.8))
    write_label_cache(path, labeled, {"cache_version": 3, "reward_weights": [0.4, 1.0, 0.5], "cap": 12})
    assert failures == [] and {len(lab.best) for lab in labeled} == lengths
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_cache_written_by_label_command_is_recorded(tmp_path):
    examples = corpus(25, [2] * 300, "cli")
    assert len(examples) > editor.DECODE_CHUNK
    text.write_dataset(examples, tmp_path / "train.jsonl")
    config = {"train_path": str(tmp_path / "train.jsonl"), "k": 4, "abstract_ratio": 0.9,
              "out_dir": str(tmp_path / "out")}
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert cli.main(["label", "--config", str(tmp_path / "config.json"), "--split", "train"]) == 0
    data = (tmp_path / "out" / "labels_train.jsonl").read_bytes()
    assert json.loads(data.splitlines()[0]) == {
        "abstract_ratio": 0.9, "cache_version": 3, "cap": 12, "extractor": "lead", "k": 4,
        "reward_weights": [0.4, 1.0, 0.5],
    }
    assert len(data.splitlines()) == 301
    assert hashlib.sha256(data).hexdigest() == "3e23a72c4cabf0f55229d3edf9304d2261ef5b74a3158a382a7e83e6d1a5bb8a"


SUMMARIZE_DIGESTS = {
    "lead": "03ebe95550682e4af19cdf2f179cf5f1f90fc67e3aa1a442047b22cc6c17cce0",
    "greedy": "7b83664d1469083657a214eafa0e513df9fe7bf61d5d20a581743562eee11eaa",
}


@pytest.mark.parametrize("extractor", SUMMARIZE_DIGESTS)
def test_summarize_stdout_is_recorded(tmp_path, capsys, extractor):
    text.write_dataset(corpus(7, [j % 5 for j in range(60)], "sum"), tmp_path / "docs.jsonl")
    params = editor.init_params(16, 16, np.random.default_rng(8))
    params.flat[:] *= 3
    params.b[:] = np.random.default_rng(9).normal(0, 0.5, 3)
    editor.save_checkpoint(params, EncoderConfig(n=16), tmp_path / "checkpoint.json")
    argv = ["summarize", "--checkpoint", str(tmp_path / "checkpoint.json"), "--document", str(tmp_path / "docs.jsonl"),
            "--extractor", extractor, "--k", "4", "--hidden-m", "16", "--encoder-n", "16"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    documents = out.split("# ")[1:]
    assert len(documents) == 60
    for block in documents:
        lines = block.splitlines()[1:]
        cut = lines.index("summary:")
        assert lines[cut + 1 :] == ["  " + line[3:] for line in lines[:cut] if line[:2] in ("E:", "A:")]
    assert {line[:2] for line in out.splitlines() if line[1:3] == ": "} == {"E:", "A:", "R:"}
    assert hashlib.sha256(out.encode()).hexdigest() == SUMMARIZE_DIGESTS[extractor]


PIPELINE_DIGESTS = {
    "train_log.jsonl": "718eb2c48ce7ca31377f7458ab0ec66793a8310e79a106bc7d10fc65ec9de91b",
    "checkpoint.json": "1c7b745f06773b81e9a41f7392eda17cff90a542d064ad2dc0363d9435051cd0",
    "evaluation.json": "7edabe4b183afc3ba7f41e1246fa387fd58abca5b1b1bdfb3af395667aa52478",
}


def pipeline_digests(tmp_path) -> dict[str, str]:
    """The sha256 of each file in PIPELINE_DIGESTS after one seeded `sumedit
    label` -> `train` -> `evaluate` run in tmp_path."""
    sizes = {"train": 24, "val": 260, "test": 260}
    assert min(sizes["val"], sizes["test"]) > editor.DECODE_CHUNK
    for seed, (split, n) in enumerate(sizes.items(), 40):
        text.write_dataset(corpus(seed, [j % 5 for j in range(n)], split), tmp_path / f"{split}.jsonl")
    config = {f"{split}_path": str(tmp_path / f"{split}.jsonl") for split in sizes}
    config.update(k=4, abstract_ratio=0.9, encoder_n=8, hidden_m=8, epochs=3, batch_size=8, lr=0.05, seed=3,
                  out_dir=str(tmp_path / "out"))
    (tmp_path / "config.json").write_text(json.dumps(config))
    common = ["--config", str(tmp_path / "config.json")]
    assert cli.main(["label", *common, "--split", "train", "--split", "val", "--split", "test"]) == 0
    assert cli.main(["train", *common]) == 0
    assert cli.main(["evaluate", *common, "--checkpoint", str(tmp_path / "out" / "checkpoint.json")]) == 0
    report = json.loads((tmp_path / "out" / "evaluation.json").read_text())
    assert report["examples"] == 260 and min(report["decision_fractions"].values()) > 0
    return {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in PIPELINE_DIGESTS}


def test_train_and_evaluate_outputs_are_recorded(tmp_path):
    assert pipeline_digests(tmp_path) == PIPELINE_DIGESTS


def openblas_core() -> str | None:
    """The CPU kernels the OpenBLAS that numpy bundles chose at load time,
    or None for another library."""
    import ctypes
    import glob
    import os

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        name = ctypes.CDLL(path).scipy_openblas_get_corename64_
        name.restype = ctypes.c_char_p
        return name().decode()
    return None


def test_train_log_and_evaluation_hold_under_haswell_kernels(tmp_path):
    # OpenBLAS picks its kernels per CPU (AVX-512 SkylakeX ones where the
    # pins were recorded); OPENBLAS_CORETYPE=Haswell makes a child process
    # take the AVX2 ones. The training log and the evaluation report keep
    # their digests there; checkpoint.json does not, because its parameter
    # words move by a few ulp (ROADMAP item 17), so it is not compared.
    import os
    import subprocess
    import sys
    from pathlib import Path

    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here), str(here.parent / "src"), os.environ.get("PYTHONPATH")]))
    code = ("import json, pathlib, sys, test_golden_caches as g\n"
            "digests = g.pipeline_digests(pathlib.Path(sys.argv[1]))\n"
            "print(json.dumps({'core': g.openblas_core(), 'digests': digests}))")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, timeout=600,
                          env=dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout.splitlines()[-1])
    assert child["core"] in ("Haswell", None)
    for name in ("train_log.jsonl", "evaluation.json"):
        assert child["digests"][name] == PIPELINE_DIGESTS[name], name
