"""Command-line surface: ingest, label, train, summarize, evaluate.

A command's settings are its arguments and the resolved config; no command
reads the environment. All randomness flows from the config's single seed:
`train` builds one random stream from it (`trainer.Stream`, over the
standard library's `random`), draws the initial parameters from it and
hands it on to `trainer.train` for every epoch's shuffle. So no command
imports `numpy.random`.

Every command runs in a fresh process, so start-up is paid per command.
The module imports only the standard library; each command names the
layers it runs (`layers` in `build_parser`: `label` runs the oracle and
summarizers, `train` and `evaluate` the editor and trainer, `summarize` the
editor, encoder and summarizers) and imports them in its `cmd_*` function,
calling them through their module attributes. Only the commands that
extract or abstract import `summarizers`, and `label` imports no network
code (`editor`, `encoder`). Each command builds the label cache header of
its resolved config once (`oracle.cache_header`): `label` writes it over
the labels of that same config (`oracle.label_dataset(examples, cfg)`), and
`train` and `evaluate` pass it to `oracle.read_label_cache`. `summarize`
extracts through `summarizers.extract`, or `extract_lead` on bare articles.
`evaluate` refuses `extractor: greedy` before it reads anything, and
`summarize` and `evaluate` refuse a config whose `hidden_m`, `encoder_n` or
`hash_seed` disagrees with the checkpoint. `run()`, the process entry point,
works in this order: it disables the collector, parses the arguments,
imports the command's layers (numpy and `config` with them), freezes the
heap (`gc.freeze()`), re-enables the collector and runs the command. So no
collection runs during the imports, and later collections do not walk the
objects they made. When the command returns, `run()` flushes stdout and
stderr and ends the process with `os._exit`, skipping interpreter teardown
(module cleanup and the final collection); a command that raises, or a
flush that fails, exits the normal way, but a closed stdout (`... | head`)
ends it with status 1 and no message. `main()` leaves the collector as it is
and returns: tests and the benchmark's tracer call it in-process. Warnings (a
rejected record, a failed example, a split with unlabeled examples) are
single lines that `text.warn` prints to the current stderr.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .config import ExperimentConfig


def _load_config(args) -> ExperimentConfig:
    from .config import FIELDS, ExperimentConfig
    from .text import read_json_object

    values = read_json_object(args.config) if args.config else {}
    # every shared option of `build_parser` but --config is named after its field;
    # a flag that was given replaces the file's value before either is checked
    values.update((key, value) for key, value in vars(args).items() if key in FIELDS and value is not None)
    return ExperimentConfig(**values)


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_ingest(args) -> int:
    from . import text

    examples, reject_reasons = text.ingest_dataset(args.input)
    text.write_dataset(examples, args.output)
    summary = {"accepted": len(examples), "rejected": len(reject_reasons), "reject_reasons": reject_reasons}
    print(json.dumps(summary, sort_keys=True))
    return 0


def _dataset_path(cfg: ExperimentConfig, split: str) -> str:
    path = getattr(cfg, f"{split}_path")
    if not path:
        raise ValueError(f"config has no {split}_path")
    return path


def cmd_label(args) -> int:
    from . import oracle, text

    cfg = _load_config(args)
    out = _out_dir(cfg)
    header = oracle.cache_header(cfg)
    status = 0
    for split in args.splits:
        examples = text.load_dataset(_dataset_path(cfg, split))
        cache_path = out / f"labels_{split}.jsonl"
        start = time.monotonic()
        labeled, _ = oracle.label_dataset(examples, cfg)
        oracle.write_label_cache(cache_path, labeled, header)
        elapsed = time.monotonic() - start
        print(f"{split}: labeled {len(labeled)}/{len(examples)} in {elapsed:.1f}s -> {cache_path}", file=sys.stderr)
        if not labeled and examples:
            status = 1
    cfg.write(out / "resolved_config.json")
    return status


def _paired_split(cfg: ExperimentConfig, split: str, out: Path, header: dict):
    from . import oracle, text

    cache_path = out / f"labels_{split}.jsonl"
    if not cache_path.exists():
        raise ValueError(f"missing label cache {cache_path}; run `sumedit label --split {split}` first")
    examples = text.load_dataset(_dataset_path(cfg, split))
    return oracle.read_label_cache(cache_path, header, examples, split)


def cmd_train(args) -> int:
    from . import editor, oracle, text, trainer

    cfg = _load_config(args)
    out = _out_dir(cfg)
    header = oracle.cache_header(cfg)
    train_pairs = _paired_split(cfg, "train", out, header)
    val_pairs = _paired_split(cfg, "val", out, header)
    rng = trainer.Stream(cfg.seed)
    params = editor.init_params(cfg.hidden_m, cfg.encoder_n, rng)
    best, log = trainer.train(train_pairs, val_pairs, cfg, params, rng)
    ckpt_path = out / "checkpoint.json"
    editor.save_checkpoint(best, cfg.encoder_config(), ckpt_path)
    with text.atomic_open(out / "train_log.jsonl") as fh:
        for entry in log:
            fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
    cfg.write(out / "resolved_config.json")
    print(f"wrote {ckpt_path}", file=sys.stderr)
    return 0


def _load_checkpoint(cfg: ExperimentConfig, path):
    """The checkpoint's editor and encoder settings, if the config's
    `hidden_m`, `encoder_n` and `hash_seed` are the checkpoint's."""
    from . import editor

    params, enc_config = editor.load_checkpoint(path)
    for field, key, saved in (("hidden_m", "m", params.m), ("encoder_n", "n", params.n),
                              ("hash_seed", "hash_seed", enc_config.hash_seed)):
        if getattr(cfg, field) != saved:
            raise ValueError(f"config field {field!r} is {getattr(cfg, field)!r}, but checkpoint {path} "
                             f"has {key} {saved!r}; use the config it was trained with")
    return params, enc_config


def _print_summary(document, extract, abstractions, row) -> None:
    """Each extracted sentence with its decision (its abstraction on A), then
    the summary that the E and A lines make."""
    from .text import ABSTRACT, DECISIONS, REJECT

    print(f"# {document.id}")
    kept = []
    for idx, abstracted, k in zip(extract.order, abstractions, row):
        line = " ".join(abstracted if k == ABSTRACT else document.tokens_at(idx))
        print(f"{DECISIONS[k]}: {line}")
        if k != REJECT:
            kept.append(line)
    print("summary:")
    for line in kept:
        print("  " + line)


def cmd_summarize(args) -> int:
    from . import editor, encoder, summarizers, text

    cfg = _load_config(args)
    params, enc_config = _load_checkpoint(cfg, args.checkpoint)
    abstractor = cfg.make_abstractor()
    # The greedy extractor scores against the reference, so highlights are
    # required; the lead extractor works on bare articles, which have no
    # reference to make an `Example` of.
    if cfg.extractor == "greedy":
        examples = text.load_dataset(args.document)
        documents = [ex.document for ex in examples]

        def extracts_of(chunk):
            return summarizers.extract([examples[j] for j in chunk], cfg)
    else:
        documents = text.load_documents(args.document)

        def extracts_of(chunk):
            return [summarizers.extract_lead(documents[j], cfg.k) for j in chunk]
    if not documents:
        raise ValueError(f"no usable records in {args.document}")
    # Documents are extracted, encoded and decoded one decode pass at a
    # time, so memory stays bounded and each pass is printed before the
    # next is extracted.
    for start in range(0, len(documents), text.DECODE_CHUNK):
        chunk = range(start, min(start + text.DECODE_CHUNK, len(documents)))
        extracts = extracts_of(chunk)
        abstractions = [
            editor.abstractions_for(documents[j], extract, abstractor) for j, extract in zip(chunk, extracts)
        ]
        vectors = encoder.encode_split(
            [documents[j] for j in chunk], [extract.order for extract in extracts], abstractions, enc_config
        )
        decisions = editor.decode(vectors, params)
        for j, extract, abstracted, row in zip(chunk, extracts, abstractions, decisions.tolist()):
            _print_summary(documents[j], extract, abstracted, row)
    return 0


def cmd_evaluate(args) -> int:
    from . import oracle, text, trainer

    cfg = _load_config(args)
    if cfg.extractor == "greedy":
        # a test-time extractor never sees the reference; the greedy one
        # picks the sentences that score best against it. Refused before
        # anything is read or made.
        raise ValueError("evaluate needs extractor lead: extractor greedy picks sentences by scoring them against "
                         "the test references; set extractor to lead and rerun sumedit label --split test")
    params, enc_config = _load_checkpoint(cfg, args.checkpoint)
    out = _out_dir(cfg)
    pairs = _paired_split(cfg, "test", out, oracle.cache_header(cfg))
    report = trainer.evaluate(pairs, params, enc_config, cfg.reward_weights())
    report_path = out / "evaluation.json"
    with text.atomic_open(report_path) as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(json.dumps(report, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # the options every command but `ingest` shares, added once and copied
    # into each subcommand (`parents`)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="experiment config JSON")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", dest="out_dir", default=None, help="output directory")
    common.add_argument("--epochs", type=int, default=None)
    common.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    common.add_argument("--k", type=int, default=None)
    common.add_argument("--extractor", choices=["lead", "greedy"], default=None)
    common.add_argument("--abstract-ratio", dest="abstract_ratio", type=float, default=None)
    common.add_argument("--encoder-n", dest="encoder_n", type=int, default=None)
    common.add_argument("--hidden-m", dest="hidden_m", type=int, default=None)
    common.add_argument("--cap", type=int, default=None)
    common.add_argument("--lr", type=float, default=None)
    common.add_argument("--train-path", dest="train_path", default=None)
    common.add_argument("--val-path", dest="val_path", default=None)
    common.add_argument("--test-path", dest="test_path", default=None)

    parser = argparse.ArgumentParser(prog="sumedit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and canonicalize a dataset")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_ingest, layers=("text",))

    p = sub.add_parser("label", help="precompute soft-label caches", parents=[common])
    p.add_argument(
        "--split",
        dest="splits",
        action="append",
        choices=["train", "val", "test"],
        required=True,
    )
    p.set_defaults(func=cmd_label, layers=("config", "oracle", "summarizers"))

    p = sub.add_parser("train", help="train the editor", parents=[common])
    p.set_defaults(func=cmd_train, layers=("config", "editor", "trainer"))

    p = sub.add_parser("summarize", help="decode documents with a checkpoint", parents=[common])
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--document", required=True, help="dataset-format file to summarize")
    p.set_defaults(func=cmd_summarize, layers=("config", "editor", "encoder", "summarizers"))

    p = sub.add_parser("evaluate", help="score a checkpoint on the test split", parents=[common])
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_evaluate, layers=("config", "editor", "trainer"))

    return parser


def main(argv=None) -> int:
    return _execute(build_parser().parse_args(argv))


def _execute(args) -> int:
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        if not isinstance(exc, BrokenPipeError):  # a closed stdout has no reader to tell
            print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Process entry point: import the command's layers with the collector
    off, freeze the heap, then run the command with the collector on and
    end the process without interpreter teardown."""
    gc.disable()
    args = build_parser().parse_args()
    for layer in args.layers:
        __import__(f"{__package__}.{layer}")
    gc.freeze()
    gc.enable()
    code = _execute(args)
    # Every file a command writes is closed by its `atomic_open` block, so
    # once stdout and stderr are flushed, teardown has nothing left to save.
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        # teardown would flush stdout again and report that it could not
        os._exit(1)
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
