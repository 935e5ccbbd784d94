"""Command-line surface: ingest, label, train, summarize, evaluate.

All randomness flows from the single seed in the resolved config; the
EDITNET_WORKERS environment variable bounds parallel labeling workers
(a positive integer, default 1 for bit-reproducibility).
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import editor, encoder, oracle, summarizers, text, trainer
from .config import ExperimentConfig


def _workers() -> int:
    raw = os.environ.get("EDITNET_WORKERS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"EDITNET_WORKERS must be a positive integer, got {raw!r}")
    return int(raw)


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    overrides = {
        key: getattr(args, key, None)
        for key in (
            "seed", "out_dir", "epochs", "batch_size", "k", "extractor",
            "abstract_ratio", "encoder_n", "hidden_m", "cap", "lr",
            "train_path", "val_path", "test_path",
        )
    }
    return cfg.apply_overrides(overrides)


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_ingest(args) -> int:
    examples, report = text.ingest_dataset(args.input)
    text.write_dataset(examples, args.output)
    summary = {
        "accepted": report.accepted,
        "rejected": report.rejected,
        "reject_reasons": report.reject_reasons,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _dataset_path(cfg: ExperimentConfig, split: str) -> str:
    path = getattr(cfg, f"{split}_path")
    if not path:
        raise SystemExit(f"config has no {split}_path")
    return path


def cmd_label(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg)
    extractor = cfg.make_extractor()
    abstractor = cfg.make_abstractor()
    workers = _workers()
    status = 0
    for split in args.splits:
        examples = text.load_dataset(_dataset_path(cfg, split))
        cache_path = out / f"labels_{split}.jsonl"
        start = time.monotonic()
        labeled, _ = oracle.label_dataset(
            examples,
            extractor,
            abstractor,
            weights=cfg.reward_weights(),
            cap=cfg.cap,
            cache_path=cache_path,
            workers=workers,
        )
        elapsed = time.monotonic() - start
        print(
            f"{split}: labeled {len(labeled)}/{len(examples)} in {elapsed:.1f}s "
            f"-> {cache_path}",
            file=sys.stderr,
        )
        if not labeled and examples:
            status = 1
    cfg.write(out / "resolved_config.json")
    return status


def _paired_split(cfg: ExperimentConfig, split: str, out: Path):
    cache_path = out / f"labels_{split}.jsonl"
    if not cache_path.exists():
        raise SystemExit(
            f"missing label cache {cache_path}; run `sumedit label --split {split}` first"
        )
    labeled, _ = oracle.read_label_cache(cache_path)
    examples = {ex.document.id: ex for ex in text.load_dataset(_dataset_path(cfg, split))}
    pairs = []
    for lab in labeled:
        if lab.example_id not in examples:
            raise SystemExit(f"cache entry {lab.example_id!r} not found in {split} dataset")
        example = examples[lab.example_id]
        sentences = len(example.document)
        for idx in lab.extract.order:
            if idx >= sentences:
                raise ValueError(
                    f"{cache_path}: example {lab.example_id!r} extracts sentence {idx}, "
                    f"but its document has {sentences} sentences"
                )
        pairs.append((example, lab))
    return pairs


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg)
    train_pairs = _paired_split(cfg, "train", out)
    val_pairs = _paired_split(cfg, "val", out)
    rng = np.random.default_rng(cfg.seed)
    params = editor.init_params(cfg.hidden_m, cfg.encoder_n, rng)
    best, log = trainer.train(
        train_pairs,
        val_pairs,
        cfg.train_config(),
        params,
        cfg.encoder_config(),
        cfg.reward_weights(),
    )
    ckpt_path = out / "checkpoint.json"
    editor.save_checkpoint(best, cfg.encoder_config(), ckpt_path)
    with text.atomic_open(out / "train_log.jsonl") as fh:
        for entry in log:
            fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
    cfg.write(out / "resolved_config.json")
    print(f"wrote {ckpt_path}", file=sys.stderr)
    return 0


def _print_summary(document, summary) -> None:
    print(f"# {document.id}")
    for step in summary.steps:
        if step.tokens is not None:
            print(f"{step.decision.label}: {' '.join(step.tokens)}")
        else:
            struck = " ".join(document.tokens_at(step.sentence_index))
            print(f"{step.decision.label}: {struck}")
    print("summary:")
    for sent in summary.text:
        print("  " + " ".join(sent))


def cmd_summarize(args) -> int:
    cfg = _load_config(args)
    params, enc_config = editor.load_checkpoint(args.checkpoint)
    abstractor = cfg.make_abstractor()
    if cfg.extractor == "greedy":
        # The greedy extractor scores against the reference, so highlights
        # are required; the lead extractor works on bare articles.
        examples = text.load_dataset(args.document)
        documents = [ex.document for ex in examples]
        extractor = cfg.make_extractor()
        extracts = [extractor(ex) for ex in examples]
    else:
        documents = text.load_documents(args.document)
        extracts = [summarizers.extract_lead(doc, cfg.k) for doc in documents]
    if not documents:
        raise SystemExit(f"no usable records in {args.document}")
    # Documents are encoded and decoded one decode pass at a time, so memory
    # stays bounded and each pass is printed before the next is encoded.
    for start in range(0, len(documents), editor.DECODE_CHUNK):
        chunk = range(start, min(start + editor.DECODE_CHUNK, len(documents)))
        abstractions = [
            editor.abstractions_for(documents[j], extracts[j], abstractor) for j in chunk
        ]
        vectors = encoder.encode_split(
            [documents[j] for j in chunk], [extracts[j].order for j in chunk], abstractions, enc_config
        )
        decisions, _ = editor.decode(vectors, params)
        for j, abstracted, row in zip(chunk, abstractions, decisions.tolist()):
            _print_summary(documents[j], editor.mixed_summary(documents[j], extracts[j], abstracted, row))
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg)
    params, enc_config = editor.load_checkpoint(args.checkpoint)
    pairs = _paired_split(cfg, "test", out)
    report = trainer.evaluate(pairs, params, enc_config, cfg.reward_weights())
    report_path = out / "evaluation.json"
    with text.atomic_open(report_path) as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(json.dumps(report, sort_keys=True))
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sumedit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and canonicalize a dataset")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("label", help="precompute soft-label caches")
    _add_common(p)
    p.add_argument(
        "--split",
        dest="splits",
        action="append",
        choices=["train", "val", "test"],
        required=True,
    )
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="train the editor")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("summarize", help="decode documents with a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--document", required=True, help="dataset-format file to summarize")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("evaluate", help="score a checkpoint on the test split")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # One WARNING handler for this invocation on the package logger, so each
    # warning (such as a failed example) is printed once, to the call's stderr.
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.WARNING)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("sumedit")
    logger.addHandler(handler)
    try:
        return args.func(args)
    except (OSError, ValueError, text.DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
