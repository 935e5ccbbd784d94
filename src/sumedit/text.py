"""Corpus data model, tokenization, and dataset ingestion.

Datasets are line-delimited JSON, one record per line:
    {"id": str, "article_sentences": [str, ...], "highlights": [str, ...]}
Strings are space-separated tokens (the corpus is assumed pre-tokenized).
"""
from __future__ import annotations

import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

log = logging.getLogger(__name__)


class DatasetError(ValueError):
    """Raised for malformed dataset files (names the offending line)."""


def tokenize(raw: str) -> list[str]:
    """Lowercase and split on whitespace runs. Total: empty input gives []."""
    return raw.lower().split()


@dataclass(frozen=True)
class Sentence:
    index: int
    tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("sentence has no tokens")
        for t in self.tokens:
            if t.split() != [t]:  # empty, or holds whitespace
                raise ValueError(f"bad token {t!r}")


@dataclass(frozen=True)
class Document:
    id: str
    sentences: tuple[Sentence, ...]

    def __post_init__(self):
        if not self.sentences:
            raise ValueError("document has no sentences")
        for i, s in enumerate(self.sentences):
            if s.index != i:
                raise ValueError("sentence indices must be 0..N-1 contiguous")

    def __len__(self) -> int:
        return len(self.sentences)

    def tokens_at(self, i: int) -> tuple[str, ...]:
        return self.sentences[i].tokens


@dataclass(frozen=True)
class ReferenceSummary:
    sentences: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.sentences or any(not s for s in self.sentences):
            raise ValueError("reference summary sentences must be non-empty")


@dataclass(frozen=True)
class Example:
    document: Document
    reference: ReferenceSummary


def document_from_strings(doc_id: str, sentences: list[str]) -> Document:
    return Document(
        id=doc_id,
        sentences=tuple(
            Sentence(i, tuple(tokenize(s))) for i, s in enumerate(sentences)
        ),
    )


@dataclass
class IngestReport:
    accepted: int = 0
    rejected: int = 0
    reject_reasons: list[str] = None

    def __post_init__(self):
        if self.reject_reasons is None:
            self.reject_reasons = []


def json_line(line: str):
    """The JSON value of one line. Whatever `json.loads` rejects raises
    ValueError with a one-line reason, including nesting past the recursion
    limit (which `json.loads` reports as RecursionError)."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(exc.msg) from None
    except RecursionError:
        raise ValueError("nested too deeply") from None


def read_json_object(path) -> dict:
    """The JSON object a whole file holds (a config or a checkpoint);
    anything else raises ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            value = json_line(fh.read())
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path}: expected a JSON object, not {type(value).__name__}")
    return value


def _records(path, highlights_required: bool = True):
    """Yield (line number, record) for every non-blank line of a dataset.

    Structural problems raise DatasetError naming the line: invalid JSON, a
    record that is not an object, a missing field (highlights may be missing
    unless `highlights_required`), a non-string id, or sentences that are not
    a list of strings.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json_line(line)
            except ValueError as exc:
                raise DatasetError(f"line {lineno}: invalid JSON ({exc})") from None
            if not isinstance(rec, dict):
                raise DatasetError(f"line {lineno}: record is not an object")
            for field in ("id", "article_sentences", "highlights"):
                if field not in rec and (highlights_required or field != "highlights"):
                    raise DatasetError(f"line {lineno}: missing field {field!r}")
            if not isinstance(rec["id"], str):
                raise DatasetError(f"line {lineno}: id must be a string")
            for field in ("article_sentences", "highlights"):
                v = rec.get(field, [])
                if not isinstance(v, list) or any(not isinstance(s, str) for s in v):
                    raise DatasetError(f"line {lineno}: {field} must be a list of strings")
            yield lineno, rec


def _tokenized(sentences: list[str]) -> list[list[str]] | None:
    """Tokens of every sentence; None if there are none or one is empty."""
    out = [tokenize(s) for s in sentences]
    return out if out and all(out) else None


def _document(doc_id: str, article: list[list[str]]) -> Document:
    return Document(
        id=doc_id,
        sentences=tuple(Sentence(i, tuple(t)) for i, t in enumerate(article)),
    )


def ingest_dataset(path) -> tuple[list[Example], IngestReport]:
    """Load a dataset, rejecting (not silently skipping) empty records.

    Malformed lines raise DatasetError naming the line number; records with an
    empty article or empty highlights are counted as rejected with a reason.
    """
    examples: list[Example] = []
    report = IngestReport()
    for lineno, rec in _records(path):
        article = _tokenized(rec["article_sentences"])
        highlights = _tokenized(rec["highlights"])
        if article is None or highlights is None:
            report.rejected += 1
            reason = f"line {lineno}: empty article or highlights"
            report.reject_reasons.append(reason)
            log.warning("rejected record: %s", reason)
            continue
        ref = ReferenceSummary(sentences=tuple(tuple(t) for t in highlights))
        examples.append(Example(document=_document(rec["id"], article), reference=ref))
        report.accepted += 1
    return examples, report


def load_dataset(path) -> list[Example]:
    """One Example per line, in file order. Rejects are logged as warnings."""
    examples, _ = ingest_dataset(path)
    return examples


def load_documents(path) -> list[Document]:
    """Load article documents only; highlights are optional and ignored.

    Records are validated as in ingest_dataset; an empty article raises.
    """
    docs: list[Document] = []
    for lineno, rec in _records(path, highlights_required=False):
        article = _tokenized(rec["article_sentences"])
        if article is None:
            raise DatasetError(f"line {lineno}: empty article")
        docs.append(_document(rec["id"], article))
    return docs


@contextmanager
def atomic_open(path):
    """Text file to write `path` through: the block writes a temporary file
    in the same directory, which replaces `path` only when the block
    completes, so a write that raises part-way leaves the previous file as
    it was. The data is not fsynced before the rename: a power loss just
    after it can leave a short file where the filesystem reorders writes."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_dataset(examples: list[Example], path) -> None:
    """Write examples in the canonical line-delimited JSON form, through
    `atomic_open`."""
    with atomic_open(path) as fh:
        for ex in examples:
            rec = {
                "id": ex.document.id,
                "article_sentences": [" ".join(s.tokens) for s in ex.document.sentences],
                "highlights": [" ".join(s) for s in ex.reference.sentences],
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
