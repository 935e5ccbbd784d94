"""Corpus data model, tokenization, and dataset ingestion.

Datasets are line-delimited JSON, one record per line:
    {"id": str, "article_sentences": [str, ...], "highlights": [str, ...]}
Strings are space-separated tokens (the corpus is assumed pre-tokenized).

The decisions every layer names (E, A, R) and the run size that `label`,
`train`, `evaluate` and `summarize` work in (DECODE_CHUNK) live here too, so
that a command reads them without importing the network.
"""
from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import slots_eq

# A decision is an index into DECISIONS, the letter that files and output
# write for it; argmax ties therefore break E > A > R.
DECISIONS = "EAR"
EXTRACT, ABSTRACT, REJECT = range(3)

# Most extracts one batched pass holds at once: the editor decodes, and
# `label` and `train` build their records, in runs of this size, so the
# arrays of a run stay bounded. Readers look it up as `text.DECODE_CHUNK`
# when they run.
DECODE_CHUNK = 256


def warn(name: str, message: str, *args) -> None:
    """Print the warning `message % args` of module `name` to the current
    stderr, as `WARNING sumedit.text: rejected record: ...`."""
    print(f"WARNING {name}: {message % args}", file=sys.stderr)


class DatasetError(ValueError):
    """Raised for malformed dataset files, as "<path>:<line>: ..."."""


def tokenize(raw: str) -> list[str]:
    """Lowercase and split on whitespace runs. Total: empty input gives []."""
    return raw.lower().split()


class Sentence:
    __slots__ = ("index", "tokens")

    def __init__(self, index: int, tokens: tuple[str, ...]):
        if not tokens:
            raise ValueError("sentence has no tokens")
        # Splitting the joined tokens gives them back unless one is empty,
        # holds whitespace or is not a str; only then is each one checked,
        # so that the first bad token names itself.
        try:
            ok = " ".join(tokens).split() == list(tokens)
        except TypeError:
            ok = False
        if not ok:
            for t in tokens:
                if not isinstance(t, str) or t.split() != [t]:  # not a str, empty, or holds whitespace
                    raise ValueError(f"bad token {t!r}")
        self.index = index
        self.tokens = tokens

    __eq__ = slots_eq


class Document:
    __slots__ = ("id", "sentences")

    def __init__(self, id: str, sentences: tuple[Sentence, ...]):
        if not sentences:
            raise ValueError("document has no sentences")
        for i, s in enumerate(sentences):
            if s.index != i:
                raise ValueError("sentence indices must be 0..N-1 contiguous")
        self.id = id
        self.sentences = sentences

    __eq__ = slots_eq

    def __len__(self) -> int:
        return len(self.sentences)

    def tokens_at(self, i: int) -> tuple[str, ...]:
        return self.sentences[i].tokens


class ReferenceSummary:
    __slots__ = ("sentences",)

    def __init__(self, sentences: tuple[tuple[str, ...], ...]):
        if not sentences or any(not s for s in sentences):
            raise ValueError("reference summary sentences must be non-empty")
        self.sentences = sentences

    __eq__ = slots_eq


class Example:
    __slots__ = ("document", "reference")

    def __init__(self, document: Document, reference: ReferenceSummary):
        self.document = document
        self.reference = reference

    __eq__ = slots_eq


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

    Structural problems raise DatasetError naming the file and line
    ("<path>:<line>: ..."): invalid JSON, a record that is not an object, a
    missing field (highlights may be missing unless `highlights_required`), a
    non-string id, an id with a line break (any that `str.splitlines` splits
    on), an id that an earlier line already has, or sentences that are not a
    list of strings.
    """
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json_line(line)
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            if not isinstance(rec, dict):
                raise DatasetError(f"{path}:{lineno}: record is not an object")
            for field in ("id", "article_sentences", "highlights"):
                if field not in rec and (highlights_required or field != "highlights"):
                    raise DatasetError(f"{path}:{lineno}: missing field {field!r}")
            if not isinstance(rec["id"], str):
                raise DatasetError(f"{path}:{lineno}: id must be a string")
            # `summarize` prints each id on a header line of its own
            if "".join(rec["id"].splitlines()) != rec["id"]:
                raise DatasetError(f"{path}:{lineno}: id must not contain a line break")
            first = first_line.setdefault(rec["id"], lineno)
            if first != lineno:
                raise DatasetError(f"{path}:{lineno}: duplicate id {rec['id']!r} (first at line {first})")
            for field in ("article_sentences", "highlights"):
                v = rec.get(field, [])
                if not isinstance(v, list) or any(not isinstance(s, str) for s in v):
                    raise DatasetError(f"{path}:{lineno}: {field} must be a list of strings")
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


def ingest_dataset(path) -> tuple[list[Example], list[str]]:
    """Load a dataset, rejecting (not silently skipping) empty records.

    Malformed lines raise DatasetError naming the file and line; a record with
    an empty article or empty highlights is rejected with a reason. Returns
    (accepted examples in file order, one reason per rejected record).
    """
    examples: list[Example] = []
    reject_reasons: list[str] = []
    for lineno, rec in _records(path):
        article = _tokenized(rec["article_sentences"])
        highlights = _tokenized(rec["highlights"])
        if article is None or highlights is None:
            reject_reasons.append(f"line {lineno}: empty article or highlights")
            warn(__name__, "rejected record: %s", reject_reasons[-1])
            continue
        ref = ReferenceSummary(sentences=tuple(tuple(t) for t in highlights))
        examples.append(Example(document=_document(rec["id"], article), reference=ref))
    return examples, reject_reasons


def load_dataset(path) -> list[Example]:
    """One Example per line, in file order. Each reject prints a warning."""
    examples, _ = ingest_dataset(path)
    return examples


def load_documents(path) -> list[Document]:
    """Load article documents only; highlights are optional and ignored.

    Records are validated, and empty articles rejected, as in ingest_dataset.
    """
    docs: list[Document] = []
    for lineno, rec in _records(path, highlights_required=False):
        article = _tokenized(rec["article_sentences"])
        if article is None:
            warn(__name__, "rejected record: line %d: empty article", lineno)
            continue
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
