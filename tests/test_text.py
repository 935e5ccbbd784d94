import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumedit.text import (
    DatasetError,
    atomic_open,
    document_from_strings,
    ingest_dataset,
    load_dataset,
    tokenize,
    write_dataset,
)


def write_lines(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec if isinstance(rec, str) else json.dumps(rec))
            fh.write("\n")


GOOD = {
    "id": "doc-1",
    "article_sentences": ["The cat SAT .", "a dog ran", "birds fly south"],
    "highlights": ["the cat sat ."],
}


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_lowercase_and_split(self):
        assert tokenize("The cat SAT .") == ["the", "cat", "sat", "."]

    def test_pretokenized_sentence(self):
        assert tokenize("crash took place sunday") == ["crash", "took", "place", "sunday"]

    @given(st.text())
    def test_idempotent_on_rejoined_output(self, raw):
        once = tokenize(raw)
        assert tokenize(" ".join(once)) == once


class TestLoadDataset:
    def test_two_valid_lines_in_order(self, tmp_path):
        other = dict(GOOD, id="doc-2")
        path = tmp_path / "data.jsonl"
        write_lines(path, [GOOD, other])
        examples = load_dataset(path)
        assert [ex.document.id for ex in examples] == ["doc-1", "doc-2"]

    def test_missing_field_names_line(self, tmp_path):
        bad = {"id": "x", "article_sentences": ["a b"]}
        path = tmp_path / "data.jsonl"
        write_lines(path, [GOOD, bad])
        with pytest.raises(DatasetError, match="line 2: missing field"):
            load_dataset(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, ["{not json"])
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)

    def test_three_sentence_article_indices(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, [GOOD])
        (ex,) = load_dataset(path)
        doc = ex.document
        assert len(doc) == 3
        assert [s.index for s in doc.sentences] == [0, 1, 2]
        assert doc.tokens_at(0) == ("the", "cat", "sat", ".")

    def test_empty_highlights_rejected_not_fatal(self, tmp_path):
        bad = dict(GOOD, id="doc-bad", highlights=[])
        path = tmp_path / "data.jsonl"
        write_lines(path, [GOOD, bad])
        examples, report = ingest_dataset(path)
        assert [ex.document.id for ex in examples] == ["doc-1"]
        assert report.accepted == 1
        assert report.rejected == 1
        assert "line 2" in report.reject_reasons[0]

    def test_empty_article_rejected(self, tmp_path):
        bad = dict(GOOD, article_sentences=["   "])
        path = tmp_path / "data.jsonl"
        write_lines(path, [bad])
        examples, report = ingest_dataset(path)
        assert examples == []
        assert report.rejected == 1

    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, [GOOD, dict(GOOD, id="doc-2")])
        examples = load_dataset(path)
        out = tmp_path / "canonical.jsonl"
        write_dataset(examples, out)
        again = load_dataset(out)
        assert again == examples


class TestDocumentInvariants:
    def test_contiguous_indices_required(self):
        doc = document_from_strings("d", ["a b", "c d"])
        assert [s.index for s in doc.sentences] == [0, 1]

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            document_from_strings("d", [])


class TestAtomicOpen:
    def test_write_that_raises_keeps_previous_file(self, tmp_path):
        path = tmp_path / "artifact.json"
        with atomic_open(path) as fh:
            fh.write("previous\n")
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            with atomic_open(path) as fh:
                fh.write("half of the new conte")
                raise RuntimeError("interrupted")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]
