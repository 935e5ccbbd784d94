import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from synthetic import document_from_strings
from sumedit.text import (
    DatasetError,
    Sentence,
    atomic_open,
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
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:2: missing field"):
            load_dataset(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, ["{not json"])
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:1: invalid JSON"):
            load_dataset(path)

    def test_nesting_past_recursion_limit_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, [GOOD, "[" * 5000])
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:2: " + r"invalid JSON \(nested too deeply\)$"):
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
        examples, reject_reasons = ingest_dataset(path)
        assert [ex.document.id for ex in examples] == ["doc-1"]
        assert reject_reasons == ["line 2: empty article or highlights"]

    def test_empty_article_rejected(self, tmp_path):
        bad = dict(GOOD, article_sentences=["   "])
        path = tmp_path / "data.jsonl"
        write_lines(path, [bad])
        examples, reject_reasons = ingest_dataset(path)
        assert examples == []
        assert reject_reasons == ["line 1: empty article or highlights"]

    def test_write_that_raises_keeps_previous_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, [GOOD])
        examples = load_dataset(path)
        before = path.read_bytes()
        # the second entry is not an Example: the write fails after one line
        with pytest.raises(AttributeError):
            write_dataset([examples[0], None], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

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

    @pytest.mark.parametrize("token", ["", "a b", "a ", "\x1cb"])
    def test_token_with_whitespace_or_empty_rejected(self, token):
        with pytest.raises(ValueError, match="bad token"):
            Sentence(0, ("ok", token))

    @pytest.mark.parametrize(
        "tokens",
        [("ok", ""), ("", "ok"), ("a b",), ("ok", "a\tb"), ("\x1c",), ("ok", "a\u2028b"),
         ("ok", 5), (None, "a b"), ("a b", 5), ("ok", b"x", "")],
        ids=["empty", "empty-first", "space", "tab", "file-separator", "line-separator",
             "int", "none-first", "space-then-int", "bytes-then-empty"],
    )
    def test_bad_token_raises_what_a_per_token_check_raises(self, tokens):
        # the one join-and-split comparison falls back to checking each token
        def per_token(tokens):
            for t in tokens:
                if t.split() != [t]:
                    raise ValueError(f"bad token {t!r}")

        with pytest.raises(Exception) as want:
            per_token(tokens)
        with pytest.raises(want.type) as got:
            Sentence(0, tokens)
        assert str(got.value) == str(want.value)

    def test_good_tokens_kept(self):
        assert Sentence(3, ("a", "b-c", "\u00e9")).tokens == ("a", "b-c", "\u00e9")

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
