import math

import numpy as np
import pytest

from sumedit.editor import EditorParams, context_from_abstractions, forward
from sumedit.encoder import (
    EncoderConfig,
    _raw_sentence_vector,
    encode_abstracted,
    mix_context,
    raw_vectors,
)
from sumedit.summarizers import extract_lead
from sumedit.text import Document, Sentence, document_from_strings


def make_doc(sentences, doc_id="d"):
    return document_from_strings(doc_id, sentences)


def encode_sentences(doc, cfg):
    return mix_context(raw_vectors(doc, cfg), cfg)


def whole_document_encode_abstracted(document, i, abstracted, config):
    """Slow reference: replace sentence i, re-encode the whole modified
    document and return its row i."""
    replaced = tuple(
        Sentence(j, tuple(abstracted)) if j == i else s
        for j, s in enumerate(document.sentences)
    )
    return encode_sentences(Document(id=document.id, sentences=replaced), config)[i]


def doc_vector(doc, cfg, W_d, b_d):
    """The editor's document vector d for doc, from forward's record."""
    n = cfg.n
    params = EditorParams(
        W_c=np.zeros((1, 4 * n)), b_c=np.zeros(1), V=np.zeros((3, 1)), b=np.zeros(3),
        W_g=np.zeros((n, n)), W_d=W_d, b_d=b_d,
    )
    extract = extract_lead(doc, 1)
    ctx = context_from_abstractions(doc, extract, [doc.tokens_at(0)], cfg)
    return forward([ctx], params, np.array([[2]])).d[0]


class TestEncodeSentences:
    def test_identical_sentences_identical_vectors(self):
        doc = make_doc(["x y z", "the cat sat", "a b", "the cat sat", "q r"])
        vecs = encode_sentences(doc, EncoderConfig(n=16, context_window=0))
        assert np.array_equal(vecs[1], vecs[3])

    def test_unit_norm_without_mixing(self):
        doc = make_doc(["alpha beta gamma"])
        vecs = encode_sentences(doc, EncoderConfig(n=16, context_window=0))
        assert np.linalg.norm(vecs[0]) == pytest.approx(1.0)

    def test_deterministic(self):
        doc = make_doc(["a b c", "d e f"])
        cfg = EncoderConfig(n=32, hash_seed=3, context_window=1)
        assert np.array_equal(encode_sentences(doc, cfg), encode_sentences(doc, cfg))

    def test_context_mixing_matches_stated_rule(self):
        doc = make_doc(["a b c", "d e f", "g h i"])
        cfg = EncoderConfig(n=16, hash_seed=1, context_window=1)
        raw = np.stack(
            [_raw_sentence_vector(s.tokens, cfg) for s in doc.sentences]
        )
        expected = raw.mean(axis=0)
        expected /= np.linalg.norm(expected)
        vecs = encode_sentences(doc, cfg)
        assert np.allclose(vecs[1], expected, atol=1e-12)

    def test_hash_seed_changes_vectors(self):
        doc = make_doc(["a b c d e"])
        v0 = encode_sentences(doc, EncoderConfig(n=16, hash_seed=0, context_window=0))
        v1 = encode_sentences(doc, EncoderConfig(n=16, hash_seed=5, context_window=0))
        assert not np.array_equal(v0, v1)


class TestDocRepresentation:
    def test_zero_params_zero_vector(self):
        doc = make_doc(["a b c", "d e"])
        d = doc_vector(doc, EncoderConfig(n=4), np.zeros((4, 4)), np.zeros(4))
        assert np.array_equal(d, np.zeros(4))

    def test_identity_single_sentence(self):
        doc = make_doc(["a b c"])
        cfg = EncoderConfig(n=4)
        v = encode_sentences(doc, cfg)[0]
        assert np.allclose(doc_vector(doc, cfg, np.eye(4), np.zeros(4)), np.tanh(v))

    def test_matches_plain_loop_recomputation(self):
        rng = np.random.default_rng(0)
        doc = make_doc(["a b c", "d e f g"])
        cfg = EncoderConfig(n=4, context_window=0)
        vecs = encode_sentences(doc, cfg)
        W, b = rng.normal(size=(4, 4)), rng.normal(size=4)
        mean = [sum(vecs[i][j] for i in range(2)) / 2 for j in range(4)]
        expected = [
            math.tanh(sum(W[r][c] * mean[c] for c in range(4)) + b[r]) for r in range(4)
        ]
        out = doc_vector(doc, cfg, W, b)
        assert np.allclose(out, expected, atol=1e-12)

    def test_entries_strictly_inside_tanh_range(self):
        rng = np.random.default_rng(1)
        doc = make_doc(["a b", "c d e", "f g h i"])
        d = doc_vector(doc, EncoderConfig(n=6), rng.normal(size=(6, 6)) * 5, rng.normal(size=6))
        assert np.all(np.abs(d) < 1.0)

    def test_shape_mismatch_errors(self):
        doc = make_doc(["a b c", "d e"])
        with pytest.raises(ValueError):
            doc_vector(doc, EncoderConfig(n=4), np.eye(3), np.zeros(3))


class TestEncodeAbstracted:
    def test_self_replacement_is_identity(self):
        doc = make_doc(["a b c", "d e f", "g h i"])
        cfg = EncoderConfig(n=16, context_window=1)
        vecs = encode_sentences(doc, cfg)
        for i in range(3):
            out = encode_abstracted(raw_vectors(doc, cfg), i, doc.tokens_at(i), cfg)
            assert np.array_equal(out, vecs[i])

    def test_local_without_context_window(self):
        doc_a = make_doc(["a b", "x y z", "c d"])
        doc_b = make_doc(["p q", "x y z", "r s"])
        cfg = EncoderConfig(n=16, context_window=0)
        out_a = encode_abstracted(raw_vectors(doc_a, cfg), 1, ["new", "words"], cfg)
        out_b = encode_abstracted(raw_vectors(doc_b, cfg), 1, ["new", "words"], cfg)
        assert np.array_equal(out_a, out_b)

    def test_matches_full_modified_document_encoding(self):
        doc = make_doc(["a b c", "d e f", "g h i"])
        cfg = EncoderConfig(n=16, context_window=1)
        modified = make_doc(["a b c", "shorter now", "g h i"])
        expected = encode_sentences(modified, cfg)
        out = encode_abstracted(raw_vectors(doc, cfg), 1, ["shorter", "now"], cfg)
        assert np.array_equal(out, expected[1])
        # neighbors of the modified document change too, but only the
        # replaced position is returned
        original = encode_sentences(doc, cfg)
        assert not np.array_equal(expected[0], original[0])
        assert not np.array_equal(expected[2], original[2])

    @pytest.mark.parametrize("window", [0, 1, 2])
    def test_window_equals_whole_document_reencoding(self, window):
        doc = make_doc(["a b c", "d e f g", "h i", "j k l", "m n o p", "q r"])
        cfg = EncoderConfig(n=16, hash_seed=4, context_window=window)
        raw = raw_vectors(doc, cfg)
        for i in range(len(doc)):  # both document edges included
            for tokens in (["new", "words"], ["d", "e"], list(doc.tokens_at(i))):
                want = whole_document_encode_abstracted(doc, i, tokens, cfg)
                assert np.array_equal(encode_abstracted(raw, i, tokens, cfg), want), (i, tokens)

    def test_context_uses_windowed_vectors(self):
        doc = make_doc(["a b c", "d e f g", "h i", "j k l"])
        cfg = EncoderConfig(n=16, context_window=1)
        extract = extract_lead(doc, 4)
        abstractions = [["abs", str(i)] for i in range(4)]
        ctx = context_from_abstractions(doc, extract, abstractions, cfg)
        for row, (i, tokens) in enumerate(zip(extract.order, abstractions)):
            assert np.array_equal(ctx.a[row], whole_document_encode_abstracted(doc, i, tokens, cfg))
        assert np.array_equal(ctx.e, encode_sentences(doc, cfg))

    def test_index_out_of_range(self):
        doc = make_doc(["a b"])
        with pytest.raises(IndexError):
            encode_abstracted(raw_vectors(doc, EncoderConfig(n=8)), 1, ["x"], EncoderConfig(n=8))

    def test_empty_abstraction_rejected(self):
        doc = make_doc(["a b"])
        with pytest.raises(ValueError):
            encode_abstracted(raw_vectors(doc, EncoderConfig(n=8)), 0, [], EncoderConfig(n=8))
