import math
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reference import teacher_batch
from synthetic import document_from_strings
from sumedit.editor import EditorParams, context_from_abstractions, forward
from sumedit import encoder as encoder_mod
from sumedit.encoder import EncoderConfig, encode_split
from sumedit.summarizers import extract_lead
from sumedit.text import Document, Sentence

# --- the sentence-at-a-time encoder: the slow reference for `encode_split` ---


def _hash32(seed: int, feature: str) -> int:
    """crc32 of the UTF-8 bytes of the seeded feature, in one call."""
    return zlib.crc32(f"{seed}\x00{feature}".encode("utf-8"))


def _normalize(v):
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 0 else v


def _raw_sentence_vector(tokens, config):
    """One sentence's hashed vector: a crc32 per feature occurrence."""
    v = np.zeros(config.n)
    feats = [f"1:{t}" for t in tokens]
    feats += [f"2:{a}\x1f{b}" for a, b in zip(tokens, tokens[1:])]
    for feat in feats:
        h = _hash32(config.hash_seed, feat)
        sign = 1.0 if h & 0x80000000 else -1.0
        v[h % config.n] += sign
    return _normalize(v)


def raw_vectors(document, config):
    """Hashed vector of every sentence before mixing; an (N, n) array."""
    return np.stack([_raw_sentence_vector(s.tokens, config) for s in document.sentences])


def _mixed_row(raw, i):
    """Row i after mixing: the normalized mean of raw rows i-1 .. i+1 that
    exist."""
    lo, hi = max(0, i - 1), min(len(raw), i + 2)
    return _normalize(raw[lo:hi].mean(axis=0))


def mix_context(raw):
    """Every sentence's vector, mixed with its neighbors; (N, n)."""
    return np.stack([_mixed_row(raw, i) for i in range(len(raw))])


def encode_abstracted(raw, i, abstracted, config):
    """The vector at position i of the document with sentence i replaced by
    the abstracted tokens, from the document's raw rows."""
    lo, hi = max(0, i - 1), min(len(raw), i + 2)
    window = raw[lo:hi].copy()
    window[i - lo] = _raw_sentence_vector(abstracted, config)
    return _mixed_row(window, i - lo)


def reference_encode_sentences(doc, cfg):
    return mix_context(raw_vectors(doc, cfg))


# --- helpers ------------------------------------------------------------------


def make_doc(sentences, doc_id="d"):
    return document_from_strings(doc_id, sentences)


def encode_sentences(doc, cfg):
    """Every sentence's vector from `encode_split`, extracting the whole
    document in order."""
    order = tuple(range(len(doc)))
    return encode_split([doc], [order], [[doc.tokens_at(i) for i in order]], cfg).ea[:, 0, : cfg.n]


def encode_one_abstracted(doc, i, abstracted, cfg):
    """`encode_split`'s vector of sentence i of doc abstracted as `abstracted`."""
    return encode_split([doc], [(i,)], [[abstracted]], cfg).ea[0, 0, cfg.n :]


def whole_document_encode_abstracted(document, i, abstracted, config):
    """Slow reference: replace sentence i, re-encode the whole modified
    document and return its row i."""
    replaced = tuple(
        Sentence(j, tuple(abstracted)) if j == i else s
        for j, s in enumerate(document.sentences)
    )
    return reference_encode_sentences(Document(id=document.id, sentences=replaced), config)[i]


def doc_vector(doc, cfg, W_d, b_d):
    """The editor's document vector d for doc, from forward's record."""
    params = EditorParams(1, len(b_d))
    params.W_d[:] = W_d
    params.b_d[:] = b_d
    extract = extract_lead(doc, 1)
    vectors = context_from_abstractions(doc, extract, [doc.tokens_at(0)], cfg)
    return forward(teacher_batch(vectors, [[2]]), params).d[0]


class TestEncodeSentences:
    def test_identical_sentences_identical_vectors(self):
        doc = make_doc(["x y z", "the cat sat", "a b", "the cat sat", "q r"])
        rows = encoder_mod._raw_rows([s.tokens for s in doc.sentences], EncoderConfig(n=16))
        assert np.array_equal(rows[1], rows[3])

    def test_unit_norm_without_mixing(self):
        # one sentence: its window holds no neighbor
        doc = make_doc(["alpha beta gamma"])
        vecs = encode_sentences(doc, EncoderConfig(n=16))
        assert np.linalg.norm(vecs[0]) == pytest.approx(1.0)

    def test_deterministic(self):
        doc = make_doc(["a b c", "d e f"])
        cfg = EncoderConfig(n=32, hash_seed=3)
        assert np.array_equal(encode_sentences(doc, cfg), encode_sentences(doc, cfg))

    def test_context_mixing_matches_stated_rule(self):
        doc = make_doc(["a b c", "d e f", "g h i"])
        cfg = EncoderConfig(n=16, hash_seed=1)
        raw = np.stack(
            [_raw_sentence_vector(s.tokens, cfg) for s in doc.sentences]
        )
        expected = raw.mean(axis=0)
        expected /= np.linalg.norm(expected)
        vecs = encode_sentences(doc, cfg)
        assert np.allclose(vecs[1], expected, atol=1e-12)

    def test_hash_seed_changes_vectors(self):
        doc = make_doc(["a b c d e"])
        v0 = encode_sentences(doc, EncoderConfig(n=16, hash_seed=0))
        v1 = encode_sentences(doc, EncoderConfig(n=16, hash_seed=5))
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
        cfg = EncoderConfig(n=4)
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
        cfg = EncoderConfig(n=16)
        vecs = encode_sentences(doc, cfg)
        for i in range(3):
            out = encode_one_abstracted(doc, i, doc.tokens_at(i), cfg)
            assert np.array_equal(out, vecs[i])

    def test_local_without_context_window(self):
        # before mixing, an abstraction's row depends on its own tokens only
        doc_a = make_doc(["a b", "x y z", "c d"])
        doc_b = make_doc(["p q", "x y z", "r s"])
        cfg = EncoderConfig(n=16)
        rows_a, rows_b = (
            encoder_mod._raw_rows([s.tokens for s in doc.sentences] + [("new", "words")], cfg) for doc in (doc_a, doc_b)
        )
        assert np.array_equal(rows_a[-1], rows_b[-1])

    def test_matches_full_modified_document_encoding(self):
        doc = make_doc(["a b c", "d e f", "g h i"])
        cfg = EncoderConfig(n=16)
        modified = make_doc(["a b c", "shorter now", "g h i"])
        expected = encode_sentences(modified, cfg)
        out = encode_one_abstracted(doc, 1, ["shorter", "now"], cfg)
        assert np.array_equal(out, expected[1])
        # neighbors of the modified document change too, but only the
        # replaced position is returned
        original = encode_sentences(doc, cfg)
        assert not np.array_equal(expected[0], original[0])
        assert not np.array_equal(expected[2], original[2])

    def test_window_equals_whole_document_reencoding(self):
        doc = make_doc(["a b c", "d e f g", "h i", "j k l", "m n o p", "q r"])
        cfg = EncoderConfig(n=16, hash_seed=4)
        raw = raw_vectors(doc, cfg)
        for i in range(len(doc)):  # both document edges included
            for tokens in (["new", "words"], ["d", "e"], list(doc.tokens_at(i))):
                want = whole_document_encode_abstracted(doc, i, tokens, cfg)
                assert np.array_equal(encode_abstracted(raw, i, tokens, cfg), want), (i, tokens)
                assert np.array_equal(encode_one_abstracted(doc, i, tokens, cfg), want), (i, tokens)

    def test_context_uses_windowed_vectors(self):
        doc = make_doc(["a b c", "d e f g", "h i", "j k l"])
        cfg = EncoderConfig(n=16)
        extract = extract_lead(doc, 4)
        abstractions = [["abs", str(i)] for i in range(4)]
        vectors = context_from_abstractions(doc, extract, abstractions, cfg)
        for row, (i, tokens) in enumerate(zip(extract.order, abstractions)):
            assert np.array_equal(vectors.ea[row, 0, cfg.n :], whole_document_encode_abstracted(doc, i, tokens, cfg))
        assert np.array_equal(vectors.ea[:, 0, : cfg.n], reference_encode_sentences(doc, cfg))

    def test_index_out_of_range(self):
        doc = make_doc(["a b"])
        with pytest.raises(IndexError):
            encode_one_abstracted(doc, 1, ["x"], EncoderConfig(n=8))

    def test_empty_abstraction_rejected(self):
        doc = make_doc(["a b"])
        with pytest.raises(ValueError):
            encode_one_abstracted(doc, 0, [], EncoderConfig(n=8))

    def test_abstraction_count_must_match_extract(self):
        doc = make_doc(["a b", "c d"])
        with pytest.raises(ValueError, match="2 extracted sentences but 1 abstractions"):
            encode_split([doc], [(0, 1)], [[("x",)]], EncoderConfig(n=8))


# --- the split-wide encoder against the sentence-at-a-time reference ---------

words = st.sampled_from("a b c d e f".split())
token_lists = st.lists(words, min_size=1, max_size=5).map(tuple)


@st.composite
def split_inputs(draw):
    """Documents (some with repeated sentences), extracts and abstractions
    (each its source sentence or any sentence)."""
    documents, orders, abstractions = [], [], []
    for j in range(draw(st.integers(0, 4))):
        sentences = draw(st.lists(token_lists, min_size=1, max_size=7))
        sentences += draw(st.lists(st.sampled_from(sentences), max_size=2))
        doc = make_doc([" ".join(s) for s in sentences], f"d{j}")
        l = draw(st.integers(1, len(doc)))
        order = tuple(draw(st.permutations(range(len(doc))))[:l])
        documents.append(doc)
        orders.append(order)
        abstractions.append(tuple(draw(st.one_of(st.just(doc.tokens_at(i)), token_lists)) for i in order))
    return documents, orders, abstractions


def assert_equals_reference(documents, orders, abstractions, cfg):
    vectors = encode_split(documents, orders, abstractions, cfg)
    L = max((len(o) for o in orders), default=0)
    assert vectors.ea.shape == (L, len(documents), 2 * cfg.n)
    e, a = vectors.ea[:, :, : cfg.n], vectors.ea[:, :, cfg.n :]
    assert vectors.e_bar.shape == (len(documents), cfg.n)
    assert vectors.lengths.tolist() == [len(o) for o in orders]
    for j, (doc, order, abstracted) in enumerate(zip(documents, orders, abstractions)):
        raw = raw_vectors(doc, cfg)
        mixed = mix_context(raw)
        l = len(order)
        assert np.array_equal(e[:l, j], mixed[list(order)])
        want_a = [encode_abstracted(raw, i, toks, cfg) for i, toks in zip(order, abstracted)]
        assert np.array_equal(a[:l, j], np.stack(want_a))
        assert np.array_equal(vectors.e_bar[j], mixed.mean(axis=0))
        assert not vectors.ea[l:, j].any()


class TestSplitEncoderAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(
        inputs=split_inputs(),
        n=st.sampled_from([1, 2, 3, 8, 24]),
        seed=st.integers(0, 3),
    )
    # one-sentence documents, n = 1, every abstraction its source
    @example(
        inputs=(
            [make_doc(["a b"], "x"), make_doc(["c"], "y")],
            [(0,), (0,)],
            [(("a", "b"),), (("c",),)],
        ),
        n=1, seed=0,
    )
    # a document of one repeated sentence
    @example(
        inputs=([make_doc(["a b a"] * 5, "r")], [(4, 0, 2)], [(("a", "b", "a"), ("b",), ("a", "b", "a"))]),
        n=3, seed=1,
    )
    def test_array_equal_to_sentence_at_a_time_encoding(self, inputs, n, seed):
        cfg = EncoderConfig(n=n, hash_seed=seed)
        assert_equals_reference(*inputs, cfg)

    def test_seeded_corpus_with_long_documents(self):
        rng = np.random.default_rng(0)
        vocab = [f"w{i}" for i in range(40)]
        documents, orders, abstractions = [], [], []
        for j in range(12):
            doc = make_doc(
                [" ".join(rng.choice(vocab, size=int(rng.integers(1, 19)))) for _ in range(int(rng.integers(1, 31)))],
                f"g{j}",
            )
            order = tuple(int(i) for i in rng.permutation(len(doc))[: int(rng.integers(1, min(len(doc), 6) + 1))])
            documents.append(doc)
            orders.append(order)
            abstractions.append(tuple(tuple(doc.tokens_at(i)[: max(1, len(doc.tokens_at(i)) // 2)]) for i in order))
        for n in (1, 24, 64):
            assert_equals_reference(documents, orders, abstractions, EncoderConfig(n=n))


# tokens of any non-surrogate characters but whitespace, as tokenization
# leaves them
unicode_tokens = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")), min_size=1, max_size=4
)


class TestSeedPrefixHash:
    """`_raw_rows` continues the CRC-32 of the seed prefix for each feature;
    its rows must equal those of one crc32 call per seeded feature
    (`_hash32`)."""

    @settings(max_examples=100, deadline=None)
    @given(
        sentences=st.lists(st.lists(unicode_tokens, min_size=1, max_size=6), min_size=1, max_size=4),
        seed=st.one_of(st.integers(-(2**70), 2**70), st.integers(-3, 3)),
        n=st.sampled_from([1, 7, 64]),
    )
    @example(sentences=[["é", "日本", "\U0001f600"], ["a"]], seed=-1, n=64)
    def test_equals_one_crc_per_feature(self, sentences, seed, n):
        config = EncoderConfig(n=n, hash_seed=seed)
        rows = encoder_mod._raw_rows(sentences, config)
        for row, tokens in zip(rows, sentences):
            assert np.array_equal(row, _raw_sentence_vector(tokens, config))
