import itertools
import time
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sumedit import oracle
from sumedit.editor import DECISIONS, Decision, abstractions_for
from sumedit.oracle import (
    best_sequence,
    enumerate_rewards,
    label_dataset,
    label_example,
    read_label_cache,
    realize,
    soft_labels,
    write_label_cache,
)
from sumedit.rouge import RewardWeights, reward
from sumedit.summarizers import ExtractResult, LeadExtractor, SalienceAbstractor, extract_lead
from sumedit.text import Example, ReferenceSummary, document_from_strings

E, A, R = DECISIONS


def make_example(sentences, highlights, doc_id="d"):
    doc = document_from_strings(doc_id, sentences)
    ref = ReferenceSummary(tuple(tuple(h.split()) for h in highlights))
    return Example(document=doc, reference=ref)


def fixture(l=2):
    sentences = ["a b c", "d e f", "g h i", "j k l"][:l]
    ex = make_example(sentences, ["a b c"])
    extract = extract_lead(ex.document, l)
    abstractions = tuple((f"abs{i}",) for i in range(l))
    return ex, extract, abstractions


def hashed_reward(summary) -> float:
    """Deterministic pseudo-random reward keyed by the realized summary."""
    return zlib.crc32(repr(summary).encode()) / 2**32


def as_array(rewards):
    """Dense (3,)*l array, in product order, of a {sequence: reward} dict
    covering every sequence."""
    l = len(next(iter(rewards)))
    seqs = itertools.product(DECISIONS, repeat=l)
    return np.array([rewards[seq] for seq in seqs]).reshape((3,) * l)


def as_dict(rewards):
    """{sequence: reward} dict of a dense (3,)*l reward array."""
    seqs = itertools.product(DECISIONS, repeat=rewards.ndim)
    return dict(zip(seqs, rewards.ravel().tolist()))


def at(rewards, seq):
    return rewards[tuple(DECISIONS.index(d) for d in seq)]


def loop_soft_labels(rewards, best):
    """The dict loop that `soft_labels` replaced: sequential per-bucket sums
    in product order. The array version must match it bit for bit."""
    l = len(best)
    sums = np.zeros((l, 3))
    counts = np.zeros((l, 3))
    for seq, r in rewards.items():
        for i in range(l):
            if i > 0 and seq[i - 1] is not best[i - 1]:
                break
            k = DECISIONS.index(seq[i])
            sums[i, k] += r
            counts[i, k] += 1
    labels = np.empty((l, 3))
    for i in range(l):
        means = np.where(counts[i] > 0, sums[i] / np.maximum(counts[i], 1), 0.0)
        z = means.sum()
        labels[i] = means / z if z > 0 else np.full(3, 1.0 / 3.0)
    return labels


def naive_soft_labels(rewards, best):
    """Independent re-implementation: filter and average per prefix bucket."""
    l = len(best)
    labels = []
    for i in range(l):
        prefix = best[:i]
        means = []
        for d in DECISIONS:
            vals = [
                r
                for seq, r in rewards.items()
                if seq[:i] == prefix and seq[i] is d
            ]
            means.append(sum(vals) / len(vals) if vals else 0.0)
        z = sum(means)
        labels.append([m / z for m in means] if z > 0 else [1 / 3] * 3)
    return np.array(labels)


def naive_best(rewards):
    rank = {d: i for i, d in enumerate(DECISIONS)}
    ordered = sorted(rewards, key=lambda s: tuple(rank[d] for d in s))
    best = ordered[0]
    for seq in ordered[1:]:
        if rewards[seq] > rewards[best]:
            best = seq
    return best


class TestRealize:
    def test_all_extract(self):
        ex, extract, abstractions = fixture(3)
        out = realize(ex.document, extract, abstractions, (E, E, E))
        assert out == tuple(ex.document.tokens_at(i) for i in range(3))

    def test_all_reject(self):
        ex, extract, abstractions = fixture(2)
        assert realize(ex.document, extract, abstractions, (R, R)) == ()

    def test_mixed(self):
        ex, extract, abstractions = fixture(3)
        out = realize(ex.document, extract, abstractions, (E, A, R))
        assert out == (ex.document.tokens_at(0), abstractions[1])

    def test_length_mismatch(self):
        ex, extract, abstractions = fixture(2)
        with pytest.raises(ValueError):
            realize(ex.document, extract, abstractions, (E,))


class TestEnumerateRewards:
    def test_counts(self):
        for l in (1, 2, 3):
            ex, extract, abstractions = fixture(l)
            rewards = enumerate_rewards(ex, extract, abstractions)
            assert rewards.shape == (3,) * l and rewards.size == 3**l

    def test_all_reject_scores_zero(self):
        ex, extract, abstractions = fixture(2)
        rewards = enumerate_rewards(ex, extract, abstractions)
        assert at(rewards, (R, R)) == 0.0

    def test_cap_enforced(self):
        ex, extract, abstractions = fixture(3)
        with pytest.raises(ValueError, match=r"enumeration cap exceeded \(l=3, cap=2\)"):
            enumerate_rewards(ex, extract, abstractions, cap=2)

    def test_matches_independent_enumerator(self):
        ex, extract, abstractions = fixture(3)
        rewards = enumerate_rewards(ex, extract, abstractions, reward_fn=hashed_reward)
        for seq in itertools.product(DECISIONS, repeat=3):
            expected = hashed_reward(realize(ex.document, extract, abstractions, seq))
            assert at(rewards, seq) == expected


class TestBestSequence:
    def test_unique_maximum(self):
        rewards = {seq: 0.0 for seq in itertools.product(DECISIONS, repeat=2)}
        rewards.update({(E, E): 0.1, (E, A): 0.9, (A, E): 0.2})
        assert best_sequence(as_array(rewards)) == (E, A)

    def test_all_equal_prefers_all_extract(self):
        rewards = {seq: 0.5 for seq in itertools.product(DECISIONS, repeat=2)}
        assert best_sequence(as_array(rewards)) == (E, E)

    def test_tie_between_ea_and_ae(self):
        rewards = {seq: 0.0 for seq in itertools.product(DECISIONS, repeat=2)}
        rewards[(E, A)] = 1.0
        rewards[(A, E)] = 1.0
        assert best_sequence(as_array(rewards)) == (E, A)


class TestSoftLabels:
    def test_singleton_prefix_sets(self):
        rewards = as_array({(E,): 0.6, (A,): 0.3, (R,): 0.1})
        labels = soft_labels(rewards, (E,))
        assert labels[0] == pytest.approx([0.6, 0.3, 0.1], abs=1e-12)

    def test_equal_rewards_uniform(self):
        rewards = as_array({seq: 0.7 for seq in itertools.product(DECISIONS, repeat=3)})
        labels = soft_labels(rewards, best_sequence(rewards))
        assert labels == pytest.approx(np.full((3, 3), 1 / 3), abs=1e-12)

    def test_zero_rewards_uniform(self):
        rewards = as_array({seq: 0.0 for seq in itertools.product(DECISIONS, repeat=2)})
        labels = soft_labels(rewards, best_sequence(rewards))
        assert labels == pytest.approx(np.full((2, 3), 1 / 3), abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        rewards = as_array({
            seq: float(rng.random()) for seq in itertools.product(DECISIONS, repeat=3)
        })
        labels = soft_labels(rewards, best_sequence(rewards))
        assert labels.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-9)

    def test_matches_naive_two_level_averaging(self):
        rng = np.random.default_rng(1)
        rewards = {
            seq: float(rng.random()) for seq in itertools.product(DECISIONS, repeat=2)
        }
        best = best_sequence(as_array(rewards))
        assert best == naive_best(rewards)
        assert np.allclose(
            soft_labels(as_array(rewards), best), naive_soft_labels(rewards, best), atol=1e-12
        )

    def test_best_prefix_average_at_last_step_is_best_reward(self):
        rng = np.random.default_rng(2)
        rewards = {
            seq: float(rng.random()) for seq in itertools.product(DECISIONS, repeat=3)
        }
        best = best_sequence(as_array(rewards))
        prefix = best[:2]
        vals = [r for seq, r in rewards.items() if seq[:2] == prefix and seq[2] is best[2]]
        assert sum(vals) / len(vals) == pytest.approx(rewards[best], abs=1e-12)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(3)
        rewards = as_array({
            seq: float(rng.random()) for seq in itertools.product(DECISIONS, repeat=3)
        })
        scaled = 13.5 * rewards
        best = best_sequence(rewards)
        assert best_sequence(scaled) == best
        assert np.allclose(
            soft_labels(rewards, best), soft_labels(scaled, best), atol=1e-12
        )


words = st.sampled_from("a b c d e".split())
sentences = st.lists(words, min_size=1, max_size=6).map(tuple)


@st.composite
def oracle_inputs(draw):
    """(document sentences, extract order, abstractions, reference sentences);
    an abstraction is its source sentence or any sentence."""
    doc = draw(st.lists(sentences, min_size=1, max_size=5))
    l = draw(st.integers(1, min(4, len(doc))))
    order = tuple(draw(st.permutations(range(len(doc))))[:l])
    abstractions = tuple(draw(st.one_of(st.just(doc[i]), sentences)) for i in order)
    ref = draw(st.lists(st.lists(words, min_size=1, max_size=12).map(tuple), min_size=1, max_size=3))
    return doc, order, abstractions, ref


def oracle_case(doc, order, abstractions, ref):
    ex = make_example([" ".join(s) for s in doc], [" ".join(s) for s in ref])
    extract = ExtractResult(order=order, likelihood={i: 1.0 for i in range(len(doc))})
    return ex, extract, abstractions


LONG = tuple("abcde"[i % 5] + "abcde"[i % 3] for i in range(70))


class TestFactorizedOracle:
    """The statistics-based enumeration against `rouge.reward` on every
    realized summary, and `soft_labels` against the dict loop."""

    @settings(max_examples=60, deadline=None)
    @given(inputs=oracle_inputs())
    # single-token sentences: no bigrams in candidates or reference
    @example(inputs=((("a",), ("b",), ("a",)), (0, 1, 2), (("a",), ("b",), ("c",)), [("a",), ("b",)]))
    # a duplicated sentence, and an abstraction equal to its source
    @example(inputs=((("a", "b"), ("a", "b"), ("c", "a")), (1, 0, 2), (("a", "b"), ("b",), ("c", "a")), [("a", "b", "c", "a")]))
    # a reference sentence longer than 64 tokens
    @example(inputs=((LONG[:6], LONG[60:66], ("x", "y")), (2, 0, 1), (LONG[62:], LONG[:3], ("y",)), [LONG, LONG[5:9]]))
    def test_rewards_and_labels_bit_equal_to_reference(self, inputs):
        ex, extract, abstractions = oracle_case(*inputs)
        rewards = enumerate_rewards(ex, extract, abstractions)
        l = len(extract.order)
        want = [
            reward(realize(ex.document, extract, abstractions, seq), ex.reference)
            for seq in itertools.product(DECISIONS, repeat=l)
        ]
        assert rewards.shape == (3,) * l
        assert rewards.ravel().tolist() == want
        best = best_sequence(rewards)
        assert best == naive_best(as_dict(rewards))
        labels = soft_labels(rewards, best)
        assert labels.tobytes() == loop_soft_labels(as_dict(rewards), best).tobytes()

    def test_chunked_grid_matches_unchunked(self, monkeypatch):
        ex, extract, abstractions = oracle_case(
            (("a", "b", "c"), ("b", "c", "d"), ("d", "a"), ("c",), ("e", "a", "b")),
            (4, 0, 2, 1, 3),
            (("a", "b"), ("c",), ("d", "a"), ("c",), ("e",)),
            [("a", "b", "c", "d"), ("e", "a")],
        )
        whole = enumerate_rewards(ex, extract, abstractions)
        monkeypatch.setattr(oracle, "CHUNK_ENTRIES", 1)
        chunked = enumerate_rewards(ex, extract, abstractions)
        assert chunked.tobytes() == whole.tobytes()

    def test_cap_length_sampled_sequences(self):
        rng = np.random.default_rng(12)
        vocab = [f"w{i}" for i in range(30)]

        def sentence(lo, hi):
            return tuple(rng.choice(vocab, size=int(rng.integers(lo, hi))).tolist())

        doc = tuple(sentence(3, 12) for _ in range(14))
        order = tuple(int(i) for i in rng.permutation(14)[:12])
        abstractions = tuple(doc[i][: max(1, len(doc[i]) // 2)] for i in order)
        ref = [sentence(5, 15) for _ in range(3)]
        ex, extract, abstractions = oracle_case(doc, order, abstractions, ref)
        start = time.monotonic()
        rewards = enumerate_rewards(ex, extract, abstractions)
        elapsed = time.monotonic() - start
        assert rewards.shape == (3,) * 12
        assert elapsed < 5, f"l = 12 enumeration took {elapsed:.1f}s"
        for idx in rng.integers(0, 3, size=(200, 12)):
            seq = tuple(DECISIONS[i] for i in idx)
            summary = realize(ex.document, extract, abstractions, seq)
            assert rewards[tuple(idx)] == reward(summary, ex.reference)


class TestLabelDataset:
    EXAMPLES = [
        make_example(["the cat sat", "a dog ran", "birds fly"], ["the cat sat"], "ex-0"),
        make_example(["one two three", "four five six"], ["one two three"], "ex-1"),
        make_example(["red green", "blue yellow", "red blue"], ["red green", "blue yellow"], "ex-2"),
    ]

    def test_empty_dataset_valid_cache(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        labeled, failures = label_dataset(
            [], LeadExtractor(2), SalienceAbstractor(0.8), cache_path=path
        )
        assert labeled == [] and failures == []
        loaded, header = read_label_cache(path)
        assert loaded == [] and header["cache_version"] == 1

    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        labeled, _ = label_dataset(
            self.EXAMPLES[:1], LeadExtractor(2), SalienceAbstractor(0.8), cache_path=path
        )
        loaded, _ = read_label_cache(path)
        assert loaded == labeled

    def test_matches_per_example_calls(self):
        extractor, abstractor = LeadExtractor(2), SalienceAbstractor(0.8)
        labeled, failures = label_dataset(self.EXAMPLES, extractor, abstractor)
        assert failures == []
        for ex, lab in zip(self.EXAMPLES, labeled):
            direct = label_example(ex, extractor, abstractor)
            assert lab == direct

    def test_cap_violation_recorded_not_fatal(self):
        ex = make_example(["s t"] * 4, ["s t"], "long")
        labeled, failures = label_dataset(
            [self.EXAMPLES[0], ex], LeadExtractor(4), SalienceAbstractor(0.8), cap=3
        )
        assert len(labeled) == 1
        assert len(failures) == 1 and "long" in failures[0]

    def test_incomplete_likelihood_raises(self):
        def extractor(example):
            return ExtractResult(order=(0, 1), likelihood={0: 1.0})

        with pytest.raises(ValueError, match=r"ex-0: .*no entry for sentence 1"):
            label_dataset(self.EXAMPLES, extractor, SalienceAbstractor(0.8))

    def test_two_workers_write_the_same_cache(self, tmp_path):
        paths = [tmp_path / "one.jsonl", tmp_path / "two.jsonl"]
        for path, workers in zip(paths, (1, 2)):
            label_dataset(
                self.EXAMPLES, LeadExtractor(2), SalienceAbstractor(0.8),
                cache_path=path, workers=workers,
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_cache_write_that_raises_keeps_previous_cache(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        labeled, _ = label_dataset(
            self.EXAMPLES, LeadExtractor(2), SalienceAbstractor(0.8), cache_path=path
        )
        before = path.read_bytes()
        # the second record is not a LabeledExample: the write fails after
        # the header and the first record
        with pytest.raises(AttributeError):
            write_label_cache(path, [labeled[0], object()], RewardWeights(), 12)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_byte_identical_reruns(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            label_dataset(
                self.EXAMPLES, LeadExtractor(2), SalienceAbstractor(0.8), cache_path=path
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_composed_labels_match_components(self):
        extractor, abstractor = LeadExtractor(2), SalienceAbstractor(0.8)
        weights = RewardWeights()
        labeled, _ = label_dataset(self.EXAMPLES, extractor, abstractor, weights=weights)
        for ex, lab in zip(self.EXAMPLES, labeled):
            extract = extractor(ex)
            abstractions = abstractions_for(ex.document, extract, abstractor)
            rewards = enumerate_rewards(ex, extract, abstractions, weights=weights)
            best = best_sequence(rewards)
            assert lab.best == best
            assert np.allclose(np.array(lab.labels), soft_labels(rewards, best), atol=1e-12)
