import itertools
import json
import time
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reference import best_sequence, soft_labels
from synthetic import document_from_strings
from sumedit import oracle, text
from sumedit.config import ExperimentConfig
from sumedit.oracle import (
    cache_header,
    enumerate_rewards,
    label_dataset,
    label_example,
    read_label_cache,
    realize,
    write_label_cache,
)
from sumedit.rouge import RewardWeights, SplitEntries, SplitStats, reward
from sumedit import summarizers
from sumedit.summarizers import ExtractResult, abstract_extract, extract_lead
from sumedit.text import ABSTRACT, EXTRACT, REJECT, Example, ReferenceSummary

E, A, R = EXTRACT, ABSTRACT, REJECT


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
    seqs = itertools.product(range(3), repeat=l)
    return np.array([rewards[seq] for seq in seqs]).reshape((3,) * l)


def as_dict(rewards):
    """{sequence: reward} dict of a dense (3,)*l reward array."""
    seqs = itertools.product(range(3), repeat=rewards.ndim)
    return dict(zip(seqs, rewards.ravel().tolist()))


def at(rewards, seq):
    return rewards[tuple(seq)]


def loop_soft_labels(rewards, best):
    """The dict loop that `soft_labels` replaced: sequential per-bucket sums
    in product order. The array version must match it bit for bit."""
    l = len(best)
    sums = np.zeros((l, 3))
    counts = np.zeros((l, 3))
    for seq, r in rewards.items():
        for i in range(l):
            if i > 0 and seq[i - 1] != best[i - 1]:
                break
            k = seq[i]
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
        for d in range(3):
            vals = [
                r
                for seq, r in rewards.items()
                if seq[:i] == prefix and seq[i] == d
            ]
            means.append(sum(vals) / len(vals) if vals else 0.0)
        z = sum(means)
        labels.append([m / z for m in means] if z > 0 else [1 / 3] * 3)
    return np.array(labels)


def naive_best(rewards):
    ordered = sorted(rewards)  # product order: E < A < R, lexicographically
    best = ordered[0]
    for seq in ordered[1:]:
        if rewards[seq] > rewards[best]:
            best = seq
    return best


class TestRealize:
    def test_all_extract(self):
        ex, extract, abstractions = fixture(3)
        out = realize(ex.document, extract.order, abstractions, (E, E, E))
        assert out == tuple(ex.document.tokens_at(i) for i in range(3))

    def test_all_reject(self):
        ex, extract, abstractions = fixture(2)
        assert realize(ex.document, extract.order, abstractions, (R, R)) == ()

    def test_mixed(self):
        ex, extract, abstractions = fixture(3)
        out = realize(ex.document, extract.order, abstractions, (E, A, R))
        assert out == (ex.document.tokens_at(0), abstractions[1])

    def test_length_mismatch(self):
        ex, extract, abstractions = fixture(2)
        with pytest.raises(ValueError):
            realize(ex.document, extract.order, abstractions, (E,))


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
        for seq in itertools.product(range(3), repeat=3):
            expected = hashed_reward(realize(ex.document, extract.order, abstractions, seq))
            assert at(rewards, seq) == expected


class TestBestSequence:
    def test_unique_maximum(self):
        rewards = {seq: 0.0 for seq in itertools.product(range(3), repeat=2)}
        rewards.update({(E, E): 0.1, (E, A): 0.9, (A, E): 0.2})
        assert best_sequence(as_array(rewards)) == (E, A)

    def test_all_equal_prefers_all_extract(self):
        rewards = {seq: 0.5 for seq in itertools.product(range(3), repeat=2)}
        assert best_sequence(as_array(rewards)) == (E, E)

    def test_tie_between_ea_and_ae(self):
        rewards = {seq: 0.0 for seq in itertools.product(range(3), repeat=2)}
        rewards[(E, A)] = 1.0
        rewards[(A, E)] = 1.0
        assert best_sequence(as_array(rewards)) == (E, A)


class TestSoftLabels:
    def test_singleton_prefix_sets(self):
        rewards = as_array({(E,): 0.6, (A,): 0.3, (R,): 0.1})
        labels = soft_labels(rewards, (E,))
        assert labels[0] == pytest.approx([0.6, 0.3, 0.1], abs=1e-12)

    def test_equal_rewards_uniform(self):
        rewards = as_array({seq: 0.7 for seq in itertools.product(range(3), repeat=3)})
        labels = soft_labels(rewards, best_sequence(rewards))
        assert labels == pytest.approx(np.full((3, 3), 1 / 3), abs=1e-12)

    def test_zero_rewards_uniform(self):
        rewards = as_array({seq: 0.0 for seq in itertools.product(range(3), repeat=2)})
        labels = soft_labels(rewards, best_sequence(rewards))
        assert labels == pytest.approx(np.full((2, 3), 1 / 3), abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        rewards = as_array({
            seq: float(rng.random()) for seq in itertools.product(range(3), repeat=3)
        })
        labels = soft_labels(rewards, best_sequence(rewards))
        assert labels.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-9)

    def test_matches_naive_two_level_averaging(self):
        rng = np.random.default_rng(1)
        rewards = {
            seq: float(rng.random()) for seq in itertools.product(range(3), repeat=2)
        }
        best = best_sequence(as_array(rewards))
        assert best == naive_best(rewards)
        assert np.allclose(
            soft_labels(as_array(rewards), best), naive_soft_labels(rewards, best), atol=1e-12
        )

    def test_best_prefix_average_at_last_step_is_best_reward(self):
        rng = np.random.default_rng(2)
        rewards = {
            seq: float(rng.random()) for seq in itertools.product(range(3), repeat=3)
        }
        best = best_sequence(as_array(rewards))
        prefix = best[:2]
        vals = [r for seq, r in rewards.items() if seq[:2] == prefix and seq[2] == best[2]]
        assert sum(vals) / len(vals) == pytest.approx(rewards[best], abs=1e-12)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(3)
        rewards = as_array({
            seq: float(rng.random()) for seq in itertools.product(range(3), repeat=3)
        })
        scaled = 13.5 * rewards
        best = best_sequence(rewards)
        assert best_sequence(scaled) == best
        assert np.allclose(
            soft_labels(rewards, best), soft_labels(scaled, best), atol=1e-12
        )

    def test_batch_matches_per_example_references(self):
        """Over an (N,)+(3,)*l batch, each row's best indices and labels are
        those of the dict references on the row alone, bit for bit:
        distinct bests, ties, a constant row and an all-zero row (the
        uniform branch)."""
        rng = np.random.default_rng(8)
        rows = [rng.random((3,) * 3) for _ in range(4)]
        tie = np.zeros((3,) * 3)
        tie[0, 1, 2] = tie[1, 0, 0] = tie[2, 2, 2] = 0.75
        rows += [tie, np.full((3,) * 3, 0.5), np.zeros((3,) * 3), rng.random((3,) * 3).round(1)]
        batch = np.stack(rows)
        best = oracle.best_sequence(batch)
        labels = oracle.soft_labels(batch, best)
        assert best.shape == (len(rows), 3) and labels.shape == (len(rows), 3, 3)
        assert len({tuple(b) for b in best.tolist()}) > 3
        for row, b, lab in zip(rows, best.tolist(), labels):
            want = naive_best(as_dict(row))
            assert tuple(b) == want
            assert lab.tobytes() == loop_soft_labels(as_dict(row), want).tobytes()


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
    extract = ExtractResult(order=order, likelihood=(1.0,) * len(doc))
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
    # no version matches a reference position: a record with no LCS positions
    @example(inputs=((("a",),), (0,), (("a",),), [("b",)]))
    # no version has a reference n-gram: a record with no n-gram columns
    @example(inputs=((("x", "y"), ("y", "x"), ("z",)), (1, 0, 2), (("y",), ("x", "y"), ("z",)), [("a", "b"), ("c",)]))
    def test_rewards_and_labels_bit_equal_to_reference(self, inputs):
        ex, extract, abstractions = oracle_case(*inputs)
        rewards = enumerate_rewards(ex, extract, abstractions)
        l = len(extract.order)
        want = [
            reward(realize(ex.document, extract.order, abstractions, seq), ex.reference)
            for seq in itertools.product(range(3), repeat=l)
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

    @pytest.mark.parametrize("head", [0, 2, 4])
    def test_grid_with_and_without_prefix_chunks_equals_reward(self, monkeypatch, head):
        """A grid scored whole (no leading decision prefix) or in 3^head
        chunks equals `rouge.reward` of every realized summary."""
        ex, extract, abstractions = oracle_case(
            (("a", "b", "c"), ("b", "c", "d"), ("d", "a"), ("c",), ("e", "a", "b")),
            (4, 0, 2, 1, 3),
            (("a", "b"), ("c",), ("d", "a"), ("c",), ("e",)),
            [("a", "b", "c", "d"), ("e", "a")],
        )
        l = len(extract.order)
        stats = oracle.split_entries([oracle.sentence_versions(ex, extract.order, abstractions)], [ex.reference]).stats([0], [0], 2 * l)
        width = stats.counts.shape[2] + stats.lcs.shape[2]
        # the largest bound that leaves `head` leading decisions to chunk
        monkeypatch.setattr(oracle, "CHUNK_ENTRIES", 3 ** (l - head) * width if head else oracle.CHUNK_ENTRIES)
        chunks = []
        real = SplitStats.rewards
        monkeypatch.setattr(SplitStats, "rewards", lambda self, *a: (chunks.append(a), real(self, *a))[1])
        rewards = enumerate_rewards(ex, extract, abstractions)
        assert len(chunks) == 3**head
        want = enumerate_rewards(ex, extract, abstractions, reward_fn=lambda s: reward(s, ex.reference))
        assert rewards.tobytes() == want.tobytes()

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
            summary = realize(ex.document, extract.order, abstractions, idx.tolist())
            assert rewards[tuple(idx)] == reward(summary, ex.reference)


HEADER = cache_header(ExperimentConfig(k=2))


class TestLabelDataset:
    EXAMPLES = [
        make_example(["the cat sat", "a dog ran", "birds fly"], ["the cat sat"], "ex-0"),
        make_example(["one two three", "four five six"], ["one two three"], "ex-1"),
        make_example(["red green", "blue yellow", "red blue"], ["red green", "blue yellow"], "ex-2"),
    ]

    def test_empty_dataset_valid_cache(self, tmp_path):
        """An empty split is written as a header-only cache, which a run
        refuses to train or evaluate on."""
        path = tmp_path / "labels.jsonl"
        labeled, failures = label_dataset([], ExperimentConfig(k=2))
        assert labeled == [] and failures == []
        write_label_cache(path, labeled, HEADER)
        (line,) = path.read_text().splitlines()
        assert json.loads(line) == HEADER and HEADER["cache_version"] == 3
        with pytest.raises(ValueError) as info:
            read_label_cache(path, HEADER, [], "train")
        assert str(info.value) == f"{path}: the train split has no labeled examples; rerun sumedit label --split train"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        labeled, _ = label_dataset(self.EXAMPLES, ExperimentConfig(k=2))
        write_label_cache(path, labeled, HEADER)
        pairs = read_label_cache(path, HEADER, self.EXAMPLES[::-1], "train")
        assert [lab for _, lab in pairs] == labeled
        assert all(ex is want for (ex, _), want in zip(pairs, self.EXAMPLES))

    def test_matches_per_example_calls(self):
        cfg = ExperimentConfig(k=2)
        labeled, failures = label_dataset(self.EXAMPLES, cfg)
        assert failures == []
        for ex, lab in zip(self.EXAMPLES, labeled):
            direct = label_example(ex, cfg)
            assert lab == direct

    @pytest.mark.parametrize("chunk", [2, 3, 256])
    def test_chunks_match_per_example_calls(self, monkeypatch, chunk):
        """Labels come from one statistics record per run of at most
        DECODE_CHUNK examples; each must be the label of its example on its
        own, and an example past the cap stays a failure in its place."""
        rng = np.random.default_rng(4)
        vocab = [f"w{i}" for i in range(9)]

        def sentence():
            return " ".join(rng.choice(vocab, size=int(rng.integers(1, 7))))

        examples = [
            make_example([sentence() for _ in range(int(rng.integers(1, 6)))],
                         [sentence() for _ in range(int(rng.integers(1, 3)))], f"c{j}")
            for j in range(7)
        ]
        cfg = ExperimentConfig(k=4, cap=3)
        monkeypatch.setattr(text, "DECODE_CHUNK", chunk)
        labeled, failures = label_dataset(examples, cfg)
        want, want_failures = [], []
        for ex in examples:
            try:
                want.append(label_example(ex, cfg))
            except oracle.LabelingError as exc:
                want_failures.append(f"{ex.document.id}: {exc}")
        assert labeled == want and failures == want_failures
        assert 0 < len(failures) < len(examples)

    @pytest.mark.parametrize("entries", [1, 2000])
    def test_mixed_lengths_match_under_small_chunks(self, monkeypatch, tmp_path, entries):
        """A split that interleaves extract lengths 1 .. 5 with extracts past
        the cap: with CHUNK_ENTRIES small enough that groups are cut into
        sub-batches (of one example, with prefix chunking inside, at 1), the
        cache is byte-identical to the default one, and every label is the
        per-summary `reward` reference's."""
        rng = np.random.default_rng(9)
        vocab = [f"w{i}" for i in range(9)]

        def sentence():
            return " ".join(rng.choice(vocab, size=int(rng.integers(1, 7))))

        examples = [
            make_example([sentence() for _ in range(n)], [sentence() for _ in range(int(rng.integers(1, 3)))], f"m{j}")
            for j, n in enumerate([3, 6, 1, 5, 2, 6, 4, 3, 1, 5, 2, 4, 7, 3, 5, 1])
        ]
        cfg = ExperimentConfig(k=6, cap=5)
        paths = [tmp_path / "default.jsonl", tmp_path / "small.jsonl"]
        want, want_failures = label_dataset(examples, cfg)
        write_label_cache(paths[0], want, HEADER)
        grids = []
        real = oracle._grid_rewards

        def counted(stats, weights):
            grids.append(len(stats.counts))
            return real(stats, weights)

        monkeypatch.setattr(oracle, "_grid_rewards", counted)
        monkeypatch.setattr(oracle, "CHUNK_ENTRIES", entries)
        labeled, failures = label_dataset(examples, cfg)
        write_label_cache(paths[1], labeled, HEADER)
        assert paths[1].read_bytes() == paths[0].read_bytes()
        assert labeled == want and failures == want_failures and len(failures) == 3
        assert sum(grids) == len(labeled) and (entries > 1) == (max(grids) > 1)
        assert len(grids) > len({len(lab.best) for lab in labeled})
        by_id = {ex.document.id: ex for ex in examples}
        for lab in labeled:
            ex = by_id[lab.example_id]
            extract = extract_lead(ex.document, 6)
            rewards = enumerate_rewards(ex, extract, lab.abstractions, reward_fn=lambda s: reward(s, ex.reference))
            best = best_sequence(rewards)
            assert lab.best == best and lab.best_reward == float(rewards[best])
            assert np.array(lab.labels).tobytes() == soft_labels(rewards, best).tobytes()

    def test_batch_records_score_as_reward(self, monkeypatch):
        """One run that mixes l = 1 .. 7, with CHUNK_ENTRIES small enough to
        cut it into batches of one and of several examples: the grid rewards
        of each batch's own record equal `reward` on every realized summary
        of its examples."""
        rng = np.random.default_rng(11)
        vocab = [f"w{i}" for i in range(8)]

        def sentence():
            return " ".join(rng.choice(vocab, size=int(rng.integers(1, 6))))

        examples = [
            make_example([sentence() for _ in range(n)], [sentence() for _ in range(int(rng.integers(1, 3)))], f"b{j}")
            for j, n in enumerate([7, 1, 4, 2, 6, 3, 5, 1, 7, 2, 3])
        ]
        batches = []
        real_stats, real_grid = SplitEntries.stats, oracle._grid_rewards

        def stats(self, part, *args):
            batches.append((list(part), []))
            return real_stats(self, part, *args)

        def grid(record, weights):
            batches[-1][1].append(real_grid(record, weights))
            return batches[-1][1][0]

        monkeypatch.setattr(SplitEntries, "stats", stats)
        monkeypatch.setattr(oracle, "_grid_rewards", grid)
        monkeypatch.setattr(oracle, "CHUNK_ENTRIES", 500)
        labeled, failures = label_dataset(examples, ExperimentConfig(k=7, cap=7))
        assert failures == [] and sorted(k for part, _ in batches for k in part) == list(range(len(examples)))
        assert {len(lab.best) for lab in labeled} == set(range(1, 8))
        assert len(batches) > 7 and max(len(part) for part, _ in batches) > 1
        for part, (rewards,) in batches:
            for k, got in zip(part, rewards):
                ex, lab = examples[k], labeled[k]
                extract = extract_lead(ex.document, 7)
                want = enumerate_rewards(ex, extract, lab.abstractions, reward_fn=lambda s: reward(s, ex.reference))
                assert got.tobytes() == want.tobytes()

    def test_equal_lengths_make_one_grid_pass(self, monkeypatch):
        """40 examples of one extract length are labeled by one stacked grid,
        one `best_sequence` and one `soft_labels` call."""
        rng = np.random.default_rng(10)
        vocab = [f"w{i}" for i in range(12)]

        def sentence():
            return " ".join(rng.choice(vocab, size=int(rng.integers(2, 7))))

        examples = [make_example([sentence() for _ in range(4)], [sentence()], f"e{j}") for j in range(40)]
        calls = []
        for name in ("_grid_rewards", "best_sequence", "soft_labels"):
            real = getattr(oracle, name)

            def counted(first, *args, real=real, name=name):
                # the examples in the call: a statistics record, or rewards
                calls.append((name, len(getattr(first, "counts", first))))
                return real(first, *args)

            monkeypatch.setattr(oracle, name, counted)
        labeled, failures = label_dataset(examples, ExperimentConfig(k=3))
        assert failures == [] and len(labeled) == 40
        assert calls == [("_grid_rewards", 40), ("best_sequence", 40), ("soft_labels", 40)]

    def test_greedy_extracts_one_batch_per_run(self, monkeypatch):
        """With the greedy extractor, a run's extracts come from one
        `extract_greedy_oracle` call, and every label equals the label of its
        example on its own."""
        rng = np.random.default_rng(6)
        vocab = [f"w{i}" for i in range(12)]

        def sentence():
            return " ".join(rng.choice(vocab, size=int(rng.integers(1, 8))))

        examples = [
            make_example([sentence() for _ in range(int(rng.integers(1, 9)))],
                         [sentence() for _ in range(int(rng.integers(1, 4)))], f"g{j}")
            for j in range(9)
        ]
        cfg = ExperimentConfig(extractor="greedy", k=3)
        want = [label_example(ex, cfg) for ex in examples]
        batches = []
        real = summarizers.extract_greedy_oracle

        def counted(batch, k, weights):
            batches.append(len(batch))
            return real(batch, k, weights)

        monkeypatch.setattr(summarizers, "extract_greedy_oracle", counted)
        labeled, failures = label_dataset(examples, cfg)
        assert batches == [len(examples)]
        assert labeled == want and failures == []

    def test_cap_violation_recorded_not_fatal(self):
        ex = make_example(["s t"] * 4, ["s t"], "long")
        labeled, failures = label_dataset([self.EXAMPLES[0], ex], ExperimentConfig(k=4, cap=3))
        assert len(labeled) == 1
        assert len(failures) == 1 and "long" in failures[0]

    def test_a_library_call_prints_its_warning_to_stderr(self, capsys):
        """A failed example is one warning line on stderr, whoever calls
        `label_dataset`: no command has to set up a handler first."""
        ex = make_example(["s t"] * 4, ["s t"], "long")
        label_dataset([self.EXAMPLES[0], ex], ExperimentConfig(k=4, cap=3))
        assert capsys.readouterr() == (
            "", "WARNING sumedit.oracle: labeling failed: long: enumeration cap exceeded (l=4, cap=3)\n"
        )

    def test_incomplete_likelihood_raises(self):
        extract = ExtractResult(order=(0, 1), likelihood=(1.0,))
        with pytest.raises(ValueError, match=r"ex-0: .*no entry for sentence 1"):
            abstract_extract(self.EXAMPLES[0].document, extract, 0.8)

    def test_degenerate_attention_raises_naming_the_example(self):
        # an all-stopword chunk scores 1e-6 per token, and 1e-6 * 5e-324
        # underflows to 0, so the chunk's normalization term is 0
        ex = make_example(["the a", "of it", "cat dog"], ["cat"], "stop")
        extract = ExtractResult(order=(2, 0), likelihood=(5e-324, 5e-324, 1.0))
        with pytest.raises(ValueError) as info:
            abstract_extract(ex.document, extract, 0.8)
        assert str(info.value) == "stop: degenerate attention: normalization term is zero (chunk of extracted sentence 0)"

    def test_cache_write_that_raises_keeps_previous_cache(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        labeled, _ = label_dataset(self.EXAMPLES, ExperimentConfig(k=2))
        write_label_cache(path, labeled, HEADER)
        before = path.read_bytes()
        # the second record is not a LabeledExample: the write fails after
        # the header and the first record
        with pytest.raises(AttributeError):
            write_label_cache(path, [labeled[0], object()], HEADER)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_byte_identical_reruns(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            labeled, _ = label_dataset(self.EXAMPLES, ExperimentConfig(k=2))
            write_label_cache(path, labeled, HEADER)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_composed_labels_match_components(self):
        weights = RewardWeights(0.3, 0.9, 0.6)
        labeled, _ = label_dataset(self.EXAMPLES, ExperimentConfig(k=2, alpha=0.3, beta=0.9, gamma=0.6))
        for ex, lab in zip(self.EXAMPLES, labeled):
            extract = extract_lead(ex.document, 2)
            abstractions = abstract_extract(ex.document, extract, 0.8)
            rewards = enumerate_rewards(ex, extract, abstractions, weights=weights)
            best = best_sequence(rewards)
            assert lab.best == best
            assert np.allclose(np.array(lab.labels), soft_labels(rewards, best), atol=1e-12)


class TestReadLabelCache:
    """`read_label_cache` on its own: one pass over the file, the header
    checked before any record, every refusal naming the file and the
    command that rewrites it."""

    EXAMPLES = TestLabelDataset.EXAMPLES

    @pytest.fixture
    def cache(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        labeled, _ = label_dataset(self.EXAMPLES, ExperimentConfig(k=2))
        write_label_cache(path, labeled, HEADER)
        return path

    def refusal(self, path, header=HEADER):
        with pytest.raises(ValueError) as info:
            read_label_cache(path, header, self.EXAMPLES, "val")
        return str(info.value)

    def test_header_mismatch_is_reported_before_a_later_malformed_record(self, cache):
        lines = cache.read_text().splitlines(keepends=True)
        cache.write_text("".join(lines[:2] + ["{not json\n"] + lines[3:]))
        assert self.refusal(cache, dict(HEADER, cap=11)) == (
            f"{cache}: labeled with cap 12, config has cap 11; rerun sumedit label --split val"
        )
        assert self.refusal(cache).startswith(f"{cache}:3: not valid JSON (")

    @pytest.mark.parametrize("content", ["", "\n  \n"], ids=["empty", "blank-lines"])
    def test_empty_cache_is_refused(self, tmp_path, content):
        path = tmp_path / "labels.jsonl"
        path.write_text(content)
        assert self.refusal(path) == f"{path}: empty label cache; rerun sumedit label --split val"

    def test_record_only_cache_is_refused(self, cache):
        lines = cache.read_text().splitlines(keepends=True)
        cache.write_text("".join(lines[1:]))
        assert self.refusal(cache) == f"{cache}: label cache version None is not supported; rerun sumedit label --split val"

    def test_blank_lines_keep_file_line_numbers(self, cache):
        lines = cache.read_text().splitlines(keepends=True)
        cache.write_text("".join(lines[:2] + ["\n"] + lines[1:2]))
        assert self.refusal(cache) == (
            f"{cache}:4: duplicate id 'ex-0' (first at line 2); rerun sumedit label --split val"
        )
