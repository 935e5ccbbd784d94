import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import greedy_oracle
from synthetic import document_from_strings
from sumedit import summarizers
from sumedit.rouge import RewardWeights, reward
from sumedit.summarizers import (
    UNSELECTED_LIKELIHOOD,
    AttentionMap,
    abstract_salience,
    GreedyOracleExtractor,
    LeadExtractor,
    extract_batch,
    extract_greedy_oracle,
    extract_lead,
    make_chunk,
    rescale_attention,
)
from sumedit.text import Example, ReferenceSummary


def make_example(sentences, highlights, doc_id="d"):
    doc = document_from_strings(doc_id, sentences)
    ref = ReferenceSummary(tuple(tuple(h.split()) for h in highlights))
    return Example(document=doc, reference=ref)


class TestExtractLead:
    def test_first_k(self):
        doc = document_from_strings("d", ["a"] * 5)
        assert extract_lead(doc, 3).order == (0, 1, 2)

    def test_truncates_short_documents(self):
        doc = document_from_strings("d", ["a", "b"])
        assert extract_lead(doc, 3).order == (0, 1)

    def test_likelihoods(self):
        doc = document_from_strings("d", ["a", "b", "c"])
        result = extract_lead(doc, 2)
        assert result.likelihood == {0: 1.0, 1: 0.5, 2: pytest.approx(1 / 3)}


def loop_greedy_oracle(example, k, weights):
    """The per-candidate `reward` loop that the statistics-based extractor
    replaced; its selections and likelihoods must match bit for bit."""
    doc, ref = example.document, example.reference
    selected, gains, current = [], [], 0.0
    while len(selected) < min(k, len(doc)):
        best_idx, best_reward = -1, -math.inf
        for i in range(len(doc)):
            if i in selected:
                continue
            cand = [doc.tokens_at(j) for j in selected] + [doc.tokens_at(i)]
            r = reward(cand, ref, weights)
            if r > best_reward:
                best_idx, best_reward = i, r
        if selected and best_reward <= current:
            break
        selected.append(best_idx)
        gains.append(best_reward - current)
        current = best_reward
    g = np.array(gains)
    p_sel = np.exp(g - g.max())
    p_sel /= p_sel.sum()
    likelihood = {i: UNSELECTED_LIKELIHOOD for i in range(len(doc))}
    for i, p in zip(selected, p_sel):
        likelihood[i] = float(p)
    return tuple(selected), likelihood


class TestGreedyOracle:
    def test_matches_reward_loop(self):
        rng = np.random.default_rng(0)
        vocab = [f"w{i}" for i in range(12)]

        def sentence():
            return " ".join(rng.choice(vocab, size=int(rng.integers(1, 9))))

        for _ in range(40):
            sentences = [sentence() for _ in range(int(rng.integers(1, 12)))]
            if len(sentences) > 2:
                sentences[-1] = sentences[0]  # a duplicated sentence
            ex = make_example(sentences, [sentence() for _ in range(int(rng.integers(1, 4)))])
            k = int(rng.integers(1, 6))
            w = RewardWeights(*(float(x) for x in rng.uniform(0.1, 1.0, size=3)))
            result = GreedyOracleExtractor(k, w)(ex)
            order, likelihood = loop_greedy_oracle(ex, k, w)
            assert result.order == order
            assert result.likelihood == likelihood

    def test_verbatim_match_selected(self):
        ex = make_example(["a b", "c d", "the exact summary", "e f"], ["the exact summary"])
        result = GreedyOracleExtractor(1, RewardWeights())(ex)
        assert result.order == (2,)
        assert result.likelihood[2] == 1.0

    def test_tie_prefers_lower_index(self):
        ex = make_example(["same words here", "same words here", "x y"], ["same words here"])
        result = GreedyOracleExtractor(1, RewardWeights())(ex)
        assert result.order == (0,)

    def test_first_step_matches_exhaustive_search(self):
        w = RewardWeights()
        ex = make_example(
            ["crash at speedway", "driver lost control", "no injuries reported", "race was sunday"],
            ["driver lost control of car", "crash happened sunday at speedway"],
        )
        result = GreedyOracleExtractor(2, w)(ex)
        doc = ex.document
        best = max(
            range(len(doc)),
            key=lambda i: (reward([doc.tokens_at(i)], ex.reference, w), -i),
        )
        assert result.order[0] == best
        # the second pick beats every alternative completion of the first
        first = result.order[0]
        scores = {
            j: reward([doc.tokens_at(first), doc.tokens_at(j)], ex.reference, w)
            for j in range(len(doc))
            if j != first
        }
        assert scores[result.order[1]] == max(scores.values())

    def test_no_repeats_and_monotone_reward(self):
        w = RewardWeights()
        ex = make_example(
            ["a b c", "d e f", "a b d", "g h"],
            ["a b c", "d e f"],
        )
        result = GreedyOracleExtractor(4, w)(ex)
        assert len(set(result.order)) == len(result.order)
        running = []
        rewards = []
        for i in result.order:
            running.append(ex.document.tokens_at(i))
            rewards.append(reward(running, ex.reference, w))
        assert rewards == sorted(rewards)

    def test_unselected_likelihood_floor(self):
        ex = make_example(["match me", "noise one", "noise two"], ["match me"])
        result = GreedyOracleExtractor(1, RewardWeights())(ex)
        for i in range(3):
            assert 0 < result.likelihood[i] <= 1
        assert result.likelihood[1] == pytest.approx(1e-6)


doc_sentences = st.lists(st.sampled_from("abcde"), min_size=1, max_size=8).map(" ".join)


@st.composite
def greedy_batches(draw):
    """Documents of 1 to 9 sentences (of different lengths in one batch)
    with references of 1 to 3 sentences, and k from 1 past the longest."""
    examples = []
    for j in range(draw(st.integers(1, 6))):
        sentences = draw(st.lists(doc_sentences, min_size=1, max_size=9))
        highlights = draw(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=10).map(" ".join),
                                   min_size=1, max_size=3))
        examples.append(make_example(sentences, highlights, f"d{j}"))
    return examples, draw(st.integers(1, 11))


LONG = " ".join("abcde"[i % 5] + "abcde"[i % 3] for i in range(70))


class TestGreedyOracleBatch:
    """The whole-batch greedy extractor against the per-document loop over
    `sentence_stats` (tests/reference.py): the same order and the same
    likelihood dict, bit for bit, for every document of a batch."""

    def assert_equals_reference(self, examples, k, weights=RewardWeights()):
        results = extract_greedy_oracle(examples, k, weights)
        assert len(results) == len(examples)
        for ex, result in zip(examples, results):
            order, likelihood = greedy_oracle(ex, k, weights)
            assert result.order == order and result.likelihood == likelihood
            assert all(i < len(ex.document) for i in result.order)  # no padding row
            assert GreedyOracleExtractor(k, weights)(ex) == result
        return results

    @settings(max_examples=80, deadline=None)
    @given(batch=greedy_batches(), weights=st.tuples(*[st.floats(0.1, 2.0)] * 3))
    def test_equals_per_document_reference(self, batch, weights):
        examples, k = batch
        self.assert_equals_reference(examples, k, RewardWeights(*weights))

    def test_repeated_sentences_clip_and_tie(self):
        # every sentence the same: after the first pick every column clips,
        # and the first step's ties go to the lowest index
        examples = [make_example(["a b a"] * 5, ["a b", "b a"], "r"), make_example(["a b", "a b"], ["a b"], "s")]
        results = self.assert_equals_reference(examples, 4)
        assert [r.order for r in results] == [(0,), (0,)]

    def test_k_at_least_the_sentence_count(self):
        examples = [
            make_example(["a b", "c d", "b c"], ["a b c d"], "three"),
            make_example(["c"], ["c d"], "one"),
        ]
        results = self.assert_equals_reference(examples, 9)
        assert results[1].order == (0,) and results[1].likelihood == {0: 1.0}

    def test_first_step_is_the_only_gain(self):
        examples = [
            make_example(["x y", "a b c", "z"], ["a b c"], "only"),
            make_example(["a", "b", "c"], ["a b c"], "all"),
        ]
        results = self.assert_equals_reference(examples, 3)
        assert results[0].order == (1,)
        assert results[0].likelihood == {0: UNSELECTED_LIKELIHOOD, 1: 1.0, 2: UNSELECTED_LIKELIHOOD}
        assert results[1].order == (0, 1, 2)

    def test_long_sentences_and_no_common_token(self):
        examples = [
            make_example([LONG, "zz yy", " ".join(LONG.split()[::-1])], [LONG, "ab ba"], "long"),
            make_example(["p q", "r s"], ["a b"], "none"),
        ]
        results = self.assert_equals_reference(examples, 2)
        # nothing scores: the first step still takes the lowest index
        assert results[1].order == (0,)

    def test_over_covered_column_gives_a_later_candidate_no_clipped_gain(self):
        # "a" is selected three times against one in the reference, so "a c"
        # and "a d" gain only from their other token, and the copy of the
        # first sentence gains nothing
        examples = [make_example(["a a a b", "a a a b", "a c", "a d"], ["a b", "c d"], "over")]
        results = self.assert_equals_reference(examples, 4)
        assert results[0].order == (0, 2, 3)

    def test_candidate_whose_lcs_positions_are_all_matched(self):
        # after "a b c d", "b c" matches only reference positions already matched
        examples = [make_example(["a b c d", "b c", "e f"], ["a b c d e f"], "lcs")]
        results = self.assert_equals_reference(examples, 3)
        assert results[0].order == (0, 2)

    @pytest.mark.parametrize("weights", [(0.0, 1.0, 0.5), (0.4, 0.0, 0.5), (0.4, 1.0, 0.0), (0.0, 0.0, 1.0)],
                             ids=["no-rouge-1", "no-rouge-2", "no-rouge-l", "rouge-l-only"])
    def test_weights_with_a_zero_component(self, weights):
        self.assert_equals_reference(self.mixed_batch(), 4, RewardWeights(*weights))

    def test_one_pass_of_1_and_40_sentence_documents(self):
        # the one-sentence documents stop after their first step while the
        # others go on in the same pass
        rng = np.random.default_rng(3)
        vocab = [f"v{i}" for i in range(12)]

        def sentence():
            return " ".join(rng.choice(vocab, size=int(rng.integers(1, 7))))

        examples = [
            make_example([sentence() for _ in range(n)], [sentence(), sentence()], f"p{j}")
            for j, n in enumerate([1, 40, 1, 40, 1])
        ]
        results = self.assert_equals_reference(examples, 4)
        assert [len(r.order) for r in results[::2]] == [1, 1, 1]

    def test_1_40_and_200_sentence_documents_with_long_references(self):
        # references of more than 64 tokens, so multi-word LCS rows, and
        # documents of very different lengths in one batch
        rng = np.random.default_rng(11)
        vocab = [f"v{i}" for i in range(25)]

        def sentence(lo, hi):
            return " ".join(rng.choice(vocab, size=int(rng.integers(lo, hi))))

        examples = [
            make_example([sentence(1, 12) for _ in range(n)], [sentence(30, 60) for _ in range(3)], f"l{j}")
            for j, n in enumerate([200, 1, 40, 1, 200, 40])
        ]
        assert all(sum(map(len, ex.reference.sentences)) > 64 for ex in examples)
        results = self.assert_equals_reference(examples, 6)
        assert len(results[1].order) == len(results[3].order) == 1

    def test_empty_batch(self):
        assert extract_greedy_oracle([], 3, RewardWeights()) == []

    @staticmethod
    def mixed_batch():
        """Twenty documents of 1 to 40 sentences, in no order of length."""
        rng = np.random.default_rng(8)
        vocab = [f"v{i}" for i in range(15)]

        def sentence():
            return " ".join(rng.choice(vocab, size=int(rng.integers(1, 9))))

        return [
            make_example([sentence() for _ in range(int(rng.integers(1, 41)))],
                         [sentence() for _ in range(int(rng.integers(1, 5)))], f"m{j}")
            for j in range(20)
        ]

    def test_mixed_batch(self):
        self.assert_equals_reference(self.mixed_batch(), 4)

    def test_extract_batch(self, monkeypatch):
        examples = self.mixed_batch()
        greedy = GreedyOracleExtractor(3)
        batches = []
        real = summarizers.extract_greedy_oracle
        monkeypatch.setattr(summarizers, "extract_greedy_oracle",
                            lambda batch, k, w: batches.append(len(batch)) or real(batch, k, w))
        assert extract_batch(greedy, examples) == [greedy(ex) for ex in examples]
        assert batches[0] == len(examples)
        lead = LeadExtractor(2)
        assert extract_batch(lead, examples) == [lead(ex) for ex in examples]


class TestMakeChunk:
    def test_interior(self):
        doc = document_from_strings("d", ["a", "b", "c", "d", "e"])
        chunk = make_chunk(doc, 2)
        assert [s.index for s in chunk.members] == [1, 2, 3]
        assert chunk.center == 1

    def test_first_sentence_two_members(self):
        doc = document_from_strings("d", ["a", "b", "c"])
        chunk = make_chunk(doc, 0)
        assert [s.index for s in chunk.members] == [0, 1]
        assert chunk.center == 0

    def test_last_sentence_two_members(self):
        doc = document_from_strings("d", ["a", "b", "c"])
        chunk = make_chunk(doc, 2)
        assert [s.index for s in chunk.members] == [1, 2]
        assert chunk.center == 1

    def test_out_of_range(self):
        doc = document_from_strings("d", ["a"])
        with pytest.raises(IndexError):
            make_chunk(doc, 1)


class TestRescaleAttention:
    def test_worked_example(self):
        att = AttentionMap(entries=((0, 0, 0.2), (1, 0, 0.8)))
        out = rescale_attention(att, {0: 0.5, 1: 1.0})
        weights = [w for _, _, w in out.entries]
        assert weights[0] == pytest.approx(1 / 9, abs=1e-12)
        assert weights[1] == pytest.approx(8 / 9, abs=1e-12)

    def test_uniform_single_sentence(self):
        att = AttentionMap(entries=tuple((0, i, 0.3) for i in range(4)))
        out = rescale_attention(att, {0: 0.7})
        for _, _, w in out.entries:
            assert w == pytest.approx(0.25, abs=1e-12)

    def test_sums_to_one_and_scale_invariant(self):
        rng = np.random.default_rng(0)
        weights = rng.random(6)
        att = AttentionMap(
            entries=tuple((i % 3, i, float(w)) for i, w in enumerate(weights))
        )
        p = {0: 0.4, 1: 0.9, 2: 0.1}
        out = rescale_attention(att, p)
        assert sum(w for _, _, w in out.entries) == pytest.approx(1.0, abs=1e-12)
        scaled = AttentionMap(
            entries=tuple((s, pos, 7.5 * w) for s, pos, w in att.entries)
        )
        out2 = rescale_attention(scaled, p)
        for (_, _, a), (_, _, b) in zip(out.entries, out2.entries):
            assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("builtin_sum", [sum, math.fsum], ids=["sum", "compensated-sum"])
    def test_normalizer_adds_left_to_right(self, monkeypatch, builtin_sum):
        # 1e16 + 1 rounds back to 1e16, so these weights add to 1e16 left to
        # right and to 1e16 + 2 compensated (builtin `sum` from Python 3.12
        # on, stood in for by math.fsum); Z must be the former on every Python
        monkeypatch.setattr(summarizers, "sum", builtin_sum, raising=False)
        weights = [1e16, 1.0, 1.0]
        z = 0.0
        for w in weights:
            z += w
        assert z != math.fsum(weights)
        att = AttentionMap(entries=tuple((0, i, w) for i, w in enumerate(weights)))
        out = rescale_attention(att, {0: 1.0})
        assert [w for _, _, w in out.entries] == [w / z for w in weights]

    def test_degenerate_errors(self):
        att = AttentionMap(entries=((0, 0, 0.0),))
        with pytest.raises(ValueError, match="degenerate"):
            rescale_attention(att, {0: 1.0})


class TestAbstractSalience:
    def chunk(self):
        doc = document_from_strings("d", ["alpha beta", "cat dog cat the", "echo"])
        return make_chunk(doc, 1)

    def test_full_ratio_keeps_center_intact(self):
        out = abstract_salience(self.chunk(), {0: 0.5, 1: 1.0, 2: 0.5}, 1.0)
        assert out.tokens == ("cat", "dog", "cat", "the")

    def test_single_token_center(self):
        doc = document_from_strings("d", ["a b", "word"])
        chunk = make_chunk(doc, 1)
        out = abstract_salience(chunk, {0: 0.5, 1: 1.0}, 0.1)
        assert out.tokens == ("word",)

    def test_half_ratio_keeps_top_mass_in_order(self):
        # center weights: three equal content scores and one stopword epsilon;
        # half the mass is covered by the first two content tokens
        out = abstract_salience(self.chunk(), {0: 0.5, 1: 1.0, 2: 0.5}, 0.5)
        assert out.tokens == ("cat", "dog")

    def test_output_is_subsequence_of_center(self):
        chunk = self.chunk()
        center = chunk.members[chunk.center].tokens
        for ratio in (0.2, 0.5, 0.8, 1.0):
            out = abstract_salience(chunk, {0: 0.5, 1: 1.0, 2: 0.5}, ratio)
            it = iter(center)
            assert all(tok in it for tok in out.tokens)

    @pytest.mark.parametrize("builtin_sum", [sum, math.fsum, None], ids=["sum", "compensated-sum", "no-sum"])
    def test_sums_add_left_to_right(self, monkeypatch, builtin_sum):
        # this chunk's rescaled weights add to a different Z left to right
        # than compensated, so its attention tells the two apart; without a
        # builtin `sum` at all the abstraction must not change either
        def no_sum(*args):
            raise AssertionError("builtin sum called")

        monkeypatch.setattr(summarizers, "sum", builtin_sum or no_sum, raising=False)
        doc = document_from_strings("d", ["alpha beta the gamma", "cat dog cat the eel", "echo fox a golf"])
        chunk = make_chunk(doc, 1)
        p = {0: 0.3, 1: 0.9, 2: 0.7}
        scaled = [w * p[sent] for sent, _, w in summarizers._content_scores(chunk).entries]
        z = 0.0
        for w in scaled:
            z += w
        assert z != math.fsum(scaled)
        out = abstract_salience(chunk, p, 0.5)
        assert [w for _, _, w in out.attention.entries] == [w / z for w in scaled]
        assert out.tokens == ("cat", "dog", "cat")

    def test_ratio_validated(self):
        with pytest.raises(ValueError):
            abstract_salience(self.chunk(), {0: 1.0, 1: 1.0, 2: 1.0}, 0.0)
