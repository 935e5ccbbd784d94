import math

import numpy as np
import pytest

from sumedit.rouge import RewardWeights, reward
from sumedit.summarizers import (
    UNSELECTED_LIKELIHOOD,
    AttentionMap,
    abstract_salience,
    extract_greedy_oracle,
    extract_lead,
    make_chunk,
    rescale_attention,
)
from sumedit.text import Example, ReferenceSummary, document_from_strings


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
            result = extract_greedy_oracle(ex, k, w)
            order, likelihood = loop_greedy_oracle(ex, k, w)
            assert result.order == order
            assert result.likelihood == likelihood

    def test_verbatim_match_selected(self):
        ex = make_example(["a b", "c d", "the exact summary", "e f"], ["the exact summary"])
        result = extract_greedy_oracle(ex, 1, RewardWeights())
        assert result.order == (2,)
        assert result.likelihood[2] == 1.0

    def test_tie_prefers_lower_index(self):
        ex = make_example(["same words here", "same words here", "x y"], ["same words here"])
        result = extract_greedy_oracle(ex, 1, RewardWeights())
        assert result.order == (0,)

    def test_first_step_matches_exhaustive_search(self):
        w = RewardWeights()
        ex = make_example(
            ["crash at speedway", "driver lost control", "no injuries reported", "race was sunday"],
            ["driver lost control of car", "crash happened sunday at speedway"],
        )
        result = extract_greedy_oracle(ex, 2, w)
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
        result = extract_greedy_oracle(ex, 4, w)
        assert len(set(result.order)) == len(result.order)
        running = []
        rewards = []
        for i in result.order:
            running.append(ex.document.tokens_at(i))
            rewards.append(reward(running, ex.reference, w))
        assert rewards == sorted(rewards)

    def test_unselected_likelihood_floor(self):
        ex = make_example(["match me", "noise one", "noise two"], ["match me"])
        result = extract_greedy_oracle(ex, 1, RewardWeights())
        for i in range(3):
            assert 0 < result.likelihood[i] <= 1
        assert result.likelihood[1] == pytest.approx(1e-6)


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

    def test_ratio_validated(self):
        with pytest.raises(ValueError):
            abstract_salience(self.chunk(), {0: 1.0, 1: 1.0, 2: 1.0}, 0.0)
