import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import greedy_oracle
from synthetic import document_from_strings, make_corpus
from sumedit import summarizers
from sumedit.config import ExperimentConfig
from sumedit.rouge import RewardWeights, reward
from sumedit.editor import abstractions_for
from sumedit.summarizers import (
    UNSELECTED_LIKELIHOOD,
    ExtractResult,
    abstract_extract,
    extract_greedy_oracle,
    extract_lead,
    rescale_attention,
)
from sumedit.text import Example, ReferenceSummary


def greedy(example, k, weights=RewardWeights()):
    """The greedy extract of one example: a one-example batch."""
    return extract_greedy_oracle([example], k, weights)[0]


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
        assert result.likelihood == (1.0, 0.5, pytest.approx(1 / 3))


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
    likelihood = [UNSELECTED_LIKELIHOOD] * len(doc)
    for i, p in zip(selected, p_sel):
        likelihood[i] = float(p)
    return tuple(selected), tuple(likelihood)


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
            result = greedy(ex, k, w)
            order, likelihood = loop_greedy_oracle(ex, k, w)
            assert result.order == order
            assert result.likelihood == likelihood

    def test_verbatim_match_selected(self):
        ex = make_example(["a b", "c d", "the exact summary", "e f"], ["the exact summary"])
        result = greedy(ex, 1, RewardWeights())
        assert result.order == (2,)
        assert result.likelihood[2] == 1.0

    def test_tie_prefers_lower_index(self):
        ex = make_example(["same words here", "same words here", "x y"], ["same words here"])
        result = greedy(ex, 1, RewardWeights())
        assert result.order == (0,)

    def test_first_step_matches_exhaustive_search(self):
        w = RewardWeights()
        ex = make_example(
            ["crash at speedway", "driver lost control", "no injuries reported", "race was sunday"],
            ["driver lost control of car", "crash happened sunday at speedway"],
        )
        result = greedy(ex, 2, w)
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
        result = greedy(ex, 4, w)
        assert len(set(result.order)) == len(result.order)
        running = []
        rewards = []
        for i in result.order:
            running.append(ex.document.tokens_at(i))
            rewards.append(reward(running, ex.reference, w))
        assert rewards == sorted(rewards)

    def test_unselected_likelihood_floor(self):
        ex = make_example(["match me", "noise one", "noise two"], ["match me"])
        result = greedy(ex, 1, RewardWeights())
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
    likelihoods, bit for bit, for every document of a batch."""

    def assert_equals_reference(self, examples, k, weights=RewardWeights()):
        results = extract_greedy_oracle(examples, k, weights)
        assert len(results) == len(examples)
        for ex, result in zip(examples, results):
            order, likelihood = greedy_oracle(ex, k, weights)
            assert result.order == order and result.likelihood == likelihood
            assert all(i < len(ex.document) for i in result.order)  # no padding row
            assert greedy(ex, k, weights) == result
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
        assert results[1].order == (0,) and results[1].likelihood == (1.0,)

    def test_first_step_is_the_only_gain(self):
        examples = [
            make_example(["x y", "a b c", "z"], ["a b c"], "only"),
            make_example(["a", "b", "c"], ["a b c"], "all"),
        ]
        results = self.assert_equals_reference(examples, 3)
        assert results[0].order == (1,)
        assert results[0].likelihood == (UNSELECTED_LIKELIHOOD, 1.0, UNSELECTED_LIKELIHOOD)
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

    def test_extract(self, monkeypatch):
        """`extract` runs the config's greedy extractor as one batch, through
        the module attribute, and the lead one per document."""
        examples = self.mixed_batch()
        weights = RewardWeights(0.2, 1.0, 0.7)
        batches = []
        real = summarizers.extract_greedy_oracle
        monkeypatch.setattr(summarizers, "extract_greedy_oracle",
                            lambda batch, k, w: batches.append(len(batch)) or real(batch, k, w))
        cfg = ExperimentConfig(extractor="greedy", k=3, alpha=0.2, beta=1.0, gamma=0.7)
        assert summarizers.extract(examples, cfg) == [greedy(ex, 3, weights) for ex in examples]
        assert batches[0] == len(examples)
        lead = ExperimentConfig(k=2)
        assert summarizers.extract(examples, lead) == [extract_lead(ex.document, 2) for ex in examples]


class TestMakeChunk:
    """The chunks of the per-chunk reference, which `abstract_extract`
    matches bit for bit (TestAbstractExtractEqualsReference)."""

    def test_interior(self):
        doc = document_from_strings("d", ["a", "b", "c", "d", "e"])
        members, center = reference.make_chunk(doc, 2)
        assert [s.index for s in members] == [1, 2, 3]
        assert center == 1

    def test_first_sentence_two_members(self):
        doc = document_from_strings("d", ["a", "b", "c"])
        members, center = reference.make_chunk(doc, 0)
        assert [s.index for s in members] == [0, 1]
        assert center == 0

    def test_last_sentence_two_members(self):
        doc = document_from_strings("d", ["a", "b", "c"])
        members, center = reference.make_chunk(doc, 2)
        assert [s.index for s in members] == [1, 2]
        assert center == 1

    def test_out_of_range(self):
        doc = document_from_strings("d", ["a"])
        for i in (1, -1):
            with pytest.raises(IndexError):
                reference.make_chunk(doc, i)
            with pytest.raises(IndexError, match=f"sentence index {i} out of range"):
                abstract_extract(doc, ExtractResult(order=(i,), likelihood=(1.0,)), 0.8)


class TestRescaleAttention:
    def test_worked_example(self):
        weights = rescale_attention([0.2, 0.8], [0.5, 1.0])
        assert weights[0] == pytest.approx(1 / 9, abs=1e-12)
        assert weights[1] == pytest.approx(8 / 9, abs=1e-12)

    def test_uniform_single_sentence(self):
        for w in rescale_attention([0.3] * 4, [0.7] * 4):
            assert w == pytest.approx(0.25, abs=1e-12)

    def test_sums_to_one_and_scale_invariant(self):
        rng = np.random.default_rng(0)
        weights = [float(w) for w in rng.random(6)]
        p = [[0.4, 0.9, 0.1][i % 3] for i in range(6)]
        out = rescale_attention(weights, p)
        assert sum(out) == pytest.approx(1.0, abs=1e-12)
        out2 = rescale_attention([7.5 * w for w in weights], p)
        for a, b in zip(out, out2):
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
        assert rescale_attention(weights, [1.0] * 3) == [w / z for w in weights]

    def test_degenerate_errors(self):
        with pytest.raises(ValueError, match="degenerate"):
            rescale_attention([0.0], [1.0])


def one_extract(sentences, likelihood, order=(1,)):
    return document_from_strings("d", sentences), ExtractResult(order=order, likelihood=likelihood)


class TestAbstractSalience:
    SENTENCES = ["alpha beta", "cat dog cat the", "echo"]
    P = (0.5, 1.0, 0.5)

    def test_full_ratio_keeps_center_intact(self):
        assert abstract_extract(*one_extract(self.SENTENCES, self.P), 1.0) == (("cat", "dog", "cat", "the"),)

    def test_single_token_center(self):
        assert abstract_extract(*one_extract(["a b", "word"], (0.5, 1.0)), 0.1) == (("word",),)

    def test_half_ratio_keeps_top_mass_in_order(self):
        # center weights: three equal content scores and one stopword epsilon;
        # half the mass is covered by the first two content tokens
        assert abstract_extract(*one_extract(self.SENTENCES, self.P), 0.5) == (("cat", "dog"),)

    def test_output_is_subsequence_of_center(self):
        doc, extract = one_extract(self.SENTENCES, self.P)
        for ratio in (0.2, 0.5, 0.8, 1.0):
            (tokens,) = abstract_extract(doc, extract, ratio)
            it = iter(doc.tokens_at(1))
            assert all(tok in it for tok in tokens)

    @pytest.mark.parametrize("builtin_sum", [sum, math.fsum, None], ids=["sum", "compensated-sum", "no-sum"])
    def test_sums_add_left_to_right(self, monkeypatch, builtin_sum):
        # this chunk's rescaled weights add to a different Z left to right
        # than compensated, so its weights tell the two apart; without a
        # builtin `sum` at all the abstraction must not change either
        def no_sum(*args):
            raise AssertionError("builtin sum called")

        monkeypatch.setattr(summarizers, "sum", builtin_sum or no_sum, raising=False)
        doc, extract = one_extract(["alpha beta the gamma", "cat dog cat the eel", "echo fox a golf"],
                                   (0.3, 0.9, 0.7))
        scores, p = zip(*((w, extract.likelihood[s]) for s, _, w in reference.content_scores(doc.sentences)))
        scaled = [w * q for w, q in zip(scores, p)]
        z = 0.0
        for w in scaled:
            z += w
        assert z != math.fsum(scaled)
        assert rescale_attention(scores, p) == [w / z for w in scaled]
        assert abstract_extract(doc, extract, 0.5) == (("cat", "dog", "cat"),)
        assert abstract_extract(doc, extract, 0.5) == reference.salience_abstractions(doc, extract, 0.5)

    def test_ratio_validated(self):
        doc, extract = one_extract(self.SENTENCES, self.P, order=(2, 0, 1))
        for ratio in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"ratio must lie in \(0, 1\]"):
                abstract_extract(doc, extract, ratio)

    def test_abstractor_is_abstract_extract(self):
        doc, extract = one_extract(self.SENTENCES, self.P, order=(2, 0, 1))
        want = abstract_extract(doc, extract, 0.5)
        abstractor = ExperimentConfig(abstract_ratio=0.5).make_abstractor()
        assert abstractor(doc, extract) == abstractions_for(doc, extract, abstractor) == want
        assert want == reference.salience_abstractions(doc, extract, 0.5)

    def test_degenerate_attention_names_the_example(self):
        # stopwords score 1e-6, and 1e-6 * 5e-324 underflows to 0, so Z is 0
        doc, extract = one_extract(["the a", "of it", "cat"], (5e-324, 5e-324, 1.0), order=(2, 0))
        with pytest.raises(ValueError) as info:
            abstract_extract(doc, extract, 0.8)
        assert str(info.value) == "d: degenerate attention: normalization term is zero (chunk of extracted sentence 0)"

    def test_missing_likelihood_names_the_example(self):
        # a likelihood shorter than a chunk: the first sentence of the chunk
        # past its end is named
        for likelihood, order, missing in [((0.5, 1.0), (1,), 2), ((0.5,), (2, 1), 1), ((), (0,), 0)]:
            doc, extract = one_extract(self.SENTENCES, likelihood, order=order)
            with pytest.raises(ValueError) as info:
                abstract_extract(doc, extract, 0.8)
            want = f"d: extract likelihood has no entry for sentence {missing} (chunk of extracted sentence {order[0]})"
            assert str(info.value) == want


# mostly stopwords, so chunks tie in weight and some hold only stopwords
WORDS = ["the", "a", "of", "it", "cat", "dog", "cat", "the"]
likelihoods = st.one_of(st.sampled_from([UNSELECTED_LIKELIHOOD, 1.0, 0.5, 5e-324]),
                        st.floats(1e-300, 1.0))
ratios = st.one_of(st.sampled_from([1.0, 5e-324, 1e-9, 0.5]), st.floats(0.0, 1.0, exclude_min=True))


@st.composite
def abstraction_cases(draw):
    """Documents of 1 to 5 sentences over WORDS, an extract of some of their
    sentences in any order, and P(s) per sentence."""
    n = draw(st.integers(1, 5))
    sentences = draw(st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(" ".join),
                              min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    likelihood = tuple(draw(likelihoods) for _ in range(n))
    return document_from_strings("h", sentences), ExtractResult(order=tuple(order), likelihood=likelihood)


class TestAbstractExtractEqualsReference:
    """`abstract_extract` against the per-chunk reference
    (`reference.salience_abstractions`): the same tokens for every
    extracted sentence, and `rescale_attention` the same weights as the
    reference's entry form on every chunk."""

    @settings(max_examples=300, deadline=None)
    @given(case=abstraction_cases(), ratio=ratios)
    def test_equals_per_chunk_reference(self, case, ratio):
        doc, extract = case
        try:
            want = reference.salience_abstractions(doc, extract, ratio)
        except ValueError as exc:
            assert "degenerate attention" in str(exc)
            with pytest.raises(ValueError, match=r"^h: degenerate attention: .* \(chunk of extracted sentence \d\)$"):
                abstract_extract(doc, extract, ratio)
            return
        assert abstract_extract(doc, extract, ratio) == want
        assert all(want)
        for i in extract.order:
            members, _ = reference.make_chunk(doc, i)
            entries = reference.content_scores(members)
            rescaled = reference.rescale_entries(entries, extract.likelihood)
            flat = rescale_attention([w for _, _, w in entries], [extract.likelihood[s] for s, _, _ in entries])
            assert flat == [w for _, _, w in rescaled]

    @pytest.mark.parametrize("ratio", [1.0, 0.95, 0.5, 1e-9])
    def test_synthetic_corpus(self, ratio):
        for ex in make_corpus(300, seed=4, k=2):
            for extract in (extract_lead(ex.document, 4), greedy(ex, 3)):
                want = reference.salience_abstractions(ex.document, extract, ratio)
                assert abstract_extract(ex.document, extract, ratio) == want
