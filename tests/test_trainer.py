import importlib.util
import math
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reference import sentence_stats, soft_cross_entropy, teacher_batch
from synthetic import document_from_strings, make_corpus
from sumedit import editor, trainer as trainer_mod
from sumedit.config import ExperimentConfig
from sumedit.editor import (
    ABSTRACT,
    DECISIONS,
    EXTRACT,
    PARAM_NAMES,
    REJECT,
    EditorParams,
    decode,
    forward,
    init_params,
    loss_and_gradients,
)
from sumedit.encoder import EncoderConfig, encode_split
from sumedit.oracle import LabeledExample, label_dataset, realize
from sumedit.rouge import RewardWeights, SplitEntries, reward, rouge_l, rouge_n
from sumedit.summarizers import LeadExtractor, SalienceAbstractor
from sumedit.text import Example, ReferenceSummary
from sumedit.trainer import Stream, adam_step, evaluate, mean_reward, train

ENC = EncoderConfig(n=12, hash_seed=7)

_GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
_spec = importlib.util.spec_from_file_location("perfbench_gen", _GEN)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def train_config(**fields):
    """The config `train` reads: ENC's encoder settings, the default reward
    weights, and `fields` (training-loop settings)."""
    return ExperimentConfig(encoder_n=ENC.n, hash_seed=ENC.hash_seed, **fields)


def labeled_pairs(count, seed, id_prefix="t"):
    examples = make_corpus(count, seed=seed, k=1, id_prefix=id_prefix)
    labeled, failures = label_dataset(
        examples, LeadExtractor(3), SalienceAbstractor(0.95)
    )
    assert not failures
    return list(zip(examples, labeled))


def zero_forced_params(bias):
    rng = np.random.default_rng(0)
    params = init_params(4, ENC.n, rng)
    params.flat[:] = 0.0
    params.b[:] = bias
    return params


def decoded_summary(example, lab, params):
    """The decisions `decode` makes for one labeled example on its own, and
    the summary they realize."""
    vectors = encode_split([example.document], [lab.order], [lab.abstractions], ENC)
    sequence = decode(vectors, params)[0, : len(lab.order)].tolist()
    return sequence, realize(example.document, lab.order, lab.abstractions, sequence)


def reference_adam_step(params, grads, state):
    """Slow reference: the ADAM update one named parameter at a time, with
    the moments kept per name in dicts."""
    t = state["t"] + 1
    new_params, new_m, new_v = {}, {}, {}
    for name, value in params.items():
        g = grads[name]
        m = trainer_mod.BETA1 * state["m"][name] + (1 - trainer_mod.BETA1) * g
        v = trainer_mod.BETA2 * state["v"][name] + (1 - trainer_mod.BETA2) * g * g
        m_hat = m / (1 - trainer_mod.BETA1 ** t)
        v_hat = v / (1 - trainer_mod.BETA2 ** t)
        new_params[name] = value - state["lr"] * m_hat / (np.sqrt(v_hat) + trainer_mod.EPS)
        new_m[name], new_v[name] = m, v
    return new_params, {**state, "m": new_m, "v": new_v, "t": t}


def named(params):
    return {name: getattr(params, name) for name in PARAM_NAMES}


class TestAdamStep:
    def params(self):
        rng = np.random.default_rng(1)
        return init_params(3, 4, rng)

    def moments(self, params):
        return np.zeros_like(params.flat), np.zeros_like(params.flat)

    def test_zero_gradient_is_identity(self):
        params = self.params()
        before = params.flat.copy()
        m, v = self.moments(params)
        adam_step(params, np.zeros_like(params.flat), m, v, 1, 1e-4)
        assert np.array_equal(params.flat, before)
        assert not m.any() and not v.any()

    def test_first_step_closed_form(self):
        # unit gradient in one entry: m_hat = v_hat = 1 at t=1, so the
        # update is -lr / (sqrt(1) + eps)
        params = self.params()
        grad = EditorParams(params.m, params.n)
        grad.b_d[0] = 1.0
        before = params.copy()
        adam_step(params, grad.flat, *self.moments(params), 1, 1e-4)
        expected = before.b_d[0] - 1e-4 / (1.0 + 1e-8)
        assert params.b_d[0] == pytest.approx(expected, abs=1e-18)
        assert np.array_equal(params.b_c, before.b_c)

    def test_updates_in_place(self):
        params = self.params()
        views, flat = named(params), params.flat
        m, v = self.moments(params)
        grad = np.random.default_rng(3).normal(size=flat.shape)
        assert adam_step(params, grad, m, v, 1, 1e-2) is None
        assert params.flat is flat and all(getattr(params, name) is views[name] for name in PARAM_NAMES)
        assert np.array_equal(m, (1 - trainer_mod.BETA1) * grad)
        assert np.array_equal(v, (1 - trainer_mod.BETA2) * grad * grad)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        grad = rng.normal(size=self.params().flat.shape)
        outs = []
        for _ in range(2):
            params = self.params()
            m, v = self.moments(params)
            adam_step(params, grad, m, v, 1, 1e-4)
            outs.append((params.flat, m, v))
        for a, b in zip(*outs):
            assert np.array_equal(a, b)

    def test_shape_mismatch(self):
        params = self.params()
        before = params.flat.copy()
        for size in (1, params.flat.size + 1):
            with pytest.raises(ValueError):
                adam_step(params, np.zeros(size), *self.moments(params), 1, 1e-4)
        assert np.array_equal(params.flat, before)

    @pytest.mark.parametrize("seed", range(5))
    def test_flat_step_equals_per_name_reference(self, seed):
        rng = np.random.default_rng(seed)
        params = init_params(int(rng.integers(1, 6)), int(rng.integers(1, 6)), rng)
        lr = float(rng.uniform(1e-4, 1e-1))
        m, v = self.moments(params)
        want_params = {name: arr.copy() for name, arr in named(params).items()}
        want_state = {
            "m": {name: np.zeros_like(arr) for name, arr in want_params.items()},
            "v": {name: np.zeros_like(arr) for name, arr in want_params.items()},
            "t": 0, "lr": lr,
        }
        for t in range(1, 7):
            grad = EditorParams(params.m, params.n, rng.normal(0, 10.0, size=params.flat.shape))
            adam_step(params, grad.flat, m, v, t, lr)
            want_params, want_state = reference_adam_step(want_params, named(grad), want_state)
            for name in PARAM_NAMES:
                assert np.array_equal(getattr(params, name), want_params[name]), name
                for moment, got in (("m", m), ("v", v)):
                    got = getattr(EditorParams(params.m, params.n, got), name)
                    assert np.array_equal(got, want_state[moment][name]), (moment, name)
        assert want_state["t"] == 6


class TestTrain:
    def test_empty_train_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train([], [], train_config(), zero_forced_params([0, 0, 0]), Stream(0))

    def test_single_example_single_epoch_one_step(self, monkeypatch):
        calls = []
        real = trainer_mod.adam_step

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(trainer_mod, "adam_step", counting)
        pairs = labeled_pairs(1, seed=0)
        rng = Stream(0)
        params = init_params(4, ENC.n, rng)
        _, log = train(pairs, pairs, train_config(batch_size=32, epochs=1), params, rng)
        assert len(calls) == 1
        assert len(log) == 1
        assert set(log[0]) == {"epoch", "train_loss", "val_reward"}

    def test_caller_params_unchanged(self):
        pairs = labeled_pairs(4, seed=2)
        params = init_params(4, ENC.n, np.random.default_rng(0))
        before = params.flat.copy()
        best, _ = train(pairs, pairs, train_config(batch_size=2, epochs=2), params, Stream(1))
        assert np.array_equal(params.flat, before)
        assert not np.array_equal(best.flat, before)

    def test_fixed_seed_reproducible(self):
        pairs = labeled_pairs(12, seed=3)
        val = labeled_pairs(4, seed=4, id_prefix="v")
        outs = []
        for _ in range(2):
            rng = Stream(9)
            params = init_params(4, ENC.n, rng)
            outs.append(train(pairs, val, train_config(epochs=2), params, rng))
        best1, log1 = outs[0]
        best2, log2 = outs[1]
        assert log1 == log2
        assert np.array_equal(best1.flat, best2.flat)

    def test_validation_reward_uses_the_config_weights(self):
        pairs = labeled_pairs(5, seed=14)
        config = train_config(batch_size=2, epochs=1, alpha=0.0, beta=0.0, gamma=1.0)
        rng = Stream(0)
        best, log = train(pairs, pairs, config, init_params(4, ENC.n, rng), rng)
        vectors, entries = trainer_mod._encode(pairs, ENC), trainer_mod._entries(pairs)
        want = mean_reward(vectors, entries, best, RewardWeights(0.0, 0.0, 1.0))
        assert log[0]["val_reward"] == want != mean_reward(vectors, entries, best, RewardWeights())

    def test_empty_validation_split_gives_zero_reward(self):
        pairs = labeled_pairs(5, seed=10)
        params = init_params(4, ENC.n, np.random.default_rng(0))
        best, log = train(pairs, [], train_config(batch_size=2, epochs=2), params, Stream(0))
        assert [entry["val_reward"] for entry in log] == [0.0, 0.0]
        assert np.all(np.isfinite(best.flat))

    def test_non_finite_loss_names_epoch_and_batch(self):
        pairs = labeled_pairs(4, seed=11)
        ex, lab = pairs[2]
        nan_labels = (lab.labels[0], (float("nan"), 0.5, 0.5)) + lab.labels[2:]
        pairs[2] = (ex, LabeledExample(lab.example_id, lab.order, lab.abstractions, nan_labels, lab.best, lab.best_reward))
        params = init_params(4, ENC.n, np.random.default_rng(0))
        config = train_config(batch_size=4, epochs=2)
        with pytest.raises(ValueError, match="epoch 1: non-finite") as info:
            train(pairs, pairs, config, params, Stream(0))
        for example, _ in pairs:
            assert example.document.id in str(info.value)

    def test_teacher_forcing_state_ignores_model_outputs(self):
        # corrupting the logit bias changes every distribution but must not
        # change the teacher-forced decisions or the state trajectory
        pairs = labeled_pairs(1, seed=6)
        ex, lab = pairs[0]
        vectors = encode_split([ex.document], [lab.order], [lab.abstractions], ENC)
        y = np.asarray(lab.labels)
        rng = np.random.default_rng(1)
        params = init_params(4, ENC.n, rng)
        teacher = np.array(lab.best)[:, None]  # training forces the best sequence
        batch = teacher_batch(vectors, teacher, y[:, None])
        runs = []
        for corrupt in (0.0, 5.0):
            p = params.copy()
            p.b[:] += np.array([corrupt, 0.0, -corrupt])
            runs.append(forward(batch, p))
            # the training loss is the one of this teacher-forced run
            loss, _ = loss_and_gradients(batch, p, EditorParams(p.m, p.n))
            assert loss == soft_cross_entropy(runs[-1].p[:, 0], y)
        clean, corrupted = runs
        assert not np.allclose(clean.p[0, 0], corrupted.p[0, 0])
        assert np.array_equal(batch.h[:, 0], forced_versions(vectors.ea[:, 0], lab.best))
        assert clean.g.shape == corrupted.g.shape == (len(y) + 1, 1, ENC.n)
        assert np.array_equal(clean.g, corrupted.g)


def forced_versions(ea, decisions):
    """The version each decision puts into the state, from one extract's
    inputs ea (L, 2n): e on EXTRACT, a on ABSTRACT, zeros on REJECT and past
    the decisions' end."""
    n = ea.shape[1] // 2
    versions = {EXTRACT: ea[:, :n], ABSTRACT: ea[:, n:], REJECT: np.zeros_like(ea[:, :n])}
    h = np.zeros_like(ea[:, :n])
    for i, decision in enumerate(decisions):
        h[i] = versions[decision][i]
    return h


class InOrder:
    """A stream whose shuffles keep the train set's order."""

    def permutation(self, n):
        return np.arange(n)


class TestForcedAlongBest:
    """`oracle.soft_labels` conditions step i's label on the best sequence's
    first i decisions, so training forces the best sequence, not the label
    argmax: on lead extracts of these documents the two differ."""

    def test_training_forces_each_example_along_its_best_sequence(self, monkeypatch):
        examples = gen.long_extract_corpus(0, [5, 6, 7] * 4, "long")
        labeled, failures = label_dataset(examples, LeadExtractor(7), SalienceAbstractor(0.8))
        assert not failures
        differ = [list(np.argmax(lab.labels, axis=1)) != list(lab.best) for lab in labeled]
        assert 0 < sum(differ) < len(differ)
        batches = []
        real = trainer_mod.loss_and_gradients

        def recording(batch, params, grad):
            batches.append(batch)
            return real(batch, params, grad)

        monkeypatch.setattr(trainer_mod, "loss_and_gradients", recording)
        pairs = list(zip(examples, labeled))
        train(pairs, [], train_config(batch_size=len(pairs), epochs=1), init_params(4, ENC.n, Stream(0)), InOrder())
        [batch] = batches  # step-major (L, B): one batch of every example, in order
        assert batch.h.shape == (7, len(pairs), ENC.n)
        along_argmax = 0
        for j, lab in enumerate(labeled):
            assert np.array_equal(batch.h[:, j], forced_versions(batch.ea[:, j], lab.best)), lab.example_id
            argmax = np.argmax(lab.labels, axis=1)
            along_argmax += np.array_equal(batch.h[:, j], forced_versions(batch.ea[:, j], argmax))
        # forcing the label argmax would fail the loop above on these examples
        assert along_argmax < len(labeled)


class TestStream:
    def test_uniform_scales_the_standard_library_draws_in_row_major_order(self):
        draws = random.Random(4)
        want = [-0.5 + (0.25 - -0.5) * draws.random() for _ in range(6)]
        got = Stream(4).uniform(-0.5, 0.25, (2, 3))
        assert got.shape == (2, 3)
        assert got.ravel().tolist() == want

    def test_permutation_is_the_standard_library_shuffle(self):
        order = list(range(9))
        random.Random(4).shuffle(order)
        got = Stream(4).permutation(9)
        assert got.tolist() == order and sorted(order) == list(range(9))
        assert got.dtype == np.intp

    @pytest.mark.parametrize("m, n", [(1, 1), (4, 12), (24, 24)])
    def test_initial_weights_lie_within_the_fan_in_bound_and_biases_are_zero(self, m, n):
        params = init_params(m, n, Stream(3))
        for name in ("W_c", "V", "W_g", "W_d"):
            weights = getattr(params, name)
            assert np.abs(weights).max() <= 1.0 / math.sqrt(weights.shape[1]), name
            assert len(np.unique(weights)) == weights.size, name
        for name in ("b_c", "b", "b_d"):
            assert not getattr(params, name).any(), name

    def test_initial_parameters_are_drawn_in_param_names_order(self):
        stream, want = Stream(5), []
        for shape in ((3, 8), (3, 3), (2, 2), (2, 2)):  # W_c, V, W_g, W_d of m = 3, n = 2
            bound = 1.0 / math.sqrt(shape[1])
            want.append(stream.uniform(-bound, bound, shape))
        params = init_params(3, 2, Stream(5))
        for name, weights in zip(("W_c", "V", "W_g", "W_d"), want):
            assert np.array_equal(getattr(params, name), weights), name


class TestEvaluate:
    def test_all_extract_matches_baseline(self):
        pairs = labeled_pairs(3, seed=7)
        params = zero_forced_params([0.0, 0.0, 0.0])  # uniform -> tie rule E
        report = evaluate(pairs, params, ENC)
        assert report["decision_fractions"] == {"E": 1.0, "A": 0.0, "R": 0.0}
        w = RewardWeights()
        expected = np.mean(
            [
                reward([ex.document.tokens_at(i) for i in lab.order], ex.reference, w)
                for ex, lab in pairs
            ]
        )
        assert report["mean_reward"] == pytest.approx(float(expected))
        assert report["abstracted_emitted_fraction"] == 0.0

    def test_all_reject_zero_rouge(self):
        pairs = labeled_pairs(3, seed=8)
        params = zero_forced_params([-10.0, -10.0, 10.0])
        report = evaluate(pairs, params, ENC)
        assert report["decision_fractions"] == {"E": 0.0, "A": 0.0, "R": 1.0}
        assert report["rouge1"] == report["rouge2"] == report["rougeL"] == 0.0

    def test_fractions_match_hand_tally(self):
        pairs = labeled_pairs(3, seed=9)
        rng = np.random.default_rng(3)
        params = init_params(4, ENC.n, rng)
        params.flat[:] += rng.normal(0, 0.8, size=params.flat.size)
        report = evaluate(pairs, params, ENC)
        tally = {d: 0 for d in range(3)}
        fracs = []
        for ex, lab in pairs:
            sequence, summary = decoded_summary(ex, lab, params)
            for decision in sequence:
                tally[decision] += 1
            emitted = len(summary)
            abstracted = sequence.count(ABSTRACT)
            if emitted:
                fracs.append(abstracted / emitted)
        total = sum(tally.values())
        assert report["decision_fractions"] == {
            DECISIONS[d]: tally[d] / total for d in range(3)
        }
        expected_frac = sum(fracs) / len(fracs) if fracs else 0.0
        assert report["abstracted_emitted_fraction"] == pytest.approx(expected_frac)
        assert sum(report["decision_fractions"].values()) == pytest.approx(1.0, abs=1e-9)


def per_summary_evaluate(test_set, params, encoder_config, weights=RewardWeights()):
    """The slow reference for `evaluate`: `rouge_n`, `rouge_l` and `reward`
    on every decoded summary, added in order."""
    counts = {d: 0 for d in range(3)}
    r1 = r2 = rl = rew = 0.0
    abstracted_fractions = []
    for ex, lab in test_set:
        sequence, text = decoded_summary(ex, lab, params)
        for decision in sequence:
            counts[decision] += 1
        if text:
            abstracted_fractions.append(sequence.count(ABSTRACT) / len(text))
        r1 += rouge_n(text, ex.reference.sentences, 1).f1
        r2 += rouge_n(text, ex.reference.sentences, 2).f1
        rl += rouge_l(text, ex.reference.sentences).f1
        rew += reward(text, ex.reference, weights)
    n = len(test_set)
    total_steps = sum(counts.values())
    frac_total = 0.0
    for frac in abstracted_fractions:
        frac_total += frac
    return {
        "examples": n,
        "rouge1": r1 / n if n else 0.0,
        "rouge2": r2 / n if n else 0.0,
        "rougeL": rl / n if n else 0.0,
        "mean_reward": rew / n if n else 0.0,
        "decision_fractions": {
            DECISIONS[d]: (counts[d] / total_steps if total_steps else 0.0) for d in range(3)
        },
        "abstracted_emitted_fraction": (
            frac_total / len(abstracted_fractions) if abstracted_fractions else 0.0
        ),
    }


# Logit biases that force every decision to E, A or R: |V tanh(.)| <= 2 for
# m = 4 and init_params' V, far below 10.
FORCING = {
    "E": [10.0, -10.0, -10.0],
    "A": [-10.0, 10.0, -10.0],
    "R": [-10.0, -10.0, 10.0],
}


def random_params(seed, forced=None):
    rng = np.random.default_rng(seed)
    params = init_params(4, ENC.n, rng)
    params.flat[:] += rng.normal(0, 0.8, size=params.flat.size)
    if forced is not None:
        params.b[:] = FORCING[forced]
    return params


class TestEvaluateAgainstPerSummaryScoring:
    @pytest.mark.parametrize("forced", [None, "E", "A", "R"])
    def test_report_equals_per_summary_report(self, forced):
        # extracts of 1, 2 and 3 sentences in one split
        pairs = []
        for k in (3, 1, 2):
            examples = make_corpus(4, seed=20 + k, k=1, id_prefix=f"k{k}")
            labeled, _ = label_dataset(examples, LeadExtractor(k), SalienceAbstractor(0.95))
            pairs += zip(examples, labeled)
        weights = RewardWeights(0.3, 0.9, 0.7)
        for seed in range(3):
            params = random_params(seed, forced)
            report = evaluate(pairs, params, ENC, weights)
            assert report == per_summary_evaluate(pairs, params, ENC, weights)
        if forced is None:
            assert sum(v > 0 for v in report["decision_fractions"].values()) > 1

    def test_empty_split(self):
        params = random_params(0)
        assert evaluate([], params, ENC) == per_summary_evaluate([], params, ENC)


class TestScoringReadsEntries:
    def test_train_and_evaluate_build_no_dense_record(self, monkeypatch):
        pairs = labeled_pairs(6, seed=12)
        val = labeled_pairs(5, seed=13, id_prefix="v")

        def refuse(*args, **kwargs):
            raise AssertionError("decoded summaries are scored from the entries, not from a dense record")

        monkeypatch.setattr(SplitEntries, "stats", refuse)
        best, log = train(pairs, val, train_config(batch_size=2, epochs=2), random_params(1), Stream(1))
        assert len(log) == 2 and all(math.isfinite(entry["val_reward"]) for entry in log)
        assert evaluate(val, best, ENC) == per_summary_evaluate(val, best, ENC)


words = st.sampled_from("a b c d e".split())
sentences = st.lists(words, min_size=1, max_size=6).map(tuple)


def scored_pair(example_id, doc, order, abstractions, ref):
    """(Example, LabeledExample) of token-list sentences; labels uniform."""
    example = Example(
        document=document_from_strings(example_id, [" ".join(s) for s in doc]),
        reference=ReferenceSummary(tuple(ref)),
    )
    lab = LabeledExample(
        example_id=example_id,
        order=order,
        abstractions=abstractions,
        labels=((1 / 3, 1 / 3, 1 / 3),) * len(order),
        best=(EXTRACT,) * len(order),
        best_reward=0.0,
    )
    return example, lab


@st.composite
def scored_examples(draw, min_size=1, max_size=5):
    """Labeled pairs with extracts of 1 to 7 sentences; an abstraction is
    its source sentence or any sentence."""
    pairs = []
    for j in range(draw(st.integers(min_size, max_size))):
        doc = draw(st.lists(sentences, min_size=1, max_size=8))
        l = draw(st.integers(1, min(7, len(doc))))
        order = tuple(draw(st.permutations(range(len(doc))))[:l])
        abstractions = tuple(draw(st.one_of(st.just(doc[i]), sentences)) for i in order)
        ref = draw(st.lists(st.lists(words, min_size=1, max_size=12).map(tuple), min_size=1, max_size=3))
        pairs.append(scored_pair(f"h{j}", doc, order, abstractions, ref))
    return pairs


weight_values = st.floats(0.0, 2.0, allow_nan=False)


class TestMeanRewardAgainstReward:
    @settings(max_examples=80, deadline=None)
    @given(
        pairs=scored_examples(),
        weights=st.tuples(weight_values, weight_values, weight_values).filter(lambda w: max(w) > 0),
        seed=st.integers(0, 2**16),
        forced=st.sampled_from([None, None, "E", "A", "R"]),
    )
    # every decision A, and one abstraction equal to its source sentence
    @example(
        pairs=[scored_pair(
            "x", [("a", "b", "c"), ("d", "e"), ("b", "c", "a")], (2, 0, 1),
            (("c", "a"), ("a", "b", "c"), ("e",)), [("a", "b", "c", "d"), ("e", "a")],
        )],
        weights=(0.4, 1.0, 0.5), seed=0, forced="A",
    )
    # both reference sentences match the one summary token: ROUGE-L clamps p
    @example(
        pairs=[scored_pair("y", [("a",)], (0,), (("b",),), [("a",), ("a",)])],
        weights=(0.0, 0.0, 1.0), seed=0, forced="E",
    )
    def test_equals_sequential_sum_of_reward(self, pairs, weights, seed, forced):
        weights = RewardWeights(*weights)
        vectors = trainer_mod._encode(pairs, ENC)
        params = random_params(seed, forced)
        decisions = decode(vectors, params)
        total = 0.0
        for (ex, lab), row in zip(pairs, decisions):
            sequence = row[: len(lab.order)].tolist()
            total += reward(realize(ex.document, lab.order, lab.abstractions, sequence), ex.reference, weights)
        entries = trainer_mod._entries(pairs)
        assert mean_reward(vectors, entries, params, weights) == total / len(pairs)

    def test_split_means_add_in_order(self, monkeypatch):
        # Builtin `sum` compensates float rounding from Python 3.12 on; stand
        # in for it on every Python, so that a mean taken with it fails here.
        monkeypatch.setattr(trainer_mod, "sum", math.fsum, raising=False)
        values = [1.0] + [1e-16] * 10
        running = 0.0
        for v in values:
            running += v
        assert running == 1.0 != math.fsum(values)
        assert trainer_mod._mean(values) == running / len(values)
        assert trainer_mod._mean([]) == 0.0


def reference_totals(decisions, pairs):
    """Slow reference for `trainer._totals`: per example, `sentence_stats`
    of its 2l versions, then `SentenceStats.totals` of the rows its
    decisions choose, with the reference token and bigram totals."""
    totals, ref_tokens, ref_bigrams = [], [], []
    for (ex, lab), row in zip(pairs, decisions.tolist()):
        l = len(lab.order)
        versions = [ex.document.tokens_at(i) for i in lab.order] + list(lab.abstractions)
        stats = sentence_stats(versions, ex.reference)
        rows = [k * l + i for i, k in enumerate(row[:l]) if k != REJECT]
        totals.append(stats.totals(stats.counts[rows].sum(axis=0), stats.lcs[rows].any(axis=0)))
        ref_tokens.append(stats.ref_tokens)
        ref_bigrams.append(stats.ref_bigrams)
    return np.array(totals, dtype=np.int64).reshape(-1, 5), ref_tokens, ref_bigrams


class TestSplitTotalsAgainstPerExampleTotals:
    """`_entries` cuts a split into records of at most DECODE_CHUNK
    examples and `_totals` scores every decoded summary of them at once;
    the integer totals must be those of each example on its own."""

    @settings(max_examples=80, deadline=None)
    @given(
        pairs=scored_examples(min_size=0, max_size=9),
        chunk=st.sampled_from([1, 2, 3, 256]),
        data=st.data(),
    )
    def test_equal_per_example_totals(self, pairs, chunk, data):
        L = max((len(lab.order) for _, lab in pairs), default=0)
        decisions = np.full((len(pairs), L), REJECT, dtype=np.intp)
        for j, (_, lab) in enumerate(pairs):
            l = len(lab.order)
            steps = data.draw(st.sampled_from([[EXTRACT, ABSTRACT, REJECT], [REJECT], [EXTRACT], [ABSTRACT]]))
            decisions[j, :l] = data.draw(st.lists(st.sampled_from(steps), min_size=l, max_size=l))
        lengths = np.array([len(lab.order) for _, lab in pairs], dtype=np.int64)
        with mock.patch.object(editor, "DECODE_CHUNK", chunk):
            records = trainer_mod._entries(pairs)
        assert len(records) == -(-len(pairs) // chunk)
        totals, ref_tokens, ref_bigrams = trainer_mod._totals(decisions, lengths, records)
        want, want_tokens, want_bigrams = reference_totals(decisions, pairs)
        assert totals.dtype == np.int64 and np.array_equal(totals, want)
        assert ref_tokens.tolist() == want_tokens and ref_bigrams.tolist() == want_bigrams

    def test_every_column_clips(self):
        # one sentence three times, and once in the reference
        pairs = [scored_pair("r", [("a", "b")] * 3, (0, 1, 2), (("a", "b"),) * 3, [("a", "b")])]
        decisions = np.array([[EXTRACT, ABSTRACT, EXTRACT]])
        totals, _, _ = trainer_mod._totals(decisions, np.array([3]), trainer_mod._entries(pairs))
        # 6 tokens and 3 bigrams emitted; the reference has 2 and 1
        assert totals.tolist() == [[2, 1, 6, 3, 2]]
        assert np.array_equal(totals, reference_totals(decisions, pairs)[0])

    def test_empty_split(self):
        empty = np.zeros((0, 0), dtype=np.intp)
        totals, ref_tokens, ref_bigrams = trainer_mod._totals(empty, np.zeros(0, np.int64), [])
        assert totals.shape == (0, 5) and ref_tokens.shape == ref_bigrams.shape == (0,)
