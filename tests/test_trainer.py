import numpy as np
import pytest

from synthetic import make_corpus
from sumedit import trainer as trainer_mod
from sumedit.editor import (
    DECISIONS,
    Decision,
    context_from_abstractions,
    decode,
    forward,
    init_params,
    loss_and_gradients,
    soft_cross_entropy,
)
from sumedit.encoder import EncoderConfig
from sumedit.oracle import label_dataset
from sumedit.rouge import RewardWeights, reward
from sumedit.summarizers import LeadExtractor, SalienceAbstractor
from sumedit.trainer import AdamState, TrainConfig, adam_step, evaluate, train

ENC = EncoderConfig(n=12, hash_seed=7, context_window=1)


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
    for arr in params.arrays().values():
        arr[:] = 0.0
    params.b[:] = bias
    return params


class TestAdamStep:
    def params(self):
        rng = np.random.default_rng(1)
        return init_params(3, 4, rng)

    def test_zero_gradient_is_identity(self):
        params = self.params()
        state = AdamState.fresh(params)
        grads = {k: np.zeros_like(v) for k, v in params.arrays().items()}
        new_params, new_state = adam_step(params, grads, state)
        for name, arr in params.arrays().items():
            assert np.array_equal(new_params.arrays()[name], arr)
        assert new_state.t == 1

    def test_first_step_closed_form(self):
        # unit gradient in one entry: m_hat = v_hat = 1 at t=1, so the
        # update is -lr / (sqrt(1) + eps)
        params = self.params()
        state = AdamState.fresh(params, lr=1e-4)
        grads = {k: np.zeros_like(v) for k, v in params.arrays().items()}
        grads["b_d"][0] = 1.0
        before = params.b_d[0]
        new_params, _ = adam_step(params, grads, state)
        expected = before - 1e-4 / (1.0 + 1e-8)
        assert new_params.b_d[0] == pytest.approx(expected, abs=1e-18)
        assert np.array_equal(new_params.b_c, params.b_c)

    def test_deterministic(self):
        params = self.params()
        state = AdamState.fresh(params)
        rng = np.random.default_rng(2)
        grads = {k: rng.normal(size=v.shape) for k, v in params.arrays().items()}
        out1 = adam_step(params, grads, state)
        out2 = adam_step(params, grads, state)
        for name in params.arrays():
            assert np.array_equal(out1[0].arrays()[name], out2[0].arrays()[name])

    def test_shape_mismatch(self):
        params = self.params()
        grads = {k: np.zeros_like(v) for k, v in params.arrays().items()}
        grads["b"] = np.zeros(4)
        with pytest.raises(ValueError):
            adam_step(params, grads, AdamState.fresh(params))


class TestTrain:
    def test_empty_train_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train([], [], TrainConfig(), zero_forced_params([0, 0, 0]), ENC)

    def test_single_example_single_epoch_one_step(self, monkeypatch):
        calls = []
        real = trainer_mod.adam_step

        def counting(params, grads, state):
            calls.append(1)
            return real(params, grads, state)

        monkeypatch.setattr(trainer_mod, "adam_step", counting)
        pairs = labeled_pairs(1, seed=0)
        rng = np.random.default_rng(0)
        params = init_params(4, ENC.n, rng)
        _, log = train(pairs, pairs, TrainConfig(batch_size=32, epochs=1), params, ENC)
        assert len(calls) == 1
        assert len(log) == 1
        assert set(log[0]) == {"epoch", "train_loss", "val_reward"}

    def test_fixed_seed_reproducible(self):
        pairs = labeled_pairs(12, seed=3)
        val = labeled_pairs(4, seed=4, id_prefix="v")
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(9)
            params = init_params(4, ENC.n, rng)
            outs.append(train(pairs, val, TrainConfig(epochs=2, seed=5), params, ENC))
        best1, log1 = outs[0]
        best2, log2 = outs[1]
        assert log1 == log2
        for name in best1.arrays():
            assert np.array_equal(best1.arrays()[name], best2.arrays()[name])

    def test_teacher_forcing_state_ignores_model_outputs(self):
        # corrupting the logit bias changes every distribution but must not
        # change the teacher-forced decisions or the state trajectory
        pairs = labeled_pairs(1, seed=6)
        ex, lab = pairs[0]
        ctx = context_from_abstractions(ex.document, lab.extract, lab.abstractions, ENC)
        y = np.asarray(lab.labels)
        rng = np.random.default_rng(1)
        params = init_params(4, ENC.n, rng)
        teacher = lambda i, p: DECISIONS[int(np.argmax(y[i]))]
        runs = []
        for corrupt in (0.0, 5.0):
            p = params.copy()
            p.b[:] += np.array([corrupt, 0.0, -corrupt])
            runs.append(forward(ctx, p, teacher))
            # the training loss is the one of this teacher-forced run
            loss, _ = loss_and_gradients(ctx, y, p, teacher_forcing=True)
            assert loss == soft_cross_entropy(runs[-1].p, y)
        clean, corrupted = runs
        assert not np.allclose(clean.p[0], corrupted.p[0])
        assert clean.decisions == corrupted.decisions == [teacher(i, None) for i in range(ctx.l)]
        assert len(clean.g) == len(corrupted.g) == ctx.l + 1
        for a, b in zip(clean.g, corrupted.g):
            assert np.array_equal(a, b)


class TestEvaluate:
    def test_all_extract_matches_baseline(self):
        pairs = labeled_pairs(3, seed=7)
        params = zero_forced_params([0.0, 0.0, 0.0])  # uniform -> tie rule E
        report = evaluate(pairs, params, ENC)
        assert report["decision_fractions"] == {"E": 1.0, "A": 0.0, "R": 0.0}
        w = RewardWeights()
        expected = np.mean(
            [
                reward([ex.document.tokens_at(i) for i in lab.extract.order], ex.reference, w)
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
        for arr in params.arrays().values():
            arr += rng.normal(0, 0.8, size=arr.shape)
        report = evaluate(pairs, params, ENC)
        tally = {d: 0 for d in Decision}
        fracs = []
        for ex, lab in pairs:
            ctx = context_from_abstractions(ex.document, lab.extract, lab.abstractions, ENC)
            summary = decode(ctx, params)
            emitted = abstracted = 0
            for step in summary.steps:
                tally[step.decision] += 1
                if step.tokens is not None:
                    emitted += 1
                    abstracted += step.decision is Decision.ABSTRACT
            if emitted:
                fracs.append(abstracted / emitted)
        total = sum(tally.values())
        assert report["decision_fractions"] == {
            d.label: tally[d] / total for d in Decision
        }
        expected_frac = sum(fracs) / len(fracs) if fracs else 0.0
        assert report["abstracted_emitted_fraction"] == pytest.approx(expected_frac)
        assert sum(report["decision_fractions"].values()) == pytest.approx(1.0, abs=1e-9)
