import math

import numpy as np
import pytest

from sumedit.editor import (
    Decision,
    EditContext,
    EditorParams,
    abstractions_for,
    context_from_abstractions,
    decode,
    forward,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    save_checkpoint,
    soft_cross_entropy,
)
from sumedit.encoder import EncoderConfig
from sumedit.summarizers import ExtractResult, SalienceAbstractor, extract_lead
from sumedit.text import Example, ReferenceSummary, document_from_strings


def zero_params(m, n):
    return EditorParams(
        W_c=np.zeros((m, 4 * n)),
        b_c=np.zeros(m),
        V=np.zeros((3, m)),
        b=np.zeros(3),
        W_g=np.zeros((n, n)),
        W_d=np.zeros((n, n)),
        b_d=np.zeros(n),
    )


def vector_context(e, a, e_bar):
    """EditContext over len(e) one-token sentences with the given vectors."""
    l = len(e)
    return EditContext(
        example_id="d",
        extract=ExtractResult(order=tuple(range(l)), likelihood={i: 1.0 for i in range(l)}),
        e=np.asarray(e, dtype=float),
        a=np.asarray(a, dtype=float),
        e_bar=np.asarray(e_bar, dtype=float),
        extracted_tokens=tuple((f"e{i}",) for i in range(l)),
        abstractions=tuple((f"a{i}",) for i in range(l)),
    )


def step_context(n, rng=None, l=1):
    if rng is None:
        return vector_context(np.zeros((l, n)), np.zeros((l, n)), np.zeros(n))
    return vector_context(rng.normal(size=(l, n)), rng.normal(size=(l, n)), rng.normal(size=n))


def always(*decisions):
    """choose() that takes decisions[i] at step i."""
    return lambda i, p: decisions[i]


def first_distribution(ctx, params):
    return decode(ctx, params).steps[0].distribution


def make_example(sentences, highlights=("placeholder",), doc_id="d"):
    doc = document_from_strings(doc_id, sentences)
    ref = ReferenceSummary(tuple(tuple(h.split()) for h in highlights))
    return Example(document=doc, reference=ref)


class TestStepDistribution:
    def test_zero_parameters_uniform(self):
        p = first_distribution(step_context(4), zero_params(3, 4))
        assert p == pytest.approx(np.full(3, 1 / 3), abs=1e-12)

    def test_bias_only_logits(self):
        params = zero_params(3, 4)
        params.b[:] = [10.0, 0.0, 0.0]
        p = first_distribution(step_context(4), params)
        expected = math.exp(10) / (math.exp(10) + 2)
        assert p[0] == pytest.approx(expected, abs=1e-12)

    def test_matches_dense_recomputation(self):
        rng = np.random.default_rng(5)
        n, m = 4, 3
        params = init_params(m, n, rng)
        params.b_c[:] = rng.normal(size=m)
        params.b[:] = rng.normal(size=3)
        params.b_d[:] = rng.normal(size=n)
        ctx = step_context(n, rng)
        d = [
            math.tanh(sum(params.W_d[r, c] * ctx.e_bar[c] for c in range(n)) + params.b_d[r])
            for r in range(n)
        ]
        x = list(ctx.e[0]) + list(ctx.a[0]) + [0.0] * n + d
        t = [
            math.tanh(sum(params.W_c[r, c] * x[c] for c in range(4 * n)) + params.b_c[r])
            for r in range(m)
        ]
        logits = [
            sum(params.V[r, c] * t[c] for c in range(m)) + params.b[r] for r in range(3)
        ]
        exps = [math.exp(v) for v in logits]
        expected = np.array(exps) / sum(exps)
        assert first_distribution(ctx, params) == pytest.approx(expected, abs=1e-12)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(6)
        params = init_params(3, 4, rng)
        ctx = step_context(4, rng)
        p = first_distribution(ctx, params)
        assert abs(sum(p) - 1.0) < 1e-9
        shifted = EditorParams(**{k: v.copy() for k, v in params.arrays().items()})
        shifted.b += 3.7
        p2 = first_distribution(ctx, shifted)
        assert p == pytest.approx(p2, abs=1e-12)


class TestUpdateState:
    def test_reject_is_identity(self):
        rng = np.random.default_rng(0)
        params = init_params(3, 4, rng)
        params.W_g[:] = rng.normal(size=(4, 4))
        run = forward(step_context(4, rng, l=2), params, always(Decision.EXTRACT, Decision.REJECT))
        assert not np.array_equal(run.g[1], np.zeros(4))
        assert np.array_equal(run.g[2], run.g[1])

    def test_zero_weight_matrix_is_identity(self):
        e = np.array([[0.5, 0.5], [1.0, -2.0]])
        ctx = vector_context(e, e, np.zeros(2))
        run = forward(ctx, zero_params(3, 2), always(Decision.EXTRACT, Decision.EXTRACT))
        for i in range(2):
            assert np.array_equal(run.g[i + 1], run.g[i])

    def test_abstract_with_identity_weights(self):
        a = np.array([0.3, -0.7, 1.2])
        ctx = vector_context([np.ones(3)], [a], np.zeros(3))
        params = zero_params(3, 3)
        params.W_g[:] = np.eye(3)
        run = forward(ctx, params, always(Decision.ABSTRACT))
        assert np.allclose(run.g[1], np.tanh(a), atol=1e-15)


class TestEdit:
    CFG = EncoderConfig(n=12, context_window=1)

    def context(self, sentences):
        ex = make_example(sentences)
        extract = extract_lead(ex.document, len(sentences))
        abstractions = abstractions_for(ex.document, extract, SalienceAbstractor(0.8))
        return ex, extract, context_from_abstractions(ex.document, extract, abstractions, self.CFG)

    def test_zero_params_decides_extract_everywhere(self):
        ex, extract, ctx = self.context(["a b c", "d e f", "g h"])
        summary = decode(ctx, zero_params(4, 12))
        assert [s.decision for s in summary.steps] == [Decision.EXTRACT] * 3
        assert summary.text == tuple(ex.document.tokens_at(i) for i in extract.order)

    def test_reject_bias_empties_summary(self):
        _, _, ctx = self.context(["a b c", "d e f"])
        params = zero_params(4, 12)
        params.b[:] = [-10.0, -10.0, 10.0]
        summary = decode(ctx, params)
        assert [s.decision for s in summary.steps] == [Decision.REJECT] * 2
        assert summary.text == ()

    def test_forced_abstract_then_reject(self):
        _, _, ctx = self.context(["the alpha beta words", "gamma delta e"])
        n = self.CFG.n
        params = zero_params(1, n)
        # hidden layer reads only the summary state; at step 1 the state is
        # zero, so logits reduce to b and A wins; after the A update the
        # state becomes tanh(a_1) and V steers the R logit above b_A
        params.b[:] = [-5.0, 5.0, 0.0]
        params.W_c[0, 2 * n : 3 * n] = 1000.0
        params.W_g[:] = np.eye(n)
        s1 = float(np.sum(np.tanh(ctx.a[0])))
        assert abs(s1) > 1e-6
        params.V[2, 0] = 20.0 * np.sign(s1)
        summary = decode(ctx, params)
        assert [s.decision for s in summary.steps] == [Decision.ABSTRACT, Decision.REJECT]
        assert summary.text == (ctx.abstractions[0],)

    def test_emitted_versions_follow_decisions(self):
        _, _, ctx = self.context(["a b c", "d e f", "g h"])
        rng = np.random.default_rng(2)
        params = init_params(5, 12, rng)
        for arr in params.arrays().values():
            arr += rng.normal(0, 1.0, size=arr.shape)
        summary = decode(ctx, params)
        for i, step in enumerate(summary.steps):
            if step.decision is Decision.EXTRACT:
                assert step.tokens == ctx.extracted_tokens[i]
            elif step.decision is Decision.ABSTRACT:
                assert step.tokens == ctx.abstractions[i]
            else:
                assert step.tokens is None


class TestSoftCrossEntropy:
    def test_one_hot_perfect_prediction(self):
        dist = [np.array([1.0, 0.0, 0.0])]
        assert soft_cross_entropy(dist, [[1.0, 0.0, 0.0]]) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_uniform_is_ln3(self):
        u = np.full(3, 1 / 3)
        for l in (1, 2, 5):
            loss = soft_cross_entropy([u] * l, [u] * l)
            assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(3)
        p = rng.random((2, 3))
        p /= p.sum(axis=1, keepdims=True)
        y = rng.random((2, 3))
        y /= y.sum(axis=1, keepdims=True)
        expected = -sum(
            y[i][k] * math.log(p[i][k]) for i in range(2) for k in range(3)
        ) / 2
        assert soft_cross_entropy(list(p), list(y)) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            soft_cross_entropy([np.full(3, 1 / 3)], [[0.5, 0.5, 0.0], [1, 0, 0]])

    def test_bounded_below_by_label_entropy(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.dirichlet(np.ones(3), size=2)
            y = rng.dirichlet(np.ones(3), size=2)
            loss = soft_cross_entropy(list(p), list(y))
            entropy = -sum(
                y[i][k] * math.log(y[i][k]) for i in range(2) for k in range(3)
            ) / 2
            assert loss >= entropy - 1e-9
        y = rng.dirichlet(np.ones(3), size=2)
        loss = soft_cross_entropy(list(y), list(y))
        entropy = -float(np.sum(y * np.log(y))) / 2
        assert loss == pytest.approx(entropy, abs=1e-9)


class TestGradients:
    CFG = EncoderConfig(n=6, context_window=1)

    def fixture(self, seed=0, l=2):
        rng = np.random.default_rng(seed)
        ex = make_example(["a b c", "d e f", "g h i", "j k"][: l + 1])
        extract = extract_lead(ex.document, l)
        abstractor = SalienceAbstractor(0.7)
        abstractions = abstractions_for(ex.document, extract, abstractor)
        ctx = context_from_abstractions(ex.document, extract, abstractions, self.CFG)
        params = init_params(4, 6, rng)
        for arr in params.arrays().values():
            arr += rng.normal(0, 0.2, size=arr.shape)
        y = rng.dirichlet(np.ones(3), size=l)
        return ctx, y, params

    def test_zero_logit_gradient_at_minimum(self):
        ctx, y, params = self.fixture(l=1)
        # force p == y by solving for the bias with everything else zeroed
        params = zero_params(4, 6)
        params.b[:] = np.log(y[0])
        _, grads = loss_and_gradients(ctx, y, params)
        assert np.allclose(grads["b"], 0.0, atol=1e-12)
        assert np.allclose(grads["V"], 0.0, atol=1e-12)

    def test_finite_difference_single_entry(self):
        ctx, y, params = self.fixture(seed=1, l=1)
        _, grads = loss_and_gradients(ctx, y, params)
        h = 1e-5
        i, j = 1, 2
        params.V[i, j] += h
        up, _ = loss_and_gradients(ctx, y, params)
        params.V[i, j] -= 2 * h
        down, _ = loss_and_gradients(ctx, y, params)
        params.V[i, j] += h
        fd = (up - down) / (2 * h)
        assert abs(fd - grads["V"][i, j]) / max(abs(grads["V"][i, j]), 1e-12) < 1e-4

    def test_state_gradient_zero_when_all_labels_reject(self):
        ctx, _, params = self.fixture(seed=2, l=2)
        y = np.array([[0.1, 0.2, 0.7], [0.0, 0.3, 0.7]])
        _, grads = loss_and_gradients(ctx, y, params, teacher_forcing=True)
        assert np.array_equal(grads["W_g"], np.zeros_like(params.W_g))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        params = init_params(5, 8, rng)
        cfg = EncoderConfig(n=8, hash_seed=3, context_window=2)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(params, cfg, path)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        for name, arr in params.arrays().items():
            assert np.array_equal(loaded.arrays()[name], arr)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)
