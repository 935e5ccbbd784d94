import math

import numpy as np
import pytest

from reference import soft_cross_entropy
from sumedit import editor
from sumedit.editor import (
    DECISION_INDEX,
    DECISIONS,
    PARAM_NAMES,
    Decision,
    EditorParams,
    abstractions_for,
    context_from_abstractions,
    decode,
    forward,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    mixed_summary,
    save_checkpoint,
)
from sumedit.encoder import EncoderConfig, SplitVectors, encode_split
from sumedit.summarizers import SalienceAbstractor, extract_lead
from sumedit.text import Example, ReferenceSummary, document_from_strings


def zero_params(m, n):
    return EditorParams(m, n)


def padded(examples):
    """SplitVectors of examples given as (e (l, n), a (l, n), e_bar (n,))."""
    L = max(len(e) for e, _, _ in examples)
    pad = lambda rows: np.pad(np.asarray(rows, dtype=float), ((0, L - len(rows)), (0, 0)))
    return SplitVectors(
        e=np.stack([pad(e) for e, _, _ in examples]),
        a=np.stack([pad(a) for _, a, _ in examples]),
        e_bar=np.stack([np.asarray(e_bar, dtype=float) for _, _, e_bar in examples]),
        lengths=np.array([len(e) for e, _, _ in examples]),
    )


def vector_context(e, a, e_bar):
    """One extract of len(e) steps with the given vectors."""
    return padded([(e, a, e_bar)])


def step_example(n, rng=None, l=1):
    if rng is None:
        return np.zeros((l, n)), np.zeros((l, n)), np.zeros(n)
    return rng.normal(size=(l, n)), rng.normal(size=(l, n)), rng.normal(size=n)


def step_context(n, rng=None, l=1):
    return padded([step_example(n, rng, l)])


def always(*decisions):
    """forced decisions for a one-extract batch: decisions[i] at step i."""
    return np.array([[DECISION_INDEX[d]] for d in decisions])


def first_distribution(vectors, params):
    return decode(vectors, params)[1][0, 0]


def perturb(params, rng, scale):
    """Add N(0, scale) noise to every parameter, drawn in PARAM_NAMES order."""
    params.flat[:] += rng.normal(0, scale, size=params.flat.size)


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
        e, a, e_bar = step_example(n, rng)
        d = [
            math.tanh(sum(params.W_d[r, c] * e_bar[c] for c in range(n)) + params.b_d[r])
            for r in range(n)
        ]
        x = list(e[0]) + list(a[0]) + [0.0] * n + d
        t = [
            math.tanh(sum(params.W_c[r, c] * x[c] for c in range(4 * n)) + params.b_c[r])
            for r in range(m)
        ]
        logits = [
            sum(params.V[r, c] * t[c] for c in range(m)) + params.b[r] for r in range(3)
        ]
        exps = [math.exp(v) for v in logits]
        expected = np.array(exps) / sum(exps)
        assert first_distribution(vector_context(e, a, e_bar), params) == pytest.approx(expected, abs=1e-12)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(6)
        params = init_params(3, 4, rng)
        ctx = step_context(4, rng)
        p = first_distribution(ctx, params)
        assert abs(sum(p) - 1.0) < 1e-9
        shifted = params.copy()
        shifted.b[:] += 3.7
        p2 = first_distribution(ctx, shifted)
        assert p == pytest.approx(p2, abs=1e-12)


class TestUpdateState:
    def test_reject_is_identity(self):
        rng = np.random.default_rng(0)
        params = init_params(3, 4, rng)
        params.W_g[:] = rng.normal(size=(4, 4))
        run = forward(step_context(4, rng, l=2), params, always(Decision.EXTRACT, Decision.REJECT))
        assert not np.array_equal(run.g[1, 0], np.zeros(4))
        assert np.array_equal(run.g[2, 0], run.g[1, 0])

    def test_zero_weight_matrix_is_identity(self):
        e = np.array([[0.5, 0.5], [1.0, -2.0]])
        ctx = vector_context(e, e, np.zeros(2))
        run = forward(ctx, zero_params(3, 2), always(Decision.EXTRACT, Decision.EXTRACT))
        for i in range(2):
            assert np.array_equal(run.g[i + 1, 0], run.g[i, 0])

    def test_abstract_with_identity_weights(self):
        a = np.array([0.3, -0.7, 1.2])
        ctx = vector_context([np.ones(3)], [a], np.zeros(3))
        params = zero_params(3, 3)
        params.W_g[:] = np.eye(3)
        run = forward(ctx, params, always(Decision.ABSTRACT))
        assert np.allclose(run.g[1, 0], np.tanh(a), atol=1e-15)


class TestEdit:
    CFG = EncoderConfig(n=12, context_window=1)

    def context(self, sentences):
        ex = make_example(sentences)
        extract = extract_lead(ex.document, len(sentences))
        abstractions = abstractions_for(ex.document, extract, SalienceAbstractor(0.8))
        vectors = context_from_abstractions(ex.document, extract, abstractions, self.CFG)
        return ex, extract, abstractions, vectors

    def summary(self, context, params):
        ex, extract, abstractions, vectors = context
        decisions, _ = decode(vectors, params)
        return mixed_summary(ex.document, extract, abstractions, decisions[0])

    def test_zero_params_decides_extract_everywhere(self):
        context = self.context(["a b c", "d e f", "g h"])
        ex, extract, _, _ = context
        summary = self.summary(context, zero_params(4, 12))
        assert [s.decision for s in summary.steps] == [Decision.EXTRACT] * 3
        assert summary.text == tuple(ex.document.tokens_at(i) for i in extract.order)

    def test_reject_bias_empties_summary(self):
        context = self.context(["a b c", "d e f"])
        params = zero_params(4, 12)
        params.b[:] = [-10.0, -10.0, 10.0]
        summary = self.summary(context, params)
        assert [s.decision for s in summary.steps] == [Decision.REJECT] * 2
        assert summary.text == ()

    def test_forced_abstract_then_reject(self):
        context = self.context(["the alpha beta words", "gamma delta e"])
        _, _, abstractions, vectors = context
        n = self.CFG.n
        params = zero_params(1, n)
        # hidden layer reads only the summary state; at step 1 the state is
        # zero, so logits reduce to b and A wins; after the A update the
        # state becomes tanh(a_1) and V steers the R logit above b_A
        params.b[:] = [-5.0, 5.0, 0.0]
        params.W_c[0, 2 * n : 3 * n] = 1000.0
        params.W_g[:] = np.eye(n)
        s1 = float(np.sum(np.tanh(vectors.a[0, 0])))
        assert abs(s1) > 1e-6
        params.V[2, 0] = 20.0 * np.sign(s1)
        summary = self.summary(context, params)
        assert [s.decision for s in summary.steps] == [Decision.ABSTRACT, Decision.REJECT]
        assert summary.text == (abstractions[0],)

    def test_emitted_versions_follow_decisions(self):
        context = self.context(["a b c", "d e f", "g h"])
        ex, extract, abstractions, _ = context
        rng = np.random.default_rng(2)
        params = init_params(5, 12, rng)
        perturb(params, rng, 1.0)
        summary = self.summary(context, params)
        for i, step in enumerate(summary.steps):
            assert step.sentence_index == extract.order[i]
            if step.decision is Decision.EXTRACT:
                assert step.tokens == ex.document.tokens_at(extract.order[i])
            elif step.decision is Decision.ABSTRACT:
                assert step.tokens == abstractions[i]
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
        vectors = context_from_abstractions(ex.document, extract, abstractions, self.CFG)
        params = init_params(4, 6, rng)
        perturb(params, rng, 0.2)
        y = rng.dirichlet(np.ones(3), size=l)
        return vectors, y[None], params

    def test_zero_logit_gradient_at_minimum(self):
        vectors, y, params = self.fixture(l=1)
        # force p == y by solving for the bias with everything else zeroed
        params = zero_params(4, 6)
        params.b[:] = np.log(y[0, 0])
        _, grads = loss_and_gradients(vectors, y, params)
        assert np.allclose(grads.b, 0.0, atol=1e-12)
        assert np.allclose(grads.V, 0.0, atol=1e-12)

    def test_finite_difference_single_entry(self):
        vectors, y, params = self.fixture(seed=1, l=1)
        _, grads = loss_and_gradients(vectors, y, params)
        h = 1e-5
        i, j = 1, 2
        params.V[i, j] += h
        up, _ = loss_and_gradients(vectors, y, params)
        params.V[i, j] -= 2 * h
        down, _ = loss_and_gradients(vectors, y, params)
        params.V[i, j] += h
        fd = (up - down) / (2 * h)
        assert abs(fd - grads.V[i, j]) / max(abs(grads.V[i, j]), 1e-12) < 1e-4

    def test_state_gradient_zero_when_all_labels_reject(self):
        vectors, _, params = self.fixture(seed=2, l=2)
        y = np.array([[[0.1, 0.2, 0.7], [0.0, 0.3, 0.7]]])
        _, grads = loss_and_gradients(vectors, y, params, teacher_forcing=True)
        assert np.array_equal(grads.W_g, np.zeros_like(params.W_g))


def reference_forward(example, params, choose):
    """Slow reference: the recurrence over one extract (e, a, e_bar), one
    step at a time. choose(i, p) names the decision taken at step i."""
    e, a, e_bar = example
    d = np.tanh(params.W_d @ e_bar + params.b_d)
    g = np.zeros(params.n)
    xs, ts, ps, decisions, hs, qs = [], [], [], [], [], []
    for i in range(len(e)):
        x = np.concatenate([e[i], a[i], g, d])
        t = np.tanh(params.W_c @ x + params.b_c)
        logits = params.V @ t + params.b
        shifted = np.exp(logits - logits.max())
        p = shifted / shifted.sum()
        decision = choose(i, p)
        if decision is Decision.REJECT:
            h = q = None
        else:
            h = e[i] if decision is Decision.EXTRACT else a[i]
            q = np.tanh(params.W_g @ h)
            g = g + q
        xs.append(x); ts.append(t); ps.append(p)
        decisions.append(decision); hs.append(h); qs.append(q)
    return d, xs, ts, ps, decisions, hs, qs


def reference_decisions(example, params):
    """Slow reference of a free-running decode: argmax p, ties E > A > R."""
    return reference_forward(example, params, lambda i, p: DECISIONS[int(np.argmax(p))])[4]


def reference_loss_and_gradients(example, labels, params, teacher_forcing):
    """Slow reference: one example's loss and gradients, backpropagated one
    step at a time with outer products."""
    labels = np.asarray(labels, dtype=float)
    l, n = len(labels), params.n
    if teacher_forcing:
        choose = lambda i, p: DECISIONS[int(np.argmax(labels[i]))]
    else:
        choose = lambda i, p: DECISIONS[int(np.argmax(p))]
    d, xs, ts, ps, _, hs, qs = reference_forward(example, params, choose)
    loss = -sum(
        float(np.dot(y, np.log(np.maximum(p, 1e-12)))) for p, y in zip(ps, labels)
    ) / l
    grads = {name: np.zeros_like(getattr(params, name)) for name in PARAM_NAMES}
    G = np.zeros(n)
    dd = np.zeros(n)
    for i in reversed(range(l)):
        if qs[i] is not None:
            grads["W_g"] += np.outer(G * (1 - qs[i] ** 2), hs[i])
        du = (ps[i] - labels[i]) / l
        grads["V"] += np.outer(du, ts[i])
        grads["b"] += du
        dz = (params.V.T @ du) * (1 - ts[i] ** 2)
        grads["W_c"] += np.outer(dz, xs[i])
        grads["b_c"] += dz
        dx = params.W_c.T @ dz
        G = G + dx[2 * n : 3 * n]
        dd += dx[3 * n : 4 * n]
    dzd = dd * (1 - d**2)
    grads["W_d"] += np.outer(dzd, example[2])
    grads["b_d"] += dzd
    return loss, grads


def padded_labels(labels):
    """(B, L, 3) soft labels of per-example (l, 3) arrays, zero-padded."""
    L = max(len(y) for y in labels)
    return np.stack([np.pad(y, ((0, L - len(y)), (0, 0))) for y in labels])


class TestBatchedAgainstReference:
    LENGTHS = (3, 1, 5, 2, 4, 5, 1, 2)

    def batch(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(3, 8)), int(rng.integers(2, 7))
        examples = [step_example(n, rng, l=l) for l in self.LENGTHS]
        labels = [rng.dirichlet(np.ones(3), size=l) for l in self.LENGTHS]
        params = init_params(m, n, rng)
        perturb(params, rng, 0.5)
        return examples, labels, params

    @pytest.mark.parametrize("teacher_forcing", [True, False])
    def test_loss_and_gradients_equal_per_example_sums(self, teacher_forcing):
        for seed in range(10):
            examples, labels, params = self.batch(seed)
            loss, grads = loss_and_gradients(padded(examples), padded_labels(labels), params, teacher_forcing)
            want_loss = 0.0
            want = {name: np.zeros_like(getattr(params, name)) for name in PARAM_NAMES}
            for example, y in zip(examples, labels):
                one_loss, one = reference_loss_and_gradients(example, y, params, teacher_forcing)
                want_loss += one_loss
                for name in want:
                    want[name] += one[name]
            assert abs(loss - want_loss) <= 1e-12 * abs(want_loss), seed
            for name in want:
                scale = np.max(np.abs(want[name]))
                assert np.max(np.abs(getattr(grads, name) - want[name])) <= 1e-12 * scale, (seed, name)

    @pytest.mark.parametrize("teacher_forcing", [True, False])
    def test_equal_length_batch_loss_is_the_in_order_sum(self, teacher_forcing):
        # one example, or several of one length: the batch loss is each
        # example's `soft_cross_entropy` exactly, added in batch order
        rng = np.random.default_rng(5)
        params = init_params(5, 4, rng)
        perturb(params, rng, 0.5)
        for l in range(1, 13):
            for B in (1, 13):
                vectors = padded([step_example(4, rng, l=l) for _ in range(B)])
                labels = np.stack([rng.dirichlet(np.ones(3), size=l) for _ in range(B)])
                forced = labels.argmax(axis=2).T
                run = forward(vectors, params, forced if teacher_forcing else None)
                want = 0.0
                for j, y in enumerate(labels):
                    want += soft_cross_entropy(run.p[:, j], y)
                loss, _ = loss_and_gradients(vectors, labels, params, teacher_forcing)
                assert loss == want, (l, B)

    def test_decode_decisions_equal_per_example(self):
        for seed in range(10):
            examples, _, params = self.batch(seed)
            decisions, p = decode(padded(examples), params)
            assert decisions.shape == (len(examples), max(self.LENGTHS))
            assert p.shape == decisions.shape + (3,)
            for j, example in enumerate(examples):
                l = len(example[0])
                assert [DECISIONS[k] for k in decisions[j, :l]] == reference_decisions(example, params)
                assert (decisions[j, l:] == DECISION_INDEX[Decision.REJECT]).all()
                assert not p[j, l:].any()

    def test_padded_steps_leave_state_and_gradients_alone(self):
        # steps past an extract's end take REJECT and keep the state, and a
        # batch's gradient is the sum of its parts' gradients
        examples, labels, params = self.batch(3)
        vectors, y = padded(examples), padded_labels(labels)
        run = forward(vectors, params)
        for j, l in enumerate(self.LENGTHS):
            for i in range(l, max(self.LENGTHS)):
                assert run.decisions[i, j] == DECISION_INDEX[Decision.REJECT]
                assert np.array_equal(run.g[i + 1, j], run.g[i, j])
        _, whole = loss_and_gradients(vectors, y, params)
        parts = []
        for index in (np.arange(3), np.arange(3, len(examples))):
            part = vectors.take(index)
            parts.append(loss_and_gradients(part, y[index, : part.e.shape[1]], params)[1])
        assert np.allclose(whole.flat, parts[0].flat + parts[1].flat, rtol=1e-12, atol=1e-15)

    def test_empty_decode(self):
        vectors = encode_split([], [], [], EncoderConfig(n=4))
        decisions, p = decode(vectors, zero_params(3, 4))
        assert decisions.shape == (0, 0) and p.shape == (0, 0, 3)

    def test_decode_runs_in_passes_of_at_most_decode_chunk(self, monkeypatch):
        examples, _, params = self.batch(4)
        vectors = padded(examples)
        whole = decode(vectors, params)
        widths = []

        def counted_forward(chunk, params):
            widths.append(len(chunk.lengths))
            return forward(chunk, params)

        monkeypatch.setattr(editor, "DECODE_CHUNK", 3)
        monkeypatch.setattr(editor, "forward", counted_forward)
        chunked = decode(vectors, params)
        assert widths == [3, 3, 2]
        assert np.array_equal(chunked[0], whole[0])
        assert np.allclose(chunked[1], whole[1], rtol=1e-12, atol=0)


class TestParams:
    def test_names_are_views_of_the_flat_vector_in_order(self):
        params = init_params(3, 2, np.random.default_rng(0))
        assert np.array_equal(
            params.flat, np.concatenate([getattr(params, name).ravel() for name in PARAM_NAMES])
        )
        # writes through a name land in the flat vector, and back
        params.W_d[1, 0] = 5.0
        params.flat[-1] = 7.0
        before = sum(getattr(params, name).size for name in PARAM_NAMES[: PARAM_NAMES.index("W_d")])
        assert params.flat[before + 1 * params.n + 0] == 5.0
        assert params.b_d[-1] == 7.0

    def test_names_cannot_be_rebound(self):
        params = init_params(3, 2, np.random.default_rng(0))
        with pytest.raises(AttributeError):
            params.b = np.zeros(3)

    def test_flat_vector_of_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            EditorParams(3, 2, np.zeros(5))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        params = init_params(5, 8, rng)
        cfg = EncoderConfig(n=8, hash_seed=3, context_window=2)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(params, cfg, path)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        for name in PARAM_NAMES:
            assert np.array_equal(getattr(loaded, name), getattr(params, name))

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)
