import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reference import (
    soft_cross_entropy,
    stepwise_forward,
    teacher_batch,
    vectors_forward,
    vectors_loss_and_gradients,
)
from synthetic import document_from_strings
from sumedit import editor
from sumedit.editor import (
    ABSTRACT,
    EXTRACT,
    PARAM_NAMES,
    REJECT,
    EditorParams,
    ForwardPass,
    forced_batch,
    abstractions_for,
    context_from_abstractions,
    decode,
    forward,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    save_checkpoint,
)
from sumedit.encoder import EncoderConfig, SplitVectors, encode_split
from sumedit.oracle import realize
from sumedit.summarizers import SalienceAbstractor, extract_lead
from sumedit.text import Example, ReferenceSummary


def zero_params(m, n):
    return EditorParams(m, n)


def padded(examples):
    """SplitVectors of examples given as (e (l, n), a (l, n), e_bar (n,))."""
    L = max(len(e) for e, _, _ in examples)
    pad = lambda rows: np.pad(np.asarray(rows, dtype=float), ((0, L - len(rows)), (0, 0)))
    return SplitVectors(
        ea=np.stack([np.concatenate([pad(e), pad(a)], axis=1) for e, a, _ in examples], axis=1),
        e_bar=np.stack([np.asarray(e_bar, dtype=float) for _, _, e_bar in examples]),
        lengths=np.array([len(e) for e, _, _ in examples]),
    )


def forced(vectors, params, decisions):
    """`forward` along decisions (L, B)."""
    return forward(teacher_batch(vectors, decisions), params)


def batch_loss(vectors, labels, decisions, params):
    """`loss_and_gradients` of labels (B, L, 3) along decisions (B, L)."""
    batch = teacher_batch(vectors, decisions.T, labels.transpose(1, 0, 2))
    return loss_and_gradients(batch, params, EditorParams(params.m, params.n))


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
    return np.array([[d] for d in decisions])


def first_distribution(vectors, params):
    return forced(vectors, params, decode(vectors, params).T).p[0, 0]


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
        run = forced(step_context(4, rng, l=2), params, always(EXTRACT, REJECT))
        assert not np.array_equal(run.g[1, 0], np.zeros(4))
        assert np.array_equal(run.g[2, 0], run.g[1, 0])

    def test_zero_weight_matrix_is_identity(self):
        e = np.array([[0.5, 0.5], [1.0, -2.0]])
        ctx = vector_context(e, e, np.zeros(2))
        run = forced(ctx, zero_params(3, 2), always(EXTRACT, EXTRACT))
        for i in range(2):
            assert np.array_equal(run.g[i + 1, 0], run.g[i, 0])

    def test_abstract_with_identity_weights(self):
        a = np.array([0.3, -0.7, 1.2])
        ctx = vector_context([np.ones(3)], [a], np.zeros(3))
        params = zero_params(3, 3)
        params.W_g[:] = np.eye(3)
        run = forced(ctx, params, always(ABSTRACT))
        assert np.allclose(run.g[1, 0], np.tanh(a), atol=1e-15)


class TestEdit:
    CFG = EncoderConfig(n=12)

    def context(self, sentences):
        ex = make_example(sentences)
        extract = extract_lead(ex.document, len(sentences))
        abstractions = abstractions_for(ex.document, extract, SalienceAbstractor(0.8))
        vectors = context_from_abstractions(ex.document, extract, abstractions, self.CFG)
        return ex, extract, abstractions, vectors

    def summary(self, context, params):
        """The decoded decisions of the one extract and the text they realize."""
        ex, extract, abstractions, vectors = context
        sequence = decode(vectors, params)[0, : len(extract.order)].tolist()
        return sequence, realize(ex.document, extract.order, abstractions, sequence)

    def test_zero_params_decides_extract_everywhere(self):
        context = self.context(["a b c", "d e f", "g h"])
        ex, extract, _, _ = context
        sequence, summary = self.summary(context, zero_params(4, 12))
        assert sequence == [EXTRACT] * 3
        assert summary == tuple(ex.document.tokens_at(i) for i in extract.order)

    def test_reject_bias_empties_summary(self):
        context = self.context(["a b c", "d e f"])
        params = zero_params(4, 12)
        params.b[:] = [-10.0, -10.0, 10.0]
        sequence, summary = self.summary(context, params)
        assert sequence == [REJECT] * 2
        assert summary == ()

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
        s1 = float(np.sum(np.tanh(vectors.ea[0, 0, n:])))
        assert abs(s1) > 1e-6
        params.V[2, 0] = 20.0 * np.sign(s1)
        sequence, summary = self.summary(context, params)
        assert sequence == [ABSTRACT, REJECT]
        assert summary == (abstractions[0],)

    def test_emitted_versions_follow_decisions(self):
        context = self.context(["a b c", "d e f", "g h"])
        ex, extract, abstractions, _ = context
        rng = np.random.default_rng(2)
        params = init_params(5, 12, rng)
        perturb(params, rng, 1.0)
        sequence, summary = self.summary(context, params)
        assert len(sequence) == len(extract.order)
        extracted = [ex.document.tokens_at(i) for i in extract.order]
        versions = {EXTRACT: extracted, ABSTRACT: abstractions}
        emitted = [versions[d][i] for i, d in enumerate(sequence) if d != REJECT]
        assert summary == tuple(emitted)


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
    CFG = EncoderConfig(n=6)

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
        _, grads = batch_loss(vectors, y, y.argmax(axis=2), params)
        assert np.allclose(grads.b, 0.0, atol=1e-12)
        assert np.allclose(grads.V, 0.0, atol=1e-12)

    def test_finite_difference_single_entry(self):
        vectors, y, params = self.fixture(seed=1, l=1)
        forced = y.argmax(axis=2)
        _, grads = batch_loss(vectors, y, forced, params)
        h = 1e-5
        i, j = 1, 2
        params.V[i, j] += h
        up, _ = batch_loss(vectors, y, forced, params)
        params.V[i, j] -= 2 * h
        down, _ = batch_loss(vectors, y, forced, params)
        params.V[i, j] += h
        fd = (up - down) / (2 * h)
        assert abs(fd - grads.V[i, j]) / max(abs(grads.V[i, j]), 1e-12) < 1e-4

    def test_state_gradient_zero_when_all_labels_reject(self):
        vectors, _, params = self.fixture(seed=2, l=2)
        y = np.array([[[0.1, 0.2, 0.7], [0.0, 0.3, 0.7]]])
        _, grads = batch_loss(vectors, y, np.full((1, 2), REJECT), params)
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
        if decision == REJECT:
            h = q = None
        else:
            h = e[i] if decision == EXTRACT else a[i]
            q = np.tanh(params.W_g @ h)
            g = g + q
        xs.append(x); ts.append(t); ps.append(p)
        decisions.append(decision); hs.append(h); qs.append(q)
    return d, xs, ts, ps, decisions, hs, qs


def reference_decisions(example, params):
    """Slow reference of a free-running decode: argmax p, ties E > A > R."""
    return reference_forward(example, params, lambda i, p: int(np.argmax(p)))[4]


def reference_loss_and_gradients(example, labels, decisions, params):
    """Slow reference: one example's loss and gradients, teacher-forced by
    its decisions, backpropagated one step at a time with outer products."""
    labels = np.asarray(labels, dtype=float)
    l, n = len(labels), params.n
    d, xs, ts, ps, _, hs, qs = reference_forward(example, params, lambda i, p: int(decisions[i]))
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

    def test_loss_and_gradients_equal_per_example_sums(self):
        # forced along decisions drawn apart from the labels
        for seed in range(10):
            examples, labels, params = self.batch(seed)
            rng = np.random.default_rng([seed, 1])
            decisions = [rng.integers(3, size=l) for l in self.LENGTHS]
            forced = np.stack([np.pad(row, (0, max(self.LENGTHS) - len(row)), constant_values=REJECT)
                               for row in decisions])
            loss, grads = batch_loss(padded(examples), padded_labels(labels), forced, params)
            want_loss = 0.0
            want = {name: np.zeros_like(getattr(params, name)) for name in PARAM_NAMES}
            for example, y, row in zip(examples, labels, decisions):
                one_loss, one = reference_loss_and_gradients(example, y, row, params)
                want_loss += one_loss
                for name in want:
                    want[name] += one[name]
            assert abs(loss - want_loss) <= 1e-12 * abs(want_loss), seed
            for name in want:
                scale = np.max(np.abs(want[name]))
                assert np.max(np.abs(getattr(grads, name) - want[name])) <= 1e-12 * scale, (seed, name)

    def test_equal_length_batch_loss_is_the_in_order_sum(self):
        # one example, or several of one length: the batch loss is each
        # example's `soft_cross_entropy` exactly, added in batch order
        rng = np.random.default_rng(5)
        params = init_params(5, 4, rng)
        perturb(params, rng, 0.5)
        for l in range(1, 13):
            for B in (1, 13):
                vectors = padded([step_example(4, rng, l=l) for _ in range(B)])
                labels = np.stack([rng.dirichlet(np.ones(3), size=l) for _ in range(B)])
                run = forced(vectors, params, labels.argmax(axis=2).T)
                want = 0.0
                for j, y in enumerate(labels):
                    want += soft_cross_entropy(run.p[:, j], y)
                loss, _ = batch_loss(vectors, labels, labels.argmax(axis=2), params)
                assert loss == want, (l, B)

    def test_decode_decisions_equal_per_example(self):
        for seed in range(10):
            examples, _, params = self.batch(seed)
            decisions = decode(padded(examples), params)
            assert decisions.shape == (len(examples), max(self.LENGTHS))
            for j, example in enumerate(examples):
                l = len(example[0])
                assert decisions[j, :l].tolist() == reference_decisions(example, params)
                assert (decisions[j, l:] == REJECT).all()

    def test_padded_steps_leave_state_and_gradients_alone(self):
        # steps past an extract's end take REJECT and keep the state, and a
        # batch's gradient is the sum of its parts' gradients
        examples, labels, params = self.batch(3)
        vectors, y = padded(examples), padded_labels(labels)
        batch = teacher_batch(vectors, decode(vectors, params).T)
        run = forward(batch, params)
        for j, l in enumerate(self.LENGTHS):
            for i in range(l, max(self.LENGTHS)):
                assert not batch.mask[i, j] and not batch.h[i, j].any()
                assert np.array_equal(run.g[i + 1, j], run.g[i, j])
        split = forced_batch(vectors, y.argmax(axis=2).T, y.transpose(1, 0, 2))
        _, whole = loss_and_gradients(split, params, EditorParams(params.m, params.n))
        parts = [loss_and_gradients(split.take(index), params, EditorParams(params.m, params.n))[1]
                 for index in (np.arange(3), np.arange(3, len(examples)))]
        assert np.allclose(whole.flat, parts[0].flat + parts[1].flat, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "shape",
        [dict(decisions=(2, 3)), dict(labels=(5, 3, 3)), dict(labels=(5, 3, 2)), dict(extracts=0)],
        ids=["decisions-batch-major", "labels-too-long", "labels-two-wide", "no-extract"],
    )
    def test_forced_batch_refuses_arrays_that_do_not_fit_the_split(self, shape):
        examples = [step_example(4, np.random.default_rng(0), l=l) for l in (2, 3, 1)][: shape.get("extracts", 3)]
        vectors = padded(examples) if examples else encode_split([], [], [], EncoderConfig(n=4))
        L, N = vectors.ea.shape[:2]
        decisions = np.zeros(shape.get("decisions", (L, N)), dtype=np.intp)
        labels = np.zeros(shape.get("labels", (L, N, 3)))
        with pytest.raises(ValueError, match="^need L decisions and an"):
            forced_batch(vectors, decisions, labels)

    def test_empty_decode(self):
        vectors = encode_split([], [], [], EncoderConfig(n=4))
        assert decode(vectors, zero_params(3, 4)).shape == (0, 0)

    def test_decode_runs_in_passes_of_at_most_decode_chunk(self, monkeypatch):
        examples, _, params = self.batch(4)
        vectors = padded(examples)
        whole = decode(vectors, params)
        widths = []
        document_vectors = editor._document_vectors

        def counted(e_bar, params):
            widths.append(len(e_bar))
            return document_vectors(e_bar, params)

        monkeypatch.setattr(editor, "DECODE_CHUNK", 3)
        monkeypatch.setattr(editor, "_document_vectors", counted)
        chunked = decode(vectors, params)
        assert widths == [3, 3, 2]
        assert np.array_equal(chunked, whole)


# Label rows whose argmax ties (E > A > R breaks them), and one-hot rows.
TIED_ROWS = ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (1 / 3, 1 / 3, 1 / 3))
ONE_HOT = {"all-A": (0.0, 1.0, 0.0), "all-R": (0.0, 0.0, 1.0)}


class TestTeacherForcedAgainstStepwise:
    """The teacher-forced `forward` computes the state prefix sum and every
    product stacked over the steps; `tests/reference.py` runs the same
    recurrence one step at a time. Every field must agree bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 6), min_size=1, max_size=7),
        n=st.integers(1, 9),
        m=st.integers(1, 9),
        rows=st.sampled_from(["random", "ties", "mixed", "all-A", "all-R"]),
        seed=st.integers(0, 2**16),
    )
    @example(lengths=[1], n=3, m=2, rows="random", seed=0)
    @example(lengths=[1], n=1, m=1, rows="all-R", seed=1)
    @example(lengths=[4, 1, 3], n=5, m=4, rows="ties", seed=2)
    @example(lengths=[2, 5, 1, 5], n=4, m=6, rows="all-A", seed=3)
    def test_every_field_equals_the_stepwise_reference(self, lengths, n, m, rows, seed):
        rng = np.random.default_rng(seed)
        vectors = padded([step_example(n, rng, l=l) for l in lengths])
        params = init_params(m, n, rng)
        perturb(params, rng, 0.5)
        shape = (len(lengths), max(lengths))
        if rows in ONE_HOT:
            labels = np.broadcast_to(ONE_HOT[rows], shape + (3,))
        else:
            tied = np.array(TIED_ROWS)[rng.integers(len(TIED_ROWS), size=shape)]
            share = {"random": 0.0, "mixed": 0.5, "ties": 1.0}[rows]
            labels = np.where(rng.random(shape + (1,)) < share, tied, rng.dirichlet(np.ones(3), size=shape))
        # forced along the labels' argmax, whose ties break E > A > R
        forced = labels.transpose(1, 0, 2).argmax(axis=2)
        batch = teacher_batch(vectors, forced)
        assert_pass_equals(forward(batch, params), batch, stepwise_forward(vectors, params, forced), np.array_equal)

    def test_free_running_equals_the_stepwise_reference(self):
        # `decode` takes the free-running reference's decisions, and the
        # forced pass on them is that reference's pass, bit for bit
        rng = np.random.default_rng(4)
        for _ in range(5):
            vectors = padded([step_example(5, rng, l=l) for l in (3, 1, 5, 2, 5)])
            params = init_params(4, 5, rng)
            perturb(params, rng, 0.5)
            decisions, want = decode(vectors, params), stepwise_forward(vectors, params)
            assert np.array_equal(decisions, want.decisions.T)
            batch = teacher_batch(vectors, decisions.T)
            assert_pass_equals(forward(batch, params), batch, want, np.array_equal)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_pass_equals(got, batch, want, equal=same_bits):
    """Every array of `forward`'s pass, and the batch's versions and mask,
    equal the reference pass's."""
    for name in ForwardPass.__slots__ + ("h", "mask"):
        assert equal(getattr(batch if name in ("h", "mask") else got, name), getattr(want, name)), name


class TestPassAgainstVectorsReference:
    """`loss_and_gradients` and `forward` run in place on batches cut from
    a split's step-major record (`forced_batch`, `Batch.take`), and `decode`
    reads one step's inputs at a time; `tests/reference.py` keeps the pass
    that rebuilt its inputs from `SplitVectors` on every call, with a fresh
    array for every intermediate. The float operations and their order are
    the same, so the loss, every gradient word, every array of the pass and
    every decoded decision agree bit for bit."""

    @pytest.mark.parametrize(
        "lengths, best",
        [
            ((3, 1, 7, 2, 5, 4, 6, 1, 7, 3), "random"),  # mixed lengths 1-7
            ((5,), "random"),  # B = 1
            ((1, 1, 1, 1), "random"),  # L = 1
            ((1,), "random"),  # B = L = 1
            ((4, 2, 6, 1, 3), "reject"),  # an all-REJECT best
        ],
        ids=["mixed", "B1", "L1", "B1-L1", "all-reject"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_training_batches_equal_the_reference(self, lengths, best, seed):
        rng = np.random.default_rng([seed, len(lengths)])
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        vectors = padded([step_example(n, rng, l=l) for l in lengths])
        params = init_params(m, n, rng)
        perturb(params, rng, 0.5)
        shape = (len(lengths), max(lengths))
        inside = (np.arange(max(lengths)) < np.array(lengths)[:, None])[..., None]
        labels = np.where(inside, rng.dirichlet(np.ones(3), size=shape), 0.0)
        decisions = np.full(shape, REJECT) if best == "reject" else rng.integers(3, size=shape)
        split = forced_batch(vectors, decisions.T, labels.transpose(1, 0, 2))
        out = EditorParams(m, n)
        perm = rng.permutation(len(lengths))
        for start in range(0, len(perm), 3):  # batches as `trainer.train` cuts them
            index = perm[start : start + 3]
            L = int(vectors.lengths[index].max())
            part = SplitVectors(vectors.ea[:L, index], vectors.e_bar[index], vectors.lengths[index])
            want_loss, want = vectors_loss_and_gradients(part, labels[index, :L], decisions[index, :L], params)
            loss, grad = loss_and_gradients(split.take(index), params, out)
            assert grad is out
            assert loss.hex() == want_loss.hex()
            assert same_bits(grad.flat, want.flat)
            batch = split.take(index)
            assert_pass_equals(forward(batch, params), batch, vectors_forward(part, params, decisions[index, :L].T))
        # the validation decode, against the free-running reference
        assert same_bits(decode(vectors, params), stepwise_forward(vectors, params).decisions.T)


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
        cfg = EncoderConfig(n=8, hash_seed=3)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(params, cfg, path)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        for name in PARAM_NAMES:
            assert np.array_equal(getattr(loaded, name), getattr(params, name))

    def test_exact_bits_round_trip(self, tmp_path):
        params = init_params(5, 8, np.random.default_rng(7))
        params.b[:] = [-0.0, 5e-324, 1e-300]
        params.b_d[:2] = [1e300, -1e300]
        path = tmp_path / "checkpoint.json"
        save_checkpoint(params, EncoderConfig(n=8), path)
        loaded, _ = load_checkpoint(path)
        assert loaded.flat.tobytes() == params.flat.tobytes()
        # a fresh native array the caller may write into, not a view of the
        # file's bytes
        assert loaded.flat.dtype == np.float64 and loaded.flat.dtype.isnative
        assert loaded.flat.flags.writeable and loaded.flat.flags.c_contiguous
        assert loaded.flat.base is None or isinstance(loaded.flat.base, np.ndarray)
        loaded.W_c[0, 0] = 2.0
        assert loaded.flat[0] == 2.0

    def test_golden_bytes(self, tmp_path):
        # pins the file format: any drift in the writer fails here
        flat = [0.5, -0.0, 1.0, -2.0, 0.25, 1.5, -1.5, 3.0, 0.0, -0.5, 5e-324, 1e300, -1e-300, 0.1]
        params = EditorParams(1, 1, np.array(flat))
        path = tmp_path / "checkpoint.json"
        save_checkpoint(params, EncoderConfig(n=1, hash_seed=3), path)
        assert path.read_bytes() == (
            b'{"V":"000000000000f83f000000000000f8bf0000000000000840",'
            b'"W_c":"000000000000e03f0000000000000080000000000000f03f00000000000000c0",'
            b'"W_d":"59f3f8c21f6ea581","W_g":"9c7500883ce4377e",'
            b'"b":"0000000000000000000000000000e0bf0100000000000000",'
            b'"b_c":"000000000000d03f","b_d":"9a9999999999b93f",'
            b'"hash_seed":3,"m":1,"n":1,"version":3}\n'
        )
        loaded, _ = load_checkpoint(path)
        assert loaded.flat.tobytes() == params.flat.tobytes()

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("b_c", lambda p: p.update(b_c="0.5")),
            ("W_g", lambda p: p.update(W_g=True)),
            ("b_c", lambda p: p.update(b_c=0.5)),
            ("b", lambda p: p.update(b=[0.0, 0.0, 0.0])),
            ("W_d", lambda p: p.update(W_d=None)),
            ("W_c", lambda p: p.update(W_c=p["W_c"][:-16])),
            ("W_c", lambda p: p.update(W_c=p["W_c"] + "0" * 16)),
            ("V", lambda p: p.update(V=p["V"][:-1])),
            ("b", lambda p: p.update(b="g" + p["b"][1:])),
            ("b", lambda p: p.update(b=p["b"][:-2] + "  ")),
            ("b", lambda p: p.update(b="\u0660" + p["b"][1:])),
        ],
        ids=["numeric-string", "bool", "number", "number-list", "null", "too-short", "too-long",
             "odd-length", "non-hex", "whitespace", "non-ascii-digit"],
    )
    def test_non_number_entry_rejected(self, tmp_path, name, edit):
        # each parameter is a str of exactly 16 hex digits per entry;
        # `bytes.fromhex` alone would skip whitespace
        path = tmp_path / "checkpoint.json"
        save_checkpoint(init_params(5, 8, np.random.default_rng(7)), EncoderConfig(n=8), path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        shape = editor.param_shapes(5, 8)[name]
        message = f"{path}: {name} is not the hex text of float64 words of shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_word_rejected(self, tmp_path, value):
        params = init_params(5, 8, np.random.default_rng(7))
        params.W_g[2, 3] = value
        path = tmp_path / "checkpoint.json"
        save_checkpoint(params, EncoderConfig(n=8), path)
        with pytest.raises(ValueError, match=re.escape(f"{path}: W_g contains non-finite values")):
            load_checkpoint(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint version 99 is not supported")):
            load_checkpoint(path)

    def test_version_1_file_rejected(self, tmp_path):
        # the earlier format: every parameter a JSON number array
        params = init_params(5, 8, np.random.default_rng(7))
        payload = {"version": 1, "m": 5, "n": 8, "encoder": {"n": 8, "hash_seed": 0, "context_window": 1}}
        payload.update({name: getattr(params, name).tolist() for name in PARAM_NAMES})
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint version 1 ")) as info:
            load_checkpoint(path)
        assert str(info.value).endswith("re-run sumedit train")

    def test_version_2_file_rejected(self, tmp_path):
        # the earlier format: the encoder settings, width included, in a
        # nested object
        params = init_params(5, 8, np.random.default_rng(7))
        payload = {"version": 2, "m": 5, "n": 8, "encoder": {"n": 8, "hash_seed": 0, "context_window": 1}}
        payload.update({name: getattr(params, name).astype("<f8").tobytes().hex() for name in PARAM_NAMES})
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        message = f"{path}: checkpoint version 2 is not supported; re-run sumedit train"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            load_checkpoint(path)

    def test_save_refuses_an_encoder_width_other_than_the_editors(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        with pytest.raises(ValueError, match="^encoder width disagrees with editor n$"):
            save_checkpoint(init_params(3, 4, np.random.default_rng(0)), EncoderConfig(n=5), path)
        assert list(tmp_path.iterdir()) == []

    def test_bytes_equal_a_json_dump_writer(self, tmp_path):
        # the words of every parameter, packed one float at a time by
        # `struct` and written by the streaming `json.dump`, are the bytes
        # `save_checkpoint` writes
        rng = np.random.default_rng(11)
        params = init_params(6, 5, rng)
        params.flat[:] *= 10.0 ** rng.integers(-300, 300, size=params.flat.size)
        params.b[:] = [0.0, -0.0, 5e-324]
        cfg = EncoderConfig(n=5, hash_seed=9)
        save_checkpoint(params, cfg, tmp_path / "checkpoint.json")
        payload = {"version": 3, "m": 6, "n": 5, "hash_seed": 9}
        for name in PARAM_NAMES:
            payload[name] = "".join(struct.pack("<d", x).hex() for x in getattr(params, name).ravel().tolist())
        with open(tmp_path / "dumped.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        assert (tmp_path / "checkpoint.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()
