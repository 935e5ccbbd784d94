"""End-to-end acceptance suite.

Each test implements one numbered acceptance criterion at its stated
tolerance and prints one pass line on success (run with -s to see them).
"""
import itertools
import json
import math
import time
import zlib

import numpy as np
import pytest

from reference import best_sequence, soft_cross_entropy, soft_labels, teacher_batch
from synthetic import document_from_strings, make_corpus
from sumedit import cli, text
from sumedit.config import ExperimentConfig
from sumedit.editor import (
    ABSTRACT,
    DECISIONS,
    EXTRACT,
    PARAM_NAMES,
    REJECT,
    EditorParams,
    abstractions_for,
    context_from_abstractions,
    decode,
    forward,
    init_params,
    loss_and_gradients,
)
from sumedit.encoder import EncoderConfig, SplitVectors, encode_split
from sumedit.oracle import enumerate_rewards, label_dataset, realize
from sumedit.rouge import RewardWeights, reward, rouge_l, rouge_n
from sumedit.summarizers import LeadExtractor, SalienceAbstractor, extract_lead, rescale_attention
from sumedit.text import Example, ReferenceSummary
from sumedit.trainer import Stream, evaluate, train

E, A, R = EXTRACT, ABSTRACT, REJECT


def ok(criterion, detail=""):
    print(f"ACCEPTANCE criterion {criterion}: PASS {detail}".rstrip())


def make_example(sentences, highlights, doc_id="d"):
    doc = document_from_strings(doc_id, sentences)
    ref = ReferenceSummary(tuple(tuple(h.split()) for h in highlights))
    return Example(document=doc, reference=ref)


# --- criterion 1: gradient exactness -----------------------------------------


def forward_loss_reference(vectors, labels, params):
    """Independent forward-only teacher-forced loss of a one-example batch,
    used as the finite-difference oracle."""
    n = params.n
    e, a = vectors.ea[:, 0, :n], vectors.ea[:, 0, n:]
    e_bar, l = vectors.e_bar[0], vectors.lengths[0]
    d = np.tanh(params.W_d @ e_bar + params.b_d)
    g = np.zeros(n)
    total = 0.0
    for i in range(l):
        x = np.concatenate([e[i], a[i], g, d])
        t = np.tanh(params.W_c @ x + params.b_c)
        logits = params.V @ t + params.b
        exp = np.exp(logits - logits.max())
        p = exp / exp.sum()
        total += float(np.dot(labels[i], np.log(np.maximum(p, 1e-12))))
        decision = int(np.argmax(labels[i]))
        if decision != REJECT:
            h = e[i] if decision == EXTRACT else a[i]
            g = g + np.tanh(params.W_g @ h)
    return -total / l


def random_gradient_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    m = int(rng.integers(2, 7))
    l = int(rng.integers(1, 4))
    vocab = [f"w{i}" for i in range(12)] + ["the", "a", "of"]
    sents = [
        " ".join(rng.choice(vocab, size=int(rng.integers(2, 6))))
        for _ in range(l + int(rng.integers(0, 3)))
    ]
    doc = document_from_strings(f"g{seed}", sents)
    cfg = EncoderConfig(n=n, hash_seed=seed)
    extract = extract_lead(doc, l)
    abstractions = abstractions_for(doc, extract, SalienceAbstractor(0.7))
    vectors = context_from_abstractions(doc, extract, abstractions, cfg)
    params = init_params(m, n, rng)
    params.flat[:] += rng.normal(0, 0.3, size=params.flat.size)
    y = rng.dirichlet(np.ones(3), size=l)
    return vectors, y, params


def test_criterion_1_gradient_exactness():
    start = time.monotonic()
    h = 1e-5
    checked = 0
    for seed in range(100):
        vectors, y, params = random_gradient_instance(seed)
        batch = teacher_batch(vectors, y.argmax(axis=1)[:, None], y[:, None])
        _, grads = loss_and_gradients(batch, params, EditorParams(params.m, params.n))
        for name in PARAM_NAMES:
            flat = getattr(params, name).ravel()
            gflat = getattr(grads, name).ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = forward_loss_reference(vectors, y, params)
                flat[j] = orig - h
                down = forward_loss_reference(vectors, y, params)
                flat[j] = orig
                fd = (up - down) / (2 * h)
                an = gflat[j]
                if abs(an) < 1e-6:
                    assert abs(fd - an) < 1e-8, (seed, name, j, an, fd)
                else:
                    assert abs(fd - an) / abs(an) < 1e-4, (seed, name, j, an, fd)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"gradient check took {elapsed:.1f}s"
    ok(1, f"({checked} entries, {elapsed:.1f}s)")


# --- criteria 2 and 3: oracle equivalence and degenerate cases ---------------


def naive_soft_labels(rewards, best):
    l = len(best)
    out = []
    for i in range(l):
        means = []
        for d in range(3):
            vals = [
                r
                for seq, r in rewards.items()
                if seq[:i] == best[:i] and seq[i] == d
            ]
            means.append(sum(vals) / len(vals) if vals else 0.0)
        z = sum(means)
        out.append([m / z for m in means] if z > 0 else [1 / 3] * 3)
    return np.array(out)


def naive_best(rewards):
    best = None
    for seq in sorted(rewards):  # product order: E < A < R, lexicographically
        if best is None or rewards[seq] > rewards[best]:
            best = seq
    return best


def as_array(rewards):
    """Dense (3,)*l array, in product order, of a {sequence: reward} dict
    covering every sequence (the oracle's reward format)."""
    l = len(next(iter(rewards)))
    seqs = itertools.product(range(3), repeat=l)
    return np.array([rewards[seq] for seq in seqs]).reshape((3,) * l)


def injected_fixture(l, seed):
    """Synthetic example whose realized summaries are all distinct, plus a
    seeded reward function keyed on the realized summary."""
    sents = [f"s{i} t{i} u{i}" for i in range(l)]
    ex = make_example(sents, ["s0 t0"], f"inj{l}-{seed}")
    extract = extract_lead(ex.document, l)
    abstractions = tuple((f"abs{i}",) for i in range(l))

    def reward_fn(summary):
        return zlib.crc32(f"{seed}|{summary!r}".encode()) / 2**32

    return ex, extract, abstractions, reward_fn


def test_criterion_2_oracle_equivalence():
    start = time.monotonic()
    for l in (1, 2, 3, 4):
        for seed in range(50):
            ex, extract, abstractions, reward_fn = injected_fixture(l, seed)
            rewards = enumerate_rewards(ex, extract, abstractions, reward_fn=reward_fn)
            assert rewards.size == 3**l
            by_seq = {
                seq: reward_fn(realize(ex.document, extract.order, abstractions, seq))
                for seq in itertools.product(range(3), repeat=l)
            }
            assert rewards.tobytes() == as_array(by_seq).tobytes()
            best = best_sequence(rewards)
            assert best == naive_best(by_seq)
            got = soft_labels(rewards, best)
            want = naive_soft_labels(by_seq, best)
            assert np.max(np.abs(got - want)) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"oracle equivalence took {elapsed:.1f}s"
    ok(2, f"({elapsed:.1f}s)")


def test_criterion_3_degenerate_and_scaling():
    for l in (1, 2, 3):
        zero = as_array({seq: 0.0 for seq in itertools.product(range(3), repeat=l)})
        labels = soft_labels(zero, best_sequence(zero))
        assert np.max(np.abs(labels - 1 / 3)) <= 1e-12
    rng = np.random.default_rng(0)
    for l in (1, 2, 3):
        for _ in range(20):
            rewards = {
                seq: float(rng.random())
                for seq in itertools.product(range(3), repeat=l)
            }
            scale = float(rng.uniform(0.1, 50))
            scaled = as_array({seq: scale * r for seq, r in rewards.items()})
            rewards = as_array(rewards)
            best = best_sequence(rewards)
            assert best_sequence(scaled) == best
            delta = soft_labels(rewards, best) - soft_labels(scaled, best)
            assert np.max(np.abs(delta)) <= 1e-12
    ok(3)


# --- criterion 4: ROUGE fixtures ---------------------------------------------


def test_criterion_4_rouge_fixtures():
    ident = ["the", "cat", "sat", "."]
    assert rouge_n(ident, [ident], 1).f1 == 1.0
    assert rouge_n(ident, [ident], 2).f1 == 1.0
    assert rouge_l([ident], [ident]).f1 == 1.0
    assert rouge_n(["a", "b"], [["c", "d"]], 1) == rouge_n(["a", "b"], [["c", "d"]], 1)
    assert rouge_n(["a", "b"], [["c", "d"]], 1).f1 == 0.0
    assert rouge_l([["a", "b"]], [["c", "d"]]).f1 == 0.0
    # hand-derived fixtures
    s = rouge_n(["the", "cat", "sat"], [["the", "cat", "ran"]], 1)
    assert (s.precision, s.recall, s.f1) == (2 / 3, 2 / 3, 2 / 3)
    s = rouge_l([["a", "b", "c", "d"]], [["a", "c", "b", "d"]])
    assert (s.precision, s.recall, s.f1) == (3 / 4, 3 / 4, 3 / 4)
    ref = [["the", "crash", "took", "place"], ["one", "person", "died"]]
    assert abs(reward(ref, ref, RewardWeights(0.4, 1.0, 0.5)) - 1.9) < 1e-12
    # swap exchanges precision and recall
    rng = np.random.default_rng(0)
    vocab = list("abcdefg")
    for _ in range(50):
        cand = list(rng.choice(vocab, size=rng.integers(1, 8)))
        ref_s = list(rng.choice(vocab, size=rng.integers(1, 8)))
        fwd = rouge_n(cand, [ref_s], 1)
        rev = rouge_n(ref_s, [cand], 1)
        assert abs(fwd.precision - rev.recall) <= 1e-12
        assert abs(fwd.recall - rev.precision) <= 1e-12
    ok(4)


# --- criterion 5: attention rescaling ----------------------------------------


def test_criterion_5_attention_rescaling():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n_sent = int(rng.integers(2, 4))
        sents, weights = [], []
        for s in range(n_sent):
            for pos in range(int(rng.integers(1, 5))):
                sents.append(s)
                weights.append(float(rng.uniform(0.01, 1.0)))
        p = {s: float(rng.uniform(0.05, 1.0)) for s in range(n_sent)}
        out = rescale_attention(weights, [p[s] for s in sents])
        total = sum(out)
        assert abs(total - 1.0) <= 1e-12
        c_scale, p_scale = float(rng.uniform(0.1, 20)), float(rng.uniform(0.1, 20))
        weights2 = [c_scale * w for w in weights]
        p2 = {s: v * p_scale for s, v in p.items()}
        # P values may exceed 1 here only inside the formula check
        out2 = rescale_attention(weights2, [p2[s] for s in sents])
        for a, b in zip(out, out2):
            assert abs(a - b) <= 1e-12
    # worked example: Z = 0.2*0.5 + 0.8*1.0 = 0.9
    weights = rescale_attention([0.2, 0.8], [0.5, 1.0])
    assert abs(weights[0] - 1 / 9) <= 1e-12
    assert abs(weights[1] - 8 / 9) <= 1e-12
    ok(5)


# --- criterion 6: recurrence identities --------------------------------------


def test_criterion_6_recurrence_identities():
    rng = np.random.default_rng(0)
    l = 3
    chosen = np.array([[d] for d in (E, R, R)])
    for _ in range(20):
        n = int(rng.integers(2, 10))
        vectors = SplitVectors(
            ea=rng.normal(size=(l, 1, 2 * n)), e_bar=rng.normal(size=(1, n)), lengths=np.array([l]),
        )
        params = init_params(3, n, rng)
        params.W_g[:] = rng.normal(size=(n, n))
        run = forward(teacher_batch(vectors, chosen), params)
        assert not np.array_equal(run.g[1, 0], run.g[0, 0])
        for i in (1, 2):
            assert np.array_equal(run.g[i + 1, 0], run.g[i, 0])
    ex = make_example(["a b c", "d e f", "g h"], ["a b c"])
    cfg = EncoderConfig(n=10)
    extract = extract_lead(ex.document, 3)
    abstractions = abstractions_for(ex.document, extract, SalienceAbstractor(0.8))
    vectors = context_from_abstractions(ex.document, extract, abstractions, cfg)
    params = init_params(4, 10, np.random.default_rng(0))
    params.flat[:] = 0.0
    sequence = decode(vectors, params)[0, : len(extract.order)].tolist()
    assert sequence == [EXTRACT] * 3
    assert realize(ex.document, extract.order, abstractions, sequence) == tuple(
        ex.document.tokens_at(i) for i in extract.order
    )
    ok(6)


# --- criterion 7: synthetic end-to-end learning ------------------------------


def test_criterion_7_end_to_end_learning():
    start = time.monotonic()
    k = 2
    train_ex = make_corpus(2000, seed=1, k=k)
    val_ex = make_corpus(200, seed=2, k=k, id_prefix="val")
    test_ex = make_corpus(200, seed=3, k=k, id_prefix="test")
    extractor = LeadExtractor(k + 2)
    abstractor = SalienceAbstractor(ratio=0.95)
    tr_lab, f1 = label_dataset(train_ex, extractor, abstractor)
    va_lab, f2 = label_dataset(val_ex, extractor, abstractor)
    te_lab, f3 = label_dataset(test_ex, extractor, abstractor)
    assert not (f1 or f2 or f3)
    cfg = ExperimentConfig(encoder_n=24, hash_seed=7, batch_size=32, epochs=20, seed=0, lr=1e-4)
    enc = cfg.encoder_config()
    rng = Stream(cfg.seed)  # the one stream of `sumedit train`
    params = init_params(24, 24, rng)
    best, log = train(list(zip(train_ex, tr_lab)), list(zip(val_ex, va_lab)), cfg, params, rng)
    losses = [entry["train_loss"] for entry in log]
    assert all(b < a for a, b in zip(losses[:5], losses[1:6])), losses[:6]
    w = RewardWeights()
    correct = total = 0
    model_reward = baseline_reward = 0.0
    vectors = encode_split(
        [ex.document for ex in test_ex], [lab.order for lab in te_lab],
        [lab.abstractions for lab in te_lab], enc,
    )
    decisions = decode(vectors, best)
    for ex, lab, row in zip(test_ex, te_lab, decisions):
        sequence = row[: len(lab.order)].tolist()
        for decision, target in zip(sequence, lab.best):
            correct += decision == target
            total += 1
        model_reward += reward(realize(ex.document, lab.order, lab.abstractions, sequence), ex.reference, w)
        extracted = [ex.document.tokens_at(i) for i in lab.order]
        baseline_reward += reward(extracted, ex.reference, w)
    accuracy = correct / total
    model_reward /= len(test_ex)
    baseline_reward /= len(test_ex)
    elapsed = time.monotonic() - start
    assert accuracy >= 0.90, accuracy
    assert model_reward > baseline_reward, (model_reward, baseline_reward)
    assert elapsed < 600, f"end-to-end run took {elapsed:.0f}s"
    ok(
        7,
        f"(accuracy {accuracy:.3f}, reward {model_reward:.3f} vs "
        f"all-E {baseline_reward:.3f}, {elapsed:.0f}s)",
    )


# --- criterion 8: loss properties --------------------------------------------


def test_criterion_8_loss_properties():
    u = np.full(3, 1 / 3)
    assert abs(soft_cross_entropy([u, u], [u, u]) - math.log(3)) <= 1e-12
    rng = np.random.default_rng(0)
    for _ in range(200):
        l = int(rng.integers(1, 4))
        y = rng.dirichlet(np.ones(3), size=l)
        p = rng.dirichlet(np.ones(3), size=l)
        entropy = -float(np.sum(y * np.log(y))) / l
        assert soft_cross_entropy(list(p), list(y)) >= entropy - 1e-9
        # equality iff p == y
        assert abs(soft_cross_entropy(list(y), list(y)) - entropy) <= 1e-9
        if np.max(np.abs(p - y)) > 1e-3:
            assert soft_cross_entropy(list(p), list(y)) > entropy + 1e-9
    ok(8)


# --- criterion 9: reproducibility --------------------------------------------


def test_criterion_9_reproducible_cli_runs(tmp_path):
    text.write_dataset(make_corpus(24, seed=0, k=1), tmp_path / "train.jsonl")
    text.write_dataset(make_corpus(8, seed=1, k=1, id_prefix="v"), tmp_path / "val.jsonl")
    outs = []
    for name in ("run_a", "run_b"):
        config = {
            "train_path": str(tmp_path / "train.jsonl"),
            "val_path": str(tmp_path / "val.jsonl"),
            "extractor": "lead",
            "k": 3,
            "abstract_ratio": 0.95,
            "encoder_n": 12,
            "hidden_m": 8,
            "epochs": 2,
            "batch_size": 8,
            "seed": 5,
            "out_dir": str(tmp_path / name),
        }
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["label", "--config", str(cfg_path), "--split", "train", "--split", "val"]) == 0
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        outs.append(tmp_path / name)
    for artifact in ("labels_train.jsonl", "labels_val.jsonl", "checkpoint.json", "train_log.jsonl"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes(), artifact
    ok(9)


# --- criterion 10: reporting -------------------------------------------------


def test_criterion_10_reporting():
    examples = make_corpus(3, seed=4, k=1, id_prefix="rep")
    labeled, failures = label_dataset(examples, LeadExtractor(3), SalienceAbstractor(0.95))
    assert not failures
    pairs = list(zip(examples, labeled))
    enc = EncoderConfig(n=12, hash_seed=7)
    rng = np.random.default_rng(3)
    params = init_params(6, 12, rng)
    params.flat[:] += rng.normal(0, 0.8, size=params.flat.size)
    report = evaluate(pairs, params, enc)
    assert abs(sum(report["decision_fractions"].values()) - 1.0) <= 1e-9
    tally = {d: 0 for d in range(3)}
    fracs = []
    for ex, lab in pairs:
        vectors = encode_split([ex.document], [lab.order], [lab.abstractions], enc)
        sequence = decode(vectors, params)[0, : len(lab.order)].tolist()
        for decision in sequence:
            tally[decision] += 1
        emitted = len(realize(ex.document, lab.order, lab.abstractions, sequence))
        abstracted = sequence.count(ABSTRACT)
        if emitted:
            fracs.append(abstracted / emitted)
    total = sum(tally.values())
    assert report["decision_fractions"] == {DECISIONS[d]: tally[d] / total for d in range(3)}
    expected = sum(fracs) / len(fracs) if fracs else 0.0
    assert report["abstracted_emitted_fraction"] == pytest.approx(expected, abs=1e-12)
    ok(10)
