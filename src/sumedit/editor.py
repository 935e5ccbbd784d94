"""The editing network: per-sentence keep/abstract/reject decisions.

Per step the network sees [e, a, g_prev, d] (extracted and abstracted
sentence vectors, running summary state, document vector), produces a
three-way softmax over {E, A, R} through two fully-connected layers, and
updates the additive summary state through tanh(W_g @ h) where h follows the
chosen sentence version. The recurrence, including the document vector
d = tanh(W_d @ mean(e) + b_d), is computed in one place, `forward`: `decode`
runs it free (argmax of p) and `loss_and_gradients` runs it teacher-forced
(argmax of the label) before its backward pass. Training minimizes a soft
cross-entropy against enumeration-derived label distributions; gradients are
exact and analytic (the base sentence encoder is frozen).
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .encoder import EncoderConfig, encode_abstracted, encode_sentences
from .summarizers import Abstractor, ExtractResult, make_chunk
from .text import Document

LOG_CLAMP = 1e-12


class Decision(enum.Enum):
    EXTRACT = "E"
    ABSTRACT = "A"
    REJECT = "R"

    @property
    def label(self) -> str:
        return self.value


# Fixed index order; argmax ties therefore break E > A > R.
DECISIONS = (Decision.EXTRACT, Decision.ABSTRACT, Decision.REJECT)
DECISION_INDEX = {d: i for i, d in enumerate(DECISIONS)}

PARAM_NAMES = ("W_c", "b_c", "V", "b", "W_g", "W_d", "b_d")


@dataclass
class EditorParams:
    W_c: np.ndarray  # (m, 4n)
    b_c: np.ndarray  # (m,)
    V: np.ndarray  # (3, m)
    b: np.ndarray  # (3,)
    W_g: np.ndarray  # (n, n)
    W_d: np.ndarray  # (n, n)
    b_d: np.ndarray  # (n,)

    @property
    def m(self) -> int:
        return self.W_c.shape[0]

    @property
    def n(self) -> int:
        return self.W_g.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def copy(self) -> "EditorParams":
        return EditorParams(**{k: v.copy() for k, v in self.arrays().items()})

    def validate(self) -> None:
        m, n = self.m, self.n
        expected = {
            "W_c": (m, 4 * n), "b_c": (m,), "V": (3, m), "b": (3,),
            "W_g": (n, n), "W_d": (n, n), "b_d": (n,),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")


def init_params(m: int, n: int, rng: np.random.Generator) -> EditorParams:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] matrices, zero biases."""

    def mat(rows: int, cols: int) -> np.ndarray:
        bound = 1.0 / np.sqrt(cols)
        return rng.uniform(-bound, bound, size=(rows, cols))

    return EditorParams(
        W_c=mat(m, 4 * n),
        b_c=np.zeros(m),
        V=mat(3, m),
        b=np.zeros(3),
        W_g=mat(n, n),
        W_d=mat(n, n),
        b_d=np.zeros(n),
    )


def zero_grads(params: EditorParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.arrays().items()}


@dataclass(frozen=True)
class EditStep:
    sentence_index: int
    decision: Decision
    tokens: tuple[str, ...] | None
    distribution: np.ndarray = field(compare=False)  # (3,) p over E, A, R


@dataclass(frozen=True)
class MixedSummary:
    steps: tuple[EditStep, ...]

    @property
    def text(self) -> tuple[tuple[str, ...], ...]:
        return tuple(s.tokens for s in self.steps if s.tokens is not None)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


@dataclass
class EditContext:
    """Frozen-encoder quantities for one example, precomputable once."""

    example_id: str
    extract: ExtractResult
    e: np.ndarray  # (l, n) extracted-sentence vectors, in extract order
    a: np.ndarray  # (l, n) abstracted-sentence vectors, in extract order
    e_bar: np.ndarray  # (n,) document mean sentence vector
    extracted_tokens: tuple[tuple[str, ...], ...]
    abstractions: tuple[tuple[str, ...], ...]

    @property
    def l(self) -> int:
        return len(self.extract.order)


def abstractions_for(
    document: Document, extract: ExtractResult, abstractor: Abstractor
) -> tuple[tuple[str, ...], ...]:
    """Abstracted version of every extracted sentence, in extract order."""
    out = []
    for idx in extract.order:
        chunk = make_chunk(document, idx)
        member_p = {s.index: extract.likelihood[s.index] for s in chunk.members}
        out.append(tuple(abstractor(chunk, member_p).tokens))
    return tuple(out)


def context_from_abstractions(
    document: Document,
    extract: ExtractResult,
    abstractions: Sequence[Sequence[str]],
    config: EncoderConfig,
) -> EditContext:
    doc = document
    vecs = encode_sentences(doc, config)
    e = np.stack([vecs[i] for i in extract.order])
    a = np.stack(
        [
            encode_abstracted(doc, idx, list(toks), config)
            for idx, toks in zip(extract.order, abstractions)
        ]
    )
    return EditContext(
        example_id=doc.id,
        extract=extract,
        e=e,
        a=a,
        e_bar=vecs.mean(axis=0),
        extracted_tokens=tuple(doc.tokens_at(i) for i in extract.order),
        abstractions=tuple(tuple(t) for t in abstractions),
    )


@dataclass
class ForwardPass:
    """One run of the recurrence over an extract of length l.

    `d` is the document vector and `g` the states g_0 ... g_l. Per step i it
    keeps the input x, the hidden activation t, the distribution p, the chosen
    decision, the version h of the sentence that entered the state and the
    state increment q = tanh(W_g h); h and q are None on REJECT.
    """

    d: np.ndarray
    g: list[np.ndarray]
    x: list[np.ndarray]
    t: list[np.ndarray]
    p: list[np.ndarray]
    decisions: list[Decision]
    h: list[np.ndarray | None]
    q: list[np.ndarray | None]


def forward(
    ctx: EditContext,
    params: EditorParams,
    choose: Callable[[int, np.ndarray], Decision],
) -> ForwardPass:
    """Run the editor over ctx; choose(i, p) names the decision taken at step i.

    p_i = softmax(V tanh(W_c [e_i, a_i, g_i, d] + b_c) + b), d = tanh(W_d e_bar
    + b_d), and g_{i+1} = g_i + tanh(W_g h_i) with h_i the extracted (E) or
    abstracted (A) sentence vector; on REJECT g_{i+1} is g_i itself.
    """
    d = np.tanh(params.W_d @ ctx.e_bar + params.b_d)
    g = np.zeros(params.n)
    gs, xs, ts, ps, decisions, hs, qs = [g], [], [], [], [], [], []
    for i in range(ctx.l):
        x = np.concatenate([ctx.e[i], ctx.a[i], g, d])
        t = np.tanh(params.W_c @ x + params.b_c)
        p = _softmax(params.V @ t + params.b)
        decision = choose(i, p)
        if decision is Decision.REJECT:
            h = q = None
        else:
            h = ctx.e[i] if decision is Decision.EXTRACT else ctx.a[i]
            q = np.tanh(params.W_g @ h)
            g = g + q
        gs.append(g); xs.append(x); ts.append(t); ps.append(p)
        decisions.append(decision); hs.append(h); qs.append(q)
    return ForwardPass(d, gs, xs, ts, ps, decisions, hs, qs)


def _argmax_choice(i: int, p: np.ndarray) -> Decision:
    """The model's own decision: argmax p, ties broken E > A > R."""
    return DECISIONS[int(np.argmax(p))]


def decode(ctx: EditContext, params: EditorParams) -> MixedSummary:
    """Greedy free-running decode: argmax decision per step (ties E > A > R)."""
    run = forward(ctx, params, _argmax_choice)
    steps = []
    for i, (idx, decision) in enumerate(zip(ctx.extract.order, run.decisions)):
        if decision is Decision.EXTRACT:
            tokens = ctx.extracted_tokens[i]
        elif decision is Decision.ABSTRACT:
            tokens = ctx.abstractions[i]
        else:
            tokens = None
        steps.append(EditStep(idx, decision, tokens, run.p[i]))
    return MixedSummary(steps=tuple(steps))


def soft_cross_entropy(
    distributions: Sequence[np.ndarray], labels: Sequence[Sequence[float]]
) -> float:
    """-(1/l) sum_i sum_k y_ik log p_ik, with p clamped below for finiteness."""
    if len(distributions) != len(labels):
        raise ValueError("distributions and labels differ in length")
    if not distributions:
        raise ValueError("need at least one step")
    total = 0.0
    for p, y in zip(distributions, labels):
        total += float(np.dot(np.asarray(y), np.log(np.maximum(np.asarray(p), LOG_CLAMP))))
    return -total / len(distributions)


def loss_and_gradients(
    ctx: EditContext,
    labels: np.ndarray,
    params: EditorParams,
    teacher_forcing: bool = True,
) -> tuple[float, dict[str, np.ndarray]]:
    """Soft cross-entropy loss and its exact gradient for every parameter.

    With teacher forcing the state recurrence follows the label argmax; without
    it, the model's own argmax decision. The discrete decisions are treated as
    constants of the backward pass; sentence vectors are frozen.
    """
    labels = np.asarray(labels, dtype=float)
    l = ctx.l
    if labels.shape != (l, 3):
        raise ValueError(f"labels must have shape ({l}, 3)")
    n = params.n

    if teacher_forcing:
        teacher = [DECISIONS[k] for k in labels.argmax(axis=1)]
        run = forward(ctx, params, lambda i, p: teacher[i])
    else:
        run = forward(ctx, params, _argmax_choice)
    d, xs, ts, ps, qs, hs = run.d, run.x, run.t, run.p, run.q, run.h
    loss = soft_cross_entropy(ps, labels)

    grads = zero_grads(params)
    G = np.zeros(n)  # dL/dg_i flowing back from later steps
    dd = np.zeros(n)
    for i in reversed(range(l)):
        if qs[i] is not None:
            dq = G * (1 - qs[i] ** 2)
            grads["W_g"] += np.outer(dq, hs[i])
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
    grads["W_d"] += np.outer(dzd, ctx.e_bar)
    grads["b_d"] += dzd
    return loss, grads


CHECKPOINT_VERSION = 1


def save_checkpoint(params: EditorParams, encoder_config: EncoderConfig, path) -> None:
    payload: dict = {"version": CHECKPOINT_VERSION, "m": params.m, "n": params.n}
    for name, arr in params.arrays().items():
        payload[name] = arr.tolist()
    payload["encoder"] = {
        "n": encoder_config.n,
        "hash_seed": encoder_config.hash_seed,
        "context_window": encoder_config.context_window,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path) -> tuple[EditorParams, EncoderConfig]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
    params = EditorParams(**{name: np.array(payload[name], dtype=float) for name in PARAM_NAMES})
    params.validate()
    if params.m != payload["m"] or params.n != payload["n"]:
        raise ValueError("checkpoint dims disagree with stored arrays")
    enc = payload["encoder"]
    config = EncoderConfig(
        n=enc["n"], hash_seed=enc["hash_seed"], context_window=enc["context_window"]
    )
    if config.n != params.n:
        raise ValueError("encoder width disagrees with editor n")
    return params, config
