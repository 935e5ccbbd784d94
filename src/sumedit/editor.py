"""The editing network: per-sentence keep/abstract/reject decisions.

Per step the network sees [e, a, g_prev, d] (extracted and abstracted
sentence vectors, running summary state, document vector), produces a
three-way softmax over {E, A, R} through two fully-connected layers, and
updates the additive summary state through tanh(W_g @ h) where h follows the
chosen sentence version. The recurrence, including the document vector
d = tanh(W_d @ mean(e) + b_d), is computed in one place, `forward`, over a
padded batch of extracts: each step is one matrix product for the whole
batch, and the padded steps past an extract's end count as REJECT. `decode`
runs it free (argmax of p) and `loss_and_gradients` runs it teacher-forced
(argmax of the label) before its backward pass, whose weight gradients are
one matrix product each over all the batch's steps. Training minimizes a
soft cross-entropy against enumeration-derived label distributions;
gradients are exact and analytic (the base sentence encoder is frozen).
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .encoder import EncoderConfig, encode_abstracted, mix_context, raw_vectors
from .summarizers import Abstractor, ExtractResult, make_chunk
from .text import Document, atomic_open

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
    """Abstracted version of every extracted sentence, in extract order.

    Raises ValueError if the extract's likelihood misses a chunk member.
    """
    out = []
    for idx in extract.order:
        chunk = make_chunk(document, idx)
        try:
            member_p = {s.index: extract.likelihood[s.index] for s in chunk.members}
        except KeyError as exc:
            raise ValueError(
                f"{document.id}: extract likelihood has no entry for sentence "
                f"{exc.args[0]} (chunk of extracted sentence {idx})"
            ) from None
        out.append(tuple(abstractor(chunk, member_p).tokens))
    return tuple(out)


def context_from_abstractions(
    document: Document,
    extract: ExtractResult,
    abstractions: Sequence[Sequence[str]],
    config: EncoderConfig,
) -> EditContext:
    doc = document
    raw = raw_vectors(doc, config)
    vecs = mix_context(raw, config)
    e = np.stack([vecs[i] for i in extract.order])
    a = np.stack(
        [
            encode_abstracted(raw, idx, list(toks), config)
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
    """One run of the recurrence over a batch of B extracts padded to the
    longest length L; arrays are step-major.

    `d` (B, n) holds the document vectors and `g` (L + 1, B, n) the states
    g_0 ... g_L. Per step i: the input `x` (L, B, 4n), the hidden activation
    `t` (L, B, m), the distribution `p` (L, B, 3), the decision index into
    DECISIONS `decisions` (L, B), the version `h` of the sentence that entered
    the state and the state increment `q` = tanh(W_g h), both (L, B, n) and
    zero on REJECT. `mask` (L, B) marks the steps inside each extract; the
    others take REJECT.
    """

    d: np.ndarray
    g: np.ndarray
    x: np.ndarray
    t: np.ndarray
    p: np.ndarray
    decisions: np.ndarray
    h: np.ndarray
    q: np.ndarray
    mask: np.ndarray


def forward(
    ctxs: Sequence[EditContext],
    params: EditorParams,
    forced: np.ndarray | None = None,
) -> ForwardPass:
    """Run the editor over a non-empty batch of contexts.

    forced (L, B) gives the decision index taken at every step (teacher
    forcing); without it each step takes argmax p, ties broken E > A > R.
    p_i = softmax(V tanh(W_c [e_i, a_i, g_i, d] + b_c) + b), d = tanh(W_d e_bar
    + b_d), and g_{i+1} = g_i + tanh(W_g h_i) with h_i the extracted (E) or
    abstracted (A) sentence vector; on REJECT, and on every padded step,
    g_{i+1} is g_i itself.
    """
    n, m, B = params.n, params.m, len(ctxs)
    extract, abstract, reject = (
        DECISION_INDEX[d] for d in (Decision.EXTRACT, Decision.ABSTRACT, Decision.REJECT)
    )
    lengths = np.array([ctx.l for ctx in ctxs])
    L = int(lengths.max())
    mask = np.arange(L)[:, None] < lengths
    d = np.tanh(np.stack([ctx.e_bar for ctx in ctxs]) @ params.W_d.T + params.b_d)
    x = np.zeros((L, B, 4 * n))
    for j, ctx in enumerate(ctxs):
        x[: ctx.l, j, :n] = ctx.e
        x[: ctx.l, j, n : 2 * n] = ctx.a
    x[:, :, 3 * n :] = d
    g = np.zeros((L + 1, B, n))
    t = np.empty((L, B, m))
    p = np.empty((L, B, 3))
    decisions = np.empty((L, B), dtype=np.intp)
    h = np.empty((L, B, n))
    q = np.empty((L, B, n))
    for i in range(L):
        x[i, :, 2 * n : 3 * n] = g[i]
        t[i] = np.tanh(x[i] @ params.W_c.T + params.b_c)
        logits = t[i] @ params.V.T + params.b
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        p[i] = shifted / shifted.sum(axis=1, keepdims=True)
        chosen = p[i].argmax(axis=1) if forced is None else forced[i]
        decisions[i] = np.where(mask[i], chosen, reject)
        h[i] = np.where(
            (decisions[i] == extract)[:, None],
            x[i, :, :n],
            np.where((decisions[i] == abstract)[:, None], x[i, :, n : 2 * n], 0.0),
        )
        # tanh(W_g 0) is exactly 0, so REJECT leaves the state as it is
        q[i] = np.tanh(h[i] @ params.W_g.T)
        g[i + 1] = g[i] + q[i]
    return ForwardPass(d, g, x, t, p, decisions, h, q, mask)


# Most contexts one batched decode pass holds at once; the arrays of a pass
# grow with it, so longer inputs are decoded in passes of this size.
DECODE_CHUNK = 256


def decode(ctxs: Sequence[EditContext], params: EditorParams) -> list[MixedSummary]:
    """Greedy free-running decode of every context in batched passes of at
    most DECODE_CHUNK contexts: argmax decision per step (ties E > A > R),
    one summary per context."""
    summaries = []
    for start in range(0, len(ctxs), DECODE_CHUNK):
        chunk = ctxs[start : start + DECODE_CHUNK]
        run = forward(chunk, params)
        for j, (ctx, decisions) in enumerate(zip(chunk, run.decisions.T.tolist())):
            steps = []
            for i, idx in enumerate(ctx.extract.order):
                decision = DECISIONS[decisions[i]]
                versions = {
                    Decision.EXTRACT: ctx.extracted_tokens[i],
                    Decision.ABSTRACT: ctx.abstractions[i],
                }
                steps.append(EditStep(idx, decision, versions.get(decision), run.p[i, j]))
            summaries.append(MixedSummary(steps=tuple(steps)))
    return summaries


def soft_cross_entropy(
    distributions: Sequence[np.ndarray], labels: Sequence[Sequence[float]]
) -> float:
    """-(1/l) sum_i sum_k y_ik log p_ik, with p clamped below for finiteness."""
    p = np.asarray(distributions, dtype=float)
    y = np.asarray(labels, dtype=float)
    if len(p) != len(y):
        raise ValueError("distributions and labels differ in length")
    if not len(p):
        raise ValueError("need at least one step")
    return -float(np.sum(y * np.log(np.maximum(p, LOG_CLAMP)))) / len(p)


def loss_and_gradients(
    ctxs: Sequence[EditContext],
    labels: Sequence[np.ndarray],
    params: EditorParams,
    teacher_forcing: bool = True,
) -> tuple[float, dict[str, np.ndarray]]:
    """Summed soft cross-entropy of a batch and its exact summed gradient
    for every parameter; labels[j] is the (l, 3) label array of ctxs[j].

    With teacher forcing the state recurrence follows the label argmax; without
    it, the model's own argmax decision. The discrete decisions are treated as
    constants of the backward pass; sentence vectors are frozen.
    """
    if not ctxs or len(labels) != len(ctxs):
        raise ValueError("need one label array per context, and at least one context")
    n, m, B = params.n, params.m, len(ctxs)
    L = max(ctx.l for ctx in ctxs)
    y = np.zeros((L, B, 3))
    for j, (ctx, lab) in enumerate(zip(ctxs, labels)):
        lab = np.asarray(lab, dtype=float)
        if lab.shape != (ctx.l, 3):
            raise ValueError(f"{ctx.example_id}: labels must have shape ({ctx.l}, 3)")
        y[: ctx.l, j] = lab
    run = forward(ctxs, params, y.argmax(axis=2) if teacher_forcing else None)
    lengths = run.mask.sum(axis=0)
    # Each example's `soft_cross_entropy`: its steps' terms in one row, summed
    # as that function sums its (l, 3) array (y is 0 on the padded steps, so
    # they add zeros), and the batch's losses added in order.
    terms = y * np.log(np.maximum(run.p, LOG_CLAMP))
    losses = -terms.transpose(1, 0, 2).reshape(B, -1).sum(axis=1) / lengths
    loss = float(np.cumsum(losses)[-1])

    du = ((run.p - y) / lengths[:, None] * run.mask[:, :, None]).reshape(-1, 3)
    t = run.t.reshape(-1, m)
    dz = (du @ params.V) * (1 - t**2)
    dx = (dz @ params.W_c).reshape(L, B, 4 * n)
    # dL/dg_{i+1}: g_{i+1} enters the inputs of steps i+1 .. L-1
    dg = dx[:, :, 2 * n : 3 * n]
    G = np.zeros((L, B, n))
    G[:-1] = np.cumsum(dg[:0:-1], axis=0)[::-1]
    dq = (G * (1 - run.q**2)).reshape(-1, n)
    dzd = dx[:, :, 3 * n :].sum(axis=0) * (1 - run.d**2)
    e_bar = np.stack([ctx.e_bar for ctx in ctxs])
    grads = {
        "W_c": dz.T @ run.x.reshape(-1, 4 * n),
        "b_c": dz.sum(axis=0),
        "V": du.T @ t,
        "b": du.sum(axis=0),
        "W_g": dq.T @ run.h.reshape(-1, n),
        "W_d": dzd.T @ e_bar,
        "b_d": dzd.sum(axis=0),
    }
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
    with atomic_open(path) as fh:
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
