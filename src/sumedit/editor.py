"""The editing network: per-sentence keep/abstract/reject decisions.

Per step the network sees [e, a, g_prev, d] (extracted and abstracted
sentence vectors, running summary state, document vector), produces a
three-way softmax over {E, A, R} through two fully-connected layers, and
updates the additive summary state through tanh(W_g @ h) where h follows the
chosen sentence version. The recurrence, including the document vector
d = tanh(W_d @ mean(e) + b_d), runs over a padded batch of extracts
(`encoder.SplitVectors`), and the padded steps past an extract's end count
as REJECT. `forward` runs it teacher-forced: the given decisions fix every
state before the pass, so the states are a prefix sum and each product is
one stacked expression over all the steps. `loss_and_gradients` forces the
label argmax, and its backward pass computes each weight gradient as one
matrix product over all the batch's steps. `decode` runs it free (argmax of
p), one matrix product per step for the whole batch, and returns decision
arrays. Training minimizes a soft cross-entropy against enumeration-derived
label distributions; gradients are exact and analytic (the base sentence
encoder is frozen). The parameters, and a gradient, are named views into one
flat vector (`EditorParams`).
"""
from __future__ import annotations

import functools
import json
import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .summarizers import Abstractor, ExtractResult
from .text import Document, atomic_open, read_json_object

if TYPE_CHECKING:
    # `encoder` is imported where it is used, so that `label`, which uses
    # the decisions and `abstractions_for` but encodes nothing, does not
    # import it.
    from .encoder import EncoderConfig, SplitVectors

LOG_CLAMP = 1e-12


# A decision is an index into DECISIONS, the letter that files and output
# write for it; argmax ties therefore break E > A > R.
DECISIONS = "EAR"
EXTRACT, ABSTRACT, REJECT = range(3)

PARAM_NAMES = ("W_c", "b_c", "V", "b", "W_g", "W_d", "b_d")


def param_shapes(m: int, n: int) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter, in PARAM_NAMES order."""
    return {
        "W_c": (m, 4 * n), "b_c": (m,), "V": (3, m), "b": (3,),
        "W_g": (n, n), "W_d": (n, n), "b_d": (n,),
    }


@functools.lru_cache(maxsize=16)
def _layout(m: int, n: int) -> tuple[int, tuple]:
    """Size of the flat vector, and per parameter (name, slice, shape)."""
    parts, offset = [], 0
    for name, shape in param_shapes(m, n).items():
        parts.append((name, slice(offset, offset + math.prod(shape)), shape))
        offset += math.prod(shape)
    return offset, tuple(parts)


class EditorParams:
    """The editor's parameters W_c (m, 4n), b_c (m,), V (3, m), b (3,),
    W_g (n, n), W_d (n, n) and b_d (n,): named views into one flat float64
    vector `flat`, in PARAM_NAMES order. A name cannot be rebound, so every
    write into a parameter is a write into `flat`."""

    W_c: np.ndarray
    b_c: np.ndarray
    V: np.ndarray
    b: np.ndarray
    W_g: np.ndarray
    W_d: np.ndarray
    b_d: np.ndarray

    def __init__(self, m: int, n: int, flat: np.ndarray | None = None):
        size, parts = _layout(m, n)
        flat = np.zeros(size) if flat is None else np.ascontiguousarray(flat, dtype=np.float64)
        if flat.shape != (size,):
            raise ValueError(f"m = {m}, n = {n} takes {size} parameters, not shape {flat.shape}")
        self.__dict__.update({name: flat[part].reshape(shape) for name, part, shape in parts})
        self.__dict__.update(m=m, n=n, flat=flat)

    def __setattr__(self, name, value):
        raise AttributeError(f"EditorParams.{name} cannot be rebound; write into its array")

    def copy(self) -> "EditorParams":
        return EditorParams(self.m, self.n, self.flat.copy())

    def validate(self) -> None:
        for name in PARAM_NAMES:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite values")


def init_params(m: int, n: int, rng: np.random.Generator) -> EditorParams:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] matrices, zero biases."""
    params = EditorParams(m, n)
    for name in ("W_c", "V", "W_g", "W_d"):
        view = getattr(params, name)
        bound = 1.0 / np.sqrt(view.shape[1])
        view[:] = rng.uniform(-bound, bound, size=view.shape)
    return params


def abstractions_for(
    document: Document, extract: ExtractResult, abstractor: Abstractor
) -> tuple[tuple[str, ...], ...]:
    """Abstracted version of every extracted sentence, in extract order.

    `label` and `summarize` call the abstractor through this function, which
    the benchmark's tracer (perfbench) wraps by name."""
    return abstractor(document, extract)


def context_from_abstractions(
    document: Document,
    extract: ExtractResult,
    abstractions: Sequence[Sequence[str]],
    config: EncoderConfig,
) -> SplitVectors:
    """The vectors of one example: `encode_split` of a one-document split."""
    from .encoder import encode_split

    return encode_split([document], [extract.order], [abstractions], config)


class ForwardPass:
    """One teacher-forced run (`forward`) of the recurrence over a batch of
    B extracts padded to L steps; arrays are step-major.

    `d` (B, n) holds the document vectors and `g` (L + 1, B, n) the states
    g_0 ... g_L. Per step i: the input `x` (L, B, 4n), the hidden activation
    `t` (L, B, m), the distribution `p` (L, B, 3), the decision index into
    DECISIONS `decisions` (L, B), the version `h` of the sentence that entered
    the state and the state increment `q` = tanh(W_g h), both (L, B, n) and
    zero on REJECT. `mask` (L, B) marks the steps inside each extract; the
    others take REJECT.
    """

    __slots__ = ("d", "g", "x", "t", "p", "decisions", "h", "q", "mask")

    def __init__(self, d, g, x, t, p, decisions, h, q, mask):
        self.d = d
        self.g = g
        self.x = x
        self.t = t
        self.p = p
        self.decisions = decisions
        self.h = h
        self.q = q
        self.mask = mask


def _distribution(x: np.ndarray, params: EditorParams) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activation t and distribution p of inputs x (..., B, 4n); a
    stacked x keeps one (B, 4n) @ (4n, m) product per step."""
    t = np.tanh(x @ params.W_c.T + params.b_c)
    logits = t @ params.V.T + params.b
    shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return t, shifted / shifted.sum(axis=-1, keepdims=True)


def _versions(decisions: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """The sentence version each decision puts into the state: e on
    EXTRACT, a on ABSTRACT, zeros on REJECT."""
    return np.where(
        (decisions == EXTRACT)[..., None],
        x[..., :n],
        np.where((decisions == ABSTRACT)[..., None], x[..., n : 2 * n], 0.0),
    )


def _inputs(vectors: SplitVectors, params: EditorParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The document vectors d (B, n), the step inputs x (L, B, 4n) with zero
    state slots, and the mask (L, B) of the steps inside the extracts."""
    n = params.n
    B, L = vectors.e.shape[:2]
    mask = np.arange(L)[:, None] < vectors.lengths
    d = np.tanh(vectors.e_bar @ params.W_d.T + params.b_d)
    x = np.zeros((L, B, 4 * n))
    x[:, :, :n] = vectors.e.transpose(1, 0, 2)
    x[:, :, n : 2 * n] = vectors.a.transpose(1, 0, 2)
    x[:, :, 3 * n :] = d
    return d, x, mask


def forward(vectors: SplitVectors, params: EditorParams, decisions: np.ndarray) -> ForwardPass:
    """Run the editor teacher-forced over a non-empty batch of extracts:
    decisions (L, B) gives the decision index taken at every step.

    p_i = softmax(V tanh(W_c [e_i, a_i, g_i, d] + b_c) + b), d = tanh(W_d e_bar
    + b_d), and g_{i+1} = g_i + tanh(W_g h_i) with h_i the extracted (E) or
    abstracted (A) sentence vector; on REJECT, and on every padded step,
    g_{i+1} is g_i itself.

    The decisions fix every h_i before the pass, so the states are a prefix
    sum of the increments and the whole pass is computed at once, each
    product stacked over the steps. The distributions of a free-running
    pass are those of `forward(vectors, params, decode(vectors, params).T)`.
    """
    n = params.n
    d, x, mask = _inputs(vectors, params)
    decisions = np.where(mask, decisions, REJECT)
    h = _versions(decisions, x, n)
    # tanh(W_g 0) is exactly 0, so REJECT leaves the state as it is
    q = np.tanh(h @ params.W_g.T)
    g = np.zeros((len(x) + 1,) + d.shape)
    # adds left to right, g_{i+1} = g_i + q_i as `decode` adds
    np.cumsum(q, axis=0, out=g[1:])
    x[:, :, 2 * n : 3 * n] = g[:-1]
    t, p = _distribution(x, params)
    return ForwardPass(d, g, x, t, p, decisions, h, q, mask)


# Most extracts one batched decode pass holds at once; the arrays of a pass
# grow with it, so longer inputs are decoded in passes of this size.
DECODE_CHUNK = 256


def decode(vectors: SplitVectors, params: EditorParams) -> np.ndarray:
    """Greedy free-running decode of every extract in batched passes of at
    most DECODE_CHUNK extracts: argmax decision per step, ties E > A > R.
    Step i needs p_i, so the steps run one after another, and a pass keeps
    only the running state and the decisions.

    Returns the decisions (N, L), indices into DECISIONS that are REJECT past
    each extract's end.
    """
    N, L = vectors.e.shape[:2]
    n = params.n
    decisions = np.full((N, L), REJECT, dtype=np.intp)
    for start in range(0, N, DECODE_CHUNK):
        chunk = slice(start, start + DECODE_CHUNK)
        _, x, mask = _inputs(vectors.take(chunk), params)
        g = np.zeros((x.shape[1], n))
        for i in range(len(x)):
            x[i, :, 2 * n : 3 * n] = g
            decisions[chunk, i] = np.where(mask[i], _distribution(x[i], params)[1].argmax(axis=1), REJECT)
            g = g + np.tanh(_versions(decisions[chunk, i], x[i], n) @ params.W_g.T)
    return decisions


def loss_and_gradients(
    vectors: SplitVectors,
    labels: np.ndarray,
    params: EditorParams,
) -> tuple[float, EditorParams]:
    """Summed soft cross-entropy of a batch of B extracts and its exact
    summed gradient, as named views into one flat vector. labels (B, L, 3)
    holds each extract's soft labels, padded like its vectors.

    Each example's loss is -(1/l) sum_i sum_k y_ik log p_ik over its l steps,
    with p clamped below at LOG_CLAMP. The pass is teacher-forced: every
    step takes the argmax of its label, ties E > A > R. The discrete
    decisions are treated as constants of the backward pass; sentence
    vectors are frozen.
    """
    if labels.shape != vectors.e.shape[:2] + (3,) or not len(labels):
        raise ValueError("need one (L, 3) label array per extract, and at least one extract")
    n, m = params.n, params.m
    B, L = labels.shape[:2]
    y = np.ascontiguousarray(labels.transpose(1, 0, 2))  # step-major, as the run
    run = forward(vectors, params, y.argmax(axis=2))
    lengths = vectors.lengths
    # Each example's loss sums its steps' terms as one row, in the order
    # np.sum takes over an (l, 3) array (y is 0 on the padded steps, so they
    # add zeros); the batch's losses are added in order.
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
    grad = EditorParams(m, n)
    np.matmul(dz.T, run.x.reshape(-1, 4 * n), out=grad.W_c)
    dz.sum(axis=0, out=grad.b_c)
    np.matmul(du.T, t, out=grad.V)
    du.sum(axis=0, out=grad.b)
    np.matmul(dq.T, run.h.reshape(-1, n), out=grad.W_g)
    np.matmul(dzd.T, vectors.e_bar, out=grad.W_d)
    dzd.sum(axis=0, out=grad.b_d)
    return loss, grad


CHECKPOINT_VERSION = 3


def save_checkpoint(params: EditorParams, encoder_config: EncoderConfig, path) -> None:
    """Write the editor and its encoder settings as one JSON object: the
    version, `m`, `n` (the one width of editor and encoder), `hash_seed`, and
    each parameter as the hex text of its little-endian float64 words in
    row-major order, so `load_checkpoint` reads back the exact bits."""
    if encoder_config.n != params.n:
        raise ValueError("encoder width disagrees with editor n")
    payload: dict = {"version": CHECKPOINT_VERSION, "m": params.m, "n": params.n, "hash_seed": encoder_config.hash_seed}
    for name in PARAM_NAMES:
        payload[name] = getattr(params, name).astype("<f8").tobytes().hex()
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _field(obj: dict, key: str):
    if key not in obj:
        raise ValueError(f"checkpoint has no {key!r}")
    return obj[key]


def load_checkpoint(path) -> tuple[EditorParams, EncoderConfig]:
    """The editor and encoder settings a checkpoint holds (`n` is the width
    of both). A file that is not a checkpoint of this version raises
    ValueError naming it."""
    from .encoder import EncoderConfig

    payload = read_json_object(path)
    try:
        if (version := payload.get("version")) != CHECKPOINT_VERSION:
            raise ValueError(f"checkpoint version {version!r} is not supported; re-run sumedit train")
        m, n = (_field(payload, key) for key in ("m", "n"))
        for key, value in (("m", m), ("n", n)):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"checkpoint {key} must be a positive integer, got {value!r}")
        words = []
        for name, shape in param_shapes(m, n).items():
            value, size = _field(payload, name), 8 * math.prod(shape)
            try:  # fromhex skips whitespace, so the byte count is checked too
                words.append(bytes.fromhex(value) if isinstance(value, str) and len(value) == 2 * size else b"")
            except ValueError:
                words.append(b"")
            if len(words[-1]) != size:
                raise ValueError(f"{name} is not the hex text of float64 words of shape {shape}")
        # a fresh, writable native array: frombuffer alone is a read-only view
        params = EditorParams(m, n, np.frombuffer(b"".join(words), dtype="<f8").astype(np.float64))
        params.validate()
        config = EncoderConfig(n=n, hash_seed=_field(payload, "hash_seed"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return params, config
