"""The editing network: per-sentence keep/abstract/reject decisions.

Per step the network sees [e, a, g_prev, d] (extracted and abstracted
sentence vectors, running summary state, document vector), produces a
three-way softmax over {E, A, R} through two fully-connected layers, and
updates the additive summary state through tanh(W_g @ h) where h follows the
chosen sentence version. The recurrence, including the document vector
d = tanh(W_d @ mean(e) + b_d), runs over a padded, step-major batch of
extracts, and the padded steps past an extract's end count as REJECT.
`decode` runs it free (argmax of p) over `encoder.SplitVectors`, one matrix
product per step for the whole batch, and returns decision arrays. Training
runs it teacher-forced over a `Batch`, whose decisions (the best sequence
that the soft labels are conditioned on) fix every state before the pass:
`forward` computes the states as a prefix sum and each product as one
stacked expression over all the steps, and the backward pass of
`loss_and_gradients` computes each weight gradient as one matrix product
over all the batch's steps, into a gradient the caller reuses. Both work in
place in the arrays they make, with the float operations, in the same
order, of the slow reference in `tests/reference.py`. Training minimizes a
soft cross-entropy against enumeration-derived label distributions;
gradients are exact and analytic (the base sentence encoder is frozen). The
parameters, and a gradient, are named views into one flat vector
(`EditorParams`).
"""
from __future__ import annotations

import functools
import json
import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import text
from .encoder import EncoderConfig, SplitVectors, encode_split
from .text import ABSTRACT, EXTRACT, REJECT, Document, atomic_open, read_json_object

if TYPE_CHECKING:
    # `train` and `evaluate` do not import `summarizers`
    from .summarizers import Abstractor, ExtractResult
    from .trainer import Stream

LOG_CLAMP = 1e-12

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


def init_params(m: int, n: int, rng: Stream | np.random.Generator) -> EditorParams:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] matrices drawn from `rng`
    in PARAM_NAMES order, zero biases."""
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

    `summarize` calls the abstractor through this function, which the
    benchmark's tracer (perfbench) wraps by name; `label` calls
    `summarizers.abstract_extract` itself, so that it imports no network
    code."""
    return abstractor(document, extract)


def context_from_abstractions(
    document: Document,
    extract: ExtractResult,
    abstractions: Sequence[Sequence[str]],
    config: EncoderConfig,
) -> SplitVectors:
    """The vectors of one example: `encode_split` of a one-document split."""
    return encode_split([document], [extract.order], [abstractions], config)


class Batch:
    """The teacher-forced inputs of B extracts padded to L steps, step-major:
    `ea`, `e_bar` and `lengths` as in `encoder.SplitVectors`; `mask` (L, B)
    marks the steps inside each extract, `h` (L, B, n) holds the version that
    each forced decision puts into the state (e on EXTRACT, a on ABSTRACT,
    zeros on REJECT and past the extract's end) and `y` (L, B, 3) the soft
    labels, zero past the end. `forced_batch` builds a split's record once,
    and `take` cuts a batch from it."""

    __slots__ = ("ea", "e_bar", "lengths", "mask", "h", "y")

    def __init__(self, ea, e_bar, lengths, mask, h, y):
        self.ea = ea
        self.e_bar = e_bar
        self.lengths = lengths
        self.mask = mask
        self.h = h
        self.y = y

    def take(self, index: np.ndarray) -> "Batch":
        """The extracts at the index array `index`, cut to the longest of
        them: one fancy index per array."""
        lengths = self.lengths[index]
        L = int(lengths.max())
        ea, mask, h, y = (a[:L].take(index, axis=1) for a in (self.ea, self.mask, self.h, self.y))
        return Batch(ea, self.e_bar[index], lengths, mask, h, y)


def _versions(decisions: np.ndarray, ea: np.ndarray, n: int) -> np.ndarray:
    """The sentence version each decision puts into the state: e on
    EXTRACT, a on ABSTRACT, zeros on REJECT."""
    return np.where(
        (decisions == EXTRACT)[..., None],
        ea[..., :n],
        np.where((decisions == ABSTRACT)[..., None], ea[..., n : 2 * n], 0.0),
    )


def forced_batch(vectors: SplitVectors, decisions: np.ndarray, labels: np.ndarray) -> Batch:
    """The `Batch` of a whole non-empty split: decisions (L, N) gives the
    decision index forced at every step and labels (L, N, 3) the soft
    labels, both padded like the vectors (the decisions past an extract's
    end are REJECT whatever they hold)."""
    L, N, n2 = vectors.ea.shape
    if labels.shape != (L, N, 3) or decisions.shape != (L, N) or not N:
        raise ValueError("need L decisions and an (L, 3) label array per extract, and at least one extract")
    mask = np.arange(L)[:, None] < vectors.lengths
    h = _versions(np.where(mask, decisions, REJECT), vectors.ea, n2 // 2)
    return Batch(vectors.ea, vectors.e_bar, vectors.lengths, mask, h, np.ascontiguousarray(labels))


class ForwardPass:
    """One teacher-forced run (`forward`) of the recurrence over a `Batch`;
    arrays are step-major.

    `d` (B, n) holds the document vectors and `g` (L + 1, B, n) the states
    g_0 ... g_L. Per step i: the input `x` (L, B, 4n), the hidden activation
    `t` (L, B, m), the distribution `p` (L, B, 3) and the state increment
    `q` = tanh(W_g h) (L, B, n), zero on REJECT.
    """

    __slots__ = ("d", "g", "x", "t", "p", "q")

    def __init__(self, d, g, x, t, p, q):
        self.d = d
        self.g = g
        self.x = x
        self.t = t
        self.p = p
        self.q = q


def _distribution(x: np.ndarray, params: EditorParams) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activation t and distribution p of inputs x (..., B, 4n); a
    stacked x keeps one (B, 4n) @ (4n, m) product per step. Each step is
    computed in place in the array it makes."""
    t = x @ params.W_c.T
    t += params.b_c
    np.tanh(t, out=t)
    p = t @ params.V.T
    p += params.b
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return t, p


def _document_vectors(e_bar: np.ndarray, params: EditorParams) -> np.ndarray:
    """d = tanh(W_d e_bar + b_d), (B, n)."""
    d = e_bar @ params.W_d.T
    d += params.b_d
    return np.tanh(d, out=d)


def forward(batch: Batch, params: EditorParams) -> ForwardPass:
    """Run the editor teacher-forced over a batch of extracts, along the
    decisions its versions `h` were forced by.

    p_i = softmax(V tanh(W_c [e_i, a_i, g_i, d] + b_c) + b), d = tanh(W_d e_bar
    + b_d), and g_{i+1} = g_i + tanh(W_g h_i) with h_i the extracted (E) or
    abstracted (A) sentence vector; on REJECT, and on every padded step,
    g_{i+1} is g_i itself.

    The decisions fix every h_i before the pass, so the states are a prefix
    sum of the increments and the whole pass is computed at once, each
    product stacked over the steps. `decode` takes the same steps one at a
    time.
    """
    n = params.n
    L, B = batch.mask.shape
    d = _document_vectors(batch.e_bar, params)
    # tanh(W_g 0) is exactly 0, so REJECT leaves the state as it is
    q = batch.h @ params.W_g.T
    np.tanh(q, out=q)
    g = np.zeros((L + 1, B, n))
    # adds left to right, g_{i+1} = g_i + q_i as `decode` adds
    q.cumsum(axis=0, out=g[1:])
    x = np.empty((L, B, 4 * n))
    x[:, :, : 2 * n] = batch.ea
    x[:, :, 2 * n : 3 * n] = g[:-1]
    x[:, :, 3 * n :] = d
    t, p = _distribution(x, params)
    return ForwardPass(d, g, x, t, p, q)


def decode(vectors: SplitVectors, params: EditorParams) -> np.ndarray:
    """Greedy free-running decode of every extract in batched passes of at
    most `text.DECODE_CHUNK` extracts: argmax decision per step, ties
    E > A > R. Step i needs p_i, so the steps run one after another, and a
    pass keeps only the running state, one step's inputs and the decisions.

    Returns the decisions (N, L), indices into `text.DECISIONS`, REJECT past
    each extract's end.
    """
    N = len(vectors.lengths)
    n = params.n
    decisions = np.full((N, vectors.ea.shape[0]), REJECT, dtype=np.intp)
    for start in range(0, N, text.DECODE_CHUNK):
        chunk = slice(start, start + text.DECODE_CHUNK)
        lengths = vectors.lengths[chunk]
        x = np.empty((len(lengths), 4 * n))
        x[:, 2 * n : 3 * n] = 0.0
        x[:, 3 * n :] = _document_vectors(vectors.e_bar[chunk], params)
        for i in range(int(lengths.max())):
            x[:, : 2 * n] = vectors.ea[i, chunk]
            decisions[chunk, i] = np.where(i < lengths, _distribution(x, params)[1].argmax(axis=1), REJECT)
            x[:, 2 * n : 3 * n] += np.tanh(_versions(decisions[chunk, i], x, n) @ params.W_g.T)
    return decisions


def loss_and_gradients(batch: Batch, params: EditorParams, grad: EditorParams) -> tuple[float, EditorParams]:
    """Summed soft cross-entropy of a batch of B extracts, and its exact
    summed gradient written into `grad`, which every batch may reuse.

    Each example's loss is -(1/l) sum_i sum_k y_ik log p_ik over its l steps,
    with p clamped below at LOG_CLAMP. The pass is teacher-forced: step i
    takes the decision the batch was forced along. `oracle.soft_labels`
    conditions step i's label on the best sequence's first i decisions, so
    training forces that sequence: the state g_i then holds the prefix the
    label describes. The discrete decisions are treated as constants of the
    backward pass; sentence vectors are frozen. The backward pass computes
    each weight gradient as one matrix product over all the batch's steps,
    and it overwrites the forward pass's arrays, which it does not return.
    """
    n, m = params.n, params.m
    L, B = batch.mask.shape
    lengths = batch.lengths
    run = forward(batch, params)
    # Each example's loss sums its steps' terms as one row, in the order
    # np.sum takes over an (l, 3) array (y is 0 on the padded steps, so they
    # add zeros); the batch's losses are added in order.
    terms = np.maximum(run.p, LOG_CLAMP)
    np.log(terms, out=terms)
    terms *= batch.y
    losses = -terms.transpose(1, 0, 2).reshape(B, -1).sum(axis=1) / lengths
    loss = float(losses.cumsum()[-1])

    du = np.subtract(run.p, batch.y, out=terms)
    du /= lengths[:, None]
    du *= batch.mask[:, :, None]
    du = du.reshape(-1, 3)
    t = run.t.reshape(-1, m)
    np.matmul(du.T, t, out=grad.V)
    du.sum(axis=0, out=grad.b)
    dz = du @ params.V
    dz *= _one_minus_square(t)
    dx = (dz @ params.W_c).reshape(L, B, 4 * n)
    # dL/dg_{i+1}: g_{i+1} enters the inputs of steps i+1 .. L-1
    G = np.zeros((L, B, n))
    dx[:0:-1, :, 2 * n : 3 * n].cumsum(axis=0, out=G[-2::-1])
    dq = _one_minus_square(run.q)
    dq *= G
    dzd = dx[:, :, 3 * n :].sum(axis=0)
    dzd *= _one_minus_square(run.d)
    np.matmul(dz.T, run.x.reshape(-1, 4 * n), out=grad.W_c)
    dz.sum(axis=0, out=grad.b_c)
    np.matmul(dq.reshape(-1, n).T, batch.h.reshape(-1, n), out=grad.W_g)
    np.matmul(dzd.T, batch.e_bar, out=grad.W_d)
    dzd.sum(axis=0, out=grad.b_d)
    return loss, grad


def _one_minus_square(a: np.ndarray) -> np.ndarray:
    """1 - a**2, computed in place in `a`."""
    np.square(a, out=a)
    return np.subtract(1, a, out=a)


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
