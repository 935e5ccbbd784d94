"""Slow references shared by several test modules."""
import numpy as np

from sumedit.editor import ABSTRACT, EXTRACT, LOG_CLAMP, REJECT, ForwardPass


def soft_cross_entropy(distributions, labels) -> float:
    """One example's loss: -(1/l) sum_i sum_k y_ik log p_ik, with p clamped
    below for finiteness. `editor.loss_and_gradients` sums it over a batch."""
    p = np.asarray(distributions, dtype=float)
    y = np.asarray(labels, dtype=float)
    if len(p) != len(y):
        raise ValueError("distributions and labels differ in length")
    if not len(p):
        raise ValueError("need at least one step")
    return -float(np.sum(y * np.log(np.maximum(p, LOG_CLAMP)))) / len(p)


def stepwise_forward(vectors, params, forced=None) -> ForwardPass:
    """Slow reference for `editor.forward`: the batched recurrence one step
    at a time, g_{i+1} = g_i + q_i after step i's distribution, with or
    without forced (L, B) decisions."""
    n, m = params.n, params.m
    B, L = vectors.e.shape[:2]
    mask = np.arange(L)[:, None] < vectors.lengths
    d = np.tanh(vectors.e_bar @ params.W_d.T + params.b_d)
    x = np.zeros((L, B, 4 * n))
    x[:, :, :n] = vectors.e.transpose(1, 0, 2)
    x[:, :, n : 2 * n] = vectors.a.transpose(1, 0, 2)
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
        decisions[i] = np.where(mask[i], chosen, REJECT)
        h[i] = np.where(
            (decisions[i] == EXTRACT)[:, None],
            x[i, :, :n],
            np.where((decisions[i] == ABSTRACT)[:, None], x[i, :, n : 2 * n], 0.0),
        )
        q[i] = np.tanh(h[i] @ params.W_g.T)
        g[i + 1] = g[i] + q[i]
    return ForwardPass(d, g, x, t, p, decisions, h, q, mask)
