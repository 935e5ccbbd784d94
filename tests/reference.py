"""Slow references shared by several test modules."""
import numpy as np

from sumedit.editor import LOG_CLAMP


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
