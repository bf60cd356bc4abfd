"""Row-wise references for the label layer of the sampler.

Each works on an (n, 3) matrix in (nt, co, at) order with plain numpy
reductions along its rows, with no code of the label layer it checks:
inadmissible types get log-weight -inf, so probability exactly 0.0, and a
label is an inverse-CDF draw over all three types.
"""

import numpy as np

from seqlate.gibbs import as_vector_data
from seqlate.model import Theta, observed_cell_logliks


def ref_compliance_log_prob_matrix(theta, U1):
    n = U1.shape[0]
    logits = np.column_stack([U1 @ theta.gamma_nt, np.zeros(n), U1 @ theta.gamma_at])
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    return logits - lse


def ref_log_weights(theta, vd):
    """(n, 3) label log-weights of a theta without a chain axis, -inf where
    a unit's receipts rule the type out."""
    lw = ref_compliance_log_prob_matrix(theta, vd.U1)
    lw = lw + np.ascontiguousarray(
        observed_cell_logliks(theta, vd.X1, vd.w1f, vd.w2f, vd.x2, vd.y))
    lw[~vd.consistent] = -np.inf
    return lw


def ref_normalise(lw):
    m = lw.max(axis=1, keepdims=True)
    w = np.exp(lw - m)
    return w / w.sum(axis=1, keepdims=True)


def ref_marginal_loglik(lw):
    m = lw.max(axis=1)
    tot = m + np.log(np.exp(lw - m[:, None]).sum(axis=1))
    return float(tot.sum())


def ref_admissible_block(m, consistent):
    """The (..., n, 3) matrix m at the two types of each unit's row of the
    admissible block, (..., n, 2): the units admitting {nt}, {co}, {nt, co},
    {co, at} and {at}, each group in unit order, the first three groups at
    (nt, co) and the last two at (co, at)."""
    sets = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]]
    groups = [np.flatnonzero((consistent == s).all(axis=1)) for s in sets]
    order = np.concatenate(groups)
    first = np.where(np.arange(order.size) < sum(g.size for g in groups[:3]), 0, 1)
    return np.stack([m[..., order, first], m[..., order, first + 1]], axis=-1)


def ref_vector_categorical(probs, u):
    """Per row, the number of running sums at or below u, capped at the
    last positive entry."""
    cum = np.cumsum(probs, axis=1)
    idx = (cum <= u[:, None]).sum(axis=1)
    lastpos = probs.shape[1] - 1 - np.argmax((probs > 0.0)[:, ::-1], axis=1)
    return np.minimum(idx, lastpos).astype(np.int8)


def label_posterior(theta, data):
    """(..., n, 3) exact conditional label probabilities given theta, one
    (n, 3) matrix per chain for a theta with a chain axis."""
    vd = as_vector_data(data)
    if theta.gamma_nt.ndim == 1:
        return ref_normalise(ref_log_weights(theta, vd))
    return np.stack([label_posterior(Theta.from_vector(row, theta.p), vd)
                     for row in theta.to_vector()])
