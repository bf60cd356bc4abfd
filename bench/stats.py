"""Convergence diagnostics owned by the benchmark.

These are computed from ``draws.csv`` with code that shares nothing with
``seqlate.validate``, so a later change to the program's own diagnostics
does not redefine the benchmark's effective-sample-size metrics.

ess:   multi-chain effective sample size (BDA3 section 11.5): the
       autocorrelation at each lag is combined across chains through the
       within- and between-chain variances, and the sum is truncated with
       Geyer's initial monotone sequence.
rhat:  split-chain potential scale reduction factor (BDA3 section 11.4).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of one sequence at lags 0..n-1, by FFT."""
    n = x.size
    xc = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, nfft)
    return np.fft.irfft(f * np.conj(f), nfft)[:n] / n


def _as_chains(chains: Sequence[Sequence[float]]) -> np.ndarray:
    mat = np.asarray([np.asarray(c, dtype=float) for c in chains])
    if mat.ndim != 2 or mat.shape[1] < 4:
        raise ValueError("need equal-length chains of at least 4 draws")
    if not np.all(np.isfinite(mat)):
        raise ValueError("draws must be finite")
    return mat


def ess(chains: Sequence[Sequence[float]]) -> float:
    """Effective sample size of m equal-length chains taken together."""
    mat = _as_chains(chains)
    m, n = mat.shape
    acov = np.array([_autocovariance(row) for row in mat])
    chain_var = acov[:, 0] * n / (n - 1.0)
    w = float(chain_var.mean())
    var_plus = w * (n - 1.0) / n
    if m > 1:
        var_plus += float(mat.mean(axis=1).var(ddof=1))
    if var_plus == 0.0:
        return float(m * n)
    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: sums of adjacent-lag pairs are positive and non-increasing for
    # a reversible chain; stop at the first non-positive pair
    pairs = rho[0:n - 1:2] + rho[1:n:2]
    k = 0
    while k < pairs.size and pairs[k] > 0.0:
        k += 1
    tau = -1.0 + 2.0 * float(np.minimum.accumulate(pairs[:k]).sum()) if k else 1.0
    # strongly antithetic chains can drive tau towards 0; cap ESS at
    # m*n*log10(m*n) as Stan does
    tau = max(tau, 1.0 / math.log10(m * n))
    return m * n / tau


def rhat(chains: Sequence[Sequence[float]]) -> float:
    """Split R-hat: each chain is halved, then sqrt(var_plus / W)."""
    mat = _as_chains(chains)
    half = mat.shape[1] // 2
    split = np.vstack([mat[:, :half], mat[:, mat.shape[1] - half:]])
    n = split.shape[1]
    w = float(split.var(axis=1, ddof=1).mean())
    b = n * float(split.mean(axis=1).var(ddof=1))
    if w == 0.0:
        return 1.0 if b == 0.0 else math.inf
    return math.sqrt(((n - 1.0) / n * w + b / n) / w)


def hazen_quantile(sorted_values: Sequence[float], q: float) -> float:
    """Quantile by linear interpolation at plotting positions (k - 0.5) / n."""
    n = len(sorted_values)
    h = n * q + 0.5
    lo = min(max(int(math.floor(h)), 1), n)
    hi = min(lo + 1, n)
    frac = min(max(h - math.floor(h), 0.0), 1.0) if 1 <= h < n else 0.0
    a, b = sorted_values[lo - 1], sorted_values[hi - 1]
    return a + frac * (b - a)
