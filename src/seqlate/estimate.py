"""Reporting: posterior summaries and the naive frequentist baselines.

The baselines are deliberately what a first-pass analyst would run: an
intention-to-treat difference of assignment arms, a per-protocol difference
that keeps only units whose receipts matched their assignments, and an
as-treated difference grouping by receipt.  Their Wald intervals are for
display; no asymptotic claims are made about them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .domain import DEFAULT_CONTRAST, Contrast, Dataset
from .errors import EmptyArm, InvariantViolation, TooFewDraws

# normal 97.5% quantile, for the display-only Wald intervals
_Z975 = 1.959963984540054

METHODS = ("bayes_late", "itt", "per_protocol", "as_treated")


@dataclass(frozen=True)
class EstimateReport:
    """One method's output: point estimate, optional interval, units used."""

    method: str
    point: float
    interval: Optional[Tuple[float, float]]
    n_used: int

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvariantViolation(f"method must be one of {METHODS}, got {self.method!r}")
        if self.interval is not None:
            lo, hi = self.interval
            if not lo <= hi:
                raise InvariantViolation(f"interval must satisfy lo <= hi, got {self.interval}")
            object.__setattr__(self, "interval", (float(lo), float(hi)))
        object.__setattr__(self, "point", float(self.point))
        object.__setattr__(self, "n_used", int(self.n_used))


def summarize_posterior(draws: Sequence[float]) -> EstimateReport:
    """Posterior mean and central 95% interval of a scalar draw sequence.

    Quantiles use linear interpolation at midpoint plotting positions
    ((k - 0.5) / n).  Missing draws (NaN) are dropped first.
    """
    arr = np.asarray(draws, dtype=float).ravel()
    arr = arr[np.isfinite(arr)]
    if arr.size < 2:
        raise TooFewDraws(f"need at least 2 finite draws, got {arr.size}")
    lo, hi = np.quantile(arr, [0.025, 0.975], method="hazen")
    return EstimateReport("bayes_late", float(arr.mean()), (float(lo), float(hi)), arr.size)


def _two_group_report(method: str, y1: np.ndarray, y0: np.ndarray,
                      label1: str, label0: str) -> EstimateReport:
    if y1.size == 0:
        raise EmptyArm(f"{method}: arm {label1} contains no units")
    if y0.size == 0:
        raise EmptyArm(f"{method}: arm {label0} contains no units")
    point = float(y1.mean() - y0.mean())
    n1, n0 = y1.size, y0.size
    df = n1 + n0 - 2
    if df < 1:
        interval = None
    else:
        # pooled-variance Wald interval, display only
        ss = float(((y1 - y1.mean()) ** 2).sum() + ((y0 - y0.mean()) ** 2).sum())
        sp = np.sqrt(ss / df)
        se = sp * np.sqrt(1.0 / n1 + 1.0 / n0)
        interval = (point - _Z975 * se, point + _Z975 * se)
    return EstimateReport(method, point, interval, n1 + n0)


def itt_estimate(data: Dataset, arms: Contrast = DEFAULT_CONTRAST) -> EstimateReport:
    """Difference of outcome means between two assignment arms (z1, z2)."""
    (a1, a2), (b1, b2) = arms
    in1 = (data.z1 == a1) & (data.z2 == a2)
    in0 = (data.z1 == b1) & (data.z2 == b2)
    return _two_group_report("itt", data.y[in1], data.y[in0],
                             f"z=({a1},{a2})", f"z=({b1},{b2})")


def per_protocol_estimate(data: Dataset, arms: Contrast = DEFAULT_CONTRAST) -> EstimateReport:
    """ITT computed only on units whose receipts equal their assignments."""
    kept = (data.w1 == data.z1) & (data.w2 == data.z2)
    (a1, a2), (b1, b2) = arms
    in1 = kept & (data.z1 == a1) & (data.z2 == a2)
    in0 = kept & (data.z1 == b1) & (data.z2 == b2)
    return _two_group_report("per_protocol", data.y[in1], data.y[in0],
                             f"z=({a1},{a2})", f"z=({b1},{b2})")


def as_treated_estimate(data: Dataset, arms: Contrast = DEFAULT_CONTRAST) -> EstimateReport:
    """Difference of outcome means between two receipt groups (w1, w2)."""
    (a1, a2), (b1, b2) = arms
    in1 = (data.w1 == a1) & (data.w2 == a2)
    in0 = (data.w1 == b1) & (data.w2 == b2)
    return _two_group_report("as_treated", data.y[in1], data.y[in0],
                             f"w=({a1},{a2})", f"w=({b1},{b2})")


def compare_methods(data: Dataset, late_draws: Sequence[float],
                    arms: Contrast = DEFAULT_CONTRAST,
                    true_late: Optional[float] = None) -> List[dict]:
    """Rows for the method-comparison table, one dict per method."""
    reports = [
        summarize_posterior(late_draws),
        itt_estimate(data, arms),
        per_protocol_estimate(data, arms),
        as_treated_estimate(data, arms),
    ]
    rows = []
    for rep in reports:
        row = {
            "method": rep.method,
            "point": rep.point,
            "lo": rep.interval[0] if rep.interval else None,
            "hi": rep.interval[1] if rep.interval else None,
            "n_used": rep.n_used,
        }
        if true_late is not None:
            row["bias"] = rep.point - true_late
        rows.append(row)
    return rows
