"""Synthetic data generation for the two-period noncompliance design.

Each unit is generated from its own named substream so that the draw layout
is fixed: covariates, then the compliance label, then one noise draw per
potential cell (always all six, whether or not the type defines them), then
the two assignment coins.  Because every unit consumes the same number of
draws in the same order, flipping assignments leaves all potential-outcome
noise unchanged, which is what makes counterfactual-stability checks with
common random numbers possible.

That per-unit layout is all the per-unit loop does: it fills draw buffers.
Labels, receipts and cells are then computed column by column, with the same
floating-point operations in the same order as one unit at a time, so every
seed gives the same dataset and sidecar, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

import numpy as np

from .domain import (
    AT,
    CANONICAL_X2_MASK,
    CANONICAL_Y_MASK,
    CO,
    COMPLIANCE_ORDER,
    DEFAULT_CONTRAST,
    NT,
    Contrast,
    Dataset,
    Y_CELLS,
    y_cell_index,
)
from .errors import InvalidConfig, NoCompliers, TooLarge, UndefinedCell
from .model import dots, inverse_cdf_draw, logit_design
from .rng import substream


def _set_logit_rows(spec, names: Tuple[str, str], key: str) -> None:
    """Check a logit spec's two coefficient rows (finite, one length p+1)
    and store them as read-only float vectors."""
    rows = [np.asarray(getattr(spec, k), dtype=float).reshape(-1) for k in names]
    if rows[0].shape != rows[1].shape or rows[0].shape[0] < 1:
        raise InvalidConfig(f"{key}: logit rows must share length p+1")
    if not np.isfinite(rows).all():
        raise InvalidConfig(f"{key}: logit rows must be finite")
    for k, row in zip(names, rows):
        row.flags.writeable = False
        object.__setattr__(spec, k, row)


def _same_rows(a, b, *names: str) -> bool:
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in names)


@dataclass(frozen=True, eq=False)
class ConstantCompliance:
    """Covariate-free stratum probabilities in (nt, co, at) order."""

    probs: Tuple[float, float, float]

    def __post_init__(self):
        probs = tuple(float(v) for v in self.probs)
        if len(probs) != 3:
            raise InvalidConfig("compliance_probs: need exactly 3 probabilities")
        if any(v < 0 for v in probs):
            raise InvalidConfig("compliance_probs: probabilities must be non-negative")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise InvalidConfig(
                f"compliance_probs: must sum to 1 within 1e-12, got {sum(probs)!r}"
            )
        object.__setattr__(self, "probs", probs)

    def stratum_probs(self, X1: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.probs), (X1.shape[0], 3))

    def __eq__(self, other):
        return isinstance(other, ConstantCompliance) and self.probs == other.probs

    def __hash__(self):
        return hash(self.probs)


@dataclass(frozen=True, eq=False)
class LogitCompliance:
    """Multinomial-logit stratum model with the complier as baseline."""

    gamma_nt: np.ndarray
    gamma_at: np.ndarray

    def __post_init__(self):
        _set_logit_rows(self, ("gamma_nt", "gamma_at"), "compliance_probs")

    def stratum_probs(self, X1: np.ndarray) -> np.ndarray:
        U = logit_design(X1)
        l_nt, l_at = dots(U, self.gamma_nt), dots(U, self.gamma_at)
        m = np.maximum(np.maximum(l_nt, 0.0), l_at)
        w = np.column_stack([np.exp(l_nt - m), np.exp(0.0 - m), np.exp(l_at - m)])
        # summed left to right, as the sum of a length-3 row is
        return w / ((w[:, 0] + w[:, 1]) + w[:, 2])[:, None]

    def __eq__(self, other):
        return isinstance(other, LogitCompliance) and _same_rows(self, other, "gamma_nt", "gamma_at")


ComplianceSpec = Union[ConstantCompliance, LogitCompliance]


@dataclass(frozen=True, eq=False)
class ConstantAssignment:
    """Covariate-free assignment probabilities for the two periods."""

    pi_z1: float
    pi_z2: float

    def __post_init__(self):
        for name in ("pi_z1", "pi_z2"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise InvalidConfig(f"assignment_probs: {name} must lie in [0, 1], got {v}")
            object.__setattr__(self, name, v)

    def assignment_probs(self, X1: np.ndarray) -> Tuple[float, float]:
        return self.pi_z1, self.pi_z2

    def __eq__(self, other):
        return (isinstance(other, ConstantAssignment)
                and (self.pi_z1, self.pi_z2) == (other.pi_z1, other.pi_z2))

    def __hash__(self):
        return hash((self.pi_z1, self.pi_z2))


@dataclass(frozen=True, eq=False)
class LogitAssignment:
    """Logistic-in-covariates assignment probabilities, one row per period."""

    coef_z1: np.ndarray
    coef_z2: np.ndarray

    def __post_init__(self):
        _set_logit_rows(self, ("coef_z1", "coef_z2"), "assignment_probs")

    def assignment_probs(self, X1: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        U = logit_design(X1)
        return tuple(1.0 / (1.0 + np.exp(-dots(U, c))) for c in (self.coef_z1, self.coef_z2))

    def __eq__(self, other):
        return isinstance(other, LogitAssignment) and _same_rows(self, other, "coef_z1", "coef_z2")


AssignmentSpec = Union[ConstantAssignment, LogitAssignment]


def default_intermediate_coeffs(p: int) -> np.ndarray:
    """[intercept, x1 slopes, w1, alwaystaker shift, nevertaker shift]."""
    return np.array([0.5] + [0.3] * p + [1.0, 0.5, -0.5])


def default_outcome_coeffs(p: int) -> np.ndarray:
    """[intercept, x1 slopes, x2, w1, w2, w1*w2, alwaystaker, nevertaker]."""
    return np.array([0.0] + [0.3] * p + [0.5, 0.4, 0.6, 0.3, 0.8, -0.8])


@dataclass(frozen=True, eq=False)
class DgpConfig:
    """Everything the simulator needs; all randomness comes from `seed`.

    all_cells=True switches on the diagnostic mode that also draws the
    potential cells the assumptions leave undefined for nevertakers and
    alwaystakers, so sample-average effects over every unit are computable.
    """

    n: int
    seed: int
    p: int = 1
    compliance_probs: ComplianceSpec = ConstantCompliance((0.2, 0.6, 0.2))
    assignment_probs: AssignmentSpec = ConstantAssignment(0.5, 0.5)
    intermediate_coeffs: Optional[np.ndarray] = None
    intermediate_noise_sd: float = 1.0
    outcome_coeffs: Optional[np.ndarray] = None
    outcome_noise_sd: float = 1.0
    all_cells: bool = False

    def __post_init__(self):
        if int(self.n) < 1:
            raise InvalidConfig(f"n: must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if int(self.p) < 0:
            raise InvalidConfig(f"p: must be >= 0, got {self.p}")
        object.__setattr__(self, "p", int(self.p))
        if not 0 <= int(self.seed) < 2 ** 64:
            raise InvalidConfig(f"seed: must be a 64-bit unsigned integer, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        for key, kinds in (("compliance_probs", (ConstantCompliance, LogitCompliance)),
                           ("assignment_probs", (ConstantAssignment, LogitAssignment))):
            spec = getattr(self, key)
            if not isinstance(spec, kinds):
                raise InvalidConfig(f"{key}: expected a {key.split('_')[0]} spec")
            # the coefficient rows of a logit spec
            rows = [v for v in vars(spec).values() if isinstance(v, np.ndarray)]
            if rows and rows[0].shape[0] != self.p + 1:
                raise InvalidConfig(f"{key}: logit rows must have length p+1={self.p + 1}")
        for key, default, extra in (("intermediate_coeffs", default_intermediate_coeffs, 4),
                                    ("outcome_coeffs", default_outcome_coeffs, 7)):
            v = getattr(self, key)
            if v is None:
                try:
                    v = default(self.p)
                except (MemoryError, OverflowError):
                    raise TooLarge(f"p: {key} of length p+{extra} does not fit in memory") from None
            v = np.array(v, dtype=float)
            if v.shape != (self.p + extra,):
                raise InvalidConfig(f"{key}: must have length p+{extra}={self.p + extra}, "
                                    f"got {v.shape[0]}")
            if not np.all(np.isfinite(v)):
                raise InvalidConfig(f"{key}: must be finite")
            v.flags.writeable = False
            object.__setattr__(self, key, v)
        for name in ("intermediate_noise_sd", "outcome_noise_sd"):
            v = float(getattr(self, name))
            if not (np.isfinite(v) and v > 0):
                raise InvalidConfig(f"{name}: must be positive and finite, got {v}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "all_cells", bool(self.all_cells))

    def __eq__(self, other):
        if not isinstance(other, DgpConfig):
            return NotImplemented
        return (
            (self.n, self.seed, self.p, self.intermediate_noise_sd,
             self.outcome_noise_sd, self.all_cells)
            == (other.n, other.seed, other.p, other.intermediate_noise_sd,
                other.outcome_noise_sd, other.all_cells)
            and self.compliance_probs == other.compliance_probs
            and self.assignment_probs == other.assignment_probs
            and np.array_equal(self.intermediate_coeffs, other.intermediate_coeffs)
            and np.array_equal(self.outcome_coeffs, other.outcome_coeffs)
        )


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Latent side of a simulated dataset, as columns.

    codes holds each unit's compliance label as an int8 index into
    COMPLIANCE_ORDER; x2_cells (n, 2) and y_cells (n, 4, in Y_CELLS order)
    hold its potential cells, NaN where its table leaves a cell undefined.
    The arrays are made read-only.  true_late is the finite-sample complier
    contrast between receiving treatment in both periods and in neither;
    NaN when the sample holds no compliers (n_co == 0).
    """

    codes: np.ndarray
    x2_cells: np.ndarray
    y_cells: np.ndarray
    true_late: float
    n_co: int

    def __post_init__(self):
        for v in (self.codes, self.x2_cells, self.y_cells):
            v.flags.writeable = False

    def __len__(self) -> int:
        return self.codes.shape[0]


def simulate_dataset(cfg: DgpConfig) -> Tuple[Dataset, GroundTruth]:
    """Generate a dataset and its latent ground truth, deterministically.

    TooLarge when the draw buffers for cfg.n units cannot be allocated.
    """
    n, p = cfg.n, cfg.p
    alpha = cfg.intermediate_coeffs
    beta = cfg.outcome_coeffs
    try:
        X1, u_c, eps, u_z = np.empty((n, p)), np.empty(n), np.empty((n, 6)), np.empty((n, 2))
    except (MemoryError, ValueError):
        raise TooLarge(f"n: {n} units do not fit in memory") from None
    for i in range(n):
        g = substream(cfg.seed, "unit", i)
        # random() draws what uniform() would: 0.0 + 1.0 * u is u
        g.standard_normal(out=X1[i])
        u_c[i] = g.random()
        g.standard_normal(out=eps[i])         # 2 x2 cells, then 4 y cells
        g.random(out=u_z[i])

    codes = inverse_cdf_draw(cfg.compliance_probs.stratum_probs(X1), u_c).astype(np.int8)
    pi1, pi2 = cfg.assignment_probs.assignment_probs(X1)
    z1 = (u_z[:, 0] < pi1).astype(np.int8)
    z2 = (u_z[:, 1] < pi2).astype(np.int8)
    co, at = codes == CO, codes == AT
    w1 = np.where(co, z1, at).astype(np.int8)
    w2 = np.where(co, z2, at).astype(np.int8)

    atf, ntf = at.astype(float), (codes == NT).astype(float)
    dot_a, dot_b = dots(X1, alpha[1:1 + p]), dots(X1, beta[1:1 + p])
    x2_cells = np.empty((n, 2))
    for w in (0, 1):
        mu = alpha[0] + dot_a + alpha[p + 1] * w + alpha[p + 2] * atf + alpha[p + 3] * ntf
        x2_cells[:, w] = mu + cfg.intermediate_noise_sd * eps[:, w]
    y_cells = np.empty((n, 4))
    for a, b in Y_CELLS:
        k = y_cell_index(a, b)
        mu = (beta[0] + dot_b + beta[p + 1] * x2_cells[:, a] + beta[p + 2] * a
              + beta[p + 3] * b + beta[p + 4] * a * b + beta[p + 5] * atf + beta[p + 6] * ntf)
        y_cells[:, k] = mu + cfg.outcome_noise_sd * eps[:, 2 + k]
    if not cfg.all_cells:
        x2_cells[~CANONICAL_X2_MASK[codes]] = np.nan
        y_cells[~CANONICAL_Y_MASK[codes]] = np.nan

    rows = np.arange(n)
    data = Dataset(X1, z1, w1, x2_cells[rows, w1], z2, w2, y_cells[rows, 2 * w1 + w2])
    truth = GroundTruth(codes, x2_cells, y_cells, float("nan"), int(co.sum()))
    return data, replace(truth, true_late=true_sample_late(truth)) if truth.n_co else truth


def true_sample_late(gt: GroundTruth, contrast: Contrast = DEFAULT_CONTRAST) -> float:
    """Finite-sample average effect over the compliers for the given contrast."""
    if gt.n_co == 0:
        raise NoCompliers("the sample contains no compliers")
    (a1, a2), (b1, b2) = contrast
    co = gt.y_cells[gt.codes == CO]
    return float(np.mean(co[:, y_cell_index(a1, a2)] - co[:, y_cell_index(b1, b2)]))


def true_sample_sate(gt: GroundTruth, contrast: Contrast = DEFAULT_CONTRAST) -> float:
    """Finite-sample average effect over every unit.

    Requires the all-cells diagnostic tables; with canonical tables the
    needed cells are undefined for noncompliers, and UndefinedCell names
    the first (0-based) unit whose contrast cell is undefined.
    """
    (a1, a2), (b1, b2) = contrast
    treated, control = gt.y_cells[:, y_cell_index(a1, a2)], gt.y_cells[:, y_cell_index(b1, b2)]
    undefined = np.isnan(treated) | np.isnan(control)
    if undefined.any():
        i = int(np.argmax(undefined))
        cell = (a1, a2) if np.isnan(treated[i]) else (b1, b2)
        raise UndefinedCell(f"unit {i}: y cell (w1={cell[0]}, w2={cell[1]}) is undefined "
                            f"for a {COMPLIANCE_ORDER[gt.codes[i]].value} unit")
    return float(np.mean(treated - control))
