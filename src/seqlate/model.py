"""Parametric model: compliance mixture, cell densities, prior.

The latent compliance label follows a multinomial logit on the baseline
covariates with the complier as reference category.  The intermediate
outcome is linear in (x1, w1, stratum indicators) with Gaussian noise, and
the final outcome is linear in (x1, x2, w1, w2, w1*w2, stratum indicators)
with Gaussian noise.  All likelihood code works on the log scale.

Design-row layouts (fixed everywhere, including the simulator):

  intermediate: [1, x1..., w1, 1(alwaystaker), 1(nevertaker)]      -> len p+4
  outcome:      [1, x1..., x2, w1, w2, w1*w2, 1(at), 1(nt)]        -> len p+7
  logit rows:   [1, x1...]                                         -> len p+1
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .domain import (
    COMPLIANCE_CODE,
    COMPLIANCE_ORDER,
    ComplianceType,
    ObservedUnit,
    consistent_types,
)
from .errors import (
    DimensionMismatch,
    InconsistentUnit,
    InvalidConfig,
    InvariantViolation,
)

LOG_2PI = math.log(2.0 * math.pi)

# instrumentation: when set, called as hook(factor_kind, compliance_type)
# every time a cell density is evaluated.  Used to verify that marginal
# likelihood code skips types the treatment pattern rules out.
_EVAL_HOOK: Optional[Callable[[str, ComplianceType], None]] = None


@contextmanager
def density_eval_trace(records: List[Tuple[str, ComplianceType]]):
    """Record (kind, type) for every cell-density evaluation in the block."""
    global _EVAL_HOOK
    prev = _EVAL_HOOK
    _EVAL_HOOK = lambda kind, c: records.append((kind, c))
    try:
        yield records
    finally:
        _EVAL_HOOK = prev


def _check_vector(v, name: str, length: int) -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.shape[0] != length:
        raise InvariantViolation(f"{name} must have length {length}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise InvariantViolation(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Theta:
    """Full parameter vector of the mixture model.

    gamma_nt / gamma_at: multinomial-logit rows for the nevertaker and
    alwaystaker strata (complier is the zero baseline), each length p+1.
    alpha / sigma_x: intermediate-model coefficients and noise scale.
    beta / sigma_y: outcome-model coefficients and noise scale.
    """

    gamma_nt: np.ndarray
    gamma_at: np.ndarray
    alpha: np.ndarray
    sigma_x: float
    beta: np.ndarray
    sigma_y: float

    def __post_init__(self):
        gnt = np.asarray(self.gamma_nt, dtype=float).reshape(-1)
        p = gnt.shape[0] - 1
        if p < 0:
            raise InvariantViolation("gamma_nt must have at least the intercept entry")
        object.__setattr__(self, "gamma_nt", _check_vector(gnt, "gamma_nt", p + 1))
        object.__setattr__(self, "gamma_at", _check_vector(self.gamma_at, "gamma_at", p + 1))
        object.__setattr__(self, "alpha", _check_vector(self.alpha, "alpha", p + 4))
        object.__setattr__(self, "beta", _check_vector(self.beta, "beta", p + 7))
        sx = float(self.sigma_x)
        sy = float(self.sigma_y)
        if not (np.isfinite(sx) and sx > 0):
            raise InvariantViolation(f"sigma_x must be positive and finite, got {self.sigma_x}")
        if not (np.isfinite(sy) and sy > 0):
            raise InvariantViolation(f"sigma_y must be positive and finite, got {self.sigma_y}")
        object.__setattr__(self, "sigma_x", sx)
        object.__setattr__(self, "sigma_y", sy)

    @property
    def p(self) -> int:
        return self.gamma_nt.shape[0] - 1

    def coefficients(self) -> np.ndarray:
        """All regression-style coefficients, excluding the noise scales."""
        return np.concatenate([self.gamma_nt, self.gamma_at, self.alpha, self.beta])

    def to_vector(self) -> np.ndarray:
        return np.concatenate([
            self.gamma_nt, self.gamma_at, self.alpha, [self.sigma_x],
            self.beta, [self.sigma_y],
        ])

    @classmethod
    def from_vector(cls, vec: np.ndarray, p: int) -> "Theta":
        vec = np.asarray(vec, dtype=float).reshape(-1)
        if vec.shape[0] != theta_dim(p):
            raise DimensionMismatch(
                f"vector length {vec.shape[0]} does not match p={p} (need {theta_dim(p)})"
            )
        k = p + 1
        gnt, gat = vec[:k], vec[k:2 * k]
        a_end = 2 * k + p + 4
        alpha = vec[2 * k:a_end]
        sigma_x = vec[a_end]
        beta = vec[a_end + 1:a_end + 1 + p + 7]
        sigma_y = vec[-1]
        return cls(gnt, gat, alpha, sigma_x, beta, sigma_y)

    def to_dict(self) -> dict:
        return {
            "gamma_nt": self.gamma_nt.tolist(),
            "gamma_at": self.gamma_at.tolist(),
            "alpha": self.alpha.tolist(),
            "sigma_x": self.sigma_x,
            "beta": self.beta.tolist(),
            "sigma_y": self.sigma_y,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Theta":
        return cls(d["gamma_nt"], d["gamma_at"], d["alpha"], d["sigma_x"],
                   d["beta"], d["sigma_y"])

    def __eq__(self, other):
        if not isinstance(other, Theta):
            return NotImplemented
        return (np.array_equal(self.gamma_nt, other.gamma_nt)
                and np.array_equal(self.gamma_at, other.gamma_at)
                and np.array_equal(self.alpha, other.alpha)
                and self.sigma_x == other.sigma_x
                and np.array_equal(self.beta, other.beta)
                and self.sigma_y == other.sigma_y)


def theta_dim(p: int) -> int:
    return 2 * (p + 1) + (p + 4) + (p + 7) + 2


def theta_field_names(p: int) -> List[str]:
    """Flat component names matching Theta.to_vector order."""
    names = [f"gamma_nt_{j}" for j in range(p + 1)]
    names += [f"gamma_at_{j}" for j in range(p + 1)]
    names += [f"alpha_{j}" for j in range(p + 4)]
    names += ["sigma_x"]
    names += [f"beta_{j}" for j in range(p + 7)]
    names += ["sigma_y"]
    return names


@dataclass(frozen=True)
class PriorSpec:
    """Independent Normal(0, coef_sd**2) on every coefficient and
    InverseGamma(scale_shape, scale_rate) on each noise variance."""

    coef_sd: float = 5.0
    scale_shape: float = 2.0
    scale_rate: float = 1.0

    def __post_init__(self):
        for name in ("coef_sd", "scale_shape", "scale_rate"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise InvalidConfig(f"{name}: must be positive and finite, got {v}")


def _normal_logpdf(x, mean, sd):
    z = (x - mean) / sd
    return -0.5 * LOG_2PI - np.log(sd) - 0.5 * z * z


def _invgamma_logpdf(v: float, shape: float, rate: float) -> float:
    if v <= 0:
        return -np.inf
    return shape * math.log(rate) - math.lgamma(shape) - (shape + 1) * math.log(v) - rate / v


def _logit_row(theta: Theta, x1: np.ndarray) -> np.ndarray:
    x1 = np.asarray(x1, dtype=float).reshape(-1)
    if x1.shape[0] != theta.p:
        raise DimensionMismatch(
            f"x1 has length {x1.shape[0]} but theta expects p={theta.p}"
        )
    return np.concatenate([[1.0], x1])


def compliance_log_prob(theta: Theta, x1) -> np.ndarray:
    """Log stratum probabilities (nevertaker, complier, alwaystaker)."""
    u = _logit_row(theta, x1)
    logits = np.array([float(theta.gamma_nt @ u), 0.0, float(theta.gamma_at @ u)])
    m = logits.max()
    lse = m + math.log(np.exp(logits - m).sum())
    return logits - lse


def compliance_prob(theta: Theta, x1) -> np.ndarray:
    """Stratum probabilities in (nt, co, at) order; sums to one."""
    return np.exp(compliance_log_prob(theta, x1))


def treatment_lik(c: ComplianceType, z: int, w: int) -> int:
    """Point-mass likelihood of receipt w under assignment z for type c."""
    return 1 if realized_equals(c, z, w) else 0


def realized_equals(c: ComplianceType, z: int, w: int) -> bool:
    from .domain import realized_treatment

    return realized_treatment(c, int(z)) == int(w)


def _x2_mean(theta: Theta, c: ComplianceType, x1: np.ndarray, w1: int) -> float:
    p = theta.p
    a = theta.alpha
    at = 1.0 if c is ComplianceType.ALWAYSTAKER else 0.0
    nt = 1.0 if c is ComplianceType.NEVERTAKER else 0.0
    return float(a[0] + x1 @ a[1:1 + p] + a[p + 1] * w1 + a[p + 2] * at + a[p + 3] * nt)


def _y_mean(theta: Theta, c: ComplianceType, x1: np.ndarray, x2: float,
            w1: int, w2: int) -> float:
    p = theta.p
    b = theta.beta
    at = 1.0 if c is ComplianceType.ALWAYSTAKER else 0.0
    nt = 1.0 if c is ComplianceType.NEVERTAKER else 0.0
    return float(
        b[0] + x1 @ b[1:1 + p] + b[p + 1] * x2 + b[p + 2] * w1 + b[p + 3] * w2
        + b[p + 4] * w1 * w2 + b[p + 5] * at + b[p + 6] * nt
    )


def intermediate_loglik(theta: Theta, c: ComplianceType, x1, w1: int, x2: float) -> float:
    """Log density of the intermediate outcome cell x2(w1) for a type-c unit."""
    x1 = np.asarray(x1, dtype=float).reshape(-1)
    if x1.shape[0] != theta.p:
        raise DimensionMismatch(f"x1 has length {x1.shape[0]} but theta expects p={theta.p}")
    if _EVAL_HOOK is not None:
        _EVAL_HOOK("intermediate", c)
    mu = _x2_mean(theta, c, x1, int(w1))
    return float(_normal_logpdf(float(x2), mu, theta.sigma_x))


def outcome_loglik(theta: Theta, c: ComplianceType, x1, x2: float,
                   w1: int, w2: int, y: float) -> float:
    """Log density of the final outcome cell y(w1, w2) for a type-c unit.

    Assignment does not appear: given receipt and type, outcomes do not
    depend on it.
    """
    x1 = np.asarray(x1, dtype=float).reshape(-1)
    if x1.shape[0] != theta.p:
        raise DimensionMismatch(f"x1 has length {x1.shape[0]} but theta expects p={theta.p}")
    if _EVAL_HOOK is not None:
        _EVAL_HOOK("outcome", c)
    mu = _y_mean(theta, c, x1, float(x2), int(w1), int(w2))
    return float(_normal_logpdf(float(y), mu, theta.sigma_y))


def unit_marginal_loglik(theta: Theta, unit: ObservedUnit) -> float:
    """Log likelihood of one unit with the latent stratum summed out.

    Terms are accumulated only for strata the observed assignment/receipt
    pattern admits; excluded strata contribute exact zeros and their cell
    densities are never evaluated.  The sum uses a max-shifted log-sum-exp.
    """
    admissible = consistent_types(unit.z1, unit.w1, unit.z2, unit.w2)
    if not admissible:
        raise InconsistentUnit(
            f"assignment/receipt pattern (z1={unit.z1}, w1={unit.w1}, "
            f"z2={unit.z2}, w2={unit.w2}) admits no compliance type"
        )
    log_pc = compliance_log_prob(theta, unit.x1)
    terms = []
    for c in COMPLIANCE_ORDER:
        if c not in admissible:
            continue
        ll = log_pc[COMPLIANCE_CODE[c]]
        ll += intermediate_loglik(theta, c, unit.x1, unit.w1, unit.x2)
        ll += outcome_loglik(theta, c, unit.x1, unit.x2, unit.w1, unit.w2, unit.y)
        terms.append(ll)
    m = max(terms)
    return float(m + math.log(sum(math.exp(t - m) for t in terms)))


def unit_marginal_grad(theta: Theta, unit: ObservedUnit) -> np.ndarray:
    """Gradient of unit_marginal_loglik in Theta.to_vector() layout.

    Uses stratum responsibilities: grad = sum_c r_c * grad(log term_c),
    where r_c is the softmax weight of admissible stratum c.
    """
    admissible = consistent_types(unit.z1, unit.w1, unit.z2, unit.w2)
    if not admissible:
        raise InconsistentUnit("unit admits no compliance type")
    p = theta.p
    x1 = unit.x1
    u = np.concatenate([[1.0], x1])
    log_pc = compliance_log_prob(theta, unit.x1)
    pc = np.exp(log_pc)

    codes = [COMPLIANCE_CODE[c] for c in COMPLIANCE_ORDER if c in admissible]
    types = [c for c in COMPLIANCE_ORDER if c in admissible]
    terms = np.empty(len(types))
    for j, c in enumerate(types):
        terms[j] = (log_pc[COMPLIANCE_CODE[c]]
                    + intermediate_loglik(theta, c, x1, unit.w1, unit.x2)
                    + outcome_loglik(theta, c, x1, unit.x2, unit.w1, unit.w2, unit.y))
    m = terms.max()
    w = np.exp(terms - m)
    resp = w / w.sum()

    r_by_code = np.zeros(3)
    for j, code in enumerate(codes):
        r_by_code[code] = resp[j]

    # multinomial-logit rows: d log P(c) / d gamma_g = (1[c=g] - p_g) * u
    g_nt = (r_by_code[0] - pc[0]) * u
    g_at = (r_by_code[2] - pc[2]) * u

    g_alpha = np.zeros(p + 4)
    g_sigma_x = 0.0
    g_beta = np.zeros(p + 7)
    g_sigma_y = 0.0
    sx, sy = theta.sigma_x, theta.sigma_y
    for j, c in enumerate(types):
        at = 1.0 if c is ComplianceType.ALWAYSTAKER else 0.0
        nt = 1.0 if c is ComplianceType.NEVERTAKER else 0.0
        dx = np.concatenate([[1.0], x1, [unit.w1, at, nt]])
        rx = unit.x2 - _x2_mean(theta, c, x1, unit.w1)
        g_alpha += resp[j] * rx / sx ** 2 * dx
        g_sigma_x += resp[j] * (rx * rx / sx ** 3 - 1.0 / sx)
        dy = np.concatenate([[1.0], x1, [unit.x2, unit.w1, unit.w2,
                                         unit.w1 * unit.w2, at, nt]])
        ry = unit.y - _y_mean(theta, c, x1, unit.x2, unit.w1, unit.w2)
        g_beta += resp[j] * ry / sy ** 2 * dy
        g_sigma_y += resp[j] * (ry * ry / sy ** 3 - 1.0 / sy)

    return np.concatenate([g_nt, g_at, g_alpha, [g_sigma_x], g_beta, [g_sigma_y]])


def log_prior(theta: Theta, prior: PriorSpec) -> float:
    """Log prior density: Normal on coefficients, InverseGamma on variances."""
    coefs = theta.coefficients()
    lp = float(np.sum(_normal_logpdf(coefs, 0.0, prior.coef_sd)))
    lp += _invgamma_logpdf(theta.sigma_x ** 2, prior.scale_shape, prior.scale_rate)
    lp += _invgamma_logpdf(theta.sigma_y ** 2, prior.scale_shape, prior.scale_rate)
    return lp


# ---------------------------------------------------------------------------
# vectorized helpers shared by the sampler and the enumeration oracle driver
# ---------------------------------------------------------------------------

def logit_design(X1: np.ndarray) -> np.ndarray:
    """Prepend the intercept column: (n, p) -> (n, p+1)."""
    n = X1.shape[0]
    return np.hstack([np.ones((n, 1)), X1])


def compliance_log_prob_matrix(theta: Theta, U1: np.ndarray) -> np.ndarray:
    """(n, 3) log stratum probabilities for precomputed logit rows U1."""
    n = U1.shape[0]
    logits = np.column_stack([U1 @ theta.gamma_nt, np.zeros(n), U1 @ theta.gamma_at])
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    return logits - lse


def observed_cell_logliks(theta: Theta, X1: np.ndarray, w1: np.ndarray,
                          w2: np.ndarray, x2: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n, 3) joint log density of the observed (x2, y) cells per candidate type.

    Column order matches COMPLIANCE_ORDER.  Consistency with the treatment
    pattern is NOT applied here; callers mask inadmissible types.
    """
    p = theta.p
    n = X1.shape[0]
    out = np.empty((n, 3))
    base_x = theta.alpha[0] + X1 @ theta.alpha[1:1 + p] + theta.alpha[p + 1] * w1
    b = theta.beta
    base_y = (b[0] + X1 @ b[1:1 + p] + b[p + 1] * x2 + b[p + 2] * w1
              + b[p + 3] * w2 + b[p + 4] * w1 * w2)
    for code, c in enumerate(COMPLIANCE_ORDER):
        at = 1.0 if c is ComplianceType.ALWAYSTAKER else 0.0
        nt = 1.0 if c is ComplianceType.NEVERTAKER else 0.0
        mu_x = base_x + theta.alpha[p + 2] * at + theta.alpha[p + 3] * nt
        mu_y = base_y + b[p + 5] * at + b[p + 6] * nt
        out[:, code] = (_normal_logpdf(x2, mu_x, theta.sigma_x)
                        + _normal_logpdf(y, mu_y, theta.sigma_y))
    return out
