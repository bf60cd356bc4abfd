"""Parametric model: the parameter container, the prior and the column
density kernels.

The latent compliance label follows a multinomial logit on the baseline
covariates with the complier as reference category.  The intermediate
outcome is linear in (x1, w1, stratum indicators) with Gaussian noise, and
the final outcome is linear in (x1, x2, w1, w2, w1*w2, stratum indicators)
with Gaussian noise.  All likelihood code works on the log scale, over
whole (n, 3) columns of units by candidate type.

Design-row layouts (fixed everywhere, including the simulator):

  intermediate: [1, x1..., w1, 1(alwaystaker), 1(nevertaker)]      -> len p+4
  outcome:      [1, x1..., x2, w1, w2, w1*w2, 1(at), 1(nt)]        -> len p+7
  logit rows:   [1, x1...]                                         -> len p+1
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .domain import AT, CO, NT
from .errors import DimensionMismatch, InvalidConfig, InvariantViolation

LOG_2PI = math.log(2.0 * math.pi)


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


def log_prior(theta: Theta, prior: PriorSpec) -> float:
    """Log prior density: Normal on coefficients, InverseGamma on variances."""
    coefs = theta.coefficients()
    lp = float(np.sum(_normal_logpdf(coefs, 0.0, prior.coef_sd)))
    lp += _invgamma_logpdf(theta.sigma_x ** 2, prior.scale_shape, prior.scale_rate)
    lp += _invgamma_logpdf(theta.sigma_y ** 2, prior.scale_shape, prior.scale_rate)
    return lp


# ---------------------------------------------------------------------------
# column kernels shared by the sampler, its score and the enumeration oracle
# ---------------------------------------------------------------------------

def logit_design(X1: np.ndarray) -> np.ndarray:
    """Prepend the intercept column: (n, p) -> (n, p+1)."""
    n = X1.shape[0]
    return np.hstack([np.ones((n, 1)), X1])


def logit_lse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise log(exp(a) + exp(0) + exp(b)), the normaliser of the
    (nt, co, at) logits: m + log((e0 + e1) + e2) with m = max(a, 0, b) and e_j
    the exponentials of the logits minus m, the same floats as the row-wise
    max / exp / sum over an (n, 3) matrix.  It allocates three arrays."""
    m = np.maximum(a, 0.0)
    np.maximum(m, b, out=m)
    e = np.subtract(a, m)
    total = np.exp(e)
    for c in (0.0, b):
        total += np.exp(np.subtract(c, m, out=e), out=e)
    return np.add(np.log(total, out=total), m, out=total)


def compliance_log_prob_matrix(theta: Theta, U1: np.ndarray) -> np.ndarray:
    """(n, 3) log stratum probabilities for precomputed logit rows U1,
    column-major."""
    if U1.shape[1] != theta.p + 1:
        raise DimensionMismatch(
            f"logit rows have {U1.shape[1]} columns but theta expects p={theta.p}")
    a = U1 @ theta.gamma_nt
    b = U1 @ theta.gamma_at
    lse = logit_lse(a, b)
    out = np.empty((U1.shape[0], 3), order="F")
    np.subtract(a, lse, out=out[:, 0])
    np.subtract(0.0, lse, out=out[:, 1])
    np.subtract(b, lse, out=out[:, 2])
    return out


def observed_cell_logliks(theta: Theta, X1: np.ndarray, w1: np.ndarray,
                          w2: np.ndarray, x2: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n, 3) joint log density of the observed (x2, y) cells per candidate type.

    Column order matches COMPLIANCE_ORDER and the array is column-major.
    Consistency with the treatment pattern is NOT applied here; callers
    mask inadmissible types.
    """
    p = theta.p
    n = X1.shape[0]
    out = np.empty((n, 3), order="F")
    base_x = theta.alpha[0] + X1 @ theta.alpha[1:1 + p] + theta.alpha[p + 1] * w1
    b = theta.beta
    base_y = (b[0] + X1 @ b[1:1 + p] + b[p + 1] * x2 + b[p + 2] * w1
              + b[p + 3] * w2 + b[p + 4] * w1 * w2)
    for code in (NT, CO, AT):
        at, nt = float(code == AT), float(code == NT)
        mu_x = base_x + theta.alpha[p + 2] * at + theta.alpha[p + 3] * nt
        mu_y = base_y + b[p + 5] * at + b[p + 6] * nt
        out[:, code] = (_normal_logpdf(x2, mu_x, theta.sigma_x)
                        + _normal_logpdf(y, mu_y, theta.sigma_y))
    return out


def inverse_cdf_draw(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws along the last axis of probability vectors probs,
    one per entry of u: the number of running sums at or below u, capped at
    the last positive entry, so a zero-probability trailing entry is never
    drawn."""
    below = (np.cumsum(probs, axis=-1) <= u[..., None]).sum(axis=-1)
    last = probs.shape[-1] - 1 - np.argmax(probs[..., ::-1] > 0.0, axis=-1)
    return np.minimum(below, last)
