"""Parametric model: the parameter container, the prior and the column
density kernels.

The latent compliance label follows a multinomial logit on the baseline
covariates with the complier as reference category.  The intermediate
outcome is linear in (x1, w1, stratum indicators) with Gaussian noise, and
the final outcome is linear in (x1, x2, w1, w2, w1*w2, stratum indicators)
with Gaussian noise.  All likelihood code works on the log scale, over
whole (n, k) columns of units by candidate type.

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

from .domain import AT, NT
from .errors import DimensionMismatch, InvalidConfig, InvariantViolation

LOG_2PI = math.log(2.0 * math.pi)
# which of (nt, co, at) carries a stratum loading in the regression means
_HAS_LOADING = np.array([1.0, 0.0, 1.0])


def _check_field(v, name: str, shape: tuple) -> np.ndarray:
    """v as a read-only float array of shape, every entry finite.  An
    unbatched field (shape of length one) may come in any shape of that size."""
    # a view, so that marking it read-only leaves the caller's array alone
    arr = np.asarray(v, dtype=float)
    arr = arr.reshape(-1) if len(shape) == 1 else arr.view()
    if arr.shape != shape:
        raise InvariantViolation(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvariantViolation(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def _check_scale(v, name: str, lead: tuple):
    """A noise scale: a float, or a read-only (C,) array for a chain axis."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != lead or not (np.isfinite(arr) & (arr > 0)).all():
        raise InvariantViolation(f"{name} must be positive and finite with shape {lead}, got {v}")
    if not lead:
        return float(arr)
    arr = arr.view()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Theta:
    """Full parameter vector of the mixture model.

    gamma_nt / gamma_at: multinomial-logit rows for the nevertaker and
    alwaystaker strata (complier is the zero baseline), each length p+1.
    alpha / sigma_x: intermediate-model coefficients and noise scale.
    beta / sigma_y: outcome-model coefficients and noise scale.

    A Theta may carry a leading chain axis: (C, .) coefficient fields and
    (C,) noise scales, one row per chain, as the sampler runs its chains in
    lockstep.  gamma_nt decides: two axes mean a chain axis.  Without one,
    the noise scales are floats.
    """

    gamma_nt: np.ndarray
    gamma_at: np.ndarray
    alpha: np.ndarray
    sigma_x: float
    beta: np.ndarray
    sigma_y: float

    def __post_init__(self):
        gnt = np.asarray(self.gamma_nt, dtype=float)
        lead = gnt.shape[:1] if gnt.ndim == 2 else ()
        p = gnt.shape[-1] - 1 if gnt.ndim else 0
        if p < 0:
            raise InvariantViolation("gamma_nt must have at least the intercept entry")
        for name, v, width in (("gamma_nt", gnt, p + 1), ("gamma_at", self.gamma_at, p + 1),
                               ("alpha", self.alpha, p + 4), ("beta", self.beta, p + 7)):
            object.__setattr__(self, name, _check_field(v, name, lead + (width,)))
        for name in ("sigma_x", "sigma_y"):
            object.__setattr__(self, name, _check_scale(getattr(self, name), name, lead))

    @property
    def p(self) -> int:
        return self.gamma_nt.shape[-1] - 1

    def coefficients(self) -> np.ndarray:
        """All regression-style coefficients, excluding the noise scales."""
        return np.concatenate([self.gamma_nt, self.gamma_at, self.alpha, self.beta], axis=-1)

    def to_vector(self) -> np.ndarray:
        """The parameters in theta_field_names order, along the last axis."""
        lead = self.gamma_nt.shape[:-1]
        return np.concatenate([
            self.gamma_nt, self.gamma_at, self.alpha, np.reshape(self.sigma_x, lead + (1,)),
            self.beta, np.reshape(self.sigma_y, lead + (1,)),
        ], axis=-1)

    @classmethod
    def from_vector(cls, vec: np.ndarray, p: int) -> "Theta":
        """Inverse of to_vector; a (C, d) vec gives a Theta with a chain axis."""
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 2:
            vec = vec.reshape(-1)
        if vec.shape[-1] != theta_dim(p):
            raise DimensionMismatch(
                f"vector length {vec.shape[-1]} does not match p={p} (need {theta_dim(p)})"
            )
        k = p + 1
        gnt, gat = vec[..., :k], vec[..., k:2 * k]
        a_end = 2 * k + p + 4
        alpha = vec[..., 2 * k:a_end]
        sigma_x = vec[..., a_end]
        beta = vec[..., a_end + 1:a_end + 1 + p + 7]
        sigma_y = vec[..., -1]
        return cls(gnt, gat, alpha, sigma_x, beta, sigma_y)

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
                and np.array_equal(self.sigma_x, other.sigma_x)
                and np.array_equal(self.beta, other.beta)
                and np.array_equal(self.sigma_y, other.sigma_y))


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


def log_prior(theta: Theta, prior: PriorSpec):
    """Log prior density: Normal on coefficients, InverseGamma on variances.
    A float, or one per chain for a Theta with a chain axis."""
    coefs = theta.coefficients()
    lp = np.sum(_normal_logpdf(coefs, 0.0, prior.coef_sd), axis=-1)
    ig = [[_invgamma_logpdf(s ** 2, prior.scale_shape, prior.scale_rate)
           for s in np.atleast_1d(sigma).tolist()] for sigma in (theta.sigma_x, theta.sigma_y)]
    if lp.ndim == 0:
        return float(lp) + ig[0][0] + ig[1][0]
    return lp + ig[0] + ig[1]


# ---------------------------------------------------------------------------
# column kernels shared by the sampler, its score and the enumeration oracle
#
# A kernel takes a Theta with or without a chain axis.  Its (..., n, k)
# result is type-major, one contiguous (..., n) block per row: column-major
# (n, k) without a chain axis, a (C, n, k) view of a (k, C, n) array with
# one.  Its layout is (units, types) slices: over consecutive segments of
# the unit axis, the k adjacent type codes of the rows.  EVERY_TYPE is the
# three-type form; two-type units at (lower, upper) take two segments.
# ---------------------------------------------------------------------------

EVERY_TYPE = ((slice(None), slice(NT, AT + 1)),)


def logit_design(X1: np.ndarray) -> np.ndarray:
    """Prepend the intercept column: (n, p) -> (n, p+1)."""
    n = X1.shape[0]
    return np.hstack([np.ones((n, 1)), X1])


def types_first(a: np.ndarray) -> np.ndarray:
    """The (k, ..., n) view of a (..., n, k) array; the array under a
    type-major one."""
    return a.transpose((a.ndim - 1,) + tuple(range(a.ndim - 1)))


def type_major(lead: tuple, n: int, rows: int) -> np.ndarray:
    """An empty (*lead, n, rows) array laid out as the kernels return
    theirs: the (..., n, rows) view of a (rows, ..., n) array."""
    return np.moveaxis(np.empty((rows,) + tuple(lead) + (n,)), 0, -1)


def row_dot(coef: np.ndarray, M: np.ndarray, out=None) -> np.ndarray:
    """M @ coef for every row of coef: (k,) or (C, k) coefficients against
    (n, k) rows M give (n,) or (C, n).  Each chain's row is one BLAS
    matrix-vector product, the same floats as M @ coef[c]."""
    if out is not None:
        out = out[..., None, :]
    return np.matmul(coef[..., None, :], M.T, out=out)[..., 0, :]


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


def compliance_log_prob_matrix(theta: Theta, U1: np.ndarray, out=None,
                               logits=None, layout=EVERY_TYPE) -> np.ndarray:
    """(..., n, k) log stratum probabilities for precomputed logit rows U1
    at the k types of layout, type-major; written into out when given.
    logits: (U1 @ gamma_nt, U1 @ gamma_at, their logit_lse) when the caller
    has them."""
    if U1.shape[1] != theta.p + 1:
        raise DimensionMismatch(
            f"logit rows have {U1.shape[1]} columns but theta expects p={theta.p}")
    if logits is None:
        a = row_dot(theta.gamma_nt, U1)
        b = row_dot(theta.gamma_at, U1)
        lse = logit_lse(a, b)
    else:
        a, b, lse = logits
    if out is None:
        out = type_major(a.shape[:-1], U1.shape[0], len(range(3)[layout[0][1]]))
    for units, types in layout:
        for row, logit in enumerate((a[..., units], 0.0, b[..., units])[types]):
            np.subtract(logit, lse[..., units], out=out[..., units, row])
    return out


def observed_cell_logliks(theta: Theta, X1: np.ndarray, w1: np.ndarray,
                          w2: np.ndarray, x2: np.ndarray, y: np.ndarray,
                          out=None, scratch=None, layout=EVERY_TYPE) -> np.ndarray:
    """(..., n, k) joint log density of the observed (x2, y) cells at the k
    types of layout, type-major; written into out when given, with scratch
    an optional buffer of the same layout.

    Consistency with the treatment pattern is NOT applied here; callers
    read admissible types only.  Each column is _normal_logpdf of both
    cells, the k types evaluated at once on a (k, ..., n) view, so a unit's
    entry is the same float whatever layout evaluates it.
    """
    p = theta.p
    if X1.shape[1] != p:
        raise DimensionMismatch(f"covariates have {X1.shape[1]} columns but theta expects p={p}")
    a, b = theta.alpha, theta.beta

    def col(v):    # one value per chain, against the unit axis
        return np.asarray(v)[..., None]

    base_x = col(a[..., 0]) + row_dot(a[..., 1:1 + p], X1) + col(a[..., p + 1]) * w1
    base_y = (col(b[..., 0]) + row_dot(b[..., 1:1 + p], X1) + col(b[..., p + 1]) * x2
              + col(b[..., p + 2]) * w1 + col(b[..., p + 3]) * w2 + col(b[..., p + 4]) * w1 * w2)
    lead, n, k = base_x.shape[:-1], X1.shape[0], len(range(3)[layout[0][1]])
    if out is None:
        out = type_major(lead, n, k)
    if scratch is None:
        scratch = type_major(lead, n, k)

    def logpdf(v, base, sd, coef, i_at, i_nt, dst):
        # c - 0.5 * z * z with z = (v - (base + loading)) / sd and
        # c = -0.5 * log(2 pi) - log(sd); 0.5 * z is exact, so
        # (0.5 * z) * z = 0.5 * (z * z) unless z * z is subnormal, where c
        # absorbs both.  The (3, ..., 1) stratum loadings of (nt, co, at)
        # hold the complier's zero: the parametrization adds each type the
        # other's loading times 0.0, and a zero added leaves the mean as it is
        loads = types_first(coef[..., [i_nt, i_nt, i_at]] * _HAS_LOADING)[..., None]
        for units, types in layout:
            np.add(base[..., units], loads[types], out=dst[..., units])
        c = -0.5 * LOG_2PI - np.log(sd)
        np.subtract(v, dst, out=dst)
        np.divide(dst, sd, out=dst)
        np.multiply(dst, dst, out=dst)
        np.multiply(0.5, dst, out=dst)
        return np.subtract(c, dst, out=dst)

    # the (k, ..., n) arrays under the type-major views
    lx = logpdf(x2, base_x, col(theta.sigma_x), a, p + 2, p + 3, types_first(out))
    lx += logpdf(y, base_y, col(theta.sigma_y), b, p + 5, p + 6, types_first(scratch))
    return out


def inverse_cdf_draw(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws along the last axis of probability vectors probs,
    one per entry of u: the number of running sums at or below u, capped at
    the last positive entry, so a zero-probability trailing entry is never
    drawn."""
    below = (np.cumsum(probs, axis=-1) <= u[..., None]).sum(axis=-1)
    last = probs.shape[-1] - 1 - np.argmax(probs[..., ::-1] > 0.0, axis=-1)
    return np.minimum(below, last)
