"""Posterior sampling by data augmentation over latent compliance labels.

Each sweep has three blocks, executed in this order:

1. step_theta: update the parameter vector.  In "conjugate_gibbs" mode the
   regression coefficients and noise variances are drawn from their exact
   normal / inverse-gamma conditionals given the labels and the imputed
   cells, and the multinomial-logit rows get a random-walk Metropolis move.
   In "marginal_mh" mode the full parameter vector takes one random-walk
   Metropolis step whose target has the labels summed out entirely.
2. step_compliance: redraw each unit's label from its exact conditional
   given the parameters and that unit's observed record.  Types the
   assignment/receipt pattern rules out get probability exactly zero.
3. step_impute: rebuild every unit's potential table; observed cells are
   copied, and compliers' missing cells are drawn from the model.

Because the label step conditions only on observed data (the imputations are
integrated out) and the imputation step redraws every missing cell, the pair
(2, 3) is one exact blocked draw of (labels, missing cells) given theta, and
the sweep leaves the joint posterior invariant in both modes.

Each chain keeps one workspace across sweeps.  The static columns of the
observed units' design rows are built once per dataset (_VectorData).  Two
stacked row buffers per chain (_StackedRows, one per regression block) hold
the n observed rows followed by the rows of the compliers' imputed cells:
step_impute writes those tail rows while it draws the cells, and the
conjugate theta update only rewrites the stratum-indicator columns of the
observed rows before regressing on the rows in use.  In "marginal_mh" mode
the masked (n, 3) log-weight matrix that the Metropolis step evaluates for
its accepted theta travels with the state, and the label step normalises
that matrix instead of evaluating it again.  Neither changes the arithmetic
of a draw or the order in which the random stream is consumed.

The (n, 3) label matrices (log stratum probabilities, observed-cell log
densities, log-weights, label probabilities) are column-major, one
contiguous column per type in (nt, co, at) order, and every per-unit
reduction over the three types is written as elementwise operations on
those columns: a three-way maximum, the sum (c0 + c1) + c2, the running
sums of an inverse-CDF draw.  numpy reduces along a length-3 axis row by
row, which costs tens of nanoseconds per unit, while an elementwise pass
over a column costs about one.  The column forms perform the same float
operations in the same order as the row-wise reductions, so the draws do
not change.  Inadmissible types are masked by adding a precomputed 0 / -inf
matrix.

Proposal scales adapt with a decaying Robbins-Monro rule during warmup only
and freeze afterwards, so kept draws come from a fixed-kernel chain.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple, Union

import numpy as np

from .domain import Dataset, Y_CELLS, y_cell_index
from .errors import (
    InconsistentUnit,
    InvalidConfig,
    InvariantViolation,
    NoCompliersInDraw,
    NumericalOverflow,
    SeqlateError,
)
from .model import (
    PriorSpec,
    Theta,
    compliance_log_prob_matrix,
    logit_design,
    log_prior,
    max_shifted_exp3,
    observed_cell_logliks,
    theta_dim,
    theta_field_names,
)
from .rng import substream

log = logging.getLogger(__name__)

THETA_UPDATE_MODES = ("conjugate_gibbs", "marginal_mh")

_NT, _CO, _AT = 0, 1, 2
_DEFAULT_CONTRAST = ((1, 1), (0, 0))


@dataclass(frozen=True)
class SamplerConfig:
    """Chain geometry and kernel choice for one fit."""

    seed: Optional[int] = None
    n_chains: int = 4
    n_warmup: int = 1000
    n_draws: int = 2000
    theta_update: str = "conjugate_gibbs"
    mh_step_scale: float = 0.2

    def __post_init__(self):
        if int(self.n_chains) < 1:
            raise InvalidConfig(f"n_chains: must be >= 1, got {self.n_chains}")
        if int(self.n_warmup) < 0:
            raise InvalidConfig(f"n_warmup: must be >= 0, got {self.n_warmup}")
        if int(self.n_draws) < 1:
            raise InvalidConfig(f"n_draws: must be >= 1, got {self.n_draws}")
        if self.theta_update not in THETA_UPDATE_MODES:
            raise InvalidConfig(
                f"theta_update: must be one of {THETA_UPDATE_MODES}, got {self.theta_update!r}"
            )
        if not (np.isfinite(self.mh_step_scale) and self.mh_step_scale > 0):
            raise InvalidConfig(f"mh_step_scale: must be positive, got {self.mh_step_scale}")
        if self.seed is not None and not 0 <= int(self.seed) < 2 ** 64:
            raise InvalidConfig(f"seed: must be a 64-bit unsigned integer, got {self.seed}")
        for name in ("n_chains", "n_warmup", "n_draws"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))


class _VectorData:
    """Column view of a dataset plus precomputed masks the sweeps reuse."""

    def __init__(self, data: Dataset):
        arr = data.as_arrays()
        self.n = len(data)
        self.p = data.covariate_dim
        self.X1 = arr["X1"]
        self.U1 = logit_design(self.X1)
        self.z1 = arr["z1"]
        self.w1 = arr["w1"]
        self.z2 = arr["z2"]
        self.w2 = arr["w2"]
        self.w1f = self.w1.astype(float)
        self.w2f = self.w2.astype(float)
        self.x2 = arr["x2"]
        self.y = arr["y"]
        consistent = np.zeros((self.n, 3), dtype=bool)
        consistent[:, _NT] = (self.w1 == 0) & (self.w2 == 0)
        consistent[:, _CO] = (self.w1 == self.z1) & (self.w2 == self.z2)
        consistent[:, _AT] = (self.w1 == 1) & (self.w2 == 1)
        bad = np.nonzero(~consistent.any(axis=1))[0]
        if bad.size:
            i = int(bad[0])
            raise InconsistentUnit(
                f"unit {i} with (z1={self.z1[i]}, w1={self.w1[i]}, z2={self.z2[i]}, "
                f"w2={self.w2[i]}) admits no compliance type"
            )
        self.consistent = consistent
        # added to the label log-weights: 0 where admissible, -inf where not
        self.logmask = np.where(consistent, 0.0, -np.inf).copy(order="F")
        self.obs_ycol = 2 * self.w1 + self.w2
        # observed cells of every unit, the starting point of each imputation
        rows = np.arange(self.n)
        self.x2_cells_obs = np.full((self.n, 2), np.nan)
        self.x2_cells_obs[rows, self.w1] = self.x2
        self.y_cells_obs = np.full((self.n, 4), np.nan)
        self.y_cells_obs[rows, self.obs_ycol] = self.y
        # design columns of the observed rows that no label changes:
        # [1, x1..., w1] and [1, x1..., x2, w1, w2, w1*w2]
        self.x2_static = np.column_stack([self.U1, self.w1f])
        self.y_static = np.column_stack([self.U1, self.x2, self.w1f, self.w2f,
                                         self.w1f * self.w2f])


def as_vector_data(data: Union[Dataset, _VectorData]) -> _VectorData:
    return data if isinstance(data, _VectorData) else _VectorData(data)


class _StackedRows:
    """Regression rows of one block: the n observed rows, then one row per
    imputed complier cell.

    The buffers have room for every unit to be a complier; the first `used`
    rows are current.  The last two design columns are the stratum
    indicators (alwaystaker, nevertaker): zero on the imputed rows, set from
    the labels on the observed rows by `regression`.
    """

    def __init__(self, static: np.ndarray, resp_obs: np.ndarray, capacity: int):
        n, k = static.shape
        self.n_obs = n
        self.design = np.zeros((capacity, k + 2))
        self.design[:n, :k] = static
        self.resp = np.zeros(capacity)
        self.resp[:n] = resp_obs
        self.used = n

    def regression(self, at: np.ndarray, nt: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Design rows and responses in use, indicators set from the labels."""
        self.design[:self.n_obs, -2] = at
        self.design[:self.n_obs, -1] = nt
        return self.design[:self.used], self.resp[:self.used]


def _new_rows(vd: _VectorData) -> Tuple[_StackedRows, _StackedRows]:
    """Empty-tailed row buffers (intermediate, outcome) for one chain."""
    return (_StackedRows(vd.x2_static, vd.x2, 2 * vd.n),
            _StackedRows(vd.y_static, vd.y, 4 * vd.n))


def _write_complier_rows(vd: _VectorData, idx: np.ndarray, x2_rows: _StackedRows,
                         y_rows: _StackedRows, x2_cells: np.ndarray, y_cells: np.ndarray,
                         draw: Optional[Tuple[Theta, np.random.Generator]] = None) -> None:
    """Stack the rows of the compliers idx's missing cells below the observed rows.

    Row order: the counterfactual x2 cell of each complier, then, per y cell
    in Y_CELLS order, each complier for whom that cell is missing, paired
    with the x2 cell that shares its first-period receipt.  With
    draw=(theta, rng) each cell is first drawn from its model conditional,
    whose mean is its design row times the coefficients, and stored in
    x2_cells / y_cells; without it the cells are read from there.
    """
    n, p = vd.n, vd.p
    th, rng = draw if draw is not None else (None, None)
    k = idx.size
    if k:
        w1_mis = 1 - vd.w1[idx]
        D = x2_rows.design[n:n + k]
        D[:, :p + 1] = vd.U1.take(idx, axis=0)
        D[:, p + 1] = w1_mis
        if draw is None:
            x2_rows.resp[n:n + k] = x2_cells[idx, w1_mis]
        else:
            x2_cells[idx, w1_mis] = x2_rows.resp[n:n + k] = (
                D @ th.alpha + th.sigma_x * rng.standard_normal(k))
    x2_rows.used = n + k
    start = n
    for a, b in Y_CELLS:
        col = y_cell_index(a, b)
        rows = idx[vd.obs_ycol[idx] != col]
        if rows.size == 0:
            continue
        stop = start + rows.size
        D = y_rows.design[start:stop]
        D[:, :p + 1] = vd.U1.take(rows, axis=0)
        D[:, p + 1] = x2_cells[rows, a]
        D[:, p + 2:p + 5] = (a, b, a * b)
        if draw is None:
            y_rows.resp[start:stop] = y_cells[rows, col]
        else:
            y_cells[rows, col] = y_rows.resp[start:stop] = (
                D @ th.beta + th.sigma_y * rng.standard_normal(rows.size))
        start = stop
    y_rows.used = start


@dataclass
class ChainState:
    """Mutable-over-sweeps sampler state.

    compliance holds int8 codes in (nt, co, at) order.  x2_cells (n, 2) and
    y_cells (n, 4) hold the current potential tables with NaN marking cells
    the current label leaves undefined; observed cells always carry the
    dataset values bit for bit.

    x2_rows / y_rows are the chain's regression workspace, shared by every
    state of the chain and rewritten in place: their tails hold the complier
    cells of the latest step_impute.  logweights pairs a theta with its
    masked (n, 3) label log-weights.  All three may be None; the steps then
    build what they need.
    """

    theta: Theta
    compliance: np.ndarray
    x2_cells: np.ndarray
    y_cells: np.ndarray
    iter: int
    rng: np.random.Generator
    x2_rows: Optional[_StackedRows] = None
    y_rows: Optional[_StackedRows] = None
    logweights: Optional[Tuple[Theta, np.ndarray]] = None

    def n_compliers(self) -> int:
        return int((self.compliance == _CO).sum())


def _vector_categorical(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from the rows of an (n, 3) probability matrix.

    A row's draw is the number of its running sums p0, p0 + p1,
    (p0 + p1) + p2 at or below u, capped at its last positive column, so a
    zero-probability column is never selected.  Every row must hold a
    positive entry.
    """
    p0, p1, p2 = probs[:, 0], probs[:, 1], probs[:, 2]
    c1 = p0 + p1
    idx = ((p0 <= u).view(np.int8) + (c1 <= u).view(np.int8)
           + (c1 + p2 <= u).view(np.int8))
    lastpos = np.where(p2 > 0.0, np.int8(2), (p1 > 0.0).view(np.int8))
    return np.minimum(idx, lastpos)


def _log_weights(theta: Theta, vd: _VectorData) -> np.ndarray:
    """(n, 3) unnormalised log label weights, column-major; inadmissible
    types get -inf."""
    lw = compliance_log_prob_matrix(theta, vd.U1)
    lw += observed_cell_logliks(theta, vd.X1, vd.w1f, vd.w2f, vd.x2, vd.y)
    lw += vd.logmask
    return lw


def _normalise(lw: np.ndarray) -> np.ndarray:
    """Row-normalised exp(lw), column-major."""
    _, e0, e1, e2, total = max_shifted_exp3(lw[:, 0], lw[:, 1], lw[:, 2])
    out = np.empty(lw.shape, order="F")
    np.divide(e0, total, out=out[:, 0])
    np.divide(e1, total, out=out[:, 1])
    np.divide(e2, total, out=out[:, 2])
    return out


def compliance_posterior(theta: Theta, data: Union[Dataset, _VectorData]) -> np.ndarray:
    """(n, 3) exact conditional label probabilities given theta.

    Per unit, the weight of stratum c is the product of the two treatment
    point masses, the stratum probability, and the observed-cell densities;
    strata with a zero treatment factor get probability exactly 0.0.
    """
    return _normalise(_log_weights(theta, as_vector_data(data)))


def step_compliance(state: ChainState, data: Union[Dataset, _VectorData]) -> ChainState:
    """Redraw every label from its exact conditional given theta and data.

    Reuses the log-weight matrix the state carries for its theta, if any.
    """
    vd = as_vector_data(data)
    cached = state.logweights
    if cached is not None and cached[0] is state.theta:
        lw = cached[1]
    else:
        lw = _log_weights(state.theta, vd)
    u = state.rng.uniform(size=vd.n)
    codes = _vector_categorical(_normalise(lw), u)
    return replace(state, compliance=codes)


def step_impute(state: ChainState, data: Union[Dataset, _VectorData]) -> ChainState:
    """Rebuild potential tables under the current labels.

    Observed cells are copied from the dataset and never redrawn.  For each
    complier the counterfactual first-period cell x2(1-w1) is drawn first,
    then the three missing y cells, each using the x2 cell that shares its
    first-period receipt.  Nevertakers and alwaystakers have no missing
    defined cells: their single cell equals the observed record.  The design
    rows and draws of the complier cells also become the tails of the
    chain's row buffers.
    """
    vd = as_vector_data(data)
    x2_cells = vd.x2_cells_obs.copy()
    y_cells = vd.y_cells_obs.copy()
    x2_rows, y_rows = state.x2_rows, state.y_rows
    if x2_rows is None or y_rows is None:
        x2_rows, y_rows = _new_rows(vd)
    idx = np.nonzero(state.compliance == _CO)[0]
    _write_complier_rows(vd, idx, x2_rows, y_rows, x2_cells, y_cells,
                         draw=(state.theta, state.rng))
    return replace(state, x2_cells=x2_cells, y_cells=y_cells,
                   x2_rows=x2_rows, y_rows=y_rows)


def late_draw(state: ChainState,
              contrast: Tuple[Tuple[int, int], Tuple[int, int]] = _DEFAULT_CONTRAST) -> float:
    """Average treatment contrast over the units currently labelled compliers."""
    co = state.compliance == _CO
    if not co.any():
        raise NoCompliersInDraw("no units carry the complier label in this sweep")
    (a1, a2), (b1, b2) = contrast
    diff = state.y_cells[co, y_cell_index(a1, a2)] - state.y_cells[co, y_cell_index(b1, b2)]
    return float(diff.mean())


# ---------------------------------------------------------------------------
# theta updates
# ---------------------------------------------------------------------------

@dataclass
class _Tuning:
    """Adaptation state owned by one chain; frozen once warmup ends."""

    adapting: bool = False
    t: int = 0
    gamma_scales: np.ndarray = field(default_factory=lambda: np.array([0.25, 0.25]))
    marg_scale: float = 0.2
    marg_sd: Optional[np.ndarray] = None
    history: List[np.ndarray] = field(default_factory=list)
    sd_refresh_at: Optional[int] = None
    last_theta: Optional[Theta] = None
    last_logpost: Optional[float] = None
    last_logweights: Optional[np.ndarray] = None


def _draw_ridge(D: np.ndarray, resp: np.ndarray, sigma: float, coef_sd: float,
                rng: np.random.Generator) -> np.ndarray:
    """One draw from the normal conditional of a ridge regression block."""
    k = D.shape[1]
    prec = D.T @ D / sigma ** 2 + np.eye(k) / coef_sd ** 2
    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as e:
        raise NumericalOverflow(f"coefficient precision matrix not positive definite: {e}")
    rhs = D.T @ resp / sigma ** 2
    mean = np.linalg.solve(prec, rhs)
    z = rng.standard_normal(k)
    draw = mean + np.linalg.solve(chol.T, z)
    if not np.all(np.isfinite(draw)):
        raise NumericalOverflow("coefficient draw is non-finite")
    return draw


def _draw_variance(resid: np.ndarray, prior: PriorSpec, rng: np.random.Generator) -> float:
    """One draw from the inverse-gamma conditional of a noise variance."""
    a = prior.scale_shape + resid.size / 2.0
    b = prior.scale_rate + 0.5 * float(resid @ resid)
    v = 1.0 / rng.gamma(a, 1.0 / b)
    if not (np.isfinite(v) and v > 0):
        raise NumericalOverflow("variance draw is non-finite")
    return v


def _gamma_logpost(gnt: np.ndarray, gat: np.ndarray, U1: np.ndarray,
                   codes: np.ndarray, coef_sd: float) -> float:
    """Multinomial-logit log likelihood of the labels plus the rows' prior."""
    a = U1 @ gnt
    b = U1 @ gat
    m, _, _, _, total = max_shifted_exp3(a, 0.0, b)
    lse = m + np.log(total)
    picked = np.where(codes == _NT, a, np.where(codes == _AT, b, 0.0))
    ll = float((picked - lse).sum())
    lp = -0.5 * (float(gnt @ gnt) + float(gat @ gat)) / coef_sd ** 2
    return ll + lp


def _adapt_scale(scale: float, accept_prob: float, target: float, t: int) -> float:
    gain = (t + 1.0) ** -0.7
    return float(scale * math.exp(gain * (accept_prob - target)))


def _theta_conjugate(state: ChainState, vd: _VectorData, prior: PriorSpec,
                     tuning: _Tuning, x2_rows: _StackedRows, y_rows: _StackedRows) -> Theta:
    th = state.theta
    rng = state.rng
    c = state.compliance
    at = c == _AT
    nt = c == _NT

    # intermediate block: observed cell of every unit plus the imputed
    # counterfactual cell of each complier
    D_x, resp_x = x2_rows.regression(at, nt)
    alpha = _draw_ridge(D_x, resp_x, th.sigma_x, prior.coef_sd, rng)
    sigma_x = math.sqrt(_draw_variance(resp_x - D_x @ alpha, prior, rng))

    # outcome block: observed cell of every unit plus compliers' three
    # missing cells, each with its matching first-period x2 cell
    D_y, resp_y = y_rows.regression(at, nt)
    beta = _draw_ridge(D_y, resp_y, th.sigma_y, prior.coef_sd, rng)
    sigma_y = math.sqrt(_draw_variance(resp_y - D_y @ beta, prior, rng))

    # multinomial-logit rows: one random-walk Metropolis move each
    gnt = th.gamma_nt.copy()
    gat = th.gamma_at.copy()
    lp_cur = _gamma_logpost(gnt, gat, vd.U1, c, prior.coef_sd)
    if not np.isfinite(lp_cur):
        raise NumericalOverflow("logit-row log posterior is non-finite")
    for row in (0, 1):
        scale = tuning.gamma_scales[row]
        prop_nt, prop_at = gnt.copy(), gat.copy()
        if row == 0:
            prop_nt = gnt + scale * rng.standard_normal(gnt.shape[0])
        else:
            prop_at = gat + scale * rng.standard_normal(gat.shape[0])
        lp_prop = _gamma_logpost(prop_nt, prop_at, vd.U1, c, prior.coef_sd)
        if np.isnan(lp_prop):
            raise NumericalOverflow("logit-row proposal log posterior is NaN")
        accept_prob = min(1.0, math.exp(min(0.0, lp_prop - lp_cur)))
        if math.log(rng.uniform()) < lp_prop - lp_cur:
            gnt, gat, lp_cur = prop_nt, prop_at, lp_prop
        if tuning.adapting:
            tuning.gamma_scales[row] = _adapt_scale(scale, accept_prob, 0.35, tuning.t)
    return Theta(gnt, gat, alpha, sigma_x, beta, sigma_y)


def _marginal_loglik(lw: np.ndarray) -> float:
    """Sum over units of the label-marginalized log likelihood, from the
    masked log-weight matrix."""
    m, _, _, _, total = max_shifted_exp3(lw[:, 0], lw[:, 1], lw[:, 2])
    return float((m + np.log(total)).sum())


def _pack_unconstrained(theta: Theta) -> np.ndarray:
    vec = theta.to_vector()
    p = theta.p
    i_sx = 2 * (p + 1) + (p + 4)
    vec[i_sx] = math.log(theta.sigma_x)
    vec[-1] = math.log(theta.sigma_y)
    return vec


def _unpack_unconstrained(vec: np.ndarray, p: int) -> Theta:
    v = vec.copy()
    i_sx = 2 * (p + 1) + (p + 4)
    v[i_sx] = math.exp(v[i_sx])
    v[-1] = math.exp(v[-1])
    return Theta.from_vector(v, p)


def _marginal_logpost(theta: Theta, vd: _VectorData,
                      prior: PriorSpec) -> Tuple[float, np.ndarray]:
    """Log posterior on the log-sigma scale, and the masked log-weights."""
    lw = _log_weights(theta, vd)
    # change of variables to log sigma adds 2*log(sigma) per noise scale
    lp = (log_prior(theta, prior)
          + 2.0 * math.log(theta.sigma_x) + 2.0 * math.log(theta.sigma_y)
          + _marginal_loglik(lw))
    return lp, lw


def _theta_marginal(state: ChainState, vd: _VectorData, prior: PriorSpec,
                    tuning: _Tuning) -> Tuple[Theta, np.ndarray]:
    """One Metropolis step; returns the new theta and its log-weights."""
    th = state.theta
    rng = state.rng
    p = th.p
    cur = _pack_unconstrained(th)
    if tuning.last_logpost is not None and tuning.last_theta is th:
        lp_cur, lw_cur = tuning.last_logpost, tuning.last_logweights
    else:
        lp_cur, lw_cur = _marginal_logpost(th, vd, prior)
    if not np.isfinite(lp_cur):
        raise NumericalOverflow("current marginal log posterior is non-finite")
    sd = tuning.marg_sd if tuning.marg_sd is not None else np.ones(cur.shape[0])
    prop_vec = cur + tuning.marg_scale * sd * rng.standard_normal(cur.shape[0])
    try:
        prop = _unpack_unconstrained(prop_vec, p)
        lp_prop, lw_prop = _marginal_logpost(prop, vd, prior)
    except (OverflowError, FloatingPointError, InvariantViolation):
        lp_prop = -np.inf
        prop = None
    if prop is not None and np.isnan(lp_prop):
        raise NumericalOverflow("proposal marginal log posterior is NaN")
    new, lw_new, lp_new = th, lw_cur, lp_cur
    if lp_prop == -np.inf:
        accept_prob = 0.0
    else:
        accept_prob = min(1.0, math.exp(min(0.0, lp_prop - lp_cur)))
        if math.log(rng.uniform()) < lp_prop - lp_cur:
            new, lw_new, lp_new = prop, lw_prop, lp_prop
    tuning.last_theta, tuning.last_logpost, tuning.last_logweights = new, lp_new, lw_new
    if tuning.adapting:
        tuning.marg_scale = _adapt_scale(tuning.marg_scale, accept_prob, 0.234, tuning.t)
        tuning.history.append(_pack_unconstrained(new))
        if tuning.sd_refresh_at is not None and tuning.t == tuning.sd_refresh_at:
            hist = np.asarray(tuning.history)
            sd_new = hist.std(axis=0, ddof=0)
            tuning.marg_sd = np.maximum(sd_new, 1e-3)
    return new, lw_new


def step_theta(state: ChainState, data: Union[Dataset, _VectorData], prior: PriorSpec,
               mode: str = "conjugate_gibbs", tuning: Optional[_Tuning] = None) -> ChainState:
    """Update theta given everything else (or given only data in marginal mode).

    Returns a new state; the argument keeps its theta.  A state without row
    buffers gets them built from its x2_cells / y_cells.
    """
    if mode not in THETA_UPDATE_MODES:
        raise InvalidConfig(f"theta_update: unknown mode {mode!r}")
    vd = as_vector_data(data)
    if tuning is None:
        tuning = _Tuning()
    if mode == "marginal_mh":
        new_theta, lw = _theta_marginal(state, vd, prior, tuning)
        return replace(state, theta=new_theta, logweights=(new_theta, lw))
    x2_rows, y_rows = state.x2_rows, state.y_rows
    if x2_rows is None or y_rows is None:
        x2_rows, y_rows = _new_rows(vd)
        _write_complier_rows(vd, np.nonzero(state.compliance == _CO)[0], x2_rows, y_rows,
                             state.x2_cells, state.y_cells)
    new_theta = _theta_conjugate(state, vd, prior, tuning, x2_rows, y_rows)
    return replace(state, theta=new_theta, x2_rows=x2_rows, y_rows=y_rows, logweights=None)


# ---------------------------------------------------------------------------
# chain driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Draw:
    """Kept sweep snapshot: parameters plus the complier contrast."""

    iter: int
    theta: Theta
    late: float        # NaN marks a sweep whose label draw had no compliers
    n_compliers: int


def init_state(data: Union[Dataset, _VectorData], rng: np.random.Generator) -> ChainState:
    """Starting state: labels uniform over each unit's admissible types,
    coefficients at their prior means, noise scales at the sample spreads."""
    vd = as_vector_data(data)
    mask = vd.consistent.astype(float)
    probs = mask / mask.sum(axis=1, keepdims=True)
    codes = _vector_categorical(probs, rng.uniform(size=vd.n))
    p = vd.p
    sx = max(float(vd.x2.std()), 1e-2)
    sy = max(float(vd.y.std()), 1e-2)
    theta0 = Theta(np.zeros(p + 1), np.zeros(p + 1), np.zeros(p + 4), sx,
                   np.zeros(p + 7), sy)
    state = ChainState(theta0, codes, np.full((vd.n, 2), np.nan),
                       np.full((vd.n, 4), np.nan), 0, rng)
    return step_impute(state, vd)


def _check_state_invariants(state: ChainState, vd: _VectorData) -> None:
    codes = state.compliance
    ok = vd.consistent[np.arange(vd.n), codes]
    if not ok.all():
        i = int(np.nonzero(~ok)[0][0])
        raise AssertionError(f"unit {i} carries an inadmissible label")
    if not np.array_equal(state.x2_cells[np.arange(vd.n), vd.w1], vd.x2):
        raise AssertionError("an observed x2 cell was modified")
    if not np.array_equal(state.y_cells[np.arange(vd.n), vd.obs_ycol], vd.y):
        raise AssertionError("an observed y cell was modified")
    co = codes == _CO
    if np.isnan(state.x2_cells[co]).any() or np.isnan(state.y_cells[co]).any():
        raise AssertionError("a complier table has an undefined cell")


def run_chain(data: Union[Dataset, _VectorData], prior: PriorSpec, cfg: SamplerConfig,
              chain_index: int = 0,
              contrast: Tuple[Tuple[int, int], Tuple[int, int]] = _DEFAULT_CONTRAST,
              check_invariants: bool = False) -> List[Draw]:
    """Run one chain and return its kept draws.

    Deterministic in (cfg.seed, chain_index); step errors are re-raised with
    the failing sweep number attached.
    """
    if cfg.seed is None:
        raise InvalidConfig("seed: a sampler seed is required")
    vd = as_vector_data(data)
    rng = substream(cfg.seed, "chain", chain_index)
    state = init_state(vd, rng)
    tuning = _Tuning(marg_scale=cfg.mh_step_scale,
                     sd_refresh_at=max(1, cfg.n_warmup // 2))
    draws: List[Draw] = []
    total = cfg.n_warmup + cfg.n_draws
    for t in range(total):
        tuning.adapting = t < cfg.n_warmup
        tuning.t = t
        try:
            state = step_theta(state, vd, prior, cfg.theta_update, tuning)
            state = step_compliance(state, vd)
            state = step_impute(state, vd)
        except SeqlateError as e:
            raise type(e)(f"sweep {t + 1}: {e}") from e
        state.iter = t + 1
        if check_invariants:
            _check_state_invariants(state, vd)
        if t >= cfg.n_warmup:
            try:
                late = late_draw(state, contrast)
            except NoCompliersInDraw:
                late = float("nan")
            draws.append(Draw(t - cfg.n_warmup + 1, state.theta, late,
                              state.n_compliers()))
    return draws


@dataclass
class FitResult:
    """Draws from all chains plus layout metadata."""

    chains: List[List[Draw]]
    p: int
    config: SamplerConfig

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    @property
    def n_draws(self) -> int:
        return len(self.chains[0])

    def theta_names(self) -> List[str]:
        return theta_field_names(self.p)

    def late_matrix(self) -> np.ndarray:
        return np.array([[d.late for d in chain] for chain in self.chains])

    def pooled_late(self) -> np.ndarray:
        flat = self.late_matrix().ravel()
        return flat[np.isfinite(flat)]

    def theta_matrix(self) -> np.ndarray:
        out = np.empty((self.n_chains, self.n_draws, theta_dim(self.p)))
        for i, chain in enumerate(self.chains):
            for j, d in enumerate(chain):
                out[i, j] = d.theta.to_vector()
        return out


def fit(data: Dataset, prior: PriorSpec, cfg: SamplerConfig,
        contrast: Tuple[Tuple[int, int], Tuple[int, int]] = _DEFAULT_CONTRAST,
        check_invariants: bool = False) -> FitResult:
    """Run cfg.n_chains independent chains over their own substreams."""
    vd = as_vector_data(data)
    chains = []
    for k in range(cfg.n_chains):
        log.info("running chain %d/%d", k + 1, cfg.n_chains)
        chains.append(run_chain(vd, prior, cfg, chain_index=k, contrast=contrast,
                                check_invariants=check_invariants))
    return FitResult(chains, vd.p, cfg)
