"""Posterior sampling by data augmentation over latent compliance labels.

Each sweep has up to three blocks, executed in this order:

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

In "marginal_mh" mode the theta chain reads neither labels nor cells, so
warmup sweeps run step_theta alone; every kept sweep, the first included,
draws (2, 3) exactly given its theta.  Conjugate warmup runs all three.

The conjugate blocks regress on every unit's observed row plus the imputed
cells of each complier without stacking those rows: the observed rows' Gram
matrices are built once per dataset, and each sweep adds the stratum sums
and the compliers' terms in closed form (_normal_equations).  In
"marginal_mh" mode the accepted theta's log posterior and masked (n, 3)
log-weights travel with the state: the label step normalises the
log-weights instead of evaluating them again, and the next Metropolis step
starts from both.

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

A chain writes each kept sweep's parameter vector, complier contrast and
complier count into preallocated arrays, and fit stacks the chains into the
(chains, draws) arrays of a FitResult.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple, Union

import numpy as np

from .domain import AT, CO, DEFAULT_CONTRAST, NT, Contrast, Dataset, Y_CELLS, y_cell_index
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
    logit_lse,
    observed_cell_logliks,
    theta_dim,
    theta_field_names,
)
from .rng import substream

log = logging.getLogger(__name__)

THETA_UPDATE_MODES = ("conjugate_gibbs", "marginal_mh")

# labels == _AT_NT gives the (2, n) alwaystaker and nevertaker masks
_AT_NT = np.array([[AT], [NT]], dtype=np.int8)
# per y cell in Y_CELLS order, whose x2 cell is x2(w1): its terms (w1, w2, w1*w2)
_CELL_TERMS = np.array([(a, b, a * b) for a, b in Y_CELLS], dtype=float)


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
        self.n = len(data)
        self.p = data.covariate_dim
        self.X1, self.z1, self.w1, self.x2 = data.X1, data.z1, data.w1, data.x2
        self.z2, self.w2, self.y = data.z2, data.w2, data.y
        self.U1 = logit_design(self.X1)
        self.w1f = self.w1.astype(float)
        self.w2f = self.w2.astype(float)
        consistent = np.zeros((self.n, 3), dtype=bool)
        consistent[:, NT] = (self.w1 == 0) & (self.w2 == 0)
        consistent[:, CO] = (self.w1 == self.z1) & (self.w2 == self.z2)
        consistent[:, AT] = (self.w1 == 1) & (self.w2 == 1)
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
        # the units admitting each type, the only entries _normalise exponentiates
        self.admissible = tuple(np.flatnonzero(consistent[:, j]) for j in range(3))
        self.obs_ycol = 2 * self.w1 + self.w2
        # observed cells of every unit, the starting point of each imputation,
        # column-major, and the flat indices in their .T of each unit's
        # counterfactual x2 cell and observed y cell
        rows = np.arange(self.n)
        self.x2_cells_obs = np.full((self.n, 2), np.nan, order="F")
        self.x2_cells_obs[rows, self.w1] = self.x2
        self.y_cells_obs = np.full((self.n, 4), np.nan, order="F")
        self.y_cells_obs[rows, self.obs_ycol] = self.y
        self.cf_flat = rows + self.n * (1 - self.w1.astype(np.intp))
        self.obs_flat = rows + self.n * self.obs_ycol.astype(np.intp)
        # the observed rows' [1, x1..., x2, w1, w2, w1*w2, y, 0], from which
        # the lists pick each block's columns, the indicators as the zero one
        p = self.p
        self.obs_cols = np.column_stack([self.U1, self.x2, self.w1f, self.w2f,
                                         self.w1f * self.w2f, self.y, np.zeros(self.n)])
        x_cols = [*range(p + 1), p + 2, p + 6, p + 6, p + 1]
        y_cols = [*range(p + 5), p + 6, p + 6, p + 5]
        self.x2_static, self.y_static = self.obs_cols[:, x_cols[:p + 2]], self.obs_cols[:, :p + 5]
        gram = self.obs_cols.T @ self.obs_cols
        self.x2_gram, self.y_gram = gram[np.ix_(x_cols, x_cols)], gram[np.ix_(y_cols, y_cols)]
        self.x2_lmap, self.y_lmap = (_indicator_map(c, p + 7) for c in (x_cols, y_cols))
        self.Kx, self.Ky, self.Dy = _complier_maps(p)
        # per unit as a complier: [1, x1..., 1 - w1] and its missing y cells
        self.cf_rows = np.vstack([self.U1.T, 1.0 - self.w1f])
        self.y_missing = self.obs_ycol != np.arange(4)[:, None]


def _indicator_map(cols: List[int], width: int) -> np.ndarray:
    """Flat indices into the (2, width) at / nt sums of the observed columns
    that fill a block's indicator rows and columns (its layout picked by
    cols): a stratum's count on its own diagonal entry, zero elsewhere."""
    s, zero = len(cols) - 3, cols[-2]
    M = np.full((s + 3, s + 3), zero)
    M[s], M[s + 1] = cols, np.add(cols, width)
    M[s, s], M[s + 1, s + 1] = 0, width
    M[:, s:s + 2] = M[s:s + 2].T
    return M


def _complier_maps(p: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Kx, Ky, Dy) for B of _normal_equations: a complier's rows are maps K'
    of its column b, so their Gram matrix is K'(B B' * D)K, D counting the rows
    a product of two entries shares (three for the logit row [1, x1...], one
    within a y cell, none across cells)."""
    m, cells = p + 15, np.arange(4)
    Kx = np.eye(m + 1)[:m, [*range(p + 2), m, m, p + 2]]
    Ky = np.zeros((m, p + 8))
    Ky[:p + 1, :p + 1] = np.eye(p + 1)
    Ky[p + 3 + cells, p + 1] = Ky[p + 11 + cells, p + 7] = 1.0
    Ky[p + 7 + cells, p + 2:p + 5] = _CELL_TERMS
    cell_of = np.r_[np.full(p + 3, -1), cells, cells, cells]
    Dy = ((cell_of[:, None] == cell_of) & (cell_of >= 0)).astype(float)
    Dy[:p + 1, p + 3:] = Dy[p + 3:, :p + 1] = 1.0
    Dy[:p + 1, :p + 1] = 3.0
    return Kx, Ky, Dy


def as_vector_data(data: Union[Dataset, _VectorData]) -> _VectorData:
    return data if isinstance(data, _VectorData) else _VectorData(data)


@dataclass
class ChainState:
    """Mutable-over-sweeps sampler state.

    compliance holds int8 codes in (nt, co, at) order.  x2_cells (n, 2) and
    y_cells (n, 4) hold the current potential tables with NaN marking cells
    the current label leaves undefined; observed cells always carry the
    dataset values bit for bit.  logweights is None or (theta, its marginal
    log posterior, its masked (n, 3) label log-weights), left by the
    marginal_mh update for the label step and the next update.
    """

    theta: Theta
    compliance: np.ndarray
    x2_cells: np.ndarray
    y_cells: np.ndarray
    rng: np.random.Generator
    logweights: Optional[Tuple[Theta, float, np.ndarray]] = None

    def n_compliers(self) -> int:
        return int((self.compliance == CO).sum())


def _vector_categorical(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from the rows of an (n, 3) probability matrix.

    A row's draw is the number of its running sums p0, p0 + p1,
    (p0 + p1) + p2 at or below u, capped at its last positive column, so a
    zero-probability column is never selected.  Every row must hold a
    positive entry.  probs may have more than two axes: column j is
    probs[:, j], which broadcasts against u, so (1, 3, k, n) probabilities
    and (s, 1, n) uniforms give (s, k, n) draws.
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


def _admissible_exp(lw: np.ndarray, admissible: Tuple[np.ndarray, ...]) -> tuple:
    """(m, e, total) for lw that is -inf outside admissible (per type, the
    rows admitting it, as in _VectorData): row maxima, the column-major
    exp(lw - m) and its row sums (e0 + e1) + e2.

    exp runs at the admissible entries only; the others get 0.0 without
    paying for exp(-inf), several times slower than exp of a finite float.
    """
    m = np.maximum(np.maximum(lw[:, 0], lw[:, 1]), lw[:, 2])
    out = np.zeros(lw.shape, order="F")
    cols = (out[:, 0], out[:, 1], out[:, 2])
    for j, rows in enumerate(admissible):
        e = np.subtract(lw[:, j].take(rows), m.take(rows))
        cols[j][rows] = np.exp(e, out=e)
    return m, out, (cols[0] + cols[1]) + cols[2]


def _normalise(lw: np.ndarray, admissible: Tuple[np.ndarray, ...]) -> np.ndarray:
    """Row-normalised exp(lw), column-major, for lw -inf outside admissible."""
    _, out, total = _admissible_exp(lw, admissible)
    return np.divide(out, total[:, None], out=out)


def compliance_posterior(theta: Theta, data: Union[Dataset, _VectorData]) -> np.ndarray:
    """(n, 3) exact conditional label probabilities given theta.

    Per unit, the weight of stratum c is the product of the two treatment
    point masses, the stratum probability, and the observed-cell densities;
    strata with a zero treatment factor get probability exactly 0.0.
    """
    vd = as_vector_data(data)
    return _normalise(_log_weights(theta, vd), vd.admissible)


def step_compliance(state: ChainState, data: Union[Dataset, _VectorData]) -> ChainState:
    """Redraw every label from its exact conditional given theta and data.

    Reuses the log-weight matrix the state carries for its theta, if any.
    """
    vd = as_vector_data(data)
    cached = state.logweights
    if cached is not None and cached[0] is state.theta:
        lw = cached[2]
    else:
        lw = _log_weights(state.theta, vd)
    u = state.rng.uniform(size=vd.n)
    codes = _vector_categorical(_normalise(lw, vd.admissible), u)
    return replace(state, compliance=codes)


def step_impute(state: ChainState, data: Union[Dataset, _VectorData]) -> ChainState:
    """Rebuild potential tables under the current labels.

    Observed cells are copied from the dataset and never redrawn.  For each
    complier the counterfactual first-period cell x2(1-w1) is drawn first,
    then the three missing y cells, each using the x2 cell that shares its
    first-period receipt.  Nevertakers and alwaystakers have no missing
    defined cells: their single cell equals the observed record.  Normals
    go to the x2 cells, then to the y cells in Y_CELLS order, units ascending.
    """
    vd = as_vector_data(data)
    th, p = state.theta, vd.p
    x2_cells = vd.x2_cells_obs.copy(order="F")
    y_cells = vd.y_cells_obs.copy(order="F")
    idx = np.flatnonzero(state.compliance == CO)
    k = idx.size
    if k:
        x2T, yT = x2_cells.T, y_cells.T
        z = state.rng.standard_normal(4 * k)
        x2T.put(vd.cf_flat.take(idx),
                (th.alpha[:p + 2] @ vd.cf_rows).take(idx) + th.sigma_x * z[:k])
        # (4, k): each y cell's mean, its receipts' terms added last
        b = th.beta
        mean = (((b[:p + 1] @ vd.cf_rows[:p + 1]).take(idx)
                 + b[p + 1] * np.repeat(x2T.take(idx, axis=1), 2, axis=0))
                + (_CELL_TERMS @ b[p + 2:p + 5])[:, None])
        noise = np.zeros((4, k))
        noise[vd.y_missing.take(idx, axis=1)] = z[k:]
        yT[:, idx] = mean + th.sigma_y * noise
        # the observed cells, overwritten above, back bit for bit
        yT.put(vd.obs_flat.take(idx), vd.y.take(idx))
    return replace(state, x2_cells=x2_cells, y_cells=y_cells)


def late_draw(state: ChainState, contrast: Contrast = DEFAULT_CONTRAST) -> float:
    """Average treatment contrast over the units currently labelled compliers."""
    co = state.compliance == CO
    if not co.any():
        raise NoCompliersInDraw("no units carry the complier label in this sweep")
    (a1, a2), (b1, b2) = contrast
    y = state.y_cells
    # compress on a column view: the same floats as y[co, j], a third of the
    # time at large n
    diff = (np.compress(co, y[:, y_cell_index(a1, a2)])
            - np.compress(co, y[:, y_cell_index(b1, b2)]))
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


def _normal_equations(state: ChainState, lab: np.ndarray, vd: _VectorData) -> Tuple[tuple, tuple]:
    """(G, r, n_rows, rss) of the intermediate and outcome blocks.

    The rows D are every unit's observed row plus each complier's
    counterfactual x2 row and three missing y rows (with the x2 cell of
    their first-period receipt), columns [1, x1..., w1, at, nt] and
    [1, x1..., x2, w1, w2, w1*w2, at, nt]: G = D'D, r = D'resp, and
    rss(coef) = |resp - D coef|^2 from residual vectors.  lab: labels == _AT_NT.
    """
    p, n = vd.p, vd.n
    ind = lab.astype(float)
    L = (ind @ vd.obs_cols).ravel()
    idx = np.flatnonzero(state.compliance == CO)
    k = idx.size
    # per complier [1, x1..., 1 - w1, x2(1 - w1)], then per y cell its paired
    # x2 cell, whether it is missing, and the y cell, cells zero if observed;
    # idx is in range, and mode "clip" lets take fill B without a checked copy
    x2T = state.x2_cells.T
    B = np.empty((p + 15, k))
    np.take(vd.cf_rows, idx, axis=1, out=B[:p + 2], mode="clip")
    np.take(x2T.ravel(), vd.cf_flat.take(idx), out=B[p + 2], mode="clip")
    cells = B[p + 3:].reshape(3, 4, k)
    cells[0] = np.repeat(x2T.take(idx, axis=1), 2, axis=0)
    cells[1] = vd.y_missing.take(idx, axis=1)
    np.take(state.y_cells.T, idx, axis=1, out=cells[2], mode="clip")
    cells[0::2] *= cells[1]
    BB = B @ B.T
    Nx = vd.x2_gram + vd.Kx.T @ BB @ vd.Kx + L[vd.x2_lmap]
    Ny = vd.y_gram + vd.Ky.T @ (BB * vd.Dy) @ vd.Ky + L[vd.y_lmap]

    def rss_x(alpha: np.ndarray) -> float:
        res = vd.x2 - vd.x2_static @ alpha[:p + 2] - alpha[p + 2:] @ ind
        cf = B[p + 2] - alpha[:p + 2] @ B[:p + 2]
        return float(res @ res) + float(cf @ cf)

    def rss_y(beta: np.ndarray) -> float:
        res = vd.y - vd.y_static @ beta[:p + 5] - beta[p + 5:] @ ind
        fit = beta[:p + 1] @ B[:p + 1] + (_CELL_TERMS @ beta[p + 2:p + 5])[:, None]
        cf = (cells[2] - beta[p + 1] * cells[0] - cells[1] * fit).ravel()
        return float(res @ res) + float(cf @ cf)

    return ((Nx[:-1, :-1], Nx[:-1, -1], n + k, rss_x),
            (Ny[:-1, :-1], Ny[:-1, -1], n + 3 * k, rss_y))


def _draw_ridge(G: np.ndarray, r: np.ndarray, sigma: float, coef_sd: float,
                rng: np.random.Generator) -> np.ndarray:
    """One draw from the normal conditional of a ridge block with G = D'D, r = D'resp."""
    k = G.shape[0]
    prec = G / sigma ** 2
    prec.flat[::k + 1] += 1.0 / coef_sd ** 2
    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as e:
        raise NumericalOverflow(f"coefficient precision matrix not positive definite: {e}")
    # mean + chol'^-1 z, as one solve: chol'^-1 z = prec^-1 chol z
    z = rng.standard_normal(k)
    draw = np.linalg.solve(prec, r / sigma ** 2 + chol @ z)
    if not np.isfinite(draw).all():
        raise NumericalOverflow("coefficient draw is non-finite")
    return draw


def _draw_variance(rss: float, n_rows: int, prior: PriorSpec, rng: np.random.Generator) -> float:
    """One inverse-gamma draw of a noise variance given the RSS of n_rows rows."""
    a = prior.scale_shape + n_rows / 2.0
    b = prior.scale_rate + 0.5 * rss
    v = 1.0 / rng.gamma(a, 1.0 / b)
    if not (np.isfinite(v) and v > 0):
        raise NumericalOverflow("variance draw is non-finite")
    return v


def _gamma_logpost(a: np.ndarray, b: np.ndarray, nt: np.ndarray, at: np.ndarray,
                   gnt: np.ndarray, gat: np.ndarray, coef_sd: float) -> float:
    """Logit rows' log likelihood of the labels plus prior; a = U1 @ gnt, b = U1 @ gat."""
    picked = np.where(at, b, 0.0)
    np.copyto(picked, a, where=nt)
    lp = -0.5 * (float(gnt @ gnt) + float(gat @ gat)) / coef_sd ** 2
    return float(np.subtract(picked, logit_lse(a, b), out=picked).sum()) + lp


def _adapt_scale(scale: float, accept_prob: float, target: float, t: int) -> float:
    gain = (t + 1.0) ** -0.7
    return float(scale * math.exp(gain * (accept_prob - target)))


def _theta_conjugate(state: ChainState, vd: _VectorData, prior: PriorSpec,
                     tuning: _Tuning) -> Theta:
    th, rng = state.theta, state.rng
    lab = state.compliance == _AT_NT
    (Gx, rx, nx, rss_x), (Gy, ry, ny, rss_y) = _normal_equations(state, lab, vd)

    # intermediate block: observed cell of every unit plus the imputed
    # counterfactual cell of each complier
    alpha = _draw_ridge(Gx, rx, th.sigma_x, prior.coef_sd, rng)
    sigma_x = math.sqrt(_draw_variance(rss_x(alpha), nx, prior, rng))

    # outcome block: observed cell of every unit plus compliers' three
    # missing cells, each with its matching first-period x2 cell
    beta = _draw_ridge(Gy, ry, th.sigma_y, prior.coef_sd, rng)
    sigma_y = math.sqrt(_draw_variance(rss_y(beta), ny, prior, rng))

    # multinomial-logit rows (nt, at): one random-walk Metropolis move each;
    # a proposal recomputes only the logit column it moves
    at, nt = lab
    g = [th.gamma_nt, th.gamma_at]
    cols = [vd.U1 @ g[0], vd.U1 @ g[1]]
    lp_cur = _gamma_logpost(*cols, nt, at, *g, prior.coef_sd)
    if not np.isfinite(lp_cur):
        raise NumericalOverflow("logit-row log posterior is non-finite")
    for row in (0, 1):
        scale = tuning.gamma_scales[row]
        prop, prop_cols = list(g), list(cols)
        prop[row] = g[row] + scale * rng.standard_normal(g[row].shape[0])
        prop_cols[row] = vd.U1 @ prop[row]
        lp_prop = _gamma_logpost(*prop_cols, nt, at, *prop, prior.coef_sd)
        if np.isnan(lp_prop):
            raise NumericalOverflow("logit-row proposal log posterior is NaN")
        accept_prob = min(1.0, math.exp(min(0.0, lp_prop - lp_cur)))
        if math.log(rng.uniform()) < lp_prop - lp_cur:
            g, cols, lp_cur = prop, prop_cols, lp_prop
        if tuning.adapting:
            tuning.gamma_scales[row] = _adapt_scale(scale, accept_prob, 0.35, tuning.t)
    return Theta(*g, alpha, sigma_x, beta, sigma_y)


def _marginal_loglik(lw: np.ndarray, admissible: Tuple[np.ndarray, ...]) -> float:
    """Sum over units of the label-marginalized log likelihood, from the
    masked log-weight matrix and its admissible rows per type."""
    m, _, total = _admissible_exp(lw, admissible)
    return float((m + np.log(total)).sum())


def marginal_score(theta: Theta, data: Union[Dataset, _VectorData]) -> np.ndarray:
    """Gradient of _marginal_loglik(_log_weights(theta, vd), vd.admissible)
    in Theta.to_vector() layout.

    It is sum_i sum_c r_ic d lw_ic / d theta, with r the normalised label
    weights: a multinomial-logit score (r - pi) U1 for the logit rows, and a
    Gaussian regression score for each of the two regression blocks, whose
    type-c design row is the static row followed by the (alwaystaker,
    nevertaker) indicators.
    """
    vd = as_vector_data(data)
    r = _normalise(_log_weights(theta, vd), vd.admissible)
    pc = np.exp(compliance_log_prob_matrix(theta, vd.U1))
    parts = [vd.U1.T @ (r[:, NT] - pc[:, NT]), vd.U1.T @ (r[:, AT] - pc[:, AT])]
    for static, resp, coef, sigma in ((vd.x2_static, vd.x2, theta.alpha, theta.sigma_x),
                                      (vd.y_static, vd.y, theta.beta, theta.sigma_y)):
        k = static.shape[1]
        # (n, 3) residuals; the indicator terms of (nt, co, at) are (coef[k+1], 0, coef[k])
        res = (resp - static @ coef[:k])[:, None] - np.array([coef[k + 1], 0.0, coef[k]])
        wres = r * res
        parts += [static.T @ wres.sum(axis=1) / sigma ** 2,
                  np.array([wres[:, AT].sum(), wres[:, NT].sum()]) / sigma ** 2,
                  [float((wres * res).sum()) / sigma ** 3 - vd.n / sigma]]
    return np.concatenate(parts)


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
          + _marginal_loglik(lw, vd.admissible))
    return lp, lw


def _theta_marginal(state: ChainState, vd: _VectorData, prior: PriorSpec,
                    tuning: _Tuning) -> Tuple[Theta, float, np.ndarray]:
    """One Metropolis step; returns the new theta, its log posterior and
    its log-weights."""
    th = state.theta
    rng = state.rng
    p = th.p
    cur = _pack_unconstrained(th)
    cached = state.logweights
    if cached is not None and cached[0] is th:
        _, lp_cur, lw_cur = cached
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
    if tuning.adapting:
        tuning.marg_scale = _adapt_scale(tuning.marg_scale, accept_prob, 0.234, tuning.t)
        # history is read once, at the sd refresh
        if tuning.sd_refresh_at is not None and tuning.t <= tuning.sd_refresh_at:
            tuning.history.append(_pack_unconstrained(new))
            if tuning.t == tuning.sd_refresh_at:
                sd_new = np.asarray(tuning.history).std(axis=0, ddof=0)
                tuning.marg_sd = np.maximum(sd_new, 1e-3)
    return new, lp_new, lw_new


def step_theta(state: ChainState, data: Union[Dataset, _VectorData], prior: PriorSpec,
               mode: str = "conjugate_gibbs", tuning: Optional[_Tuning] = None) -> ChainState:
    """Update theta given everything else (or given only data in marginal mode).

    Returns a new state; the argument keeps its theta.
    """
    if mode not in THETA_UPDATE_MODES:
        raise InvalidConfig(f"theta_update: unknown mode {mode!r}")
    vd = as_vector_data(data)
    if tuning is None:
        tuning = _Tuning()
    if mode == "marginal_mh":
        cache = _theta_marginal(state, vd, prior, tuning)
        return replace(state, theta=cache[0], logweights=cache)
    return replace(state, theta=_theta_conjugate(state, vd, prior, tuning), logweights=None)


# ---------------------------------------------------------------------------
# chain driver
# ---------------------------------------------------------------------------

def _uniform_labels(vd: _VectorData, rng: np.random.Generator) -> np.ndarray:
    """Labels drawn uniformly over each unit's admissible types, from n uniforms."""
    mask = vd.consistent.astype(float)
    return _vector_categorical(mask / mask.sum(axis=1, keepdims=True), rng.uniform(size=vd.n))


def init_state(data: Union[Dataset, _VectorData], rng: np.random.Generator) -> ChainState:
    """Starting state: labels uniform over each unit's admissible types,
    coefficients at their prior means, noise scales at the sample spreads."""
    vd = as_vector_data(data)
    codes = _uniform_labels(vd, rng)
    p = vd.p
    sx = max(float(vd.x2.std()), 1e-2)
    sy = max(float(vd.y.std()), 1e-2)
    theta0 = Theta(np.zeros(p + 1), np.zeros(p + 1), np.zeros(p + 4), sx,
                   np.zeros(p + 7), sy)
    state = ChainState(theta0, codes, np.full((vd.n, 2), np.nan),
                       np.full((vd.n, 4), np.nan), rng)
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
    co = codes == CO
    if np.isnan(state.x2_cells[co]).any() or np.isnan(state.y_cells[co]).any():
        raise AssertionError("a complier table has an undefined cell")


def run_chain(data: Union[Dataset, _VectorData], prior: PriorSpec, cfg: SamplerConfig,
              chain_index: int = 0, contrast: Contrast = DEFAULT_CONTRAST,
              check_invariants: bool = False) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run one chain; returns its kept draws as (theta, late, n_compliers)
    arrays, one row per kept sweep, laid out as FitResult's per chain.

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
    theta = np.empty((cfg.n_draws, theta_dim(vd.p)))
    late = np.empty(cfg.n_draws)
    n_compliers = np.empty(cfg.n_draws, dtype=np.int64)
    marginal = cfg.theta_update == "marginal_mh"
    for t in range(cfg.n_warmup + cfg.n_draws):
        tuning.adapting = t < cfg.n_warmup
        tuning.t = t
        try:
            state = step_theta(state, vd, prior, cfg.theta_update, tuning)
            # the marginal theta chain never reads labels or cells
            if not (marginal and tuning.adapting):
                state = step_compliance(state, vd)
                state = step_impute(state, vd)
        except SeqlateError as e:
            raise type(e)(f"sweep {t + 1}: {e}") from e
        if check_invariants:
            _check_state_invariants(state, vd)
        j = t - cfg.n_warmup
        if j >= 0:
            theta[j] = state.theta.to_vector()
            n_compliers[j] = state.n_compliers()
            try:
                late[j] = late_draw(state, contrast)
            except NoCompliersInDraw:
                late[j] = np.nan
    return theta, late, n_compliers


@dataclass
class FitResult:
    """Kept draws of every chain as arrays, plus layout metadata.

    theta is (chains, draws, d) in Theta.to_vector() layout, named by
    theta_names(); late is (chains, draws), NaN on a sweep whose label draw
    had no compliers; n_compliers is (chains, draws).
    """

    theta: np.ndarray
    late: np.ndarray
    n_compliers: np.ndarray
    p: int
    config: SamplerConfig

    @property
    def n_chains(self) -> int:
        return self.late.shape[0]

    @property
    def n_draws(self) -> int:
        return self.late.shape[1]

    def theta_names(self) -> List[str]:
        return theta_field_names(self.p)

    def pooled_late(self) -> np.ndarray:
        flat = self.late.ravel()
        return flat[np.isfinite(flat)]


def fit(data: Dataset, prior: PriorSpec, cfg: SamplerConfig,
        contrast: Contrast = DEFAULT_CONTRAST, check_invariants: bool = False) -> FitResult:
    """Run cfg.n_chains independent chains over their own substreams."""
    vd = as_vector_data(data)
    chains = []
    for k in range(cfg.n_chains):
        log.info("running chain %d/%d", k + 1, cfg.n_chains)
        chains.append(run_chain(vd, prior, cfg, chain_index=k, contrast=contrast,
                                check_invariants=check_invariants))
    theta, late, n_compliers = map(np.stack, zip(*chains))
    return FitResult(theta, late, n_compliers, vd.p, cfg)
