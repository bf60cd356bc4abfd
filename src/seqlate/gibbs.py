"""Posterior sampling by data augmentation over latent compliance labels.

Each sweep has up to three blocks, executed in this order:

1. step_theta: update the parameter vector.  In "conjugate_gibbs" mode the
   regression coefficients and noise variances are drawn from their exact
   normal / inverse-gamma conditionals given the labels, and the
   multinomial-logit rows get a random-walk Metropolis move given the
   labels.  In "marginal_mh" mode the full parameter vector takes one
   random-walk Metropolis step whose target has the labels summed out
   entirely.
2. step_compliance: redraw each unit's label from its exact conditional
   given the parameters and that unit's observed record.  Types the
   assignment/receipt pattern rules out are never drawn.
3. step_impute: draw each chain's complier effect given theta and the
   labels.

The conjugate regressions read each unit's observed row plus its (at, nt)
label indicators, and no imputed cell.  Given the labels, a complier's
missing cells are drawn from the model itself, so integrating them out of
the joint posterior leaves exactly that regression: the update draws from
p(theta | labels, observed data), a partially collapsed Gibbs step (van Dyk
& Park 2008).  The random-walk move of the logit rows scores the labels
from their per-stratum sums of the logit design, which the regressions
form anyway, and the log-sum-exp of every unit's logits.

The complier effect is the only quantity a fit reports that reads the
missing cells, and it reads them linearly.  Given theta and the labels the
missing cells are independent across units and Gaussian, so the effect,
the mean over the K compliers of y(a) - y(b), is exactly N(mu / K, V / K^2):
mu sums each complier's contrast with its missing cells at their model
means, and V sums their noise variances, sigma_y^2 per missing contrast
cell plus (beta_x2 sigma_x)^2 when the two cells read different imputed x2
values.  Both are linear in the compliers' sums of [U1, x2, y] within each
(w1, w2) group, one matrix product per sweep, so step_impute draws the
effect with one normal per chain and no cell is ever imputed.  The joint
law of (theta, labels, effect) is that of imputing the cells and averaging
them, so the sweep leaves the joint posterior invariant in both modes.

Only kept sweeps draw the effect; a state carries none before its first.
The marginal theta chain reads no labels, so its warmup sweeps run
step_theta alone; conjugate warmup sweeps draw labels too, which the next
update reads.  Every kept sweep, the first included, draws the labels and
the effect exactly given its theta.

Chains run in lockstep.  The state carries a leading chain axis: its Theta
holds (C, .) fields, its labels are (C, n) and its label matrices (C, n, 3),
and every block runs once per sweep for all C chains.  Chain k
still draws every variate from its own substream(seed, "chain", k), in the
order and sizes a chain run alone would, so a chain's draws do not depend on
which chains run beside it.  Per-chain products are stacked matrix products
(one BLAS call per chain row) and everything else is elementwise, so the
floats are those of the chain run alone.  Only the draws and the
Metropolis decisions loop over chains.

The conjugate blocks regress without stacking rows: the observed rows'
Gram matrices are built once per dataset, and each sweep adds the label
sums in closed form (_normal_equations).  In "marginal_mh" mode the
accepted theta's log posterior and log-weights travel with the state: the
label step draws from the log-weights instead of evaluating them again, and
the next Metropolis step starts from both.

Monotonicity rules out defiers, so each unit admits one type or the pair
{nt, co} or {co, at} (Imbens & Rubin 1997).  A one-type unit's label is its
lower code, written without evaluating any density, and its marginal
likelihood that type's log-weight.  The label matrices are type-major:
(C, n, 3) views of (3, C, n) arrays in (nt, co, at) order where every unit
is evaluated at every type (marginal_mh, marginal_score, the validation
oracles), and in the conjugate label step (C, m, 2) views of (2, C, m)
arrays of the m two-type units' (lower, upper) types.  A pair is reduced to
m = its maximum, e = exp(lw - m) and e_lower + e_upper, and takes the upper
code iff p_lower = e_lower / (e_lower + e_upper) is at or below its uniform:
the floats of the row-wise reductions over all three types, whose
inadmissible terms are exact zeros.  The buffers are allocated once per
dataset and chain count (_Work), so a sweep does not fault in fresh pages.

Proposal scales adapt per chain with a decaying Robbins-Monro rule during
warmup only and freeze afterwards, so kept draws come from a fixed-kernel
chain.

The run writes each kept sweep's parameter vectors, complier effects and
complier counts into preallocated (chains, draws) arrays, the layout of a
FitResult.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .domain import AT, CO, DEFAULT_CONTRAST, NT, Contrast, Dataset, Y_CELLS, y_cell_index
from .errors import (
    InconsistentUnit,
    InvalidConfig,
    NumericalOverflow,
    SeqlateError,
)
from .model import (
    EVERY_TYPE,
    PriorSpec,
    Theta,
    compliance_log_prob_matrix,
    logit_design,
    log_prior,
    logit_lse,
    observed_cell_logliks,
    row_dot,
    theta_dim,
    theta_field_names,
    type_major,
    types_first,
    types_last,
)
from .rng import substream

log = logging.getLogger(__name__)

THETA_UPDATE_MODES = ("conjugate_gibbs", "marginal_mh")

# labels[:, None] == _AT_NT gives the (C, 2, n) alwaystaker and nevertaker masks
_AT_NT = np.array([[AT], [NT]], dtype=np.int8)


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

    layout = EVERY_TYPE    # the density kernels read every unit at every type

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
        # a unit admits its lowest admissible code and at most the next one;
        # two lists the two-type units, the {nt, co} ones before the {co, at}
        self.low = consistent.argmax(axis=1).astype(np.int8)
        pair = np.where(consistent.sum(axis=1) == 2, self.low, -1)
        self.two = np.concatenate([np.flatnonzero(pair == NT), np.flatnonzero(pair == CO)])
        self.obs_ycol = 2 * self.w1 + self.w2
        # (4, n) masks of the (w1, w2) groups, in Y_CELLS order
        self.groups = self.obs_ycol == np.arange(4)[:, None]
        # the observed rows' [1, x1..., x2, w1, w2, w1*w2, y, 0], from which
        # the lists pick each block's columns, the indicators as the zero one;
        # column-major, so that a run of columns is one contiguous block,
        # which BLAS reads several times faster than a strided (n, k) slice
        p = self.p
        self.obs_cols = np.array([*self.U1.T, self.x2, self.w1f, self.w2f,
                                  self.w1f * self.w2f, self.y, np.zeros(self.n)]).T
        x_cols = [*range(p + 1), p + 2, p + 6, p + 6, p + 1]
        y_cols = [*range(p + 5), p + 6, p + 6, p + 5]
        self.x2_static = np.asfortranarray(self.obs_cols[:, x_cols[:p + 2]])
        self.y_static = self.obs_cols[:, :p + 5]
        gram = self.obs_cols.T @ self.obs_cols
        self.x2_gram, self.y_gram = gram[np.ix_(x_cols, x_cols)], gram[np.ix_(y_cols, y_cols)]
        self.x2_lmap, self.y_lmap = (_indicator_map(c, p + 7) for c in (x_cols, y_cols))
        self._works: Dict[int, _Work] = {}

    @functools.cached_property
    def pair_units(self) -> SimpleNamespace:
        """The two-type units' columns and the kernel layout of their pairs."""
        nt_co = int((self.low[self.two] == NT).sum())
        return SimpleNamespace(
            layout=((slice(0, nt_co), slice(NT, CO + 1)), (slice(nt_co, None), slice(CO, AT + 1))),
            **{k: getattr(self, k)[self.two] for k in ("U1", "X1", "w1f", "w2f", "x2", "y")})

    def work(self, n_chains: int) -> "_Work":
        """The buffers of a lockstep run of n_chains chains on this dataset."""
        if n_chains not in self._works:
            self._works[n_chains] = _Work(self, n_chains)
        return self._works[n_chains]


class _Work:
    """Buffers and indices reused sweep after sweep by C chains on one dataset.

    The label step draws from the (C, n) uniforms u; two holds the flat
    indices of the two-type units in a (C, n) array, lower their lower codes
    and codes every unit's.  Made on first use: pair, the two-type units'
    (lower, upper) log-weights and cell densities, (C, m, 2) views of
    (2, C, m) arrays; cells, every unit's at every type, a (C, n, 3) view of
    a (3, C, n) array, as are the two log-weight matrices a marginal_mh state
    caches (lw), which alternate, so that a step's input stays valid.  low
    (C, n) and pairs (2, C, m) are flat indices into a (3, C, n) block, or a
    (3, n) one for one chain: every unit's lower type, each pair's types.
    """

    def __init__(self, vd: _VectorData, n_chains: int):
        C, n = n_chains, vd.n
        self.shape = (C, n)
        self.two = vd.two + n * np.arange(C)[:, None]
        self.codes = np.tile(vd.low, (C, 1))
        self.lower = np.take(self.codes, self.two)
        self.u = np.empty((C, n))

    @functools.cached_property
    def pair(self) -> Tuple[np.ndarray, np.ndarray]:
        C, m = self.two.shape
        return type_major((C,), m, 2), type_major((C,), m, 2)

    @functools.cached_property
    def low(self) -> np.ndarray:
        size = self.codes.size
        return self.codes.astype(np.intp) * size + np.arange(size).reshape(self.shape)

    @functools.cached_property
    def pairs(self) -> np.ndarray:
        lower = np.take(self.low, self.two)
        return np.stack([lower, lower + self.low.size])

    @functools.cached_property
    def cells(self) -> np.ndarray:
        return type_major(self.shape[:1], self.shape[1])

    @functools.cached_property
    def lw(self) -> Tuple[np.ndarray, np.ndarray]:
        C, n = self.shape
        return type_major((C,), n), type_major((C,), n)


def _free(pair: tuple, held) -> np.ndarray:
    """The buffer of pair that held is not."""
    return pair[1] if held is pair[0] else pair[0]


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


def as_vector_data(data: Union[Dataset, _VectorData]) -> _VectorData:
    return data if isinstance(data, _VectorData) else _VectorData(data)


@dataclass
class ChainState:
    """Mutable-over-sweeps state of C chains run in lockstep.

    theta has a chain axis.  compliance holds (C, n) int8 codes in
    (nt, co, at) order.  rngs holds one Generator per chain.  logweights is
    None or (theta, its (C,) marginal log posteriors, its (C, n, 3) label
    log-weights), left by the marginal_mh update for the label step
    and the next update.  logits is None or (theta, U1 @ gamma_nt,
    U1 @ gamma_at, and their log-sum-exp with the complier's zero), each
    (C, n), left by the conjugate update for the label step and the next
    update.  effect is None before the first kept sweep, then (contrast,
    the (C,) complier effects step_impute drew for it given theta and the
    labels, NaN for a chain with no compliers); only late_draw reads it.
    """

    theta: Theta
    compliance: np.ndarray
    rngs: Tuple[np.random.Generator, ...]
    logweights: Optional[Tuple[Theta, np.ndarray, np.ndarray]] = None
    logits: Optional[Tuple[Theta, np.ndarray, np.ndarray, np.ndarray]] = None
    effect: Optional[Tuple[Contrast, np.ndarray]] = None

    def n_compliers(self) -> np.ndarray:
        return (self.compliance == CO).sum(axis=-1)


def _cached(cache: Optional[tuple], theta: Theta) -> Optional[tuple]:
    """A state's cache without its key, if it was left for theta."""
    return cache[1:] if cache is not None and cache[0] is theta else None


def _log_weights(theta: Theta, vd, out=None, cells=None, logits=None) -> np.ndarray:
    """(..., n, k) unnormalised log label weights, type-major, of the units
    and types of vd: a _VectorData's, every type, admissible or not, or its
    pair_units'.  out and cells: optional type-major buffers for the
    result and for the observed-cell densities (out is their scratch until
    the stratum probabilities fill it); logits: theta's logit columns at
    those units and their log-sum-exp, if known."""
    cells = observed_cell_logliks(theta, vd.X1, vd.w1f, vd.w2f, vd.x2, vd.y,
                                  out=cells, scratch=out, layout=vd.layout)
    lw = compliance_log_prob_matrix(theta, vd.U1, out=out, logits=logits, layout=vd.layout)
    lw += cells
    return lw


def _pair_exp(lw: np.ndarray, pairs: Optional[np.ndarray] = None) -> tuple:
    """(m, e, total) of the two-type units' (lower, upper) log-weights: the
    larger of each pair, the (2, ..., len(two)) exp(lw - m) and their sums
    e_lower + e_upper.  The pairs are lw's entries at pairs, flat indices
    into the (3, ..., n) view of three-type log-weights lw (..., n, 3), or
    without pairs lw itself, a (2, ..., len(two)) array that e overwrites."""
    g = lw if pairs is None else np.take(types_first(lw).reshape(-1), pairs)
    m = np.maximum(g[0], g[1])
    e = np.exp(np.subtract(g, m, out=g), out=g)
    return m, e, np.add(e[0], e[1])


def _draw_labels(vd: _VectorData, p_lower, u: np.ndarray) -> np.ndarray:
    """int8 labels from uniforms u (..., n): each unit's lower admissible
    code, the upper one at a two-type unit where p_lower (..., len(two)),
    its lower type's probability, is at or below its uniform; p_lower
    broadcasts against u, so (k, .) probabilities and (s, 1, n) uniforms
    give (s, k, n) labels."""
    upper = p_lower <= u[..., vd.two]
    codes = np.empty(upper.shape[:-1] + (vd.n,), dtype=np.int8)
    codes[...] = vd.low
    codes[..., vd.two] += upper
    return codes


def step_compliance(state: ChainState, data: Union[Dataset, _VectorData]) -> ChainState:
    """Redraw every label of every chain from its exact conditional given
    theta and data, from n uniforms of each chain's stream.

    Reads the two-type units' pairs from the log-weight matrix the state
    carries for its theta, if any, else evaluates them alone.
    """
    vd = as_vector_data(data)
    w = vd.work(len(state.rngs))
    cached = _cached(state.logweights, state.theta)
    if cached is not None:
        _, e, total = _pair_exp(cached[1], w.pairs)
    else:
        logits = _cached(state.logits, state.theta)
        if logits is not None:
            logits = [np.take(col, w.two) for col in logits]
        lw = _log_weights(state.theta, vd.pair_units, *w.pair, logits=logits)
        _, e, total = _pair_exp(types_first(lw))
    for rng, row in zip(state.rngs, w.u):
        rng.random(out=row)
    # each unit's lower code, the upper one where p_lower <= u
    codes = w.codes.copy()
    np.put(codes, w.two, w.lower + (np.divide(e[0], total, out=total) <= np.take(w.u, w.two)))
    return replace(state, compliance=codes)


def _arms(contrast: Contrast) -> Contrast:
    """contrast as a tuple of int pairs, whatever sequences it came in."""
    return tuple((int(a), int(b)) for a, b in contrast)


@functools.lru_cache(maxsize=None)
def _effect_weights(contrast: Contrast) -> np.ndarray:
    """(11, 4) weights over the (w1, w2) groups, in Y_CELLS order, that turn
    each group's complier sums of the observed columns into the terms of the
    complier effect's conditional moments.

    For a complier in group (w1, w2), an arm's y cell is observed, or missing
    and at its model mean with the observed x2 if the arm's first receipt is
    w1 and with the mean of the imputed x2 otherwise.  Rows sum over the two
    arms, the treated with sign +1 and the control with -1: 0 observed y;
    1 missing cells with the observed x2; 2 missing cells; 3 missing cells
    with the imputed x2, and 4 those times their first receipt; 5-7 missing
    cells times their (w1, w2, w1*w2) terms.  Then the variance terms: 8 the
    number of y noises left in the difference (an arm's noise cancels
    against the other arm's when both read the same cell), 9 the square of
    row 3, the loading of the imputed x2 noise; and 10 the count.
    """
    W = np.zeros((11, 4))
    for g, (w1, _) in enumerate(Y_CELLS):
        noise = np.zeros(4)
        for sign, (a1, a2) in zip((1.0, -1.0), contrast):
            cell = y_cell_index(a1, a2)
            if cell == g:
                W[0, g] += sign
                continue
            noise[cell] += sign
            W[2, g] += sign
            W[5:8, g] += sign * np.array([a1, a2, a1 * a2])
            if a1 == w1:
                W[1, g] += sign
            else:
                W[3:5, g] += sign * np.array([1.0, a1])
        W[8:11, g] = noise @ noise, W[3, g] ** 2, 1.0
    W.flags.writeable = False
    return W


def step_impute(state: ChainState, data: Union[Dataset, _VectorData],
                contrast: Contrast = DEFAULT_CONTRAST) -> ChainState:
    """Draw each chain's complier effect for contrast from its exact
    conditional given theta and the labels, with one normal from each
    chain's stream, drawn whether or not the chain has compliers.

    Given (theta, labels) every complier's missing cells are Gaussian and
    independent of the other compliers', and the effect is linear in them:
    it is N(mu / K, V / K^2) over the K compliers, mu the sum of their
    contrasts at the cells' model means and V the sum of the contrasts'
    noise variances.  Both are linear in the compliers' sums of the
    observed columns within each (w1, w2) group: one (C, 4, n) @ (n, p + 6)
    product, weighted by _effect_weights.  NaN for a chain with no compliers.
    """
    vd = as_vector_data(data)
    p, th, arms = vd.p, state.theta, _arms(contrast)
    co = state.compliance[:, None, :] == CO
    sums = _effect_weights(arms) @ ((co & vd.groups).astype(float) @ vd.obs_cols[:, :p + 6])
    # columns of obs_cols: U1, whose first is the count, x2 and y
    U, x2, y = slice(0, p + 1), p + 1, p + 5
    a, b = th.alpha, th.beta
    b_x2 = b[:, x2]
    mu = (sums[:, 0, y] + b_x2 * sums[:, 1, x2] + _dots(b[:, U], sums[:, 2, U])
          + b_x2 * (_dots(a[:, U], sums[:, 3, U]) + a[:, p + 1] * sums[:, 4, 0])
          + _dots(b[:, p + 2:p + 5], sums[:, 5:8, 0]))
    var = th.sigma_y ** 2 * sums[:, 8, 0] + (b_x2 * th.sigma_x) ** 2 * sums[:, 9, 0]
    k = sums[:, 10, 0]
    z = np.array([rng.standard_normal() for rng in state.rngs])
    effect = np.divide(mu + np.sqrt(var) * z, k, out=np.full(k.shape, np.nan), where=k > 0)
    return replace(state, effect=(arms, effect))


def late_draw(state: ChainState, contrast: Contrast = DEFAULT_CONTRAST) -> np.ndarray:
    """(C,) complier effects step_impute last drew for contrast; NaN for a
    chain with no compliers."""
    if state.effect is None or state.effect[0] != _arms(contrast):
        raise InvalidConfig(f"contrast: no complier effect was drawn for {contrast}")
    return state.effect[1]


# ---------------------------------------------------------------------------
# theta updates
# ---------------------------------------------------------------------------

@dataclass
class _Tuning:
    """Adaptation state of C chains, one scale per chain and block; frozen
    once warmup ends."""

    n_chains: int = 1
    adapting: bool = False
    t: int = 0
    gamma_scales: np.ndarray = 0.25
    marg_scale: np.ndarray = 0.2
    marg_sd: Optional[np.ndarray] = None
    history: List[np.ndarray] = field(default_factory=list)
    sd_refresh_at: Optional[int] = None

    def __post_init__(self):
        C = self.n_chains
        self.gamma_scales = np.array(np.broadcast_to(self.gamma_scales, (C, 2)), dtype=float)
        self.marg_scale = np.array(np.broadcast_to(self.marg_scale, (C,)), dtype=float)


def _dots(u: np.ndarray, v: Optional[np.ndarray] = None) -> np.ndarray:
    """u @ v, by default u @ u, for every row (one BLAS dot product each)."""
    return np.matmul(u[..., None, :], (u if v is None else v)[..., :, None])[..., 0, 0]


def _normal_equations(lab: np.ndarray, vd: _VectorData) -> Tuple[tuple, tuple, tuple]:
    """Per chain (G, r, n_rows, rss) of the intermediate and outcome blocks,
    stacked along a leading chain axis, and the (C, p + 1) sums of U1 over
    each chain's nevertakers and over its alwaystakers, which score the
    labels under the logit rows (_gamma_logpost).

    A chain's rows D are every unit's observed row, columns
    [1, x1..., w1, at, nt] and [1, x1..., x2, w1, w2, w1*w2, at, nt] with
    (at, nt) its labels' indicators, and no imputed cell: G = D'D,
    r = D'resp, n_rows = n, and rss(coef) = |resp - D coef|^2 from residual
    vectors (not from G and r, whose difference cancels away the sum of
    squares when responses sit far from zero), for (C, .) coef.
    lab: (C, 2, n) labels == _AT_NT.
    """
    C, p = lab.shape[0], vd.p
    ind = lab.astype(float)
    sums = ind @ vd.obs_cols
    L = sums.reshape(C, -1)

    def block(gram, lmap, static, resp):
        N = gram + L[:, lmap]
        k = static.shape[1]

        def rss(coef: np.ndarray) -> np.ndarray:
            return _dots(resp - row_dot(coef[:, :k], static)
                         - np.matmul(coef[:, None, k:], ind)[:, 0])
        return N[:, :-1, :-1], N[:, :-1, -1], vd.n, rss

    return (block(vd.x2_gram, vd.x2_lmap, vd.x2_static, vd.x2),
            block(vd.y_gram, vd.y_lmap, vd.y_static, vd.y),
            (sums[:, 1, :p + 1], sums[:, 0, :p + 1]))


def _draw_ridge(G: np.ndarray, r: np.ndarray, sigma: np.ndarray, coef_sd: float,
                z: np.ndarray) -> np.ndarray:
    """One draw per chain from the normal conditional of a ridge block with
    G = D'D (C, k, k), r = D'resp (C, k) and noise scales sigma (C,), from
    standard normals z (C, k)."""
    C, k = r.shape
    # each scale squared with Python's float power, which can round
    # differently from x * x
    s2 = np.array([s ** 2 for s in sigma.tolist()])
    prec = G / s2[:, None, None]
    prec.reshape(C, -1)[:, ::k + 1] += 1.0 / coef_sd ** 2
    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as e:
        raise NumericalOverflow(f"coefficient precision matrix not positive definite: {e}")
    # mean + chol'^-1 z, as one solve: chol'^-1 z = prec^-1 chol z
    rhs = r / s2[:, None] + (chol @ z[:, :, None])[:, :, 0]
    draw = np.linalg.solve(prec, rhs[:, :, None])[:, :, 0]
    if not np.isfinite(draw).all():
        raise NumericalOverflow("coefficient draw is non-finite")
    return draw


def _draw_variance(rss: np.ndarray, prior: PriorSpec, standard_gamma: np.ndarray) -> np.ndarray:
    """One inverse-gamma draw per chain of a noise variance given the RSS,
    from a standard gamma variate of shape prior.scale_shape + n_rows / 2
    for the block's n_rows rows: the Gamma(shape, 1 / rate) draw is that
    variate times 1 / rate, as numpy's Generator.gamma computes it."""
    v = 1.0 / ((1.0 / (prior.scale_rate + 0.5 * rss)) * standard_gamma)
    if not (np.isfinite(v) & (v > 0)).all():
        raise NumericalOverflow("variance draw is non-finite")
    return v


def _gamma_logpost(gnt: np.ndarray, gat: np.ndarray, sums: tuple, lse: np.ndarray,
                   coef_sd: float):
    """Logit rows' log likelihood of the labels plus prior, per chain.

    A nevertaker scores its logit U1 @ gnt, an alwaystaker U1 @ gat and a
    complier zero, each less its lse = logit_lse(U1 @ gnt, U1 @ gat), so the
    labels enter only through sums = (U1 summed over the nevertakers, over
    the alwaystakers): gnt . sums[0] + gat . sums[1] - sum of lse, to which
    the prior adds -(gnt . gnt + gat . gat) / (2 coef_sd^2), one dot per row.
    """
    h = 0.5 / coef_sd ** 2
    return _dots(gnt, sums[0] - h * gnt) + _dots(gat, sums[1] - h * gat) - lse.sum(axis=-1)


def _adapt_scale(scale: float, accept_prob: float, target: float, t: int) -> float:
    gain = (t + 1.0) ** -0.7
    return float(scale * math.exp(gain * (accept_prob - target)))


def _metropolis(lp_prop: np.ndarray, lp_cur: np.ndarray, uniform) -> Tuple[np.ndarray, list]:
    """Per chain accept decisions and acceptance probabilities; uniform(c)
    gives chain c's uniform.  A chain whose proposal has log posterior -inf
    is rejected without asking for one."""
    accept, probs = np.zeros(lp_cur.shape[0], dtype=bool), []
    for c, (new, cur) in enumerate(zip(lp_prop.tolist(), lp_cur.tolist())):
        if new == -math.inf:
            probs.append(0.0)
            continue
        probs.append(min(1.0, math.exp(min(0.0, new - cur))))
        accept[c] = math.log(uniform(c)) < new - cur
    return accept, probs


def _conjugate_variates(rngs, kx: int, ky: int, kg: int, shape_x: float,
                        shape_y: float) -> tuple:
    """Every variate of one conjugate update, each chain's in its stream's
    order: the intermediate block's normals (C, kx) and standard gamma
    (shape_x), the outcome block's normals (C, ky) and standard gamma
    (shape_y), then per logit row its proposal normals (C, kg) and its
    uniform.  Returns (zx, zy, zg (2, C, kg), standard gammas (2, C),
    uniforms (2, C))."""
    C = len(rngs)
    zx, zy, zg = np.empty((C, kx)), np.empty((C, ky)), np.empty((2, C, kg))
    sg, u = np.empty((2, C)), np.empty((2, C))
    for c, rng in enumerate(rngs):
        rng.standard_normal(out=zx[c])
        sg[0, c] = rng.standard_gamma(shape_x)
        rng.standard_normal(out=zy[c])
        sg[1, c] = rng.standard_gamma(shape_y)
        for row in (0, 1):
            rng.standard_normal(out=zg[row, c])
            u[row, c] = rng.random()
    return zx, zy, zg, sg, u


def _theta_conjugate(state: ChainState, vd: _VectorData, prior: PriorSpec,
                     tuning: _Tuning) -> Tuple[Theta, tuple]:
    """One conjugate update of every chain; returns the new theta and its
    logit columns and their log-sum-exp."""
    th, rngs, p = state.theta, state.rngs, vd.p
    lab = state.compliance[:, None, :] == _AT_NT
    (Gx, rx, nx, rss_x), (Gy, ry, ny, rss_y), sums = _normal_equations(lab, vd)
    zx, zy, zg, sg, u = _conjugate_variates(rngs, p + 4, p + 7, p + 1,
                                            prior.scale_shape + nx / 2.0,
                                            prior.scale_shape + ny / 2.0)

    # intermediate block: the observed cell of every unit
    alpha = _draw_ridge(Gx, rx, th.sigma_x, prior.coef_sd, zx)
    sigma_x = np.sqrt(_draw_variance(rss_x(alpha), prior, sg[0]))

    # outcome block: the observed cell of every unit
    beta = _draw_ridge(Gy, ry, th.sigma_y, prior.coef_sd, zy)
    sigma_y = np.sqrt(_draw_variance(rss_y(beta), prior, sg[1]))

    # multinomial-logit rows (nt, at): one random-walk Metropolis move each;
    # a proposal recomputes only the logit column it moves
    g = [th.gamma_nt, th.gamma_at]
    logits = _cached(state.logits, th)
    if logits is None:
        cols = [row_dot(g[0], vd.U1), row_dot(g[1], vd.U1)]
        lse = logit_lse(*cols)
    else:
        *cols, lse = logits
    lp_cur = _gamma_logpost(*g, sums, lse, prior.coef_sd)
    if not np.isfinite(lp_cur).all():
        raise NumericalOverflow("logit-row log posterior is non-finite")
    for row in (0, 1):
        scale = tuning.gamma_scales[:, row].copy()
        prop, prop_cols = list(g), list(cols)
        prop[row] = g[row] + scale[:, None] * zg[row]
        prop_cols[row] = row_dot(prop[row], vd.U1)
        lse_prop = logit_lse(*prop_cols)
        lp_prop = _gamma_logpost(*prop, sums, lse_prop, prior.coef_sd)
        if np.isnan(lp_prop).any():
            raise NumericalOverflow("logit-row proposal log posterior is NaN")
        accept, probs = _metropolis(lp_prop, lp_cur, u[row].tolist().__getitem__)
        if accept.any():
            keep = accept[:, None]
            g[row] = np.where(keep, prop[row], g[row])
            cols[row] = np.where(keep, prop_cols[row], cols[row])
            lse = np.where(keep, lse_prop, lse)
            lp_cur = np.where(accept, lp_prop, lp_cur)
        if tuning.adapting:
            tuning.gamma_scales[:, row] = [_adapt_scale(s, a, 0.35, tuning.t)
                                           for s, a in zip(scale.tolist(), probs)]
    return Theta(*g, alpha, sigma_x, beta, sigma_y), (*cols, lse)


def _marginal_loglik(lw: np.ndarray, vd: _VectorData):
    """Sum over units of the label-marginalized log likelihood from the
    log-weights lw (..., n, 3), per chain for a chain axis: a one-type
    unit's log-weight, a two-type unit's m + log(e_lower + e_upper)."""
    w = vd.work(lw.shape[0] if lw.ndim == 3 else 1)
    s = np.take(types_first(lw).reshape(-1), w.low)
    m, _, total = _pair_exp(lw, w.pairs)
    np.put(s, w.two, np.add(m, np.log(total, out=total), out=total))
    s = s.sum(axis=-1)
    return s if lw.ndim == 3 else float(s[0])


def marginal_score(theta: Theta, data: Union[Dataset, _VectorData]) -> np.ndarray:
    """Gradient of _marginal_loglik(_log_weights(theta, vd), vd) in
    Theta.to_vector() layout, for a theta without a chain axis.

    It is sum_i sum_c r_ic d lw_ic / d theta, with r the normalised label
    weights: a multinomial-logit score (r - pi) U1 for the logit rows, and a
    Gaussian regression score for each of the two regression blocks, whose
    type-c design row is the static row followed by the (alwaystaker,
    nevertaker) indicators.
    """
    vd = as_vector_data(data)
    w = vd.work(1)
    _, e, total = _pair_exp(_log_weights(theta, vd), w.pairs)
    r = np.zeros(3 * vd.n)
    r[w.low] = 1.0
    r[w.pairs] = e / total
    r = types_last(r.reshape(3, vd.n))
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


def _sigma_index(p: int) -> int:
    return 2 * (p + 1) + (p + 4)


def _pack_unconstrained(theta: Theta) -> np.ndarray:
    """(C, d) parameter vectors with both noise scales on the log scale."""
    vec = theta.to_vector()
    for i in (_sigma_index(theta.p), -1):
        vec[:, i] = [math.log(s) for s in vec[:, i].tolist()]
    return vec


def _unpack_unconstrained(vec: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """(C, d) vectors back to the Theta scale, and per chain whether the
    result is a valid Theta row (finite, positive noise scales)."""
    v = vec.copy()
    ok = np.isfinite(v).all(axis=1)
    for i in (_sigma_index(p), -1):
        for c, x in enumerate(v[:, i].tolist()):
            try:
                v[c, i] = math.exp(x)
            except OverflowError:
                ok[c] = False
        ok &= v[:, i] > 0
    return v, ok


def _marginal_logpost(theta: Theta, vd: _VectorData, prior: PriorSpec,
                      out=None) -> Tuple[np.ndarray, np.ndarray]:
    """Per chain log posterior on the log-sigma scale, and the log-weights,
    written into out when given."""
    w = vd.work(theta.gamma_nt.shape[0])
    lw = _log_weights(theta, vd, out=out, cells=w.cells)
    # change of variables to log sigma adds 2*log(sigma) per noise scale
    logs = [np.array([math.log(s) for s in sigma.tolist()])
            for sigma in (theta.sigma_x, theta.sigma_y)]
    lp = (log_prior(theta, prior) + 2.0 * logs[0] + 2.0 * logs[1]
          + _marginal_loglik(lw, vd))
    return lp, lw


def _theta_marginal(state: ChainState, vd: _VectorData, prior: PriorSpec,
                    tuning: _Tuning) -> Tuple[Theta, np.ndarray, np.ndarray]:
    """One Metropolis step per chain; returns the new theta, its log
    posteriors and its log-weights.  A chain that rejects keeps its theta
    row and log-weights bit for bit; when no chain accepts, the theta and
    the log-weights are the state's own objects."""
    th, rngs = state.theta, state.rngs
    p = th.p
    w = vd.work(len(rngs))
    cur = _pack_unconstrained(th)
    cached = state.logweights
    if cached is not None and cached[0] is th:
        _, lp_cur, lw_cur = cached
    else:
        lp_cur, lw_cur = _marginal_logpost(th, vd, prior, _free(w.lw, cached and cached[2]))
    if not np.isfinite(lp_cur).all():
        raise NumericalOverflow("current marginal log posterior is non-finite")
    sd = tuning.marg_sd if tuning.marg_sd is not None else np.ones(cur.shape[1])
    z = np.empty(cur.shape)
    for rng, row in zip(rngs, z):
        rng.standard_normal(out=row)
    vec, valid = _unpack_unconstrained(cur + tuning.marg_scale[:, None] * sd * z, p)
    lp_prop = np.full(len(rngs), -np.inf)
    if valid.any():
        # an invalid proposal is evaluated at the current theta and rejected
        vec[~valid] = th.to_vector()[~valid]
        prop = Theta.from_vector(vec, p)
        lp, lw_prop = _marginal_logpost(prop, vd, prior, _free(w.lw, lw_cur))
        if np.isnan(lp[valid]).any():
            raise NumericalOverflow("proposal marginal log posterior is NaN")
        lp_prop[valid] = lp[valid]
    accept, probs = _metropolis(lp_prop, lp_cur, lambda c: rngs[c].uniform())
    new, lp_new, lw_new = th, lp_cur, lw_cur
    if accept.all():
        new, lp_new, lw_new = prop, lp_prop, lw_prop
    elif accept.any():
        new = Theta.from_vector(np.where(accept[:, None], vec, th.to_vector()), p)
        lp_new = np.where(accept, lp_prop, lp_cur)
        # type-major: the chain axis is the middle one of (3, C, n)
        np.copyto(types_first(lw_prop), types_first(lw_cur),
                  where=~accept[:, None])
        lw_new = lw_prop
    if tuning.adapting:
        tuning.marg_scale[:] = [_adapt_scale(s, a, 0.234, tuning.t)
                                for s, a in zip(tuning.marg_scale.tolist(), probs)]
        # history is read once, at the sd refresh
        if tuning.sd_refresh_at is not None and tuning.t <= tuning.sd_refresh_at:
            tuning.history.append(_pack_unconstrained(new))
            if tuning.t == tuning.sd_refresh_at:
                sd_new = np.asarray(tuning.history).std(axis=0, ddof=0)
                tuning.marg_sd = np.maximum(sd_new, 1e-3)
    return new, lp_new, lw_new


def step_theta(state: ChainState, data: Union[Dataset, _VectorData], prior: PriorSpec,
               mode: str = "conjugate_gibbs", tuning: Optional[_Tuning] = None) -> ChainState:
    """Update theta given the labels (or given only data in marginal mode);
    no mode reads the complier effect.

    Returns a new state; the argument keeps its theta.
    """
    if mode not in THETA_UPDATE_MODES:
        raise InvalidConfig(f"theta_update: unknown mode {mode!r}")
    vd = as_vector_data(data)
    if tuning is None:
        tuning = _Tuning(n_chains=len(state.rngs))
    if mode == "marginal_mh":
        cache = _theta_marginal(state, vd, prior, tuning)
        return replace(state, theta=cache[0], logweights=cache)
    theta, logits = _theta_conjugate(state, vd, prior, tuning)
    return replace(state, theta=theta, logweights=None, logits=(theta, *logits))


# ---------------------------------------------------------------------------
# chain driver
# ---------------------------------------------------------------------------

def _uniform_labels(vd: _VectorData, rng: np.random.Generator) -> np.ndarray:
    """Labels drawn uniformly over each unit's admissible types, from n uniforms."""
    return _draw_labels(vd, 0.5, rng.uniform(size=vd.n))


def init_state(data: Union[Dataset, _VectorData],
               rngs: Sequence[np.random.Generator]) -> ChainState:
    """Starting state of one chain per Generator: labels uniform over each
    unit's admissible types, coefficients at their prior means, noise
    scales at the sample spreads, and no complier effect."""
    vd = as_vector_data(data)
    rngs = tuple(rngs)
    C, p = len(rngs), vd.p
    codes = np.stack([_uniform_labels(vd, rng) for rng in rngs])
    sx = max(float(vd.x2.std()), 1e-2)
    sy = max(float(vd.y.std()), 1e-2)
    theta0 = Theta(np.zeros((C, p + 1)), np.zeros((C, p + 1)), np.zeros((C, p + 4)),
                   np.full(C, sx), np.zeros((C, p + 7)), np.full(C, sy))
    return ChainState(theta0, codes, rngs)


def _check_state_invariants(state: ChainState, vd: _VectorData, chains: Sequence[int]) -> None:
    """The labels are admissible, and a drawn effect is finite exactly for
    the chains with compliers."""
    rows = np.arange(vd.n)
    has_compliers = state.n_compliers() > 0
    for c, k in enumerate(chains):
        ok = vd.consistent[rows, state.compliance[c]]
        if not ok.all():
            i = int(np.nonzero(~ok)[0][0])
            raise AssertionError(f"chain {k}: unit {i} carries an inadmissible label")
        if state.effect is not None and np.isfinite(state.effect[1][c]) != has_compliers[c]:
            raise AssertionError(f"chain {k}: the complier effect is finite only with compliers")


def run_chain(data: Union[Dataset, _VectorData], prior: PriorSpec, cfg: SamplerConfig,
              chains: Optional[Sequence[int]] = None, contrast: Contrast = DEFAULT_CONTRAST,
              check_invariants: bool = False) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the chains with the given indices (default: all cfg.n_chains) in
    lockstep; returns their kept draws as (theta, late, n_compliers) arrays
    of shape (chains, draws, d) and (chains, draws), laid out as FitResult's.

    Chain k draws from substream(cfg.seed, "chain", k) alone, so its draws
    are the same whichever chains run beside it.  Step errors are re-raised
    with the failing sweep number attached.
    """
    if cfg.seed is None:
        raise InvalidConfig("seed: a sampler seed is required")
    chains = list(range(cfg.n_chains) if chains is None else map(int, chains))
    if not chains:
        raise InvalidConfig("chains: at least one chain index is required")
    vd = as_vector_data(data)
    state = init_state(vd, [substream(cfg.seed, "chain", k) for k in chains])
    C = len(chains)
    tuning = _Tuning(n_chains=C, marg_scale=cfg.mh_step_scale,
                     sd_refresh_at=max(1, cfg.n_warmup // 2))
    theta = np.empty((C, cfg.n_draws, theta_dim(vd.p)))
    late = np.empty((C, cfg.n_draws))
    n_compliers = np.empty((C, cfg.n_draws), dtype=np.int64)
    marginal = cfg.theta_update == "marginal_mh"
    for t in range(cfg.n_warmup + cfg.n_draws):
        tuning.adapting = t < cfg.n_warmup
        tuning.t = t
        kept = not tuning.adapting
        try:
            state = step_theta(state, vd, prior, cfg.theta_update, tuning)
            # the marginal theta chain never reads labels, and only
            # late_draw reads the effect
            if kept or not marginal:
                state = step_compliance(state, vd)
            if kept:
                state = step_impute(state, vd, contrast)
        except SeqlateError as e:
            raise type(e)(f"sweep {t + 1}: {e}") from e
        if check_invariants:
            _check_state_invariants(state, vd, chains)
        j = t - cfg.n_warmup
        if j >= 0:
            theta[:, j] = state.theta.to_vector()
            n_compliers[:, j] = state.n_compliers()
            late[:, j] = late_draw(state, contrast)
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
    """Run cfg.n_chains chains, each over its own substream, in lockstep."""
    vd = as_vector_data(data)
    log.info("running %d chains in lockstep", cfg.n_chains)
    theta, late, n_compliers = run_chain(vd, prior, cfg, range(cfg.n_chains), contrast=contrast,
                                         check_invariants=check_invariants)
    return FitResult(theta, late, n_compliers, vd.p, cfg)
