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
holds (C, .) fields, its labels are (C, n) and its label blocks (C, ., 2),
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
accepted theta's log posterior and the two-type units' lower-type
probabilities travel with the state: the label step draws from those
instead of evaluating any density, and the next Metropolis step starts from
both.  marginal_score reads the probabilities too and evaluates no density.

Monotonicity rules out defiers, so each unit admits one type or the pair
{nt, co} or {co, at} (Imbens & Rubin 1997).  A one-type unit's label is its
lower code, written without evaluating any density, and its marginal
likelihood that type's log-weight.  The densities are evaluated at two
types per unit, into type-major (C, ., 2) views of (2, C, .) blocks: the
columns are gathered once in the admissible order (the units admitting
{nt}, {co}, {nt, co}, {co, at}, {at}), the first three groups taken at
(nt, co) and the rest at (co, at).  marginal_mh evaluates every unit, the
conjugate label step only the m two-type units, a slice of that order.  A
pair is reduced to m = its maximum, e = exp(lw - m) and e_lower + e_upper,
and takes the upper code iff p_lower = e_lower / (e_lower + e_upper) is at
or below its uniform: the floats of the row-wise reductions over all three
types, whose inadmissible terms are exact zeros.
Every label, whether the label step, init_state or the grid sampler draws
it, is written by _draw_labels.  The label step's uniforms and the blocks
are allocated once per dataset and chain count (_Work), so a sweep does not
fault in fresh pages.

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
    DimensionMismatch,
    InconsistentUnit,
    InvalidConfig,
    NumericalOverflow,
    SeqlateError,
    TooLarge,
)
from .model import (
    PriorSpec,
    Theta,
    compliance_log_prob_matrix,
    dots,
    logit_design,
    log_prior,
    logit_lse,
    observed_cell_logliks,
    row_dot,
    theta_dim,
    theta_field_names,
    type_major,
    types_first,
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
        # a unit admits its lowest admissible code and at most the next one.
        # The admissible order: the units admitting {nt}, {co}, {nt, co},
        # {co, at} and {at}, each group in unit order.  two, its two-type
        # units, is a slice of it; a two-type block evaluates the units
        # before split at (nt, co), the rest at (co, at), and a one-type
        # unit's type is its lower row for the first n_nt, else its upper
        self.low = consistent.argmax(axis=1).astype(np.int8)
        one = consistent.sum(axis=1) == 1
        groups = [np.flatnonzero((one == alone) & (self.low == t))
                  for alone, t in ((True, NT), (True, CO), (False, NT), (False, CO), (True, AT))]
        self.order = np.concatenate(groups)
        self.rank = np.argsort(self.order)
        self.n_nt, start, self.split, stop = np.cumsum([g.size for g in groups[:4]]).tolist()
        self.two_slice = slice(start, stop)
        self.two = self.order[self.two_slice]
        self.low_two = self.low[self.two]
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
    def admissible(self) -> SimpleNamespace:
        """Every unit's kernel columns, gathered in the admissible order."""
        return _at_two_types(self, self.order, self.split)

    @functools.cached_property
    def pair_units(self) -> SimpleNamespace:
        """The two-type units' columns: views of admissible's, at their pairs."""
        return _at_two_types(self.admissible, self.two_slice, self.split - self.two_slice.start)

    def work(self, n_chains: int) -> "_Work":
        """The buffers of a lockstep run of n_chains chains on this dataset."""
        if n_chains not in self._works:
            self._works[n_chains] = _Work(self, n_chains)
        return self._works[n_chains]


def _at_two_types(cols, units, split: int) -> SimpleNamespace:
    """The kernel columns of cols at units, and the layout that evaluates
    them at (nt, co) before split and at (co, at) from there on."""
    return SimpleNamespace(
        layout=((slice(0, split), slice(NT, CO + 1)), (slice(split, None), slice(CO, AT + 1))),
        **{k: getattr(cols, k)[units] for k in ("U1", "X1", "w1f", "w2f", "x2", "y")})


class _Work:
    """Buffers reused sweep after sweep by C chains on one dataset.

    The label step draws into the (C, n) uniforms u.  Made on first use,
    each a log-weight and a cell-density buffer, (C, ., 2) views of
    (2, C, .) arrays: pair, the m two-type units' for the conjugate label
    step, and block, every unit's at its two types of the admissible layout
    for marginal_mh.  Contiguous pair buffers time faster than slices of
    block.
    """

    def __init__(self, vd: _VectorData, n_chains: int):
        self.m = vd.two.size
        self.u = np.empty((n_chains, vd.n))

    @functools.cached_property
    def pair(self) -> Tuple[np.ndarray, np.ndarray]:
        C = self.u.shape[0]
        return type_major((C,), self.m, 2), type_major((C,), self.m, 2)

    @functools.cached_property
    def block(self) -> Tuple[np.ndarray, np.ndarray]:
        C, n = self.u.shape
        return type_major((C,), n, 2), type_major((C,), n, 2)


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
    None or (theta, its (C,) marginal log posteriors, its (C, len(two))
    lower-type probabilities of the two-type units), left by the
    marginal_mh update for the label step and the next update.  logits is
    None or (theta, U1 @ gamma_nt, U1 @ gamma_at, and their log-sum-exp
    with the complier's zero), each (C, n), left by the conjugate update for
    the label step and the next update.  effect is None before the first
    kept sweep, then (contrast, the (C,) complier effects step_impute drew
    for it given theta and the labels, NaN for a chain with no compliers);
    only late_draw reads it.
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


def _log_weights(theta: Theta, cols, out=None, cells=None, logits=None) -> np.ndarray:
    """(..., n, 2) unnormalised log label weights, type-major, of the units
    and types of cols: a _VectorData's admissible or pair_units columns.
    out and cells: optional type-major buffers for the result and for the
    observed-cell densities (out is their scratch until the stratum
    probabilities fill it); logits: theta's logit columns at those units and
    their log-sum-exp, if known."""
    cells = observed_cell_logliks(theta, cols.X1, cols.w1f, cols.w2f, cols.x2, cols.y,
                                  out=cells, scratch=out, layout=cols.layout)
    lw = compliance_log_prob_matrix(theta, cols.U1, out=out, logits=logits, layout=cols.layout)
    lw += cells
    return lw


def _pair_exp(g: np.ndarray) -> tuple:
    """(m, e, total) of the two-type units' (lower, upper) log-weights g
    (2, ..., m), which e overwrites: the larger of each pair, exp(g - m) and
    the sums e_lower + e_upper.  A pair of -inf log-weights keeps m = -inf
    but takes e = (1, 0), so that its m + log(total) is -inf, not NaN."""
    shift = m = np.maximum(g[0], g[1])
    dead = m == -np.inf
    if dead.any():
        g[0][dead], shift = 0.0, np.where(dead, 0.0, m)
    e = np.exp(np.subtract(g, shift, out=g), out=g)
    return m, e, np.add(e[0], e[1])


def _draw_labels(vd: _VectorData, p_lower, u: np.ndarray) -> np.ndarray:
    """int8 labels from uniforms u (..., n), the one place a label is
    written: each unit's lower admissible code, the upper one at a two-type
    unit where p_lower (..., len(two)), its lower type's probability, is at
    or below its uniform.  p_lower broadcasts against u, so (k, .)
    probabilities and (s, 1, n) uniforms give (s, k, n) labels; a dataset
    without two-type units takes (..., 0) probabilities."""
    upper = p_lower <= np.take(u, vd.two, axis=-1)
    codes = np.empty(upper.shape[:-1] + (vd.n,), dtype=np.int8)
    codes[...] = vd.low
    codes[..., vd.two] = vd.low_two + upper
    return codes


def step_compliance(state: ChainState, data: Union[Dataset, _VectorData]) -> ChainState:
    """Redraw every label of every chain from its exact conditional given
    theta and data, from n uniforms of each chain's stream.

    Reads the two-type units' lower-type probabilities the state carries for
    its theta, if any, else evaluates their pairs alone.
    """
    vd = as_vector_data(data)
    w = vd.work(len(state.rngs))
    cached = _cached(state.logweights, state.theta)
    if cached is not None:
        p_lower = cached[1]
    else:
        logits = _cached(state.logits, state.theta)
        if logits is not None:
            logits = [np.take(col, vd.two, axis=-1) for col in logits]
        lw = _log_weights(state.theta, vd.pair_units, *w.pair, logits=logits)
        _, e, total = _pair_exp(types_first(lw))
        p_lower = np.divide(e[0], total, out=total)
    for rng, row in zip(state.rngs, w.u):
        rng.random(out=row)
    return replace(state, compliance=_draw_labels(vd, p_lower, w.u))


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
    mu = (sums[:, 0, y] + b_x2 * sums[:, 1, x2] + dots(b[:, U], sums[:, 2, U])
          + b_x2 * (dots(a[:, U], sums[:, 3, U]) + a[:, p + 1] * sums[:, 4, 0])
          + dots(b[:, p + 2:p + 5], sums[:, 5:8, 0]))
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
            return dots(resp - row_dot(coef[:, :k], static)
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
    return dots(gnt, sums[0] - h * gnt) + dots(gat, sums[1] - h * gat) - lse.sum(axis=-1)


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


def _marginal_loglik(lw: np.ndarray, vd: _VectorData) -> tuple:
    """Sum over units of the label-marginalized log likelihood, per chain
    for a chain axis, and the two-type units' lower-type probabilities
    (..., len(two)), from the log-weights lw (..., n, 2) of vd.admissible,
    whose pair entries it overwrites.  A one-type unit adds its type's
    log-weight, a two-type unit m + log(e_lower + e_upper), summed in unit
    order."""
    g = types_first(lw)
    m, e, total = _pair_exp(g[..., vd.two_slice])
    p_lower = e[0] / total
    s = np.concatenate([g[0, ..., :vd.n_nt], g[1, ..., vd.n_nt:]], axis=-1)
    s[..., vd.two_slice] = np.add(m, np.log(total, out=total), out=total)
    s = np.take(s, vd.rank, axis=-1).sum(axis=-1)
    return (s if s.ndim else float(s)), p_lower


def marginal_score(theta: Theta, vd: _VectorData, p_lower: np.ndarray) -> np.ndarray:
    """(C, d) gradient, in Theta.to_vector() layout, of the label-marginalized
    log likelihood at a chain-axis theta.  It evaluates no label density: r,
    the (at, nt) label weights, is one-hot at a one-type unit and (p_lower,
    1 - p_lower) on a pair, from the lower-type probabilities p_lower
    (C, len(two)) _marginal_logpost returns, the (nt, co) pairs first in
    two, so r_nt r_at = 0.  The (nt, at) logit rows score (r - pi) U1; a
    regression block its static row against res0 - r_nt l_nt - r_at l_at,
    res0 = resp - static coef, each loading l its type's residual and the
    noise scale the three weighted squared residuals."""
    if theta.p != vd.p:
        raise DimensionMismatch(f"covariates have {vd.p} columns but theta expects p={theta.p}")
    q, r = vd.split - vd.two_slice.start, np.empty((len(p_lower), 2, vd.n))
    r[:] = vd.low == _AT_NT
    r[:, 1, vd.two[:q]], r[:, 0, vd.two[q:]] = p_lower[:, :q], 1.0 - p_lower[:, q:]
    nt, at = row_dot(theta.gamma_nt, vd.U1), row_dot(theta.gamma_at, vd.U1)
    pi = np.exp(np.stack([at, nt], axis=1) - logit_lse(nt, at)[:, None])
    parts, r_co = [np.matmul(r - pi, vd.U1)[:, ::-1].reshape(len(r), -1)], 1.0 - r.sum(axis=1)
    for static, resp, coef, sigma in ((vd.x2_static, vd.x2, theta.alpha, theta.sigma_x),
                                      (vd.y_static, vd.y, theta.beta, theta.sigma_y)):
        # coef ends with the (at, nt) loadings; e holds their types' residuals
        load, res0 = coef[:, -2:, None], resp - row_dot(coef[:, :-2], static)
        e, s2 = res0[:, None] - load, sigma[:, None] ** 2
        sq = dots(r_co * res0, res0) + dots(r * e, e).sum(axis=1)
        parts += [np.matmul((res0 - (r * load).sum(axis=1))[:, None, :], static)[:, 0] / s2,
                  dots(r, e) / s2, (sq / sigma ** 3 - vd.n / sigma)[:, None]]
    return np.concatenate(parts, axis=1)


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
    result is a valid Theta row: finite, with noise scales s whose variance
    s ** 2 and its reciprocal are finite positive floats.  Outside that
    range log_prior's Python float power overflows or its inverse-gamma
    term is -inf, so such a proposal is rejected without being evaluated."""
    v = vec.copy()
    ok = np.isfinite(v).all(axis=1)
    for i in (_sigma_index(p), -1):
        for c, x in enumerate(v[:, i].tolist()):
            try:
                s = math.exp(x)
                ok[c] &= math.isfinite(1.0 / s ** 2)
                v[c, i] = s
            except (OverflowError, ZeroDivisionError):
                ok[c] = False
    return v, ok


def _marginal_logpost(theta: Theta, vd: _VectorData,
                      prior: PriorSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Per chain log posterior on the log-sigma scale, and the two-type
    units' lower-type probabilities (C, len(two))."""
    # a noise scale so small that z * z overflows has likelihood zero, and
    # -inf is then the exact log posterior
    with np.errstate(over="ignore"):
        lw = _log_weights(theta, vd.admissible, *vd.work(theta.gamma_nt.shape[0]).block)
        loglik, p_lower = _marginal_loglik(lw, vd)
    # change of variables to log sigma adds 2*log(sigma) per noise scale
    logs = [np.array([math.log(s) for s in sigma.tolist()])
            for sigma in (theta.sigma_x, theta.sigma_y)]
    lp = log_prior(theta, prior) + 2.0 * logs[0] + 2.0 * logs[1] + loglik
    return lp, p_lower


def _theta_marginal(state: ChainState, vd: _VectorData, prior: PriorSpec,
                    tuning: _Tuning) -> Tuple[Theta, np.ndarray, np.ndarray]:
    """One Metropolis step per chain; returns the new theta, its log
    posteriors and its lower-type probabilities.  A chain that rejects keeps
    its theta row and probabilities bit for bit; when no chain accepts, the
    theta and the probabilities are the state's own objects."""
    th, rngs, p = state.theta, state.rngs, state.theta.p
    cur = _pack_unconstrained(th)
    cached = _cached(state.logweights, th)
    lp_cur, pl_cur = cached if cached is not None else _marginal_logpost(th, vd, prior)
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
        lp, pl_prop = _marginal_logpost(prop, vd, prior)
        if np.isnan(lp[valid]).any():
            raise NumericalOverflow("proposal marginal log posterior is NaN")
        lp_prop[valid] = lp[valid]
    accept, probs = _metropolis(lp_prop, lp_cur, lambda c: rngs[c].uniform())
    new, lp_new, pl_new = th, lp_cur, pl_cur
    if accept.all():
        new, lp_new, pl_new = prop, lp_prop, pl_prop
    elif accept.any():
        new = Theta.from_vector(np.where(accept[:, None], vec, th.to_vector()), p)
        lp_new = np.where(accept, lp_prop, lp_cur)
        pl_new = np.where(accept[:, None], pl_prop, pl_cur)
    if tuning.adapting:
        tuning.marg_scale[:] = [_adapt_scale(s, a, 0.234, tuning.t)
                                for s, a in zip(tuning.marg_scale.tolist(), probs)]
        # history is read once, at the sd refresh
        if tuning.sd_refresh_at is not None and tuning.t <= tuning.sd_refresh_at:
            tuning.history.append(_pack_unconstrained(new))
            if tuning.t == tuning.sd_refresh_at:
                sd_new = np.asarray(tuning.history).std(axis=0, ddof=0)
                tuning.marg_sd = np.maximum(sd_new, 1e-3)
    return new, lp_new, pl_new


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

def init_state(data: Union[Dataset, _VectorData],
               rngs: Sequence[np.random.Generator]) -> ChainState:
    """Starting state of one chain per Generator: labels uniform over each
    unit's admissible types, coefficients at their prior means, noise
    scales at the sample spreads, and no complier effect."""
    vd = as_vector_data(data)
    rngs = tuple(rngs)
    C, p = len(rngs), vd.p
    codes = np.stack([_draw_labels(vd, 0.5, rng.uniform(size=vd.n)) for rng in rngs])
    sx = max(float(vd.x2.std()), 1e-2)
    sy = max(float(vd.y.std()), 1e-2)
    theta0 = Theta(np.zeros((C, p + 1)), np.zeros((C, p + 1)), np.zeros((C, p + 4)),
                   np.full(C, sx), np.zeros((C, p + 7)), np.full(C, sy))
    return ChainState(theta0, codes, rngs)


def run_chain(data: Union[Dataset, _VectorData], prior: PriorSpec, cfg: SamplerConfig,
              contrast: Contrast = DEFAULT_CONTRAST) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run cfg.n_chains chains in lockstep; returns their kept draws as
    (theta, late, n_compliers) arrays of shape (chains, draws, d) and
    (chains, draws), laid out as FitResult's.

    Chain k draws from substream(cfg.seed, "chain", k) alone, so its draws
    are those of init_state and the steps driven on that substream by
    itself.  Step errors are re-raised with the failing sweep number
    attached; output arrays too large to allocate raise TooLarge.
    """
    if cfg.seed is None:
        raise InvalidConfig("seed: a sampler seed is required")
    vd = as_vector_data(data)
    C = cfg.n_chains
    try:
        theta = np.empty((C, cfg.n_draws, theta_dim(vd.p)))
        late = np.empty((C, cfg.n_draws))
        n_compliers = np.empty((C, cfg.n_draws), dtype=np.int64)
    except (MemoryError, ValueError):
        raise TooLarge(f"{C} chains of {cfg.n_draws} kept draws do not fit in memory") from None
    state = init_state(vd, [substream(cfg.seed, "chain", k) for k in range(C)])
    tuning = _Tuning(n_chains=C, marg_scale=cfg.mh_step_scale,
                     sd_refresh_at=max(1, cfg.n_warmup // 2))
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
        contrast: Contrast = DEFAULT_CONTRAST) -> FitResult:
    """Run cfg.n_chains chains, each over its own substream, in lockstep
    (run_chain), and hold their kept draws in a FitResult."""
    vd = as_vector_data(data)
    log.info("running %d chains in lockstep", cfg.n_chains)
    return FitResult(*run_chain(vd, prior, cfg, contrast), vd.p, cfg)
