"""Ground-truth machinery: exact enumeration, grid sampler, MCMC diagnostics.

exact_posterior enumerates every (parameter grid point, label configuration)
pair for a small dataset and normalizes with compensated summation, so its
output is an exact reference distribution.  grid_gibbs runs the same model
as a genuine two-block Gibbs chain whose parameter lives on the grid; its
long-run label frequencies must match the enumeration, which is the
strongest whole-sampler check the package has.  Both read their per-unit
factors from the column kernels the sampler runs.  The committed golden
table, which scripts/regen_golden.py re-derives with scipy and no package
code, is the independent check on those kernels.

rhat is the split-chain potential scale reduction factor; ess uses the
initial-monotone-sequence truncation of the autocorrelation sum, and
multi_ess applies the same truncation to the multi-chain autocorrelation
that also counts disagreement between chains.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from typing import List, Sequence, Tuple

import numpy as np

from .domain import CO, DEFAULT_CONTRAST, Contrast, Dataset, y_cell_index
from .errors import InvalidConfig, InvariantViolation, TooFewDraws, TooLarge
from .gibbs import _VectorData, _draw_labels, _pair_exp, as_vector_data
# the kernels are called through this module's own names, not through
# gibbs._log_weights, so that counting the sampler's calls leaves these out
from .model import Theta, compliance_log_prob_matrix, inverse_cdf_draw, observed_cell_logliks
from .rng import substream

@dataclass(frozen=True)
class DiscreteSpec:
    """A finite parameter grid with prior weights, for exact enumeration."""

    thetas: Tuple[Theta, ...]
    weights: np.ndarray
    max_units: int = 8
    budget: int = 1_000_000

    def __post_init__(self):
        thetas = tuple(self.thetas)
        if not thetas:
            raise InvariantViolation("theta grid must be non-empty")
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != len(thetas):
            raise InvariantViolation("weights must match the grid length")
        if np.any(w < 0):
            raise InvariantViolation("weights must be non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise InvariantViolation(f"weights must sum to 1 within 1e-12, got {w.sum()!r}")
        if not 1 <= int(self.max_units) <= 8:
            raise InvariantViolation("max_units must lie in [1, 8]")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "max_units", int(self.max_units))
        object.__setattr__(self, "budget", int(self.budget))


@dataclass(frozen=True)
class ExactPosterior:
    """Enumeration output over a DiscreteSpec.

    late_values / late_probs describe the posterior of the complier contrast
    evaluated at imputation means; configurations without compliers carry no
    contrast and their mass (late_dropped_mass) is renormalized away, the
    same convention the sampler uses for missing draws.
    """

    theta_probs: np.ndarray
    compliance_marginals: np.ndarray
    joint_probs: np.ndarray
    late_values: np.ndarray
    late_probs: np.ndarray
    late_dropped_mass: float
    log_evidence: float

    @property
    def late_mean(self) -> float:
        if self.late_probs.size == 0:
            return float("nan")
        return float(self.late_values @ self.late_probs)


def _complier_contrasts(theta: Theta, vd: _VectorData, contrast: Contrast) -> np.ndarray:
    """(n,) contrast at imputation means, were each unit a complier.

    Observed cells keep their observed values; a missing x2 cell sits at its
    model mean, and a missing y cell at its model mean evaluated at that x2
    value (exact for the mean because the outcome model is linear in x2).
    """
    p = vd.p
    a, b = theta.alpha, theta.beta
    x2_base = vd.U1 @ a[:p + 1]
    y_base = vd.U1 @ b[:p + 1]

    def x2_at(w1: int) -> np.ndarray:
        return np.where(vd.w1 == w1, vd.x2, x2_base + a[p + 1] * w1)

    def y_at(w1: int, w2: int) -> np.ndarray:
        mean = (y_base + b[p + 1] * x2_at(w1) + b[p + 2] * w1 + b[p + 3] * w2
                + b[p + 4] * (w1 * w2))
        return np.where(vd.obs_ycol == y_cell_index(w1, w2), vd.y, mean)

    (a1, a2), (b1, b2) = contrast
    return y_at(a1, a2) - y_at(b1, b2)


def _grid_factors(vd: _VectorData, spec: DiscreteSpec,
                  contrast: Contrast) -> Tuple[np.ndarray, np.ndarray]:
    """(grid, unit, type) log factors and (grid, unit) complier contrasts.

    A unit's factor for a type is the log of the product of the stratum
    probability, the two treatment point masses and the observed-cell
    densities: -inf where the receipts rule the type out.
    """
    k = len(spec.thetas)
    L = np.empty((k, vd.n, 3))
    diffs = np.empty((k, vd.n))
    for ki, th in enumerate(spec.thetas):
        lw = compliance_log_prob_matrix(th, vd.U1)
        lw = lw + observed_cell_logliks(th, vd.X1, vd.w1f, vd.w2f, vd.x2, vd.y)
        L[ki] = np.where(vd.consistent, lw, -np.inf)
        diffs[ki] = _complier_contrasts(th, vd, contrast)
    return L, diffs


def exact_posterior(data: Dataset, spec: DiscreteSpec,
                    contrast: Contrast = DEFAULT_CONTRAST) -> ExactPosterior:
    """Enumerate the posterior over (grid point, label configuration).

    Raises TooLarge when 3**n * len(grid) exceeds the grid's budget or when
    the dataset has more than max_units units, and InconsistentUnit when no
    type explains some unit's receipts.
    """
    n = len(data)
    k = len(spec.thetas)
    if n > spec.max_units:
        raise TooLarge(f"dataset has {n} units, enumeration allows {spec.max_units}")
    total = (3 ** n) * k
    if total > spec.budget:
        raise TooLarge(f"3^{n} * {k} = {total} configurations exceed budget {spec.budget}")

    L, diffs = _grid_factors(as_vector_data(data), spec, contrast)
    log_w = np.log(spec.weights)

    configs = list(itertools.product(range(3), repeat=n))
    n_cfg = len(configs)
    logpost = np.empty((n_cfg, k))
    for j, cfg in enumerate(configs):
        lw = log_w.copy()
        for i, c in enumerate(cfg):
            lw = lw + L[:, i, c]
        logpost[j] = lw

    flat = logpost.ravel()
    finite = flat[np.isfinite(flat)]
    if finite.size == 0:
        raise InvariantViolation("every configuration has zero posterior weight")
    m = float(finite.max())
    # compensated summation keeps the normalizing constant independent of
    # the enumeration order well past 1e-12 relative error
    norm = math.fsum(math.exp(v - m) for v in flat if np.isfinite(v))
    log_evidence = m + math.log(norm)
    probs = np.where(np.isfinite(logpost), np.exp(logpost - log_evidence), 0.0)

    theta_probs = probs.sum(axis=0)
    joint = probs.sum(axis=1)
    marginals = np.zeros((n, 3))
    late_vals = []
    late_ps = []
    dropped = 0.0
    for j, cfg in enumerate(configs):
        pj = joint[j]
        for i, c in enumerate(cfg):
            marginals[i, c] += pj
        co_units = [i for i, c in enumerate(cfg) if c == CO]
        if not co_units:
            dropped += pj
            continue
        for ki in range(k):
            pk = probs[j, ki]
            if pk == 0.0:
                continue
            late_vals.append(float(np.mean(diffs[ki, co_units])))
            late_ps.append(pk)
    late_vals = np.asarray(late_vals)
    late_ps = np.asarray(late_ps)
    if late_ps.size:
        late_ps = late_ps / late_ps.sum()
    return ExactPosterior(theta_probs, marginals, joint, late_vals, late_ps,
                          float(dropped), float(log_evidence))


@dataclass
class GridGibbsResult:
    """Per-sweep trace of the grid-parameter Gibbs chain."""

    theta_idx: np.ndarray
    config_idx: np.ndarray
    late: np.ndarray     # contrast at imputation means; NaN when no compliers

    def joint_freq(self, n_units: int) -> np.ndarray:
        counts = np.bincount(self.config_idx, minlength=3 ** n_units)
        return counts / self.config_idx.size

    def marginal_freq(self, n_units: int) -> np.ndarray:
        out = np.zeros((n_units, 3))
        codes = self.config_idx
        for i in reversed(range(n_units)):
            out[i] = np.bincount(codes % 3, minlength=3) / codes.size
            codes = codes // 3
        return out


# floats in grid_gibbs's largest per-block array, the (n, block * k, k) unit
# log factors of a block whose label configurations all differ: 512 KiB
_GRID_BLOCK_FLOATS = 1 << 16


def _grid_block_len(k: int, n: int) -> int:
    """Sweeps per block of grid_gibbs for a k-point grid and n units."""
    return max(1, _GRID_BLOCK_FLOATS // (k * k * n))


def _grid_conditional(by_code: List[np.ndarray], log_w: np.ndarray,
                      codes: np.ndarray) -> np.ndarray:
    """(m, k) exact conditional over the grid given each of m label
    configurations codes (m, n); by_code[c] holds the (unit, grid) log
    factors of label c.

    The log factors are summed over the leading unit axis, so numpy adds
    them unit by unit, in the order it adds the strided (grid, unit) gather
    of one configuration (not pairwise, as it would along a contiguous
    last axis of eight or more units).
    """
    factors = np.choose(codes.T[:, :, None], [f[:, None, :] for f in by_code])
    lw_k = log_w + factors.sum(axis=0)
    pk = np.exp(lw_k - lw_k.max(axis=-1, keepdims=True))
    pk /= pk.sum(axis=-1, keepdims=True)
    return pk


def grid_gibbs(data: Dataset, spec: DiscreteSpec, n_sweeps: int, seed: int,
               contrast: Contrast = DEFAULT_CONTRAST) -> GridGibbsResult:
    """Two-block Gibbs sampler with theta restricted to the grid.

    Alternates an exact categorical draw of the grid index given the labels
    with exact per-unit label draws given the grid point, both conditioning
    on observed cells only.  Its stationary law is exactly the enumerated
    posterior, so long-run frequencies must match exact_posterior.

    A sweep consumes 1 + n uniforms, the grid draw's and then the labels',
    whatever the state, so the chain runs in blocks of sweeps that draw
    their uniforms as one (block, 1 + n) array: the same stream, in the same
    order, as one grid uniform and n label uniforms per sweep.  A block
    draws the labels of every sweep at every grid point, then the grid
    index each sweep would draw after each possible grid index of the sweep
    before, and walks the chain through that table with one lookup per
    sweep.  The grid conditional is computed once per distinct label
    configuration of the block and the complier contrast once per distinct
    (grid index, labels) pair.  The trace is the one-sweep-at-a-time
    chain's bit for bit: exp and the comparisons act on each element alone,
    the sum over units adds unit by unit as in one sweep, and the sums and
    running sums over the grid run along a contiguous last axis of length
    k, as in one sweep, so numpy adds the same terms in the same order.

    Raises InvalidConfig for fewer than one sweep, and TooLarge when
    3**n * len(grid) exceeds int64, which the base-3 configuration index
    and the (grid index, labels) key are stored in.
    """
    if n_sweeps < 1:
        raise InvalidConfig(f"n_sweeps: must be >= 1, got {n_sweeps}")
    vd = as_vector_data(data)
    n, k = vd.n, len(spec.thetas)
    if 3 ** n * k > np.iinfo(np.int64).max:
        raise TooLarge(f"3^{n} label configurations times {k} grid points overflow int64")
    # the same five-factor tensor the enumerator sums over
    L, diffs = _grid_factors(vd, spec, contrast)
    by_code = [np.ascontiguousarray(L[:, :, c].T) for c in range(3)]
    # each two-type unit's lower-type probability at every grid point, the
    # grid axis as the chain axis, so one label draw covers every grid point
    _, e, total = _pair_exp(np.stack([L[:, vd.two, vd.low_two], L[:, vd.two, vd.low_two + 1]]))
    p_lower = e[0] / total
    log_w = np.log(spec.weights)
    rng = substream(seed, "grid-gibbs", 0)

    # labels uniform over each unit's admissible types, as init_state's
    codes = _draw_labels(vd, 0.5, rng.uniform(size=n))
    powers = 3 ** np.arange(n - 1, -1, -1)
    theta_idx = np.empty(n_sweeps, dtype=np.int64)
    config_idx = np.empty(n_sweeps, dtype=np.int64)
    late = np.empty(n_sweeps)
    block = _grid_block_len(k, n)
    for start in range(0, n_sweeps, block):
        stop = min(start + block, n_sweeps)
        size = stop - start
        u = rng.uniform(size=(size, n + 1))
        # (sweep, grid index, unit) labels and (sweep, grid index) configurations
        at_k = _draw_labels(vd, p_lower, u[:, None, 1:])
        configs = at_k @ powers
        # the grid conditional after each configuration the next sweep can
        # start from: the block's but the last sweep's, then the carried one
        _, first, inverse = np.unique(np.append(configs[:-1], codes @ powers),
                                      return_index=True, return_inverse=True)
        starts = np.concatenate([at_k[:-1].reshape(-1, n), codes[None]])
        pk = _grid_conditional(by_code, log_w, starts[first])[inverse.reshape(-1)]
        ki = int(inverse_cdf_draw(pk[-1:], u[:1, 0])[0])
        # nxt[s][kj]: grid index of sweep s + 1 after grid index kj at sweep s
        nxt = inverse_cdf_draw(pk[:-1].reshape(size - 1, k, k), u[1:, :1]).tolist()
        walk = [ki]
        for row in nxt:
            ki = row[ki]
            walk.append(ki)
        walk = np.asarray(walk, dtype=np.int64)
        sweeps = np.arange(size)
        block_codes = at_k[sweeps, walk]
        codes = block_codes[-1]
        theta_idx[start:stop] = walk
        config_idx[start:stop] = configs[sweeps, walk]
        # the complier contrast once per distinct (grid index, labels) pair
        _, first, inverse = np.unique(config_idx[start:stop] * k + walk,
                                      return_index=True, return_inverse=True)
        values = np.full(first.size, np.nan)
        for j, s in enumerate(first):
            co = block_codes[s] == CO
            if co.any():
                values[j] = diffs[walk[s], co].mean()
        late[start:stop] = values[inverse.reshape(-1)]
    return GridGibbsResult(theta_idx, config_idx, late)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


# ---------------------------------------------------------------------------
# convergence diagnostics
# ---------------------------------------------------------------------------

def rhat(chains: Sequence[Sequence[float]]) -> float:
    """Split-chain potential scale reduction factor.

    Each chain is split in half, giving 2m sequences of length n//2; the
    statistic is sqrt(((n-1)/n * W + B/n) / W).  All-identical input returns
    exactly 1.0 with a warning (zero-variance convention); identical-within,
    disjoint-between chains return +inf.
    """
    arrs = [np.asarray(c, dtype=float).ravel() for c in chains]
    if len(arrs) < 2:
        raise TooFewDraws("rhat needs at least 2 chains")
    n_min = min(a.size for a in arrs)
    if n_min < 4:
        raise TooFewDraws("rhat needs at least 4 draws per chain")
    half = n_min // 2
    split = []
    for a in arrs:
        a = a[:n_min]
        split.append(a[:half])
        split.append(a[n_min - half:])
    mat = np.asarray(split)
    if not np.all(np.isfinite(mat)):
        raise InvariantViolation("rhat input must be finite")
    n = half
    means = mat.mean(axis=1)
    variances = mat.var(axis=1, ddof=1)
    w = float(variances.mean())
    b = n * float(means.var(ddof=1))
    if w == 0.0:
        if b == 0.0:
            warnings.warn("all chains are constant and identical; R-hat set to 1.0")
            return 1.0
        return float("inf")
    var_hat = (n - 1) / n * w + b / n
    return float(np.sqrt(var_hat / w))


def _geyer_tau(rho: np.ndarray) -> float:
    """Integrated autocorrelation time from autocorrelations rho[0..n-1].

    Geyer pairs G_m = rho_{2m} + rho_{2m+1} are kept while positive and
    forced to be non-increasing (initial monotone sequence).  tau below
    1/1.5 only says the draws anti-correlate strongly; the floor keeps the
    estimate conservative.
    """
    n_pairs = rho.shape[0] // 2
    pairs = rho[0:2 * n_pairs:2] + rho[1:2 * n_pairs:2]
    keep = 0
    while keep < n_pairs and pairs[keep] > 0:
        keep += 1
    g = np.minimum.accumulate(pairs[:keep]) if keep else np.zeros(0)
    return max(2.0 * float(g.sum()) - 1.0, 1.0 / 1.5)


def ess(draws: Sequence[float]) -> float:
    """Effective sample size of one sequence.

    The autocorrelation sum is truncated with the initial-monotone-sequence
    rule: consecutive-lag pairs are kept while positive and forced to be
    non-increasing.  A constant sequence returns n with a warning.  The
    estimate is capped at 1.5 * n.
    """
    x = np.asarray(draws, dtype=float).ravel()
    n = x.size
    if n < 10:
        raise TooFewDraws("ess needs at least 10 draws")
    if not np.all(np.isfinite(x)):
        raise InvariantViolation("ess input must be finite")
    xc = x - x.mean()
    var0 = float(xc @ xc) / n
    if var0 == 0.0:
        warnings.warn("constant sequence; effective sample size set to n")
        return float(n)
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conj(f))[:n] / n
    rho = acov / acov[0]
    return float(min(n / _geyer_tau(rho), 1.5 * n))


def multi_ess(chains: Sequence[Sequence[float]]) -> float:
    """Effective sample size of m equal-length chains taken together
    (BDA3 section 11.5).

    The lag-t autocorrelation is 1 - V_t / (2 var_plus).  V_t is the mean
    squared difference of draws t apart, pooled over chains (the
    variogram), and var_plus = (n-1)/n W + B/n adds the variance of the
    chain means to the within-chain variance W, so chains that disagree
    read as strongly autocorrelated.  The sum is truncated as in ess.
    Constant input returns m*n with a warning; the estimate is capped at
    1.5 * m * n.
    """
    arrs = [np.asarray(c, dtype=float).ravel() for c in chains]
    if not arrs:
        raise TooFewDraws("multi_ess needs at least one chain")
    n = arrs[0].size
    if any(a.size != n for a in arrs):
        raise InvariantViolation("multi_ess needs equal-length chains")
    if n < 10:
        raise TooFewDraws("multi_ess needs at least 10 draws per chain")
    mat = np.vstack(arrs)
    if not np.all(np.isfinite(mat)):
        raise InvariantViolation("multi_ess input must be finite")
    m = mat.shape[0]
    w = float(mat.var(axis=1, ddof=1).mean())
    var_plus = (n - 1) / n * w
    if m > 1:
        var_plus += float(mat.mean(axis=1).var(ddof=1))
    if var_plus == 0.0:
        warnings.warn("constant chains; effective sample size set to m*n")
        return float(m * n)
    # variogram from FFT lag products: for centred draws x,
    # sum_{i>=t} (x_i - x_{i-t})^2 = sum_{i>=t} x_i^2 + sum_{i<n-t} x_i^2
    #                                - 2 sum_{i<n-t} x_i x_{i+t}
    xc = mat - mat.mean(axis=1, keepdims=True)
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, nfft, axis=1)
    lag_products = np.fft.irfft(f * np.conj(f), nfft, axis=1)[:, :n]
    csum = np.cumsum(xc * xc, axis=1)
    lags = np.arange(n)
    head = csum[:, n - 1 - lags]
    tail = csum[:, -1:] - np.concatenate([np.zeros((m, 1)), csum[:, :-1]], axis=1)
    variogram = (head + tail - 2.0 * lag_products).sum(axis=0) / (m * (n - lags))
    rho = 1.0 - variogram / (2.0 * var_plus)
    rho[0] = 1.0
    return float(min(m * n / _geyer_tau(rho), 1.5 * m * n))


# ---------------------------------------------------------------------------
# committed fixture and self-check suite
# ---------------------------------------------------------------------------

def _fixture_text(name: str) -> str:
    return resources.files("seqlate.fixtures").joinpath(name).read_text()


def load_three_unit_fixture() -> Tuple[Dataset, DiscreteSpec]:
    """The committed 3-unit dataset and 4-point grid used by the self-checks."""
    doc = json.loads(_fixture_text("three_unit.json"))
    units = doc["units"]
    X1 = np.array([u["x1"] for u in units], dtype=float).reshape(len(units), doc["covariate_dim"])
    data = Dataset(X1,
                   *([u[k] for u in units] for k in ("z1", "w1", "x2", "z2", "w2", "y")))
    thetas = tuple(Theta.from_dict(d) for d in doc["grid"]["thetas"])
    spec = DiscreteSpec(thetas, np.asarray(doc["grid"]["weights"], dtype=float))
    return data, spec


def load_golden() -> dict:
    return json.loads(_fixture_text("golden_three_unit.json"))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_validation_suite(n_sweeps: int = 200_000, seed: int = 20260819) -> List[CheckResult]:
    """Self-checks against the committed fixture; all must pass."""
    results: List[CheckResult] = []
    data, spec = load_three_unit_fixture()
    golden = load_golden()
    post = exact_posterior(data, spec)

    dev = max(
        float(np.abs(post.theta_probs - np.asarray(golden["theta_probs"])).max()),
        float(np.abs(post.compliance_marginals - np.asarray(golden["compliance_marginals"])).max()),
        float(np.abs(post.joint_probs - np.asarray(golden["joint_probs"])).max()),
        abs(post.late_mean - golden["late_mean"]),
    )
    results.append(CheckResult(
        "enumeration matches committed golden table",
        dev < 1e-10, f"max deviation {dev:.3e} (tolerance 1e-10)"))

    bad_mass = float(post.compliance_marginals[~as_vector_data(data).consistent].max(initial=0.0))
    results.append(CheckResult(
        "no posterior mass on excluded strata",
        bad_mass == 0.0, f"max excluded-stratum mass {bad_mass:.3e}"))

    perm = [2, 0, 1]
    data_perm = Dataset(**{k: v[perm] for k, v in data.as_arrays().items()})
    post_perm = exact_posterior(data_perm, spec)
    rel = abs(post_perm.log_evidence - post.log_evidence) / abs(post.log_evidence)
    results.append(CheckResult(
        "normalizing constant invariant to unit order",
        rel < 1e-12, f"relative deviation {rel:.3e} (tolerance 1e-12)"))

    run = grid_gibbs(data, spec, n_sweeps, seed)
    tv_joint = total_variation(run.joint_freq(len(data)), post.joint_probs)
    tv_marg = max(
        total_variation(run.marginal_freq(len(data))[i], post.compliance_marginals[i])
        for i in range(len(data))
    )
    results.append(CheckResult(
        f"grid sampler label frequencies match enumeration ({n_sweeps} sweeps)",
        tv_joint <= 0.02 and tv_marg <= 0.02,
        f"joint TV {tv_joint:.4f}, max marginal TV {tv_marg:.4f} (tolerance 0.02)"))

    finite = run.late[np.isfinite(run.late)]
    late_dev = abs(float(finite.mean()) - post.late_mean) if finite.size else float("inf")
    results.append(CheckResult(
        "grid sampler complier contrast matches enumeration",
        late_dev <= 0.05, f"deviation {late_dev:.4f} (tolerance 0.05)"))

    rng = substream(seed, "diag-check", 0)
    iid = [rng.standard_normal(1000) for _ in range(4)]
    r = rhat(iid)
    e = ess(rng.standard_normal(5000))
    results.append(CheckResult(
        "diagnostics behave on independent draws",
        0.99 <= r <= 1.05 and 0.8 <= e / 5000 <= 1.2,
        f"rhat {r:.4f}, ess/n {e / 5000:.3f}"))
    return results
