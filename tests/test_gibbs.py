"""Sampler blocks: exact label conditionals, the effect draw, kernels, chains."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

import seqlate.gibbs as gibbs
from seqlate.domain import DEFAULT_CONTRAST, Y_CELLS, ComplianceType, Dataset
from seqlate.errors import (
    InconsistentUnit,
    InvalidConfig,
    NumericalOverflow,
)
from seqlate.gibbs import (
    ChainState,
    SamplerConfig,
    _draw_ridge,
    _draw_variance,
    as_vector_data,
    fit,
    init_state,
    late_draw,
    run_chain,
    step_compliance,
    step_impute,
    step_theta,
)
from seqlate.model import (
    PriorSpec,
    Theta,
    compliance_log_prob_matrix,
    inverse_cdf_draw,
    logit_lse,
    observed_cell_logliks,
    row_dot,
    theta_field_names,
    types_first,
)
from seqlate.rng import substream
from seqlate.simulate import ConstantCompliance, DgpConfig, LogitCompliance, simulate_dataset
from seqlate.validate import _complier_contrasts

from label_reference import (
    label_posterior,
    ref_admissible_block,
    ref_compliance_log_prob_matrix,
    ref_log_weights,
    ref_marginal_loglik,
    ref_normalise,
    ref_vector_categorical,
)

# a column kernel producing inf - inf or 0 * inf fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

NT = ComplianceType.NEVERTAKER
CO = ComplianceType.COMPLIER
AT = ComplianceType.ALWAYSTAKER


def zero_loading_theta(gamma_nt=(0.0, 0.0), sigma=1.0):
    """Stratum indicators carry no weight, so nt/co/at densities coincide."""
    return Theta(np.asarray(gamma_nt, dtype=float), np.zeros(2),
                 np.array([0.4, 0.3, 1.0, 0.0, 0.0]), sigma,
                 np.array([0.1, 0.2, 0.5, 0.3, 0.4, 0.2, 0.0, 0.0]), sigma)


def chains_of(theta, k=1):
    """theta repeated along a leading chain axis of k chains."""
    return Theta.from_vector(np.tile(theta.to_vector(), (k, 1)), theta.p)


def start(vd, seed, chains=(0,)):
    """init_state over the chain substreams of seed."""
    return init_state(vd, [substream(seed, "chain", k) for k in chains])


def drive_alone(vd, cfg, chain):
    """Chain `chain` of cfg driven alone by hand: init_state over its
    substream, then the steps run_chain runs, adapting during warmup; only
    kept sweeps impute, and marginal warmup sweeps update theta only.
    Returns its kept (theta, late, n_compliers) as run_chain's arrays of
    one chain, and its tuning."""
    state = start(vd, cfg.seed, chains=(chain,))
    tuning = gibbs._Tuning(marg_scale=cfg.mh_step_scale, sd_refresh_at=max(1, cfg.n_warmup // 2))
    kept_rows = []
    for t in range(cfg.n_warmup + cfg.n_draws):
        tuning.adapting, tuning.t = t < cfg.n_warmup, t
        state = step_theta(state, vd, PriorSpec(), cfg.theta_update, tuning)
        kept = not tuning.adapting
        if cfg.theta_update == "conjugate_gibbs" or kept:
            state = step_compliance(state, vd)
        if kept:
            state = step_impute(state, vd)
            kept_rows.append((state.theta.to_vector()[0], late_draw(state)[0],
                              state.n_compliers()[0]))
    return tuple(np.array([col]) for col in zip(*kept_rows)), tuning


def check_invariants(monkeypatch):
    """Make gibbs.step_impute, which every kept sweep runs, assert after the
    sweep that every label is admissible and that the complier effect is
    finite exactly for the chains with compliers, naming a chain by its
    position.  Returns the list of states it checked."""
    original, checked = gibbs.step_impute, []

    def step(state, data, contrast=DEFAULT_CONTRAST):
        out = original(state, data, contrast)
        vd = as_vector_data(data)
        ok = vd.consistent[np.arange(vd.n), out.compliance]
        finite = np.isfinite(late_draw(out, contrast))
        for c, has_compliers in enumerate((out.n_compliers() > 0).tolist()):
            if not ok[c].all():
                i = int(np.flatnonzero(~ok[c])[0])
                raise AssertionError(f"chain {c}: unit {i} carries an inadmissible label")
            if finite[c] != has_compliers:
                raise AssertionError(f"chain {c}: the complier effect is finite only with compliers")
        checked.append(out)
        return out

    monkeypatch.setattr(gibbs, "step_impute", step)
    return checked


def one_unit_dataset(z1, w1, z2, w2):
    return Dataset(np.array([[0.3]]), [z1], [w1], [0.6], [z2], [w2], [1.1])


def test_label_posterior_equal_densities_split_half():
    # nevertaker and complier explain an untreated control unit equally well
    # when the stratum probabilities are uniform: exactly (0.5, 0.5, 0)
    probs = label_posterior(zero_loading_theta(), one_unit_dataset(0, 0, 0, 0))
    assert probs[0, 2] == 0.0
    assert probs[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert probs[0, 1] == pytest.approx(0.5, abs=1e-15)


def test_label_posterior_prior_odds_carry_through():
    # nevertaker prior odds 1:3 against the complier, equal densities:
    # posterior must be (0.25, 0.75, 0)
    th = zero_loading_theta(gamma_nt=(np.log(1.0 / 3.0), 0.0))
    probs = label_posterior(th, one_unit_dataset(0, 0, 0, 0))
    assert probs[0, 2] == 0.0
    assert probs[0, 0] == pytest.approx(0.25, abs=1e-12)
    assert probs[0, 1] == pytest.approx(0.75, abs=1e-12)


def test_label_posterior_certain_units_are_exact():
    rng = substream(21, "certain", 0)
    for _ in range(20):
        th = Theta(rng.normal(size=2), rng.normal(size=2), rng.normal(size=5),
                   float(rng.uniform(0.5, 2)), rng.normal(size=8),
                   float(rng.uniform(0.5, 2)))
        # treated while assigned control in period 1: alwaystaker for sure
        probs = label_posterior(th, one_unit_dataset(0, 1, 1, 1))
        assert probs[0].tolist() == [0.0, 0.0, 1.0]
        # untreated while assigned treatment in period 2: nevertaker for sure
        probs = label_posterior(th, one_unit_dataset(0, 0, 1, 0))
        assert probs[0].tolist() == [1.0, 0.0, 0.0]


def test_label_posterior_rows_sum_to_one():
    data, _ = simulate_dataset(DgpConfig(n=100, seed=22))
    th = zero_loading_theta()
    probs = label_posterior(th, data)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert probs.min() >= 0.0


def test_label_posterior_is_permutation_equivariant():
    rng = substream(23, "perm", 0)
    for trial in range(20):
        data, _ = simulate_dataset(DgpConfig(n=30, seed=1000 + trial))
        th = Theta(rng.normal(size=2), rng.normal(size=2), rng.normal(size=5),
                   float(rng.uniform(0.5, 2)), rng.normal(size=8),
                   float(rng.uniform(0.5, 2)))
        probs = label_posterior(th, data)
        perm = rng.permutation(len(data))
        data_perm = Dataset(**{k: v[perm] for k, v in data.as_arrays().items()})
        probs_perm = label_posterior(th, data_perm)
        assert np.array_equal(probs[perm], probs_perm)


def test_vector_data_rejects_impossible_unit():
    # (z1, w1, z2, w2) = (0, 1, 1, 0) is a defier history
    data = Dataset(np.zeros((1, 1)), z1=[0], w1=[1], x2=[0.0], z2=[1], w2=[0], y=[0.0])
    with pytest.raises(InconsistentUnit, match="unit 0"):
        as_vector_data(data)


def test_step_compliance_respects_admissibility():
    data, _ = simulate_dataset(DgpConfig(n=200, seed=24))
    vd = as_vector_data(data)
    state = start(vd, 24, chains=(0, 1))
    for _ in range(5):
        state = step_compliance(state, vd)
        assert state.compliance.shape == (2, vd.n)
        assert vd.consistent[np.arange(vd.n), state.compliance].all()


def reference_imputations(theta, codes, vd, rng, m, contrast=DEFAULT_CONTRAST):
    """m complier effects of one chain, each the mean over its compliers of
    one imputation of their missing cells: the missing x2 cell first, then
    every missing y cell with the x2 cell that shares its first-period
    receipt, observed cells as observed.  theta has no chain axis; codes
    (n,) must hold a complier."""
    co = np.flatnonzero(codes == 1)
    k, p = co.size, vd.p
    a, b = theta.alpha, theta.beta
    X1, w1, w2 = vd.X1[co], vd.w1[co], vd.w2[co]
    x2 = np.empty((m, k, 2))
    for r in (0, 1):
        mean = a[0] + X1 @ a[1:p + 1] + a[p + 1] * r
        x2[..., r] = np.where(w1 == r, vd.x2[co],
                              mean + theta.sigma_x * rng.standard_normal((m, k)))
    y = np.empty((m, k, 4))
    for r, s in Y_CELLS:
        mean = (b[0] + X1 @ b[1:p + 1] + b[p + 1] * x2[..., r] + b[p + 2] * r + b[p + 3] * s
                + b[p + 4] * r * s)
        y[..., 2 * r + s] = np.where((w1 == r) & (w2 == s), vd.y[co],
                                     mean + theta.sigma_y * rng.standard_normal((m, k)))
    (a1, a2), (b1, b2) = contrast
    return (y[..., 2 * a1 + a2] - y[..., 2 * b1 + b2]).mean(axis=1)


def reference_moments(theta, codes, vd, contrast=DEFAULT_CONTRAST):
    """Mean and variance of one chain's complier effect given theta (no
    chain axis) and labels codes (n,), unit by unit: each complier's
    contrast at its cells' model means, and its noise variance, sigma_y^2
    per missing y cell of the contrast plus (beta_x2 sigma_x)^2 times the
    squared difference of the two cells' imputed-x2 indicators."""
    co = codes == 1
    k, p = co.sum(), vd.p
    (a1, a2), (b1, b2) = contrast
    w1, w2 = vd.w1[co], vd.w2[co]
    y_noises = ((w1 != a1) | (w2 != a2)).astype(float) + ((w1 != b1) | (w2 != b2))
    if (a1, a2) == (b1, b2):
        y_noises[:] = 0.0
    x2_loading = (w1 != a1).astype(float) - (w1 != b1)
    var = (theta.sigma_y ** 2 * y_noises
           + (theta.beta[p + 1] * theta.sigma_x) ** 2 * x2_loading ** 2).sum() / k ** 2
    return _complier_contrasts(theta, vd, contrast)[co].sum() / k, var


def drawn_moments(state, vd, contrast=DEFAULT_CONTRAST):
    """Per chain, the mean and sd of step_impute's draw, read off two draws
    from streams whose next normals are known."""
    effects, normals = [], []
    for seed in (1, 2):
        rngs = tuple(substream(seed, "moments", c) for c in range(len(state.rngs)))
        normals.append([copy.deepcopy(r).standard_normal() for r in rngs])
        new = step_impute(replace(state, rngs=rngs), vd, contrast)
        effects.append(late_draw(new, contrast))
    (e1, e2), (z1, z2) = np.array(effects), np.array(normals)
    sd = (e1 - e2) / (z1 - z2)
    return e1 - sd * z1, sd


def test_step_impute_bookkeeping():
    # one normal per chain from its own stream, compliers or not; the effect
    # is kept with its contrast, NaN for a chain without compliers
    data, _ = simulate_dataset(DgpConfig(n=150, seed=25,
                                         compliance_probs=ConstantCompliance((0.3, 0.4, 0.3))))
    vd = as_vector_data(data)
    state = start(vd, 25, chains=(0, 1, 2))
    codes = state.compliance.copy()
    codes[1] = np.where(vd.consistent[:, 0], 0, 2)
    state = replace(state, compliance=codes)
    assert state.effect is None
    with pytest.raises(InvalidConfig, match="contrast"):
        late_draw(state)
    streams = copy.deepcopy(state.rngs)
    new = step_impute(state, vd)
    for rng, ref in zip(new.rngs, streams):
        ref.standard_normal()
        assert rng.bit_generator.state == ref.bit_generator.state
    got = late_draw(new)
    assert got.shape == (3,)
    assert np.isfinite(got[[0, 2]]).all() and np.isnan(got[1])
    assert new.theta is state.theta and new.compliance is state.compliance
    with pytest.raises(InvalidConfig, match="contrast"):
        late_draw(new, ((0, 1), (0, 0)))


def test_step_impute_is_centered_on_model_means():
    data, _ = simulate_dataset(DgpConfig(n=60, seed=26,
                                         compliance_probs=ConstantCompliance((0.0, 1.0, 0.0))))
    vd = as_vector_data(data)
    th = zero_loading_theta(sigma=1e-8)
    state = ChainState(chains_of(th), np.full((1, vd.n), 1, dtype=np.int8), start(vd, 26).rngs)
    got = late_draw(step_impute(state, vd))
    # every unit a complier: its cells by hand at their model means
    diffs = []
    for i in range(vd.n):
        x2 = [0.0, 0.0]
        x2[vd.w1[i]] = vd.x2[i]
        w1_mis = 1 - vd.w1[i]
        x2[w1_mis] = float(th.alpha @ np.concatenate([[1.0], vd.X1[i], [w1_mis, 0.0, 0.0]]))
        y = {}
        for (a, b) in ((0, 0), (1, 1)):
            y[a, b] = (vd.y[i] if 2 * a + b == vd.obs_ycol[i] else float(th.beta @ np.concatenate(
                [[1.0], vd.X1[i], [x2[a], a, b, a * b, 0.0, 0.0]])))
        diffs.append(y[1, 1] - y[0, 0])
    assert got == pytest.approx([np.mean(diffs)], abs=1e-6)


def test_late_draw_hand_case():
    # two compliers and a nevertaker, p = 1 with x1 = 0; x2 means alpha_0 +
    # alpha_w1 w1 = 0.5 + w1, y means 1 + 2 x2 + 0.5 w1 + 0.25 w2 + 0.25 w1 w2
    data = Dataset(np.zeros((3, 1)), z1=[1, 0, 1], w1=[1, 0, 0], x2=[1.0, 0.0, 3.0],
                   z2=[1, 0, 0], w2=[1, 0, 0], y=[4.0, 1.0, 7.0])
    vd = as_vector_data(data)
    th = Theta(np.zeros(2), np.zeros(2), np.array([0.5, 0.0, 1.0, 0.0, 0.0]), 0.5,
               np.array([1.0, 0.0, 2.0, 0.5, 0.25, 0.25, 0.0, 0.0]), 0.5)
    rng = substream(27, "chain", 0)
    z = copy.deepcopy(rng).standard_normal()
    state = ChainState(chains_of(th), np.array([[1, 1, 0]], dtype=np.int8), (rng,))
    # y(1,1) - y(0,0): unit 0 observed 4 against 1 + 2 * 0.5, unit 1 against
    # observed 1 the mean 1 + 2 * 1.5 + 1; each reads one imputed x2 (loading
    # 2 * 0.5) and one y noise (0.5)
    got = late_draw(step_impute(state, vd))
    assert got == pytest.approx([3.0 + math.sqrt(2 * (0.25 + 1.0)) / 2 * z], rel=1e-12)
    # y(0,1) - y(0,0): unit 0's two cells read the same imputed x2(0), whose
    # noise cancels, means 2.25 - 2; unit 1 the mean 1.25 against observed 1
    contrast = ((0, 1), (0, 0))
    state = ChainState(chains_of(th), state.compliance, (substream(27, "chain", 0),))
    got = late_draw(step_impute(state, vd, contrast), contrast)
    assert got == pytest.approx([0.25 + math.sqrt(3 * 0.25) / 2 * z], rel=1e-12)
    # the arms may come as any pair of pairs
    state = ChainState(chains_of(th), state.compliance, (substream(27, "chain", 0),))
    assert np.array_equal(late_draw(step_impute(state, vd, [[0, 1], [0, 0]]), [(0, 1), (0, 0)]),
                          got)
    # a chain without compliers gets NaN, its neighbour its own effect
    both = ChainState(chains_of(th, 2), np.array([[0, 0, 0], [1, 1, 0]], dtype=np.int8),
                      (substream(27, "chain", 1), substream(27, "chain", 0)))
    got = late_draw(step_impute(both, vd))
    assert np.isnan(got[0]) and got[1] == pytest.approx(3.0 + math.sqrt(2.5) / 2 * z, rel=1e-12)


@pytest.mark.parametrize("p", [0, 1, 3])
@pytest.mark.parametrize("contrast", [DEFAULT_CONTRAST, ((1, 1), (1, 0)), ((0, 1), (1, 0))],
                         ids=["default", "same-first-receipt", "crossed"])
def test_effect_draw_matches_reference_imputation(p, contrast):
    # chain 0 holds drawn labels, chain 1 labels every admissible unit a
    # complier, chain 2 has none; ((1, 1), (1, 0)) reads x2(1) in both arms,
    # so the imputed x2 noise cancels
    data, _ = simulate_dataset(DgpConfig(n=60, p=p, seed=56))
    vd = as_vector_data(data)
    rng = substream(56, "effect-reference", p)
    thetas = [random_theta(rng, p, *rng.normal(size=2)) for _ in range(3)]
    state = replace(start(vd, 56, chains=(0, 1, 2)),
                    theta=Theta.from_vector(np.stack([th.to_vector() for th in thetas]), p))
    state = step_compliance(state, vd)
    codes = state.compliance.copy()
    codes[1] = np.where(vd.consistent[:, 1], 1, np.where(vd.consistent[:, 0], 0, 2))
    codes[2] = np.where(vd.consistent[:, 0], 0, 2)
    state = replace(state, compliance=codes)
    mean, sd = drawn_moments(state, vd, contrast)
    assert np.isnan(mean[2]) and np.isnan(sd[2])
    m = 4000
    for c in (0, 1):
        assert (codes[c] == 1).sum() > 5
        want_mean, want_var = reference_moments(thetas[c], codes[c], vd, contrast)
        # closed form, unit by unit
        assert mean[c] == pytest.approx(want_mean, rel=1e-10, abs=1e-10 * abs(vd.y).max())
        assert sd[c] ** 2 == pytest.approx(want_var, rel=1e-10)
        # Monte Carlo over m imputations: the mean within 4.5 standard errors,
        # the variance within 5 standard errors of a Gaussian sample variance
        draws = reference_imputations(thetas[c], codes[c], vd, rng, m, contrast)
        assert abs(draws.mean() - mean[c]) < 4.5 * sd[c] / math.sqrt(m)
        assert abs(draws.var(ddof=1) / sd[c] ** 2 - 1.0) < 5.0 * math.sqrt(2.0 / (m - 1))


def test_ridge_draw_with_no_rows_recovers_prior():
    rng = substream(28, "ridge-prior", 0)
    draws = np.concatenate([_draw_ridge(np.zeros((1, 3, 3)), np.zeros((1, 3)), np.ones(1), 5.0,
                                        rng.standard_normal((1, 3))) for _ in range(5000)])
    assert abs(draws.mean()) < 0.25
    assert np.abs(draws.std(axis=0) - 5.0).max() < 0.25


def test_variance_draw_with_no_rows_recovers_prior():
    rng = substream(29, "var-prior", 0)
    prior = PriorSpec(scale_shape=2.0, scale_rate=1.0)
    # no rows: the standard gamma variate has the prior's shape
    draws = np.concatenate([_draw_variance(np.zeros(1), prior, rng.standard_gamma(2.0, size=1))
                            for _ in range(5000)])
    ks = stats.kstest(draws, lambda v: stats.invgamma.cdf(v, 2.0, scale=1.0))
    assert ks.statistic < 0.05


def test_ridge_draw_concentrates_on_least_squares():
    rng = substream(30, "ridge-data", 0)
    D = rng.normal(size=(2000, 3))
    coef = np.array([1.0, -2.0, 0.5])
    resp = D @ coef + 0.1 * rng.standard_normal(2000)
    draws = np.concatenate([_draw_ridge((D.T @ D)[None], (D.T @ resp)[None], np.full(1, 0.1), 5.0,
                                        rng.standard_normal((1, 3))) for _ in range(200)])
    assert np.abs(draws.mean(axis=0) - coef).max() < 0.02


def random_walk_metropolis(log_density, init, scale, n_steps, rng, sd=None, thin=1):
    """Plain random-walk Metropolis over a vector target, the textbook form
    of the move the marginal_mh kernel makes."""
    x = np.asarray(init, dtype=float).copy()
    lp = log_density(x)
    if np.isnan(lp):
        raise NumericalOverflow("initial log density is NaN")
    sdv = np.ones(x.shape[0]) if sd is None else np.asarray(sd, dtype=float)
    kept = []
    for t in range(n_steps):
        prop = x + scale * sdv * rng.standard_normal(x.shape[0])
        lp_prop = log_density(prop)
        if np.isnan(lp_prop):
            raise NumericalOverflow("proposal log density is NaN")
        if math.log(rng.uniform()) < lp_prop - lp:
            x, lp = prop, lp_prop
        if (t + 1) % thin == 0:
            kept.append(x.copy())
    return np.asarray(kept)


def test_random_walk_metropolis_recovers_normal_target():
    rng = substream(31, "rwm", 0)
    kept = random_walk_metropolis(
        lambda v: float(-0.5 * v @ v), np.zeros(1), scale=2.4,
        n_steps=40_000, rng=rng, thin=10)
    ks = stats.kstest(kept[:, 0], "norm")
    assert ks.statistic < 0.05


def test_random_walk_metropolis_duplicated_flat_target():
    # a flat likelihood stacked on the prior twice must not move the chain's
    # stationary law away from a variance-halved normal
    rng = substream(32, "rwm-dup", 0)
    kept = random_walk_metropolis(
        lambda v: float(-0.5 * v @ v) * 2.0, np.zeros(1), scale=1.7,
        n_steps=40_000, rng=rng, thin=10)
    ks = stats.kstest(kept[:, 0], lambda q: stats.norm.cdf(q, scale=np.sqrt(0.5)))
    assert ks.statistic < 0.05


@pytest.mark.parametrize("mode", ["conjugate_gibbs", "marginal_mh"])
def test_run_chain_is_deterministic(mode):
    data, _ = simulate_dataset(DgpConfig(n=80, seed=33))
    vd = as_vector_data(data)
    cfg = SamplerConfig(seed=5, n_chains=1, n_warmup=50, n_draws=60, theta_update=mode)
    theta1, late1, _ = run_chain(data, PriorSpec(), cfg)
    theta2, late2, _ = run_chain(data, PriorSpec(), cfg)
    assert theta1.shape[:2] == late1.shape == (1, 60)
    assert np.array_equal(theta1, theta2)
    assert np.array_equal(late1, late2, equal_nan=True)
    # the run is chain 0 driven alone; chain 1 of the same seed differs
    (theta0, late0, _), _ = drive_alone(vd, cfg, 0)
    assert np.array_equal(theta1, theta0)
    assert np.array_equal(late1, late0, equal_nan=True)
    (theta3, _, _), _ = drive_alone(vd, cfg, 1)
    assert (theta1 != theta3).any(axis=-1).any()


def test_run_chain_reports_failing_sweep(monkeypatch):
    data, _ = simulate_dataset(DgpConfig(n=20, seed=34))

    def boom(state, vd):
        raise NumericalOverflow("boom")

    # step_compliance only runs inside the sweep loop, so the re-raise must
    # carry the sweep number and keep the error type
    monkeypatch.setattr(gibbs, "step_compliance", boom)
    cfg = SamplerConfig(seed=6, n_chains=1, n_warmup=2, n_draws=2)
    with pytest.raises(NumericalOverflow, match="sweep 1: boom"):
        run_chain(data, PriorSpec(), cfg)


def test_run_chain_requires_seed():
    data, _ = simulate_dataset(DgpConfig(n=20, seed=35))
    with pytest.raises(InvalidConfig, match="seed"):
        run_chain(data, PriorSpec(), SamplerConfig(seed=None, n_warmup=1, n_draws=1))


def test_run_chain_invariants_hold_throughout(monkeypatch):
    data, _ = simulate_dataset(DgpConfig(n=60, seed=36))
    cfg = SamplerConfig(seed=7, n_chains=1, n_warmup=30, n_draws=30)
    checked = check_invariants(monkeypatch)
    theta, _, _ = run_chain(data, PriorSpec(), cfg)
    assert len(checked) == cfg.n_draws
    assert np.isfinite(theta[..., theta_field_names(1).index("sigma_y")]).all()


@pytest.mark.parametrize("mode", ["conjugate_gibbs", "marginal_mh"])
def test_step_theta_changes_theta(mode):
    data, _ = simulate_dataset(DgpConfig(n=50, seed=37))
    vd = as_vector_data(data)
    state = start(vd, 37)
    moved = False
    for _ in range(20):
        new = step_theta(state, vd, PriorSpec(), mode=mode)
        if new.theta != state.theta:
            moved = True
        state = step_impute(step_compliance(new, vd), vd)
    assert moved


def test_step_theta_unknown_mode():
    data, _ = simulate_dataset(DgpConfig(n=10, seed=38))
    vd = as_vector_data(data)
    state = start(vd, 38)
    with pytest.raises(InvalidConfig):
        step_theta(state, vd, PriorSpec(), mode="hamiltonian")


def test_fit_shapes_and_determinism():
    data, _ = simulate_dataset(DgpConfig(n=60, seed=39))
    cfg = SamplerConfig(seed=8, n_chains=2, n_warmup=40, n_draws=50)
    r1 = fit(data, PriorSpec(), cfg)
    r2 = fit(data, PriorSpec(), cfg)
    assert r1.late.shape == r1.n_compliers.shape == (2, 50)
    assert r1.theta.shape == (2, 50, len(r1.theta_names()))
    assert (r1.n_chains, r1.n_draws) == (2, 50)
    assert np.array_equal(r1.late, r2.late, equal_nan=True)
    assert np.array_equal(r1.theta, r2.theta)
    assert np.array_equal(r1.n_compliers, r2.n_compliers)


@pytest.mark.parametrize("mode", ["conjugate_gibbs", "marginal_mh"])
def test_fit_arrays_equal_hand_driven_sweeps(mode):
    # row j of chain c is kept sweep n_warmup + j of chain c driven alone
    data, _ = simulate_dataset(DgpConfig(n=60, seed=49))
    vd = as_vector_data(data)
    cfg = SamplerConfig(seed=12, n_chains=2, n_warmup=6, n_draws=15, theta_update=mode)
    res = fit(data, PriorSpec(), cfg)
    for c in range(cfg.n_chains):
        alone, tuning = drive_alone(vd, cfg, c)
        for got, want in zip((res.theta, res.late, res.n_compliers), alone):
            assert np.array_equal(got[c], want[0], equal_nan=True)
        # the marginal history stops at the scale refresh, its one reader
        assert len(tuning.history) == (tuning.sd_refresh_at + 1 if mode == "marginal_mh" else 0)


@pytest.mark.parametrize("mode", ["conjugate_gibbs", "marginal_mh"])
def test_marginal_warmup_updates_theta_only(monkeypatch, mode):
    data, _ = simulate_dataset(DgpConfig(n=40, seed=51))
    calls = {"step_compliance": 0, "step_impute": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(gibbs, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(gibbs, name, counted)
    checked = check_invariants(monkeypatch)
    cfg = SamplerConfig(seed=14, n_chains=1, n_warmup=7, n_draws=5, theta_update=mode)
    run_chain(data, PriorSpec(), cfg)
    assert len(checked) == cfg.n_draws
    # conjugate warmup draws labels, which its next update reads; only kept
    # sweeps impute, and init_state does not
    labels = cfg.n_draws if mode == "marginal_mh" else cfg.n_warmup + cfg.n_draws
    assert calls == {"step_compliance": labels, "step_impute": cfg.n_draws}


@pytest.mark.parametrize("mode", ["conjugate_gibbs", "marginal_mh"])
def test_first_kept_marginal_labels_come_from_the_exact_conditional(monkeypatch, mode):
    # every label draw, the first kept one included, uses the kept theta and
    # the same uniforms as a row-wise draw from the exact conditional; after
    # theta-only marginal warmup the first kept draw is the run's first
    data, _ = simulate_dataset(DgpConfig(n=90, seed=52))
    vd = as_vector_data(data)
    seen = []
    original = gibbs.step_compliance

    def checked(state, data):
        u = copy.deepcopy(state.rngs[0]).uniform(size=vd.n)
        out = original(state, data)
        want = ref_vector_categorical(label_posterior(state.theta, vd)[0], u)
        seen.append((state.theta.to_vector()[0], np.array_equal(out.compliance[0], want)))
        return out

    monkeypatch.setattr(gibbs, "step_compliance", checked)
    cfg = SamplerConfig(seed=15, n_chains=1, n_warmup=20, n_draws=3, theta_update=mode)
    theta, _, _ = run_chain(data, PriorSpec(), cfg)
    assert len(seen) == cfg.n_draws + (cfg.n_warmup if mode == "conjugate_gibbs" else 0)
    for j, (kept, _) in enumerate(seen[-cfg.n_draws:]):
        assert np.array_equal(kept, theta[0, j])
    assert all(ok for _, ok in seen)


def test_fit_result_keeps_only_its_arrays():
    # the README shape: n = 500, 4 chains x 750 kept draws of 19 parameters,
    # whose arrays take about 0.5 MiB; one Theta object per draw took 3.5
    import gc
    import tracemalloc

    data, _ = simulate_dataset(DgpConfig(n=500, seed=50))
    cfg = SamplerConfig(seed=13, n_chains=4, n_warmup=10, n_draws=750)
    tracemalloc.start()
    try:
        res = fit(data, PriorSpec(), cfg)
        assert (res.n_chains, res.n_draws) == (4, 750)
        gc.collect()
        with_result = tracemalloc.get_traced_memory()[0]
        del res
        gc.collect()
        kept = with_result - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 1.5 * 2 ** 20


@pytest.mark.parametrize("mode", ["conjugate_gibbs", "marginal_mh"])
def test_lockstep_chain_equals_the_chain_run_alone(mode):
    # chain k of a four-chain lockstep run draws from its own substream
    # alone, so it is chain k driven alone bit for bit
    data, _ = simulate_dataset(DgpConfig(n=70, seed=53))
    vd = as_vector_data(data)
    cfg = SamplerConfig(seed=16, n_chains=4, n_warmup=20, n_draws=30, theta_update=mode)
    together = run_chain(vd, PriorSpec(), cfg)
    assert together[0].shape == (4, 30, len(theta_field_names(1)))
    for k in range(4):
        alone, _ = drive_alone(vd, cfg, k)
        for a, b in zip(together, alone):
            assert np.array_equal(a[k], b[0], equal_nan=True)


@pytest.mark.parametrize("accept", [(False, True), (True, False), (False, False)])
def test_marginal_step_keeps_a_rejecting_chain_bit_for_bit(monkeypatch, accept):
    data, _ = simulate_dataset(DgpConfig(n=60, seed=54))
    vd = as_vector_data(data)
    state = step_theta(start(vd, 54, chains=(0, 1)), vd, PriorSpec(), "marginal_mh")
    old_theta = state.theta.to_vector()
    _, old_lp, old_pl = state.logweights
    old_lp, old_pl = old_lp.copy(), old_pl.copy()
    monkeypatch.setattr(gibbs, "_metropolis",
                        lambda lp_prop, lp_cur, uniform: (np.array(accept), [0.5, 0.5]))
    new = step_theta(state, vd, PriorSpec(), "marginal_mh")
    theta, lp, pl = new.logweights
    assert theta is new.theta
    assert pl.shape == (2, vd.two.size)
    if not any(accept):
        # the bench's acceptance count reads an unchanged object as a rejection
        assert new.theta is state.theta and pl is state.logweights[2]
    for c, took in enumerate(accept):
        if took:
            assert (new.theta.to_vector()[c] != old_theta[c]).any()
            assert np.array_equal(pl[c], gibbs._marginal_logpost(new.theta, vd, PriorSpec())[1][c])
        else:
            assert np.array_equal(new.theta.to_vector()[c], old_theta[c])
            assert np.array_equal(pl[c], old_pl[c])
            assert lp[c] == old_lp[c]
    # the state stepped from keeps its own cache
    assert np.array_equal(state.logweights[2], old_pl)


def assert_rejected_unseen(log_sigma):
    """Chain 0 of a two-chain marginal step on the [dgp] n = 60, seed = 3
    data proposes log sigma_x = log_sigma and keeps its theta and cache
    without drawing a uniform, and chain 1 steps as usual."""
    data, _ = simulate_dataset(DgpConfig(n=60, seed=3))
    vd = as_vector_data(data)
    state = step_theta(start(vd, 3, chains=(0, 1)), vd, PriorSpec(), "marginal_mh")
    cur = gibbs._pack_unconstrained(state.theta)
    i = gibbs._sigma_index(1)
    peek = copy.deepcopy(state.rngs)
    z = np.stack([rng.standard_normal(cur.shape[1]) for rng in peek])
    tuning = gibbs._Tuning(n_chains=2, marg_scale=[(log_sigma - cur[0, i]) / z[0, i], 0.05])
    tuning.marg_sd = np.ones(cur.shape[1])
    tuning.marg_sd[:i], tuning.marg_sd[i + 1:] = 0.0, 0.0
    new = step_theta(state, vd, PriorSpec(), "marginal_mh", tuning)
    assert np.array_equal(new.theta.to_vector()[0], state.theta.to_vector()[0])
    assert new.logweights[1][0] == state.logweights[1][0]
    assert np.array_equal(new.logweights[2][0], state.logweights[2][0])
    peek[1].uniform()
    for rng, want in zip(new.rngs, peek):
        assert rng.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("log_sigma", [400.0, -480.0, 800.0])
def test_marginal_step_rejects_a_scale_outside_the_prior_support(log_sigma):
    # the variance overflows (400), underflows to zero (-480) or the scale
    # itself overflows (800)
    assert_rejected_unseen(log_sigma)


def test_marginal_step_rejects_a_proposal_of_zero_likelihood():
    # at log sigma_x = -354 the variance, its reciprocal and the log prior
    # are finite, but z * z overflows at both types of a two-type unit: its
    # pair term is -inf, not -inf - -inf, so the log posterior is -inf, with
    # no overflow warning, and the proposal is rejected like one outside the
    # prior support
    vd = as_vector_data(simulate_dataset(DgpConfig(n=60, seed=3))[0])
    v = start(vd, 3).theta.to_vector()
    v[0, gibbs._sigma_index(1)] = math.exp(-354.0)
    lp, _ = gibbs._marginal_logpost(Theta.from_vector(v, 1), vd, PriorSpec())
    assert lp.tolist() == [-math.inf]
    assert_rejected_unseen(-354.0)


def test_invariant_check_names_the_corrupted_chain(monkeypatch):
    data, _ = simulate_dataset(DgpConfig(n=40, seed=55))
    vd = as_vector_data(data)
    # the first unit with an inadmissible type, and that type
    i = int(np.flatnonzero(~vd.consistent.all(axis=1))[0])
    bad = int(np.flatnonzero(~vd.consistent[i])[0])
    original = gibbs.step_impute

    def corrupt_third(state, vd, contrast):
        out = original(state, vd, contrast)
        out.compliance[2, i] = bad
        return out

    monkeypatch.setattr(gibbs, "step_impute", corrupt_third)
    cfg = SamplerConfig(seed=17, n_chains=4, n_warmup=2, n_draws=2)
    # without the check the corruption passes unseen
    run_chain(data, PriorSpec(), cfg)
    check_invariants(monkeypatch)
    with pytest.raises(AssertionError, match=f"^chain 2: unit {i} carries an inadmissible label$"):
        run_chain(data, PriorSpec(), cfg)


def test_sampler_config_validation():
    with pytest.raises(InvalidConfig, match="n_draws"):
        SamplerConfig(n_draws=0)
    with pytest.raises(InvalidConfig, match="theta_update"):
        SamplerConfig(theta_update="exact")
    with pytest.raises(InvalidConfig, match="mh_step_scale"):
        SamplerConfig(mh_step_scale=-0.5)


def test_posterior_concentrates_on_sharp_data():
    # tiny noise and known labels: the outcome intercept posterior collapses
    # onto the data's own least squares value
    cfg = DgpConfig(n=400, seed=40,
                    compliance_probs=ConstantCompliance((0.0, 1.0, 0.0)),
                    intermediate_noise_sd=0.05, outcome_noise_sd=0.05)
    data, _ = simulate_dataset(cfg)
    res = fit(data, PriorSpec(), SamplerConfig(seed=9, n_chains=1,
                                               n_warmup=200, n_draws=400))
    beta0 = res.theta[0, :, res.theta_names().index("beta_0")]
    arr = data.as_arrays()
    D = np.column_stack([np.ones(len(data)), arr["X1"][:, 0], arr["x2"],
                         arr["w1"], arr["w2"], arr["w1"] * arr["w2"]])
    ols0 = np.linalg.lstsq(D, arr["y"], rcond=None)[0][0]
    assert beta0.std() < 0.05
    assert abs(beta0.mean() - ols0) < 0.03


# ---------------------------------------------------------------------------
# normal equations of the conjugate blocks, and the shared log-weight matrix
# ---------------------------------------------------------------------------

def _reference_rows(codes, vd):
    """The conjugate regression rows of a chain with labels codes, stacked
    unit by unit: each unit's observed row and its (at, nt) indicators."""
    x_rows, y_rows = [], []
    for i in range(vd.n):
        at, nt = float(codes[i] == 2), float(codes[i] == 0)
        x_rows.append([1.0, *vd.X1[i], vd.w1[i], at, nt])
        y_rows.append([1.0, *vd.X1[i], vd.x2[i], vd.w1[i], vd.w2[i],
                       vd.w1[i] * vd.w2[i], at, nt])
    return ((np.array(x_rows), vd.x2), (np.array(y_rows), vd.y))


def _assert_rel(got, want, rtol=1e-10):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def _check_normal_equations(codes, vd, seed):
    """Per chain of labels codes (C, n), G, r, row count and residual sums
    of squares of both blocks against the stacked rows, at the
    least-squares coefficients and a random draw, each chain's coefficients
    beside other rows."""
    *blocks, (nt_sums, at_sums) = gibbs._normal_equations(codes[:, None] == gibbs._AT_NT, vd)
    rng = np.random.default_rng(seed)
    C = codes.shape[0]
    for k in range(C):
        # the logit design summed over each stratum, which scores the labels
        for got, code in ((nt_sums, 0), (at_sums, 2)):
            want = vd.U1[codes[k] == code].sum(axis=0)
            assert np.abs(got[k] - want).max() <= 1e-10 * (1.0 + np.abs(vd.U1).sum())
        for (G, r, n_rows, rss), (D, resp) in zip(blocks, _reference_rows(codes[k], vd)):
            assert n_rows == len(D) == vd.n
            _assert_rel(G[k], D.T @ D)
            _assert_rel(r[k], D.T @ resp)
            ls = np.linalg.lstsq(D, resp, rcond=None)[0]
            for coef in (ls, ls + rng.normal(size=ls.shape)):
                coefs = rng.normal(size=(C, ls.size))
                coefs[k] = coef
                resid = resp - D @ coef
                _assert_rel(rss(coefs)[k], resid @ resid)


@pytest.mark.parametrize("p", [0, 1, 3])
def test_normal_equations_match_unit_by_unit_rows(p):
    data, _ = simulate_dataset(DgpConfig(n=40, p=p, seed=41))
    vd = as_vector_data(data)
    state = start(vd, 41, chains=(0, 1, 2))
    for t in range(4):
        state = step_compliance(step_theta(state, vd, PriorSpec()), vd)
        assert ((0 < state.n_compliers()) & (state.n_compliers() < vd.n)).all()
        _check_normal_equations(state.compliance, vd, t)
    # y shifted by 1e4: residuals of order one under responses of order 1e4,
    # where r'r - 2 coef'r + coef'G coef would cancel away the sum of squares
    shifted = as_vector_data(Dataset(data.X1, data.z1, data.w1, data.x2, data.z2,
                                     data.w2, data.y + 1e4))
    _check_normal_equations(state.compliance, shifted, 6)
    # in chain 1 every unit that admits the label is a complier, the others
    # are not; chain 2 has no compliers
    codes = state.compliance.copy()
    codes[1] = np.where(vd.consistent[:, 1], 1, np.where(vd.consistent[:, 0], 0, 2))
    codes[2] = np.where(vd.consistent[:, 0], 0, 2)
    assert ((codes == 1).sum(axis=1)[1:] == [vd.consistent[:, 1].sum(), 0]).all()
    _check_normal_equations(codes, vd, 5)


def test_normal_equations_without_compliers():
    data, _ = simulate_dataset(DgpConfig(
        n=40, p=1, seed=42, compliance_probs=ConstantCompliance((0.5, 0.0, 0.5))))
    vd = as_vector_data(data)
    codes = np.where(vd.consistent[:, 0], 0, 2).astype(np.int8)[None]
    state = replace(start(vd, 42), compliance=codes)
    assert state.n_compliers() == [0]
    _check_normal_equations(codes, vd, 0)
    assert np.isfinite(step_theta(state, vd, PriorSpec()).theta.to_vector()).all()


def test_step_theta_does_not_read_the_effect():
    # either update reads the labels and the observed data only: a state
    # without a complier effect and the same state with one give the same theta
    data, _ = simulate_dataset(DgpConfig(n=60, seed=42))
    vd = as_vector_data(data)
    state = step_compliance(step_theta(start(vd, 42, chains=(0, 1)), vd, PriorSpec()), vd)
    assert state.effect is None
    streams = copy.deepcopy(state.rngs)
    drawn = replace(step_impute(state, vd), rngs=streams)
    assert np.isfinite(late_draw(drawn)).all()
    for mode in gibbs.THETA_UPDATE_MODES:
        bare = replace(state, rngs=copy.deepcopy(streams))
        with_effect = replace(drawn, rngs=copy.deepcopy(streams))
        assert (step_theta(bare, vd, PriorSpec(), mode).theta
                == step_theta(with_effect, vd, PriorSpec(), mode).theta)


def test_step_impute_draws_in_documented_order():
    # per chain, from its own stream, one normal z: the effect is
    # mean + sd * z with the moments summed unit by unit
    data, _ = simulate_dataset(DgpConfig(n=50, p=2, seed=48))
    vd = as_vector_data(data)
    state = start(vd, 48, chains=(0, 1))
    state = step_compliance(step_theta(state, vd, PriorSpec()), vd)
    streams = copy.deepcopy(state.rngs)
    got = late_draw(step_impute(state, vd))
    for c in range(2):
        th = Theta.from_vector(state.theta.to_vector()[c], 2)
        mean, var = reference_moments(th, state.compliance[c], vd)
        want = mean + math.sqrt(var) * streams[c].standard_normal()
        assert got[c] == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("mode", ["conjugate_gibbs", "marginal_mh"])
def test_step_theta_returns_a_new_state(mode):
    data, _ = simulate_dataset(DgpConfig(n=50, seed=43))
    vd = as_vector_data(data)
    state = start(vd, 43)
    old = state.theta
    for _ in range(10):
        new = step_theta(state, vd, PriorSpec(), mode=mode)
        assert new is not state
        assert state.theta is old
        state = step_impute(step_compliance(new, vd), vd)
        old = state.theta


def test_marginal_chain_evaluates_log_weights_once_per_sweep(monkeypatch):
    data, _ = simulate_dataset(DgpConfig(n=80, seed=44))
    calls = []
    original = gibbs.compliance_log_prob_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(gibbs, "compliance_log_prob_matrix", counted)
    k = 60
    cfg = SamplerConfig(seed=10, n_chains=1, n_warmup=k // 2, n_draws=k // 2,
                        theta_update="marginal_mh")
    run_chain(data, PriorSpec(), cfg)
    # the first sweep also evaluates the starting theta
    assert len(calls) <= k + 1


def test_marginal_chain_evaluates_every_unit_at_two_types_once_per_sweep(monkeypatch):
    # the sampler calls each kernel through gibbs once for the starting
    # theta and once per sweep, on every unit at two types; the label step
    # reads the cached probabilities and calls none
    data, _ = simulate_dataset(DgpConfig(n=80, seed=44))
    shapes = {"compliance_log_prob_matrix": [], "observed_cell_logliks": []}

    def counted(name, original):
        def kernel(theta, cols, *args, **kwargs):
            out = original(theta, cols, *args, **kwargs)
            shapes[name].append(out.shape)
            return out
        return kernel

    for name in shapes:
        monkeypatch.setattr(gibbs, name, counted(name, getattr(gibbs, name)))
    label_calls = []
    step = gibbs.step_compliance

    def label_step(state, vd):
        before = sum(map(len, shapes.values()))
        out = step(state, vd)
        label_calls.append(sum(map(len, shapes.values())) - before)
        return out

    monkeypatch.setattr(gibbs, "step_compliance", label_step)
    k = 60
    cfg = SamplerConfig(seed=10, n_chains=2, n_warmup=k // 2, n_draws=k // 2,
                        theta_update="marginal_mh")
    run_chain(data, PriorSpec(), cfg)
    assert shapes == {name: [(2, 80, 2)] * (k + 1) for name in shapes}
    assert label_calls == [0] * (k // 2)


def test_conjugate_chain_evaluates_each_density_at_the_pairs_once_per_sweep(monkeypatch):
    # the sampler calls each kernel through gibbs once per sweep, on the
    # two-type units' columns only
    data, _ = simulate_dataset(DgpConfig(n=80, seed=44))
    rows = {"compliance_log_prob_matrix": [], "observed_cell_logliks": []}

    def counted(name, original):
        def kernel(theta, cols, *args, **kwargs):
            rows[name].append(cols.shape[0])
            return original(theta, cols, *args, **kwargs)
        return kernel

    for name in rows:
        monkeypatch.setattr(gibbs, name, counted(name, getattr(gibbs, name)))
    k = 60
    cfg = SamplerConfig(seed=10, n_chains=2, n_warmup=k // 2, n_draws=k // 2)
    run_chain(data, PriorSpec(), cfg)
    m = as_vector_data(data).two.size
    assert 0 < m < 80
    assert rows == {name: [m] * k for name in rows}


def test_conjugate_labels_from_the_pairs_equal_the_posterior():
    # a 4-chain logit-compliance state, with the conjugate update's logit
    # columns cached and without them
    gnt, gat = np.array([-1.0, 0.5, -0.3, 0.2]), np.array([-1.2, -0.4, 0.3, 0.5])
    data, _ = simulate_dataset(DgpConfig(n=400, seed=48, p=3,
                                         compliance_probs=LogitCompliance(gnt, gat)))
    vd = as_vector_data(data)
    state = start(vd, 48, chains=range(4))
    for _ in range(3):
        state = step_compliance(step_theta(state, vd, PriorSpec()), vd)
    new = step_theta(state, vd, PriorSpec())
    assert new.logits[0] is new.theta
    probs = label_posterior(new.theta, vd)
    for cached in (new, replace(new, logits=None)):
        peek = copy.deepcopy(cached.rngs)
        got = step_compliance(replace(cached, rngs=copy.deepcopy(cached.rngs)), vd).compliance
        for c in range(4):
            want = ref_vector_categorical(probs[c], peek[c].random(vd.n))
            assert np.array_equal(got[c], want)


def test_labels_from_cached_log_weights_equal_the_posterior():
    data, _ = simulate_dataset(DgpConfig(n=120, seed=45))
    vd = as_vector_data(data)
    state = start(vd, 45)
    tuning = gibbs._Tuning(marg_scale=0.05)
    accepted = rejected = 0
    for _ in range(30):
        new = step_theta(state, vd, PriorSpec(), "marginal_mh", tuning)
        accepted += new.theta is not state.theta
        rejected += new.theta is state.theta
        cached_theta, _, p_lower = new.logweights
        assert cached_theta is new.theta
        # the cache holds the exact conditional of the two-type units
        assert np.array_equal(p_lower[0], lower_probs(vd, label_posterior(new.theta, vd)[0]))
        # the same uniforms with and without the cached probabilities
        fresh = replace(new, logweights=None, rngs=copy.deepcopy(new.rngs))
        labelled = step_compliance(new, vd)
        assert np.array_equal(labelled.compliance, step_compliance(fresh, vd).compliance)
        state = step_impute(labelled, vd)
    assert accepted and rejected


def test_stale_log_weights_are_not_used():
    data, _ = simulate_dataset(DgpConfig(n=50, seed=46))
    vd = as_vector_data(data)
    state = start(vd, 46)
    new = step_theta(state, vd, PriorSpec(), "marginal_mh")
    other = chains_of(zero_loading_theta())
    moved = replace(new, theta=other, rngs=copy.deepcopy(new.rngs))
    u = copy.deepcopy(new.rngs[0]).uniform(size=vd.n)
    want = ref_vector_categorical(label_posterior(other, vd)[0], u)
    assert np.array_equal(step_compliance(moved, vd).compliance[0], want)


# ---------------------------------------------------------------------------
# column kernels and the two-type label layer against the row-wise reductions
# over (n, 3) of label_reference; the two must give the same floats
# ---------------------------------------------------------------------------

def ref_gamma_logpost(gnt, gat, U1, codes, coef_sd):
    n = U1.shape[0]
    logits = np.zeros((n, 3))
    logits[:, 0] = U1 @ gnt
    logits[:, 2] = U1 @ gat
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    ll = float((logits[np.arange(n), codes] - lse).sum())
    lp = -0.5 * (float(gnt @ gnt) + float(gat @ gat)) / coef_sd ** 2
    return ll + lp


# (z1, z2), (w1, w2) of the five admissible sets data can produce: {nt},
# {co}, {at}, {nt, co} and {co, at}.  Admitting nt needs w = (0, 0) and
# admitting at w = (1, 1), so no unit admits {nt, at} or {nt, co, at}, and
# _VectorData refuses a unit that admits no type.
_PATTERNS = [((1, 1), (0, 0)), ((0, 1), (0, 1)), ((0, 0), (1, 1)),
             ((0, 0), (0, 0)), ((1, 1), (1, 1))]
_LOG_WEIGHT = (st.floats(-745.0, 745.0)
               | st.sampled_from([-709.5, -700.0, -0.0, 0.0, 1e-300, 700.0, 709.5]))
_LOGIT = st.floats(-720.0, 720.0) | st.sampled_from([-700.0, 0.0, 700.0])


def patterned_data(patterns, p=1, rng=None):
    """The column view of units whose admissible sets are _PATTERNS[k] for
    k in patterns, with p covariates; covariates and cells are zeros, or
    standard normals from rng."""
    (z1, z2), (w1, w2) = np.array([_PATTERNS[k] for k in patterns]).transpose(1, 2, 0)
    n = len(patterns)

    def col(*shape):
        return np.zeros(shape) if rng is None else rng.normal(size=shape)
    return as_vector_data(Dataset(col(n, p), z1, w1, col(n), z2, w2, col(n)))


def lower_probs(vd, probs):
    """The two-type units' lower-type probabilities in (n, 3) probs."""
    return probs[..., vd.two, vd.low_two]


@st.composite
def log_weights_of_data(draw, max_rows=25):
    """Units with drawn admissible sets, rows with a single type included;
    their (n, 3) log-weights in C or F layout, drawn at the inadmissible
    types too; and those log-weights with -inf at the inadmissible types."""
    n = draw(st.integers(1, max_rows))
    vd = patterned_data(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    vals = draw(hnp.arrays(np.float64, (n, 3), elements=_LOG_WEIGHT))
    lw = np.array(vals, order=draw(st.sampled_from("CF")))
    return vd, lw, np.where(vd.consistent, lw, -np.inf)


def boundary_uniforms(draw, cum):
    """Per row of running sums: 0, a running sum, a float either side of
    one (not below 0), or a uniform draw."""
    n = cum.shape[0]
    lo = np.maximum(np.nextafter(cum, -np.inf), 0.0)
    hi = np.nextafter(cum, np.inf)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cands = np.column_stack([np.zeros(n), cum, lo, hi, rng.uniform(size=n)])
    picks = draw(st.lists(st.integers(0, cands.shape[1] - 1), min_size=n, max_size=n))
    return cands[np.arange(n), picks]


def random_theta(rng, p, gamma_nt0, gamma_at0):
    gnt = np.concatenate([[gamma_nt0], rng.normal(size=p)])
    gat = np.concatenate([[gamma_at0], rng.normal(size=p)])
    return Theta(gnt, gat, rng.normal(size=p + 4), float(rng.uniform(0.3, 3.0)),
                 rng.normal(size=p + 7), float(rng.uniform(0.3, 3.0)))


@given(log_weights_of_data())
@settings(max_examples=300, deadline=None)
def test_pair_weights_and_marginal_loglik_match_row_reductions(case):
    vd, lw, masked = case
    probs = ref_normalise(masked)
    block = np.array(ref_admissible_block(lw, vd.consistent),
                     order="F" if lw.flags.f_contiguous else "C")
    _, e, total = gibbs._pair_exp(types_first(block.copy())[:, vd.two_slice])
    assert np.array_equal(e[0] / total, lower_probs(vd, probs))
    assert np.array_equal(e[1] / total, probs[vd.two, vd.low[vd.two] + 1])
    # a one-type unit's sole type has probability exactly one, so its draw
    # is its lower type and its marginal that type's log-weight
    one = np.setdiff1d(np.arange(vd.n), vd.two)
    assert (probs[one, vd.low[one]] == 1.0).all()
    loglik, p_lower = gibbs._marginal_loglik(block, vd)
    assert loglik == ref_marginal_loglik(masked)
    assert np.array_equal(p_lower, lower_probs(vd, probs))


@given(log_weights_of_data(), st.data())
@settings(max_examples=300, deadline=None)
def test_label_draw_matches_row_cumsum(case, data):
    # inadmissible types are zero-probability columns of the row-wise
    # draw, trailing ones included; the uniforms lie in [0, 1) as the
    # sampler's do, where p_lower is exactly 1.0 if the upper weight
    # underflows, so that type is never drawn, as the row-wise cap ensures
    vd, _, masked = case
    probs = ref_normalise(masked)
    u = np.minimum(boundary_uniforms(data.draw, np.cumsum(probs, axis=1)), np.nextafter(1.0, 0.0))
    want = ref_vector_categorical(probs, u)
    got = gibbs._draw_labels(vd, lower_probs(vd, probs), u)
    assert got.dtype == np.int8
    assert np.array_equal(got, want)
    assert vd.consistent[np.arange(vd.n), got].all()


def test_label_draw_hand_rows():
    # {nt}, {at}, {nt, co}, {co, at}, {co}, {nt, co}, {co, at}: a two-type
    # unit takes its upper type iff its lower type's probability <= u
    vd = patterned_data([0, 2, 3, 4, 1, 3, 4])
    probs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5],
                      [0.0, 1.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    u = np.array([0.999, 0.0, 0.5, 0.5, 0.75, np.nextafter(1.0, 0.0), np.nextafter(0.5, 0.0)])
    got = gibbs._draw_labels(vd, lower_probs(vd, probs), u)
    assert np.array_equal(got, ref_vector_categorical(probs, u))
    assert got.tolist() == [0, 2, 1, 2, 1, 1, 1]


@pytest.mark.parametrize("lead", [(), (3,)])
def test_label_draw_without_two_type_units(lead):
    # m = 0, with and without a chain axis: (..., 0) probabilities, and
    # every unit takes its sole type
    vd = patterned_data([0, 2, 1, 0, 2])
    assert vd.two.size == 0
    u = np.random.default_rng(6).uniform(size=lead + (vd.n,))
    got = gibbs._draw_labels(vd, np.zeros(lead + (0,)), u)
    assert got.dtype == np.int8 and got.shape == lead + (vd.n,)
    probs = vd.consistent.astype(float)
    for row, ur in zip(got.reshape(-1, vd.n), u.reshape(-1, vd.n)):
        assert np.array_equal(row, ref_vector_categorical(probs, ur))
    assert got.tolist() == np.broadcast_to([0, 2, 1, 0, 2], got.shape).tolist()


def test_label_draw_broadcasts_grid_probabilities_against_sweep_uniforms():
    # grid_gibbs's shapes: (k, m) probabilities, one row per grid point,
    # against (s, 1, n) uniforms give (s, k, n) labels, entry (j, i) the
    # draw at grid point i from sweep j's uniforms; sweep 0's uniforms tie
    # grid point 0's lower-type probabilities, so those units draw upper
    vd = patterned_data([0, 3, 4, 1, 3, 2, 4])
    rng = np.random.default_rng(7)
    k, s = 3, 4
    weights = rng.uniform(0.05, 1.0, size=(k, vd.n, 3)) * vd.consistent
    probs = weights / weights.sum(axis=-1, keepdims=True)
    p_lower = lower_probs(vd, probs)
    u = rng.uniform(size=(s, 1, vd.n))
    u[0, 0, vd.two] = p_lower[0]
    got = gibbs._draw_labels(vd, p_lower, u)
    assert got.dtype == np.int8 and got.shape == (s, k, vd.n)
    for j in range(s):
        for i in range(k):
            assert np.array_equal(got[j, i], ref_vector_categorical(probs[i], u[j, 0]))
    assert np.array_equal(got[0, 0, vd.two], vd.low_two + 1)


@given(st.integers(1, 40), st.integers(1, 3), _LOGIT, _LOGIT, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_gamma_logpost_and_log_probs_match_row_reductions(n, p, g_nt, g_at, seed):
    rng = np.random.default_rng(seed)
    U1 = np.column_stack([np.ones(n), rng.normal(size=(n, p))])
    th = random_theta(rng, p, g_nt, g_at)
    lcp = compliance_log_prob_matrix(th, U1)
    assert lcp.flags.f_contiguous
    assert np.array_equal(lcp, ref_compliance_log_prob_matrix(th, U1))
    # the labels enter through the logit design summed over each stratum
    codes = rng.integers(0, 3, size=n).astype(np.int8)
    sums = (U1[codes == 0].sum(axis=0), U1[codes == 2].sum(axis=0))
    lse = logit_lse(U1 @ th.gamma_nt, U1 @ th.gamma_at)
    for coef_sd in (5.0, 0.5):
        got = gibbs._gamma_logpost(th.gamma_nt, th.gamma_at, sums, lse, coef_sd)
        want = ref_gamma_logpost(th.gamma_nt, th.gamma_at, U1, codes, coef_sd)
        assert abs(got - want) <= 1e-12 * abs(want)


@given(st.integers(1, 30), st.integers(1, 3), _LOGIT, _LOGIT, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_log_weights_match_row_reductions(n, p, g_nt, g_at, seed):
    data, _ = simulate_dataset(DgpConfig(n=n, seed=seed, p=p))
    vd = as_vector_data(data)
    th = random_theta(np.random.default_rng(seed), p, g_nt, g_at)
    cells = observed_cell_logliks(th, vd.X1, vd.w1f, vd.w2f, vd.x2, vd.y)
    assert cells.flags.f_contiguous
    lw = gibbs._log_weights(th, vd.admissible)
    assert lw.flags.f_contiguous
    want = ref_log_weights(th, vd)
    ok = ref_admissible_block(vd.consistent, vd.consistent)
    assert np.array_equal(lw[ok], ref_admissible_block(want, vd.consistent)[ok])
    loglik, p_lower = gibbs._marginal_loglik(lw, vd)
    assert np.array_equal(p_lower, lower_probs(vd, ref_normalise(want)))
    assert loglik == ref_marginal_loglik(want)


# the admissible sets of the units: no two-type unit, {nt, co} ones only,
# {co, at} ones only, and both
@pytest.mark.parametrize("sets", [(0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 3, 4)])
@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize("chains", [1, 4])
def test_pair_form_equals_the_three_type_form_at_admissible_entries(sets, p, chains):
    rng = np.random.default_rng(1000 * len(sets) + 10 * p + chains)
    vd = patterned_data(rng.choice(sets, size=257).tolist(), p, rng)
    th = Theta.from_vector(np.stack([random_theta(rng, p, *rng.normal(size=2)).to_vector()
                                     for _ in range(chains)]), p)
    lower = vd.low[vd.two]
    # the {nt, co} units first, so each row of the pairs is two segments
    assert (np.diff(lower) >= 0).all() and np.isin(lower, [0, 1]).all()
    assert sorted(vd.two.tolist()) == np.flatnonzero(vd.consistent.sum(axis=1) == 2).tolist()

    def at_pairs(m):
        return np.stack([m[:, vd.two, lower], m[:, vd.two, lower + 1]], axis=-1)

    full, u = vd.admissible, vd.pair_units
    a, b = row_dot(th.gamma_nt, vd.U1), row_dot(th.gamma_at, vd.U1)
    logits = (a, b, logit_lse(a, b))
    three = {"cells": observed_cell_logliks(th, vd.X1, vd.w1f, vd.w2f, vd.x2, vd.y),
             "probs": compliance_log_prob_matrix(th, vd.U1)}
    three["weights"] = compliance_log_prob_matrix(th, vd.U1, logits=logits) + three["cells"]
    block = {"cells": observed_cell_logliks(th, full.X1, full.w1f, full.w2f, full.x2, full.y,
                                            layout=full.layout),
             "probs": compliance_log_prob_matrix(th, full.U1, layout=full.layout),
             "weights": gibbs._log_weights(th, full, logits=[v[:, vd.order] for v in logits])}
    pair = {"cells": observed_cell_logliks(th, u.X1, u.w1f, u.w2f, u.x2, u.y, layout=u.layout),
            "probs": compliance_log_prob_matrix(th, u.U1, layout=u.layout),
            "weights": gibbs._log_weights(th, u, logits=[v[:, vd.two] for v in logits])}
    for name, got in pair.items():
        assert block[name].shape == (chains, vd.n, 2)
        assert np.array_equal(block[name], ref_admissible_block(three[name], vd.consistent)), name
        assert got.shape == (chains, vd.two.size, 2)
        assert np.array_equal(got, at_pairs(three[name])), name
    assert np.array_equal(gibbs._log_weights(th, u), pair["weights"])
    assert np.array_equal(gibbs._log_weights(th, full), block["weights"])
    # every admissible type of a unit is one of its two in the block, and
    # the two-type units' columns are a slice of the admissible gather
    ok = ref_admissible_block(vd.consistent, vd.consistent)
    assert np.array_equal(ok.sum(axis=-1), vd.consistent.sum(axis=1)[vd.order])
    assert np.array_equal(vd.order[vd.two_slice], vd.two)
    for name in ("U1", "X1", "w1f", "w2f", "x2", "y"):
        col = getattr(u, name)
        assert col.size == 0 or np.shares_memory(col, getattr(full, name)), name


@given(st.lists(st.floats(0.0, 1.0) | st.just(0.0), min_size=1, max_size=12),
       st.integers(0, 4), st.data())
@settings(max_examples=300, deadline=None)
def test_grid_draw_matches_one_row_categorical(weights, trailing_zeros, data):
    pk = np.array(weights + [0.0] * trailing_zeros)
    if pk.sum() > 0:
        pk = pk / pk.sum()
    u = boundary_uniforms(data.draw, np.cumsum(pk)[None, :])[0]
    want = int(ref_vector_categorical(pk[None, :], np.array([u]))[0])
    assert inverse_cdf_draw(pk, np.array(u)) == want


# ---------------------------------------------------------------------------
# calibration with a covariate
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_conjugate_kernel_is_calibrated_with_a_covariate():
    # simulation-based calibration at p = 1 with logit compliance: the rank
    # of each prior draw among its thinned posterior draws is uniform on
    # 0..99, for the second-period effect and the alwaystaker loading of
    # the intermediate outcome
    prior = PriorSpec(coef_sd=1.0, scale_shape=3.0, scale_rate=2.0)
    n_reps, p = 100, 1
    rng = substream(515151, "sbc-covariate", 0)
    names = theta_field_names(p)
    focal = [names.index("beta_4"), names.index("alpha_3")]
    ranks = []
    for _ in range(n_reps):
        gnt, gat = rng.normal(0, prior.coef_sd, size=(2, p + 1))
        alpha = rng.normal(0, prior.coef_sd, size=p + 4)
        beta = rng.normal(0, prior.coef_sd, size=p + 7)
        sx, sy = np.sqrt(1.0 / rng.gamma(prior.scale_shape, 1.0 / prior.scale_rate, size=2))
        true_vec = Theta(gnt, gat, alpha, float(sx), beta, float(sy)).to_vector()
        cfg = DgpConfig(n=80, seed=int(rng.integers(2 ** 63)), p=p,
                        compliance_probs=LogitCompliance(gnt, gat),
                        intermediate_coeffs=alpha, intermediate_noise_sd=float(sx),
                        outcome_coeffs=beta, outcome_noise_sd=float(sy))
        data, _ = simulate_dataset(cfg)
        res = fit(data, prior, SamplerConfig(seed=int(rng.integers(2 ** 63)), n_chains=1,
                                             n_warmup=300, n_draws=500))
        kept = res.theta[0, 4::5][:99, focal]
        ranks.append((kept < true_vec[focal]).sum(axis=0))
    counts = np.stack([np.bincount(r // 10, minlength=10) for r in np.asarray(ranks).T])
    expected = n_reps / 10
    chi2 = ((counts - expected) ** 2 / expected).sum(axis=1)
    print(f"chi-square beta_4 {chi2[0]:.2f}, alpha_3 {chi2[1]:.2f} vs 21.666; "
          f"bins {counts.tolist()}")
    # df 9, 0.99 quantile, for each focal parameter
    assert (chi2 < 21.666).all(), f"chi-square {chi2.tolist()}, bins {counts.tolist()}"
