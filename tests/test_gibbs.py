"""Sampler blocks: exact label conditionals, imputation, kernels, chains."""

import copy
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

import seqlate.gibbs as gibbs
from seqlate.domain import ComplianceType, Dataset, ObservedUnit
from seqlate.errors import (
    InconsistentUnit,
    InvalidConfig,
    NoCompliersInDraw,
    NumericalOverflow,
)
from seqlate.gibbs import (
    ChainState,
    SamplerConfig,
    _draw_ridge,
    _draw_variance,
    as_vector_data,
    compliance_posterior,
    fit,
    init_state,
    late_draw,
    run_chain,
    step_compliance,
    step_impute,
    step_theta,
)
from seqlate.model import PriorSpec, Theta, compliance_log_prob_matrix, observed_cell_logliks
from seqlate.rng import substream
from seqlate.simulate import ConstantCompliance, DgpConfig, simulate_dataset
from seqlate.validate import _grid_categorical

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


def one_unit_dataset(z1, w1, z2, w2):
    return Dataset((ObservedUnit(np.array([0.3]), z1, w1, 0.6, z2, w2, 1.1),), 1)


def test_label_posterior_equal_densities_split_half():
    # nevertaker and complier explain an untreated control unit equally well
    # when the stratum probabilities are uniform: exactly (0.5, 0.5, 0)
    probs = compliance_posterior(zero_loading_theta(), one_unit_dataset(0, 0, 0, 0))
    assert probs[0, 2] == 0.0
    assert probs[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert probs[0, 1] == pytest.approx(0.5, abs=1e-15)


def test_label_posterior_prior_odds_carry_through():
    # nevertaker prior odds 1:3 against the complier, equal densities:
    # posterior must be (0.25, 0.75, 0)
    th = zero_loading_theta(gamma_nt=(np.log(1.0 / 3.0), 0.0))
    probs = compliance_posterior(th, one_unit_dataset(0, 0, 0, 0))
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
        probs = compliance_posterior(th, one_unit_dataset(0, 1, 1, 1))
        assert probs[0].tolist() == [0.0, 0.0, 1.0]
        # untreated while assigned treatment in period 2: nevertaker for sure
        probs = compliance_posterior(th, one_unit_dataset(0, 0, 1, 0))
        assert probs[0].tolist() == [1.0, 0.0, 0.0]


def test_label_posterior_rows_sum_to_one():
    data, _ = simulate_dataset(DgpConfig(n=100, seed=22))
    th = zero_loading_theta()
    probs = compliance_posterior(th, data)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert probs.min() >= 0.0


def test_label_posterior_is_permutation_equivariant():
    rng = substream(23, "perm", 0)
    for trial in range(20):
        data, _ = simulate_dataset(DgpConfig(n=30, seed=1000 + trial))
        th = Theta(rng.normal(size=2), rng.normal(size=2), rng.normal(size=5),
                   float(rng.uniform(0.5, 2)), rng.normal(size=8),
                   float(rng.uniform(0.5, 2)))
        probs = compliance_posterior(th, data)
        perm = rng.permutation(len(data))
        data_perm = Dataset(tuple(data.units[i] for i in perm), 1)
        probs_perm = compliance_posterior(th, data_perm)
        assert np.array_equal(probs[perm], probs_perm)


def test_vector_data_rejects_impossible_unit():
    unit = ObservedUnit.__new__(ObservedUnit)
    object.__setattr__(unit, "x1", np.array([0.0]))
    for name, val in (("z1", 0), ("w1", 1), ("z2", 1), ("w2", 0),
                      ("x2", 0.0), ("y", 0.0)):
        object.__setattr__(unit, name, val)
    with pytest.raises(InconsistentUnit, match="unit 0"):
        as_vector_data(Dataset.__new__(Dataset).__class__((unit,), 1))


def test_step_compliance_respects_admissibility():
    data, _ = simulate_dataset(DgpConfig(n=200, seed=24))
    vd = as_vector_data(data)
    state = init_state(vd, substream(24, "chain", 0))
    for _ in range(5):
        state = step_compliance(state, vd)
        assert vd.consistent[np.arange(vd.n), state.compliance].all()


def test_step_impute_bookkeeping():
    data, _ = simulate_dataset(DgpConfig(n=150, seed=25,
                                         compliance_probs=ConstantCompliance((0.3, 0.4, 0.3))))
    vd = as_vector_data(data)
    state = init_state(vd, substream(25, "chain", 0))
    state = step_impute(state, vd)
    rows = np.arange(vd.n)
    # observed cells are copied bit for bit
    assert np.array_equal(state.x2_cells[rows, vd.w1], vd.x2)
    assert np.array_equal(state.y_cells[rows, vd.obs_ycol], vd.y)
    for i in rows:
        if state.compliance[i] == 1:     # complier: full table
            assert np.isfinite(state.x2_cells[i]).all()
            assert np.isfinite(state.y_cells[i]).all()
        else:                            # nt / at: only the observed cells
            assert np.isfinite(state.x2_cells[i]).sum() == 1
            assert np.isfinite(state.y_cells[i]).sum() == 1


def test_step_impute_is_centered_on_model_means():
    data, _ = simulate_dataset(DgpConfig(n=60, seed=26,
                                         compliance_probs=ConstantCompliance((0.0, 1.0, 0.0))))
    vd = as_vector_data(data)
    th = zero_loading_theta(sigma=1e-8)
    state = init_state(vd, substream(26, "chain", 0))
    state = ChainState(th, np.full(vd.n, 1, dtype=np.int8), state.x2_cells,
                       state.y_cells, 0, state.rng)
    state = step_impute(state, vd)
    p = 1
    for i in range(vd.n):
        w1_mis = 1 - vd.w1[i]
        mu_x = float(th.alpha @ np.concatenate([[1.0], vd.X1[i], [w1_mis, 0.0, 0.0]]))
        assert state.x2_cells[i, w1_mis] == pytest.approx(mu_x, abs=1e-6)
        for (a, b) in ((0, 0), (0, 1), (1, 0), (1, 1)):
            col = 2 * a + b
            if col == vd.obs_ycol[i]:
                continue
            x2v = state.x2_cells[i, a]
            mu_y = float(th.beta @ np.concatenate(
                [[1.0], vd.X1[i], [x2v, a, b, a * b, 0.0, 0.0]]))
            assert state.y_cells[i, col] == pytest.approx(mu_y, abs=1e-6)


def test_late_draw_hand_case():
    th = zero_loading_theta()
    x2 = np.array([[0.0, 1.0], [0.0, 1.0], [0.5, np.nan]])
    y = np.array([[1.0, 0.0, 0.0, 4.0],
                  [0.0, 0.0, 0.0, 1.0],
                  [2.0, np.nan, np.nan, np.nan]])
    state = ChainState(th, np.array([1, 1, 0], dtype=np.int8), x2, y, 0,
                       substream(27, "chain", 0))
    # compliers contribute y(1,1) - y(0,0): (4-1) and (1-0); the nevertaker
    # is excluded
    assert late_draw(state) == pytest.approx(2.0)
    # y(0,1) - y(0,0): (0-1) and (0-0)
    assert late_draw(state, contrast=((0, 1), (0, 0))) == pytest.approx(-0.5)
    state_none = ChainState(th, np.array([0, 0, 2], dtype=np.int8), x2, y, 0,
                            state.rng)
    with pytest.raises(NoCompliersInDraw):
        late_draw(state_none)


def test_ridge_draw_with_no_rows_recovers_prior():
    rng = substream(28, "ridge-prior", 0)
    draws = np.array([_draw_ridge(np.zeros((0, 3)), np.zeros(0), 1.0, 5.0, rng)
                      for _ in range(5000)])
    assert abs(draws.mean()) < 0.25
    assert np.abs(draws.std(axis=0) - 5.0).max() < 0.25


def test_variance_draw_with_no_rows_recovers_prior():
    rng = substream(29, "var-prior", 0)
    prior = PriorSpec(scale_shape=2.0, scale_rate=1.0)
    draws = np.array([_draw_variance(np.zeros(0), prior, rng) for _ in range(5000)])
    ks = stats.kstest(draws, lambda v: stats.invgamma.cdf(v, 2.0, scale=1.0))
    assert ks.statistic < 0.05


def test_ridge_draw_concentrates_on_least_squares():
    rng = substream(30, "ridge-data", 0)
    D = rng.normal(size=(2000, 3))
    coef = np.array([1.0, -2.0, 0.5])
    resp = D @ coef + 0.1 * rng.standard_normal(2000)
    draws = np.array([_draw_ridge(D, resp, 0.1, 5.0, rng) for _ in range(200)])
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
    cfg = SamplerConfig(seed=5, n_chains=1, n_warmup=50, n_draws=60, theta_update=mode)
    d1 = run_chain(data, PriorSpec(), cfg, chain_index=0)
    d2 = run_chain(data, PriorSpec(), cfg, chain_index=0)
    assert len(d1) == 60
    for a, b in zip(d1, d2):
        assert a.theta == b.theta
        assert (a.late == b.late) or (np.isnan(a.late) and np.isnan(b.late))
    d3 = run_chain(data, PriorSpec(), cfg, chain_index=1)
    assert any(a.theta != b.theta for a, b in zip(d1, d3))


def test_run_chain_reports_failing_sweep(monkeypatch):
    data, _ = simulate_dataset(DgpConfig(n=20, seed=34))

    def boom(state, vd):
        raise NoCompliersInDraw("boom")

    # step_compliance only runs inside the sweep loop, so the re-raise must
    # carry the sweep number and keep the error type
    monkeypatch.setattr(gibbs, "step_compliance", boom)
    cfg = SamplerConfig(seed=6, n_chains=1, n_warmup=2, n_draws=2)
    with pytest.raises(NoCompliersInDraw, match="sweep 1: boom"):
        run_chain(data, PriorSpec(), cfg)


def test_run_chain_requires_seed():
    data, _ = simulate_dataset(DgpConfig(n=20, seed=35))
    with pytest.raises(InvalidConfig, match="seed"):
        run_chain(data, PriorSpec(), SamplerConfig(seed=None, n_warmup=1, n_draws=1))


def test_run_chain_invariants_hold_throughout():
    data, _ = simulate_dataset(DgpConfig(n=60, seed=36))
    cfg = SamplerConfig(seed=7, n_chains=1, n_warmup=30, n_draws=30)
    draws = run_chain(data, PriorSpec(), cfg, check_invariants=True)
    assert all(np.isfinite(d.theta.sigma_y) for d in draws)


@pytest.mark.parametrize("mode", ["conjugate_gibbs", "marginal_mh"])
def test_step_theta_changes_theta(mode):
    data, _ = simulate_dataset(DgpConfig(n=50, seed=37))
    vd = as_vector_data(data)
    state = init_state(vd, substream(37, "chain", 0))
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
    state = init_state(vd, substream(38, "chain", 0))
    with pytest.raises(InvalidConfig):
        step_theta(state, vd, PriorSpec(), mode="hamiltonian")


def test_fit_shapes_and_determinism():
    data, _ = simulate_dataset(DgpConfig(n=60, seed=39))
    cfg = SamplerConfig(seed=8, n_chains=2, n_warmup=40, n_draws=50)
    r1 = fit(data, PriorSpec(), cfg)
    r2 = fit(data, PriorSpec(), cfg)
    assert r1.late_matrix().shape == (2, 50)
    assert r1.theta_matrix().shape == (2, 50, len(r1.theta_names()))
    lm1, lm2 = r1.late_matrix(), r2.late_matrix()
    assert np.array_equal(lm1, lm2, equal_nan=True)
    assert np.array_equal(r1.theta_matrix(), r2.theta_matrix())


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
    beta0 = res.theta_matrix()[0, :, res.theta_names().index("beta_0")]
    arr = data.as_arrays()
    D = np.column_stack([np.ones(len(data)), arr["X1"][:, 0], arr["x2"],
                         arr["w1"], arr["w2"], arr["w1"] * arr["w2"]])
    ols0 = np.linalg.lstsq(D, arr["y"], rcond=None)[0][0]
    assert beta0.std() < 0.05
    assert abs(beta0.mean() - ols0) < 0.03


# ---------------------------------------------------------------------------
# sweep workspace: stacked regression rows and the shared log-weight matrix
# ---------------------------------------------------------------------------

def _reference_rows(state, vd):
    """The stacked regression rows built unit by unit: observed rows first,
    then each complier's counterfactual x2 row, then per y cell in
    (00, 01, 10, 11) order each complier for whom that cell is missing."""
    c = state.compliance
    x_rows, x_resp, y_rows, y_resp = [], [], [], []
    for i in range(vd.n):
        at, nt = float(c[i] == 2), float(c[i] == 0)
        x_rows.append([1.0, *vd.X1[i], vd.w1[i], at, nt])
        x_resp.append(vd.x2[i])
        y_rows.append([1.0, *vd.X1[i], vd.x2[i], vd.w1[i], vd.w2[i],
                       vd.w1[i] * vd.w2[i], at, nt])
        y_resp.append(vd.y[i])
    co = [i for i in range(vd.n) if c[i] == 1]
    for i in co:
        w1_mis = 1 - vd.w1[i]
        x_rows.append([1.0, *vd.X1[i], w1_mis, 0.0, 0.0])
        x_resp.append(state.x2_cells[i, w1_mis])
    for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for i in co:
            if vd.obs_ycol[i] == 2 * a + b:
                continue
            y_rows.append([1.0, *vd.X1[i], state.x2_cells[i, a], a, b, a * b, 0.0, 0.0])
            y_resp.append(state.y_cells[i, 2 * a + b])
    return (np.array(x_rows), np.array(x_resp), np.array(y_rows), np.array(y_resp))


def _state_rows(state):
    c = state.compliance
    at, nt = c == 2, c == 0
    return state.x2_rows.regression(at, nt) + state.y_rows.regression(at, nt)


@pytest.mark.parametrize("p", [1, 3])
def test_stacked_rows_match_unit_by_unit_rows(p):
    data, _ = simulate_dataset(DgpConfig(n=40, p=p, seed=41))
    vd = as_vector_data(data)
    state = init_state(vd, substream(41, "chain", 0))
    for _ in range(4):
        state = step_theta(state, vd, PriorSpec())
        state = step_impute(step_compliance(state, vd), vd)
        assert 0 < state.n_compliers() < vd.n
        for got, want in zip(_state_rows(state), _reference_rows(state, vd)):
            assert np.array_equal(got, want)


def test_step_theta_builds_rows_for_a_state_without_them():
    data, _ = simulate_dataset(DgpConfig(n=60, seed=42))
    vd = as_vector_data(data)
    state = init_state(vd, substream(42, "chain", 0))
    state = step_impute(step_compliance(step_theta(state, vd, PriorSpec()), vd), vd)
    bare = ChainState(state.theta, state.compliance, state.x2_cells, state.y_cells,
                      state.iter, copy.deepcopy(state.rng))
    from_bare = step_theta(bare, vd, PriorSpec())
    from_workspace = step_theta(state, vd, PriorSpec())
    assert from_bare.theta == from_workspace.theta
    for got, want in zip(_state_rows(from_bare), _reference_rows(state, vd)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("mode", ["conjugate_gibbs", "marginal_mh"])
def test_step_theta_returns_a_new_state(mode):
    data, _ = simulate_dataset(DgpConfig(n=50, seed=43))
    vd = as_vector_data(data)
    state = init_state(vd, substream(43, "chain", 0))
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


def test_labels_from_cached_log_weights_equal_the_posterior():
    data, _ = simulate_dataset(DgpConfig(n=120, seed=45))
    vd = as_vector_data(data)
    state = init_state(vd, substream(45, "chain", 0))
    tuning = gibbs._Tuning(marg_scale=0.05)
    accepted = rejected = 0
    for _ in range(30):
        new = step_theta(state, vd, PriorSpec(), "marginal_mh", tuning)
        accepted += new.theta is not state.theta
        rejected += new.theta is state.theta
        cached_theta, lw = new.logweights
        assert cached_theta is new.theta
        probs = compliance_posterior(new.theta, vd)
        assert np.array_equal(gibbs._normalise(lw), probs)
        # the same uniforms with and without the cached matrix
        fresh = replace(new, logweights=None, rng=copy.deepcopy(new.rng))
        labelled = step_compliance(new, vd)
        assert np.array_equal(labelled.compliance, step_compliance(fresh, vd).compliance)
        state = step_impute(labelled, vd)
    assert accepted and rejected


def test_stale_log_weights_are_not_used():
    data, _ = simulate_dataset(DgpConfig(n=50, seed=46))
    vd = as_vector_data(data)
    state = init_state(vd, substream(46, "chain", 0))
    new = step_theta(state, vd, PriorSpec(), "marginal_mh")
    other = zero_loading_theta()
    moved = replace(new, theta=other, rng=copy.deepcopy(new.rng))
    u = copy.deepcopy(new.rng).uniform(size=vd.n)
    want = gibbs._vector_categorical(compliance_posterior(other, vd), u)
    assert np.array_equal(step_compliance(moved, vd).compliance, want)


@pytest.mark.parametrize("mode", ["conjugate_gibbs", "marginal_mh"])
def test_invariant_checks_do_not_change_draws(mode):
    data, _ = simulate_dataset(DgpConfig(n=70, seed=47))
    cfg = SamplerConfig(seed=11, n_chains=1, n_warmup=30, n_draws=40, theta_update=mode)
    plain = run_chain(data, PriorSpec(), cfg)
    checked = run_chain(data, PriorSpec(), cfg, check_invariants=True)
    for a, b in zip(plain, checked):
        assert a.theta == b.theta
        assert a.n_compliers == b.n_compliers
        assert np.array_equal(a.late, b.late, equal_nan=True)


# ---------------------------------------------------------------------------
# column kernels against the row-wise reductions over (n, 3) they replaced;
# the two must give the same floats
# ---------------------------------------------------------------------------

def ref_compliance_log_prob_matrix(theta, U1):
    n = U1.shape[0]
    logits = np.column_stack([U1 @ theta.gamma_nt, np.zeros(n), U1 @ theta.gamma_at])
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    return logits - lse


def ref_log_weights(theta, vd):
    lw = ref_compliance_log_prob_matrix(theta, vd.U1)
    lw = lw + np.ascontiguousarray(
        observed_cell_logliks(theta, vd.X1, vd.w1f, vd.w2f, vd.x2, vd.y))
    lw[~vd.consistent] = -np.inf
    return lw


def ref_normalise(lw):
    m = lw.max(axis=1, keepdims=True)
    w = np.exp(lw - m)
    return w / w.sum(axis=1, keepdims=True)


def ref_marginal_loglik(lw):
    m = lw.max(axis=1)
    tot = m + np.log(np.exp(lw - m[:, None]).sum(axis=1))
    return float(tot.sum())


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


def ref_vector_categorical(probs, u):
    cum = np.cumsum(probs, axis=1)
    idx = (cum <= u[:, None]).sum(axis=1)
    lastpos = probs.shape[1] - 1 - np.argmax((probs > 0.0)[:, ::-1], axis=1)
    return np.minimum(idx, lastpos).astype(np.int8)


# every nonempty set of admissible types, as a row mask over (nt, co, at)
_ADMISSIBLE = [m for m in itertools.product([False, True], repeat=3) if any(m)]
_LOG_WEIGHT = (st.floats(-745.0, 745.0)
               | st.sampled_from([-709.5, -700.0, -0.0, 0.0, 1e-300, 700.0, 709.5]))
_LOGIT = st.floats(-720.0, 720.0) | st.sampled_from([-700.0, 0.0, 700.0])


@st.composite
def masked_log_weights(draw, max_rows=25):
    """(n, 3) log-weights, -inf where a row's type is inadmissible, in C or
    F layout; rows with a single admissible type included."""
    n = draw(st.integers(1, max_rows))
    vals = draw(hnp.arrays(np.float64, (n, 3), elements=_LOG_WEIGHT))
    mask = np.array(draw(st.lists(st.sampled_from(_ADMISSIBLE), min_size=n, max_size=n)))
    return np.array(np.where(mask, vals, -np.inf), order=draw(st.sampled_from("CF")))


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


@given(masked_log_weights())
@settings(max_examples=300, deadline=None)
def test_normalise_and_marginal_loglik_match_row_reductions(lw):
    probs = gibbs._normalise(lw)
    assert probs.flags.f_contiguous
    assert np.array_equal(probs, ref_normalise(lw))
    assert gibbs._marginal_loglik(lw) == ref_marginal_loglik(lw)


@given(masked_log_weights(), st.data())
@settings(max_examples=300, deadline=None)
def test_vector_categorical_matches_row_cumsum(lw, data):
    # masked types are zero-probability columns, trailing ones included
    probs = ref_normalise(lw)
    u = boundary_uniforms(data.draw, np.cumsum(probs, axis=1))
    want = ref_vector_categorical(probs, u)
    for layout in (probs, np.asfortranarray(probs)):
        got = gibbs._vector_categorical(layout, u)
        assert got.dtype == np.int8
        assert np.array_equal(got, want)
    assert (probs[np.arange(probs.shape[0]), want] > 0.0).all()


def test_vector_categorical_hand_rows():
    probs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0],
                      [0.0, 0.5, 0.5], [0.25, 0.5, 0.25], [0.5, 0.5, 0.0]])
    u = np.array([0.999, 0.0, 0.5, 0.5, 0.75, 1.0])
    assert np.array_equal(gibbs._vector_categorical(probs, u), ref_vector_categorical(probs, u))
    assert gibbs._vector_categorical(probs, u).tolist() == [0, 2, 1, 2, 2, 1]


@given(st.integers(1, 40), st.integers(1, 3), _LOGIT, _LOGIT, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_gamma_logpost_and_log_probs_match_row_reductions(n, p, g_nt, g_at, seed):
    rng = np.random.default_rng(seed)
    U1 = np.column_stack([np.ones(n), rng.normal(size=(n, p))])
    th = random_theta(rng, p, g_nt, g_at)
    lcp = compliance_log_prob_matrix(th, U1)
    assert lcp.flags.f_contiguous
    assert np.array_equal(lcp, ref_compliance_log_prob_matrix(th, U1))
    codes = rng.integers(0, 3, size=n).astype(np.int8)
    for coef_sd in (5.0, 0.5):
        assert (gibbs._gamma_logpost(th.gamma_nt, th.gamma_at, U1, codes, coef_sd)
                == ref_gamma_logpost(th.gamma_nt, th.gamma_at, U1, codes, coef_sd))


@given(st.integers(1, 30), st.integers(1, 3), _LOGIT, _LOGIT, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_log_weights_match_row_reductions(n, p, g_nt, g_at, seed):
    data, _ = simulate_dataset(DgpConfig(n=n, seed=seed, p=p))
    vd = as_vector_data(data)
    th = random_theta(np.random.default_rng(seed), p, g_nt, g_at)
    cells = observed_cell_logliks(th, vd.X1, vd.w1f, vd.w2f, vd.x2, vd.y)
    assert cells.flags.f_contiguous
    lw = gibbs._log_weights(th, vd)
    assert lw.flags.f_contiguous
    want = ref_log_weights(th, vd)
    assert np.array_equal(lw, want)
    assert (np.isneginf(lw) == ~vd.consistent).all()
    assert np.array_equal(gibbs._normalise(lw), ref_normalise(want))
    assert gibbs._marginal_loglik(lw) == ref_marginal_loglik(want)


@given(st.lists(st.floats(0.0, 1.0) | st.just(0.0), min_size=1, max_size=12),
       st.integers(0, 4), st.data())
@settings(max_examples=300, deadline=None)
def test_grid_draw_matches_one_row_categorical(weights, trailing_zeros, data):
    pk = np.array(weights + [0.0] * trailing_zeros)
    if pk.sum() > 0:
        pk = pk / pk.sum()
    u = boundary_uniforms(data.draw, np.cumsum(pk)[None, :])[0]
    want = int(ref_vector_categorical(pk[None, :], np.array([u]))[0])
    assert _grid_categorical(pk, u) == want
