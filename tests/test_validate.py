"""Exact enumeration, the grid sampler, and convergence diagnostics."""

import numpy as np
import pytest

from seqlate.domain import Dataset, ObservedUnit
from seqlate.errors import InvariantViolation, TooFewDraws, TooLarge
from seqlate.model import Theta
from seqlate.rng import substream
from seqlate.validate import (
    DiscreteSpec,
    config_index,
    ess,
    exact_posterior,
    grid_gibbs,
    load_golden,
    load_three_unit_fixture,
    multi_ess,
    rhat,
    run_validation_suite,
    total_variation,
)


# a column kernel producing inf - inf or 0 * inf fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def flat_theta(sigma=1.0, gamma_nt=0.0, gamma_at=0.0):
    return Theta(np.array([gamma_nt, 0.0]), np.array([gamma_at, 0.0]),
                 np.zeros(5), sigma, np.zeros(8), sigma)


def unit(z1, w1, z2, w2, x1=0.5, x2=0.1, y=0.2):
    return ObservedUnit(np.array([x1]), z1, w1, x2, z2, w2, y)


def test_exact_posterior_is_coherent():
    data, spec = load_three_unit_fixture()
    post = exact_posterior(data, spec)
    assert post.theta_probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert post.joint_probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(post.compliance_marginals.sum(axis=1), 1.0, atol=1e-12)
    assert post.late_probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= post.late_dropped_mass < 1.0
    # marginals derive from the joint
    for i in range(3):
        for c in range(3):
            mass = sum(post.joint_probs[j] for j in range(27)
                       if (j // 3 ** (2 - i)) % 3 == c)
            assert post.compliance_marginals[i, c] == pytest.approx(mass, abs=1e-12)


def test_exact_posterior_matches_committed_golden():
    data, spec = load_three_unit_fixture()
    golden = load_golden()
    post = exact_posterior(data, spec)
    assert np.abs(post.theta_probs - np.array(golden["theta_probs"])).max() < 1e-10
    assert np.abs(post.compliance_marginals
                  - np.array(golden["compliance_marginals"])).max() < 1e-10
    assert np.abs(post.joint_probs - np.array(golden["joint_probs"])).max() < 1e-10
    assert post.late_mean == pytest.approx(golden["late_mean"], abs=1e-10)
    assert post.late_dropped_mass == pytest.approx(golden["late_dropped_mass"], abs=1e-10)
    assert post.log_evidence == pytest.approx(golden["log_evidence"], abs=1e-10)


def test_exact_posterior_certain_units_get_sole_type():
    # one alwaystaker-certain unit and one nevertaker-certain unit
    data = Dataset((unit(0, 1, 1, 1), unit(1, 0, 0, 0)), 1)
    spec = DiscreteSpec((flat_theta(), flat_theta(sigma=2.0)), np.array([0.5, 0.5]))
    post = exact_posterior(data, spec)
    # excluded strata carry literally zero mass; the sole admissible one
    # absorbs everything up to normalization rounding
    assert post.compliance_marginals[0, 0] == 0.0
    assert post.compliance_marginals[0, 1] == 0.0
    assert post.compliance_marginals[0, 2] == pytest.approx(1.0, abs=1e-12)
    assert post.compliance_marginals[1, 1] == 0.0
    assert post.compliance_marginals[1, 2] == 0.0
    assert post.compliance_marginals[1, 0] == pytest.approx(1.0, abs=1e-12)
    # no complier configuration exists, so the whole mass is dropped
    assert post.late_dropped_mass == pytest.approx(1.0, abs=1e-12)
    assert np.isnan(post.late_mean)


def test_exact_posterior_flat_likelihood_recovers_prior_weights():
    # sigma so large that the data carry no information about theta, with
    # identical stratum models across the grid: theta posterior == weights
    data = Dataset((unit(0, 0, 0, 0), unit(1, 1, 1, 1)), 1)
    thetas = tuple(flat_theta(sigma=1e6, gamma_nt=g) for g in (0.0, 0.0, 0.0))
    weights = np.array([0.5, 0.3, 0.2])
    post = exact_posterior(data, DiscreteSpec(thetas, weights))
    assert np.abs(post.theta_probs - weights).max() < 1e-9


def test_exact_posterior_permutation_invariance():
    data, spec = load_three_unit_fixture()
    post = exact_posterior(data, spec)
    for perm in ((2, 0, 1), (1, 2, 0), (2, 1, 0)):
        permuted = Dataset(tuple(data.units[i] for i in perm), data.covariate_dim)
        post_p = exact_posterior(permuted, spec)
        rel = abs(post_p.log_evidence - post.log_evidence) / abs(post.log_evidence)
        assert rel < 1e-12
        assert np.abs(post_p.theta_probs - post.theta_probs).max() < 1e-12
        for new_i, old_i in enumerate(perm):
            assert np.abs(post_p.compliance_marginals[new_i]
                          - post.compliance_marginals[old_i]).max() < 1e-12


def test_exact_posterior_too_large():
    spec = DiscreteSpec((flat_theta(),), np.array([1.0]), max_units=3)
    data = Dataset(tuple(unit(0, 0, 0, 0) for _ in range(4)), 1)
    with pytest.raises(TooLarge):
        exact_posterior(data, spec)
    tight = DiscreteSpec((flat_theta(),), np.array([1.0]), budget=10)
    small = Dataset(tuple(unit(0, 0, 0, 0) for _ in range(3)), 1)
    with pytest.raises(TooLarge):
        exact_posterior(small, tight)


def test_discrete_spec_validates_weights():
    with pytest.raises(InvariantViolation):
        DiscreteSpec((flat_theta(),), np.array([0.9]))
    with pytest.raises(InvariantViolation):
        DiscreteSpec((flat_theta(), flat_theta()), np.array([1.2, -0.2]))


def test_config_index_base_three():
    assert config_index([0, 0, 0]) == 0
    assert config_index([0, 0, 1]) == 1
    assert config_index([1, 0, 0]) == 9
    assert config_index([2, 2, 2]) == 26


def test_grid_gibbs_matches_enumeration_quickly():
    data, spec = load_three_unit_fixture()
    post = exact_posterior(data, spec)
    run = grid_gibbs(data, spec, n_sweeps=30_000, seed=71)
    assert total_variation(run.joint_freq(3), post.joint_probs) < 0.05
    theta_freq = np.bincount(run.theta_idx, minlength=4) / run.theta_idx.size
    assert total_variation(theta_freq, post.theta_probs) < 0.05
    finite = run.late[np.isfinite(run.late)]
    assert abs(finite.mean() - post.late_mean) < 0.1


def test_grid_gibbs_is_deterministic():
    data, spec = load_three_unit_fixture()
    r1 = grid_gibbs(data, spec, n_sweeps=500, seed=72)
    r2 = grid_gibbs(data, spec, n_sweeps=500, seed=72)
    assert np.array_equal(r1.theta_idx, r2.theta_idx)
    assert np.array_equal(r1.config_idx, r2.config_idx)
    r3 = grid_gibbs(data, spec, n_sweeps=500, seed=73)
    assert not np.array_equal(r1.config_idx, r3.config_idx)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_rhat_iid_chains_near_one():
    rng = substream(61, "rhat-iid", 0)
    chains = [rng.standard_normal(2000) for _ in range(4)]
    r = rhat(chains)
    assert 0.99 <= r <= 1.02


def test_rhat_disjoint_chains_large():
    rng = substream(62, "rhat-bad", 0)
    chains = [rng.standard_normal(500), rng.standard_normal(500) + 10.0]
    assert rhat(chains) > 3.0


def test_rhat_identical_constant_chains_warns():
    with pytest.warns(UserWarning):
        r = rhat([np.ones(100), np.ones(100)])
    assert r == 1.0


def test_rhat_constant_but_different_chains_is_inf():
    assert rhat([np.zeros(100), np.ones(100)]) == np.inf


def test_rhat_split_detects_trend():
    # two identical trending chains: between-halves variance blows up W
    trend = np.linspace(0.0, 10.0, 1000)
    assert rhat([trend, trend]) > 1.5


def test_rhat_too_few():
    with pytest.raises(TooFewDraws):
        rhat([np.arange(10.0)])
    with pytest.raises(TooFewDraws):
        rhat([np.arange(3.0), np.arange(3.0)])


def test_ess_iid_near_n():
    rng = substream(63, "ess-iid", 0)
    x = rng.standard_normal(5000)
    assert 0.85 * 5000 <= ess(x) <= 1.5 * 5000


def test_ess_ar1_known_value():
    # AR(1) with coefficient 0.9 has correlation time (1+phi)/(1-phi) = 19,
    # so ess/n should sit near 1/19
    rng = substream(64, "ess-ar1", 0)
    n = 200_000
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0]
    for t in range(1, n):
        x[t] = 0.9 * x[t - 1] + eps[t]
    ratio = ess(x) / n
    assert ratio == pytest.approx(1.0 / 19.0, rel=0.15)


def test_ess_constant_sequence_warns():
    with pytest.warns(UserWarning):
        e = ess(np.full(100, 2.5))
    assert e == 100.0


def test_ess_antithetic_capped():
    # perfectly alternating sequence anti-correlates; the cap keeps the
    # estimate at 1.5 n
    x = np.tile([1.0, -1.0], 500)
    assert ess(x) == 1.5 * 1000


def test_ess_too_few():
    with pytest.raises(TooFewDraws):
        ess(np.arange(9.0))


def test_multi_ess_iid_chains_near_total_draws():
    rng = substream(65, "mess-iid", 0)
    chains = rng.standard_normal((4, 1000))
    assert 0.85 * 4000 <= multi_ess(chains) <= 1.5 * 4000


def test_multi_ess_offset_chains_far_below_per_chain_sum():
    # each chain mixes perfectly around its own mean, so the per-chain sum
    # reads near m*n; the chains disagree, which the pooled estimate sees
    rng = substream(66, "mess-offset", 0)
    chains = rng.standard_normal((4, 500)) + np.array([[0.0], [1.5], [3.0], [4.5]])
    per_chain = sum(ess(c) for c in chains)
    assert per_chain > 1500
    assert multi_ess(chains) < 0.02 * per_chain


def test_multi_ess_matches_ar1_correlation_time():
    rng = substream(67, "mess-ar1", 0)
    m, n = 4, 50_000
    eps = rng.standard_normal((m, n))
    x = np.empty((m, n))
    x[:, 0] = eps[:, 0]
    for t in range(1, n):
        x[:, t] = 0.9 * x[:, t - 1] + eps[:, t]
    assert multi_ess(x) / (m * n) == pytest.approx(1.0 / 19.0, rel=0.15)


def test_multi_ess_input_checks():
    with pytest.raises(TooFewDraws):
        multi_ess([np.arange(9.0), np.arange(9.0)])
    with pytest.raises(InvariantViolation):
        multi_ess([np.arange(20.0), np.arange(19.0)])
    with pytest.raises(InvariantViolation):
        multi_ess([np.r_[np.arange(19.0), np.nan]])
    with pytest.warns(UserWarning):
        assert multi_ess([np.ones(20), np.ones(20)]) == 40.0


def test_validation_suite_passes():
    results = run_validation_suite(n_sweeps=40_000, seed=81)
    for res in results:
        assert res.passed, f"{res.name}: {res.detail}"
