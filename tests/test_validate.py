"""Exact enumeration, the grid sampler, and convergence diagnostics."""

import itertools

import numpy as np
import pytest

from seqlate.domain import Dataset
from seqlate.errors import (
    DimensionMismatch,
    InconsistentUnit,
    InvalidConfig,
    InvariantViolation,
    TooFewDraws,
    TooLarge,
)
from seqlate.gibbs import as_vector_data, marginal_score
from seqlate.model import Theta
from seqlate.rng import substream
from seqlate.simulate import DgpConfig, simulate_dataset
from seqlate.validate import (
    _complier_contrasts,
    _grid_block_len,
    _grid_conditional,
    _grid_factors,
    DiscreteSpec,
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

from label_reference import ref_normalise, ref_vector_categorical


# a column kernel producing inf - inf or 0 * inf fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def flat_theta(sigma=1.0, gamma_nt=0.0, gamma_at=0.0):
    return Theta(np.array([gamma_nt, 0.0]), np.array([gamma_at, 0.0]),
                 np.zeros(5), sigma, np.zeros(8), sigma)


def histories(z1, w1, z2, w2):
    """Units with the given assignment and receipt columns, and x1 = 0.5,
    x2 = 0.1, y = 0.2."""
    n = len(z1)
    return Dataset(np.full((n, 1), 0.5), z1, w1, np.full(n, 0.1), z2, w2, np.full(n, 0.2))


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
    data = histories(z1=[0, 1], w1=[1, 0], z2=[1, 0], w2=[1, 0])
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
    data = histories(z1=[0, 1], w1=[0, 1], z2=[0, 1], w2=[0, 1])
    thetas = tuple(flat_theta(sigma=1e6, gamma_nt=g) for g in (0.0, 0.0, 0.0))
    weights = np.array([0.5, 0.3, 0.2])
    post = exact_posterior(data, DiscreteSpec(thetas, weights))
    assert np.abs(post.theta_probs - weights).max() < 1e-9


def test_exact_posterior_permutation_invariance():
    data, spec = load_three_unit_fixture()
    post = exact_posterior(data, spec)
    for perm in ((2, 0, 1), (1, 2, 0), (2, 1, 0)):
        permuted = Dataset(**{k: v[list(perm)] for k, v in data.as_arrays().items()})
        post_p = exact_posterior(permuted, spec)
        rel = abs(post_p.log_evidence - post.log_evidence) / abs(post.log_evidence)
        assert rel < 1e-12
        assert np.abs(post_p.theta_probs - post.theta_probs).max() < 1e-12
        for new_i, old_i in enumerate(perm):
            assert np.abs(post_p.compliance_marginals[new_i]
                          - post.compliance_marginals[old_i]).max() < 1e-12


def test_exact_posterior_too_large():
    spec = DiscreteSpec((flat_theta(),), np.array([1.0]), max_units=3)
    data = histories(*np.zeros((4, 4), dtype=int))
    with pytest.raises(TooLarge):
        exact_posterior(data, spec)
    tight = DiscreteSpec((flat_theta(),), np.array([1.0]), budget=10)
    small = histories(*np.zeros((4, 3), dtype=int))
    with pytest.raises(TooLarge):
        exact_posterior(small, tight)


def test_exact_posterior_rejects_unit_no_type_explains():
    # (z1, w1, z2, w2) = (0, 1, 1, 0): took treatment unassigned, then refused it
    data = Dataset(np.zeros((1, 1)), z1=[0], w1=[1], x2=[0.0], z2=[1], w2=[0], y=[0.0])
    with pytest.raises(InconsistentUnit):
        exact_posterior(data, DiscreteSpec((flat_theta(),), np.array([1.0])))


@pytest.mark.parametrize("entry", ["exact_posterior", "grid_gibbs", "marginal_score"])
def test_covariate_dimension_mismatch_is_clean(entry):
    data, _ = load_three_unit_fixture()
    assert data.covariate_dim == 1
    th = Theta(np.zeros(3), np.zeros(3), np.zeros(6), 1.0, np.zeros(9), 1.0)
    spec = DiscreteSpec((th,), np.array([1.0]))
    vd = as_vector_data(data)
    calls = {"exact_posterior": lambda: exact_posterior(data, spec),
             "grid_gibbs": lambda: grid_gibbs(data, spec, 10, 1),
             "marginal_score": lambda: marginal_score(
                 Theta.from_vector(th.to_vector()[None], 2), vd, np.zeros((1, vd.two.size)))}
    with pytest.raises(DimensionMismatch, match="p=2"):
        calls[entry]()


def test_complier_contrasts_match_per_unit_imputation_means():
    # per unit, per contrast: observed cells as observed, a missing x2 cell at
    # its complier mean, a missing y cell at its complier mean given that x2
    data, spec = load_three_unit_fixture()
    vd = as_vector_data(data)
    cells = list(itertools.product((0, 1), repeat=2))
    for th in spec.thetas:
        a, b = th.alpha, th.beta
        for contrast in itertools.permutations(cells, 2):
            got = _complier_contrasts(th, vd, contrast)
            for i, (x1, obs_w1, obs_x2, obs_w2, obs_y) in enumerate(zip(
                    data.X1[:, 0], data.w1, data.x2, data.w2, data.y)):
                def x2_at(w1):
                    return obs_x2 if w1 == obs_w1 else a[0] + a[1] * x1 + a[2] * w1

                def y_at(w1, w2):
                    if (w1, w2) == (obs_w1, obs_w2):
                        return obs_y
                    return (b[0] + b[1] * x1 + b[2] * x2_at(w1) + b[3] * w1
                            + b[4] * w2 + b[5] * w1 * w2)
                want = y_at(*contrast[0]) - y_at(*contrast[1])
                assert got[i] == pytest.approx(want, rel=0.0, abs=1e-12)


def test_discrete_spec_validates_weights():
    with pytest.raises(InvariantViolation):
        DiscreteSpec((flat_theta(),), np.array([0.9]))
    with pytest.raises(InvariantViolation):
        DiscreteSpec((flat_theta(), flat_theta()), np.array([1.2, -0.2]))


def config_index(codes):
    """Base-3 encoding of a label configuration, unit 0 most significant:
    the index of the configuration in exact_posterior's joint_probs and in
    grid_gibbs's config_idx."""
    idx = 0
    for c in codes:
        idx = idx * 3 + int(c)
    return idx


def test_config_index_base_three():
    # the order itertools.product enumerates configurations in
    for j, codes in enumerate(itertools.product(range(3), repeat=3)):
        assert config_index(codes) == j
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


def one_sweep_grid_conditional(L, log_w, codes):
    """The grid conditional given one label configuration, as one sweep of
    the chain computes it."""
    lw_k = log_w + L[:, np.arange(codes.size), codes].sum(axis=1)
    pk = np.exp(lw_k - lw_k.max())
    pk /= pk.sum()
    return pk


def reference_grid_gibbs(data, spec, n_sweeps, seed, contrast=((1, 1), (0, 0))):
    """The grid chain one sweep at a time, its labels drawn row by row over
    all three types: the trace grid_gibbs must reproduce."""
    vd = as_vector_data(data)
    n, k = vd.n, len(spec.thetas)
    L, diffs = _grid_factors(vd, spec, contrast)
    label_probs = [ref_normalise(L[ki]) for ki in range(k)]
    log_w = np.log(spec.weights)
    rng = substream(seed, "grid-gibbs", 0)
    mask = vd.consistent.astype(float)
    codes = ref_vector_categorical(mask / mask.sum(axis=1, keepdims=True), rng.uniform(size=n))
    powers = 3 ** np.arange(n - 1, -1, -1)
    theta_idx = np.empty(n_sweeps, dtype=np.int64)
    config_idx = np.empty(n_sweeps, dtype=np.int64)
    late = np.empty(n_sweeps)
    for s in range(n_sweeps):
        pk = one_sweep_grid_conditional(L, log_w, codes)
        last = k - 1 - int(np.argmax(pk[::-1] > 0.0))
        u = rng.uniform(size=1)[0]
        ki = min(int(np.searchsorted(np.cumsum(pk), u, side="right")), last)
        codes = ref_vector_categorical(label_probs[ki], rng.uniform(size=n))
        theta_idx[s] = ki
        config_idx[s] = int(codes @ powers)
        co = codes == 1
        late[s] = float(diffs[ki, co].mean()) if co.any() else float("nan")
    return theta_idx, config_idx, late


def pinning_case(name):
    data, spec = load_three_unit_fixture()
    if name == "permuted":
        data = Dataset(**{k: v[[2, 0, 1]] for k, v in data.as_arrays().items()})
    elif name == "nine-units":
        # nine units and nine grid points: sums past the eight terms from
        # which numpy adds a contiguous axis pairwise
        data, _ = simulate_dataset(DgpConfig(n=9, seed=4))
        spec = DiscreteSpec(spec.thetas[:3] * 3, np.arange(1, 10) / 45)
    return data, spec


@pytest.mark.parametrize("name", ["fixture", "permuted", "nine-units"])
def test_grid_gibbs_blocks_reproduce_the_sweep_by_sweep_trace(name):
    data, spec = pinning_case(name)
    block = _grid_block_len(len(spec.thetas), len(data))
    assert block > 1
    runs = list(enumerate([1, block - 1, block, block + 1, 3 * block + 7], start=20260820))
    if name == "fixture":
        runs.append((20260819, 20_000))
    for seed, n_sweeps in runs:
        run = grid_gibbs(data, spec, n_sweeps, seed)
        theta_idx, config_idx, late = reference_grid_gibbs(data, spec, n_sweeps, seed)
        assert np.array_equal(run.theta_idx, theta_idx)
        assert np.array_equal(run.config_idx, config_idx)
        # bit for bit, NaN positions included
        assert np.array_equal(run.late.view(np.int64), late.view(np.int64))
    # the 3-unit chains visit configurations without compliers, so the
    # comparison covers NaN contrasts
    assert name == "nine-units" or np.isnan(late).any()


@pytest.mark.parametrize("name", ["fixture", "nine-units"])
def test_grid_conditional_matches_one_configuration_at_a_time(name):
    # the trace hides float differences that flip no draw; the conditional
    # itself must carry the one-sweep floats too
    data, spec = pinning_case(name)
    vd = as_vector_data(data)
    L, _ = _grid_factors(vd, spec, ((1, 1), (0, 0)))
    log_w = np.log(spec.weights)
    rng = np.random.default_rng(5)
    codes = np.array([[rng.choice(np.flatnonzero(ok)) for ok in vd.consistent]
                      for _ in range(200)], dtype=np.int8)
    got = _grid_conditional([np.ascontiguousarray(L[:, :, c].T) for c in range(3)],
                            log_w, codes)
    for cfg, pk in zip(codes, got):
        assert np.array_equal(pk, one_sweep_grid_conditional(L, log_w, cfg))


@pytest.mark.parametrize("n_sweeps", [0, -5])
def test_grid_gibbs_rejects_fewer_than_one_sweep(n_sweeps):
    data, spec = load_three_unit_fixture()
    with pytest.raises(InvalidConfig, match="n_sweeps: must be >= 1"):
        grid_gibbs(data, spec, n_sweeps, 1)
    with pytest.raises(InvalidConfig, match="n_sweeps: must be >= 1"):
        run_validation_suite(n_sweeps=n_sweeps)


def test_grid_gibbs_refuses_configurations_past_int64():
    data, _ = simulate_dataset(DgpConfig(n=40, seed=4))
    _, spec = load_three_unit_fixture()
    with pytest.raises(TooLarge, match="overflow int64"):
        grid_gibbs(data, spec, 10, 1)


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
