"""Density and prior computations against independent scipy oracles."""

import itertools

import numpy as np
import pytest
from scipy import stats

from seqlate.domain import (
    COMPLIANCE_ORDER,
    ComplianceType,
    Dataset,
    consistent_types,
    realized_treatment,
)
from seqlate.errors import DimensionMismatch, InconsistentUnit, InvariantViolation
from seqlate.gibbs import (
    ChainState,
    _log_weights,
    _marginal_loglik,
    _marginal_logpost,
    as_vector_data,
    marginal_score,
    step_compliance,
)
from seqlate.model import (
    PriorSpec,
    Theta,
    compliance_log_prob_matrix,
    log_prior,
    logit_design,
    observed_cell_logliks,
    theta_dim,
    theta_field_names,
)
from seqlate.rng import substream
from seqlate.simulate import DgpConfig, simulate_dataset

from label_reference import ref_admissible_block

# a column kernel producing inf - inf or 0 * inf fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

NT = ComplianceType.NEVERTAKER
CO = ComplianceType.COMPLIER
AT = ComplianceType.ALWAYSTAKER
AT_CODE = COMPLIANCE_ORDER.index(AT)


def random_theta(rng, p=1, scale=1.0):
    return Theta(
        gamma_nt=rng.normal(0, scale, p + 1),
        gamma_at=rng.normal(0, scale, p + 1),
        alpha=rng.normal(0, scale, p + 4),
        sigma_x=float(rng.uniform(0.5, 2.0)),
        beta=rng.normal(0, scale, p + 7),
        sigma_y=float(rng.uniform(0.5, 2.0)),
    )


def test_theta_vector_round_trip():
    rng = substream(11, "theta-rt", 0)
    th = random_theta(rng, p=2)
    vec = th.to_vector()
    assert vec.shape == (theta_dim(2),)
    back = Theta.from_vector(vec, p=2)
    assert back == th
    # the golden fixture's layout: each field by name, as plain lists
    fields = ("gamma_nt", "gamma_at", "alpha", "sigma_x", "beta", "sigma_y")
    assert Theta.from_dict({k: np.asarray(getattr(th, k)).tolist() for k in fields}) == th


def test_theta_with_a_chain_axis_holds_one_theta_per_row():
    rng = substream(60, "chain-axis", 0)
    rows = [random_theta(rng, p=2) for _ in range(3)]
    vec = np.stack([th.to_vector() for th in rows])
    th = Theta.from_vector(vec, 2)
    assert th.p == 2 and th.gamma_nt.shape == (3, 3) and th.sigma_y.shape == (3,)
    assert np.array_equal(th.to_vector(), vec)
    assert th.coefficients().shape == (3, 2 * 3 + 6 + 9)
    assert list(log_prior(th, PriorSpec())) == [log_prior(r, PriorSpec()) for r in rows]
    # the kernels give each row the floats they give its theta alone
    data, _ = simulate_dataset(DgpConfig(n=40, p=2, seed=60))
    vd = as_vector_data(data)
    batched = (compliance_log_prob_matrix(th, vd.U1),
               observed_cell_logliks(th, vd.X1, vd.w1f, vd.w2f, vd.x2, vd.y))
    for c, r in enumerate(rows):
        assert np.array_equal(batched[0][c], compliance_log_prob_matrix(r, vd.U1))
        assert np.array_equal(batched[1][c],
                              observed_cell_logliks(r, vd.X1, vd.w1f, vd.w2f, vd.x2, vd.y))
    # fields are read-only views; the caller's arrays stay writable
    g = np.zeros((2, 3))
    th2 = Theta(g, g.copy(), np.zeros((2, 6)), np.ones(2), np.zeros((2, 9)), np.ones(2))
    assert g.flags.writeable and not th2.gamma_nt.flags.writeable
    with pytest.raises(InvariantViolation, match="sigma_x"):
        Theta(g, g, np.zeros((2, 6)), np.array([1.0, -1.0]), np.zeros((2, 9)), np.ones(2))
    with pytest.raises(InvariantViolation, match="alpha"):
        Theta(g, g, np.zeros((3, 6)), np.ones(2), np.zeros((2, 9)), np.ones(2))


def test_theta_field_names_layout():
    names = theta_field_names(1)
    assert names[0] == "gamma_nt_0"
    assert names[-1] == "sigma_y"
    assert len(names) == theta_dim(1)
    assert names.index("sigma_x") == 2 * 2 + 5
    # one name per vector slot, no duplicates
    assert len(set(names)) == len(names)


def one_unit(x1, z1, w1, x2, z2, w2, y) -> Dataset:
    return Dataset(np.reshape(x1, (1, -1)), [z1], [w1], [x2], [z2], [w2], [y])


def test_compliance_prob_is_softmax():
    rng = substream(12, "softmax", 0)
    for _ in range(50):
        th = random_theta(rng)
        U1 = logit_design(rng.normal(size=(20, 1)))
        logits = np.column_stack([U1 @ th.gamma_nt, np.zeros(20), U1 @ th.gamma_at])
        expected = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        got = np.exp(compliance_log_prob_matrix(th, U1))
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(got.sum(axis=1), 1.0, atol=1e-12)


def test_compliance_prob_shift_invariance():
    # adding a constant to every logit row cannot change the probabilities,
    # and huge logits must not overflow
    th = Theta(np.array([800.0, 0.0]), np.array([-800.0, 0.0]),
               np.zeros(5), 1.0, np.zeros(8), 1.0)
    probs = np.exp(compliance_log_prob_matrix(th, logit_design(np.zeros((1, 1)))))[0]
    assert np.all(np.isfinite(probs))
    assert probs[0] > 0.999
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_compliance_prob_dimension_mismatch():
    th = Theta(np.zeros(2), np.zeros(2), np.zeros(5), 1.0, np.zeros(8), 1.0)
    with pytest.raises(DimensionMismatch):
        compliance_log_prob_matrix(th, logit_design(np.array([[0.1, 0.2]])))


@pytest.mark.parametrize("c,z,w,expected", [
    (NT, 0, 0, 1), (NT, 1, 0, 1), (NT, 0, 1, 0), (NT, 1, 1, 0),
    (CO, 0, 0, 1), (CO, 1, 1, 1), (CO, 0, 1, 0), (CO, 1, 0, 0),
    (AT, 0, 1, 1), (AT, 1, 1, 1), (AT, 0, 0, 0), (AT, 1, 0, 0),
])
def test_treatment_lik_point_masses(c, z, w, expected):
    # the same (z, w) in both periods: the admissibility mask is the
    # single-period point mass of receiving w under assignment z
    vd = as_vector_data(one_unit([0.0], z, w, 0.0, z, w, 0.0))
    assert vd.consistent[0, COMPLIANCE_ORDER.index(c)] == bool(expected)


@pytest.mark.parametrize("z1,w1,z2,w2", list(itertools.product((0, 1), repeat=4)))
def test_admissibility_mask_matches_consistent_types(z1, w1, z2, w2):
    data = one_unit([0.0], z1, w1, 0.0, z2, w2, 0.0)
    want = consistent_types(z1, w1, z2, w2)
    if not want:
        with pytest.raises(InconsistentUnit):
            as_vector_data(data)
        return
    vd = as_vector_data(data)
    got = {c for c, ok in zip(COMPLIANCE_ORDER, vd.consistent[0]) if ok}
    assert got == want
    # the sampler's form: the lower admissible code, and the upper one for
    # a unit in two; no unit admits both nt and at, so every set is {low}
    # or {low, low + 1}, the latter holding co
    assert vd.two.tolist() in ([], [0])
    low, two = int(vd.low[0]), vd.two.size
    assert got == {COMPLIANCE_ORDER[c] for c in range(low, low + 1 + two)}
    assert not two or CO in got


def test_cell_logliks_match_scipy():
    rng = substream(13, "scipy-oracle", 0)
    for _ in range(100):
        p = int(rng.integers(0, 3))
        th = random_theta(rng, p=p)
        n = 10
        X1 = rng.normal(size=(n, p))
        w1, w2 = rng.integers(2, size=n), rng.integers(2, size=n)
        x2, y = rng.normal(size=n), rng.normal(size=n)
        got = observed_cell_logliks(th, X1, w1.astype(float), w2.astype(float), x2, y)
        for code, c in enumerate(COMPLIANCE_ORDER):
            at = np.full(n, 1.0 if c is AT else 0.0)
            nt = np.full(n, 1.0 if c is NT else 0.0)
            mu_x = np.column_stack([np.ones(n), X1, w1, at, nt]) @ th.alpha
            mu_y = np.column_stack([np.ones(n), X1, x2, w1, w2, w1 * w2, at, nt]) @ th.beta
            want = (stats.norm.logpdf(x2, loc=mu_x, scale=th.sigma_x)
                    + stats.norm.logpdf(y, loc=mu_y, scale=th.sigma_y))
            assert np.allclose(got[:, code], want, rtol=0.0, atol=1e-12)


def test_unit_marginal_matches_longdouble_brute_force():
    rng = substream(14, "marginal-oracle", 0)
    ld = np.longdouble
    for _ in range(100):
        th = random_theta(rng)
        z1, z2 = int(rng.integers(2)), int(rng.integers(2))
        # choose receipts consistent with some stratum
        c_true = [NT, CO, AT][int(rng.integers(3))]
        w1, w2 = realized_treatment(c_true, z1), realized_treatment(c_true, z2)
        x1, x2, y = float(rng.normal()), float(rng.normal()), float(rng.normal())
        unit = as_vector_data(one_unit([x1], z1, w1, x2, z2, w2, y))
        got = _marginal_loglik(_log_weights(th, unit.admissible), unit)[0]
        a, b = th.alpha.astype(ld), th.beta.astype(ld)
        logits = [th.gamma_nt.astype(ld) @ [ld(1), ld(x1)], ld(0),
                  th.gamma_at.astype(ld) @ [ld(1), ld(x1)]]
        norm = sum(np.exp(v) for v in logits)
        total = ld(0)
        for code, c in enumerate((NT, CO, AT)):
            if c not in consistent_types(z1, w1, z2, w2):
                continue
            at, nt = ld(c is AT), ld(c is NT)
            mu_x = a[0] + a[1] * ld(x1) + a[2] * w1 + a[3] * at + a[4] * nt
            mu_y = (b[0] + b[1] * ld(x1) + b[2] * ld(x2) + b[3] * w1 + b[4] * w2
                    + b[5] * w1 * w2 + b[6] * at + b[7] * nt)
            dens = ld(1)
            for v, mu, sd in ((ld(x2), mu_x, ld(th.sigma_x)), (ld(y), mu_y, ld(th.sigma_y))):
                dens *= np.exp(-0.5 * ((v - mu) / sd) ** 2) / (sd * np.sqrt(2 * ld(np.pi)))
            total += np.exp(logits[code]) / norm * dens
        want = float(np.log(total))
        assert got == pytest.approx(want, abs=1e-12)


def test_marginal_gives_excluded_strata_no_weight():
    # no reader reads the log-weight of a type a unit's receipts rule out:
    # a one-type unit's other row of the admissible block raised to 700
    # moves neither the marginal nor the drawn labels, and an
    # assigned-control unit that took treatment in both periods is an
    # alwaystaker for certain, whose marginal is the alwaystaker term alone
    vd = as_vector_data(simulate_dataset(DgpConfig(n=200, seed=16))[0])
    unit = as_vector_data(one_unit([0.2], 0, 1, 0.4, 1, 1, 1.0))
    rng = substream(16, "excluded-strata", 0)
    ok = ref_admissible_block(vd.consistent, vd.consistent)
    assert (~ok).any() and ok.any(axis=-1).all()
    for th in (random_theta(rng), random_theta(rng, scale=3.0)):
        chain = Theta.from_vector(th.to_vector()[None], th.p)
        lw = _log_weights(chain, vd.admissible).copy()
        assert np.all(np.isfinite(lw[0, ok]))
        raised = lw.copy()
        raised[0, ~ok] = 700.0
        (got, p_lower), (want, p_want) = (_marginal_loglik(w.copy(), vd) for w in (raised, lw))
        assert got == want and np.array_equal(p_lower, p_want)
        labels = [step_compliance(ChainState(chain, vd.low[None], (substream(16, "chain", 0),),
                                             logweights=(chain, None, p)), vd).compliance
                  for p in (p_want, p_lower)]
        assert np.array_equal(labels[0], labels[1])
        at_term = (compliance_log_prob_matrix(th, unit.U1)
                   + observed_cell_logliks(th, unit.X1, unit.w1f, unit.w2f,
                                           unit.x2, unit.y))[0, AT_CODE]
        assert _marginal_loglik(_log_weights(th, unit.admissible), unit)[0] == at_term


def test_log_prior_matches_scipy():
    rng = substream(15, "prior-oracle", 0)
    prior = PriorSpec(coef_sd=5.0, scale_shape=2.0, scale_rate=1.0)
    for _ in range(20):
        th = random_theta(rng)
        want = 0.0
        for block in (th.gamma_nt, th.gamma_at, th.alpha, th.beta):
            want += stats.norm.logpdf(block, scale=prior.coef_sd).sum()
        want += stats.invgamma.logpdf(th.sigma_x ** 2, prior.scale_shape,
                                      scale=prior.scale_rate)
        want += stats.invgamma.logpdf(th.sigma_y ** 2, prior.scale_shape,
                                      scale=prior.scale_rate)
        assert log_prior(th, prior) == pytest.approx(float(want), abs=1e-10)


def test_log_prior_coef_sd_doubling_at_origin():
    # at zero coefficients the Normal terms are pure normalization, so
    # doubling the sd must subtract exactly log 2 per coefficient
    th = Theta(np.zeros(2), np.zeros(2), np.zeros(5), 1.0, np.zeros(8), 1.0)
    n_coef = 2 + 2 + 5 + 8
    lp1 = log_prior(th, PriorSpec(coef_sd=1.0))
    lp2 = log_prior(th, PriorSpec(coef_sd=2.0))
    assert lp1 - lp2 == pytest.approx(n_coef * np.log(2.0), abs=1e-10)


def assert_score_matches_finite_differences(vd, th, eps=1e-6, tol=1e-5):
    """marginal_score at th, as a one-chain theta, against central finite
    differences of the label-marginalized log likelihood."""
    vec = th.to_vector()
    one = Theta.from_vector(vec[None], th.p)
    grad = marginal_score(one, vd, _marginal_logpost(one, vd, PriorSpec())[1])
    assert grad.shape == (1, vec.shape[0])

    def loglik(v):
        return _marginal_loglik(_log_weights(Theta.from_vector(v, th.p), vd.admissible), vd)[0]

    for j in range(vec.shape[0]):
        lo, hi = vec.copy(), vec.copy()
        lo[j] -= eps
        hi[j] += eps
        assert grad[0, j] == pytest.approx((loglik(hi) - loglik(lo)) / (2 * eps), abs=tol)


def test_marginal_gradient_matches_finite_differences():
    # p = 3 and many units: every block of the score, beyond criterion 9's
    # one-unit, p = 1 points
    data, _ = simulate_dataset(DgpConfig(n=200, seed=17, p=3))
    rng = substream(16, "grad-fd", 0)
    assert_score_matches_finite_differences(as_vector_data(data),
                                            random_theta(rng, p=3, scale=0.5))


def test_marginal_gradient_without_covariates_matches_finite_differences():
    data, _ = simulate_dataset(DgpConfig(n=200, seed=18, p=0))
    rng = substream(16, "grad-fd-p0", 0)
    assert_score_matches_finite_differences(as_vector_data(data),
                                            random_theta(rng, p=0, scale=0.5))


def test_marginal_gradient_without_two_type_units_matches_finite_differences():
    # every (z1, w1, z2, w2) pattern that admits exactly one type: w = (0, 0)
    # off z = (0, 0) is a nevertaker, w = (1, 1) off z = (1, 1) an
    # alwaystaker, and w = z at (0, 1) or (1, 0) a complier
    z1, w1, z2, w2 = np.array([(1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0), (0, 0, 1, 1),
                               (1, 1, 0, 0), (0, 1, 0, 1), (1, 1, 0, 1), (0, 1, 1, 1)]).T
    rng = substream(16, "grad-fd-one-type", 0)
    n = z1.size
    vd = as_vector_data(Dataset(rng.normal(size=(n, 1)), z1, w1, rng.normal(size=n),
                                z2, w2, rng.normal(size=n)))
    assert vd.two.size == 0 and set(vd.low.tolist()) == {0, 1, 2}
    assert_score_matches_finite_differences(vd, random_theta(rng, scale=0.5))


def test_marginal_score_rows_equal_each_chain_scored_alone():
    data, _ = simulate_dataset(DgpConfig(n=300, seed=19, p=2))
    vd = as_vector_data(data)
    rng = substream(16, "score-lockstep", 0)
    vecs = np.stack([random_theta(rng, p=2).to_vector() for _ in range(3)])
    th = Theta.from_vector(vecs, 2)
    p_lower = _marginal_logpost(th, vd, PriorSpec())[1]
    score = marginal_score(th, vd, p_lower)
    assert score.shape == vecs.shape
    for c in range(3):
        alone = marginal_score(Theta.from_vector(vecs[c:c + 1], 2), vd, p_lower[c:c + 1])
        assert np.array_equal(score[c], alone[0])
