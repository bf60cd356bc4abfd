"""Density and prior computations against independent scipy oracles."""

import numpy as np
import pytest
from scipy import stats

from seqlate.domain import ComplianceType, ObservedUnit
from seqlate.errors import DimensionMismatch, InconsistentUnit
from seqlate.model import (
    PriorSpec,
    Theta,
    compliance_log_prob,
    compliance_prob,
    density_eval_trace,
    intermediate_loglik,
    log_prior,
    outcome_loglik,
    theta_dim,
    theta_field_names,
    treatment_lik,
    unit_marginal_grad,
    unit_marginal_loglik,
)
from seqlate.rng import substream

# a column kernel producing inf - inf or 0 * inf fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

NT = ComplianceType.NEVERTAKER
CO = ComplianceType.COMPLIER
AT = ComplianceType.ALWAYSTAKER


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
    assert Theta.from_dict(th.to_dict()) == th


def test_theta_field_names_layout():
    names = theta_field_names(1)
    assert names[0] == "gamma_nt_0"
    assert names[-1] == "sigma_y"
    assert len(names) == theta_dim(1)
    assert names.index("sigma_x") == 2 * 2 + 5
    # one name per vector slot, no duplicates
    assert len(set(names)) == len(names)


def test_compliance_prob_is_softmax():
    rng = substream(12, "softmax", 0)
    for _ in range(50):
        th = random_theta(rng)
        x1 = rng.normal(size=1)
        u = np.concatenate([[1.0], x1])
        logits = np.array([float(th.gamma_nt @ u), 0.0, float(th.gamma_at @ u)])
        expected = np.exp(logits) / np.exp(logits).sum()
        got = compliance_prob(th, x1)
        assert np.allclose(got, expected, atol=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)


def test_compliance_prob_shift_invariance():
    # adding a constant to every logit row cannot change the probabilities,
    # and huge logits must not overflow
    th = Theta(np.array([800.0, 0.0]), np.array([-800.0, 0.0]),
               np.zeros(5), 1.0, np.zeros(8), 1.0)
    probs = compliance_prob(th, np.array([0.0]))
    assert np.all(np.isfinite(probs))
    assert probs[0] > 0.999
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_compliance_prob_dimension_mismatch():
    th = Theta(np.zeros(2), np.zeros(2), np.zeros(5), 1.0, np.zeros(8), 1.0)
    with pytest.raises(DimensionMismatch):
        compliance_log_prob(th, np.array([0.1, 0.2]))


@pytest.mark.parametrize("c,z,w,expected", [
    (NT, 0, 0, 1), (NT, 1, 0, 1), (NT, 0, 1, 0), (NT, 1, 1, 0),
    (CO, 0, 0, 1), (CO, 1, 1, 1), (CO, 0, 1, 0), (CO, 1, 0, 0),
    (AT, 0, 1, 1), (AT, 1, 1, 1), (AT, 0, 0, 0), (AT, 1, 0, 0),
])
def test_treatment_lik_point_masses(c, z, w, expected):
    assert treatment_lik(c, z, w) == expected


def test_cell_logliks_match_scipy():
    rng = substream(13, "scipy-oracle", 0)
    for _ in range(100):
        p = int(rng.integers(0, 3))
        th = random_theta(rng, p=p)
        c = [NT, CO, AT][int(rng.integers(3))]
        x1 = rng.normal(size=p)
        w1, w2 = int(rng.integers(2)), int(rng.integers(2))
        x2, y = float(rng.normal()), float(rng.normal())
        at = 1.0 if c is AT else 0.0
        nt = 1.0 if c is NT else 0.0
        mu_x = float(th.alpha @ np.concatenate([[1.0], x1, [w1, at, nt]]))
        got_x = intermediate_loglik(th, c, x1, w1, x2)
        want_x = stats.norm.logpdf(x2, loc=mu_x, scale=th.sigma_x)
        assert got_x == pytest.approx(want_x, abs=1e-12)
        mu_y = float(th.beta @ np.concatenate([[1.0], x1, [x2, w1, w2, w1 * w2, at, nt]]))
        got_y = outcome_loglik(th, c, x1, x2, w1, w2, y)
        want_y = stats.norm.logpdf(y, loc=mu_y, scale=th.sigma_y)
        assert got_y == pytest.approx(want_y, abs=1e-12)


def test_unit_marginal_matches_longdouble_brute_force():
    rng = substream(14, "marginal-oracle", 0)
    for _ in range(100):
        th = random_theta(rng)
        z1, z2 = int(rng.integers(2)), int(rng.integers(2))
        # choose receipts consistent with some stratum
        c_true = [NT, CO, AT][int(rng.integers(3))]
        from seqlate.domain import realized_treatment
        w1, w2 = realized_treatment(c_true, z1), realized_treatment(c_true, z2)
        unit = ObservedUnit(rng.normal(size=1), z1, w1, float(rng.normal()),
                            z2, w2, float(rng.normal()))
        got = unit_marginal_loglik(th, unit)
        total = np.longdouble(0.0)
        for c in (NT, CO, AT):
            t = treatment_lik(c, z1, w1) * treatment_lik(c, z2, w2)
            if t == 0:
                continue
            lp = (compliance_log_prob(th, unit.x1)[[NT, CO, AT].index(c)]
                  + intermediate_loglik(th, c, unit.x1, w1, unit.x2)
                  + outcome_loglik(th, c, unit.x1, unit.x2, w1, w2, unit.y))
            total += np.exp(np.longdouble(lp))
        want = float(np.log(total))
        assert got == pytest.approx(want, abs=1e-12)


def test_unit_marginal_rejects_impossible_unit():
    th = Theta(np.zeros(2), np.zeros(2), np.zeros(5), 1.0, np.zeros(8), 1.0)
    unit = ObservedUnit.__new__(ObservedUnit)
    # bypass validation to build a unit no stratum can produce
    object.__setattr__(unit, "x1", np.array([0.0]))
    for name, val in (("z1", 0), ("w1", 1), ("z2", 1), ("w2", 0),
                      ("x2", 0.0), ("y", 0.0)):
        object.__setattr__(unit, name, val)
    with pytest.raises(InconsistentUnit):
        unit_marginal_loglik(th, unit)


def test_marginal_never_evaluates_excluded_strata():
    # an assigned-control unit that took treatment is an alwaystaker for
    # certain; the nevertaker and complier densities must never be touched
    th = Theta(np.zeros(2), np.zeros(2), np.zeros(5), 1.0, np.zeros(8), 1.0)
    unit = ObservedUnit(np.array([0.2]), 0, 1, 0.4, 1, 1, 1.0)
    records = []
    with density_eval_trace(records):
        unit_marginal_loglik(th, unit)
    assert records
    assert {c for _, c in records} == {AT}


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


def test_marginal_gradient_matches_finite_differences():
    rng = substream(16, "grad-fd", 0)
    th = random_theta(rng)
    unit = ObservedUnit(rng.normal(size=1), 0, 0, 0.3, 0, 0, -0.5)
    grad = unit_marginal_grad(th, unit)
    vec = th.to_vector()
    eps = 1e-6
    for j in range(vec.shape[0]):
        lo, hi = vec.copy(), vec.copy()
        lo[j] -= eps
        hi[j] += eps
        fd = (unit_marginal_loglik(Theta.from_vector(hi, 1), unit)
              - unit_marginal_loglik(Theta.from_vector(lo, 1), unit)) / (2 * eps)
        assert grad[j] == pytest.approx(fd, abs=1e-5)
