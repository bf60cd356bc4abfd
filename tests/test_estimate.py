"""Posterior summaries and the naive frequentist baselines."""

import numpy as np
import pytest

from seqlate.domain import Dataset
from seqlate.errors import EmptyArm, TooFewDraws
from seqlate.estimate import (
    METHODS,
    as_treated_estimate,
    compare_methods,
    itt_estimate,
    per_protocol_estimate,
    summarize_posterior,
)
from seqlate.rng import substream
from seqlate.simulate import ConstantCompliance, DgpConfig, simulate_dataset


def hand_dataset():
    """Six units with known arm means, one per column entry:
    compliers assigned (1,1) with y 2 and 4, compliers assigned (0,0) with
    y 0.5 and 1.5, an alwaystaker assigned (0,0) with y 10 and a
    nevertaker assigned (1,1) with y -10."""
    return Dataset(np.zeros((6, 1)), z1=[1, 1, 0, 0, 0, 1], w1=[1, 1, 0, 0, 1, 0],
                   x2=np.zeros(6), z2=[1, 1, 0, 0, 0, 1], w2=[1, 1, 0, 0, 1, 0],
                   y=[2.0, 4.0, 0.5, 1.5, 10.0, -10.0])


def test_itt_uses_assignment_arms():
    data = hand_dataset()
    rep = itt_estimate(data)
    # arm (1,1): y in {2, 4, -10}; arm (0,0): y in {0.5, 1.5, 10}
    assert rep.point == pytest.approx((2 + 4 - 10) / 3 - (0.5 + 1.5 + 10) / 3)
    assert rep.n_used == 6
    assert rep.method == "itt"


def test_per_protocol_drops_deviators():
    data = hand_dataset()
    rep = per_protocol_estimate(data)
    # deviators (the alwaystaker and the nevertaker) are removed entirely
    assert rep.point == pytest.approx(3.0 - 1.0)
    assert rep.n_used == 4


def test_as_treated_groups_by_receipt():
    data = hand_dataset()
    rep = as_treated_estimate(data)
    # receipt (1,1): {2, 4, 10}; receipt (0,0): {0.5, 1.5, -10}
    assert rep.point == pytest.approx((2 + 4 + 10) / 3 - (0.5 + 1.5 - 10) / 3)
    assert rep.n_used == 6


def test_custom_arms_select_other_groups():
    data = Dataset(np.zeros((3, 1)), z1=[1, 1, 0], w1=[1, 1, 0], x2=np.zeros(3),
                   z2=[0, 0, 0], w2=[0, 0, 0], y=[5.0, 7.0, 1.0])
    rep = itt_estimate(data, arms=((1, 0), (0, 0)))
    assert rep.point == pytest.approx(6.0 - 1.0)


def test_full_compliance_collapses_all_baselines():
    cfg = DgpConfig(n=500, seed=50, compliance_probs=ConstantCompliance((0.0, 1.0, 0.0)))
    data, _ = simulate_dataset(cfg)
    itt = itt_estimate(data)
    pp = per_protocol_estimate(data)
    at = as_treated_estimate(data)
    assert itt.point == pp.point == at.point
    assert itt.n_used == pp.n_used == at.n_used
    assert itt.interval == pp.interval == at.interval


def test_empty_arm_raises():
    data = Dataset(np.zeros((2, 1)), z1=[1, 1], w1=[1, 1], x2=np.zeros(2),
                   z2=[1, 1], w2=[1, 1], y=[2.0, 3.0])
    with pytest.raises(EmptyArm):
        itt_estimate(data)


def test_interval_covers_normal_mean():
    rng = substream(51, "interval", 0)
    draws = rng.normal(loc=1.7, scale=0.4, size=10_000)
    rep = summarize_posterior(draws)
    assert rep.point == pytest.approx(1.7, abs=0.02)
    lo, hi = rep.interval
    assert lo == pytest.approx(1.7 - 1.959963984540054 * 0.4, abs=0.08)
    assert hi == pytest.approx(1.7 + 1.959963984540054 * 0.4, abs=0.08)


def test_summarize_posterior_quantile_convention():
    # midpoint plotting positions: with 10 points the 2.5% quantile sits
    # below the smallest midpoint position, so it clamps to the minimum
    draws = np.arange(1.0, 11.0)
    rep = summarize_posterior(draws)
    lo, hi = rep.interval
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(10.0)
    # interior quantile interpolates between order statistics
    mid = np.quantile(draws, 0.5, method="hazen")
    assert mid == pytest.approx(5.5)


def test_summarize_posterior_drops_undefined_draws():
    draws = np.array([np.nan, 1.0, 2.0, 3.0, np.nan])
    rep = summarize_posterior(draws)
    assert rep.point == pytest.approx(2.0)
    assert rep.n_used == 3


def test_summarize_posterior_too_few():
    with pytest.raises(TooFewDraws):
        summarize_posterior([1.0])
    with pytest.raises(TooFewDraws):
        summarize_posterior([np.nan, np.nan, 1.0])


def test_compare_methods_table():
    cfg = DgpConfig(n=400, seed=52, compliance_probs=ConstantCompliance((0.2, 0.6, 0.2)))
    data, truth = simulate_dataset(cfg)
    rng = substream(52, "cmp", 0)
    draws = rng.normal(truth.true_late, 0.1, size=500)
    rows = compare_methods(data, draws, true_late=truth.true_late)
    assert [r["method"] for r in rows] == list(METHODS)
    for r in rows:
        assert set(r) == {"method", "point", "lo", "hi", "n_used", "bias"}
        assert r["bias"] == pytest.approx(r["point"] - truth.true_late)
    bayes = rows[0]
    assert abs(bayes["bias"]) < 0.05
    rows_nb = compare_methods(data, draws)
    assert all("bias" not in r for r in rows_nb)
