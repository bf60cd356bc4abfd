"""Data-generating process: determinism, frequencies, counterfactual noise."""

import hashlib

import numpy as np
import pytest

from seqlate.dataio import write_dataset_csv, write_truth_json
from seqlate.domain import (
    COMPLIANCE_CODE,
    COMPLIANCE_ORDER,
    ComplianceType,
    classify_compliance,
    consistent_types,
    realized_treatment,
)
from seqlate.errors import InvalidConfig, NoCompliers, UndefinedCell
from seqlate.model import dots
from seqlate.simulate import (
    ConstantAssignment,
    ConstantCompliance,
    DgpConfig,
    LogitAssignment,
    LogitCompliance,
    simulate_dataset,
    true_sample_late,
    true_sample_sate,
)

NT = ComplianceType.NEVERTAKER
CO = ComplianceType.COMPLIER


def test_simulation_is_deterministic():
    cfg = DgpConfig(n=50, seed=123)
    d1, g1 = simulate_dataset(cfg)
    d2, g2 = simulate_dataset(cfg)
    assert d1 == d2
    assert np.array_equal(g1.codes, g2.codes)
    assert g1.true_late == g2.true_late
    d3, _ = simulate_dataset(DgpConfig(n=50, seed=124))
    assert d3 != d1


def test_all_compliers_track_assignment():
    cfg = DgpConfig(n=40, seed=7, compliance_probs=ConstantCompliance((0.0, 1.0, 0.0)))
    data, gt = simulate_dataset(cfg)
    assert (gt.codes == COMPLIANCE_CODE[CO]).all()
    assert np.array_equal(data.w1, data.z1)
    assert np.array_equal(data.w2, data.z2)


def test_all_nevertakers_never_treated():
    cfg = DgpConfig(n=40, seed=8, compliance_probs=ConstantCompliance((1.0, 0.0, 0.0)))
    data, gt = simulate_dataset(cfg)
    assert (gt.codes == COMPLIANCE_CODE[NT]).all()
    assert not data.w1.any() and not data.w2.any()
    with pytest.raises(NoCompliers):
        true_sample_late(gt)
    assert np.isnan(gt.true_late)


def test_receipts_match_labels_everywhere():
    cfg = DgpConfig(n=200, seed=9, compliance_probs=ConstantCompliance((0.3, 0.4, 0.3)))
    data, gt = simulate_dataset(cfg)
    for code, z1, w1, z2, w2 in zip(*(v.tolist() for v in (gt.codes, data.z1, data.w1,
                                                          data.z2, data.w2))):
        c = COMPLIANCE_ORDER[code]
        assert w1 == realized_treatment(c, z1)
        assert w2 == realized_treatment(c, z2)
        assert c is classify_compliance(realized_treatment(c, 0), realized_treatment(c, 1))
        assert c in consistent_types(z1, w1, z2, w2)


def test_stratum_and_assignment_frequencies():
    cfg = DgpConfig(n=50_000, seed=10,
                    compliance_probs=ConstantCompliance((0.2, 0.6, 0.2)),
                    assignment_probs=ConstantAssignment(0.4, 0.7))
    data, gt = simulate_dataset(cfg)
    n = len(data)
    freq = np.bincount(gt.codes, minlength=3) / n
    assert np.abs(freq - np.array([0.2, 0.6, 0.2])).max() < 0.01
    z1 = data.z1.mean()
    z2 = data.z2.mean()
    assert abs(z1 - 0.4) < 0.01
    assert abs(z2 - 0.7) < 0.01


def test_logit_compliance_tracks_covariate():
    # strong positive loading on x1 for nevertakers: high-x1 units should
    # be nevertakers far more often than low-x1 units
    cfg = DgpConfig(n=20_000, seed=11,
                    compliance_probs=LogitCompliance(np.array([0.0, 3.0]),
                                                     np.array([0.0, 0.0])))
    data, gt = simulate_dataset(cfg)
    x1 = data.X1[:, 0]
    is_nt = gt.codes == COMPLIANCE_CODE[NT]
    assert is_nt[x1 > 1.0].mean() > 0.7
    assert is_nt[x1 < -1.0].mean() < 0.1


def test_logit_assignment_tracks_covariate():
    cfg = DgpConfig(n=20_000, seed=12,
                    assignment_probs=LogitAssignment(np.array([0.0, 2.5]),
                                                     np.array([0.0, 0.0])))
    data, _ = simulate_dataset(cfg)
    x1, z1, z2 = data.X1[:, 0], data.z1, data.z2
    assert z1[x1 > 1.0].mean() > 0.85
    assert z1[x1 < -1.0].mean() < 0.15
    assert abs(z2.mean() - 0.5) < 0.02


def test_assignment_flip_keeps_potential_outcomes():
    # common random numbers: moving every unit from never-assigned to
    # always-assigned must leave each unit's potential table untouched
    base = dict(n=60, seed=13, compliance_probs=ConstantCompliance((0.2, 0.6, 0.2)),
                all_cells=True)
    _, gt0 = simulate_dataset(DgpConfig(assignment_probs=ConstantAssignment(0.0, 0.0), **base))
    _, gt1 = simulate_dataset(DgpConfig(assignment_probs=ConstantAssignment(1.0, 1.0), **base))
    assert np.array_equal(gt0.codes, gt1.codes)
    assert np.array_equal(gt0.x2_cells, gt1.x2_cells)
    assert np.array_equal(gt0.y_cells, gt1.y_cells)
    assert gt0.true_late == gt1.true_late


def test_true_sample_late_hand_case():
    # constant unit effect 2.0: outcome depends on w2 only, no noise
    cfg = DgpConfig(n=30, seed=14,
                    compliance_probs=ConstantCompliance((0.0, 1.0, 0.0)),
                    intermediate_coeffs=np.array([0.0, 0.0, 0.0, 0.0, 0.0]),
                    intermediate_noise_sd=1e-12,
                    outcome_coeffs=np.array([1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0]),
                    outcome_noise_sd=1e-12)
    _, gt = simulate_dataset(cfg)
    assert gt.true_late == pytest.approx(2.0, abs=1e-9)
    assert true_sample_late(gt) == pytest.approx(2.0, abs=1e-9)


def test_true_sample_late_through_intermediate_channel():
    # w1 moves x2 by 1.5, x2 moves y by 0.8, plus w1 and w1*w2 direct terms:
    # contrast (1,1) vs (0,0) is 0.8 * 1.5 + 0.3 + 0.25 + 0.6 = 2.35
    cfg = DgpConfig(n=25, seed=15,
                    compliance_probs=ConstantCompliance((0.0, 1.0, 0.0)),
                    intermediate_coeffs=np.array([0.2, 0.0, 1.5, 0.0, 0.0]),
                    intermediate_noise_sd=1e-12,
                    outcome_coeffs=np.array([0.1, 0.0, 0.8, 0.3, 0.25, 0.6, 0.0, 0.0]),
                    outcome_noise_sd=1e-12)
    _, gt = simulate_dataset(cfg)
    assert gt.true_late == pytest.approx(0.8 * 1.5 + 0.3 + 0.25 + 0.6, abs=1e-9)


def test_true_sample_sate_needs_all_cells():
    cfg = DgpConfig(n=20, seed=16, compliance_probs=ConstantCompliance((0.4, 0.2, 0.4)))
    _, gt = simulate_dataset(cfg)
    first = int(np.argmax(gt.codes != COMPLIANCE_CODE[CO]))
    label = COMPLIANCE_ORDER[gt.codes[first]].value
    with pytest.raises(UndefinedCell, match=f"^unit {first}: .* for a {label} unit$"):
        true_sample_sate(gt)
    cfg_all = DgpConfig(n=20, seed=16, all_cells=True,
                        compliance_probs=ConstantCompliance((0.4, 0.2, 0.4)))
    _, gt_all = simulate_dataset(cfg_all)
    assert np.isfinite(true_sample_sate(gt_all))


def test_true_sample_sate_constant_effect():
    # with stratum shifts acting only through intercept-like terms, a pure
    # w2 effect of 1.25 is the same for every unit, so the all-unit and
    # complier-only averages coincide
    cfg = DgpConfig(n=30, seed=17, all_cells=True,
                    compliance_probs=ConstantCompliance((0.3, 0.4, 0.3)),
                    intermediate_coeffs=np.array([0.0, 0.0, 0.0, 0.7, -0.7]),
                    intermediate_noise_sd=1e-10,
                    outcome_coeffs=np.array([0.5, 0.0, 0.0, 0.0, 1.25, 0.0, 2.0, -2.0]),
                    outcome_noise_sd=1e-10)
    _, gt = simulate_dataset(cfg)
    assert true_sample_sate(gt) == pytest.approx(1.25, abs=1e-8)
    assert true_sample_late(gt) == pytest.approx(1.25, abs=1e-8)


def test_all_cells_mode_respects_observables():
    # the two modes must produce identical observed datasets for a seed
    cfg_a = DgpConfig(n=40, seed=18, compliance_probs=ConstantCompliance((0.3, 0.4, 0.3)))
    cfg_b = DgpConfig(n=40, seed=18, all_cells=True,
                      compliance_probs=ConstantCompliance((0.3, 0.4, 0.3)))
    da, _ = simulate_dataset(cfg_a)
    db, _ = simulate_dataset(cfg_b)
    assert da == db


@pytest.mark.parametrize("kwargs,field", [
    (dict(n=0, seed=1), "n"),
    (dict(n=10, seed=-1), "seed"),
    (dict(n=10, seed=1, p=-1), "p"),
    (dict(n=10, seed=1, intermediate_noise_sd=-1.0), "intermediate_noise_sd"),
    (dict(n=10, seed=1, outcome_noise_sd=0.0), "outcome_noise_sd"),
    (dict(n=10, seed=1, intermediate_coeffs=np.zeros(3)), "intermediate_coeffs"),
    (dict(n=10, seed=1, outcome_coeffs=np.zeros(9)), "outcome_coeffs"),
])
def test_dgp_config_names_offending_field(kwargs, field):
    with pytest.raises(InvalidConfig, match=field):
        DgpConfig(**kwargs)


def test_compliance_spec_validation():
    with pytest.raises(InvalidConfig, match="compliance_probs"):
        ConstantCompliance((0.5, 0.4, 0.2))
    with pytest.raises(InvalidConfig, match="compliance_probs"):
        ConstantCompliance((-0.1, 0.6, 0.5))
    with pytest.raises(InvalidConfig, match="assignment_probs"):
        ConstantAssignment(1.5, 0.5)
    with pytest.raises(InvalidConfig, match="compliance_probs"):
        DgpConfig(n=5, seed=1, p=2,
                  compliance_probs=LogitCompliance(np.zeros(2), np.zeros(2)))


def test_constant_specs_are_hashable_dataclass_defaults():
    # Python >= 3.11 rejects unhashable dataclass defaults as mutable, so the
    # constant specs used as DgpConfig defaults must hash consistently with __eq__.
    cfg = DgpConfig(n=1, seed=0)
    assert cfg.compliance_probs == ConstantCompliance((0.2, 0.6, 0.2))
    assert cfg.assignment_probs == ConstantAssignment(0.5, 0.5)

    a, b = ConstantCompliance((0.2, 0.6, 0.2)), ConstantCompliance([0.2, 0.6, 0.2])
    assert a == b and hash(a) == hash(b)
    assert a != ConstantCompliance((0.6, 0.2, 0.2))

    c, d = ConstantAssignment(0.5, 0.5), ConstantAssignment(1 / 2, 0.5)
    assert c == d and hash(c) == hash(d)
    assert c != ConstantAssignment(0.5, 0.4)
    assert len({a, b, c, d}) == 2


# Output digests of the simulator, pinned so that a rewrite of how cells are
# computed must reproduce every existing dataset and sidecar byte for byte.
_LARGE_N_LOGIT = (np.array([-1.0, 0.5, -0.3, 0.2]), np.array([-1.2, -0.4, 0.3, 0.5]))
_PINNED_CONFIGS = {
    "p0-all-cells": (
        dict(n=300, seed=21, p=0, all_cells=True,
             compliance_probs=ConstantCompliance((0.3, 0.4, 0.3))),
        "7843ddcb00aea097f0a4340873901fe287ea27f4e8e92440e016cc6b446f7046",
        "5298d98dda983164d3ba82827938817c6a7b64204520c5e9738c030affd2bf50"),
    "p1-constant": (
        dict(n=300, seed=22, p=1, compliance_probs=ConstantCompliance((0.25, 0.5, 0.25)),
             assignment_probs=ConstantAssignment(0.4, 0.6)),
        "1aa115fba2ae434df006274b9ee57b31d6a044599a2ef3a79687fbad119eb8e3",
        "8a2e95988d2a7e81e233cea013f1e20eedec1f8fb75ac5f0224a61fb83cfe8d5"),
    "p3-logit-compliance": (
        dict(n=2000, seed=23, p=3, compliance_probs=LogitCompliance(*_LARGE_N_LOGIT)),
        "fcd6d17696226669e6ed9080284fefbcb05eeeabbb8a8085fda64a1f20998bb3",
        "945c949f7fd63b261d974763eb53da7190e0b0eb79a9e41d08f7560895bd2adb"),
    "p2-logit-assignment": (
        dict(n=300, seed=24, p=2,
             assignment_probs=LogitAssignment(np.array([0.2, 1.5, -0.7]),
                                              np.array([-0.3, -0.6, 1.1]))),
        "19e3707a795c1cf1bbba207bef02334ffb66276f0c4a2d61aaa1d9492a418f48",
        "0a9807e5f26626c2a58f210a7bb2f43d521c62b32e5ec37e15ae2307b01b0064"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_CONFIGS))
def test_simulated_files_are_pinned(name, tmp_path):
    kwargs, data_digest, truth_digest = _PINNED_CONFIGS[name]
    data, truth = simulate_dataset(DgpConfig(**kwargs))
    write_dataset_csv(data, tmp_path / "dataset.csv")
    write_truth_json(truth, tmp_path / "dataset.truth.json")
    sha = lambda f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
    assert (sha("dataset.csv"), sha("dataset.truth.json")) == (data_digest, truth_digest)


@pytest.mark.parametrize("p", range(6))
def test_batched_row_dot_matches_per_row_dot(p):
    # model.dots, the simulator's per-unit x1 @ a for all rows at once; plain
    # X @ a, einsum and (X * a).sum(1) may round differently in the last bit
    rng = np.random.default_rng(p)
    X = rng.standard_normal((500, p))
    a = rng.standard_normal(p) * 3.0
    want = np.array([x @ a for x in X])
    assert np.array_equal(dots(X, a), want)
