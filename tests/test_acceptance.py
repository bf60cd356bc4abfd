"""Acceptance checks.

One test per criterion, each printing a PASS/FAIL line (visible with -s).
The checks cover: sampler-vs-enumeration agreement, exact zero-probability
handling, posterior recovery with convergent chains, simulation-based
calibration, baseline bias versus the model-based estimate, the
instrument-scaled difference of means, agreement of the two parameter
kernels, bit-level reproducibility of the command line, and analytic
gradients.
"""

import time

import numpy as np
import pytest

from seqlate.cli import main as cli_main
from seqlate.domain import Dataset
from seqlate.estimate import itt_estimate, per_protocol_estimate, as_treated_estimate
from seqlate.gibbs import (
    ChainState,
    SamplerConfig,
    _log_weights,
    _marginal_loglik,
    as_vector_data,
    fit,
    marginal_score,
    step_compliance,
)
from seqlate.model import PriorSpec, Theta, theta_field_names
from seqlate.rng import substream
from seqlate.simulate import (
    ConstantCompliance,
    DgpConfig,
    LogitCompliance,
    simulate_dataset,
)
from seqlate.validate import (
    ess,
    exact_posterior,
    grid_gibbs,
    load_three_unit_fixture,
    rhat,
    total_variation,
)

from label_reference import label_posterior


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {name} ({detail})")
    assert ok, f"criterion {num}: {name}: {detail}"


def test_criterion_1_grid_sampler_matches_enumeration():
    data, spec = load_three_unit_fixture()
    post = exact_posterior(data, spec)
    start = time.perf_counter()
    run = grid_gibbs(data, spec, n_sweeps=200_000, seed=20260819)
    elapsed = time.perf_counter() - start
    tv_marg = max(
        total_variation(run.marginal_freq(3)[i], post.compliance_marginals[i])
        for i in range(3)
    )
    tv_joint = total_variation(run.joint_freq(3), post.joint_probs)
    ok = tv_marg <= 0.02 and tv_joint <= 0.02 and elapsed < 60.0
    _report(1, "label frequencies match exact enumeration",
            ok, f"max marginal TV {tv_marg:.4f}, joint TV {tv_joint:.4f}, "
                f"tolerance 0.02, {elapsed:.1f}s")


def test_criterion_2_forbidden_strata_get_exact_zero():
    cfg = DgpConfig(n=1000, seed=271828,
                    compliance_probs=ConstantCompliance((0.25, 0.5, 0.25)))
    data, _ = simulate_dataset(cfg)
    rng = substream(271828, "criterion2-theta", 0)
    th = Theta(rng.normal(0, 0.5, 2), rng.normal(0, 0.5, 2),
               rng.normal(0, 0.5, 5), 1.3, rng.normal(0, 0.5, 8), 0.9)
    probs = label_posterior(th, data)
    z1, w1, z2, w2 = data.z1, data.w1, data.z2, data.w2
    at_certain = ((z1 == 0) & (w1 == 1)) | ((z2 == 0) & (w2 == 1))
    nt_certain = ((z1 == 1) & (w1 == 0)) | ((z2 == 1) & (w2 == 0))
    n_at, n_nt = int(at_certain.sum()), int(nt_certain.sum())
    # the sampler draws their one admissible type, whatever the uniforms
    vd = as_vector_data(data)
    chains = Theta.from_vector(np.tile(th.to_vector(), (4, 1)), 1)
    state = ChainState(chains, np.tile(vd.low, (4, 1)),
                       tuple(substream(271828, "criterion2-labels", k) for k in range(4)))
    labels = step_compliance(state, vd).compliance
    exact = bool((probs[at_certain] == [0.0, 0.0, 1.0]).all()
                 and (probs[nt_certain] == [1.0, 0.0, 0.0]).all()
                 and (labels[:, at_certain] == 2).all() and (labels[:, nt_certain] == 0).all())
    ok = exact and n_at >= 50 and n_nt >= 50
    _report(2, "certain units get probability exactly one",
            ok, f"{n_at} alwaystaker-certain and {n_nt} nevertaker-certain "
                f"units, all floating-point exact: {exact}")


def test_criterion_3_posterior_recovers_known_effect():
    cfg = DgpConfig(n=500, seed=314159,
                    compliance_probs=ConstantCompliance((0.2, 0.6, 0.2)))
    data, truth = simulate_dataset(cfg)
    res = fit(data, PriorSpec(),
              SamplerConfig(seed=2718, n_chains=4, n_warmup=1000, n_draws=2000))
    pooled = res.pooled_late()
    err = abs(pooled.mean() - truth.true_late)
    sd = pooled.std(ddof=1)
    worst_r = rhat(res.late)
    worst_name = "late"
    for j, name in enumerate(res.theta_names()):
        r = rhat(res.theta[:, :, j])
        if r > worst_r:
            worst_r, worst_name = r, name
    ok = err < 3 * sd and worst_r < 1.05
    _report(3, "posterior mean within 3 posterior sd of the sample truth",
            ok, f"error {err:.4f} vs 3 sd {3 * sd:.4f}; worst split R-hat "
                f"{worst_r:.4f} ({worst_name}) vs 1.05")


@pytest.mark.slow
def test_criterion_4_simulation_based_calibration():
    prior = PriorSpec(coef_sd=1.0, scale_shape=3.0, scale_rate=2.0)
    n_reps = 200
    rng = substream(424242, "sbc", 0)
    focal = theta_field_names(0).index("beta_3")   # second-period effect
    ranks = []
    for _ in range(n_reps):
        gnt = rng.normal(0, prior.coef_sd, size=1)
        gat = rng.normal(0, prior.coef_sd, size=1)
        alpha = rng.normal(0, prior.coef_sd, size=4)
        beta = rng.normal(0, prior.coef_sd, size=7)
        sx = float(np.sqrt(1.0 / rng.gamma(prior.scale_shape, 1.0 / prior.scale_rate)))
        sy = float(np.sqrt(1.0 / rng.gamma(prior.scale_shape, 1.0 / prior.scale_rate)))
        true_vec = Theta(gnt, gat, alpha, sx, beta, sy).to_vector()
        cfg = DgpConfig(n=80, seed=int(rng.integers(2 ** 63)), p=0,
                        compliance_probs=LogitCompliance(gnt, gat),
                        intermediate_coeffs=alpha, intermediate_noise_sd=sx,
                        outcome_coeffs=beta, outcome_noise_sd=sy)
        data, _ = simulate_dataset(cfg)
        res = fit(data, prior,
                  SamplerConfig(seed=int(rng.integers(2 ** 63)), n_chains=1,
                                n_warmup=300, n_draws=500))
        kept = res.theta[0, 4::5, focal][:99]
        ranks.append(int((kept < true_vec[focal]).sum()))
    counts = np.bincount(np.asarray(ranks) // 10, minlength=10)
    expected = n_reps / 10
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    ok = chi2 < 21.666
    _report(4, "posterior ranks of prior draws are uniform",
            ok, f"chi-square {chi2:.2f} vs 21.666 (df 9, 0.99 quantile); "
                f"bins {counts.tolist()}")


@pytest.mark.slow
def test_complier_effect_is_calibrated():
    # simulation-based calibration of the answer itself, beside criterion 4:
    # with logit compliance at p = 1, the rank of the sample complier effect
    # among its thinned posterior draws is uniform.  The effect is a function
    # of the latent labels and cells, so SBC applies to it exactly.  A
    # replicate whose sample has no complier has no estimand, and a kept draw
    # whose labels have none has no effect: both are counted and reported,
    # and only the others are ranked.
    prior = PriorSpec(coef_sd=1.0, scale_shape=3.0, scale_rate=2.0)
    n_reps, p = 120, 1
    rng = substream(616161, "sbc-effect", 0)
    ranks, no_complier, nan_draws = [], 0, 0
    for _ in range(n_reps):
        gnt, gat = rng.normal(0, prior.coef_sd, size=(2, p + 1))
        alpha = rng.normal(0, prior.coef_sd, size=p + 4)
        beta = rng.normal(0, prior.coef_sd, size=p + 7)
        sx, sy = np.sqrt(1.0 / rng.gamma(prior.scale_shape, 1.0 / prior.scale_rate, size=2))
        cfg = DgpConfig(n=80, seed=int(rng.integers(2 ** 63)), p=p,
                        compliance_probs=LogitCompliance(gnt, gat),
                        intermediate_coeffs=alpha, intermediate_noise_sd=float(sx),
                        outcome_coeffs=beta, outcome_noise_sd=float(sy))
        sampler_seed = int(rng.integers(2 ** 63))
        data, truth = simulate_dataset(cfg)
        if truth.n_co == 0:
            no_complier += 1
            continue
        res = fit(data, prior, SamplerConfig(seed=sampler_seed, n_chains=1,
                                             n_warmup=300, n_draws=500))
        kept = res.late[0, 4::5][:99]
        finite = kept[np.isfinite(kept)]
        nan_draws += kept.size - finite.size
        ranks.append(10 * int((finite < truth.true_late).sum()) // (finite.size + 1))
    counts = np.bincount(ranks, minlength=10)
    expected = len(ranks) / 10
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    detail = (f"chi-square {chi2:.2f} vs 21.666 (df 9, 0.99 quantile) over {len(ranks)} "
              f"replicates; {no_complier} without a complier, {nan_draws} kept draws "
              f"without one; bins {counts.tolist()}")
    print(f"{'PASS' if chi2 < 21.666 else 'FAIL'} complier effect SBC ({detail})")
    assert chi2 < 21.666, detail


@pytest.mark.slow
def test_criterion_5_baselines_biased_model_estimate_not():
    n_reps = 50
    pp, at, bayes = [], [], []
    for rep in range(n_reps):
        cfg = DgpConfig(n=1000, seed=100_000 + rep,
                        compliance_probs=ConstantCompliance((0.25, 0.5, 0.25)),
                        intermediate_coeffs=np.array([0.5, 0.3, 1.0, 0.5, -0.5]),
                        outcome_coeffs=np.array([0.0, 0.3, 0.5, 0.2, 0.2, 0.1, -2.0, 2.0]))
        data, _ = simulate_dataset(cfg)
        pp.append(per_protocol_estimate(data).point)
        at.append(as_treated_estimate(data).point)
        res = fit(data, PriorSpec(),
                  SamplerConfig(seed=200_000 + rep, n_chains=1,
                                n_warmup=400, n_draws=800))
        bayes.append(float(res.pooled_late().mean()))
    # the population complier effect is 0.5 * 1.0 + 0.2 + 0.2 + 0.1 = 1.0
    bias_pp = abs(float(np.mean(pp)) - 1.0)
    bias_at = abs(float(np.mean(at)) - 1.0)
    bias_bayes = abs(float(np.mean(bayes)) - 1.0)
    ok = bias_pp > 0.2 and bias_at > 0.2 and bias_bayes < 0.1
    _report(5, "naive baselines biased, model-based estimate unbiased",
            ok, f"|bias| per-protocol {bias_pp:.3f} and as-treated {bias_at:.3f} "
                f"both > 0.2; model {bias_bayes:.3f} < 0.1 ({n_reps} replicates)")


def test_criterion_6_difference_of_means_scales_with_complier_share():
    cfg = DgpConfig(n=50_000, seed=7,
                    compliance_probs=ConstantCompliance((0.2, 0.6, 0.2)),
                    intermediate_noise_sd=0.5, outcome_noise_sd=0.5)
    data, truth = simulate_dataset(cfg)
    pi_co = truth.n_co / len(data)
    rep = itt_estimate(data)
    dev = abs(rep.point - pi_co * truth.true_late)
    ok = dev < 0.05
    _report(6, "assignment contrast equals complier share times effect",
            ok, f"|{rep.point:.4f} - {pi_co:.4f} * {truth.true_late:.4f}| "
                f"= {dev:.4f} < 0.05")


def test_criterion_7_both_kernels_agree():
    cfg = DgpConfig(n=200, seed=42,
                    compliance_probs=ConstantCompliance((0.2, 0.6, 0.2)))
    data, _ = simulate_dataset(cfg)
    res_c = fit(data, PriorSpec(),
                SamplerConfig(seed=11, n_chains=4, n_warmup=800, n_draws=2000))
    res_m = fit(data, PriorSpec(),
                SamplerConfig(seed=13, n_chains=4, n_warmup=4000, n_draws=8000,
                              theta_update="marginal_mh", mh_step_scale=0.1))
    j4 = res_c.theta_names().index("beta_4")   # treatment interaction

    def late_stats(res):
        pooled = res.pooled_late()
        e = sum(ess(row[np.isfinite(row)]) for row in res.late)
        return float(pooled.mean()), float(pooled.std(ddof=1) / np.sqrt(e))

    def coef_stats(res):
        mat = res.theta[:, :, j4]
        e = sum(ess(row) for row in mat)
        return float(mat.mean()), float(mat.ravel().std(ddof=1) / np.sqrt(e))

    lm_c, lse_c = late_stats(res_c)
    lm_m, lse_m = late_stats(res_m)
    bm_c, bse_c = coef_stats(res_c)
    bm_m, bse_m = coef_stats(res_m)
    late_dev = abs(lm_c - lm_m)
    late_lim = 3 * float(np.hypot(lse_c, lse_m))
    coef_dev = abs(bm_c - bm_m)
    coef_lim = 3 * float(np.hypot(bse_c, bse_m))
    ok = late_dev < late_lim and coef_dev < coef_lim
    _report(7, "conjugate and marginal kernels give the same posterior",
            ok, f"effect diff {late_dev:.4f} < {late_lim:.4f}; interaction "
                f"coefficient diff {coef_dev:.4f} < {coef_lim:.4f} "
                f"(3 combined Monte Carlo standard errors)")


def test_criterion_8_cli_runs_are_bit_reproducible(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[dgp]\nn = 150\nseed = 88\ncompliance_probs = 0.2, 0.6, 0.2\n\n"
        "[sampler]\nseed = 99\nn_chains = 2\nn_warmup = 100\nn_draws = 150\n")
    sim = tmp_path / "sim"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
    fit_args = ["fit", "--data", str(sim / "dataset.csv"), "--config", str(cfg)]
    d1, d2 = tmp_path / "f1", tmp_path / "f2"
    assert cli_main(fit_args + ["--out", str(d1)]) == 0
    assert cli_main(fit_args + ["--out", str(d2)]) == 0
    b1 = (d1 / "draws.csv").read_bytes()
    b2 = (d2 / "draws.csv").read_bytes()
    ok = b1 == b2 and len(b1) > 0
    _report(8, "same seed and config give byte-identical draws",
            ok, f"{len(b1)} bytes, identical: {b1 == b2}")


def test_criterion_9_analytic_gradient_matches_finite_differences():
    rng = substream(99, "criterion9", 0)
    worst = 0.0
    for _ in range(20):
        th = Theta(rng.normal(0, 0.8, 2), rng.normal(0, 0.8, 2),
                   rng.normal(0, 0.8, 5), float(rng.uniform(0.6, 1.8)),
                   rng.normal(0, 0.8, 8), float(rng.uniform(0.6, 1.8)))
        z1, z2 = int(rng.integers(2)), int(rng.integers(2))
        c = int(rng.integers(3))
        w1 = [0, z1, 1][c]
        w2 = [0, z2, 1][c]
        vd = as_vector_data(Dataset(rng.normal(size=(1, 1)), [z1], [w1], [float(rng.normal())],
                                    [z2], [w2], [float(rng.normal())]))
        grad = marginal_score(th, vd)
        vec = th.to_vector()
        h = 1e-5
        fd = np.empty_like(vec)
        for j in range(vec.shape[0]):
            hi, lo = vec.copy(), vec.copy()
            hi[j] += h
            lo[j] -= h
            fd[j] = (_marginal_loglik(_log_weights(Theta.from_vector(hi, 1), vd.admissible), vd)[0]
                     - _marginal_loglik(_log_weights(Theta.from_vector(lo, 1), vd.admissible),
                                        vd)[0]) / (2 * h)
        rel = float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12))
        worst = max(worst, rel)
    ok = worst < 1e-4
    _report(9, "analytic score equals finite differences",
            ok, f"worst relative error {worst:.2e} < 1e-4 over 20 points")
