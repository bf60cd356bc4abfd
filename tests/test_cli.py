"""End-to-end command-line runs: simulate, fit, compare, validate."""

import hashlib
import json
import shutil

import numpy as np
import pytest

from seqlate.cli import _chain_diagnostics, main
from seqlate.config import load_config
from seqlate.dataio import read_draws_csv, write_draws_csv
from seqlate.validate import multi_ess, rhat

CONFIG = """\
[dgp]
n = 120
seed = 77
compliance_probs = 0.2, 0.6, 0.2

[sampler]
n_chains = 2
n_warmup = 40
n_draws = 60

[prior]
coef_sd = 5.0
"""


@pytest.fixture()
def sim_dir(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    return out


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_writes_expected_files(sim_dir, capsys):
    assert (sim_dir / "dataset.csv").exists()
    assert (sim_dir / "dataset.truth.json").exists()
    assert (sim_dir / "effective_config.ini").exists()
    manifest = json.loads((sim_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["seed"] == 77
    for path_str, digest in manifest["outputs"].items():
        from pathlib import Path
        assert sha256(Path(path_str)) == digest
    # the effective config reparses to the same configuration
    cfg = load_config(sim_dir / "effective_config.ini")
    assert cfg.dgp.n == 120
    assert cfg.dgp.seed == 77


def test_fit_writes_draws_and_summary(sim_dir, tmp_path):
    fit_dir = tmp_path / "fit"
    rc = main(["fit", "--data", str(sim_dir / "dataset.csv"),
               "--out", str(fit_dir), "--chains", "2", "--warmup", "30",
               "--draws", "50", "--seed", "99"])
    assert rc == 0
    lines = (fit_dir / "draws.csv").read_text().splitlines()
    assert lines[0].startswith("iter,chain,late,gamma_nt_0")
    assert len(lines) == 1 + 2 * 50
    summary = json.loads((fit_dir / "summary.json").read_text())
    assert summary["seed"] == 99
    assert summary["n_draws"] == 50
    assert "mean" in summary["late"]
    assert "rhat" in summary["late"]
    assert "sigma_y" in summary["theta"]
    manifest = json.loads((fit_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "fit"
    assert str(sim_dir / "dataset.csv") in manifest["inputs"]


def test_fit_same_seed_is_byte_identical(sim_dir, tmp_path):
    args = ["fit", "--data", str(sim_dir / "dataset.csv"),
            "--chains", "2", "--warmup", "20", "--draws", "30", "--seed", "5"]
    d1, d2 = tmp_path / "f1", tmp_path / "f2"
    assert main(args + ["--out", str(d1)]) == 0
    assert main(args + ["--out", str(d2)]) == 0
    assert (d1 / "draws.csv").read_bytes() == (d2 / "draws.csv").read_bytes()


def test_fit_marginal_kernel_alias(sim_dir, tmp_path):
    fit_dir = tmp_path / "fitm"
    rc = main(["fit", "--data", str(sim_dir / "dataset.csv"),
               "--out", str(fit_dir), "--chains", "1", "--warmup", "20",
               "--draws", "30", "--seed", "5", "--theta-update", "marginal"])
    assert rc == 0
    summary = json.loads((fit_dir / "summary.json").read_text())
    assert summary["theta_update"] == "marginal_mh"


def test_fit_marginal_survives_proposals_outside_the_prior_support(tmp_path, capsys):
    # at step scale 1000 some proposals put a noise scale where its square
    # overflows or underflows; they are rejected and the fit completes
    cfg = tmp_path / "run.ini"
    cfg.write_text("[dgp]\nn = 60\nseed = 3\n")
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
    rc = main(["fit", "--data", str(sim / "dataset.csv"), "--config", str(cfg),
               "--out", str(tmp_path / "fit"), "--chains", "2", "--warmup", "0",
               "--draws", "20", "--seed", "1", "--theta-update", "marginal",
               "--mh-step-scale", "1000"])
    assert rc == 0, capsys.readouterr().err


def test_compare_emits_table_with_bias(sim_dir, tmp_path, capsys):
    fit_dir = tmp_path / "fit"
    main(["fit", "--data", str(sim_dir / "dataset.csv"), "--out", str(fit_dir),
          "--chains", "2", "--warmup", "30", "--draws", "50", "--seed", "99"])
    capsys.readouterr()
    rc = main(["compare", "--data", str(sim_dir / "dataset.csv"),
               "--fit", str(fit_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    for method in ("bayes_late", "itt", "per_protocol", "as_treated"):
        assert method in out
    lines = (fit_dir / "comparison.csv").read_text().splitlines()
    assert lines[0] == "method,point,lo,hi,n_used,bias"
    assert len(lines) == 5


def test_compare_rejects_a_cut_truth_sidecar(tmp_path, capsys):
    cfg = tmp_path / "big.ini"
    cfg.write_text("[dgp]\nn = 20000\nseed = 11\n")
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
    fit_dir = tmp_path / "fit"
    fit_dir.mkdir()
    write_draws_csv(fit_dir / "draws.csv", ["beta_0"],
                    1.0 + 0.01 * np.arange(20)[None], np.zeros((1, 20, 1)))
    sidecar = sim / "dataset.truth.json"
    doc = json.loads(sidecar.read_text())
    cut = dict(doc, compliance=doc["compliance"][:10], tables=doc["tables"][:10])
    compare = ["compare", "--data", str(sim / "dataset.csv"), "--fit", str(fit_dir)]
    capsys.readouterr()
    # the complier count still describes the 20,000 units
    sidecar.write_text(json.dumps(cut))
    assert main(compare) == 3
    assert "n_co" in capsys.readouterr().err
    # a self-consistent sidecar for 10 units does not describe this dataset
    cut["n_co"] = cut["compliance"].count("co")
    sidecar.write_text(json.dumps(cut))
    assert main(compare) == 3
    captured = capsys.readouterr()
    assert "10 units" in captured.err and "bias" not in captured.out


def _stub_fit(fit_dir):
    fit_dir.mkdir()
    write_draws_csv(fit_dir / "draws.csv", ["beta_0"],
                    1.0 + 0.01 * np.arange(20)[None], np.zeros((1, 20, 1)))
    return fit_dir


def test_compare_rejects_a_truth_sidecar_from_another_dataset(tmp_path, capsys):
    # two datasets of the same size; seed 4's sidecar next to seed 3's data
    sims = {}
    for seed in (3, 4):
        cfg = tmp_path / f"seed{seed}.ini"
        cfg.write_text(f"[dgp]\nn = 40\nseed = {seed}\np = 0\nall_cells = true\n")
        sims[seed] = tmp_path / f"sim{seed}"
        assert main(["simulate", "--config", str(cfg), "--out", str(sims[seed])]) == 0
    shutil.copy(sims[4] / "dataset.truth.json", sims[3] / "dataset.truth.json")
    fit_dir = _stub_fit(tmp_path / "fit")
    capsys.readouterr()
    assert main(["compare", "--data", str(sims[3] / "dataset.csv"), "--fit", str(fit_dir)]) == 3
    captured = capsys.readouterr()
    assert "does not match row" in captured.err and "bias" not in captured.out


def test_compare_rejects_a_sidecar_one_observed_cell_off(sim_dir, tmp_path, capsys):
    sidecar = sim_dir / "dataset.truth.json"
    doc = json.loads(sidecar.read_text())
    # line 7 of the file is data row 7, which is unit 7 (tables[6]) of the sidecar
    row = (sim_dir / "dataset.csv").read_text().splitlines()[7].split(",")
    w1, w2 = int(row[2]), int(row[5])
    cells = doc["tables"][6]["y"]
    cells[2 * w1 + w2] = float(np.nextafter(cells[2 * w1 + w2], np.inf))
    sidecar.write_text(json.dumps(doc))
    fit_dir = _stub_fit(tmp_path / "fit")
    capsys.readouterr()
    assert main(["compare", "--data", str(sim_dir / "dataset.csv"), "--fit", str(fit_dir)]) == 3
    assert "unit 7 does not match row 7" in capsys.readouterr().err


def test_compare_rejects_a_malformed_draws_file(sim_dir, tmp_path, capsys):
    fit_dir = tmp_path / "fit"
    fit_dir.mkdir()
    (fit_dir / "draws.csv").write_text("iter,chain,late\n1,a,0.5\n")
    rc = main(["compare", "--data", str(sim_dir / "dataset.csv"), "--fit", str(fit_dir)])
    assert rc == 3
    assert "column chain" in capsys.readouterr().err


def test_fit_summary_uses_multi_chain_ess(sim_dir, tmp_path):
    fit_dir = tmp_path / "fit"
    assert main(["fit", "--data", str(sim_dir / "dataset.csv"), "--out", str(fit_dir),
                 "--chains", "3", "--warmup", "20", "--draws", "40", "--seed", "12"]) == 0
    summary = json.loads((fit_dir / "summary.json").read_text())
    names, chains, late, theta = read_draws_csv(fit_dir / "draws.csv")
    by_chain = theta[:, names.index("beta_0")].reshape(3, 40)
    assert summary["theta"]["beta_0"]["ess"] == multi_ess(by_chain)
    assert summary["theta"]["beta_0"]["rhat"] == rhat(by_chain)


def _fit_warnings(caplog, tmp_path, config_text, *extra):
    cfg = tmp_path / "run.ini"
    cfg.write_text(config_text)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")])
    assert rc == 0
    caplog.clear()
    with caplog.at_level("WARNING", logger="seqlate"):
        rc = main(["fit", "--data", str(tmp_path / "sim" / "dataset.csv"), "--config", str(cfg),
                   "--out", str(tmp_path / "fit"), *extra])
    assert rc == 0
    return [r.getMessage() for r in caplog.records
            if r.name == "seqlate.cli" and r.levelname == "WARNING"]


def test_fit_warns_when_the_chains_disagree(tmp_path, caplog):
    # two short marginal_mh chains: split R-hat of the complier effect far
    # above 1.01, and the outputs are those of a run that did not warn
    config = CONFIG.replace("n_warmup = 40", "n_warmup = 10").replace("n_draws = 60",
                                                                     "n_draws = 40")
    warned = _fit_warnings(caplog, tmp_path, config, "--theta-update", "marginal", "--seed", "3")
    assert any("R-hat" in m and "exceeds 1.01" in m for m in warned), warned
    summary = json.loads((tmp_path / "fit" / "summary.json").read_text())
    assert summary["late"]["rhat"] > 1.01
    draws = (tmp_path / "fit" / "draws.csv").read_bytes()
    quiet = tmp_path / "quiet"
    quiet.mkdir()
    rc = main(["--log-level", "error", "fit", "--data", str(tmp_path / "sim" / "dataset.csv"),
               "--config", str(tmp_path / "run.ini"), "--out", str(quiet / "fit"),
               "--theta-update", "marginal", "--seed", "3"])
    assert rc == 0
    assert (quiet / "fit" / "draws.csv").read_bytes() == draws
    assert json.loads((quiet / "fit" / "summary.json").read_text()) == summary


def test_fit_warns_on_draws_without_compliers(tmp_path, caplog):
    # no unit can be a complier when every unit is an always- or nevertaker
    config = CONFIG.replace("0.2, 0.6, 0.2", "0.5, 0.0, 0.5")
    warned = _fit_warnings(caplog, tmp_path, config, "--seed", "4")
    assert any("kept draws had no compliers" in m for m in warned), warned


def test_readme_example_fit_does_not_warn(tmp_path, caplog):
    readme = """\
[dgp]
n = 500
seed = 314159
compliance_probs = 0.2, 0.6, 0.2

[sampler]
seed = 2718
n_chains = 4
n_warmup = 1000
n_draws = 2000

[prior]
coef_sd = 5.0
scale_shape = 2.0
scale_rate = 1.0
"""
    # the walkthrough's config as written: the complier effect's split R-hat
    # reads 1.001, and fit prints no warning
    assert _fit_warnings(caplog, tmp_path, readme) == []


def test_chain_diagnostics_drop_iterations_where_any_chain_is_undefined():
    rng = np.random.default_rng(13)
    mat = rng.standard_normal((3, 40))
    mat[0, [3, 17]] = np.nan
    mat[2, 30] = np.nan
    keep = [t for t in range(40) if t not in (3, 17, 30)]
    r, e = _chain_diagnostics(mat)
    assert r == rhat(mat[:, keep])
    assert e == multi_ess(mat[:, keep])
    # too few common iterations for either diagnostic
    mat[1, :37] = np.nan
    assert _chain_diagnostics(mat) == (None, None)


def test_compare_without_sidecar_has_no_bias(sim_dir, tmp_path, capsys):
    fit_dir = tmp_path / "fit"
    main(["fit", "--data", str(sim_dir / "dataset.csv"), "--out", str(fit_dir),
          "--chains", "1", "--warmup", "20", "--draws", "40", "--seed", "4"])
    data_copy = tmp_path / "alone.csv"
    data_copy.write_bytes((sim_dir / "dataset.csv").read_bytes())
    capsys.readouterr()
    rc = main(["compare", "--data", str(data_copy), "--fit", str(fit_dir),
               "--out", str(tmp_path / "cmp.csv")])
    assert rc == 0
    lines = (tmp_path / "cmp.csv").read_text().splitlines()
    assert lines[0] == "method,point,lo,hi,n_used"


def test_compare_arm_overrides(sim_dir, tmp_path, capsys):
    fit_dir = tmp_path / "fit"
    arms = ["--treated", "1,0", "--control", "0,1"]
    main(["fit", "--data", str(sim_dir / "dataset.csv"), "--out", str(fit_dir),
          "--chains", "1", "--warmup", "20", "--draws", "40", "--seed", "4"] + arms)
    capsys.readouterr()
    rc = main(["compare", "--data", str(sim_dir / "dataset.csv"),
               "--fit", str(fit_dir)] + arms)
    assert rc == 0


def test_compare_refuses_arms_the_fit_was_not_made_for(sim_dir, tmp_path, capsys):
    fit_dir = tmp_path / "fit"
    main(["fit", "--data", str(sim_dir / "dataset.csv"), "--out", str(fit_dir),
          "--chains", "1", "--warmup", "20", "--draws", "40", "--seed", "4"])
    assert json.loads((fit_dir / "summary.json").read_text())["contrast"] == [[1, 1], [0, 0]]
    capsys.readouterr()
    rc = main(["compare", "--data", str(sim_dir / "dataset.csv"),
               "--fit", str(fit_dir), "--treated", "1,0", "--control", "0,1"])
    assert rc == 2
    assert "refit" in capsys.readouterr().err
    # a summary without the contrast key describes the default contrast
    summary = json.loads((fit_dir / "summary.json").read_text())
    del summary["contrast"]
    (fit_dir / "summary.json").write_text(json.dumps(summary))
    assert main(["compare", "--data", str(sim_dir / "dataset.csv"), "--fit", str(fit_dir),
                 "--treated", "0,1", "--control", "0,0"]) == 2
    assert main(["compare", "--data", str(sim_dir / "dataset.csv"), "--fit", str(fit_dir)]) == 0


def test_compare_bias_uses_the_fitted_contrast(sim_dir, tmp_path, capsys):
    from seqlate.dataio import read_truth_json
    from seqlate.simulate import true_sample_late

    fit_dir = tmp_path / "fit"
    arms = ["--treated", "1,0", "--control", "0,1"]
    assert main(["fit", "--data", str(sim_dir / "dataset.csv"), "--out", str(fit_dir),
                 "--chains", "2", "--warmup", "20", "--draws", "40", "--seed", "5"]
                + arms) == 0
    assert json.loads((fit_dir / "summary.json").read_text())["contrast"] == [[1, 0], [0, 1]]
    capsys.readouterr()
    assert main(["compare", "--data", str(sim_dir / "dataset.csv"),
                 "--fit", str(fit_dir)] + arms) == 0
    lines = (fit_dir / "comparison.csv").read_text().splitlines()
    assert lines[0] == "method,point,lo,hi,n_used,bias"
    truth = read_truth_json(sim_dir / "dataset.truth.json")
    want = true_sample_late(truth, ((1, 0), (0, 1)))
    assert want != truth.true_late
    _, _, late, _ = read_draws_csv(fit_dir / "draws.csv")
    bayes = lines[1].split(",")
    assert bayes[0] == "bayes_late"
    assert float(bayes[1]) == float(np.mean(late[np.isfinite(late)]))
    assert float(bayes[-1]) == float(bayes[1]) - want


@pytest.mark.parametrize("contrast", ['"1,1"', "[[1, 1]]", "[[1, 1], [0, 2]]",
                                      "[[true, 1], [0, 0]]", "[[1, 1], [0, 0.0]]"])
def test_compare_rejects_a_malformed_summary_contrast(sim_dir, tmp_path, capsys, contrast):
    fit_dir = tmp_path / "fit"
    fit_dir.mkdir()
    write_draws_csv(fit_dir / "draws.csv", ["beta_0"],
                    1.0 + 0.01 * np.arange(20)[None], np.zeros((1, 20, 1)))
    (fit_dir / "summary.json").write_text('{"contrast": %s}' % contrast)
    rc = main(["compare", "--data", str(sim_dir / "dataset.csv"), "--fit", str(fit_dir)])
    assert rc == 3
    assert "contrast" in capsys.readouterr().err


def test_exit_code_for_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[dgp]\nn = 10\nseed = 1\nburn = 5\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "burn" in capsys.readouterr().err


def test_exit_code_for_invalid_field(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[dgp]\nn = 10\nseed = 1\nintermediate_noise_sd = -2\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "intermediate_noise_sd" in capsys.readouterr().err


def test_exit_code_for_missing_dgp_section(tmp_path, capsys):
    cfg = tmp_path / "nodgp.ini"
    cfg.write_text("[sampler]\nn_draws = 10\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_exit_code_for_malformed_data(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1_0,z1,w1,x2,z2,w2,y\n0.0,7,0,0.1,0,0,0.2\n")
    rc = main(["fit", "--data", str(bad), "--out", str(tmp_path / "f"),
               "--chains", "1", "--warmup", "1", "--draws", "1", "--seed", "1"])
    assert rc == 3
    assert "row 1" in capsys.readouterr().err


def test_exit_code_for_missing_file(tmp_path, capsys):
    rc = main(["fit", "--data", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "f"), "--seed", "1"])
    assert rc == 3


@pytest.mark.parametrize("argv", [
    "fit --data {dir} --out {tmp}/f --seed 1",
    "simulate --config {dir} --out {tmp}/s",
    "fit --data {data} --out {file} --chains 1 --warmup 1 --draws 1 --seed 1",
    "compare --data {data} --fit {fit} --out {dir}",
])
def test_exit_code_for_unreadable_or_unwritable_path(argv, sim_dir, tmp_path, capsys):
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("")
    paths = dict(dir=tmp_path / "a_dir", file=tmp_path / "a_file", tmp=tmp_path,
                 data=sim_dir / "dataset.csv", fit=_stub_fit(tmp_path / "fit"))
    rc = main([arg.format(**paths) for arg in argv.split()])
    err = capsys.readouterr().err
    assert rc == 3
    assert "error:" in err and "Traceback" not in err


def test_exit_code_for_empty_dataset(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    rc = main(["fit", "--data", str(empty), "--out", str(tmp_path / "f"),
               "--seed", "1"])
    assert rc == 3


def test_validate_subcommand_passes(capsys):
    rc = main(["validate", "--sweeps", "25000", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 6


@pytest.mark.parametrize("sweeps", ["0", "-5"])
def test_validate_rejects_fewer_than_one_sweep(sweeps, capsys):
    rc = main(["validate", "--sweeps", sweeps])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: n_sweeps: must be >= 1")
    assert "Traceback" not in err


def test_simulate_too_large_to_allocate_is_a_data_error(tmp_path, capsys):
    # the draw buffers are allocated before the per-unit loop; 10**15 units
    # fail that allocation at once, without touching memory
    cfg = tmp_path / "huge.ini"
    cfg.write_text("[dgp]\nn = 1000000000000000\nseed = 1\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 3
    assert "do not fit in memory" in capsys.readouterr().err


def test_simulate_too_many_covariates_is_a_data_error(tmp_path, capsys):
    # p = 10**30 overflows the length of the default coefficient vectors at
    # once, without touching memory
    cfg = tmp_path / "wide.ini"
    cfg.write_text(f"[dgp]\nn = 12\nseed = 0\np = {10 ** 30}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: p: ") and "does not fit in memory" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--draws", "--chains"])
def test_fit_too_large_to_allocate_is_a_data_error(sim_dir, tmp_path, capsys, flag):
    # 10**20 exceeds numpy's largest array dimension, so the output arrays
    # are refused at once, before any chain is built
    rc = main(["fit", "--data", str(sim_dir / "dataset.csv"), "--out", str(tmp_path / "fit"),
               "--seed", "1", flag, str(10 ** 20)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: ") and "do not fit in memory" in err


def test_validate_too_many_sweeps_to_allocate_is_a_data_error(capsys):
    rc = main(["validate", "--sweeps", str(10 ** 20)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: n_sweeps: ") and "does not fit in memory" in err
