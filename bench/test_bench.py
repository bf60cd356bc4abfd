"""Tests of the benchmark's own estimators, checks and tracer.

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import stats  # noqa: E402
from spans import Tracer  # noqa: E402
from seqlate.cli import main as seqlate_main  # noqa: E402
from seqlate.validate import ess as seqlate_ess  # noqa: E402


def ar1(rho, n, m, seed):
    rng = np.random.default_rng(seed)
    x = np.empty((m, n))
    x[:, 0] = rng.standard_normal(m) / math.sqrt(1 - rho ** 2)
    eps = rng.standard_normal((m, n))
    for t in range(1, n):
        x[:, t] = rho * x[:, t - 1] + eps[:, t]
    return x


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_ess_matches_ar1_integrated_time(rho):
    chains = ar1(rho, 20_000, 4, seed=7)
    tau = (1 + rho) / (1 - rho)
    assert stats.ess(chains) == pytest.approx(chains.size / tau, rel=0.1)


@pytest.mark.parametrize("rho", [0.3, 0.8])
def test_ess_agrees_with_program_on_one_chain(rho):
    chain = ar1(rho, 5_000, 1, seed=11)[0]
    assert stats.ess([chain]) == pytest.approx(seqlate_ess(chain), rel=0.02)


def test_ess_sees_chains_that_disagree():
    chains = ar1(0.5, 2_000, 4, seed=3)
    per_chain_sum = sum(seqlate_ess(c) for c in chains)
    shifted = chains + np.array([[0.0], [0.0], [3.0], [3.0]])
    assert stats.ess(chains) == pytest.approx(per_chain_sum, rel=0.1)
    assert stats.ess(shifted) < 0.1 * per_chain_sum


def test_split_rhat():
    chains = ar1(0.0, 4_000, 4, seed=5)
    assert stats.rhat(chains) == pytest.approx(1.0, abs=0.01)
    drifting = chains + np.linspace(0, 3, 4_000)
    assert stats.rhat(drifting) > 1.1


def test_hazen_quantile_matches_numpy():
    values = sorted(np.random.default_rng(2).standard_normal(37))
    for q in (0.0, 0.01, 0.025, 0.5, 0.975, 0.99, 1.0):
        expect = np.quantile(values, q, method="hazen")
        assert stats.hazen_quantile(values, q) == pytest.approx(expect, abs=1e-12)


def test_self_time_subtracts_children():
    t = Tracer()
    t.spans = [(0, "command.fit", 0.0, 10.0, -1, "0/fit"),
               (1, "gibbs.theta", 1.0, 4.0, 0, "0/fit"),
               (2, "model.x", 2.0, 3.0, 1, "0/fit"),
               (3, "gibbs.labels", 5.0, 6.0, 0, "0/fit")]
    assert t.self_time("command.") == pytest.approx(6.0)
    assert t.self_time("gibbs.theta") == pytest.approx(2.0)


def test_wrap_records_and_restores():
    class Box:
        @staticmethod
        def f(x):
            return x + 1

    t = Tracer()
    orig = Box.f
    t.wrap(Box, "f", "box.f")
    assert t.command("0/run", Box.f, 1) == 2
    t.unwrap_all()
    assert Box.f is orig
    names = [(s[1], s[4]) for s in t.spans]
    assert names == [("command.run", -1), ("box.f", 0)]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A small simulate -> fit -> compare run through the CLI."""
    d = tmp_path_factory.mktemp("run")
    ini = d / "run.ini"
    ini.write_text("[dgp]\nn = 300\nseed = 5\n\n"
                   "[sampler]\nseed = 9\nn_chains = 2\nn_warmup = 100\nn_draws = 200\n")
    assert seqlate_main(["simulate", "--config", str(ini), "--out", str(d / "sim")]) == 0
    assert seqlate_main(["fit", "--data", str(d / "sim" / "dataset.csv"), "--config",
                         str(ini), "--out", str(d / "fit")]) == 0
    assert seqlate_main(["compare", "--data", str(d / "sim" / "dataset.csv"), "--fit",
                         str(d / "fit"), "--out", str(d / "comparison.csv")]) == 0
    return d


def copy_of(pipeline, tmp_path):
    dst = tmp_path / "run"
    shutil.copytree(pipeline, dst)
    return dst


CONSTANT = ("constant", (0.2, 0.6, 0.2))


def test_checks_pass_on_program_output(pipeline):
    assert checks.check_simulate(pipeline / "sim", 300, CONSTANT) == []
    truth = json.loads((pipeline / "sim" / "dataset.truth.json").read_text())
    problems, diag = checks.check_fit(pipeline / "fit", 2, 200, truth["true_late"], None)
    assert problems == []
    assert diag["late_ess"] > 0
    assert checks.check_compare(pipeline / "sim", pipeline / "fit",
                                pipeline / "comparison.csv") == []


def test_simulate_check_sees_a_cut_sidecar(pipeline, tmp_path):
    d = copy_of(pipeline, tmp_path)
    path = d / "sim" / "dataset.truth.json"
    doc = json.loads(path.read_text())
    doc["tables"], doc["compliance"] = doc["tables"][:10], doc["compliance"][:10]
    path.write_text(json.dumps(doc))
    assert checks.check_simulate(d / "sim", 300, CONSTANT)


def test_simulate_check_sees_a_changed_outcome(pipeline, tmp_path):
    d = copy_of(pipeline, tmp_path)
    path = d / "sim" / "dataset.csv"
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-9)
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_simulate(d / "sim", 300, CONSTANT)


def test_fit_check_sees_a_wrong_effect(pipeline):
    truth = json.loads((pipeline / "sim" / "dataset.truth.json").read_text())
    problems, _ = checks.check_fit(pipeline / "fit", 2, 200, truth["true_late"] + 5.0, None)
    assert problems


def test_compare_check_sees_a_wrong_row(pipeline, tmp_path):
    d = copy_of(pipeline, tmp_path)
    path = d / "comparison.csv"
    text = path.read_text()
    lines = text.splitlines()
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_compare(d / "sim", d / "fit", path)


def test_validate_check():
    assert checks.check_validate(0, "PASS a\n" * 6 + "all 6 checks passed\n") == []
    assert checks.check_validate(1, "PASS a\n" * 5 + "FAIL b\n")
