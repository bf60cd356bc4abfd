"""The benchmark's trace hooks still resolve against the program.

bench/run.py::instrument wraps functions by attribute name (the CLI's
readers and writers, simulate.substream, Dataset.as_arrays, the sweep
steps).  Renaming or deleting one of them would crash ``--trace 1`` only,
so this loads bench/run.py as it is and drives the CLI through its hooks.
"""

import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

import seqlate.rng
import seqlate.simulate
from seqlate.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture()
def bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", module)
    with mock.patch.dict(os.environ):    # run.py pins BLAS threads on import
        spec.loader.exec_module(module)
    return module


def test_trace_hooks_resolve_and_see_one_substream_per_unit(bench_run, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[dgp]\nn = 25\nseed = 5\np = 2\n\n"
                   "[sampler]\nseed = 6\nn_chains = 1\nn_warmup = 3\nn_draws = 4\n")
    sim, fit = tmp_path / "sim", tmp_path / "fit"
    tracer = bench_run.Tracer()
    bench_run.instrument(tracer)
    try:
        codes = [tracer.command(f"0/{argv[0]}", main, argv) for argv in (
            ["simulate", "--config", str(cfg), "--out", str(sim)],
            ["fit", "--data", str(sim / "dataset.csv"), "--config", str(cfg),
             "--out", str(fit)],
            ["compare", "--data", str(sim / "dataset.csv"), "--fit", str(fit)])]
    finally:
        tracer.unwrap_all()
    assert codes == [0, 0, 0]
    _, calls = tracer.totals()
    assert calls["rng.substream"] == 25
    assert tracer.counts["simulate.units"] == 25
    for name in ("dataio.dataset_write", "dataio.truth_write", "dataio.truth_read",
                 "gibbs.fit", "gibbs.run_chain", "dataio.draws_write",
                 "dataio.draws_read", "estimate.compare_methods"):
        assert calls[name] == 1, name
    assert calls["dataio.dataset_read"] == 2
    assert calls["gibbs.theta"] == calls["gibbs.labels"] == 7
    assert seqlate.simulate.substream is seqlate.rng.substream
