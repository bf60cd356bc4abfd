"""Reference figures for the benchmark README, one table per layer.

    python3 bench/reference.py

Prints markdown: per-block microseconds per sweep for both theta kernels at
n = 500 / 5k / 50k, the validate grid sampler's cost per sweep, simulate's
cost per unit and the share of it spent deriving per-unit substreams, and
the sizes of the files each workload writes.  Takes about two minutes on a
2-core box.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import time

import run
from spans import Tracer

sys.path.insert(0, str(run.SRC))

import seqlate.cli as cli  # noqa: E402
import seqlate.gibbs as gibbs  # noqa: E402
import seqlate.simulate as simulate  # noqa: E402
import seqlate.validate as validate  # noqa: E402
from seqlate.model import PriorSpec  # noqa: E402

SWEEPS = {500: 400, 5_000: 100, 50_000: 20}
BLOCKS = ("theta", "labels", "impute", "contrast")


def sweep_blocks(data, kernel: str, sweeps: int):
    """Microseconds per sweep for the whole sweep and for each block."""
    t = Tracer()
    for block, attr in zip(BLOCKS, ("step_theta", "step_compliance", "step_impute",
                                    "late_draw")):
        t.wrap(gibbs, attr, block)
    t.wrap(gibbs, "run_chain", "sweep")
    cfg = gibbs.SamplerConfig(seed=1, n_chains=1, n_warmup=sweeps // 4,
                              n_draws=sweeps - sweeps // 4, theta_update=kernel)
    try:
        gibbs.fit(data, PriorSpec(), cfg)
    finally:
        t.unwrap_all()
    dur, _ = t.totals()
    return {k: dur[k] / sweeps * 1e6 for k in ("sweep",) + BLOCKS}


def main() -> None:
    datasets = {n: simulate.simulate_dataset(simulate.DgpConfig(n=n, seed=3))[0]
                for n in SWEEPS}
    print("| n | kernel | sweep | theta | labels | impute | contrast |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for n, sweeps in SWEEPS.items():
        for kernel in gibbs.THETA_UPDATE_MODES:
            us = sweep_blocks(datasets[n], kernel, sweeps)
            print(f"| {n} | {kernel} | " + " | ".join(f"{us[k]:,.0f}" for k in
                                                      ("sweep",) + BLOCKS) + " |")

    data, spec = validate.load_three_unit_fixture()
    t0 = time.perf_counter()
    validate.grid_gibbs(data, spec, 50_000, seed=1)
    grid_us = (time.perf_counter() - t0) / 50_000 * 1e6
    t0 = time.perf_counter()
    validate.exact_posterior(data, spec)
    print(f"\nvalidate: {grid_us:.1f} us per grid sweep, exact posterior "
          f"{time.perf_counter() - t0:.4f} s")

    t = Tracer()
    t.wrap(simulate, "substream", "substream")
    t.wrap(simulate, "simulate_dataset", "simulate")
    try:
        simulate.simulate_dataset(simulate.DgpConfig(n=5_000, seed=4))
    finally:
        t.unwrap_all()
    dur, _ = t.totals()
    print(f"simulate (n = 5000, p = 1): {dur['simulate'] / 5_000 * 1e6:.1f} us/unit, "
          f"{dur['substream'] / dur['simulate']:.0%} of it in substream\n")

    print("| workload | dataset.csv | dataset.truth.json | draws.csv |")
    print("| --- | --- | --- | --- |")
    out = run.OUT / "reference"
    shutil.rmtree(out, ignore_errors=True)
    for name, wl in run.WORKLOADS.items():
        rnd = run.run_round(cli, dataclasses.replace(wl, validate_sweeps=None), name, 1, 0,
                            out / name, None)
        files = (rnd.dir / "sim" / "dataset.csv", rnd.dir / "sim" / "dataset.truth.json",
                 rnd.dir / "fit" / "draws.csv")
        print(f"| {name} | " + " | ".join(f"{f.stat().st_size:,}" for f in files) + " |")
    shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    main()
