#!/usr/bin/env python3
"""Per-call times of the simulator and the file readers and writers at the
benchmark's workload shapes.

For each workload of bench/run.py (dgp seed 3) it times n calls of
substream(seed, "unit", i), one simulate_dataset, and the write and the read
of the dataset CSV, the truth sidecar and a draws table, in a temporary
directory.  The draws table has the shape a fit of the workload writes
(chains x draws rows, the parameter names of its p), filled with standard
normal values.  Every call is untraced and runs with one BLAS thread; it
prints the median per-call time in milliseconds over seven rounds.  It
checks nothing itself; compare two checkouts by running each one's copy
back to back.

Usage: python scripts/io_times.py
"""

import os
import sys
import tempfile
from pathlib import Path

from fit_digests import bench_workloads
from step_times import median_us

ROOT = Path(__file__).resolve().parents[1]
CALLS = ("substream x n", "simulate", "dataset write", "dataset read", "truth write",
         "truth read", "draws write", "draws read")


def io_times(text: str, tmp: Path) -> list:
    import numpy as np

    from seqlate import dataio
    from seqlate.config import parse_config
    from seqlate.model import theta_field_names
    from seqlate.rng import substream
    from seqlate.simulate import simulate_dataset

    cfg = parse_config(text)
    dgp, sampler = cfg.dgp, cfg.sampler
    data, truth = simulate_dataset(dgp)
    names = theta_field_names(dgp.p)
    rng = np.random.default_rng(0)
    late = rng.standard_normal((sampler.n_chains, sampler.n_draws))
    theta = rng.standard_normal((sampler.n_chains, sampler.n_draws, len(names)))
    csv, sidecar, draws = tmp / "dataset.csv", tmp / "dataset.truth.json", tmp / "draws.csv"

    def substreams():
        for i in range(dgp.n):
            substream(dgp.seed, "unit", i)

    calls = {
        "substream x n": substreams,
        "simulate": lambda: simulate_dataset(dgp),
        "dataset write": lambda: dataio.write_dataset_csv(data, csv),
        "dataset read": lambda: dataio.read_dataset_csv(csv),
        "truth write": lambda: dataio.write_truth_json(truth, sidecar),
        "truth read": lambda: dataio.read_truth_json(sidecar),
        "draws write": lambda: dataio.write_draws_csv(draws, names, late, theta),
        "draws read": lambda: dataio.read_draws_csv(draws),
    }
    # each read follows its write, so the file is there to read
    return [dgp.n, len(names)] + [median_us(calls[c]) / 1e3 for c in CALLS]


def main() -> int:
    # one BLAS thread, set before numpy first loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    shapes = {name: wl.config_text(3, 4) for name, wl in bench_workloads().items()}
    sys.path.insert(0, str(ROOT / "src"))
    print(f"{'shape':9s} {'n':>6s} {'d':>3s} " + " ".join(f"{c + ' ms':>16s}" for c in CALLS))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in shapes.items():
            n, d, *ms = io_times(text, Path(tmp))
            print(f"{name:9s} {n:6d} {d:3d} " + " ".join(f"{t:16.2f}" for t in ms), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
