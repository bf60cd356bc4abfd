#!/usr/bin/env python3
"""Digests of the files `seqlate simulate` and `seqlate fit` write.

Runs `simulate` and `fit` in this one interpreter, with one BLAS thread, in
a temporary directory, for the three workload shapes of bench/run.py (dgp
seed 3, sampler seed 4) and for the README walkthrough's `run.ini`, and
prints the first 12 hex digits of the sha256 of `dataset.csv`,
`dataset.truth.json`, `draws.csv` and `summary.json` for each.  Two
checkouts that print the same lines simulate the same data and draw the
same posterior samples, bit for bit.  It checks nothing itself.

Usage: python scripts/fit_digests.py
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = (("sim", "dataset.csv"), ("sim", "dataset.truth.json"),
         ("fit", "draws.csv"), ("fit", "summary.json"))
README_INI = ("[dgp]\nn = 500\nseed = 314159\ncompliance_probs = 0.2, 0.6, 0.2\n\n"
              "[sampler]\nseed = 2718\nn_chains = 4\nn_warmup = 1000\nn_draws = 2000\n\n"
              "[prior]\ncoef_sd = 5.0\nscale_shape = 2.0\nscale_rate = 1.0\n")


def bench_workloads() -> dict:
    """bench/run.py's workloads, loaded from this checkout."""
    sys.path.insert(0, str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_run"] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


def digests(cli, ini_text: str, tmp: Path) -> list:
    tmp.mkdir()
    ini = tmp / "run.ini"
    ini.write_text(ini_text)
    sim, fit = tmp / "sim", tmp / "fit"
    for argv in (["simulate", "--config", str(ini), "--out", str(sim)],
                 ["fit", "--data", str(sim / "dataset.csv"), "--config", str(ini),
                  "--out", str(fit)]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{argv[0]} exited {code}")
    return [hashlib.sha256((tmp / d / name).read_bytes()).hexdigest()[:12] for d, name in FILES]


def main() -> int:
    # one BLAS thread, set before numpy first loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    shapes = {name: wl.config_text(3, 4) for name, wl in bench_workloads().items()}
    shapes["readme-example"] = README_INI
    sys.path.insert(0, str(ROOT / "src"))
    from seqlate import cli

    print(f"{'shape':15s} " + " ".join(f"{name:18s}" for _, name in FILES))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in shapes.items():
            row = digests(cli, text, Path(tmp) / name)
            print(f"{name:15s} " + " ".join(f"{d:18s}" for d in row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
