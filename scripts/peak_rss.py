#!/usr/bin/env python3
"""Peak resident memory of `seqlate simulate | fit | compare` at one size.

Runs the three commands one after another in this one interpreter, with one
BLAS thread, in a temporary directory, and prints the process's peak
resident set size (ru_maxrss) once the imports are done and after each
command.  The peak never falls, so a command that raises it is the one that
set it.  The design is the benchmark's large-n one: logit compliance
(intercepts -1.0 and -1.2, covariate coefficients 0.5 -0.3 0.2 and
-0.4 0.3 0.5, repeated for p > 3), the conjugate kernel, 30 warmup and 60
kept sweeps per chain, seed 1.  RSS depends on the platform and the
allocator, so compare figures from one machine only.

Usage: python scripts/peak_rss.py [--n 20000] [--p 3] [--chains 2]
"""

import argparse
import contextlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LOGIT_ROWS = ((-1.0, (0.5, -0.3, 0.2)), (-1.2, (-0.4, 0.3, 0.5)))


def config_text(n: int, p: int, chains: int) -> str:
    rows = [[intercept] + [slopes[j % len(slopes)] for j in range(p)]
            for intercept, slopes in LOGIT_ROWS]
    shares = "logit: " + " | ".join(" ".join(repr(v) for v in row) for row in rows)
    return (f"[dgp]\nn = {n}\nseed = 1\np = {p}\ncompliance_probs = {shares}\n\n"
            f"[sampler]\nseed = 1\nn_chains = {chains}\nn_warmup = 30\nn_draws = 60\n"
            f"theta_update = conjugate_gibbs\n")


def peak_mib() -> float:
    import resource
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / (1024 * 1024) if sys.platform == "darwin" else kib / 1024   # bytes on macOS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=20_000)
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--chains", type=int, default=2)
    args = ap.parse_args()
    # one BLAS thread, set before numpy first loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from seqlate import cli

    print(f"n={args.n} p={args.p} chains={args.chains}")
    print(f"{'import':9s} peak_rss_mib {peak_mib():7.1f}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ini = tmp / "run.ini"
        ini.write_text(config_text(args.n, args.p, args.chains))
        data = str(tmp / "sim" / "dataset.csv")
        commands = [
            ("simulate", ["simulate", "--config", str(ini), "--out", str(tmp / "sim")]),
            ("fit", ["fit", "--data", data, "--config", str(ini), "--out", str(tmp / "fit")]),
            ("compare", ["compare", "--data", data, "--fit", str(tmp / "fit"),
                         "--out", str(tmp / "comparison.csv")]),
        ]
        for name, argv in commands:
            with contextlib.redirect_stdout(sys.stderr):    # stdout holds the figures only
                rc = cli.main(argv)
            print(f"{name:9s} peak_rss_mib {peak_mib():7.1f}")
            if rc != 0:
                print(f"{name} exited {rc}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
