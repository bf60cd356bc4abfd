#!/usr/bin/env python3
"""Per-call times of the sampler's steps at the benchmark's workload shapes.

For each workload of bench/run.py (dgp seed 3, sampler seed 4) it simulates
the dataset, starts the workload's chains and runs ten sweeps of its kernel,
then calls step_theta, step_compliance, step_impute and _marginal_logpost
over and over on the states a sweep hands each of them, and marginal_score
on the last state's theta with the lower-type probabilities
_marginal_logpost returns for it, computed once outside the timed call.
Every call is untraced and runs with one BLAS thread; it prints the median
per-call time in microseconds over seven rounds.  The label step reads the
cache its kernel's theta update leaves, as in a fit.  It checks nothing
itself; compare two checkouts by running each one's copy back to back.

Usage: python scripts/step_times.py
"""

import os
import statistics
import sys
import time
from pathlib import Path

from fit_digests import bench_workloads

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 7
ROUND_SECONDS = 0.05
STEPS = ("step_theta", "step_compliance", "step_impute", "_marginal_logpost", "marginal_score")


def median_us(call) -> float:
    """Median over ROUNDS rounds of the per-call time of call, in us, each
    round as many calls as fill about ROUND_SECONDS."""
    t0 = time.perf_counter()
    call()
    number = max(1, int(ROUND_SECONDS / max(time.perf_counter() - t0, 1e-7)))
    rounds = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(number):
            call()
        rounds.append((time.perf_counter() - t0) / number)
    return statistics.median(rounds) * 1e6


def step_times(text: str) -> list:
    from seqlate import gibbs
    from seqlate.config import parse_config
    from seqlate.rng import substream
    from seqlate.simulate import simulate_dataset

    cfg = parse_config(text)
    sampler, prior = cfg.sampler, cfg.prior
    vd = gibbs.as_vector_data(simulate_dataset(cfg.dgp)[0])
    state = gibbs.init_state(vd, [substream(sampler.seed, "chain", k)
                                  for k in range(sampler.n_chains)])
    tuning = gibbs._Tuning(n_chains=sampler.n_chains, marg_scale=sampler.mh_step_scale)
    for _ in range(10):
        updated = gibbs.step_theta(state, vd, prior, sampler.theta_update, tuning)
        labelled = gibbs.step_compliance(updated, vd)
        state = gibbs.step_impute(labelled, vd)
    p_lower = gibbs._marginal_logpost(state.theta, vd, prior)[1]
    calls = {
        "step_theta": lambda: gibbs.step_theta(state, vd, prior, sampler.theta_update, tuning),
        "step_compliance": lambda: gibbs.step_compliance(updated, vd),
        "step_impute": lambda: gibbs.step_impute(labelled, vd),
        "_marginal_logpost": lambda: gibbs._marginal_logpost(state.theta, vd, prior),
        "marginal_score": lambda: gibbs.marginal_score(state.theta, vd, p_lower),
    }
    return [vd.n, sampler.n_chains, sampler.theta_update] + [median_us(calls[s]) for s in STEPS]


def main() -> int:
    # one BLAS thread, set before numpy first loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    shapes = {name: wl.config_text(3, 4) for name, wl in bench_workloads().items()}
    sys.path.insert(0, str(ROOT / "src"))
    print(f"{'shape':9s} {'n':>6s} {'C':>2s} {'kernel':16s} "
          + " ".join(f"{s + ' us':>20s}" for s in STEPS))
    for name, text in shapes.items():
        n, C, kernel, *us = step_times(text)
        print(f"{name:9s} {n:6d} {C:2d} {kernel:16s} " + " ".join(f"{t:20.1f}" for t in us),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
