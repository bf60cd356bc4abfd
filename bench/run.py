"""seqlate benchmark: drive the CLI as a user would and report its costs.

    python3 bench/run.py --workload readme --seed 1 --seconds 30 --trace 0

One closed-loop client runs a workload's commands one after another in this
process (``seqlate.cli.main`` with an argv list), round after round, until
the next round would end after ``--seconds``.  Each round draws its inputs
from (workload, seed, round).  Set-up, a fresh interpreter plus
``import seqlate.cli``, is timed on its own in child interpreters, so the
steps are timed after lazy set-up has finished.  Every output file is then
checked apart from the program (checks.py); a command that exits non-zero,
raises, or fails its check is a failed operation.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
rounds in pairs, first untraced and then traced on the same inputs, and
prints the per-layer metrics from the traced rounds (spans.py), the tracing
overhead on fit_s, and the ESS rates of the untraced rounds.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

# One BLAS thread: the closed loop is one single-threaded client, and on a
# 2-core box a second BLAS thread makes every matrix product wait for
# whichever core a neighbour is using.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"
SETUP_REPEATS = 7
LARGE_N_LOGIT = ((-1.0, 0.5, -0.3, 0.2), (-1.2, -0.4, 0.3, 0.5))


@dataclasses.dataclass(frozen=True)
class Workload:
    n: int
    p: int
    compliance: Tuple
    kernel: str
    chains: int
    warmup: int
    draws: int
    # grid sweeps of `seqlate validate`; None where the workload skips it
    validate_sweeps: Optional[int]
    # split R-hat gate on every parameter; None where chains are too short
    # or the kernel mixes too slowly for R-hat to separate a fault from noise
    rhat_limit: Optional[float]

    def config_text(self, dgp_seed: int, sampler_seed: int) -> str:
        if self.compliance[0] == "constant":
            shares = ", ".join(repr(v) for v in self.compliance[1])
        else:
            shares = "logit: " + " | ".join(" ".join(repr(v) for v in row)
                                            for row in self.compliance[1:])
        return (f"[dgp]\nn = {self.n}\nseed = {dgp_seed}\np = {self.p}\n"
                f"compliance_probs = {shares}\n\n"
                f"[sampler]\nseed = {sampler_seed}\nn_chains = {self.chains}\n"
                f"n_warmup = {self.warmup}\nn_draws = {self.draws}\n"
                f"theta_update = {self.kernel}\n")


WORKLOADS = {
    # README walkthrough: per-call overhead of the conjugate sweep at small n,
    # plus the validate grid sampler (50k sweeps, so that a run holds three
    # rounds rather than one; the default 200k passes on the same seed)
    "readme": Workload(500, 1, ("constant", (0.2, 0.6, 0.2)), "conjugate_gibbs",
                       4, 250, 750, 50_000, 1.1),
    # per-unit simulation, MB-sized files and (n, .) array kernels
    "large-n": Workload(20_000, 3, ("logit",) + LARGE_N_LOGIT, "conjugate_gibbs",
                        2, 30, 60, None, None),
    # label-marginal random-walk kernel: log-weights twice per sweep
    "marginal": Workload(1000, 1, ("constant", (0.2, 0.6, 0.2)), "marginal_mh",
                         4, 500, 500, None, None),
}


@dataclasses.dataclass
class Round:
    index: int
    traced: bool
    dir: Path
    times: Dict[str, float] = dataclasses.field(default_factory=dict)
    codes: Dict[str, Optional[int]] = dataclasses.field(default_factory=dict)
    stdout: Dict[str, str] = dataclasses.field(default_factory=dict)
    diag: Dict[str, float] = dataclasses.field(default_factory=dict)


def round_seeds(workload: str, seed: int, index: int) -> Tuple[int, int]:
    rng = random.Random(f"{workload}/{seed}/{index}")
    return rng.randrange(2 ** 32), rng.randrange(2 ** 32)


def measure_setup() -> List[float]:
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import seqlate.cli"
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        out.append(time.perf_counter() - t0)
    return out


def run_round(cli, wl: Workload, name: str, seed: int, index: int, rdir: Path,
              tracer: Optional[Tracer]) -> Round:
    rdir.mkdir(parents=True)
    dgp_seed, sampler_seed = round_seeds(name, seed, index)
    ini = rdir / "run.ini"
    ini.write_text(wl.config_text(dgp_seed, sampler_seed))
    sim, fit = rdir / "sim", rdir / "fit"
    commands = [
        ("simulate", ["simulate", "--config", str(ini), "--out", str(sim)]),
        ("fit", ["fit", "--data", str(sim / "dataset.csv"), "--config", str(ini),
                 "--out", str(fit)]),
        ("compare", ["compare", "--data", str(sim / "dataset.csv"), "--fit", str(fit),
                     "--out", str(rdir / "comparison.csv")]),
    ]
    if wl.validate_sweeps:
        commands.append(("validate", ["validate", "--sweeps", str(wl.validate_sweeps)]))
    rnd = Round(index, tracer is not None, rdir)
    for cmd, argv in commands:
        gc.collect()
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.command(f"{index}/{cmd}", cli.main, argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            rc = None
        rnd.times[cmd] = time.perf_counter() - t0
        rnd.codes[cmd] = rc
        rnd.stdout[cmd] = buf.getvalue()
    return rnd


def check_round(wl: Workload, rnd: Round) -> Dict[str, List[str]]:
    """Problems per command; a command that did not exit 0 has one."""
    sim, fit = rnd.dir / "sim", rnd.dir / "fit"
    found: Dict[str, List[str]] = {}
    for cmd, rc in rnd.codes.items():
        if rc != 0 and cmd != "validate":
            found[cmd] = [f"{cmd}: exit code {rc}"]
            continue
        try:
            if cmd == "simulate":
                found[cmd] = checks.check_simulate(sim, wl.n, wl.compliance)
            elif cmd == "fit":
                truth = json.loads((sim / "dataset.truth.json").read_text())
                found[cmd], rnd.diag = checks.check_fit(
                    fit, wl.chains, wl.draws, truth["true_late"], wl.rhat_limit)
            elif cmd == "compare":
                found[cmd] = checks.check_compare(sim, fit, rnd.dir / "comparison.csv")
            else:
                found[cmd] = checks.check_validate(rc, rnd.stdout[cmd])
        except (OSError, ValueError, KeyError, IndexError, TypeError,
                ZeroDivisionError) as e:
            found[cmd] = [f"{cmd}: output unreadable: {e!r}"]
    return found


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's functions where their callers look them up."""
    import seqlate.cli as cli
    import seqlate.domain as domain
    import seqlate.gibbs as gibbs
    import seqlate.simulate as simulate
    import seqlate.validate as validate

    def count(key, value):
        def after(t, args, kwargs, result):
            t.counts[key] += value(args, result)
        return after

    def size_of(path):
        return Path(path).stat().st_size

    def acceptance(t, args, kwargs, result):
        state, mode, tuning = args[0], args[3], args[4]
        if tuning.adapting:
            return
        old, new = state.theta, result.theta
        if mode == "marginal_mh":
            t.counts["gibbs.proposals"] += 1
            t.counts["gibbs.accepted"] += new is not old
        else:
            t.counts["gibbs.proposals"] += 2
            t.counts["gibbs.accepted"] += (int((old.gamma_nt != new.gamma_nt).any())
                                           + int((old.gamma_at != new.gamma_at).any()))

    w = tracer.wrap
    w(cli, "simulate_dataset", "simulate.simulate_dataset",
      count("simulate.units", lambda a, r: a[0].n))
    w(simulate, "substream", "rng.substream")
    w(cli, "write_dataset_csv", "dataio.dataset_write",
      count("dataio.bytes_written", lambda a, r: size_of(a[1])))
    w(cli, "read_dataset_csv", "dataio.dataset_read")
    w(cli, "write_truth_json", "dataio.truth_write",
      count("dataio.bytes_written", lambda a, r: size_of(a[1])))
    w(cli, "read_truth_json", "dataio.truth_read")
    w(cli, "write_draws_csv", "dataio.draws_write",
      count("dataio.bytes_written", lambda a, r: size_of(a[0])))
    w(cli, "read_draws_csv", "dataio.draws_read")
    w(domain.Dataset, "as_arrays", "domain.as_arrays")
    w(gibbs, "compliance_log_prob_matrix", "model.compliance_log_prob_matrix")
    w(gibbs, "observed_cell_logliks", "model.observed_cell_logliks")
    w(cli, "run_fit", "gibbs.fit")
    w(gibbs, "run_chain", "gibbs.run_chain")
    w(gibbs, "step_theta", "gibbs.theta", acceptance)
    w(gibbs, "step_compliance", "gibbs.labels")
    w(gibbs, "step_impute", "gibbs.impute")
    w(gibbs, "late_draw", "gibbs.contrast")
    w(cli, "rhat", "validate.rhat")
    w(cli, "ess", "validate.ess")
    w(cli, "run_validation_suite", "validate.suite")
    w(validate, "exact_posterior", "validate.exact_posterior")
    w(validate, "grid_gibbs", "validate.grid_gibbs",
      count("validate.grid_sweeps", lambda a, r: a[2]))
    w(cli, "compare_methods", "estimate.compare_methods")
    w(cli, "_write_manifest", "cli.manifest")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced: List[Round], plain: List[Round]
                  ) -> Dict[str, Tuple[float, str]]:
    dur, calls = tracer.totals()
    c = tracer.counts
    r = len(traced)
    sweeps = calls["gibbs.theta"]
    units = c["simulate.units"]
    logw_calls = calls["model.compliance_log_prob_matrix"]

    def per_call(name, scale=1.0):
        return _ratio(dur[name], calls[name]) * scale

    def median_diag(rounds, key, per):
        return statistics.median(rnd.diag[key] / per(rnd) for rnd in rounds)

    draws = lambda rnd: rnd.diag["kept_draws"]
    fit_time = lambda rnd: rnd.times["fit"]
    overhead = (statistics.median(fit_time(x) for x in traced)
                / statistics.median(fit_time(x) for x in plain) - 1.0) * 100.0
    m = {
        "simulate.us_per_unit": (_ratio(dur["simulate.simulate_dataset"], units) * 1e6, "us"),
        "rng.substream_us_per_unit": (_ratio(dur["rng.substream"], units) * 1e6, "us"),
        "dataio.dataset_write_s": (per_call("dataio.dataset_write"), "s"),
        "dataio.dataset_read_s": (per_call("dataio.dataset_read"), "s"),
        "dataio.truth_write_s": (per_call("dataio.truth_write"), "s"),
        "dataio.truth_read_s": (per_call("dataio.truth_read"), "s"),
        "dataio.draws_write_s": (per_call("dataio.draws_write"), "s"),
        "dataio.draws_read_s": (per_call("dataio.draws_read"), "s"),
        "dataio.bytes_written": (c["dataio.bytes_written"] / r, "bytes"),
        "domain.as_arrays_s": (dur["domain.as_arrays"] / r, "s"),
        "domain.as_arrays_calls": (calls["domain.as_arrays"] / r, "count"),
        "model.logweights_us": (_ratio(dur["model.compliance_log_prob_matrix"]
                                       + dur["model.observed_cell_logliks"],
                                       logw_calls) * 1e6, "us"),
        "model.logweights_per_sweep": (_ratio(logw_calls, sweeps), "count"),
        "gibbs.sweep_us": (_ratio(dur["gibbs.run_chain"], sweeps) * 1e6, "us"),
        "gibbs.theta_us": (per_call("gibbs.theta", 1e6), "us"),
        "gibbs.labels_us": (per_call("gibbs.labels", 1e6), "us"),
        "gibbs.impute_us": (per_call("gibbs.impute", 1e6), "us"),
        "gibbs.contrast_us": (per_call("gibbs.contrast", 1e6), "us"),
        "gibbs.sweeps": (sweeps / r, "count"),
        "gibbs.theta_accept_rate": (_ratio(c["gibbs.accepted"], c["gibbs.proposals"]), "ratio"),
        "gibbs.late_ess_per_draw": (median_diag(traced, "late_ess", draws), "ratio"),
        "gibbs.min_ess_per_draw": (median_diag(traced, "min_ess", draws), "ratio"),
        "gibbs.no_complier_draws": (sum(x.diag["no_complier_draws"] for x in traced) / r,
                                    "count"),
        "gibbs.late_ess_per_s": (median_diag(plain, "late_ess", fit_time), "1/s"),
        "gibbs.min_ess_per_s": (median_diag(plain, "min_ess", fit_time), "1/s"),
        "validate.grid_sweep_us": (_ratio(dur["validate.grid_gibbs"],
                                          c["validate.grid_sweeps"]) * 1e6, "us"),
        "validate.exact_posterior_s": (dur["validate.exact_posterior"] / r, "s"),
        "validate.diagnostics_s": ((dur["validate.rhat"] + dur["validate.ess"]) / r, "s"),
        "estimate.compare_s": (dur["estimate.compare_methods"] / r, "s"),
        "cli.manifest_s": (dur["cli.manifest"] / r, "s"),
        "cli.self_s": (tracer.self_time("command.") / r, "s"),
        "trace.overhead_fit_pct": (overhead, "%"),
    }
    return m


def end_to_end(rounds: List[Round], setup: List[float], peak_rss_mb: float
               ) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, Tuple[float, str]]]:
    """Gated metrics of BENCHMARK.json, and the workload-specific figures
    that are printed for reading but not gated."""
    med = lambda key: statistics.median(key(r) for r in rounds)
    gated = {
        "setup_s": (statistics.median(setup), "s"),
        "pipeline_s": (med(lambda r: sum(r.times.values())), "s"),
        "fit_s": (med(lambda r: r.times["fit"]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    extra = {f"{cmd}_s": (med(lambda r: r.times[cmd]), "s") for cmd in rounds[0].times
             if cmd != "fit"}
    extra["late_ess"] = (med(lambda r: r.diag["late_ess"]), "draws")
    extra["min_ess"] = (med(lambda r: r.diag["min_ess"]), "draws")
    extra["late_ess_per_s"] = (med(lambda r: r.diag["late_ess"] / r.times["fit"]), "1/s")
    extra["min_ess_per_s"] = (med(lambda r: r.diag["min_ess"] / r.times["fit"]), "1/s")
    extra["max_split_rhat"] = (max(r.diag["max_rhat"] for r in rounds), "ratio")
    return gated, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "seqlate" / "cli.py").is_file():
        print(f"error: no seqlate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import seqlate
    import seqlate.cli as cli
    if Path(seqlate.__file__).resolve().parent != SRC / "seqlate":
        print(f"error: imported seqlate from {seqlate.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    setup = [] if args.trace else measure_setup()

    tracer = Tracer() if args.trace else None
    rounds: List[Round] = []
    start = time.perf_counter()
    pair = 0
    try:
        # whole rounds (pairs when traced) until the next would end late
        while True:
            plain = run_round(cli, wl, args.workload, args.seed, pair,
                              run_dir / f"r{pair}", None)
            rounds.append(plain)
            if tracer is not None:
                instrument(tracer)
                try:
                    rounds.append(run_round(cli, wl, args.workload, args.seed, pair,
                                            run_dir / f"r{pair}-traced", tracer))
                finally:
                    tracer.unwrap_all()
            pair += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / pair > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        attempted = failed = 0
        problems: List[str] = []
        for rnd in rounds:
            for cmd, found in check_round(wl, rnd).items():
                attempted += 1
                failed += bool(found)
                problems += [f"round {rnd.index}{' traced' if rnd.traced else ''}: {p}"
                             for p in found]
        correct = not problems
        ok = [r for r in rounds if all(c == 0 for c in r.codes.values()) and r.diag]
        plain = [r for r in ok if not r.traced]
        traced = [r for r in ok if r.traced]
        if tracer is not None:
            for a, b in zip(rounds[0::2], rounds[1::2]):
                if (a.dir / "fit" / "draws.csv").read_bytes() != \
                        (b.dir / "fit" / "draws.csv").read_bytes():
                    correct = False
                    problems.append(f"round {a.index}: tracing changed draws.csv")
            tracer.write(OUT / f"spans-{args.workload}.json")
        for p in problems:
            print(p, file=sys.stderr)
        metrics: Dict[str, Tuple[float, str]] = {}
        shown: Dict[str, Tuple[float, str]] = {}
        if tracer is not None and plain and traced:
            metrics = shown = layer_metrics(tracer, traced, plain)
        elif tracer is None and plain:
            metrics, extra = end_to_end(plain, setup, peak_rss_mb)
            shown = {**metrics, **extra}
        if shown:
            print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
                  f"{len(traced)} traced rounds, {attempted} operations, {failed} failed")
            for rnd in plain + traced:
                print(f"  round {rnd.index}{' traced' if rnd.traced else ''}: "
                      + ", ".join(f"{cmd} {t:.3f} s" for cmd, t in rnd.times.items()))
            for key, (value, unit) in shown.items():
                print(f"  {key:<30} {value:>14.6g} {unit}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
