"""Checks of the CLI's output files, made apart from the program.

Every file is parsed here with the standard library (csv, json), and every
expected value is recomputed from the files themselves, never compared with
a stored copy of an earlier output.  Each function returns a list of
problems; an empty list means the command's output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import stats

FIXED = ("z1", "w1", "x2", "z2", "w2", "y")
ARMS = ((1, 1), (0, 0))
Z975 = 1.959963984540054


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def read_dataset(path: Path) -> Tuple[int, List[Dict[str, float]]]:
    """(p, rows) with z/w as ints and every other column as float."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        p = len(header) - len(FIXED)
        expect = [f"x1_{j}" for j in range(p)] + list(FIXED)
        if header != expect:
            raise ValueError(f"{path.name}: header {header} is not {expect}")
        rows = []
        for rec in reader:
            row = {k: float(v) for k, v in zip(header, rec)}
            for k in ("z1", "w1", "z2", "w2"):
                if rec[header.index(k)] not in ("0", "1"):
                    raise ValueError(f"{path.name}: {k} is not 0 or 1")
                row[k] = int(row[k])
            rows.append(row)
    return p, rows


def read_draws(path: Path) -> Tuple[List[str], List[List[str]]]:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [rec for rec in reader]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def complier_prob(x1: Sequence[float], spec) -> float:
    """Complier share for one unit: a constant, or the multinomial logit
    with the complier as reference category."""
    if spec[0] == "constant":
        return spec[1][1]
    _, gnt, gat = spec
    u = [1.0] + list(x1)
    lnt = sum(g * v for g, v in zip(gnt, u))
    lat = sum(g * v for g, v in zip(gat, u))
    return 1.0 / (1.0 + math.exp(lnt) + math.exp(lat))


def check_simulate(out: Path, n: int, compliance_spec) -> List[str]:
    problems: List[str] = []
    p, rows = read_dataset(out / "dataset.csv")
    truth = json.loads((out / "dataset.truth.json").read_text())
    labels, tables = truth["compliance"], truth["tables"]
    if not (len(rows) == len(labels) == len(tables) == n):
        return [f"simulate: {len(rows)} rows, {len(labels)} labels, "
                f"{len(tables)} tables, expected {n}"]
    diffs = []
    p_co = []
    for i, (row, c, tab) in enumerate(zip(rows, labels, tables)):
        z1, w1, z2, w2 = row["z1"], row["w1"], row["z2"], row["w2"]
        fits = {"nt": w1 == 0 and w2 == 0, "at": w1 == 1 and w2 == 1,
                "co": w1 == z1 and w2 == z2}.get(c)
        if not fits:
            problems.append(f"simulate: unit {i} of type {c!r} has "
                            f"(z1, w1, z2, w2) = ({z1}, {w1}, {z2}, {w2})")
            continue
        ycol = 2 * w1 + w2
        # bit for bit: float(repr(v)) round-trips exactly
        if tab["x2"][w1] != row["x2"] or tab["y"][ycol] != row["y"]:
            problems.append(f"simulate: unit {i} observed cells differ from the sidecar")
        defined = (sum(v is not None for v in tab["x2"]),
                   sum(v is not None for v in tab["y"]))
        if defined != ((2, 4) if c == "co" else (1, 1)):
            problems.append(f"simulate: unit {i} ({c}) defines {defined} cells")
        if c == "co" and defined == (2, 4):
            diffs.append(tab["y"][3] - tab["y"][0])
        p_co.append(complier_prob([row[f"x1_{j}"] for j in range(p)], compliance_spec))
        if len(problems) > 5:
            break
    n_co = labels.count("co")
    if truth["n_co"] != n_co:
        problems.append(f"simulate: n_co {truth['n_co']} but {n_co} complier labels")
    if n_co:
        late = math.fsum(diffs) / len(diffs)
        if truth["true_late"] is None or not _close(truth["true_late"], late, 1e-12):
            problems.append(f"simulate: true_late {truth['true_late']} but the "
                            f"complier mean of y(1,1) - y(0,0) is {late}")
    # complier count against its binomial (Poisson-binomial) law, 5 sd
    if len(p_co) == n:
        mean = math.fsum(p_co)
        sd = math.sqrt(math.fsum(q * (1.0 - q) for q in p_co))
        if abs(n_co - mean) > 5.0 * sd:
            problems.append(f"simulate: {n_co} compliers, expected {mean:.1f} +- {5 * sd:.1f}")
    return problems


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def chains_of(header: List[str], recs: List[List[str]], n_chains: int
              ) -> Tuple[List[List[float]], Dict[str, List[List[float]]]]:
    """Per-chain late draws (NaN for an empty field) and parameter draws."""
    late = [[] for _ in range(n_chains)]
    theta = {name: [[] for _ in range(n_chains)] for name in header[3:]}
    for rec in recs:
        k = int(rec[1])
        late[k].append(float(rec[2]) if rec[2] != "" else math.nan)
        for name, v in zip(header[3:], rec[3:]):
            theta[name][k].append(float(v))
    return late, theta


def finite_chains(chains: List[List[float]]) -> List[List[float]]:
    """Drop NaN draws, then cut every chain to the shortest one."""
    kept = [[v for v in c if math.isfinite(v)] for c in chains]
    n = min(len(c) for c in kept)
    return [c[:n] for c in kept]


def check_fit(out: Path, n_chains: int, n_draws: int, true_late: Optional[float],
              rhat_limit: Optional[float]) -> Tuple[List[str], Dict[str, float]]:
    """Problems, plus the benchmark's own diagnostics of the draws."""
    header, recs = read_draws(out / "draws.csv")
    summary = json.loads((out / "summary.json").read_text())
    if header[:3] != ["iter", "chain", "late"]:
        return [f"fit: draws header starts {header[:3]}"], {}
    if len(recs) != n_chains * n_draws:
        return [f"fit: {len(recs)} draw rows, expected {n_chains * n_draws}"], {}
    problems: List[str] = []
    late, theta = chains_of(header, recs, n_chains)
    if any(len(c) != n_draws for c in late):
        return [f"fit: chain lengths {[len(c) for c in late]}, expected {n_draws}"], {}
    for name, chains in theta.items():
        vals = [v for c in chains for v in c]
        if not all(math.isfinite(v) for v in vals):
            problems.append(f"fit: {name} has a non-finite draw")
        elif name.startswith("sigma_") and min(vals) <= 0.0:
            problems.append(f"fit: {name} has a draw <= 0")
        elif not _close(math.fsum(vals) / len(vals), summary["theta"][name]["mean"], 1e-12):
            problems.append(f"fit: {name} mean differs from summary.json")
    flat = sorted(v for c in late for v in c if math.isfinite(v))
    missing = n_chains * n_draws - len(flat)
    diag = {"no_complier_draws": float(missing), "kept_draws": float(len(flat))}
    if summary["late"]["n_missing"] != missing:
        problems.append(f"fit: summary n_missing {summary['late']['n_missing']}, "
                        f"draws miss {missing}")
    if len(flat) < 2:
        return problems + ["fit: fewer than 2 complier-effect draws"], diag
    mean = math.fsum(flat) / len(flat)
    sd = math.sqrt(math.fsum((v - mean) ** 2 for v in flat) / (len(flat) - 1))
    if not _close(mean, summary["late"]["mean"], 1e-12):
        problems.append(f"fit: draws mean {mean} but summary mean {summary['late']['mean']}")

    late_chains = finite_chains(late)
    late_ess = stats.ess(late_chains)
    ess_all = [late_ess] + [stats.ess(c) for c in theta.values()]
    rhat_all = [stats.rhat(late_chains)] + [stats.rhat(c) for c in theta.values()]
    diag.update(late_ess=late_ess, min_ess=min(ess_all), max_rhat=max(rhat_all),
                late_mean=mean, late_sd=sd)
    if true_late is not None:
        # the sample effect is a draw from a correctly specified posterior,
        # so it lies within a few posterior sds of the mean; the Monte Carlo
        # error of the mean is added on top
        mcse = sd / math.sqrt(late_ess)
        if abs(mean - true_late) > 5.0 * sd + 3.0 * mcse:
            problems.append(f"fit: posterior mean {mean:.4f} (sd {sd:.4f}, mcse {mcse:.4f}) "
                            f"is far from the sample effect {true_late:.4f}")
    if rhat_limit is not None and max(rhat_all) > rhat_limit:
        problems.append(f"fit: max split R-hat {max(rhat_all):.3f} above {rhat_limit}")
    return problems, diag


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _two_group(y1: List[float], y0: List[float]) -> Tuple[float, float, float, int]:
    m1, m0 = math.fsum(y1) / len(y1), math.fsum(y0) / len(y0)
    point = m1 - m0
    ss = math.fsum((v - m1) ** 2 for v in y1) + math.fsum((v - m0) ** 2 for v in y0)
    se = math.sqrt(ss / (len(y1) + len(y0) - 2)) * math.sqrt(1 / len(y1) + 1 / len(y0))
    return point, point - Z975 * se, point + Z975 * se, len(y1) + len(y0)


def expected_comparison(rows: List[Dict[str, float]], late_draws: List[float]
                        ) -> Dict[str, Tuple[float, float, float, int]]:
    (a1, a2), (b1, b2) = ARMS

    def ys(pred):
        return [r["y"] for r in rows if pred(r)]

    kept = lambda r: r["w1"] == r["z1"] and r["w2"] == r["z2"]
    flat = sorted(late_draws)
    return {
        "bayes_late": (math.fsum(flat) / len(flat), stats.hazen_quantile(flat, 0.025),
                       stats.hazen_quantile(flat, 0.975), len(flat)),
        "itt": _two_group(ys(lambda r: (r["z1"], r["z2"]) == (a1, a2)),
                          ys(lambda r: (r["z1"], r["z2"]) == (b1, b2))),
        "per_protocol": _two_group(ys(lambda r: kept(r) and (r["z1"], r["z2"]) == (a1, a2)),
                                   ys(lambda r: kept(r) and (r["z1"], r["z2"]) == (b1, b2))),
        "as_treated": _two_group(ys(lambda r: (r["w1"], r["w2"]) == (a1, a2)),
                                 ys(lambda r: (r["w1"], r["w2"]) == (b1, b2))),
    }


def check_compare(sim_out: Path, fit_out: Path, comparison: Path) -> List[str]:
    _, rows = read_dataset(sim_out / "dataset.csv")
    header, recs = read_draws(fit_out / "draws.csv")
    late = [float(r[2]) for r in recs if r[2] != ""]
    true_late = json.loads((sim_out / "dataset.truth.json").read_text())["true_late"]
    expect = expected_comparison(rows, late)
    with comparison.open(newline="") as fh:
        table = list(csv.DictReader(fh))
    problems: List[str] = []
    if [r["method"] for r in table] != list(expect):
        return [f"compare: methods {[r['method'] for r in table]}"]
    for r in table:
        point, lo, hi, n_used = expect[r["method"]]
        got = (float(r["point"]), float(r["lo"]), float(r["hi"]))
        if not all(_close(g, e, 1e-9) for g, e in zip(got, (point, lo, hi))) \
                or int(r["n_used"]) != n_used:
            problems.append(f"compare: {r['method']} row {got + (r['n_used'],)} "
                            f"but recomputed {(point, lo, hi, n_used)}")
        if true_late is not None and not _close(float(r["bias"]), point - true_late, 1e-9):
            problems.append(f"compare: {r['method']} bias {r['bias']} but "
                            f"point - sample effect is {point - true_late}")
    return problems


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def check_validate(rc: int, stdout: str) -> List[str]:
    lines = [ln for ln in stdout.splitlines() if ln[:4] in ("PASS", "FAIL")]
    problems = [f"validate: {ln}" for ln in lines if not ln.startswith("PASS")]
    if rc != 0:
        problems.append(f"validate: exit code {rc}")
    if len(lines) < 6:
        problems.append(f"validate: {len(lines)} check lines, expected at least 6")
    return problems
