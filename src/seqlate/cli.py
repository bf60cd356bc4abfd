"""Command-line interface.

Subcommands:

    simulate   draw a synthetic dataset from a config file
    fit        run the posterior sampler on a dataset
    compare    tabulate the posterior estimate against the naive baselines
    validate   run the built-in exactness self-checks

Every run that writes files also writes a manifest.json recording the
subcommand, resolved seed, SHA-256 digests of inputs and outputs, the tool
version, and a UTC timestamp.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import secrets
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .config import emit_config, load_config
from .dataio import (
    read_dataset_csv,
    read_draws_csv,
    read_summary_contrast,
    read_truth_json,
    truth_sidecar_path,
    write_dataset_csv,
    write_draws_csv,
    write_truth_json,
)
from .domain import AT, CO, DEFAULT_CONTRAST, Contrast, Dataset
from .errors import (
    DataError,
    DimensionMismatch,
    EmptyArm,
    InconsistentUnit,
    InvalidConfig,
    MonotonicityViolation,
    NoCompliers,
    NumericalOverflow,
    ParseError,
    SchemaError,
    TooFewDraws,
    TooLarge,
    UndefinedCell,
    UnknownKey,
)
from .estimate import compare_methods
from .gibbs import SamplerConfig, fit as run_fit
from .model import PriorSpec
from .simulate import GroundTruth, simulate_dataset, true_sample_late
# the summary's effective sample size is the multi-chain one
from .validate import multi_ess as ess, rhat, run_validation_suite

log = logging.getLogger(__name__)

_USAGE_EXIT = 2
_DATA_EXIT = 3
_NUMERIC_EXIT = 4

_THETA_UPDATE_ALIASES = {
    "conjugate": "conjugate_gibbs",
    "conjugate_gibbs": "conjugate_gibbs",
    "marginal": "marginal_mh",
    "marginal_mh": "marginal_mh",
}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_dir: Path, subcommand: str, seed: Optional[int],
                    config_path: Optional[str], inputs: Sequence[Path],
                    outputs: Sequence[Path]) -> Path:
    doc = {
        "tool": f"seqlate {__version__}",
        "subcommand": subcommand,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config_path": config_path,
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _resolve_seed(flag_seed: Optional[int], config_seed: Optional[int]) -> int:
    if flag_seed is not None:
        return flag_seed
    if config_seed is not None:
        return config_seed
    seed = secrets.randbits(63)
    log.info("no seed given; generated %d", seed)
    return seed


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if cfg.dgp is None:
        raise InvalidConfig(f"{args.config}: simulate requires a [dgp] section")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data, truth = simulate_dataset(cfg.dgp)
    data_path = out_dir / "dataset.csv"
    write_dataset_csv(data, data_path)
    truth_path = truth_sidecar_path(data_path)
    write_truth_json(truth, truth_path)
    config_path = out_dir / "effective_config.ini"
    config_path.write_text(emit_config(cfg))
    _write_manifest(out_dir, "simulate", cfg.dgp.seed, str(args.config),
                    inputs=[Path(args.config)],
                    outputs=[data_path, truth_path, config_path])
    n_co = truth.n_co
    late_txt = "undefined" if math.isnan(truth.true_late) else f"{truth.true_late:.4f}"
    print(f"wrote {data_path} ({len(data)} units, {n_co} compliers, "
          f"sample complier effect {late_txt})")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _chain_diagnostics(mat: np.ndarray) -> Tuple[Optional[float], Optional[float]]:
    """Split-chain R-hat and multi-chain effective size over the iterations
    at which every chain has a defined draw, or None when too few remain."""
    aligned = mat[:, np.isfinite(mat).all(axis=0)]
    n = aligned.shape[1]
    r = rhat(aligned) if aligned.shape[0] >= 2 and n >= 4 else None
    e = ess(aligned) if n >= 10 else None
    return r, e


def _scalar_summary(mat: np.ndarray) -> Dict[str, object]:
    flat = mat.ravel()
    finite = flat[np.isfinite(flat)]
    r, e = _chain_diagnostics(mat)
    out: Dict[str, object] = {
        "mean": float(finite.mean()) if finite.size else None,
        "sd": float(finite.std(ddof=1)) if finite.size > 1 else None,
        "n_missing": int(flat.size - finite.size),
        "rhat": r,
        "ess": e,
    }
    if finite.size:
        q = np.quantile(finite, [0.025, 0.5, 0.975], method="hazen")
        out.update(q025=float(q[0]), q500=float(q[1]), q975=float(q[2]))
    else:
        out.update(q025=None, q500=None, q975=None)
    return out


# split R-hat of the complier effect above which fit warns
_RHAT_WARN = 1.01


def _warn_if_unconverged(late: Dict[str, object], n_compliers: np.ndarray) -> None:
    """Warn when the chains disagree on the complier effect or some kept
    draw had no compliers; the written outputs do not change."""
    r = late["rhat"]
    if r is not None and r > _RHAT_WARN:
        log.warning("complier effect split R-hat %.3f exceeds %.2f: the chains have not "
                    "converged; run more warmup and draws", r, _RHAT_WARN)
    empty = int((n_compliers == 0).sum())
    if empty:
        log.warning("%d of %d kept draws had no compliers; their complier effect is "
                    "undefined", empty, n_compliers.size)


def _cmd_fit(args) -> int:
    contrast = _parse_contrast(args)
    data_path = Path(args.data)
    data = read_dataset_csv(data_path)
    if args.config is not None:
        cfg = load_config(args.config)
        sampler, prior = cfg.sampler, cfg.prior
    else:
        sampler, prior = SamplerConfig(), PriorSpec()
    overrides: Dict[str, object] = {}
    if args.chains is not None:
        overrides["n_chains"] = args.chains
    if args.draws is not None:
        overrides["n_draws"] = args.draws
    if args.warmup is not None:
        overrides["n_warmup"] = args.warmup
    if args.theta_update is not None:
        overrides["theta_update"] = _THETA_UPDATE_ALIASES[args.theta_update]
    if args.mh_step_scale is not None:
        overrides["mh_step_scale"] = args.mh_step_scale
    seed = _resolve_seed(args.seed, sampler.seed)
    overrides["seed"] = seed
    sampler = dataclasses.replace(sampler, **overrides)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_fit(data, prior, sampler, contrast=contrast)

    names = result.theta_names()
    draws_path = out_dir / "draws.csv"
    write_draws_csv(draws_path, names, result.late, result.theta)

    summary = {
        "n_chains": sampler.n_chains,
        "n_warmup": sampler.n_warmup,
        "n_draws": sampler.n_draws,
        "theta_update": sampler.theta_update,
        "seed": seed,
        "contrast": [list(contrast[0]), list(contrast[1])],
        "late": _scalar_summary(result.late),
        "theta": {name: _scalar_summary(result.theta[:, :, j])
                  for j, name in enumerate(names)},
    }
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")

    inputs = [data_path] + ([Path(args.config)] if args.config else [])
    _write_manifest(out_dir, "fit", seed, args.config,
                    inputs=inputs, outputs=[draws_path, summary_path])
    s = summary["late"]
    _warn_if_unconverged(s, result.n_compliers)
    mean_txt = "undefined" if s["mean"] is None else f"{s['mean']:.4f}"
    rhat_txt = "n/a" if s["rhat"] is None else f"{s['rhat']:.3f}"
    print(f"wrote {draws_path}; complier effect mean {mean_txt}, rhat {rhat_txt}")
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _parse_arm(text: str, flag: str) -> Tuple[int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or any(p not in ("0", "1") for p in parts):
        raise ParseError(f"{flag}: expected two comma-separated binary values, got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_contrast(args) -> Contrast:
    return (_parse_arm(args.treated, "--treated"),
            _parse_arm(args.control, "--control"))


def _check_truth_matches(truth: GroundTruth, sidecar: Path, data: Dataset,
                         data_path: Path) -> None:
    """SchemaError unless each unit's label reproduces its receipts and its
    observed cells are, bit for bit, the dataset's x2 and y."""
    if len(truth) != len(data):
        raise SchemaError(f"{sidecar}: ground truth for {len(truth)} units, "
                          f"but {data_path} has {len(data)}")
    rows = np.arange(len(data))
    receipts = np.where(truth.codes == CO, [data.z1, data.z2], truth.codes == AT)
    cells = np.array([truth.x2_cells[rows, data.w1], truth.y_cells[rows, 2 * data.w1 + data.w2]])
    bad = ((receipts != [data.w1, data.w2]).any(axis=0)
           | (cells.view(np.int64) != np.array([data.x2, data.y]).view(np.int64)).any(axis=0))
    if bad.any():
        i = int(np.argmax(bad))
        raise SchemaError(f"{sidecar}: unit {i + 1} does not match row {i + 1} of {data_path}: "
                          f"its label or its observed cells differ, so the ground truth "
                          f"belongs to another dataset")


def _cmd_compare(args) -> int:
    data_path = Path(args.data)
    data = read_dataset_csv(data_path)
    arms = _parse_contrast(args)
    # a fit directory without summary.json carries no contrast: the default
    summary_path = Path(args.fit) / "summary.json"
    fitted = (read_summary_contrast(summary_path) if summary_path.exists()
              else DEFAULT_CONTRAST)
    if arms != fitted:
        raise InvalidConfig(
            f"--treated {args.treated} --control {args.control} differ from the "
            f"contrast {fitted[0]} versus {fitted[1]} that {args.fit} was fitted for; "
            f"refit with the same --treated/--control")
    draws_path = Path(args.fit) / "draws.csv"
    _, _, late, _ = read_draws_csv(draws_path)
    true_late = None
    sidecar = truth_sidecar_path(data_path)
    if sidecar.exists():
        truth = read_truth_json(sidecar)
        _check_truth_matches(truth, sidecar, data, data_path)
        true_late = true_sample_late(truth, arms) if truth.n_co else None
    table = compare_methods(data, late[np.isfinite(late)], arms=arms,
                            true_late=true_late)

    out_path = Path(args.out) if args.out else Path(args.fit) / "comparison.csv"
    cols = ["method", "point", "lo", "hi", "n_used"]
    if true_late is not None:
        cols.append("bias")
    lines = [",".join(cols)]
    for row in table:
        rendered = []
        for c in cols:
            v = row.get(c)
            rendered.append("" if v is None else (repr(v) if isinstance(v, float) else str(v)))
        lines.append(",".join(rendered))
    out_path.write_text("\n".join(lines) + "\n")

    header = f"{'method':<14}{'point':>10}{'95% lo':>10}{'95% hi':>10}{'n':>8}"
    if true_late is not None:
        header += f"{'bias':>10}"
    print(header)
    for row in table:
        lo = "" if row["lo"] is None else f"{row['lo']:.4f}"
        hi = "" if row["hi"] is None else f"{row['hi']:.4f}"
        line = f"{row['method']:<14}{row['point']:>10.4f}{lo:>10}{hi:>10}{row['n_used']:>8}"
        if true_late is not None:
            line += f"{row['bias']:>10.4f}"
        print(line)
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    results = run_validation_suite(n_sweeps=args.sweeps, seed=args.seed)
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        failed += 0 if res.passed else 1
        print(f"{tag}  {res.name}: {res.detail}")
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqlate",
        description="Latent-stratum posterior inference for two-period "
                    "randomized designs with noncompliance.")
    parser.add_argument("--version", action="version", version=f"seqlate {__version__}")
    parser.add_argument("--log-level", choices=("error", "warn", "info", "debug"),
                        default="warn")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw a synthetic dataset")
    p_sim.add_argument("--config", required=True, help="INI file with a [dgp] section")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="run the posterior sampler")
    p_fit.add_argument("--data", required=True, help="dataset CSV")
    p_fit.add_argument("--config", help="INI file with [sampler] / [prior] sections")
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.add_argument("--chains", type=int)
    p_fit.add_argument("--draws", type=int)
    p_fit.add_argument("--warmup", type=int)
    p_fit.add_argument("--seed", type=int)
    p_fit.add_argument("--theta-update", choices=sorted(_THETA_UPDATE_ALIASES))
    p_fit.add_argument("--mh-step-scale", type=float)
    p_fit.add_argument("--treated", default="1,1",
                       help="treated arm of the complier contrast as 'z1,z2' (default 1,1)")
    p_fit.add_argument("--control", default="0,0",
                       help="control arm of the complier contrast as 'z1,z2' (default 0,0)")
    p_fit.set_defaults(func=_cmd_fit)

    p_cmp = sub.add_parser("compare", help="posterior estimate vs naive baselines")
    p_cmp.add_argument("--data", required=True, help="dataset CSV")
    p_cmp.add_argument("--fit", required=True, help="directory holding draws.csv")
    p_cmp.add_argument("--out", help="comparison CSV path (default: <fit>/comparison.csv)")
    p_cmp.add_argument("--treated", default="1,1",
                       help="treated arm as 'z1,z2' (default 1,1); must match the fit's")
    p_cmp.add_argument("--control", default="0,0",
                       help="control arm as 'z1,z2' (default 0,0); must match the fit's")
    p_cmp.set_defaults(func=_cmd_compare)

    p_val = sub.add_parser("validate", help="run the exactness self-checks")
    p_val.add_argument("--sweeps", type=int, default=200_000)
    p_val.add_argument("--seed", type=int, default=20260819)
    p_val.set_defaults(func=_cmd_validate)
    return parser


_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}

_USAGE_ERRORS = (InvalidConfig, ParseError, UnknownKey)
_DATA_ERRORS = (SchemaError, DataError, InconsistentUnit, EmptyArm, NoCompliers,
                TooFewDraws, UndefinedCell, TooLarge, DimensionMismatch,
                MonotonicityViolation)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=_LOG_LEVELS[args.log_level],
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except _USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return _USAGE_EXIT
    except _DATA_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return _DATA_EXIT
    except NumericalOverflow as e:
        print(f"error: {e}", file=sys.stderr)
        return _NUMERIC_EXIT
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return _DATA_EXIT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
