"""INI run configuration.

Three sections, all optional unless the consuming subcommand needs them:

    [dgp]      keys are DgpConfig field names; n and seed are required
    [sampler]  keys are SamplerConfig field names; seed may be left to the CLI
    [prior]    keys are PriorSpec field names

compliance_probs and assignment_probs accept either a comma-separated
constant form ("0.2, 0.6, 0.2" / "0.5, 0.5") or a logit form with one
coefficient row per piece ("logit: 0.4 -0.3 | -0.2 0.1").
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from .errors import ParseError, UnknownKey
from .gibbs import SamplerConfig, THETA_UPDATE_MODES
from .model import PriorSpec
from .simulate import (
    AssignmentSpec,
    ComplianceSpec,
    ConstantAssignment,
    ConstantCompliance,
    DgpConfig,
    LogitAssignment,
    LogitCompliance,
)

_DGP_KEYS = ("n", "seed", "p", "compliance_probs", "assignment_probs",
             "intermediate_coeffs", "intermediate_noise_sd",
             "outcome_coeffs", "outcome_noise_sd", "all_cells")
_SAMPLER_KEYS = ("seed", "n_chains", "n_warmup", "n_draws",
                 "theta_update", "mh_step_scale")
_PRIOR_KEYS = ("coef_sd", "scale_shape", "scale_rate")
_SECTIONS = {"dgp": _DGP_KEYS, "sampler": _SAMPLER_KEYS, "prior": _PRIOR_KEYS}


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration; dgp is None when the file has no [dgp] section."""

    dgp: Optional[DgpConfig]
    sampler: SamplerConfig
    prior: PriorSpec


def _ctx(section: str, key: str) -> str:
    return f"[{section}] {key}"


def _parse_int(section: str, key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{_ctx(section, key)}: expected an integer, got {text!r}") from None


def _parse_float(section: str, key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{_ctx(section, key)}: expected a number, got {text!r}") from None


def _parse_bool(section: str, key: str, text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ParseError(f"{_ctx(section, key)}: expected a boolean, got {text!r}")


def _parse_float_list(section: str, key: str, text: str) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise ParseError(f"{_ctx(section, key)}: expected numbers, got {text!r}")
    return np.array([_parse_float(section, key, p) for p in parts])


def _parse_logit_rows(section: str, key: str, body: str):
    rows = body.split("|")
    if len(rows) != 2:
        raise ParseError(
            f"{_ctx(section, key)}: logit form needs two '|'-separated rows, got {body!r}")
    return tuple(_parse_float_list(section, key, r) for r in rows)


def _parse_compliance(section: str, key: str, text: str) -> ComplianceSpec:
    t = text.strip()
    if t.lower().startswith("logit:"):
        gnt, gat = _parse_logit_rows(section, key, t[len("logit:"):])
        return LogitCompliance(gnt, gat)
    vals = _parse_float_list(section, key, t)
    if vals.shape[0] != 3:
        raise ParseError(
            f"{_ctx(section, key)}: constant form needs 3 probabilities, got {vals.shape[0]}")
    return ConstantCompliance(tuple(vals))


def _parse_assignment(section: str, key: str, text: str) -> AssignmentSpec:
    t = text.strip()
    if t.lower().startswith("logit:"):
        c1, c2 = _parse_logit_rows(section, key, t[len("logit:"):])
        return LogitAssignment(c1, c2)
    vals = _parse_float_list(section, key, t)
    if vals.shape[0] != 2:
        raise ParseError(
            f"{_ctx(section, key)}: constant form needs 2 probabilities, got {vals.shape[0]}")
    return ConstantAssignment(float(vals[0]), float(vals[1]))


def parse_config(text: str, source: str = "<string>") -> RunConfig:
    """Parse INI text.  Unknown sections or keys raise UnknownKey; malformed
    values raise ParseError; field-level validation errors (for example a
    negative noise scale) propagate as InvalidConfig from the dataclasses."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text, source=source)
    except configparser.Error as e:
        raise ParseError(f"{source}: {e}") from None

    for section in parser.sections():
        if section not in _SECTIONS:
            raise UnknownKey(f"{source}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise UnknownKey(f"{source}: unknown key {_ctx(section, key)}")

    dgp = None
    if parser.has_section("dgp"):
        sec = parser["dgp"]
        for required in ("n", "seed"):
            if required not in sec:
                raise ParseError(f"{source}: [dgp] requires key {required!r}")
        kwargs: Dict[str, object] = {
            "n": _parse_int("dgp", "n", sec["n"]),
            "seed": _parse_int("dgp", "seed", sec["seed"]),
        }
        if "p" in sec:
            kwargs["p"] = _parse_int("dgp", "p", sec["p"])
        if "compliance_probs" in sec:
            kwargs["compliance_probs"] = _parse_compliance(
                "dgp", "compliance_probs", sec["compliance_probs"])
        if "assignment_probs" in sec:
            kwargs["assignment_probs"] = _parse_assignment(
                "dgp", "assignment_probs", sec["assignment_probs"])
        if "intermediate_coeffs" in sec:
            kwargs["intermediate_coeffs"] = _parse_float_list(
                "dgp", "intermediate_coeffs", sec["intermediate_coeffs"])
        if "outcome_coeffs" in sec:
            kwargs["outcome_coeffs"] = _parse_float_list(
                "dgp", "outcome_coeffs", sec["outcome_coeffs"])
        if "intermediate_noise_sd" in sec:
            kwargs["intermediate_noise_sd"] = _parse_float(
                "dgp", "intermediate_noise_sd", sec["intermediate_noise_sd"])
        if "outcome_noise_sd" in sec:
            kwargs["outcome_noise_sd"] = _parse_float(
                "dgp", "outcome_noise_sd", sec["outcome_noise_sd"])
        if "all_cells" in sec:
            kwargs["all_cells"] = _parse_bool("dgp", "all_cells", sec["all_cells"])
        dgp = DgpConfig(**kwargs)

    skw: Dict[str, object] = {}
    if parser.has_section("sampler"):
        sec = parser["sampler"]
        if "seed" in sec:
            skw["seed"] = _parse_int("sampler", "seed", sec["seed"])
        if "n_chains" in sec:
            skw["n_chains"] = _parse_int("sampler", "n_chains", sec["n_chains"])
        if "n_warmup" in sec:
            skw["n_warmup"] = _parse_int("sampler", "n_warmup", sec["n_warmup"])
        if "n_draws" in sec:
            skw["n_draws"] = _parse_int("sampler", "n_draws", sec["n_draws"])
        if "theta_update" in sec:
            mode = sec["theta_update"].strip()
            skw["theta_update"] = mode
        if "mh_step_scale" in sec:
            skw["mh_step_scale"] = _parse_float("sampler", "mh_step_scale", sec["mh_step_scale"])
    sampler = SamplerConfig(**skw)

    pkw: Dict[str, object] = {}
    if parser.has_section("prior"):
        sec = parser["prior"]
        for key in _PRIOR_KEYS:
            if key in sec:
                pkw[key] = _parse_float("prior", key, sec[key])
    prior = PriorSpec(**pkw)
    return RunConfig(dgp=dgp, sampler=sampler, prior=prior)


def load_config(path: Union[str, Path]) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not a text file: {e}") from None
    return parse_config(text, source=str(path))


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _fmt_compliance(spec: ComplianceSpec) -> str:
    if isinstance(spec, ConstantCompliance):
        return ", ".join(repr(v) for v in spec.probs)
    return ("logit: " + " ".join(repr(float(v)) for v in spec.gamma_nt)
            + " | " + " ".join(repr(float(v)) for v in spec.gamma_at))


def _fmt_assignment(spec: AssignmentSpec) -> str:
    if isinstance(spec, ConstantAssignment):
        return f"{spec.pi_z1!r}, {spec.pi_z2!r}"
    return ("logit: " + " ".join(repr(float(v)) for v in spec.coef_z1)
            + " | " + " ".join(repr(float(v)) for v in spec.coef_z2))


def emit_config(cfg: RunConfig) -> str:
    """Render a RunConfig as INI text; parse_config(emit_config(c)) == c and
    a second emit of the reparse is byte-identical."""
    lines = []
    if cfg.dgp is not None:
        d = cfg.dgp
        lines.append("[dgp]")
        lines.append(f"n = {d.n}")
        lines.append(f"seed = {d.seed}")
        lines.append(f"p = {d.p}")
        lines.append(f"compliance_probs = {_fmt_compliance(d.compliance_probs)}")
        lines.append(f"assignment_probs = {_fmt_assignment(d.assignment_probs)}")
        lines.append("intermediate_coeffs = "
                     + " ".join(repr(float(v)) for v in d.intermediate_coeffs))
        lines.append(f"intermediate_noise_sd = {d.intermediate_noise_sd!r}")
        lines.append("outcome_coeffs = "
                     + " ".join(repr(float(v)) for v in d.outcome_coeffs))
        lines.append(f"outcome_noise_sd = {d.outcome_noise_sd!r}")
        lines.append(f"all_cells = {_fmt_value(d.all_cells)}")
        lines.append("")
    s = cfg.sampler
    lines.append("[sampler]")
    if s.seed is not None:
        lines.append(f"seed = {s.seed}")
    lines.append(f"n_chains = {s.n_chains}")
    lines.append(f"n_warmup = {s.n_warmup}")
    lines.append(f"n_draws = {s.n_draws}")
    lines.append(f"theta_update = {s.theta_update}")
    lines.append(f"mh_step_scale = {s.mh_step_scale!r}")
    lines.append("")
    pr = cfg.prior
    lines.append("[prior]")
    lines.append(f"coef_sd = {pr.coef_sd!r}")
    lines.append(f"scale_shape = {pr.scale_shape!r}")
    lines.append(f"scale_rate = {pr.scale_rate!r}")
    lines.append("")
    return "\n".join(lines)
