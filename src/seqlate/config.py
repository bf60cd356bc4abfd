"""INI run configuration.

Three sections, all optional unless the consuming subcommand needs them:

    [dgp]      keys are DgpConfig field names; n and seed are required
    [sampler]  keys are SamplerConfig field names; seed may be left to the CLI
    [prior]    keys are PriorSpec field names

One table, _SECTIONS, names every key once, with its parser and renderer;
parse_config and emit_config read it, and a section's required keys are its
dataclass's fields without a default.

compliance_probs and assignment_probs accept either a comma-separated
constant form ("0.2, 0.6, 0.2" / "0.5, 0.5") or a logit form with one
coefficient row per piece ("logit: 0.4 -0.3 | -0.2 0.1").
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import ParseError, UnknownKey
from .gibbs import SamplerConfig
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


def _spec_parser(constant, logit, size: int):
    """A parser of the logit form's two rows or the constant form's `size`
    probabilities, which `constant` takes as one sequence."""
    def parse(section: str, key: str, text: str):
        t = text.strip()
        if t.lower().startswith("logit:"):
            body = t[len("logit:"):]
            rows = body.split("|")
            if len(rows) != 2:
                raise ParseError(f"{_ctx(section, key)}: logit form needs two '|'-separated "
                                 f"rows, got {body!r}")
            return logit(*(_parse_float_list(section, key, r) for r in rows))
        vals = _parse_float_list(section, key, t)
        if vals.shape[0] != size:
            raise ParseError(f"{_ctx(section, key)}: constant form needs {size} "
                             f"probabilities, got {vals.shape[0]}")
        return constant(vals)
    return parse


def _fmt_bool(v: bool) -> str:
    return "true" if v else "false"


def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _fmt_spec(spec: Union[ComplianceSpec, AssignmentSpec]) -> str:
    """A logit spec's two rows, or a constant spec's probabilities."""
    values = [getattr(spec, f.name) for f in fields(spec)]
    if isinstance(values[0], np.ndarray):
        return "logit: " + " | ".join(_fmt_floats(row) for row in values)
    return ", ".join(repr(v) for v in np.ravel(values).tolist())


# section -> (dataclass, {key: (parser, renderer)}).  Keys are parsed in
# this order, which decides which of several malformed values is reported;
# emit_config writes them in the dataclass's field order.
_SECTIONS = {
    "dgp": (DgpConfig, {
        "n": (_parse_int, str),
        "seed": (_parse_int, str),
        "p": (_parse_int, str),
        "compliance_probs": (_spec_parser(lambda v: ConstantCompliance(tuple(v)),
                                          LogitCompliance, 3), _fmt_spec),
        "assignment_probs": (_spec_parser(lambda v: ConstantAssignment(*v),
                                          LogitAssignment, 2), _fmt_spec),
        "intermediate_coeffs": (_parse_float_list, _fmt_floats),
        "outcome_coeffs": (_parse_float_list, _fmt_floats),
        "intermediate_noise_sd": (_parse_float, repr),
        "outcome_noise_sd": (_parse_float, repr),
        "all_cells": (_parse_bool, _fmt_bool),
    }),
    "sampler": (SamplerConfig, {
        "seed": (_parse_int, str),
        "n_chains": (_parse_int, str),
        "n_warmup": (_parse_int, str),
        "n_draws": (_parse_int, str),
        "theta_update": (lambda section, key, text: text.strip(), str),
        "mh_step_scale": (_parse_float, repr),
    }),
    "prior": (PriorSpec, {
        "coef_sd": (_parse_float, repr),
        "scale_shape": (_parse_float, repr),
        "scale_rate": (_parse_float, repr),
    }),
}


def _build_section(parser: configparser.ConfigParser, name: str, source: str):
    """The section's dataclass, checking its required keys before parsing
    any value; an absent section is None if it has required keys ([dgp])."""
    cls, keys = _SECTIONS[name]
    required = [f.name for f in fields(cls) if f.default is MISSING]
    if not parser.has_section(name):
        return None if required else cls()
    sec = parser[name]
    for key in required:
        if key not in sec:
            raise ParseError(f"{source}: [{name}] requires key {key!r}")
    return cls(**{key: parse(name, key, sec[key])
                  for key, (parse, _) in keys.items() if key in sec})


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
            if key not in _SECTIONS[section][1]:
                raise UnknownKey(f"{source}: unknown key {_ctx(section, key)}")
    return RunConfig(**{name: _build_section(parser, name, source) for name in _SECTIONS})


def load_config(path: Union[str, Path]) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not a text file: {e}") from None
    return parse_config(text, source=str(path))


def emit_config(cfg: RunConfig) -> str:
    """Render a RunConfig as INI text, without its None sections and values;
    parse_config(emit_config(c)) == c, and re-emitting is byte-identical."""
    lines = []
    for name, (_, keys) in _SECTIONS.items():
        section = getattr(cfg, name)
        if section is None:
            continue
        lines.append(f"[{name}]")
        for f in fields(section):
            value = getattr(section, f.name)
            if value is not None:
                lines.append(f"{f.name} = {keys[f.name][1](value)}")
        lines.append("")
    return "\n".join(lines)
