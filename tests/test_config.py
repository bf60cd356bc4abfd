"""INI parsing, validation propagation, and emit round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlate.config import _SECTIONS, emit_config, load_config, parse_config
from seqlate.errors import InvalidConfig, ParseError, SeqlateError, UnknownKey
from seqlate.simulate import (
    ConstantAssignment,
    ConstantCompliance,
    LogitAssignment,
    LogitCompliance,
)

FULL = """\
[dgp]
n = 500
seed = 42
p = 2
compliance_probs = 0.2, 0.6, 0.2
assignment_probs = 0.4, 0.7
intermediate_coeffs = 0.5 0.3 0.1 1.0 0.5 -0.5
intermediate_noise_sd = 0.8
outcome_coeffs = 0.0 0.3 0.2 0.5 0.4 0.6 0.3 0.8 -0.8
outcome_noise_sd = 1.1
all_cells = false

[sampler]
seed = 7
n_chains = 3
n_warmup = 200
n_draws = 400
theta_update = marginal_mh
mh_step_scale = 0.15

[prior]
coef_sd = 4.0
scale_shape = 2.5
scale_rate = 1.5
"""


def test_full_config_parses():
    cfg = parse_config(FULL)
    assert cfg.dgp.n == 500
    assert cfg.dgp.p == 2
    assert cfg.dgp.compliance_probs == ConstantCompliance((0.2, 0.6, 0.2))
    assert cfg.dgp.assignment_probs == ConstantAssignment(0.4, 0.7)
    assert cfg.dgp.intermediate_noise_sd == 0.8
    assert cfg.sampler.seed == 7
    assert cfg.sampler.n_chains == 3
    assert cfg.sampler.theta_update == "marginal_mh"
    assert cfg.prior.coef_sd == 4.0
    assert cfg.prior.scale_rate == 1.5


def test_minimal_config_uses_defaults():
    cfg = parse_config("[dgp]\nn = 10\nseed = 1\n")
    assert cfg.dgp.p == 1
    assert cfg.dgp.compliance_probs == ConstantCompliance((0.2, 0.6, 0.2))
    assert cfg.sampler.n_chains == 4
    assert cfg.sampler.seed is None
    assert cfg.prior.coef_sd == 5.0


def test_config_without_dgp_section():
    cfg = parse_config("[sampler]\nn_draws = 50\n")
    assert cfg.dgp is None
    assert cfg.sampler.n_draws == 50


def test_logit_forms_parse():
    cfg = parse_config(
        "[dgp]\nn = 10\nseed = 1\n"
        "compliance_probs = logit: 0.4 -0.3 | -0.2 0.1\n"
        "assignment_probs = logit: 0.0 1.0 | 0.5 -0.5\n")
    assert cfg.dgp.compliance_probs == LogitCompliance(np.array([0.4, -0.3]),
                                                       np.array([-0.2, 0.1]))
    assert cfg.dgp.assignment_probs == LogitAssignment(np.array([0.0, 1.0]),
                                                       np.array([0.5, -0.5]))


def test_unknown_section_rejected():
    with pytest.raises(UnknownKey, match="mystery"):
        parse_config("[mystery]\nx = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(UnknownKey, match="burn_in"):
        parse_config("[sampler]\nburn_in = 100\n")


@pytest.mark.parametrize("text,fragment", [
    ("[dgp]\nn = ten\nseed = 1\n", "n"),
    ("[dgp]\nn = 10\n", "seed"),
    ("[dgp]\nn = 10\nseed = 1\ncompliance_probs = 0.2, 0.8\n", "compliance_probs"),
    ("[dgp]\nn = 10\nseed = 1\ncompliance_probs = logit: 1 2\n", "compliance_probs"),
    ("[dgp]\nn = 10\nseed = 1\nassignment_probs = logit: 1 | 2 | 3\n", "assignment_probs"),
    ("[sampler]\nmh_step_scale = big\n", "mh_step_scale"),
    ("not an ini file", "<string>"),
])
def test_parse_errors_carry_context(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_config(text)


def test_field_validation_propagates_as_invalid_config():
    with pytest.raises(InvalidConfig, match="intermediate_noise_sd"):
        parse_config("[dgp]\nn = 10\nseed = 1\nintermediate_noise_sd = -1\n")
    with pytest.raises(InvalidConfig, match="theta_update"):
        parse_config("[sampler]\ntheta_update = exact\n")
    with pytest.raises(InvalidConfig, match="coef_sd"):
        parse_config("[prior]\ncoef_sd = 0\n")


def test_emit_parse_round_trip():
    cfg = parse_config(FULL)
    text = emit_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert emit_config(again) == text


def test_emit_round_trip_with_logit_specs():
    cfg = parse_config(
        "[dgp]\nn = 10\nseed = 1\n"
        "compliance_probs = logit: 0.25 -0.125 | -0.2 0.1\n")
    again = parse_config(emit_config(cfg))
    assert again == cfg


# a logit design with every dgp value written out, as emit_config renders it
LOGIT_EMITTED = """\
[dgp]
n = 10
seed = 1
p = 2
compliance_probs = logit: 0.4 -0.3 0.1 | -0.2 0.1 0.05
assignment_probs = logit: 0.0 1.0 -0.5 | 0.5 -0.5 0.25
intermediate_coeffs = 0.5 0.3 0.3 1.0 0.5 -0.5
intermediate_noise_sd = 1.0
outcome_coeffs = 0.0 0.3 0.3 0.5 0.4 0.6 0.3 0.8 -0.8
outcome_noise_sd = 1.0
all_cells = true

[sampler]
n_chains = 4
n_warmup = 1000
n_draws = 2000
theta_update = conjugate_gibbs
mh_step_scale = 0.2

[prior]
coef_sd = 5.0
scale_shape = 2.0
scale_rate = 1.0
"""


@pytest.mark.parametrize("text,emitted", [
    (FULL, FULL),
    ("[dgp]\nn = 10\nseed = 1\np = 2\nall_cells = true\n"
     "compliance_probs = logit: 0.4 -0.3 0.1 | -0.2 0.1 0.05\n"
     "assignment_probs = logit: 0 1 -0.5 | 0.5 -0.5 0.25\n", LOGIT_EMITTED),
], ids=["full", "logit"])
def test_emitted_bytes(text, emitted):
    # the literal text of effective_config.ini, key order and number format
    # included; a config without a sampler seed emits no seed line
    assert emit_config(parse_config(text)) == emitted


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(FULL)
    cfg = load_config(path)
    assert cfg.dgp.n == 500


def _loads_or_refuses(path):
    try:
        load_config(path)
    except SeqlateError:
        pass


@given(st.binary(max_size=300))
@settings(max_examples=150, deadline=None)
def test_load_config_fuzz_arbitrary_bytes(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("ini") / "run.ini"
    path.write_bytes(blob)
    _loads_or_refuses(path)


_VALUES = st.sampled_from(["1", "0", "-3", "2.5", "nan", "inf", "1e400", "9" * 30,
                           "0.2, 0.6, 0.2", "0.5, 0.5", "logit: 0 1 | 1 0", "logit: |",
                           "true", "marginal_mh", "", "x"]) | st.text(max_size=8)


@given(st.dictionaries(
    st.sampled_from(["dgp", "sampler", "prior", "other"]),
    st.dictionaries(st.sampled_from(sorted({key for _, keys in _SECTIONS.values()
                                            for key in keys})),
                    _VALUES, max_size=6),
    max_size=3))
@settings(max_examples=200, deadline=None)
def test_load_config_fuzz_sections_and_values(tmp_path_factory, doc):
    text = "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                   for sec, body in doc.items())
    path = tmp_path_factory.mktemp("ini") / "run.ini"
    path.write_text(text)
    _loads_or_refuses(path)
