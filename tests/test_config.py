import ast
import dataclasses
import json
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcsim import config, fockstats, multiplex, trialsim
from fcsim.config import (
    FWHM_TO_TAU,
    ValidatedConfig,
    config_from_dict,
    config_to_dict,
    dumps_config,
    integer,
    loads_config,
    number,
)
from fcsim.errors import (
    ConfigError,
    EnergyConservationViolated,
    MissingConfigKey,
    NonPhysicalParameter,
    UnknownConfigKey,
)
from oracles import replace_fields_by_dataclasses_replace


def test_published_wavelengths_validate(primary):
    assert abs(primary.lambda_r_exact_nm - 999.2) < 0.05


def test_identity_translation(primary):
    # equal control wavelengths leave the signal wavelength unchanged
    cfg = primary.replace_fields(**{
        "scheme.lambda_p_nm": 791.4,
        "scheme.lambda_q_nm": 791.4,
        "scheme.lambda_r_nm": 971.5,
    })
    assert cfg.lambda_r_exact_nm == pytest.approx(971.5, abs=1e-9)


def test_walkoff_ratio_value(primary):
    assert primary.walkoff_ratio == pytest.approx(4.1095, abs=0.001)
    assert primary.control_tau_ps == pytest.approx(13.5 / FWHM_TO_TAU)


def test_survival_values(primary):
    def survival(lifetime):
        cfg = primary.replace_fields(**{"cavity.ringdown_lifetime_cycles": lifetime})
        return cfg.survival_per_cycle

    assert primary.survival_per_cycle == pytest.approx(math.exp(-1 / 111), rel=1e-12)
    assert survival(12.0) == pytest.approx(0.9200, abs=5e-5)
    # lossless limit
    assert survival(1e18) == pytest.approx(1.0)
    with pytest.raises(NonPhysicalParameter):
        survival(-3.0)


def test_energy_conservation_rejects_typo(primary):
    with pytest.raises(EnergyConservationViolated) as err:
        primary.replace_fields(**{"scheme.lambda_h_nm": 670.0})
    assert "pair generation" in str(err.value)
    with pytest.raises(EnergyConservationViolated) as err:
        primary.replace_fields(**{"scheme.lambda_r_nm": 990.0})
    assert "translation" in str(err.value)


def test_translation_to_a_negative_wavenumber_is_nonphysical(primary):
    """1/l_s - (1/l_q - 1/l_p) <= 0 has no output wavelength: the check names
    the relation before comparing lambda_r_nm."""
    with pytest.raises(NonPhysicalParameter, match="non-positive output wavenumber"):
        primary.replace_fields(**{"scheme.lambda_q_nm": 1e-3})


def test_nonphysical_rejected(primary):
    with pytest.raises(NonPhysicalParameter):
        primary.replace_fields(**{"pulses.energy_p_nj": -1.0})
    with pytest.raises(NonPhysicalParameter):
        primary.replace_fields(**{"cavity.reflectivity_r": 1.2})


def test_validate_idempotent(primary):
    again = dataclasses.replace(primary)
    assert again == primary


def test_direct_construction_validates(primary):
    """The constructor is the validator: built from its six sections, a
    config equals the loaded one, and one out-of-range field is rejected."""
    sections = {f.name: getattr(primary, f.name)
                for f in dataclasses.fields(primary) if f.init}
    assert ValidatedConfig(**sections) == primary
    sections["cavity"] = dataclasses.replace(primary.cavity, reflectivity_r=1.2)
    with pytest.raises(NonPhysicalParameter, match=re.escape("cavity.reflectivity_r")):
        ValidatedConfig(**sections)


def test_dataclasses_replace_rederives(primary):
    cavity = dataclasses.replace(primary.cavity, ringdown_lifetime_cycles=67.0)
    cfg = dataclasses.replace(primary, cavity=cavity)
    assert cfg.survival_per_cycle == math.exp(-1 / 67.0)
    assert cfg.walkoff_ratio == primary.walkoff_ratio


def test_roundtrip_byte_identical(primary, alternate):
    for cfg in (primary, alternate):
        text = dumps_config(cfg)
        assert dumps_config(loads_config(text)) == text


def test_shipped_files_are_canonical():
    from fcsim import default_config_path
    for name in ("primary_cavity", "alternate_cavity"):
        path = default_config_path(name)
        text = path.read_text()
        assert dumps_config(loads_config(text)) == text


def test_unknown_keys_fail_closed(primary):
    doc = config_to_dict(primary)
    doc["extra"] = 1
    with pytest.raises(UnknownConfigKey):
        config_from_dict(doc)
    doc = config_to_dict(primary)
    doc["cavity"]["typo_key"] = 1
    with pytest.raises(UnknownConfigKey):
        config_from_dict(doc)
    with pytest.raises(UnknownConfigKey):
        primary.replace_fields(**{"cavity.nope": 1.0})


# Keys that configs once had although the model reads none of them: the facet
# exit fractions are in eta_herald_path and eta_s_path, the pump energy is in
# mean_pairs_per_pulse, and every time is counted in cavity cycles.
REMOVED_KEYS = ["cavity.reflectivity_h", "cavity.reflectivity_s", "cavity.cycle_time_ns",
                "cavity.cavity_freq_mhz", "pulses.energy_pump_nj", "pulses.rep_rate_mhz"]


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_is_unknown(primary, key):
    """A config that still has a removed key fails closed, naming the key,
    whether it comes from a file or from replace_fields."""
    section, _, name = key.partition(".")
    doc = config_to_dict(primary)
    doc[section][name] = 1.0
    with pytest.raises(UnknownConfigKey, match=re.escape(name)):
        loads_config(json.dumps(doc))
    with pytest.raises(UnknownConfigKey, match=re.escape(name)):
        primary.replace_fields(**{key: 1.0})


def test_config_has_only_the_model_inputs():
    assert len(CONFIG_FIELDS) == 28
    assert not set(REMOVED_KEYS) & set(CONFIG_FIELDS)


def _without(doc, section, key=None):
    if key is None:
        del doc[section]
    else:
        del doc[section][key]
    return doc


@pytest.mark.parametrize("edit, message", [
    (lambda doc: _without(doc, "noise"), "missing top-level key(s): ['noise']"),
    (lambda doc: _without(doc, "cavity", "length_m"),
     "missing key(s) in section 'cavity': ['length_m']"),
    (lambda doc: {**doc, "pulses": [1.0, 2.0]}, "section 'pulses' must be an object"),
    (lambda doc: 3, "the config must be an object"),
    (lambda doc: None, "the config must be an object"),
    (lambda doc: [], "the config must be an object"),
    (lambda doc: "x", "the config must be an object"),
], ids=["missing_section", "missing_key", "section_not_an_object", "config_int",
        "config_null", "config_list", "config_string"])
def test_missing_config_key(primary, edit, message):
    doc = edit(config_to_dict(primary))
    with pytest.raises(MissingConfigKey, match=re.escape(message)):
        loads_config(json.dumps(doc))


@settings(deadline=None)
@given(
    beta=st.floats(1.0, 50.0),
    length=st.floats(0.1, 10.0),
    fwhm=st.floats(1.0, 50.0),
    scale=st.floats(1.5, 4.0),
)
def test_walkoff_ratio_scaling(primary, beta, length, fwhm, scale):
    """zeta is linear in beta and L and inverse in the control duration."""
    def zeta(b, ln, f):
        cfg = primary.replace_fields(**{
            "cavity.walkoff_ps_per_m": b,
            "cavity.length_m": ln,
            "pulses.control_fwhm_ps": f,
        })
        return cfg.walkoff_ratio

    base = zeta(beta, length, fwhm)
    assert zeta(beta * scale, length, fwhm) == pytest.approx(base * scale, rel=1e-12)
    assert zeta(beta, length * scale, fwhm) == pytest.approx(base * scale, rel=1e-12)
    assert zeta(beta, length, fwhm * scale) == pytest.approx(base / scale, rel=1e-12)


# Expected range of every config field, written independently of fcsim.config:
# (lower bound, lower bound open, upper bound or None).
POSITIVE = (0.0, True, None)
NON_NEGATIVE = (0.0, False, None)
UNIT_INTERVAL = (0.0, False, 1.0)
AT_LEAST_ONE = (1.0, False, None)

EXPECTED_BOUNDS = {
    "scheme.lambda_pump_nm": POSITIVE,
    "scheme.lambda_s_nm": POSITIVE,
    "scheme.lambda_h_nm": POSITIVE,
    "scheme.lambda_p_nm": POSITIVE,
    "scheme.lambda_q_nm": POSITIVE,
    "scheme.lambda_r_nm": POSITIVE,
    "cavity.length_m": POSITIVE,
    "cavity.ringdown_lifetime_cycles": POSITIVE,
    "cavity.walkoff_ps_per_m": POSITIVE,
    "cavity.dispersion_ps2_per_cycle": NON_NEGATIVE,
    "cavity.mismatch_ps_per_cycle": NON_NEGATIVE,
    "cavity.reflectivity_r": UNIT_INTERVAL,
    "pulses.energy_p_nj": NON_NEGATIVE,
    "pulses.energy_q_nj": NON_NEGATIVE,
    "pulses.control_fwhm_ps": POSITIVE,
    "pulses.nonlinear_coeff": NON_NEGATIVE,
    "pulses.clock_rate_khz": POSITIVE,
    "detectors.eta_herald_path": UNIT_INTERVAL,
    "detectors.eta_r_path": UNIT_INTERVAL,
    "detectors.eta_s_path": UNIT_INTERVAL,
    "detectors.dark_prob_per_gate": UNIT_INTERVAL,
    "detectors.splitter_ratio": UNIT_INTERVAL,
    "noise.noise_mean_per_nj": NON_NEGATIVE,
    "noise.mode_count": AT_LEAST_ONE,
    "source.mean_pairs_per_pulse": NON_NEGATIVE,
    "source.schmidt_modes": AT_LEAST_ONE,
    "source.envelope_rms_ps": POSITIVE,
    "source.bandwidth_fwhm_thz": NON_NEGATIVE,
}

# Every field of every section, so that a field added without a bound fails.
CONFIG_FIELDS = [
    f"{section}.{field.name}"
    for section, cls in typing.get_type_hints(ValidatedConfig).items()
    if dataclasses.is_dataclass(cls)
    for field in dataclasses.fields(cls)
]


@pytest.mark.parametrize("key", CONFIG_FIELDS)
def test_every_field_keeps_its_bound(primary, key):
    """Just outside the range, nan and +-inf raise naming the field; the bound
    value itself is accepted when the bound is closed, rejected when open."""
    assert key in EXPECTED_BOUNDS, f"{key} has no expected range"
    lo, lo_open, hi = EXPECTED_BOUNDS[key]
    rejected = [math.nextafter(lo, -math.inf), math.nan, math.inf, -math.inf]
    accepted = []
    (rejected if lo_open else accepted).append(lo)
    if hi is not None:
        rejected.append(math.nextafter(hi, math.inf))
        accepted.append(hi)
    field = key.partition(".")[2]
    for value in rejected:
        with pytest.raises(NonPhysicalParameter, match=re.escape(field)):
            primary.replace_fields(**{key: value})
    for value in accepted:
        primary.replace_fields(**{key: value})


def _replaced(replace, cfg, dotted):
    """repr of the config replace(cfg, **dotted) builds, or the error it raises."""
    try:
        return repr(replace(cfg, **dotted))
    except ConfigError as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("key", CONFIG_FIELDS)
def test_replace_fields_equals_dataclasses_replace(primary, key):
    """replace_fields builds the changed sections and the config with their
    constructors, and gives the config, or raises the error, that the
    dataclasses.replace calls give: for values in and out of range and of
    other types, alone, next to a second key, and next to an unknown one."""
    section, _, name = key.partition(".")
    values = [0.5, 1.0, 0.0, 2, -1.0, 1e300, math.nan, math.inf, True, "0.5", None,
              np.float64(0.25), np.int64(3), 10 ** 400]
    for value in values:
        for dotted in ({key: value}, {"pulses.energy_p_nj": 3.5, key: value},
                       {key: value, "noise.mode_count": 0.5}, {key: value, "cavity.bogus": 1.0},
                       {f"bogus.{name}": value}, {section: value}):
            assert (_replaced(ValidatedConfig.replace_fields, primary, dotted)
                    == _replaced(replace_fields_by_dataclasses_replace, primary, dotted))


@pytest.mark.parametrize("bad", ["as_string", "true", "false"])
@pytest.mark.parametrize("key", CONFIG_FIELDS)
def test_non_number_field_is_nonphysical(primary, key, bad):
    """A JSON string or bool in a numeric field is not read as a number."""
    section, _, field = key.partition(".")
    doc = config_to_dict(primary)
    value = doc[section][field]
    doc[section][field] = {"as_string": str(value), "true": True, "false": False}[bad]
    with pytest.raises(NonPhysicalParameter,
                       match=re.escape(key) + " is not a number"):
        loads_config(json.dumps(doc))


def test_numpy_numbers_are_numbers(primary):
    cfg = primary.replace_fields(**{
        "cavity.length_m": np.float64(primary.cavity.length_m),
        "noise.mode_count": np.int64(2),
        "source.schmidt_modes": np.float32(1.5),
    })
    assert cfg.walkoff_ratio == primary.walkoff_ratio
    assert cfg.noise.mode_count == 2
    assert cfg.source.schmidt_modes == 1.5


def test_integer_beyond_float_range_is_nonphysical(primary):
    doc = config_to_dict(primary)
    doc["cavity"]["length_m"] = 10 ** 400
    with pytest.raises(NonPhysicalParameter, match=r"cavity\.length_m must be finite"):
        loads_config(json.dumps(doc))


def test_integer_rule():
    """An int or numpy integer in range is an integer; a bool, a float (also
    an integral one), a string or None never is, in range or not. The error
    names the argument, its range and the value."""
    for value in (1, 7, np.int64(7), np.uint8(7), 2 ** 70):
        assert integer("x", value, 1) is None and integer("x", value, 0, 2 ** 70) is None
    integer("x", 7, 1, 7)
    for lo, hi, value, match in [(1, math.inf, 0, "x must be >= 1 and an integer, got 0"),
                                 (1, 7, 8, r"x must be within 1\.\.7 and an integer, got 8")]:
        with pytest.raises(NonPhysicalParameter, match=match):
            integer("x", value, lo, hi)
    for value in (True, False, np.True_, 2.0, np.float64(2.0), 2.5, "3", None, math.inf):
        with pytest.raises(NonPhysicalParameter, match=f"x must be >= -inf and an integer, "
                                                       f"got {re.escape(repr(value))}$"):
            integer("x", value, -math.inf)


def test_argument_rules_are_statements_of_their_own():
    """integer and number raise the one error naming the argument, so no
    module uses either as a value or inside a condition: that is a
    predicate with a second, hand-written message beside it."""
    misuse = []
    for path in sorted(Path(config.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        statements = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and id(node) not in statements
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    in ("integer", "number")):
                misuse.append(f"{path.name}:{node.lineno}")
    assert misuse == []


def test_number_rule_defaults_to_any_finite_real():
    assert number("x", -1e300) == -1e300 and number("x", np.int64(3)) == 3.0
    for value, match in [(math.nan, "x must be finite, got nan"), (-math.inf, "finite"),
                         (True, "x is not a number"), ("3", "not a number"),
                         (None, "not a number")]:
        with pytest.raises(NonPhysicalParameter, match=match):
            number("x", value)


def _plan(**changes):
    return multiplex.MultiplexPlan(**{"bins": 3, "bin_spacing_cycles": 1, "herald_prob": 0.1,
                                      "readout_curve": np.ones(5), **changes})


NOT_NUMBERS = (True, np.True_, "3", None)
NOT_INTEGERS = (*NOT_NUMBERS, 2.5, 2.0)

# entry point and argument -> (a call that passes value there, the values it rejects);
# the readout delays, seeds and bootstrap counts have tests of their own
ARGUMENTS = {
    "simulate_run.n_triggers": (lambda cfg, v: trialsim.simulate_run(cfg, 1, v),
                                (*NOT_INTEGERS, 0)),
    "MultiplexPlan.bins": (lambda cfg, v: _plan(bins=v), (*NOT_INTEGERS, 0)),
    "MultiplexPlan.bin_spacing_cycles": (lambda cfg, v: _plan(bin_spacing_cycles=v),
                                         (*NOT_INTEGERS, 0)),
    "MultiplexPlan.switch_latency_cycles": (lambda cfg, v: _plan(switch_latency_cycles=v),
                                            (*NOT_INTEGERS, 0)),
    "MultiplexPlan.herald_prob": (lambda cfg, v: _plan(herald_prob=v),
                                  (*NOT_INTEGERS, 2, -1, math.nan)),
    "optimal_K.max_K": (lambda cfg, v: multiplex.optimal_K(_plan(), v), (*NOT_INTEGERS, 0)),
    "multiplex.readout_curve.max_delay_cycles": (lambda cfg, v: multiplex.readout_curve(cfg, v),
                                                 (*NOT_INTEGERS, -1)),
    "calibrate.targets": (lambda cfg, v: fockstats.calibrate(cfg, {"g2_xc_hs": v}),
                          (*NOT_NUMBERS, math.nan)),
}


@pytest.mark.parametrize("argument, value", [
    (argument, value) for argument, (_, values) in ARGUMENTS.items() for value in values],
    ids=lambda x: x if isinstance(x, str) and "." in x else repr(x))
def test_argument_outside_its_domain_is_nonphysical(primary, tmp_path, monkeypatch,
                                                    argument, value):
    """A bool, a fraction, a string or None where an integer belongs, a
    non-number where a real belongs, and a value outside the range are each
    NonPhysicalParameter, never a raw TypeError or a silently wrong run, and
    nothing is written."""
    monkeypatch.chdir(tmp_path)
    call, _ = ARGUMENTS[argument]
    with pytest.raises(NonPhysicalParameter):
        call(primary, value)
    assert list(tmp_path.iterdir()) == []
