"""Physical parameter set: validation, derived quantities, JSON round-trip.

Every quantity carries its unit in the field name (nm, m, ps, nJ, THz,
kHz), and every time in the model is counted in cavity cycles. Nothing is
ever rescaled implicitly; formulas that need different units convert
explicitly at the point of use. A config holds only what the model reads.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

from . import atomic
from .errors import (
    EnergyConservationViolated,
    MissingConfigKey,
    NonPhysicalParameter,
    UnknownConfigKey,
)

# Relative tolerance for the vacuum-wavenumber energy-conservation checks.
# The published wavelength set satisfies the pair-generation relation to
# ~3e-5 relative, so 1e-4 accepts it while still catching typos.
ENERGY_REL_TOL = 1e-4

# Gaussian intensity envelope exp(-t^2/tau^2): FWHM = tau * sqrt(4 ln 2).
FWHM_TO_TAU = math.sqrt(4.0 * math.log(2.0))

# Gaussian sigma-to-FWHM factor, 2*sqrt(2 ln 2).
SIGMA_TO_FWHM = 2.0 * math.sqrt(2.0 * math.log(2.0))

# A field's declared type is its range: under `from __future__ import annotations` a
# field's type is the name, which _RANGES maps to (lower bound, lower bound open, upper bound).
Positive = NonNegative = UnitInterval = AtLeastOne = float
_RANGES = {"Positive": (0.0, True, math.inf), "NonNegative": (0.0, False, math.inf),
           "UnitInterval": (0.0, False, 1.0), "AtLeastOne": (1.0, False, math.inf)}


@dataclass(frozen=True)
class WavelengthScheme:
    """Vacuum wavelengths (nm) of all six fields in the two mixing processes.

    The pump drives pair generation into signal + herald; the p/q control
    pair translates the stored signal to the output wavelength.
    """

    lambda_pump_nm: Positive
    lambda_s_nm: Positive
    lambda_h_nm: Positive
    lambda_p_nm: Positive
    lambda_q_nm: Positive
    lambda_r_nm: Positive


@dataclass(frozen=True)
class FiberCavityParams:
    """Fiber cavity geometry, loss, dispersion and timing mismatch. Times are
    counted in cavity cycles; the herald and stored-signal facet exit
    fractions are part of eta_herald_path and eta_s_path (DetectorParams)."""

    length_m: Positive
    ringdown_lifetime_cycles: Positive
    walkoff_ps_per_m: Positive               # signal-control group velocity walk-off
    dispersion_ps2_per_cycle: NonNegative    # second-order dispersion accumulated per cycle
    mismatch_ps_per_cycle: NonNegative       # per-cycle slip between signal and control arrival
    reflectivity_r: UnitInterval


@dataclass(frozen=True)
class PulseParams:
    """Control pulse energies (nJ) and duration, and the trigger rate
    clock_rate_khz; the pump energy is part of SourceParams.mean_pairs_per_pulse."""

    energy_p_nj: NonNegative
    energy_q_nj: NonNegative
    control_fwhm_ps: Positive
    nonlinear_coeff: NonNegative  # fitted scale in (ps/m)/sqrt(nJ); see readout module
    clock_rate_khz: Positive


@dataclass(frozen=True)
class DetectorParams:
    """Per-arm collection*detection efficiencies and detector imperfections.

    eta_herald_path folds in the one-pass exit fraction of the herald
    (the partially reflective facet) together with collection and the
    detector quantum efficiency. eta_s_path plays the same role for the
    leakage monitor on the stored wavelength, and eta_r_path for the
    translated output arm (excluding the facet exit factor, which is
    carried separately by reflectivity_r).
    """

    eta_herald_path: UnitInterval
    eta_r_path: UnitInterval
    eta_s_path: UnitInterval
    dark_prob_per_gate: UnitInterval
    splitter_ratio: UnitInterval


@dataclass(frozen=True)
class NoiseParams:
    """Broadband noise photons co-propagating with the output signal.

    The mean detected noise count per trigger scales linearly with the
    p-control energy; mode_count is the effective number of thermal modes
    (a pure noise mode then shows g2 = 1 + 1/mode_count).
    """

    noise_mean_per_nj: NonNegative
    mode_count: AtLeastOne


@dataclass(frozen=True)
class SourceParams:
    """Pair source strength and the stored-signal wavepacket description.

    envelope_rms_ps is the RMS duration of the stored signal intensity
    envelope at generation time (it inherits the duration of the pump that
    produced it). bandwidth_fwhm_thz is the measured spectral width of the
    signal (intensity FWHM, ordinary frequency); the wavepacket is far from
    transform limited, so duration and bandwidth are independent inputs.
    """

    mean_pairs_per_pulse: NonNegative
    schmidt_modes: AtLeastOne
    envelope_rms_ps: Positive
    bandwidth_fwhm_thz: NonNegative


@dataclass(frozen=True)
class ValidatedConfig:
    """The six parameter sections, validated on construction, plus derived quantities.

    Every field must lie in the range its type names in _RANGES and the
    wavelengths must conserve energy; a config that fails either check is
    never made, whether it comes from load_config, replace_fields,
    dataclasses.replace or the constructor. The fields with init=False are derived:
      control_tau_ps = control_fwhm_ps / sqrt(4 ln 2)
      walkoff_ratio  = walkoff * length / control_tau
      survival_per_cycle = exp(-1 / ringdown_lifetime)
      lambda_r_exact_nm from the translation relation
      spectral_rms_rad_per_ps = 2 pi * bandwidth_fwhm / (2 sqrt(2 ln 2))
    Immutable after construction; safe to share across threads/processes.
    """

    scheme: WavelengthScheme
    cavity: FiberCavityParams
    pulses: PulseParams
    detectors: DetectorParams
    noise: NoiseParams
    source: SourceParams
    control_tau_ps: float = field(init=False)      # control 1/e intensity half-width
    walkoff_ratio: float = field(init=False)       # total walk-off beta*L over control tau
    survival_per_cycle: float = field(init=False)  # intensity survival per cavity cycle
    lambda_r_exact_nm: float = field(init=False)   # output wavelength from the scheme
    spectral_rms_rad_per_ps: float = field(init=False)  # signal spectral RMS width

    def __post_init__(self) -> None:
        self._finish(_FIELDS)

    def _finish(self, fields: dict) -> None:
        """Check fields (a _FIELDS subset, in its order) and the wavelengths; set
        the derived fields."""
        for section, ranges in fields.items():
            values = vars(getattr(self, section))
            for name, bound in ranges.items():
                value = values[name]
                # A float strictly inside its range passes here; number decides the rest.
                if type(value) is not float or not bound[0] < value < bound[2]:
                    number(f"{section}.{name}", value, bound)
        lambda_r = _energy_conserving_lambda_r(self.scheme)
        cavity = self.cavity
        tau = self.pulses.control_fwhm_ps / FWHM_TO_TAU
        derived = {
            "control_tau_ps": tau,
            "walkoff_ratio": cavity.walkoff_ps_per_m * cavity.length_m / tau,
            "survival_per_cycle": math.exp(-1.0 / cavity.ringdown_lifetime_cycles),
            "lambda_r_exact_nm": lambda_r,
            "spectral_rms_rad_per_ps":
                2.0 * math.pi * self.source.bandwidth_fwhm_thz / SIGMA_TO_FWHM,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def noise_mean_per_trigger(self) -> float:
        """Mean detected noise photons per trigger at the configured p energy."""
        return self.noise.noise_mean_per_nj * self.pulses.energy_p_nj

    def replace_fields(self, **dotted) -> "ValidatedConfig":
        """Return a new validated config with individual fields replaced.

        Keys use section.field form, e.g. replace_fields(**{"source.mean_pairs_per_pulse": 0.1}).
        """
        changes = {}
        for key, value in dotted.items():
            section, _, name = key.partition(".")
            if section not in _FIELDS:
                raise UnknownConfigKey(f"no config section named {section!r}")
            if name not in _FIELDS[section]:
                raise UnknownConfigKey(f"no key {name!r} in section {section!r}")
            changes.setdefault(section, {})[name] = value
        # the constructor's work, checking only the fields set here: every other
        # field is this config's, checked when it was made
        new = object.__new__(type(self))
        for section in _SECTION_TYPES:
            old = getattr(self, section)
            object.__setattr__(new, section, type(old)(**{**vars(old), **changes[section]})
                               if section in changes else old)
        new._finish({section: {name: bound for name, bound in ranges.items()
                               if name in changes[section]}
                     for section, ranges in _FIELDS.items() if section in changes})
        return new


_SECTION_TYPES = {
    "scheme": WavelengthScheme,
    "cavity": FiberCavityParams,
    "pulses": PulseParams,
    "detectors": DetectorParams,
    "noise": NoiseParams,
    "source": SourceParams,
}

# section -> field -> its range, in declaration order
_FIELDS = {section: {f.name: _RANGES[f.type] for f in dataclasses.fields(cls)}
           for section, cls in _SECTION_TYPES.items()}


def number(key: str, value, bound: tuple = (-math.inf, False, math.inf)) -> float:
    """value as a float; NonPhysicalParameter naming key unless it is a finite
    number, not a bool or a string, inside bound (a _RANGES value; any finite real)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise NonPhysicalParameter(f"{key} is not a number: {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an int beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise NonPhysicalParameter(f"{key} must be finite, got {value!r}")
    lo, lo_open, hi = bound
    if v < lo or (lo_open and v == lo):
        op = ">" if lo_open else ">="
        raise NonPhysicalParameter(f"{key} must be {op} {lo}, got {v}")
    if v > hi:
        raise NonPhysicalParameter(f"{key} must be <= {hi}, got {v}")
    return v


def integer(value, lo, hi=math.inf) -> bool:
    """Whether value is an int or other numbers.Integral (numpy's too), not a bool, in
    lo..hi; a plain int is tested first, as hot paths check readout delays one by one."""
    return (type(value) is int or isinstance(value, numbers.Integral)
            and not isinstance(value, bool)) and lo <= value <= hi


def _energy_conserving_lambda_r(scheme: WavelengthScheme) -> float:
    """Check both energy-conservation relations; return the exact output wavelength."""
    # Pair generation: two pump photons -> signal + herald (vacuum wavenumbers).
    lhs = 2.0 / scheme.lambda_pump_nm
    rhs = 1.0 / scheme.lambda_s_nm + 1.0 / scheme.lambda_h_nm
    rel = abs(lhs - rhs) / lhs
    if rel > ENERGY_REL_TOL:
        raise EnergyConservationViolated(
            "pair generation: |2/l_pump - 1/l_s - 1/l_h| / (2/l_pump) = "
            f"{rel:.3e} exceeds {ENERGY_REL_TOL:.0e}"
        )

    # Frequency translation: 1/l_r = 1/l_s - (1/l_q - 1/l_p).
    inv = 1.0 / scheme.lambda_s_nm - (1.0 / scheme.lambda_q_nm - 1.0 / scheme.lambda_p_nm)
    if inv <= 0:
        raise NonPhysicalParameter("translation relation gives non-positive output wavenumber")
    lambda_r = 1.0 / inv
    rel = abs(1.0 / scheme.lambda_r_nm - 1.0 / lambda_r) * lambda_r
    if rel > ENERGY_REL_TOL:
        raise EnergyConservationViolated(
            "frequency translation: declared lambda_r_nm disagrees with "
            f"1/l_s - (1/l_q - 1/l_p) by {rel:.3e} relative (> {ENERGY_REL_TOL:.0e})"
        )
    return lambda_r


# ---------------------------------------------------------------------------
# JSON serialization. Unknown keys anywhere are an error (fail closed).
# ---------------------------------------------------------------------------

def _exact_keys(data, names, what: str, keys: str) -> dict:
    """data if it is a JSON object holding exactly the keys names, else
    MissingConfigKey or UnknownConfigKey; what names the object, keys its keys."""
    if not isinstance(data, dict):
        raise MissingConfigKey(f"{what} must be an object")
    unknown = set(data) - set(names)
    if unknown:
        raise UnknownConfigKey(f"unknown {keys}: {sorted(unknown)}")
    missing = set(names) - set(data)
    if missing:
        raise MissingConfigKey(f"missing {keys}: {sorted(missing)}")
    return data


def config_from_dict(doc) -> ValidatedConfig:
    _exact_keys(doc, _SECTION_TYPES, "the config", "top-level key(s)")
    return ValidatedConfig(**{
        name: cls(**_exact_keys(doc[name], _FIELDS[name],
                                f"section {name!r}", f"key(s) in section {name!r}"))
        for name, cls in _SECTION_TYPES.items()})


def config_to_dict(config: ValidatedConfig) -> dict:
    return {name: dataclasses.asdict(getattr(config, name)) for name in _SECTION_TYPES}


def dumps_config(config) -> str:
    """Canonical JSON form: sorted keys, 2-space indent, trailing newline.

    Floats use Python repr (shortest exact round-trip), so
    serialize -> parse -> serialize is byte-identical.
    """
    return json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"


def loads_config(text: str) -> ValidatedConfig:
    return config_from_dict(json.loads(text))


def load_config(path) -> ValidatedConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read())


def save_config(config, path) -> None:
    atomic.write_text(path, dumps_config(config))


def config_hash(config) -> str:
    """SHA-256 of the canonical JSON form, for run manifests."""
    import hashlib  # here, not at the top: only this function uses it

    return hashlib.sha256(dumps_config(config).encode("utf-8")).hexdigest()
