"""Exact, closed-form click statistics from probability-generating functions.

The per-trigger model is:

    pair source (number-correlated herald/signal, negative binomial over
                 the Schmidt modes)
      -> binomial loss on the herald arm
      -> three-way split of each signal photon: leaks to the monitor arm
         in the readout bin, is read out, or stays/disappears
      -> independent multimode-thermal noise added to the readout mode
      -> threshold detectors (herald, monitor, and a two-way split of the
         readout mode), each with a dark-count probability per gate

Every photon is routed independently, so the probability that no detector
of a set A clicks is the generating function of each source evaluated at
the probability that one of its photons misses A (Christ & Silberhorn,
PRA 85, 023829 (2012)). Everything downstream (click probabilities,
correlation functions, calibration) follows from those 16 numbers, with no
photon-number truncation. They are indexed by record mask, and the pattern
and ratio tables of fcsim.patterns turn them into the observables.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .config import ValidatedConfig, number
from .errors import (
    DivisionByZeroRate,
    NoConvergence,
    Underdetermined,
)
from .patterns import AT_LEAST, DETECTOR_BITS, PATTERN_MASKS, PATTERN_MATRIX, RATIOS
from . import readout
from .readout import signal_branch_probs

_MASKS = np.arange(16)
_HAS = (_MASKS[:, None] & np.array(list(DETECTOR_BITS.values()))) > 0  # (mask, detector)
_SET_SIZE = _HAS.sum(axis=1)
# 1.0 where the detector is in the set: the set memberships no_click_table weighs
_H, _S, _R1, _R2 = _HAS.T.astype(float)
# EXACT[c, a]: coefficient of Q(a) in P(exactly the detectors of c click); by
# inclusion-exclusion, a is the silent set of c plus a subset s of c, with sign (-1)^|s|
EXACT = np.where((_MASKS[:, None] | _MASKS[None, :]) == 15,
                 (-1) ** _SET_SIZE[_MASKS[:, None] & _MASKS[None, :]], 0)
# no-click probabilities times these integer weights give the pattern probabilities
_PATTERN_WEIGHTS = (EXACT.T @ PATTERN_MATRIX).astype(float)
_AT_LEAST_WEIGHTS = (EXACT.T @ AT_LEAST.T).astype(float)


def pattern_probs(q) -> dict:
    """Pattern name -> probability from no-click probabilities q[..., mask]:
    arrays over the rows of q, or floats for one row of 16."""
    p = np.maximum(q @ _PATTERN_WEIGHTS, 0.0)
    return dict(zip(PATTERN_MASKS, p.tolist() if p.ndim == 1 else p.T))


def ratio(p: dict, name: str, controls: dict | None = None):
    """The correlation RATIOS[name] from the pattern probabilities p.

    With the pattern probabilities of a controls-only run, their readout
    click probability is subtracted from heralding_efficiency (background
    subtraction by differencing). A correlation whose denominator vanishes
    is None; no herald and no readout clicks at all raise DivisionByZeroRate.
    """
    if p["h"] == 0 and p["r"] == 0:
        raise DivisionByZeroRate(
            "no herald and no readout clicks: vacuum input or zero efficiency")
    num, den = RATIOS[name]
    d = math.prod(p[n] for n in den)
    value = math.prod(p[n] for n in num) / d if d > 0 else None
    if controls is not None and name == "heralding_efficiency" and value is not None:
        value -= controls["r"]
    return value


def correlations(p: dict, controls: dict | None = None) -> dict:
    """Every correlation of RATIOS from the pattern probabilities p, as ratio gives it."""
    return {name: ratio(p, name, controls) for name in RATIOS}


# ---------------------------------------------------------------------------
# The click engine
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _detector_terms(n_bar: float, m: float, f: float, dark: float):
    """Read-only factors of Q(A) that only the noise and the detectors set:
    e_A, the noise exponent M log1p(nbar/M e_A), the dark powers (1-d)^|A|
    and the source-off row (1-d)^|A| exp(-noise)."""
    e = f * _R1 + (1.0 - f) * _R2
    noise = m * np.log1p(n_bar / m * e)
    dark_powers = (1.0 - dark) ** _SET_SIZE
    source_off = (dark_powers * np.exp(-noise))[None]
    for a in (e, noise, dark_powers, source_off):
        a.flags.writeable = False
    return e, noise, dark_powers, source_off


def no_click_table(cfg: ValidatedConfig, q_mon, chain, include_source: bool = True):
    """No-click probabilities Q(A) of the 16 detector sets, shape (branches, 16).

    Row i has the branch probabilities (q_mon[i], chain[i]), column A is the
    record mask of the set; include_source=False turns the pair source off
    (controls-only run), and the branches do not enter. With
    e_A = f [R1 in A] + (1-f) [R2 in A] the chance that a readout photon
    reaches A and z_A = (1 - eta_h [H in A]) (1 - q_mon [S in A] - c e_A)
    the chance that no photon of one pair does,

        Q(A) = (1-d)^|A| (1 + mu/k (1-z_A))^-k (1 + nbar/M e_A)^-M.

    The powers go through log1p so Q stays accurate for large k and M. The
    factors without the source are cached per (nbar, M, f, d), so a root
    search over a source or efficiency field computes them once; a source-off
    table repeats their row on every branch, the bits of mu = 0.
    """
    det = cfg.detectors
    e, noise, dark_powers, source_off = _detector_terms(
        cfg.noise_mean_per_trigger(), cfg.noise.mode_count, det.splitter_ratio,
        det.dark_prob_per_gate)
    if not include_source:
        return np.repeat(source_off, np.broadcast(q_mon, chain).size, axis=0)
    q_mon, chain = (np.atleast_1d(v)[:, None] for v in (q_mon, chain))
    mu, k = cfg.source.mean_pairs_per_pulse, cfg.source.schmidt_modes
    z = (1.0 - det.eta_herald_path * _H) * (1.0 - q_mon * _S - chain * e)
    return dark_powers * np.exp(-k * np.log1p(mu / k * (1.0 - z)) - noise)


def model_patterns(cfg: ValidatedConfig, delay_cycles: int = 1, total=None,
                   include_source: bool = True) -> dict:
    """Pattern name -> click probability of one trigger at a readout delay;
    total as in signal_branch_probs. A controls-only run needs no readout."""
    branches = (signal_branch_probs(cfg, delay_cycles, total) if include_source
                else (0.0, 0.0))
    return pattern_probs(no_click_table(cfg, *branches, include_source)[0])


@dataclass(frozen=True)
class ClickProbabilities:
    """Joint click statistics of H, S, R1, R2 from one row of no_click_table."""

    q: np.ndarray  # no-click probability of each detector set, by record mask

    @property
    def no_click(self) -> dict:
        """Detector set (frozenset of names) -> Q(set)."""
        return {frozenset(d for d, bit in DETECTOR_BITS.items() if mask & bit): float(v)
                for mask, v in enumerate(self.q)}

    def p_all(self, *names) -> float:
        """P(all named detectors click, others unconstrained)."""
        mask = sum(DETECTOR_BITS[d] for d in set(names))
        return max(float(self.q @ _AT_LEAST_WEIGHTS[:, mask]), 0.0)

    p = p_all  # p(name): P(that detector clicks)


def click_model(cfg: ValidatedConfig, delay_cycles: int = 1,
                include_source: bool = True):
    """(means, clicks) of one trigger: the mean detected photon numbers of the
    modes 'herald', 'monitor' and 'readout', and a view of its no_click_table
    row. With include_source=False the pair source is off (controls-only run).
    """
    mu = cfg.source.mean_pairs_per_pulse if include_source else 0.0
    q_mon, chain = (float(v[0]) for v in signal_branch_probs(cfg, delay_cycles))
    means = {"herald": mu * cfg.detectors.eta_herald_path, "monitor": mu * q_mon,
             "readout": mu * chain + cfg.noise_mean_per_trigger()}
    return means, ClickProbabilities(no_click_table(cfg, q_mon, chain, include_source)[0])


def model_report(cfg: ValidatedConfig, delay_cycles: int = 1) -> dict:
    """Rates (cps), correlation values and efficiencies of the forward model."""
    p = model_patterns(cfg, delay_cycles)
    clock = cfg.pulses.clock_rate_khz * 1e3
    rates = {
        "herald_cps": p["h"] * clock,
        "monitor_cps": p["s"] * clock,
        "readout_cps": p["r"] * clock,
        "herald_readout_cps": p["hr"] * clock,
        "triple_cps": p["hr1r2"] * clock,
    }
    corr = correlations(p, model_patterns(cfg, include_source=False))
    return {"delay_cycles": delay_cycles, "rates": rates, "correlations": corr}


def heralded_g2_curve(cfg: ValidatedConfig, delays) -> list:
    """Heralded auto-correlation g2_ac_heralded versus readout delay.

    From one engine call over all delays (integers >= 1). Returns
    [(T, g2), ...], each g2 the ratio model_report gives at T. Where its
    denominator is zero, model_report gives None for this one entry of its
    report; the curve, one quantity, raises DivisionByZeroRate naming the
    first such delay.
    """
    p = pattern_probs(no_click_table(cfg, *signal_branch_probs(cfg, delays)))
    ts = np.atleast_1d(np.asarray(delays)).astype(int).tolist()
    num, den = RATIOS["g2_ac_heralded"]
    denominator = math.prod(p[n] for n in den)
    zero = np.flatnonzero(denominator == 0)
    if zero.size:
        raise DivisionByZeroRate(f"no heralded readout clicks at delay {ts[zero[0]]}: "
                                 "g2_ac_heralded is undefined there")
    return list(zip(ts, (math.prod(p[n] for n in num) / denominator).tolist()))


# ---------------------------------------------------------------------------
# Calibration: invert the forward model onto measured targets
# ---------------------------------------------------------------------------

class _Target(NamedTuple):
    """How a calibration target is pinned.

    No brentq field enters the readout curve, so a solve evaluates it once.
    A dedicated solve reads no field a later target sets (the herald
    efficiency's reads only mu, k and the dark count), so calibrate runs
    those solves in the first pass only.
    """

    field: str                     # the config field the target pins
    value: Callable                # (config, its readout_curve at [1]) -> model value
    solve: Callable | None = None  # dedicated solver (config, target value) ->
                                   # (field, model evaluations it made),
    bracket: tuple = ()            # else brentq over this interval of the field,
    log: bool = False              # or of log(field) when log is set


def _g2_xc_hs(cfg: ValidatedConfig, curve) -> float:
    # number-basis identity for the pair source: g2 = 1 + 1/k + 1/mu
    mu, k = cfg.source.mean_pairs_per_pulse, cfg.source.schmidt_modes
    return (1.0 + 1.0 / k + 1.0 / mu) if mu > 0 else math.inf


def _mu_for_g2_xc_hs(cfg: ValidatedConfig, value: float):
    k = cfg.source.schmidt_modes
    floor = 1.0 + 1.0 / k
    if value <= floor:
        raise NoConvergence(
            f"g2_xc_hs target {value} is at or below the {floor:.3f} floor "
            f"of a {k}-mode source")
    return 1.0 / (value - floor), 0  # closed form: no model evaluation


def _eta_herald_for_rate(cfg: ValidatedConfig, value: float):
    # p(H) = 1 - (1-d) (1 + mu eta_h / k)^-k, inverted: no model evaluation
    mu, k = cfg.source.mean_pairs_per_pulse, cfg.source.schmidt_modes
    dark = cfg.detectors.dark_prob_per_gate
    clock = cfg.pulses.clock_rate_khz * 1e3

    def rate(eta_h):
        return -math.expm1(math.log1p(-dark) - k * math.log1p(mu * eta_h / k)) * clock

    lo, hi = rate(0.0), rate(1.0)
    # the engine's own rate at an end can round to just outside [lo, hi]; the end
    # reproduces a target within REL_TOL of it
    if not lo * (1.0 - REL_TOL) <= value <= hi * (1.0 + REL_TOL):
        raise _unreachable("herald_rate_cps", value, lo, hi)
    if lo == hi:  # mu = 0 or d = 1: every efficiency gives the rate
        return cfg.detectors.eta_herald_path, 0
    p = min(max(value, lo), hi) / clock
    x = k / mu * math.expm1((math.log1p(-dark) - math.log1p(-p)) / k)
    return min(max(x, 0.0), 1.0), 0


def _coeff_for_eta_conversion(cfg: ValidatedConfig, value: float):
    found = {}
    return readout.solve_nonlinear_coeff(cfg, value, found), found["evaluations"]


def _rate(pattern: str) -> Callable:
    """Model value of a click rate in cps: the pattern's probability times the clock."""
    def value(cfg: ValidatedConfig, curve) -> float:
        return model_patterns(cfg, 1, curve[2])[pattern] * (cfg.pulses.clock_rate_khz * 1e3)
    return value


def _g2_noise(cfg: ValidatedConfig, curve) -> float:
    return ratio(model_patterns(cfg, include_source=False), "g2_noise")


def _heralded_prob(cfg: ValidatedConfig, curve) -> float:
    return ratio(model_patterns(cfg, 1, curve[2]), "heralding_efficiency",
                 model_patterns(cfg, include_source=False))


# target name -> how it is pinned, in solving order within one pass
# (later entries depend on earlier ones)
_TARGETS = {
    "g2_xc_hs": _Target("source.mean_pairs_per_pulse", _g2_xc_hs,
                        solve=_mu_for_g2_xc_hs),
    "eta_conversion": _Target("pulses.nonlinear_coeff", lambda cfg, curve: float(curve[1][0]),
                              solve=_coeff_for_eta_conversion),
    "herald_rate_cps": _Target("detectors.eta_herald_path", _rate("h"),
                               solve=_eta_herald_for_rate),
    "g2_noise": _Target("noise.mode_count", _g2_noise,
                        bracket=(0.0, math.log(1e6)), log=True),
    "r_rate_cps": _Target("noise.noise_mean_per_nj", _rate("r"), bracket=(0.0, 2.0)),
    "heralded_prob": _Target("detectors.eta_r_path", _heralded_prob,
                             bracket=(1e-9, 1.0)),
}

# target name -> the single config field it pins down
CALIBRATION_PAIRS = {name: target.field for name, target in _TARGETS.items()}

# calibration stops once every relative residual is within REL_TOL
REL_TOL = 1e-6

# brentq tolerance on each solved field, as a fraction of REL_TOL
SOLVE_TOL_FRACTION = 1e-2

# calibration gives up if the residuals are not within REL_TOL after this many passes
MAX_PASSES = 4


def _unreachable(name: str, value: float, lo: float, hi: float) -> NoConvergence:
    return NoConvergence(
        f"{name} target {value!r} is unreachable: varying {_TARGETS[name].field} over "
        f"its range gives {name} only from {lo:.6g} to {hi:.6g}")


def _solve_target(cfg: ValidatedConfig, name: str, value: float):
    """(cfg with the field that target name pins solved so its model value
    equals value, the model evaluations the solve made).

    NoConvergence if the bracket ends do not bracket the value. Each target
    moves at most in proportion to its field (g2_noise to log M), so the
    field resolved to SOLVE_TOL_FRACTION * REL_TOL keeps its residual in
    REL_TOL. brentq starts from the bracket ends evaluated here, and gets
    their values back without a second evaluation.
    """
    target = _TARGETS[name]
    if target.solve is not None:
        x, evaluations = target.solve(cfg, value)
        return cfg.replace_fields(**{target.field: x}), evaluations
    from . import solvers

    to_field = math.exp if target.log else float
    curve = readout.readout_curve(cfg, [1])

    @solvers.evaluated_once
    def model(x):
        return target.value(cfg.replace_fields(**{target.field: to_field(x)}), curve)

    lo, hi = target.bracket
    at_lo, at_hi = model(lo), model(hi)
    if (at_lo - value) * (at_hi - value) > 0:
        raise _unreachable(name, value, min(at_lo, at_hi), max(at_lo, at_hi))
    tol = max(SOLVE_TOL_FRACTION * REL_TOL, 4.0 * sys.float_info.epsilon)
    x = solvers.brentq(lambda x: model(x) - value, lo, hi, xtol=1e-3 * tol, rtol=tol)
    return cfg.replace_fields(**{target.field: to_field(x)}), len(model.values)


def _evaluate_targets(cfg: ValidatedConfig, targets: dict) -> dict:
    curve = readout.readout_curve(cfg, [1])
    return {name: _TARGETS[name].value(cfg, curve) - value for name, value in targets.items()}


def calibrate(cfg: ValidatedConfig, targets: dict, diagnostics: dict | None = None):
    """Solve the parameters the targets pin so the forward model reproduces them.

    Each target pins exactly one parameter (see CALIBRATION_PAIRS). The
    one-dimensional solves run in passes because the targets are weakly
    coupled (see _Target); calibration stops after the first pass that
    leaves every relative residual within REL_TOL. Returns (config,
    residuals); raises Underdetermined for a target with no pinned
    parameter, NonPhysicalParameter for a target value that is not a finite number,
    and NoConvergence if residuals remain after MAX_PASSES passes.

    A diagnostics dict, if given, receives "passes" (the passes run),
    "worst_relative_residual" (after each pass) and "model_evaluations"
    (target -> the model values its solves computed, summed over the
    passes), also when calibration fails to converge.
    """
    unknown = set(targets) - set(CALIBRATION_PAIRS)
    if unknown:
        raise Underdetermined(f"no rule to invert target(s) {sorted(unknown)}")
    for name, value in targets.items():
        number(f"calibration target {name}", value)
    names = [n for n in _TARGETS if n in targets]
    record = {} if diagnostics is None else diagnostics
    record["passes"] = 0
    worst = record["worst_relative_residual"] = []
    evaluations = record["model_evaluations"] = dict.fromkeys(names, 0)

    for n_pass in range(MAX_PASSES):
        for name in names:
            if n_pass == 0 or _TARGETS[name].solve is None:
                cfg, made = _solve_target(cfg, name, targets[name])
                evaluations[name] += made
        residuals = _evaluate_targets(cfg, {n: targets[n] for n in names})
        relative = {n: abs(r) / max(abs(targets[n]), 1e-12) for n, r in residuals.items()}
        record["passes"] = n_pass + 1
        worst.append(max(relative.values(), default=0.0))
        off = [n for n, rel in relative.items() if rel > REL_TOL]
        if not off:
            return cfg, residuals
    raise NoConvergence(
        f"calibration residual for {off[0]} is {residuals[off[0]]:.3e} "
        f"(relative {relative[off[0]]:.2e}) after {MAX_PASSES} passes",
        best=cfg, residual=residuals)
