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
photon-number truncation.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .config import ValidatedConfig
from .errors import (
    DivisionByZeroRate,
    NoConvergence,
    NonPhysicalParameter,
    Underdetermined,
)
from . import readout

DETECTOR_NAMES = ("H", "S", "R1", "R2")


# ---------------------------------------------------------------------------
# Threshold detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClickProbabilities:
    """Joint click statistics of the detectors H, S, R1, R2.

    Stored as no-click probabilities Q(A) = P(no detector in A clicks),
    from which any pattern probability follows by inclusion-exclusion.
    """

    no_click: dict

    def p(self, name: str) -> float:
        return 1.0 - self.no_click[frozenset([name])]

    def p_r(self) -> float:
        """P(at least one readout detector clicks)."""
        return 1.0 - self.no_click[frozenset(["R1", "R2"])]

    def p_hr(self) -> float:
        """P(the herald and at least one readout detector click)."""
        return self.p("H") - (self.no_click[frozenset(["R1", "R2"])]
                              - self.no_click[frozenset(["H", "R1", "R2"])])

    def p_all(self, *names) -> float:
        """P(all named detectors click, others unconstrained)."""
        total = 0.0
        names = tuple(names)
        for r in range(len(names) + 1):
            for sub in itertools.combinations(names, r):
                total += (-1) ** len(sub) * self.no_click[frozenset(sub)]
        return max(total, 0.0)

    def p_exact(self, clicked) -> float:
        """P(exactly this set of detectors clicks)."""
        clicked = frozenset(clicked)
        silent = [d for d in DETECTOR_NAMES if d not in clicked]
        total = 0.0
        for r in range(len(clicked) + 1):
            for sub in itertools.combinations(sorted(clicked), r):
                total += (-1) ** len(sub) * self.no_click[frozenset(silent) | frozenset(sub)]
        return max(total, 0.0)


# ---------------------------------------------------------------------------
# Correlation functions and the standard model chain
# ---------------------------------------------------------------------------

def correlations(clicks: ClickProbabilities, controls_clicks=None) -> dict:
    """Correlation estimators as click-probability ratios.

    heralding_efficiency is the readout click probability given a herald,
    minus the same probability from a controls-only run when provided
    (background subtraction by differencing). Quantities whose denominator
    vanishes are reported as None; a fully dark detector set (no herald
    and no readout clicks at all) raises DivisionByZeroRate.
    """
    p_h = clicks.p("H")
    p_s = clicks.p("S")
    p_r1 = clicks.p("R1")
    p_r2 = clicks.p("R2")
    p_r = clicks.p_r()
    p_hr = clicks.p_hr()
    if p_h == 0 and p_r == 0:
        raise DivisionByZeroRate(
            "no herald and no readout clicks: vacuum input or zero efficiency")

    out = {}
    out["g2_xc_hs"] = (clicks.p_all("H", "S") / (p_h * p_s)
                       if p_h > 0 and p_s > 0 else None)
    out["g2_xc_hr"] = p_hr / (p_h * p_r) if p_h > 0 and p_r > 0 else None
    den = clicks.p_all("H", "R1") * clicks.p_all("H", "R2")
    out["g2_ac_heralded"] = (clicks.p_all("H", "R1", "R2") * p_h / den
                             if den > 0 else None)
    out["g2_noise"] = (clicks.p_all("R1", "R2") / (p_r1 * p_r2)
                       if p_r1 > 0 and p_r2 > 0 else None)
    if p_h > 0:
        p_r_given_h = p_hr / p_h
        if controls_clicks is not None:
            out["heralding_efficiency"] = p_r_given_h - controls_clicks.p_r()
        else:
            out["heralding_efficiency"] = p_r_given_h
    else:
        out["heralding_efficiency"] = None
    return out


def g2_mixture(g2_a: float, n_a: float, g2_b: float, n_b: float) -> float:
    """Auto-correlation of an incoherent mixture of two fields.

    g2 = (g2_a n_a^2 + g2_b n_b^2 + 2 n_a n_b) / (n_a + n_b)^2.
    Symmetric in the two components and invariant under common scaling.
    """
    if n_a < 0 or n_b < 0:
        raise NonPhysicalParameter("mixture means must be >= 0")
    total = n_a + n_b
    if total == 0:
        raise DivisionByZeroRate("mixture has zero total mean")
    return (g2_a * n_a**2 + g2_b * n_b**2 + 2.0 * n_a * n_b) / total**2


def signal_branch_probs(cfg: ValidatedConfig, delay_cycles: int):
    """(monitor, readout) per-photon branch probabilities at a delay.

    A stored photon either leaks toward the monitor arm during the readout
    bin, survives to be read out and collected, or neither; the two
    detected branches are exclusive per photon.
    """
    s = cfg.survival_per_cycle
    q_mon = (1.0 - s) * s ** (delay_cycles - 1) * cfg.detectors.eta_s_path
    _, _, total = readout.readout_probability(delay_cycles, cfg)
    chain = total * (1.0 - cfg.cavity.reflectivity_r) * cfg.detectors.eta_r_path
    return q_mon, chain


def click_model(cfg: ValidatedConfig, delay_cycles: int = 1,
                include_source: bool = True):
    """Click statistics of one trigger of the full chain.

    Returns (means, clicks): the mean detected photon numbers of the modes
    'herald', 'monitor' and 'readout', and the joint click statistics.
    With include_source=False the pair source is off (controls-only run).

    For each detector set A, with e_A = f [R1 in A] + (1-f) [R2 in A] the
    chance that a readout photon reaches A and
    z_A = (1 - eta_h [H in A]) (1 - q_mon [S in A] - c e_A) the chance
    that no photon of one pair does,

        Q(A) = (1-d)^|A| (1 + mu/k (1-z_A))^-k (1 + nbar/M e_A)^-M.

    The powers go through log1p so Q stays accurate for large k and M.
    """
    mu = cfg.source.mean_pairs_per_pulse if include_source else 0.0
    k = cfg.source.schmidt_modes
    n_bar = cfg.noise_mean_per_trigger()
    m = cfg.noise.mode_count
    det = cfg.detectors
    eta_h, f, dark = det.eta_herald_path, det.splitter_ratio, det.dark_prob_per_gate
    q_mon, chain = signal_branch_probs(cfg, delay_cycles)

    no_click = {}
    for r in range(len(DETECTOR_NAMES) + 1):
        for subset in itertools.combinations(DETECTOR_NAMES, r):
            a = frozenset(subset)
            e = f * ("R1" in a) + (1.0 - f) * ("R2" in a)
            z = (1.0 - eta_h * ("H" in a)) * (1.0 - q_mon * ("S" in a) - chain * e)
            no_click[a] = (1.0 - dark) ** len(a) * math.exp(
                -k * math.log1p(mu / k * (1.0 - z)) - m * math.log1p(n_bar / m * e))
    means = {"herald": mu * eta_h, "monitor": mu * q_mon,
             "readout": mu * chain + n_bar}
    return means, ClickProbabilities(no_click)


def model_report(cfg: ValidatedConfig, delay_cycles: int = 1) -> dict:
    """Rates (cps), correlation values and efficiencies of the forward model."""
    _, clicks = click_model(cfg, delay_cycles)
    _, controls = click_model(cfg, delay_cycles, include_source=False)
    clock = cfg.pulses.clock_rate_khz * 1e3
    rates = {
        "herald_cps": clicks.p("H") * clock,
        "monitor_cps": clicks.p("S") * clock,
        "readout_cps": clicks.p_r() * clock,
        "herald_readout_cps": clicks.p_hr() * clock,
        "triple_cps": clicks.p_all("H", "R1", "R2") * clock,
    }
    corr = correlations(clicks, controls)
    return {"delay_cycles": delay_cycles, "rates": rates, "correlations": corr}


def heralded_signal_moments(cfg: ValidatedConfig):
    """(mean, auto_g2) of the detected signal conditioned on a herald click.

    Computed on the noiseless model at unit delay. With G the pair-number
    generating function and x = 1 - eta_h, a herald click has probability
    1 - G(x); given n pairs the detected signal is binomial(n, c), so
    E[n_r; click] = c (G'(1) - x G'(x)) and
    E[n_r (n_r-1); click] = c^2 (G''(1) - x^2 G''(x)). The normalized
    auto-g2 is invariant under further binomial thinning, so it applies at
    any delay, while the mean scales with the retrieval probability.
    """
    mu, k = cfg.source.mean_pairs_per_pulse, cfg.source.schmidt_modes
    _, chain = signal_branch_probs(cfg, 1)
    eta_h = cfg.detectors.eta_herald_path
    x = 1.0 - eta_h
    base = 1.0 + mu / k * eta_h  # G(x) = base^-k
    p_h = -math.expm1(-k * math.log1p(mu / k * eta_h))
    if p_h == 0:
        raise DivisionByZeroRate("herald never clicks in the noiseless model")
    mean = chain * mu * (1.0 - x * base ** (-k - 1)) / p_h
    fact2 = chain**2 * mu**2 * (1.0 + 1.0 / k) * (1.0 - x**2 * base ** (-k - 2)) / p_h
    if mean == 0:
        raise DivisionByZeroRate("signal mean is zero given a herald")
    return mean, fact2 / mean**2


def heralded_g2_curve(cfg: ValidatedConfig, delays) -> list:
    """Mixture-model heralded auto-correlation versus readout delay.

    The heralded signal contribution decays with the retrieval
    probability; the noise contribution is delay independent with
    auto-g2 = 1 + 1/mode_count. Returns [(T, g2), ...].
    """
    n_a1, g2_a = heralded_signal_moments(cfg)
    delays = [int(t) for t in delays]
    total1, *totals = readout.readout_curve(cfg, [1, *delays])[2].tolist()
    n_b = cfg.noise_mean_per_trigger()
    g2_b = 1.0 + 1.0 / cfg.noise.mode_count
    return [(t, g2_mixture(g2_a, n_a1 * total / total1, g2_b, n_b))
            for t, total in zip(delays, totals)]


# ---------------------------------------------------------------------------
# Calibration: invert the forward model onto measured targets
# ---------------------------------------------------------------------------

class _Target(NamedTuple):
    field: str                     # the config field the target pins
    value: Callable                # config -> the target's model value
    solve: Callable | None = None  # dedicated solver (config, target value) -> field,
    bracket: tuple = ()            # else brentq over this interval of the field,
    log: bool = False              # or of log(field) when log is set


def _g2_xc_hs(cfg: ValidatedConfig) -> float:
    # number-basis identity for the pair source: g2 = 1 + 1/k + 1/mu
    mu, k = cfg.source.mean_pairs_per_pulse, cfg.source.schmidt_modes
    return (1.0 + 1.0 / k + 1.0 / mu) if mu > 0 else math.inf


def _mu_for_g2_xc_hs(cfg: ValidatedConfig, value: float) -> float:
    k = cfg.source.schmidt_modes
    floor = 1.0 + 1.0 / k
    if value <= floor:
        raise NoConvergence(
            f"g2_xc_hs target {value} is at or below the {floor:.3f} floor "
            f"of a {k}-mode source")
    return 1.0 / (value - floor)


def _g2_noise(cfg: ValidatedConfig) -> float:
    _, controls = click_model(cfg, 1, include_source=False)
    return correlations(controls)["g2_noise"]


def _heralded_prob(cfg: ValidatedConfig) -> float:
    _, clicks = click_model(cfg, 1)
    _, controls = click_model(cfg, 1, include_source=False)
    return correlations(clicks, controls)["heralding_efficiency"]


# target name -> how it is pinned, in solving order within one pass
# (later entries depend on earlier ones)
_TARGETS = {
    "g2_xc_hs": _Target("source.mean_pairs_per_pulse", _g2_xc_hs,
                        solve=_mu_for_g2_xc_hs),
    "eta_conversion": _Target("pulses.nonlinear_coeff",
                              lambda cfg: readout.conversion_efficiency(cfg, 1),
                              solve=readout.solve_nonlinear_coeff),
    "herald_rate_cps": _Target(
        "detectors.eta_herald_path",
        lambda cfg: click_model(cfg, 1)[1].p("H") * (cfg.pulses.clock_rate_khz * 1e3),
        bracket=(1e-9, 1.0)),
    "g2_noise": _Target("noise.mode_count", _g2_noise,
                        bracket=(0.0, math.log(1e6)), log=True),
    "r_rate_cps": _Target(
        "noise.noise_mean_per_nj",
        lambda cfg: click_model(cfg, 1)[1].p_r() * (cfg.pulses.clock_rate_khz * 1e3),
        bracket=(0.0, 2.0)),
    "heralded_prob": _Target("detectors.eta_r_path", _heralded_prob,
                             bracket=(1e-9, 1.0)),
}

# target name -> the single config field it pins down
CALIBRATION_PAIRS = {name: target.field for name, target in _TARGETS.items()}

# brentq tolerance on each solved field, as a fraction of calibrate's rel_tol
SOLVE_TOL_FRACTION = 1e-2

# calibration gives up if the residuals are not within rel_tol after this many passes
MAX_PASSES = 4


def _solve_target(cfg: ValidatedConfig, name: str, value: float,
                  rel_tol: float) -> ValidatedConfig:
    """cfg with the field that target name pins solved so its model value equals value.

    NoConvergence if the bracket ends do not bracket the value. Each target
    moves at most in proportion to its field (g2_noise to log M), so the
    field resolved to SOLVE_TOL_FRACTION * rel_tol keeps its residual in rel_tol.
    """
    target = _TARGETS[name]
    if target.solve is not None:
        return cfg.replace_fields(**{target.field: target.solve(cfg, value)})
    from scipy.optimize import brentq

    to_field = math.exp if target.log else float

    def model(x):
        return target.value(cfg.replace_fields(**{target.field: to_field(x)}))

    lo, hi = target.bracket
    at_lo, at_hi = model(lo), model(hi)
    if (at_lo - value) * (at_hi - value) > 0:
        raise NoConvergence(
            f"{name} target {value!r} is unreachable: varying "
            f"{target.field} over its bracket gives {name} only from "
            f"{min(at_lo, at_hi):.6g} to {max(at_lo, at_hi):.6g}")
    tol = max(SOLVE_TOL_FRACTION * rel_tol, 4.0 * sys.float_info.epsilon)
    x = brentq(lambda x: model(x) - value, lo, hi, xtol=1e-3 * tol, rtol=tol)
    return cfg.replace_fields(**{target.field: to_field(x)})


def _evaluate_targets(cfg: ValidatedConfig, targets: dict) -> dict:
    return {name: _TARGETS[name].value(cfg) - value for name, value in targets.items()}


def calibrate(cfg: ValidatedConfig, targets: dict, free=None, rel_tol: float = 1e-6):
    """Solve free parameters so the forward model reproduces the targets.

    Each target pins exactly one parameter (see CALIBRATION_PAIRS). The
    one-dimensional solves run in passes because the targets are weakly
    coupled; calibration stops after the first pass that leaves every
    relative residual within rel_tol. Returns (config, residuals); raises
    Underdetermined for unmatched free parameters and NoConvergence if
    residuals remain after MAX_PASSES passes.
    """
    unknown = set(targets) - set(CALIBRATION_PAIRS)
    if unknown:
        raise Underdetermined(f"no rule to invert target(s) {sorted(unknown)}")
    if free is not None:
        free = set(free)
        solvable = {CALIBRATION_PAIRS[name] for name in targets}
        if not free <= solvable:
            raise Underdetermined(
                f"free parameter(s) {sorted(free - solvable)} are not pinned "
                "by any provided target")
    names = [n for n in _TARGETS
             if n in targets and (free is None or CALIBRATION_PAIRS[n] in free)]

    for _ in range(MAX_PASSES):
        for name in names:
            cfg = _solve_target(cfg, name, targets[name], rel_tol)
        residuals = _evaluate_targets(cfg, {n: targets[n] for n in names})
        relative = {n: abs(r) / max(abs(targets[n]), 1e-12) for n, r in residuals.items()}
        off = [n for n, rel in relative.items() if rel > rel_tol]
        if not off:
            return cfg, residuals
    raise NoConvergence(
        f"calibration residual for {off[0]} is {residuals[off[0]]:.3e} "
        f"(relative {relative[off[0]]:.2e}) after {MAX_PASSES} passes",
        best=cfg, residual=residuals)
