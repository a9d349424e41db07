"""Independent oracles used only by the tests.

Two references for the package's closed-form click engine, neither of
which shares its arithmetic:

- brute_click_patterns enumerates every photon-number outcome with plain
  Python loops and math.comb / lgamma arithmetic;
- the photon-number table engine (PhotonNumberDistribution and the chain
  tmsv_state -> apply_loss -> split_mode -> add_thermal_noise -> detect)
  propagates dense joint photon-number tables truncated at a cutoff.

Only the container for the resulting no-click probabilities,
fockstats.ClickProbabilities (indexed by record mask), and the per-photon
branch probabilities of the readout (readout.signal_branch_probs) come
from the package.

Three further references replace fast package code with the plain version
it was derived from: adaptive_overlap integrates the readout overlap by the
trapezoid rule on a uniform grid refined until it settles, with the
conversion angle xi_profile written from its formula (it calls nothing in
fcsim.readout), csv_records_text formats click
records one row at a time and csv_records_rows reads them back one line
at a time, and bootstrap_ratio_loop tallies each block's
patterns record by record (np.add.at) and draws and sums the block
bootstrap one resample at a time.

Two more keep the readout layer's plain versions: one_over_e_delay_full_range
evaluates the readout curve over every delay 0..ONE_OVER_E_MAX_CYCLES
before looking for the 1/e crossing, and memory_fit_every_step calls
readout.readout_curve at every evaluation of the memory-model fit.

The calibration's plain versions rebuild everything at every trial value:
replace_fields_by_dataclasses_replace builds a config by one
dataclasses.replace per changed section and one of the config,
solve_nonlinear_coeff_rebuilding takes readout.conversion_efficiency of
such a config at every trial coefficient, and calibrate_rebuilding solves
with them, its root searches evaluating each bracket end twice (once to
check the bracket, once more inside brentq).

no_click_table_direct is the click engine as one expression, every
factor computed at every call (fockstats.no_click_table keeps the factors
that only the noise and the detectors set, and answers a source-off table
with their row).

multiplex_sum is the multiplexing planner's per-bin form: p_out of one
plan as the sum of its K contributions, the reference for the recurrence
of multiplex.output_curve (and so for multiplex_success, its last entry).

scipy_brentq and scipy_least_squares are the scipy solvers the package's
numpy-only ones (fcsim.solvers) replaced, called as the package calls its
own: scipy is a dependency of the tests only.

The photon-number mixture model of the heralded auto-correlation
(heralded_signal_moments, g2_mixture, mixture_g2_curve) treats the
heralded readout as an incoherent mixture of the noiseless heralded
signal and the thermal noise; it is the reference for the click engine's
g2_ac_heralded over delays (fockstats.heralded_g2_curve).
"""

import dataclasses
import math
import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from fcsim import config, estimators, fockstats, readout, solvers
from fcsim.errors import (
    DivisionByZeroRate,
    EmptyInput,
    NoConvergence,
    NonPhysicalParameter,
    UnknownConfigKey,
)
from fcsim.trialsim import CSV_HEADER, MASK_H, MASK_R1, MASK_R2, MASK_S

DETECTORS = ("H", "S", "R1", "R2")


def pair_pmf(n, mu, modes):
    """Probability of n pairs from a sum of `modes` equal squeezed modes."""
    if mu == 0:
        return 1.0 if n == 0 else 0.0
    x = mu / modes
    log_coef = (math.lgamma(n + modes) - math.lgamma(modes)
                - math.lgamma(n + 1))
    return math.exp(log_coef - modes * math.log1p(x)) * (x / (1.0 + x)) ** n


def thermal_pmf(k, mean, modes):
    """Multimode-thermal (negative binomial) photon-number probability."""
    if mean == 0:
        return 1.0 if k == 0 else 0.0
    x = mean / modes
    log_coef = (math.lgamma(k + modes) - math.lgamma(modes)
                - math.lgamma(k + 1))
    return math.exp(log_coef - modes * math.log1p(x)) * (x / (1.0 + x)) ** k


def binom(n, k, p):
    if k < 0 or k > n:
        return 0.0
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)


def brute_click_patterns(mu, schmidt_modes, n_max, eta_herald, p_monitor,
                         p_readout, noise_mean, noise_modes, dark,
                         splitter, k_max=30):
    """Exact-pattern click probabilities by direct enumeration.

    Returns {frozenset of clicked detector names: probability} covering all
    16 patterns. Matches the model: herald photons thinned by eta_herald;
    each signal photon goes to the monitor arm (p_monitor), the readout arm
    (p_readout) or neither; thermal noise photons join the readout arm; the
    readout arm is split two ways; every detector has an independent dark
    probability per gate.
    """
    rest = 1.0 - p_monitor - p_readout
    photon_pattern = {}  # (h>0, s>0, r1>0, r2>0) -> prob, before dark counts
    for n in range(n_max + 1):
        pn = pair_pmf(n, mu, schmidt_modes)
        if pn == 0.0:
            continue
        p_no_herald = (1.0 - eta_herald) ** n
        for a in range(n + 1):           # photons leaking to the monitor
            for b in range(n - a + 1):   # photons read out
                p_split = (math.comb(n, a) * math.comb(n - a, b)
                           * p_monitor**a * p_readout**b
                           * rest ** (n - a - b))
                if p_split == 0.0:
                    continue
                for k in range(k_max + 1):   # noise photons
                    pk = thermal_pmf(k, noise_mean, noise_modes)
                    if pk == 0.0:
                        continue
                    j = b + k
                    for r1 in range(j + 1):
                        pr = binom(j, r1, splitter)
                        if pr == 0.0:
                            continue
                        r2 = j - r1
                        weight = pn * p_split * pk * pr
                        for h_clicks, ph in ((0, p_no_herald),
                                             (1, 1.0 - p_no_herald)):
                            key = (h_clicks > 0, a > 0, r1 > 0, r2 > 0)
                            photon_pattern[key] = photon_pattern.get(key, 0.0) + weight * ph

    # fold in dark counts: each detector independently fires with prob dark
    out = {}
    for key, w in photon_pattern.items():
        base = dict(zip(DETECTORS, key))
        silent = [d for d in DETECTORS if not base[d]]
        for r in range(len(silent) + 1):
            for fired in combinations(silent, r):
                prob = w
                for d in silent:
                    prob *= dark if d in fired else (1.0 - dark)
                pattern = frozenset([d for d in DETECTORS if base[d]] + list(fired))
                out[pattern] = out.get(pattern, 0.0) + prob
    return out


def thin_pmf(pmf, eta):
    """Brute-force binomial thinning of a photon-number pmf."""
    out = [0.0] * len(pmf)
    for n, pn in enumerate(pmf):
        for m in range(n + 1):
            out[m] += pn * binom(n, m, eta)
    return out


# ---------------------------------------------------------------------------
# Photon-number table engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhotonNumberDistribution:
    """Dense joint photon-number table over named modes.

    probabilities[n1, n2, ...] is the probability of that occupation
    pattern; mass beyond the cutoff is simply missing.
    """

    mode_labels: tuple
    probabilities: np.ndarray

    def axis(self, mode: str) -> int:
        return self.mode_labels.index(mode)

    def total(self) -> float:
        return float(self.probabilities.sum())

    def marginal(self, mode: str) -> np.ndarray:
        axes = tuple(i for i in range(self.probabilities.ndim) if i != self.axis(mode))
        return self.probabilities.sum(axis=axes)

    def mean(self, mode: str) -> float:
        p = self.marginal(mode)
        return float(np.dot(np.arange(p.size), p)) / self.total()

    def auto_g2(self, mode: str) -> float:
        """Normalized second factorial moment <n(n-1)>/<n>^2."""
        p = self.marginal(mode)
        n = np.arange(p.size)
        fact2 = float(np.dot(n * (n - 1), p)) / self.total()
        return fact2 / self.mean(mode) ** 2

    def cross_g2(self, mode_a: str, mode_b: str) -> float:
        """Normalized cross-correlation <n_a n_b>/(<n_a><n_b>)."""
        probs = np.moveaxis(self.probabilities,
                            (self.axis(mode_a), self.axis(mode_b)), (0, 1))
        joint = probs.reshape(probs.shape[0], probs.shape[1], -1).sum(axis=2)
        na, nb = np.arange(joint.shape[0]), np.arange(joint.shape[1])
        moment = float(na @ joint @ nb) / self.total()
        return moment / (self.mean(mode_a) * self.mean(mode_b))


def tmsv_state(mu, schmidt_modes, n_max):
    """Number-correlated pair state over modes ('herald', 'signal')."""
    table = np.diag([pair_pmf(n, mu, schmidt_modes) for n in range(n_max + 1)])
    return PhotonNumberDistribution(("herald", "signal"), table)


def apply_loss(dist, mode, eta):
    """Binomial thinning of one mode."""
    ax = dist.axis(mode)
    size = dist.probabilities.shape[ax]
    t = np.array([[binom(n, m, eta) for n in range(size)] for m in range(size)])
    probs = np.tensordot(t, np.moveaxis(dist.probabilities, ax, 0), axes=([1], [0]))
    return PhotonNumberDistribution(dist.mode_labels, np.moveaxis(probs, 0, ax))


def split_mode(dist, mode, p_first, p_second, labels=("first", "second")):
    """Each photon of one mode lands in the first branch, the second, or is lost."""
    ax = dist.axis(mode)
    size = dist.probabilities.shape[ax]
    rest = max(1.0 - p_first - p_second, 0.0)
    tri = np.zeros((size, size, size))  # [a, b, n]
    for n in range(size):
        for a in range(n + 1):
            for b in range(n - a + 1):
                tri[a, b, n] = (math.comb(n, a) * math.comb(n - a, b)
                                * p_first**a * p_second**b * rest ** (n - a - b))
    probs = np.tensordot(tri, np.moveaxis(dist.probabilities, ax, 0), axes=([2], [0]))
    labels_out = dist.mode_labels[:ax] + dist.mode_labels[ax + 1:]
    probs = np.moveaxis(probs, (0, 1), (len(labels_out), len(labels_out) + 1))
    return PhotonNumberDistribution(labels_out + tuple(labels), probs)


def add_thermal_noise(dist, mode, n_bar, mode_count, k_max=40):
    """Convolve one mode with a multimode-thermal count of k_max + 1 terms."""
    pmf = [thermal_pmf(k, n_bar, mode_count) for k in range(k_max + 1)]
    ax = dist.axis(mode)
    moved = np.moveaxis(dist.probabilities, ax, -1)
    old = moved.shape[-1]
    out = np.zeros(moved.shape[:-1] + (old + k_max,))
    for k, w in enumerate(pmf):
        out[..., k:k + old] += w * moved
    return PhotonNumberDistribution(dist.mode_labels, np.moveaxis(out, -1, ax))


def threshold_click_prob(dist, mode, eta, dark=0.0):
    """Threshold detector on one mode: 1 - (1-dark) * E[(1-eta)^n]."""
    p = dist.marginal(mode)
    survive = np.dot(p, (1.0 - eta) ** np.arange(p.size))
    return float(1.0 - (1.0 - dark) * survive / dist.total())


def detect(dist, detectors, efficiencies=None):
    """Threshold-detect the modes 'herald', 'monitor', 'readout'.

    The readout mode is split onto R1/R2 before detection. Efficiencies
    default to the configured path efficiencies and may be overridden per
    mode. Missing modes are treated as vacuum.
    """
    eff = {"herald": detectors.eta_herald_path, "monitor": detectors.eta_s_path,
           "readout": detectors.eta_r_path}
    eff.update(efficiencies or {})
    f = detectors.splitter_ratio
    # per-photon probability of reaching a detector of the set, by mode
    reach = {
        "herald": lambda a: eff["herald"] * ("H" in a),
        "monitor": lambda a: eff["monitor"] * ("S" in a),
        "readout": lambda a: eff["readout"] * (f * ("R1" in a) + (1 - f) * ("R2" in a)),
    }
    no_click = np.empty(16)
    for mask in range(16):
        a = frozenset(d for i, d in enumerate(DETECTORS) if mask >> i & 1)
        out = dist.probabilities
        for ax in reversed(range(out.ndim)):
            mode = dist.mode_labels[ax]
            miss = 1.0 - reach[mode](a) if mode in reach else 1.0
            out = np.tensordot(out, miss ** np.arange(out.shape[ax]), axes=([ax], [0]))
        no_click[mask] = ((1.0 - detectors.dark_prob_per_gate) ** len(a)
                          * float(out) / dist.total())
    return fockstats.ClickProbabilities(no_click)


def table_click_model(cfg, delay_cycles=1, include_source=True, n_max=16, k_max=40):
    """The full per-trigger chain on photon-number tables: (table, clicks)."""
    mu = cfg.source.mean_pairs_per_pulse if include_source else 0.0
    dist = tmsv_state(mu, cfg.source.schmidt_modes, n_max)
    dist = apply_loss(dist, "herald", cfg.detectors.eta_herald_path)
    q_mon, chain = (float(v[0]) for v in readout.signal_branch_probs(cfg, delay_cycles))
    dist = split_mode(dist, "signal", q_mon, chain, labels=("monitor", "readout"))
    dist = add_thermal_noise(dist, "readout", cfg.noise_mean_per_trigger(),
                             cfg.noise.mode_count, k_max)
    clicks = detect(dist, cfg.detectors,
                    efficiencies={"herald": 1.0, "monitor": 1.0, "readout": 1.0})
    return dist, clicks


def g2_mixture(g2_a, n_a, g2_b, n_b):
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


def heralded_signal_moments(cfg):
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
    chain = float(readout.signal_branch_probs(cfg, 1)[1][0])
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


def mixture_g2_curve(cfg, delays):
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


def xi_profile(t, energy_p_nj, energy_q_nj, nonlinear_coeff,
               walkoff_ps_per_m, tau_ps, walkoff_ratio):
    """Conversion angle xi (radians) at signal-frame time t (ps):
    g * [erf(t/tau + zeta/2) - erf(t/tau - zeta/2)], g = gamma sqrt(E_p E_q) / (3 beta),
    with math.erf elementwise."""
    g = nonlinear_coeff * math.sqrt(energy_p_nj * energy_q_nj) / (3.0 * walkoff_ps_per_m)
    x = np.asarray(t, dtype=float) / tau_ps
    erf = np.frompyfunc(math.erf, 1, 1)
    return g * np.asarray(erf(x + walkoff_ratio / 2.0) - erf(x - walkoff_ratio / 2.0), float)


def adaptive_overlap(cfg, delay_cycles, energy_p_nj=None, energy_q_nj=None, tol=1e-6):
    """Conversion efficiency at a delay on a uniform grid, refined until it settles.

    The grid spans 5x the wider of the control window and the envelope,
    starts with at least 8 points across the envelope FWHM and doubles until
    the trapezoid value moves by less than tol.
    """
    ep = cfg.pulses.energy_p_nj if energy_p_nj is None else energy_p_nj
    eq = cfg.pulses.energy_q_nj if energy_q_nj is None else energy_q_nj
    center = cfg.cavity.mismatch_ps_per_cycle * delay_cycles
    sigma = math.hypot(cfg.source.envelope_rms_ps, cfg.cavity.dispersion_ps2_per_cycle
                       * cfg.spectral_rms_rad_per_ps * delay_cycles)
    half = 5.0 * max(cfg.control_tau_ps * (1.0 + cfg.walkoff_ratio / 2.0),
                     abs(center) + 4.0 * sigma)
    fwhm = sigma * 2.0 * math.sqrt(2.0 * math.log(2.0))
    points = 2048
    while 2.0 * half / points > fwhm / 8.0:
        points *= 2
    prev = None
    for _ in range(12):
        t = np.linspace(-half, half, points + 1)
        xi = xi_profile(t, ep, eq, cfg.pulses.nonlinear_coeff, cfg.cavity.walkoff_ps_per_m,
                        cfg.control_tau_ps, cfg.walkoff_ratio)
        envelope = np.exp(-((t - center) ** 2) / (2.0 * sigma**2)) / (
            sigma * math.sqrt(2.0 * math.pi))
        val = float(np.trapezoid(np.sin(xi) ** 2 * envelope, t))
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        points *= 2
    raise AssertionError("reference overlap did not settle")


def one_over_e_delay_full_range(cfg):
    """readout.one_over_e_delay from one readout curve over every delay
    0..ONE_OVER_E_MAX_CYCLES, searched for the crossing afterwards."""
    last = readout.ONE_OVER_E_MAX_CYCLES
    _, _, total = readout.readout_curve(cfg, np.arange(last + 1))
    target = total[0] / math.e
    below = np.flatnonzero(total[1:] <= target)
    if below.size == 0:
        raise NoConvergence(f"retrieval probability stayed above 1/e up to {last} cycles",
                            best=float(total[-1]))
    t = int(below[0]) + 1
    prev, cur = float(total[t - 1]), float(total[t])
    if prev <= 0 or cur <= 0:
        return float(t)
    return t - 1 + (math.log(prev) - math.log(target)) / (math.log(prev) - math.log(cur))


def memory_fit_every_step(series, free, cfg):
    """estimators.fit_memory_model on a series of distinct whole-number
    delays inside the model floors, each evaluation building its config and
    taking the total of readout.readout_curve at the delays."""
    t, y, weight = estimators._series_arrays(series)
    delays, index = np.unique(t, return_inverse=True)
    start = {"amplitude": float(y.max()), "lifetime": cfg.cavity.ringdown_lifetime_cycles,
             "delta": cfg.cavity.mismatch_ps_per_cycle,
             "psi2": cfg.cavity.dispersion_ps2_per_cycle}
    floors = estimators._MODEL_FLOORS

    def model(params):
        p = {**start, **dict(zip(free, params))}
        c = cfg.replace_fields(**{
            "cavity.ringdown_lifetime_cycles": max(p["lifetime"], floors["lifetime"]),
            "cavity.mismatch_ps_per_cycle": max(p["delta"], floors["delta"]),
            "cavity.dispersion_ps2_per_cycle": max(p["psi2"], floors["psi2"]),
        })
        return p["amplitude"] * readout.readout_curve(c, delays)[2][index]

    return estimators._fit(tuple(free), model, np.array([start[name] for name in free]), y,
                           weight, "memory-model fit", xtol=1e-8, max_nfev=500 * len(free))


def replace_fields_by_dataclasses_replace(cfg, **dotted):
    """cfg.replace_fields(**dotted) by dataclasses.replace: of each changed
    section, one key at a time, and then of the config."""
    sections = {}
    for key, value in dotted.items():
        section_name, _, name = key.partition(".")
        if section_name not in config._SECTION_TYPES:
            raise UnknownConfigKey(f"no config section named {section_name!r}")
        section = sections.get(section_name, getattr(cfg, section_name))
        if name not in {f.name for f in dataclasses.fields(section)}:
            raise UnknownConfigKey(f"no key {name!r} in section {section_name!r}")
        sections[section_name] = dataclasses.replace(section, **{name: value})
    return dataclasses.replace(cfg, **sections)


def solve_nonlinear_coeff_rebuilding(cfg, target_eta):
    """readout.solve_nonlinear_coeff with every trial coefficient building its
    config and taking readout.conversion_efficiency of it; brentq evaluates
    the bracket ends again. The slope that locates the conversion maximum is
    summed on the readout's nodes as the package sums it."""
    def eta_for(coeff):
        c = replace_fields_by_dataclasses_replace(cfg, **{"pulses.nonlinear_coeff": coeff})
        return readout.conversion_efficiency(c)

    p = cfg.pulses
    t, w, window = readout._nodes(cfg.source.envelope_rms_ps, cfg.control_tau_ps,
                                  cfg.walkoff_ratio)
    scale = (math.sqrt(p.energy_p_nj) * math.sqrt(p.energy_q_nj)
             / (3.0 * cfg.cavity.walkoff_ps_per_m))
    envelope = readout.envelope_intensity(cfg, np.ones((1, 1)), t)[0]
    # sin^2 of every node's conversion angle rises up to rise
    rise = math.pi / 2.0 / (float(window.max()) * scale)

    def slope(coeff):
        return float((envelope * w * window) @ np.sin(2.0 * coeff * scale * window))

    def peak():
        c = rise
        for _ in range(40):
            if slope(c * 1.3) < 0.0:
                return solvers.brentq(slope, c, c * 1.3)
            c *= 1.3
        raise NoConvergence("could not bracket the conversion maximum")

    lo, hi = min(1e-4, rise / 2.0), rise
    if target_eta > eta_for(rise):
        lo, hi = rise, peak()
        if eta_for(hi) < target_eta:
            raise NoConvergence(
                f"conversion saturates at {eta_for(hi):.4f} < target {target_eta}")
    elif target_eta < eta_for(lo):
        raise NoConvergence(f"conversion target {target_eta} is unreachable")
    return solvers.brentq(lambda g: eta_for(g) - target_eta, lo, hi,
                          xtol=1e-10 * min(1.0, rise))


def _solve_target_rebuilding(cfg, name, value):
    """The field value that target name's solve finds from cfg: a closed form,
    solve_nonlinear_coeff_rebuilding, or brentq over the target's bracket
    with a config built at every trial value."""
    target = fockstats._TARGETS[name]
    if name == "eta_conversion":
        return solve_nonlinear_coeff_rebuilding(cfg, value)
    if target.solve is not None:
        return target.solve(cfg, value)
    to_field = math.exp if target.log else float
    curve = readout.readout_curve(cfg, [1])

    def model(x):
        c = replace_fields_by_dataclasses_replace(cfg, **{target.field: to_field(x)})
        return target.value(c, curve)

    lo, hi = target.bracket
    if (model(lo) - value) * (model(hi) - value) > 0:
        raise NoConvergence(f"{name} target {value!r} is unreachable")
    tol = max(fockstats.SOLVE_TOL_FRACTION * fockstats.REL_TOL, 4.0 * sys.float_info.epsilon)
    return to_field(solvers.brentq(lambda x: model(x) - value, lo, hi,
                                   xtol=1e-3 * tol, rtol=tol))


def calibrate_rebuilding(cfg, targets):
    """fockstats.calibrate's passes over the same target table, each solve
    rebuilding its configs and readout curves at every trial value; returns
    (config, residuals)."""
    names = [n for n in fockstats._TARGETS if n in targets]
    for n_pass in range(fockstats.MAX_PASSES):
        for name in names:
            if n_pass == 0 or fockstats._TARGETS[name].solve is None:
                x = _solve_target_rebuilding(cfg, name, targets[name])
                cfg = replace_fields_by_dataclasses_replace(
                    cfg, **{fockstats._TARGETS[name].field: x})
        curve = readout.readout_curve(cfg, [1])
        residuals = {n: fockstats._TARGETS[n].value(cfg, curve) - targets[n] for n in names}
        if all(abs(r) / max(abs(targets[n]), 1e-12) <= fockstats.REL_TOL
               for n, r in residuals.items()):
            return cfg, residuals
    raise NoConvergence(f"calibration did not converge in {fockstats.MAX_PASSES} passes")


def no_click_table_direct(cfg, q_mon, chain, include_source=True):
    """fockstats.no_click_table with every factor computed at this call; a
    source-off table is the same expression with mu = 0."""
    mu = cfg.source.mean_pairs_per_pulse if include_source else 0.0
    k = cfg.source.schmidt_modes
    n_bar = cfg.noise_mean_per_trigger()
    m = cfg.noise.mode_count
    det = cfg.detectors
    f = det.splitter_ratio
    # 1.0 where detector i is in the set of record mask A (bit i of A)
    h, s, r1, r2 = (np.array([a >> i & 1 for a in range(16)], dtype=float) for i in range(4))
    set_size = np.array([bin(a).count("1") for a in range(16)])
    e = f * r1 + (1.0 - f) * r2
    q_mon, chain = (np.atleast_1d(v)[:, None] for v in (q_mon, chain))
    z = (1.0 - det.eta_herald_path * h) * (1.0 - q_mon * s - chain * e)
    return (1.0 - det.dark_prob_per_gate) ** set_size * np.exp(
        -k * np.log1p(mu / k * (1.0 - z)) - m * np.log1p(n_bar / m * e))


def multiplex_sum(plan):
    """(p_out, contributions) of a multiplex.MultiplexPlan: bin k = 1..K
    succeeds first with probability (1-p)^(k-1) p and its photon is stored
    (K-k) spacing + latency cycles, read from the plan's curve at T = 1.."""
    p = plan.herald_prob
    contributions = [
        (1.0 - p) ** (k - 1) * p * float(plan.readout_curve[
            (plan.bins - k) * plan.bin_spacing_cycles + plan.switch_latency_cycles - 1])
        for k in range(1, plan.bins + 1)]
    return float(sum(contributions)), contributions


def csv_records_text(records):
    """Record file text in the CSV format, formatted row by row."""
    lines = [CSV_HEADER]
    for t, m in zip(records.trigger, records.mask):
        lines.append(f"{int(t)},{int(bool(m & MASK_H))},"
                     f"{int(bool(m & MASK_S))},{int(bool(m & MASK_R1))},"
                     f"{int(bool(m & MASK_R2))}")
    return "\n".join(lines) + "\n"


def csv_records_rows(data):
    """(trigger, mask) arrays of CSV record bytes read line by line, or the
    1-based number of the first line that is not what csv_records_text
    writes. A row shorter than the row before it is such a line, and so is
    text after the last newline."""
    *lines, rest = data.split(b"\n")
    if not lines or lines[0] != CSV_HEADER.encode("ascii"):
        return 1
    trigger, mask, previous = [], [], 0
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(b",")
        digits, flags = fields[0], fields[1:]
        if not (len(fields) == 5 and 1 <= len(digits) <= 20 and digits.isdigit()
                and (len(digits) == 1 or digits[:1] != b"0") and int(digits) <= 2**64 - 1
                and all(flag in (b"0", b"1") for flag in flags) and len(line) >= previous):
            return number
        trigger.append(int(digits))
        mask.append(sum(bit for bit, flag in zip((MASK_H, MASK_S, MASK_R1, MASK_R2), flags)
                        if flag == b"1"))
        previous = len(line)
    if rest:
        return len(lines) + 1
    return np.array(trigger, dtype=np.uint64), np.array(mask, dtype=np.uint8)


def pattern_hits(name, mask):
    """Whether each record mask shows the pattern: every detector bit of
    estimators.PATTERNS[name], or for "r" any readout detector and for "hr"
    the herald and any readout detector."""
    any_r = mask & (MASK_R1 | MASK_R2) > 0
    if name == "r":
        return any_r
    if name == "hr":
        return any_r & (mask & MASK_H > 0)
    bits = estimators.PATTERNS[name]
    return mask & bits == bits


def bootstrap_ratio_loop(records, ratio, block_triggers, resamples, seed):
    """estimators.estimate of the correlation whose patterns are ratio =
    (num, den), as patterns.RATIOS gives them, with its own per-block tally
    (np.add.at of each record's pattern hits at its block), one rng.integers
    call and one column sum per resample."""
    n = records.manifest.n_triggers
    if n < 1:
        raise EmptyInput("record stream covers zero triggers")
    n_blocks = -(-n // block_triggers)
    sizes = np.array([min(block_triggers, n - b * block_triggers) for b in range(n_blocks)])
    block = (records.trigger // np.uint64(block_triggers)).astype(np.int64)
    num, den = ratio
    table = {}
    for name in {*num, *den}:
        table[name] = np.zeros(n_blocks, dtype=np.int64)
        np.add.at(table[name], block, pattern_hits(name, records.mask))
    for name in den:
        if not table[name].any():
            raise DivisionByZeroRate(f"pattern {name!r} never occurred")
    rng = np.random.Generator(np.random.PCG64(seed))
    names = sorted({*num, *den})
    stacked = np.vstack([sizes] + [table[name] for name in names])
    # row 0 sums the whole stream, each further row one resample of its blocks
    sums = np.array([stacked.sum(axis=1)] + [
        stacked[:, rng.integers(0, sizes.size, sizes.size)].sum(axis=1)
        for _ in range(resamples)])
    p = dict(zip(names, (sums[:, 1:] / sums[:, :1]).T))
    d = math.prod(p[name] for name in den)
    ok = d > 0
    values = math.prod(p[name] for name in num)[ok] / d[ok]
    seen = all(table[name].any() for name in num)
    se = float(np.std(values[1:], ddof=1)) if values.size > 2 and seen else math.inf
    return estimators.CorrelationEstimate(
        value=float(values[0]), standard_error=se,
        dropped_resamples=int(np.count_nonzero(~ok[1:])))


def scipy_brentq(f, a, b, xtol, rtol, maxiter=100):
    """scipy.optimize.brentq, whose brentq.c fcsim.solvers.brentq ports."""
    from scipy.optimize import brentq

    return brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)


def scipy_least_squares(resid, x0, xtol, ftol, max_nfev):
    """scipy.optimize.least_squares (trust-region reflective, 2-point
    jacobian, gtol 1e-8) in place of fcsim.solvers.least_squares; its
    nfev counts the residual calls outside the jacobian only."""
    from scipy.optimize import least_squares

    return least_squares(resid, x0, xtol=xtol, ftol=ftol, max_nfev=max_nfev)
