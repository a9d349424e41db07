"""Frequency-translation readout physics and the storage decay model.

The two Gaussian control pulses sweep through the stored signal once per
readout because of their group-velocity walk-off. For optimal phase
matching the conversion angle accumulated by a signal component at time t
(in the signal frame) is

    xi(t) = g * [erf(t/tau + zeta/2) - erf(t/tau - zeta/2)],
    g     = gamma * sqrt(E_p * E_q) / (3 * beta),

with tau the control 1/e intensity half-width, zeta = beta*L/tau the
walk-off window in units of tau. The converted field picks up the factor
i*exp(4i*xi)*sin(xi); only the conversion probability sin^2(xi) matters
downstream.

The stored wavepacket is modeled as a Gaussian intensity envelope whose
center slips by the cavity mismatch every cycle and whose duration grows
by dispersion. The signal is far from transform limited (duration set by
the pump, bandwidth measured independently), so each spectral component
acquires its own group delay and the RMS duration grows in quadrature:

    center(T) = mismatch * T
    sigma(T)^2 = sigma_0^2 + (psi_2 * sigma_omega * T)^2

The conversion efficiency at delay T is the overlap of sin^2(xi(t)) with
that envelope. sin^2(xi) does not depend on T and is below 1e-30 outside
|t| <= (zeta/2 + 6) tau, so readout_curve integrates it once, on composite
16-node Gauss-Legendre panels over that window, and takes the overlaps of
all delays as one matrix product. The nodes and xi/g on them are cached per
(sigma_0, tau, zeta), so a scan over energies or the coupling evaluates no
erf; the weighted profile is cached per pulse setting, so a scan over
delays or cavity fields evaluates it once.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import ValidatedConfig
from .errors import GridTooCoarse, NoConvergence, NonPhysicalParameter

# one_over_e_delay gives up if the retrieval has not fallen to 1/e by this delay
ONE_OVER_E_MAX_CYCLES = 2000

PANEL_NODES = 16
MIN_PANELS = 8
# the widest node gap is at most sigma_0 / PANEL_MARGIN; a unit Gaussian then
# integrates to within 1.2e-11 wherever it sits (1.5e-9 at a margin of 1.25)
PANEL_MARGIN = 1.5
MAX_NODES = 2**22
# delays x nodes entries per matrix product, bounding memory for long scans
MAX_MATRIX_ENTRIES = 2**16


def _erf(x) -> np.ndarray:
    """math.erf elementwise; keeps scipy out of the import of fcsim."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _coupling(energy_p_nj, energy_q_nj, nonlinear_coeff, walkoff_ps_per_m, tau_ps) -> float:
    """g = gamma * sqrt(E_p * E_q) / (3 * beta), after checking the pulse parameters."""
    if tau_ps <= 0:
        raise NonPhysicalParameter(f"control tau must be > 0, got {tau_ps}")
    if walkoff_ps_per_m <= 0:
        raise NonPhysicalParameter(f"walk-off must be > 0, got {walkoff_ps_per_m}")
    if energy_p_nj < 0 or energy_q_nj < 0:
        raise NonPhysicalParameter("control pulse energies must be >= 0")
    return nonlinear_coeff * math.sqrt(energy_p_nj * energy_q_nj) / (3.0 * walkoff_ps_per_m)


def _window(x, walkoff_ratio):
    """xi / g = erf(x + zeta/2) - erf(x - zeta/2) at x = t / tau."""
    return _erf(x + walkoff_ratio / 2.0) - _erf(x - walkoff_ratio / 2.0)


def xi_profile(t, energy_p_nj, energy_q_nj, nonlinear_coeff,
               walkoff_ps_per_m, tau_ps, walkoff_ratio):
    """Conversion angle xi (radians) at signal-frame time t (ps).

    Depends on the control energies only through sqrt(E_p * E_q); even in t;
    vanishes as |t| -> infinity and when either control is off.
    """
    g = _coupling(energy_p_nj, energy_q_nj, nonlinear_coeff, walkoff_ps_per_m, tau_ps)
    return g * _window(np.asarray(t, dtype=float) / tau_ps, walkoff_ratio)


def envelope_intensity(cfg: ValidatedConfig, delay_cycles, t_ps) -> np.ndarray:
    """Stored envelope after delay_cycles, at times t_ps; integrates to 1 over t.

    Delays and times broadcast against each other.
    """
    d = np.asarray(delay_cycles, dtype=float)
    center = cfg.cavity.mismatch_ps_per_cycle * d
    s = np.hypot(cfg.source.envelope_rms_ps,
                 cfg.cavity.dispersion_ps2_per_cycle * cfg.spectral_rms_rad_per_ps * d)
    return np.exp(-((np.asarray(t_ps) - center) ** 2) / (2.0 * s * s)) / (
        s * math.sqrt(2.0 * math.pi))


@functools.lru_cache(maxsize=32)
def _nodes(sigma0_ps: float, tau_ps: float, walkoff_ratio: float):
    """Read-only quadrature nodes t (ps), weights and xi / g at the nodes.

    The nodes are composite 16-node Gauss-Legendre panels on |t| <= half,
    half = (zeta/2 + 6) tau. Panels are added until the widest node gap,
    counting the one between neighbouring panels, resolves the generation
    envelope sigma_0, which every stored envelope is at least as wide as.
    """
    half_ps = (walkoff_ratio / 2.0 + 6.0) * tau_ps
    x, w = np.polynomial.legendre.leggauss(PANEL_NODES)
    nodes = (x + 1.0) / 2.0
    gap = max(np.diff(nodes).max(), 2.0 * nodes[0])
    panels = max(MIN_PANELS, math.ceil(2.0 * half_ps * gap * PANEL_MARGIN / sigma0_ps))
    if panels * PANEL_NODES > MAX_NODES:
        raise GridTooCoarse(
            f"envelope RMS {sigma0_ps:.3g} ps needs {panels * PANEL_NODES} quadrature "
            f"nodes on a {2 * half_ps:.3g} ps window, more than {MAX_NODES}")
    width = 2.0 * half_ps / panels
    t = (-half_ps + width * np.arange(panels)[:, None] + width * nodes).ravel()
    weights = np.tile(width * w / 2.0, panels)
    window = _window(t / tau_ps, walkoff_ratio)
    t.flags.writeable = weights.flags.writeable = window.flags.writeable = False
    return t, weights, window


@functools.lru_cache(maxsize=32)
def _profile(sigma0_ps, energy_p_nj, energy_q_nj, nonlinear_coeff,
             walkoff_ps_per_m, tau_ps, walkoff_ratio):
    """Read-only quadrature nodes t (ps) and weighted conversion sin^2(xi(t)) * w.

    The arguments are every scalar the profile depends on. The erf window
    comes from _nodes, so a new energy or coefficient costs no erf.
    """
    g = _coupling(energy_p_nj, energy_q_nj, nonlinear_coeff, walkoff_ps_per_m, tau_ps)
    t, w, window = _nodes(sigma0_ps, tau_ps, walkoff_ratio)
    profile = np.sin(g * window) ** 2 * w
    profile.flags.writeable = False
    return t, profile


def readout_curve(cfg: ValidatedConfig, delays):
    """(survival, conversion efficiency, total) as arrays over storage delays.

    Delays are cycle counts >= 0 (not necessarily integers).
    total = survival^T * eta_conv(T) is the intracavity retrieval
    probability; facet transmission and collection are applied downstream.
    """
    d = np.atleast_1d(np.asarray(delays, dtype=float))
    if d.ndim != 1 or not np.all(np.isfinite(d) & (d >= 0)):
        raise NonPhysicalParameter("readout delays must be a list of finite values >= 0")
    p = cfg.pulses
    t, profile = _profile(cfg.source.envelope_rms_ps, p.energy_p_nj, p.energy_q_nj,
                          p.nonlinear_coeff, cfg.cavity.walkoff_ps_per_m,
                          cfg.control_tau_ps, cfg.walkoff_ratio)
    eta = np.empty(d.size)
    rows = max(1, MAX_MATRIX_ENTRIES // t.size)
    for i in range(0, d.size, rows):
        eta[i:i + rows] = envelope_intensity(cfg, d[i:i + rows, None], t) @ profile
    survival = cfg.survival_per_cycle ** d
    return survival, eta, survival * eta


def conversion_efficiency(cfg: ValidatedConfig) -> float:
    """Internal conversion efficiency at delay 1, where eta_conversion is defined."""
    return float(readout_curve(cfg, 1)[1][0])


def readout_probability(delay_cycles: int, cfg: ValidatedConfig):
    """(survival, conversion efficiency, total) at an integer delay >= 1.

    Monotone nonincreasing in T when mismatch and dispersion are >= 0.
    """
    if delay_cycles < 1 or int(delay_cycles) != delay_cycles:
        raise NonPhysicalParameter(f"readout delay must be an integer >= 1, got {delay_cycles}")
    return tuple(float(a[0]) for a in readout_curve(cfg, delay_cycles))


def one_over_e_delay(cfg: ValidatedConfig) -> float:
    """Delay (cycles) at which the retrieval probability falls to 1/e.

    The reference is the zero-delay extrapolation (unit survival, envelope
    at its generation duration and position), so a pure ring-down decay
    returns exactly the configured lifetime. The crossing is the first
    integer delay at or below the target, interpolated linearly in log
    space from the delay before it.
    """
    _, _, total = readout_curve(cfg, np.arange(ONE_OVER_E_MAX_CYCLES + 1))
    target = total[0] / math.e
    below = np.flatnonzero(total[1:] <= target)
    if below.size == 0:
        raise NoConvergence("retrieval probability stayed above 1/e up to "
                            f"{ONE_OVER_E_MAX_CYCLES} cycles", best=float(total[-1]))
    t = int(below[0]) + 1
    prev, cur = float(total[t - 1]), float(total[t])
    if prev <= 0 or cur <= 0:
        return float(t)
    return t - 1 + (math.log(prev) - math.log(target)) / (math.log(prev) - math.log(cur))


def solve_nonlinear_coeff(cfg: ValidatedConfig, target_eta: float) -> float:
    """Nonlinear coefficient that reaches target_eta at delay 1 (the eta_conversion target).

    Picks the lowest coefficient on the rising branch of the saturation
    curve (before over-rotation of the conversion angle).
    """
    from . import solvers

    def eta_for(coeff):
        c = cfg.replace_fields(**{"pulses.nonlinear_coeff": coeff})
        return conversion_efficiency(c)

    lo, hi = 1e-4, 1.0
    # grow hi until past the maximum of the saturation curve
    prev = eta_for(hi)
    for _ in range(40):
        nxt = eta_for(hi * 1.3)
        if nxt < prev:
            break
        prev = nxt
        hi *= 1.3
    else:
        raise NoConvergence("could not bracket the conversion maximum")
    if prev < target_eta:
        raise NoConvergence(
            f"conversion saturates at {prev:.4f} < target {target_eta}", best=hi)
    return solvers.brentq(lambda g: eta_for(g) - target_eta, lo, hi, xtol=1e-10)
