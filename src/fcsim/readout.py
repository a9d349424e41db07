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
delays or cavity fields evaluates it once. one_over_e_delay evaluates the
curve in readout_curve's own chunks of delays and stops at the first chunk
that holds the crossing; the memory-model fit (fcsim.estimators) computes
the overlap once per (delta, psi2) and applies each lifetime via _retrieval;
solve_nonlinear_coeff computes the delay-1 envelope once and takes each
trial coefficient's profile against it.

A one-delay call costs several times what a batched call costs per delay
(the README gives both), so a scan over many delays is one readout_curve
call, not a loop of readout_probability.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import ValidatedConfig, integer, number
from .errors import DivisionByZeroRate, GridTooCoarse, NoConvergence, NonPhysicalParameter

# one_over_e_delay gives up if the retrieval has not fallen to 1/e by this delay
ONE_OVER_E_MAX_CYCLES = 2000

PANEL_NODES = 16
# the negative nodes of the 16-node Gauss-Legendre rule on [-1, 1] and their
# weights, equal to numpy.polynomial.legendre.leggauss(16) bit for bit; the
# rule is symmetric, and writing it out keeps numpy.polynomial unloaded
_GL_NODES = (-0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
             -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
             -0.2816035507792589, -0.09501250983763744)
_GL_WEIGHTS = (0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
               0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
               0.18260341504492364, 0.18945061045506864)
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


def _window(x, walkoff_ratio):
    """xi / g = erf(x + zeta/2) - erf(x - zeta/2) at x = t / tau."""
    return _erf(x + walkoff_ratio / 2.0) - _erf(x - walkoff_ratio / 2.0)


def envelope_intensity(cfg: ValidatedConfig, delay_cycles, t_ps) -> np.ndarray:
    """Stored envelope after delay_cycles, at times t_ps; integrates to 1 over t.

    Delays and times broadcast against each other. One delay is taken as a
    numpy scalar, so its center, width and norm cost scalar arithmetic, not
    calls on one-element arrays; the bits are those of the array path.
    """
    d = np.asarray(delay_cycles, dtype=float)[()]
    center = cfg.cavity.mismatch_ps_per_cycle * d
    s = np.hypot(cfg.source.envelope_rms_ps,
                 cfg.cavity.dispersion_ps2_per_cycle * cfg.spectral_rms_rad_per_ps * d)
    x = np.subtract(t_ps, center)
    x **= 2
    x /= -2.0 * s * s
    # in place: a second (delays, nodes) array nearly doubles the cost of a batched
    # curve; one time and one delay give a numpy scalar, which has no place
    x = np.exp(x, out=x if isinstance(x, np.ndarray) else None)
    x /= s * math.sqrt(2.0 * math.pi)
    return x


def _gauss_legendre():
    """Nodes (ascending) and weights of the PANEL_NODES-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.array(_GL_NODES), np.array(_GL_WEIGHTS)
    return np.concatenate([x, -x[::-1]]), np.concatenate([w, w[::-1]])


@functools.lru_cache(maxsize=32)
def _nodes(sigma0_ps: float, tau_ps: float, walkoff_ratio: float):
    """Read-only quadrature nodes t (ps), weights and xi / g at the nodes.

    The nodes are composite 16-node Gauss-Legendre panels on |t| <= half,
    half = (zeta/2 + 6) tau. Panels are added until the widest node gap,
    counting the one between neighbouring panels, resolves the generation
    envelope sigma_0, which every stored envelope is at least as wide as.
    """
    half_ps = (walkoff_ratio / 2.0 + 6.0) * tau_ps
    x, w = _gauss_legendre()
    nodes = (x + 1.0) / 2.0
    gap = max(np.diff(nodes).max(), 2.0 * nodes[0])
    panels = 2.0 * half_ps * gap * PANEL_MARGIN / sigma0_ps
    if not panels * PANEL_NODES <= MAX_NODES:  # before the ceil, which fails on inf and NaN
        raise GridTooCoarse(
            f"envelope RMS {sigma0_ps:.3g} ps needs {panels * PANEL_NODES:.3g} quadrature "
            f"nodes on a {2 * half_ps:.3g} ps window, more than {MAX_NODES}")
    panels = max(MIN_PANELS, math.ceil(panels))
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
    # two square roots: the product of two small energies can underflow to 0
    root_energy = math.sqrt(energy_p_nj) * math.sqrt(energy_q_nj)
    g = nonlinear_coeff * root_energy / (3.0 * walkoff_ps_per_m)
    t, w, window = _nodes(sigma0_ps, tau_ps, walkoff_ratio)
    profile = np.sin(g * window) ** 2 * w
    profile.flags.writeable = False
    return t, profile


def _profile_at(cfg: ValidatedConfig, nonlinear_coeff: float):
    """_profile of cfg with its nonlinear coefficient set to nonlinear_coeff."""
    p = cfg.pulses
    return _profile(cfg.source.envelope_rms_ps, p.energy_p_nj, p.energy_q_nj,
                    nonlinear_coeff, cfg.cavity.walkoff_ps_per_m,
                    cfg.control_tau_ps, cfg.walkoff_ratio)


def _quadrature(cfg: ValidatedConfig):
    """Nodes t, weighted profile and delays per matrix product of readout_curve
    (one_over_e_delay walks its delays in chunks of that size)."""
    t, profile = _profile_at(cfg, cfg.pulses.nonlinear_coeff)
    return t, profile, max(1, MAX_MATRIX_ENTRIES // t.size)


def _retrieval(cfg: ValidatedConfig, d, eta):
    """(survival, total) at delays d for conversion efficiencies eta: total = survival^T * eta."""
    survival = cfg.survival_per_cycle ** d
    return survival, survival * eta


def readout_curve(cfg: ValidatedConfig, delays):
    """(survival, conversion efficiency, total) as arrays over storage delays.

    Delays are cycle counts >= 0 (not necessarily integers): a real number,
    a list of them or a numpy integer or float array, which is checked
    without a Python loop; anything else is NonPhysicalParameter.
    total = survival^T * eta_conv(T) is the intracavity retrieval
    probability; facet transmission and collection are applied downstream.
    """
    if not (isinstance(delays, np.ndarray) and delays.dtype.kind in "iuf"):
        # each element's own type, as objects: a float cast reads "3" and True as numbers
        for x in np.array(delays, object, ndmin=1).ravel().tolist():
            number("readout delay", x)
    d = np.array(delays, dtype=float, ndmin=1, copy=None)
    if d.ndim != 1 or not (np.isfinite(d) & (d >= 0)).all():
        raise NonPhysicalParameter("readout delays must be a list of finite values >= 0")
    return _curve(cfg, d)


def _curve(cfg: ValidatedConfig, d):
    """readout_curve at a 1-D float array d of delays its caller has checked."""
    t, profile, rows = _quadrature(cfg)
    if d.size == 1:
        # scalar center, width and norm; the (1, nodes) product keeps a chunk's bits
        eta = envelope_intensity(cfg, d[0], t)[None] @ profile
    else:
        eta = np.empty(d.size)
        for i in range(0, d.size, rows):
            eta[i:i + rows] = envelope_intensity(cfg, d[i:i + rows, None], t) @ profile
    survival, total = _retrieval(cfg, d, eta)
    return survival, eta, total


def conversion_efficiency(cfg: ValidatedConfig) -> float:
    """Internal conversion efficiency at delay 1, where eta_conversion is defined."""
    return float(readout_curve(cfg, 1)[1][0])


def _check_delays(delays) -> np.ndarray:
    """The delays as a 1-D float array; NonPhysicalParameter unless they are
    one integer >= 1 or a list of them."""
    # in Python, and a plain int without an object array: a one-delay check costs about
    # a scalar compare; as objects, so that numpy casts no bool in a list of numbers to
    # an integer, and a nested list yields lists, which are no integers
    values = [delays] if type(delays) is int else np.array(delays, object, ndmin=1).tolist()
    for x in values:
        integer("readout delay", x, 1)
    try:
        return np.array(delays, dtype=float, ndmin=1)
    except OverflowError:
        raise NonPhysicalParameter(f"readout delays must fit a float, got {delays}") from None


def readout_probability(delay_cycles: int, cfg: ValidatedConfig):
    """(survival, conversion efficiency, total) at an integer delay >= 1.

    Monotone nonincreasing in T when mismatch and dispersion are >= 0.
    Equal to readout_curve(cfg, [delay_cycles]) bit for bit.
    """
    d = _check_delays(delay_cycles)
    if d.size != 1:
        raise NonPhysicalParameter(f"readout delay must be one integer, got {delay_cycles}")
    return tuple(a.item() for a in _curve(cfg, d))


def signal_branch_probs(cfg: ValidatedConfig, delays, total=None):
    """(monitor, readout) per-photon branch probabilities as arrays over delays.

    A stored photon leaks toward the monitor arm during the readout bin, is
    read out and collected, or neither. total is the readout curve's
    retrieval probability at the delays, computed when not given.
    """
    d = _check_delays(delays)
    if total is None:
        total = _curve(cfg, d)[2]
    s = cfg.survival_per_cycle
    q_mon = (1.0 - s) * s ** (d - 1) * cfg.detectors.eta_s_path
    chain = total * (1.0 - cfg.cavity.reflectivity_r) * cfg.detectors.eta_r_path
    return q_mon, chain


def one_over_e_delay(cfg: ValidatedConfig) -> float:
    """Delay (cycles) at which the retrieval probability falls to 1/e.

    The reference is the zero-delay extrapolation (unit survival, envelope
    at its generation duration and position), so a pure ring-down decay
    returns exactly the configured lifetime. The crossing is the first
    integer delay at or below the target, interpolated linearly in log
    space from the delay before it; a retrieval that underflows to 0 there
    returns that integer delay. A memory that retrieves nothing (a control
    energy or the nonlinear coefficient 0) has no 1/e delay: DivisionByZeroRate.
    """
    # readout_curve's own chunks of 0..ONE_OVER_E_MAX_CYCLES, up to the one that holds
    # the crossing: the same matrix products as one call over all delays, so the same bits
    end = ONE_OVER_E_MAX_CYCLES + 1
    rows = _quadrature(cfg)[2]
    total = np.empty(0)
    for start in range(0, end, rows):
        chunk = np.arange(start, min(start + rows, end), dtype=float)
        total = np.concatenate([total, _curve(cfg, chunk)[2]])
        target = total[0] / math.e
        below = np.flatnonzero(total[1:] <= target)
        if below.size:
            break
    else:
        raise NoConvergence("retrieval probability stayed above 1/e up to "
                            f"{ONE_OVER_E_MAX_CYCLES} cycles", best=float(total[-1]))
    if total[0] == 0.0:
        raise DivisionByZeroRate("zero efficiency: the retrieval probability is 0 at delay 0")
    t = int(below[0]) + 1
    prev, cur = float(total[t - 1]), float(total[t])
    if prev <= 0 or cur <= 0:
        return float(t)
    return t - 1 + (math.log(prev) - math.log(target)) / (math.log(prev) - math.log(cur))


def solve_nonlinear_coeff(cfg: ValidatedConfig, target_eta: float,
                          diagnostics: dict | None = None) -> float:
    """Nonlinear coefficient that reaches target_eta at delay 1 (the eta_conversion target).

    The conversion angle on a node is coeff * scale * window, with scale =
    sqrt(E_p) sqrt(E_q) / (3 walkoff). Up to rise, where it is pi/2 on the
    node of the widest window, every node's sin^2 rises, and so does eta:
    a target up to eta(rise) is bracketed on [lo, rise], lo = 1e-4 (or
    rise / 2 if that is lower), and the root found is the lowest. A higher
    one is bracketed on [rise, peak], the coefficient where the slope of eta
    on the same nodes turns negative. Only the weighted profile depends on
    the coefficient, so the delay-1 envelope on the nodes is computed once
    and each trial coefficient costs one profile and the product
    readout_curve forms, the same bits as conversion_efficiency of cfg with
    that coefficient. A target outside [eta(lo), eta(peak)] is NoConvergence
    naming that range. A diagnostics dict, if given, receives "evaluations":
    at how many coefficients the solve evaluated eta or its slope.
    """
    from . import solvers

    p = cfg.pulses
    t, w, window = _nodes(cfg.source.envelope_rms_ps, cfg.control_tau_ps, cfg.walkoff_ratio)
    scale = (math.sqrt(p.energy_p_nj) * math.sqrt(p.energy_q_nj)
             / (3.0 * cfg.cavity.walkoff_ps_per_m))
    if scale * float(window.max()) == 0.0:
        raise NoConvergence("the conversion is 0 at every coefficient: a control energy "
                            "or the walk-off window is 0 on every node")
    rise = math.pi / 2.0 / (float(window.max()) * scale)
    envelope = envelope_intensity(cfg, np.ones((1, 1)), t)
    slope_weights = (envelope * w * window)[0]

    @solvers.evaluated_once
    def eta_for(coeff):
        return float((envelope @ _profile_at(cfg, coeff)[1])[0])

    @solvers.evaluated_once
    def slope(coeff):  # d eta / d coeff, divided by scale
        return float(slope_weights @ np.sin(2.0 * coeff * scale * window))

    def peak():
        """The coefficient past rise where the slope of eta turns negative."""
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
                f"conversion saturates at {eta_for(hi):.4f} < target {target_eta}", best=hi)
    elif target_eta < eta_for(lo):
        raise NoConvergence(
            f"conversion target {target_eta} is unreachable: the conversion reaches only "
            f"{eta_for(lo):.4g} to {eta_for(peak()):.4f}", best=lo)
    # the coefficient scales as 1 / sqrt(E_p E_q): below rise = 1 the tolerance scales with it
    coeff = solvers.brentq(lambda g: eta_for(g) - target_eta, lo, hi,
                           xtol=1e-10 * min(1.0, rise))
    if diagnostics is not None:
        diagnostics["evaluations"] = len(eta_for.values) + len(slope.values)
    return coeff
