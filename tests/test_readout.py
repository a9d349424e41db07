import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcsim import fockstats, readout, trialsim
from fcsim.errors import DivisionByZeroRate, GridTooCoarse, NoConvergence, NonPhysicalParameter
from fcsim.readout import (
    conversion_efficiency,
    envelope_intensity,
    readout_curve,
    readout_probability,
)
from oracles import (
    adaptive_overlap,
    one_over_e_delay_full_range,
    solve_nonlinear_coeff_rebuilding,
    xi_profile,
)


def test_erf_against_high_precision_oracle():
    """The special function behind the conversion window must be accurate
    to one unit in the last place of values below 1; checked against an
    independent arbitrary-precision evaluation."""
    mpmath.mp.dps = 40
    x = np.concatenate([np.linspace(-20, 20, 4001), [2.05, -2.05, 0.0, 0.8727]])
    exact = np.array([float(mpmath.erf(mpmath.mpf(float(v)))) for v in x])
    assert np.max(np.abs(readout._erf(x) - exact)) <= 2.0 ** -53


def test_erf_matches_scipy():
    """math.erf replaces scipy.special.erf at the rounding level: each is within
    about 1.5 units in the last place of the exact value (scipy is 3.1e-16 off
    at x = 0.8727), so the two differ by at most 3 units below 1."""
    from scipy.special import erf as scipy_erf

    x = np.concatenate([np.linspace(-20, 20, 400_001), [0.8727]])
    assert np.max(np.abs(readout._erf(x) - scipy_erf(x))) <= 3 * 2.0 ** -53
    assert readout._erf(np.float64(0.5)).shape == ()
    assert readout._erf(np.zeros((2, 3))).shape == (2, 3)


def test_quadrature_rule_is_leggauss():
    """The written-out 16-node rule is numpy's, bit for bit."""
    x, w = np.polynomial.legendre.leggauss(readout.PANEL_NODES)
    nodes, weights = readout._gauss_legendre()
    assert np.array_equal(nodes, x) and np.array_equal(weights, w)


def test_xi_zero_energy():
    t = np.linspace(-50, 50, 101)
    xi = xi_profile(t, 0.0, 8.6, 3.0, 13.5, 8.1, 4.1)
    assert np.all(xi == 0.0)


def test_xi_vanishes_far_away():
    xi = xi_profile(np.array([-1e4, 1e4]), 6.9, 8.6, 3.0, 13.5, 8.1, 4.1)
    assert np.all(np.abs(xi) < 1e-12)


def test_xi_center_value():
    # xi(0) = amp * 2 * erf(zeta/2); erf(2.05) = 0.99626 from the oracle table
    amp = 3.0 * math.sqrt(6.9 * 8.6) / (3.0 * 13.5)
    xi0 = float(xi_profile(0.0, 6.9, 8.6, 3.0, 13.5, 8.1, 4.1))
    assert xi0 == pytest.approx(amp * 2.0 * 0.99626, rel=1e-4)
    assert xi0 == pytest.approx(amp * 1.9925, rel=1e-4)


@settings(deadline=None, max_examples=60)
@given(
    t=st.floats(-100, 100),
    ep=st.floats(0, 50),
    eq=st.floats(0, 50),
    gamma=st.floats(0.01, 20),
    beta=st.floats(1, 40),
    tau=st.floats(0.5, 40),
    zeta=st.floats(0.1, 10),
)
def test_efficiency_bounded(t, ep, eq, gamma, beta, tau, zeta):
    xi = float(xi_profile(t, ep, eq, gamma, beta, tau, zeta))
    assert math.isfinite(xi)
    eff = math.sin(xi) ** 2
    assert 0.0 <= eff <= 1.0


@settings(deadline=None, max_examples=40)
@given(c=st.floats(0.05, 20), t=st.floats(-40, 40))
def test_xi_energy_product_invariance(c, t):
    """Scaling (E_p, E_q) -> (c E_p, E_q / c) leaves xi unchanged."""
    a = float(xi_profile(t, 6.9, 8.6, 3.0, 13.5, 8.1, 4.1))
    b = float(xi_profile(t, c * 6.9, 8.6 / c, 3.0, 13.5, 8.1, 4.1))
    assert b == pytest.approx(a, rel=1e-12, abs=1e-15)


def test_xi_even_in_time():
    t = np.linspace(0.1, 60, 37)
    plus = xi_profile(t, 6.9, 8.6, 3.0, 13.5, 8.1, 4.1)
    minus = xi_profile(-t, 6.9, 8.6, 3.0, 13.5, 8.1, 4.1)
    assert np.allclose(plus, minus, rtol=1e-13)


def test_envelope_normalized(primary):
    center = primary.cavity.mismatch_ps_per_cycle * 25
    t = np.linspace(center - 60, center + 60, 20001)
    integral = np.trapezoid(envelope_intensity(primary, 25, t), t)
    assert integral == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("delay", [0, 1, 67, 300, 2000, 2.5, np.int64(13), np.float64(150.0)])
def test_envelope_of_one_delay_is_the_array_path(primary, delay):
    """A scalar delay gives the bits of the same delay as a (1, 1) array."""
    t = readout._quadrature(primary)[0]
    one = envelope_intensity(primary, delay, t)
    assert one.shape == t.shape
    assert one.tobytes() == envelope_intensity(primary, [[delay]], t)[0].tobytes()


def test_envelope_leaves_the_times_unchanged(primary):
    """The envelope is formed in place in an array of its own, never in t_ps."""
    t = np.linspace(-60.0, 60.0, 241)
    before = t.copy()
    for delay in (7, [[1], [7]]):
        envelope_intensity(primary, delay, t)
        assert t.tobytes() == before.tobytes()


def test_envelope_at_one_time_and_one_delay_is_a_scalar(primary):
    one = envelope_intensity(primary, 7, 0.5)
    assert np.ndim(one) == 0 and one == envelope_intensity(primary, 7, np.array([0.5]))[0]


def test_overlap_narrow_envelope_reads_profile_peak(primary):
    """A very short wavepacket at the window center sees sin^2(xi(0))."""
    cfg = primary.replace_fields(**{"source.envelope_rms_ps": 0.05,
                                    "cavity.mismatch_ps_per_cycle": 0.0})
    xi0 = float(xi_profile(0.0, cfg.pulses.energy_p_nj, cfg.pulses.energy_q_nj,
                           cfg.pulses.nonlinear_coeff, cfg.cavity.walkoff_ps_per_m,
                           cfg.control_tau_ps, cfg.walkoff_ratio))
    _, eta, _ = readout_curve(cfg, [0])
    assert eta[0] == pytest.approx(math.sin(xi0) ** 2, rel=2e-3)


def test_overlap_no_overlap(primary):
    """An envelope parked 150 ps from the window center is not converted."""
    cfg = primary.replace_fields(**{"source.envelope_rms_ps": 2.0,
                                    "cavity.mismatch_ps_per_cycle": 1.5,
                                    "cavity.dispersion_ps2_per_cycle": 0.0})
    _, eta, _ = readout_curve(cfg, [100])
    assert eta[0] < 1e-6


def test_overlap_grid_too_coarse(primary):
    """An envelope too narrow for 2^22 quadrature nodes is refused."""
    cfg = primary.replace_fields(**{"source.envelope_rms_ps": 1e-5})
    with pytest.raises(GridTooCoarse):
        readout_curve(cfg, [1])


def _clear_caches():
    readout._profile.cache_clear()
    readout._nodes.cache_clear()


def test_cached_profile_is_read_only(primary):
    p = primary
    t, profile = readout._profile(p.source.envelope_rms_ps, p.pulses.energy_p_nj,
                                  p.pulses.energy_q_nj, p.pulses.nonlinear_coeff,
                                  p.cavity.walkoff_ps_per_m, p.control_tau_ps, p.walkoff_ratio)
    cached = (t, profile, *readout._nodes(p.source.envelope_rms_ps, p.control_tau_ps,
                                          p.walkoff_ratio))
    assert not any(a.flags.writeable for a in cached)
    with pytest.raises(ValueError):
        profile[0] = 1.0


def test_cache_hit_equals_cold_call(primary):
    delays = np.arange(0, 301)
    _clear_caches()
    cold = readout_curve(primary, delays)
    hits = readout._profile.cache_info().hits
    warm = readout_curve(primary, delays)
    assert readout._profile.cache_info().hits == hits + 1
    for a, b in zip(cold, warm):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("field, factor", [
    ("pulses.energy_p_nj", 1.1),
    ("pulses.energy_q_nj", 1.1),
    ("pulses.nonlinear_coeff", 1.1),
    ("cavity.walkoff_ps_per_m", 1.1),
    ("cavity.length_m", 1.1),
    ("pulses.control_fwhm_ps", 1.1),
    ("source.envelope_rms_ps", 0.5),
])
def test_profile_field_change_misses_cache(primary, field, factor):
    """Every field the conversion profile depends on is part of its cache key:
    with the unchanged setting cached, a changed field gives the cold-call curve."""
    section, name = field.split(".")
    changed = primary.replace_fields(
        **{field: getattr(getattr(primary, section), name) * factor})
    delays = np.arange(1, 120)
    base = readout_curve(primary, delays)[1]
    warm = readout_curve(changed, delays)[1]
    _clear_caches()
    cold = readout_curve(changed, delays)[1]
    assert np.array_equal(warm, cold)
    assert not np.array_equal(warm, base)


@pytest.mark.parametrize("kwargs", [{"pulses.energy_p_nj": 6.0},
                                    {"pulses.energy_q_nj": 7.0}])
def test_energy_arguments_miss_cache(primary, kwargs):
    delays = np.arange(1, 120)
    base = readout_curve(primary, delays)[1]
    changed = primary.replace_fields(**kwargs)
    warm = readout_curve(changed, delays)[1]
    _clear_caches()
    assert np.array_equal(warm, readout_curve(changed, delays)[1])
    assert not np.array_equal(warm, base)


@pytest.mark.parametrize("delays", [
    "3", [1, "2"], "abc", True, [1, True], np.array([True, False]), None, [None],
    10**400, [1, 10**400], 1 + 2j, [[1], [2, 3]], [[1, 2]], [3, -1], math.nan,
    np.array([1.0, math.inf]), np.array([[1, 2]]), np.array(["1"]),
], ids=lambda delays: repr(delays)[:24])
def test_readout_curve_rejects_what_is_no_delay(primary, delays):
    """A string, a bool, None, a complex number, an integer too large for a
    float, a nested list or a value that is not finite and >= 0: none is read
    as a number, and none escapes as an untyped error."""
    with pytest.raises(NonPhysicalParameter):
        readout_curve(primary, delays)


def test_readout_curve_checks_numpy_arrays_without_a_loop(primary, monkeypatch):
    """Integer and float arrays, which fit_memory_model and sweep pass at
    every residual and scan, skip the per-element rule: their check is one
    vectorised test, and rejects what the rule would."""
    delays = (np.arange(1, 60), np.arange(1, 60, dtype=np.uint16), np.arange(0, 30) / 2.0)
    want = [readout_curve(primary, d) for d in delays]

    def per_element(*args):
        raise AssertionError("a numpy array checked element by element")

    monkeypatch.setattr(readout, "number", per_element)
    for d, w in zip(delays, want):
        assert all(np.array_equal(a, b) for a, b in zip(readout_curve(primary, d), w))
    for bad in (np.array([1.0, -1.0]), np.array([1.0, math.nan]), np.array([-3])):
        with pytest.raises(NonPhysicalParameter):
            readout_curve(primary, bad)


@settings(deadline=None, max_examples=40)
@given(
    sigma0=st.floats(0.05, 20),
    mismatch=st.floats(0.0, 0.5),
    psi2=st.floats(0.0, 0.2),
    delays=st.lists(st.integers(0, 400), min_size=1, max_size=3),
)
def test_readout_curve_matches_adaptive_grid(primary, sigma0, mismatch, psi2, delays):
    """The fixed Gauss-Legendre quadrature agrees with the refined trapezoid grid."""
    cfg = primary.replace_fields(**{"source.envelope_rms_ps": sigma0,
                                    "cavity.mismatch_ps_per_cycle": mismatch,
                                    "cavity.dispersion_ps2_per_cycle": psi2})
    _, eta, _ = readout_curve(cfg, delays)
    for d, value in zip(delays, eta):
        assert abs(value - adaptive_overlap(cfg, d)) <= 1e-9


@pytest.mark.parametrize("name", ["primary", "alternate"])
def test_batched_curve_equals_single_delays(request, name):
    cfg = request.getfixturevalue(name)
    delays = np.arange(1, 401)
    batched = np.column_stack(readout_curve(cfg, delays))
    single = np.array([readout_probability(int(t), cfg) for t in delays])
    assert np.max(np.abs(batched - single)) <= 1e-15


def test_boosted_conversion_matches_adaptive_grid(primary):
    ep, eq = 6.9 * 1.4, 8.6 * 1.4
    boosted = primary.replace_fields(**{"pulses.energy_p_nj": ep, "pulses.energy_q_nj": eq})
    assert conversion_efficiency(boosted) == \
        pytest.approx(adaptive_overlap(primary, 1, ep, eq), abs=1e-12)


def test_calibrated_conversion_efficiency(primary):
    assert conversion_efficiency(primary) == pytest.approx(0.8, abs=1e-6)


def test_conversion_at_boosted_energies(primary):
    eta = conversion_efficiency(primary.replace_fields(
        **{"pulses.energy_p_nj": 6.9 * 1.4, "pulses.energy_q_nj": 8.6 * 1.4}))
    assert 0.95 < eta < 0.999


@pytest.mark.parametrize("name", ["primary", "alternate"])
def test_solve_nonlinear_coeff_equals_rebuilding_oracle(request, name, monkeypatch):
    """The conversion solve takes the delay-1 envelope once and each trial
    coefficient's profile once, and finds the coefficient, compared with ==,
    of the solve that builds a config and its readout curve at every trial."""
    cfg = request.getfixturevalue(name)
    profiles, real = [], readout._profile_at

    def counting(c, coeff):
        profiles.append(coeff)
        return real(c, coeff)

    monkeypatch.setattr(readout, "_profile_at", counting)
    for target in np.linspace(0.5, 0.9, 9):
        profiles.clear()
        found = {}
        coeff = readout.solve_nonlinear_coeff(cfg, target, found)
        assert len(set(profiles)) == len(profiles) == found["evaluations"]
        assert coeff == solve_nonlinear_coeff_rebuilding(cfg, target), target


@pytest.mark.parametrize("name", ["primary", "alternate"])
def test_solve_past_the_rising_branch_equals_rebuilding_oracle(request, name):
    """Targets above the conversion where the widest node's angle is pi/2
    are bracketed up to the maximum, and the solve still finds the
    coefficient of the oracle that rebuilds its config at every trial."""
    cfg = request.getfixturevalue(name)
    for target in (0.986, 0.987, 0.9877, 0.98779):
        found = {}
        coeff = readout.solve_nonlinear_coeff(cfg, target, found)
        assert coeff == solve_nonlinear_coeff_rebuilding(cfg, target), target
        assert found["evaluations"] > 10


@pytest.mark.parametrize("fields", [
    {}, {"source.envelope_rms_ps": 20.0}, {"source.envelope_rms_ps": 200.0},
    {"cavity.walkoff_ps_per_m": 3.0}, {"cavity.walkoff_ps_per_m": 12.0}])
def test_conversion_maximum_is_the_root_of_its_slope(primary, fields):
    """The saturation a too-high target names is the conversion at the root
    of its slope: no point of a 2001-point coefficient grid around it
    converts more, and the grid's best point is within two steps of it."""
    cfg = primary.replace_fields(**fields)
    with pytest.raises(NoConvergence, match="saturates") as err:
        readout.solve_nonlinear_coeff(cfg, 1.0)
    peak = err.value.best
    t = readout._nodes(cfg.source.envelope_rms_ps, cfg.control_tau_ps, cfg.walkoff_ratio)[0]
    envelope = readout.envelope_intensity(cfg, 1, t)
    grid = np.linspace(0.8 * peak, 1.2 * peak, 2001)
    etas = np.array([envelope @ readout._profile_at(cfg, c)[1] for c in grid])
    at_peak = conversion_efficiency(cfg.replace_fields(**{"pulses.nonlinear_coeff": peak}))
    assert etas.max() <= at_peak + 1e-12
    assert abs(grid[etas.argmax()] - peak) <= 2 * (grid[1] - grid[0])


@pytest.mark.parametrize("factor", [1e-6, 1e-3, 1e3, 1e6, 1e9, 1e12])
def test_conversion_solve_scales_with_the_control_energies(primary, factor):
    """The angle is coefficient times sqrt(E_p E_q), so energies scaled by a
    factor need the coefficient divided by it; the rising branch is found at
    every scale, also where it ends below the lowest bracket end 1e-4, and
    the root to the same relative precision."""
    cfg = primary.replace_fields(**{"pulses.energy_p_nj": primary.pulses.energy_p_nj * factor,
                                    "pulses.energy_q_nj": primary.pulses.energy_q_nj * factor})
    assert readout.solve_nonlinear_coeff(cfg, 0.8) == \
        pytest.approx(readout.solve_nonlinear_coeff(primary, 0.8) / factor, rel=1e-12)


def test_readout_probability_first_bin(primary):
    survival, eta, total = readout_probability(1, primary)
    assert survival == pytest.approx(math.exp(-1 / 111), rel=1e-12)
    assert eta == pytest.approx(0.8, abs=1e-6)
    assert total == pytest.approx(0.79, abs=0.005)


def test_branch_probabilities_have_one_home():
    """The click engine and the Monte Carlo call the readout's own function."""
    assert (trialsim.signal_branch_probs is fockstats.signal_branch_probs
            is readout.signal_branch_probs)


def test_readout_probability_takes_one_delay(primary):
    """A list of delays is an error, not the readout at its first delay."""
    with pytest.raises(NonPhysicalParameter):
        readout_probability([3, 5], primary)


# readout_probability as float.hex (survival, eta, total); at 13 (primary) and
# 150 (alternate) a scalar survival ** T differs from the array power in the last bit
READOUT_PINS = {
    "primary": {
        1: ("0x1.fb68796a97fdap-1", "0x1.9999999999997p-1", "0x1.95ed2deedffdfp-1"),
        13: ("0x1.c76a0e2fbe4b0p-1", "0x1.97a64fbbb46e6p-1", "0x1.6a98bc9560295p-1"),
        67: ("0x1.17fb159017970p-1", "0x1.61c0f695c20eap-1", "0x1.82e442baecb13p-2"),
        150: ("0x1.091a8161c0849p-2", "0x1.bc046e54c05b7p-2", "0x1.cbce8f10b6e9fp-4"),
        300: ("0x1.1287e29ae9d13p-4", "0x1.c9f43d38ca64ap-3", "0x1.eb1a7eb1ced0ep-7"),
        2000: ("0x1.00fa14d43404ap-26", "0x1.0e95706124f74p-5", "0x1.0f9dc454db594p-31"),
    },
    "alternate": {
        1: ("0x1.d7100fbf669bdp-1", "0x1.9999999999997p-1", "0x1.78d9a632b87c8p-1"),
        13: ("0x1.5a96ae2ea40a7p-2", "0x1.97a64fbbb46e6p-1", "0x1.13f35c49dc920p-2"),
        67: ("0x1.ecd50a94b7966p-9", "0x1.61c0f695c20eap-1", "0x1.54829f0a0337ep-9"),
        150: ("0x1.f42ed3f68e6d0p-19", "0x1.bc046e54c05b7p-2", "0x1.b1c4eff652934p-20"),
        300: ("0x1.e8a37a45fc3acp-37", "0x1.c9f43d38ca64ap-3", "0x1.b50f02f96a17ep-39"),
        2000: ("0x1.77054e462ead3p-241", "0x1.0e95706124f74p-5", "0x1.8c628345357c2p-246"),
    },
}


@pytest.mark.parametrize("name", ["primary", "alternate"])
def test_readout_probability_bits_are_pinned(request, name):
    cfg = request.getfixturevalue(name)
    for delay, want in READOUT_PINS[name].items():
        assert tuple(v.hex() for v in readout_probability(delay, cfg)) == want, delay


def test_one_delay_readout_forms_a_chunks_product(primary, monkeypatch):
    """Every one-delay caller forms the (1, nodes) @ (nodes,) product of a
    chunk of delays, which a (nodes,) @ (nodes,) dot need not equal bit for
    bit under another BLAS."""
    nodes = readout._quadrature(primary)[0].size
    products, real = [], readout.envelope_intensity

    class Spy(np.ndarray):
        def __matmul__(self, other):
            products.append((self.shape, np.shape(other)))
            return np.asarray(self) @ other

    monkeypatch.setattr(readout, "envelope_intensity", lambda *a: real(*a).view(Spy))
    calls = (lambda d: readout_probability(d, primary),
             lambda d: readout_curve(primary, [d]),
             lambda d: readout.signal_branch_probs(primary, d))
    for delay in (1, 13, 150):
        for call in calls:
            products.clear()
            call(delay)
            assert products == [((1, nodes), (nodes,))]
        one = readout_probability(delay, primary)
        assert one == tuple(v.item() for v in readout_curve(primary, [delay]))


@pytest.mark.parametrize("delays", [[[3]], np.array([[2, 3]]), [[]]])
def test_branch_probabilities_reject_nested_delays(primary, delays):
    """Delays on more than one axis fail, also with a retrieval given."""
    for total in (None, np.array([0.5])):
        with pytest.raises(NonPhysicalParameter):
            readout.signal_branch_probs(primary, delays, total)


def test_readout_probability_monotone(primary):
    totals = [readout_probability(t, primary)[2] for t in range(1, 120, 6)]
    assert all(a >= b for a, b in zip(totals, totals[1:]))


def test_pure_ringdown_is_exponential(primary):
    """With no mismatch and no dispersion the decay is a pure exponential."""
    cfg = primary.replace_fields(**{
        "cavity.mismatch_ps_per_cycle": 0.0,
        "cavity.dispersion_ps2_per_cycle": 0.0,
    })
    delays = np.arange(1, 200, 7)
    totals = np.array([readout_probability(int(t), cfg)[2] for t in delays])
    log_slopes = np.diff(np.log(totals)) / np.diff(delays)
    assert np.allclose(log_slopes, -1.0 / 111.0, rtol=1e-9)
    t_e = readout.one_over_e_delay(cfg)
    assert t_e == pytest.approx(111.0, abs=0.01)


def test_one_over_e_delay_interpolates_a_pure_ringdown(primary):
    """A pure ring-down reaches 1/e at its lifetime, between two delays: the
    log-linear interpolation of an exponential returns it exactly."""
    cfg = primary.replace_fields(**{
        "cavity.mismatch_ps_per_cycle": 0.0,
        "cavity.dispersion_ps2_per_cycle": 0.0,
        "cavity.ringdown_lifetime_cycles": 67.4,
    })
    assert readout.one_over_e_delay(cfg) == pytest.approx(67.4, rel=1e-9)


def test_memory_one_over_e_point(primary):
    cfg = primary.replace_fields(**{"cavity.ringdown_lifetime_cycles": 78.0})
    t_e = readout.one_over_e_delay(cfg)
    assert 64.0 <= t_e <= 70.0


def test_one_over_e_delay_not_reached(primary):
    """A lossless-looking memory never falls to 1/e within the search range;
    the error carries the retrieval at the last delay searched."""
    cfg = primary.replace_fields(**{
        "cavity.ringdown_lifetime_cycles": 1e9,
        "cavity.mismatch_ps_per_cycle": 0.0,
        "cavity.dispersion_ps2_per_cycle": 0.0,
    })
    with pytest.raises(NoConvergence) as info:
        readout.one_over_e_delay(cfg)
    last = readout_probability(readout.ONE_OVER_E_MAX_CYCLES, cfg)[2]
    assert info.value.best == pytest.approx(last, rel=1e-12)
    assert last > readout_curve(cfg, [0])[2][0] / math.e


@pytest.mark.parametrize("field", ["pulses.nonlinear_coeff", "pulses.energy_p_nj",
                                   "pulses.energy_q_nj"])
def test_one_over_e_delay_of_a_memory_that_retrieves_nothing(primary, field):
    """Either control energy or the coefficient at 0 retrieves nothing at any
    delay: there is no 1/e delay, not a crossing at delay 1."""
    cfg = primary.replace_fields(**{field: 0.0})
    assert not readout_curve(cfg, np.arange(10))[2].any()
    with pytest.raises(DivisionByZeroRate, match="zero efficiency"):
        readout.one_over_e_delay(cfg)


def test_one_over_e_delay_of_a_retrieval_that_underflows(primary):
    """A positive reference whose retrieval underflows to 0 at delay 1
    crosses 1/e there: the integer delay, with nothing to interpolate."""
    cfg = primary.replace_fields(**{"cavity.ringdown_lifetime_cycles": 1e-3})
    total = readout_curve(cfg, [0, 1])[2]
    assert total[0] > 0.0 and total[1] == 0.0
    assert readout.one_over_e_delay(cfg) == 1.0


@pytest.mark.parametrize("field", ["pulses.energy_p_nj", "pulses.energy_q_nj"])
def test_conversion_solve_with_a_control_energy_of_zero(primary, field):
    """No coefficient converts anything without both controls: the solve and
    the calibration say so, not that the maximum could not be bracketed."""
    cfg = primary.replace_fields(**{field: 0.0})
    with pytest.raises(NoConvergence, match="conversion is 0 at every coefficient"):
        readout.solve_nonlinear_coeff(cfg, 0.8)
    with pytest.raises(NoConvergence, match="conversion is 0 at every coefficient"):
        fockstats.calibrate(cfg, {"eta_conversion": 0.8})


def test_tiny_control_energies_convert_by_their_scale(primary):
    """The conversion scale takes each energy's square root: energies of
    1e-170 nJ, whose product underflows to 0, with a coefficient of 1e170
    convert as energies of 1 nJ with a coefficient of 1."""
    def at(energy, coeff):
        return primary.replace_fields(**{"pulses.energy_p_nj": energy,
                                         "pulses.energy_q_nj": energy,
                                         "pulses.nonlinear_coeff": coeff})
    tiny, unit = at(1e-170, 1e170), at(1.0, 1.0)
    assert 1e-170 * 1e-170 == 0.0
    assert conversion_efficiency(unit) > 0.0
    assert conversion_efficiency(tiny) == pytest.approx(conversion_efficiency(unit), rel=1e-12)
    assert readout.one_over_e_delay(tiny) == pytest.approx(readout.one_over_e_delay(unit),
                                                           rel=1e-12)


def _ringdown(cfg, lifetime, **fields):
    """cfg as a pure ring-down of the given lifetime, with further dotted fields."""
    return cfg.replace_fields(**{"cavity.mismatch_ps_per_cycle": 0.0,
                                 "cavity.dispersion_ps2_per_cycle": 0.0,
                                 "cavity.ringdown_lifetime_cycles": lifetime, **fields})


ONE_OVER_E_CASES = {
    "primary": lambda primary, alternate: primary,
    "alternate": lambda primary, alternate: alternate,
    "lifetime_78": lambda primary, alternate: primary.replace_fields(
        **{"cavity.ringdown_lifetime_cycles": 78.0}),
    # crossings in the second, third and last 512-delay chunk
    "ringdown_700": lambda primary, alternate: _ringdown(primary, 700.0),
    "ringdown_1500": lambda primary, alternate: _ringdown(primary, 1500.0),
    "ringdown_1999": lambda primary, alternate: _ringdown(alternate, 1999.7),
    # a narrower envelope needs more nodes, so a chunk holds fewer delays
    "narrow_ringdown_700": lambda primary, alternate: _ringdown(
        primary, 700.0, **{"source.envelope_rms_ps": primary.source.envelope_rms_ps / 3}),
    "never": lambda primary, alternate: _ringdown(primary, 1e9),
}


@pytest.mark.parametrize("case", ONE_OVER_E_CASES)
def test_one_over_e_delay_matches_the_full_range_search(primary, alternate, case):
    """Stopping at the first chunk that holds the crossing changes no bit of
    the 1/e delay, nor of the best retrieval of a memory that never gets there."""
    cfg = ONE_OVER_E_CASES[case](primary, alternate)
    if case == "never":
        with pytest.raises(NoConvergence) as want:
            one_over_e_delay_full_range(cfg)
        with pytest.raises(NoConvergence) as got:
            readout.one_over_e_delay(cfg)
        assert (str(got.value), got.value.best) == (str(want.value), want.value.best)
    else:
        assert readout.one_over_e_delay(cfg) == one_over_e_delay_full_range(cfg)


@pytest.mark.parametrize("case, delays", [("primary", [512]), ("ringdown_700", [512, 512]),
                                          ("never", [512, 512, 512, 465])])
def test_one_over_e_delay_evaluates_up_to_its_crossing(primary, alternate, monkeypatch,
                                                       case, delays):
    """The shipped configs' 128 nodes make chunks of 512 delays: the primary
    config crosses 1/e near delay 85 and evaluates the first chunk only."""
    seen, real = [], readout._curve

    def counting(cfg, d):
        seen.append(np.asarray(d).size)
        return real(cfg, d)

    monkeypatch.setattr(readout, "_curve", counting)
    try:
        readout.one_over_e_delay(ONE_OVER_E_CASES[case](primary, alternate))
    except NoConvergence:
        assert case == "never"
    assert seen == delays


def test_power_scan(primary):
    rows = []
    for ep in (0.0, 3.45, 6.9):
        cfg = primary.replace_fields(**{"pulses.energy_p_nj": ep})
        rows.append((ep, conversion_efficiency(cfg), cfg.noise_mean_per_trigger()))
    assert rows[0][1] == 0.0 and rows[0][2] == 0.0
    assert rows[2][1] == pytest.approx(0.8, abs=1e-6)
    # noise is linear in the p energy
    assert rows[1][2] == pytest.approx(rows[2][2] / 2.0, rel=1e-12)
    # saturating: efficiency grows sublinearly at the top end
    gain_lo = rows[1][1] / rows[1][0]
    gain_hi = rows[2][1] / rows[2][0]
    assert gain_hi < gain_lo


def test_heralding_gain_at_forty_percent(primary):
    eta0 = conversion_efficiency(primary)
    eta14 = conversion_efficiency(primary.replace_fields(
        **{"pulses.energy_p_nj": 6.9 * 1.4, "pulses.energy_q_nj": 8.6 * 1.4}))
    assert eta14 / eta0 == pytest.approx(1.22, abs=0.03)
