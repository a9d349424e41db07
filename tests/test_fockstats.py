import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcsim.config import DetectorParams, ValidatedConfig
from fcsim.errors import DivisionByZeroRate, NoConvergence, NonPhysicalParameter
from fcsim import estimators, fockstats, readout, trialsim
from fcsim.fockstats import (
    DETECTOR_BITS,
    EXACT,
    calibrate,
    click_model,
    correlations,
    model_patterns,
    pattern_probs,
)

from oracles import (
    PhotonNumberDistribution,
    add_thermal_noise,
    apply_loss,
    brute_click_patterns,
    calibrate_rebuilding,
    detect,
    g2_mixture,
    heralded_signal_moments,
    mixture_g2_curve,
    no_click_table_direct,
    split_mode,
    table_click_model,
    thin_pmf,
    threshold_click_prob,
    tmsv_state,
)

IDEAL_DETECTORS = DetectorParams(eta_herald_path=1.0, eta_r_path=1.0,
                                 eta_s_path=1.0, dark_prob_per_gate=0.0,
                                 splitter_ratio=0.5)


def single_mode(pmf, label="readout"):
    return PhotonNumberDistribution((label,), np.asarray(pmf, dtype=float))


# ---------------------------------------------------------------------------
# pair source (table oracle)
# ---------------------------------------------------------------------------

def test_tmsv_vacuum():
    dist = tmsv_state(0.0, 1.0, 8)
    assert dist.probabilities[0, 0] == 1.0
    assert dist.total() == 1.0


def test_tmsv_single_mode_geometric():
    dist = tmsv_state(1.0, 1.0, 40)
    # P(n, n) = mu^n / (1+mu)^(n+1)
    assert dist.probabilities[1, 1] == pytest.approx(0.25, rel=1e-12)
    assert dist.probabilities[0, 0] == pytest.approx(0.5, rel=1e-12)
    assert dist.probabilities[2, 1] == 0.0


def test_tmsv_marginal_is_thermal():
    mu = 0.3
    dist = tmsv_state(mu, 1.0, 30)
    marg = dist.marginal("signal")
    n = np.arange(marg.size)
    expected = mu**n / (1 + mu) ** (n + 1)
    assert np.allclose(marg, expected, atol=1e-12)
    assert dist.mean("signal") == pytest.approx(mu, rel=1e-9)


def test_tmsv_cross_correlation_identity():
    # <n_h n_s> / (<n_h><n_s>) = 2 + 1/mu for one Schmidt mode
    mu = 0.1
    dist = tmsv_state(mu, 1.0, 25)
    assert dist.cross_g2("herald", "signal") == pytest.approx(2 + 1 / mu, abs=1e-6)


def test_multimode_cross_correlation():
    mu, k = 0.2, 4.0
    dist = tmsv_state(mu, k, 30)
    assert dist.cross_g2("herald", "signal") == pytest.approx(
        1 + 1 / k + 1 / mu, rel=1e-9)


# ---------------------------------------------------------------------------
# loss (table oracle)
# ---------------------------------------------------------------------------

def test_loss_identity_and_vacuum():
    dist = tmsv_state(0.5, 1.0, 20)
    same = apply_loss(dist, "signal", 1.0)
    assert np.allclose(same.probabilities, dist.probabilities)
    dead = apply_loss(dist, "signal", 0.0)
    marg = dead.marginal("signal")
    assert marg[0] == pytest.approx(dead.total(), abs=1e-15)
    assert marg[0] == pytest.approx(1.0, abs=1e-9)


def test_thermal_closed_under_loss_matches_bruteforce():
    # thermal mean 0.5 thinned by 0.4 -> thermal mean 0.2
    mean = 0.5
    n = np.arange(41)
    thermal = mean**n / (1 + mean) ** (n + 1)
    dist = single_mode(thermal)
    thinned = apply_loss(dist, "readout", 0.4)
    assert thinned.mean("readout") == pytest.approx(0.2, rel=1e-10)
    brute = thin_pmf(list(thermal), 0.4)
    assert np.allclose(thinned.probabilities, brute, atol=1e-12)
    target = 0.2**n / 1.2 ** (n + 1)
    assert np.allclose(thinned.probabilities, target, atol=1e-10)


@settings(deadline=None, max_examples=30)
@given(e1=st.floats(0.05, 1.0), e2=st.floats(0.05, 1.0))
def test_loss_composition_law(e1, e2):
    dist = tmsv_state(0.4, 2.0, 14)
    two_step = apply_loss(apply_loss(dist, "signal", e1), "signal", e2)
    one_step = apply_loss(dist, "signal", e1 * e2)
    assert np.allclose(two_step.probabilities, one_step.probabilities, atol=1e-14)


def test_normalization_through_composition(primary):
    dist = tmsv_state(0.3, 1.5, 12)
    dist = apply_loss(dist, "herald", 0.2)
    dist = split_mode(dist, "signal", 0.01, 0.15, labels=("monitor", "readout"))
    dist = add_thermal_noise(dist, "readout", 0.08, 5.0)
    assert dist.total() == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# thermal noise (table oracle)
# ---------------------------------------------------------------------------

def test_noise_g2_identities():
    base = single_mode([1.0])
    for modes, expected in ((1.0, 2.0), (11.111111, 1.09), (1e7, 1.0)):
        noisy = add_thermal_noise(base, "readout", 0.3, modes)
        assert noisy.auto_g2("readout") == pytest.approx(expected, abs=1e-6)


def test_noise_mean():
    noisy = add_thermal_noise(single_mode([1.0]), "readout", 0.37, 4.2)
    assert noisy.mean("readout") == pytest.approx(0.37, rel=1e-9)


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def test_detect_vacuum_never_clicks():
    dist = tmsv_state(0.0, 1.0, 6)
    clicks = detect(dist, IDEAL_DETECTORS)
    for name in ("H", "S", "R1", "R2"):
        assert clicks.p(name) == 0.0


def test_single_photon_cannot_split():
    dist = single_mode([0.0, 1.0])
    clicks = detect(dist, IDEAL_DETECTORS)
    assert clicks.p_all("R1", "R2") == 0.0
    assert clicks.p("R1") == pytest.approx(0.5)
    assert clicks.p("R2") == pytest.approx(0.5)


def test_threshold_poisson_click():
    n = np.arange(60)
    poisson = np.exp(-1.0) / np.vectorize(math.factorial, otypes=[float])(n)
    dist = single_mode(poisson)
    p = threshold_click_prob(dist, "readout", eta=1.0, dark=0.0)
    assert p == pytest.approx(1 - math.exp(-1.0), abs=1e-10)
    # with finite efficiency the click probability follows 1 - e^(-eta)
    p = threshold_click_prob(dist, "readout", eta=0.3, dark=0.0)
    assert p == pytest.approx(1 - math.exp(-0.3), abs=1e-10)


def test_detect_marginal_consistency(primary):
    _, clicks = click_model(primary, 1)
    exact = EXACT @ clicks.q
    for name, bit in DETECTOR_BITS.items():
        total = sum(p for mask, p in enumerate(exact) if mask & bit)
        assert total == pytest.approx(clicks.p(name), abs=1e-12)
    assert exact.sum() == pytest.approx(1.0, abs=1e-9)


def _exact_by_set(clicks):
    """{frozenset of clicked detectors: P(exactly those click)} of all 16 patterns."""
    return {frozenset(d for d, bit in DETECTOR_BITS.items() if mask & bit): p
            for mask, p in enumerate(EXACT @ clicks.q)}


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------

def test_independent_poisson_cross_correlation():
    n = np.arange(30)
    pois = np.exp(-0.2) * 0.2**n / np.vectorize(math.factorial, otypes=[float])(n)
    table = np.outer(pois, pois)
    dist = PhotonNumberDistribution(("herald", "signal"), table)
    assert dist.cross_g2("herald", "signal") == pytest.approx(1.0, abs=1e-9)


def test_correlations_vacuum_raises():
    dist = tmsv_state(0.0, 1.0, 6)
    clicks = detect(dist, IDEAL_DETECTORS)
    with pytest.raises(DivisionByZeroRate):
        correlations(pattern_probs(clicks.q))


def test_heralded_autocorrelation_low_flux():
    """Ideal lossless detection at mu = 0.01: heralded g2 is close to 2 mu."""
    mu = 0.01
    dist = tmsv_state(mu, 1.0, 8)
    dist = split_mode(dist, "signal", 0.0, 1.0, labels=("monitor", "readout"))
    clicks = detect(dist, IDEAL_DETECTORS,
                    efficiencies={"herald": 1.0, "monitor": 1.0, "readout": 1.0})
    g2 = correlations(pattern_probs(clicks.q))["g2_ac_heralded"]
    assert g2 == pytest.approx(2 * mu, rel=0.10)


def test_clicks_match_bruteforce_enumeration(primary):
    """Full chain against the independent direct-sum oracle."""
    cfg = primary.replace_fields(**{"source.mean_pairs_per_pulse": 0.05})
    _, clicks = click_model(cfg, delay_cycles=3)
    (q_mon,), (chain,) = readout.signal_branch_probs(cfg, 3)
    brute = brute_click_patterns(
        mu=0.05, schmidt_modes=cfg.source.schmidt_modes, n_max=6,
        eta_herald=cfg.detectors.eta_herald_path,
        p_monitor=q_mon, p_readout=chain,
        noise_mean=cfg.noise_mean_per_trigger(),
        noise_modes=cfg.noise.mode_count,
        dark=cfg.detectors.dark_prob_per_gate,
        splitter=cfg.detectors.splitter_ratio,
    )
    for pattern, p in _exact_by_set(clicks).items():
        assert p == pytest.approx(brute.get(pattern, 0.0), abs=1e-6), \
            f"pattern {set(pattern) or '{}'}"


# ---------------------------------------------------------------------------
# closed form against the table oracle
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=30)
@given(
    mu=st.floats(0.0, 0.2), schmidt=st.sampled_from([1.0, 2.0, 3.5]),
    eta_h=st.floats(0.0, 1.0), eta_r=st.floats(0.0, 1.0), eta_s=st.floats(0.0, 1.0),
    dark=st.floats(0.0, 1e-3), splitter=st.floats(0.0, 1.0),
    noise=st.floats(0.0, 0.01), modes=st.floats(1.0, 1e4),
    lifetime=st.floats(5.0, 200.0), delay=st.integers(1, 60),
    include_source=st.booleans(),
)
def test_closed_form_matches_table_oracle(primary, mu, schmidt, eta_h, eta_r, eta_s,
                                          dark, splitter, noise, modes, lifetime,
                                          delay, include_source):
    """All 16 no-click probabilities agree with the photon-number tables.

    At mu <= 0.2 the pair table cut at 16 photons leaves out less than
    1e-12 of the probability, and the noise table cut at 40 far less.
    """
    cfg = primary.replace_fields(**{
        "source.mean_pairs_per_pulse": mu, "source.schmidt_modes": schmidt,
        "detectors.eta_herald_path": eta_h, "detectors.eta_r_path": eta_r,
        "detectors.eta_s_path": eta_s, "detectors.dark_prob_per_gate": dark,
        "detectors.splitter_ratio": splitter, "noise.noise_mean_per_nj": noise,
        "noise.mode_count": modes, "cavity.ringdown_lifetime_cycles": lifetime,
    })
    means, clicks = click_model(cfg, delay, include_source=include_source)
    table, oracle = table_click_model(cfg, delay, include_source=include_source)
    assert set(clicks.no_click) == set(oracle.no_click)
    for subset, q in oracle.no_click.items():
        assert clicks.no_click[subset] == pytest.approx(q, abs=1e-9), sorted(subset)
    for mode, mean in means.items():
        assert mean == pytest.approx(table.mean(mode), rel=1e-9, abs=1e-12)


def test_heralded_signal_moments_match_table_oracle(primary):
    quiet = primary.replace_fields(**{"noise.noise_mean_per_nj": 0.0,
                                      "detectors.dark_prob_per_gate": 0.0,
                                      "source.mean_pairs_per_pulse": 0.2})
    table, _ = table_click_model(quiet, 1)
    joint = table.probabilities.sum(axis=table.axis("monitor"))  # over (n_h, n_r)
    n_r = np.arange(joint.shape[1])
    heralded = joint[1:].sum(axis=0)
    p_h = heralded.sum()
    mean = float(heralded @ n_r) / p_h
    g2 = float(heralded @ (n_r * (n_r - 1))) / p_h / mean**2
    got_mean, got_g2 = heralded_signal_moments(quiet)
    assert got_mean == pytest.approx(mean, rel=1e-9)
    assert got_g2 == pytest.approx(g2, rel=1e-9)


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------

def test_mixture_limits():
    assert g2_mixture(0.5, 0.0, 1.09, 0.3) == pytest.approx(1.09)
    assert g2_mixture(1.0, 0.123, 1.0, 4.56) == pytest.approx(1.0)
    with pytest.raises(DivisionByZeroRate):
        g2_mixture(0.5, 0.0, 1.09, 0.0)


@settings(deadline=None, max_examples=50)
@given(
    g2a=st.floats(0.0, 3.0), na=st.floats(0.001, 5.0),
    g2b=st.floats(0.0, 3.0), nb=st.floats(0.001, 5.0),
    scale=st.floats(0.01, 100.0),
)
def test_mixture_symmetry_and_scale_invariance(g2a, na, g2b, nb, scale):
    v = g2_mixture(g2a, na, g2b, nb)
    assert g2_mixture(g2b, nb, g2a, na) == pytest.approx(v, rel=1e-12)
    assert g2_mixture(g2a, na * scale, g2b, nb * scale) == pytest.approx(v, rel=1e-9)


def test_mixture_curve_tends_to_noise(primary):
    cfg = primary.replace_fields(**{"cavity.ringdown_lifetime_cycles": 78.0})
    curve = mixture_g2_curve(cfg, range(1, 401, 10))
    values = [v for _, v in curve]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    g2_noise = 1 + 1 / cfg.noise.mode_count
    assert values[-1] == pytest.approx(g2_noise, abs=0.02)
    assert values[0] == pytest.approx(0.58, abs=0.05)


@pytest.mark.parametrize("lifetime", [111.0, 12.5])
def test_monitor_leak_is_one_cycle_of_loss_after_t_minus_one_stored(primary, lifetime):
    """A photon still stored after T - 1 cycles, e^(-(T-1)/tau), leaks toward
    the monitor in the readout bin with 1 - e^(-1/tau), and S sees it with
    eta_s: written out here, apart from the engine, the Monte Carlo and the
    oracle, which all take the leak from signal_branch_probs."""
    cfg = primary.replace_fields(**{"cavity.ringdown_lifetime_cycles": lifetime})
    delays = np.array([1, 2, 50])
    q_mon, _ = readout.signal_branch_probs(cfg, delays)
    leak = ((1.0 - np.exp(-1.0 / lifetime)) * np.exp(-(delays - 1) / lifetime)
            * cfg.detectors.eta_s_path)
    assert np.allclose(q_mon, leak, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# Klyshko identity and calibration
# ---------------------------------------------------------------------------

def test_klyshko_identity_lossless_chain(primary):
    """With no noise and no darks, p(R|H) equals the product of the
    signal-path efficiencies regardless of the herald efficiency."""
    cfg = primary.replace_fields(**{
        "noise.noise_mean_per_nj": 0.0,
        "detectors.dark_prob_per_gate": 0.0,
        "source.mean_pairs_per_pulse": 1e-4,
    })
    _, (chain,) = readout.signal_branch_probs(cfg, 1)
    _, clicks = click_model(cfg, 1)
    p_h = clicks.p("H")
    p_hr = p_h - (clicks.no_click[frozenset(["R1", "R2"])]
                  - clicks.no_click[frozenset(["H", "R1", "R2"])])
    assert p_hr / p_h == pytest.approx(chain, rel=1e-3)


def test_calibrate_mu_from_cross_correlation(primary):
    cal, _ = calibrate(primary, {"g2_xc_hs": 26.0})
    assert cal.source.mean_pairs_per_pulse == pytest.approx(1 / 24, rel=1e-12)


def test_calibrate_mode_count(primary):
    cal, _ = calibrate(primary, {"g2_noise": 1.09})
    assert cal.noise.mode_count == pytest.approx(1 / 0.09, rel=0.05)


def test_calibrate_heralded_prob(primary):
    cal, resid = calibrate(primary, {"heralded_prob": 0.096})
    assert abs(resid["heralded_prob"]) < 1e-9
    corr = correlations(model_patterns(cal), model_patterns(cal, include_source=False))
    assert corr["heralding_efficiency"] == pytest.approx(0.096, abs=1e-9)


@pytest.mark.parametrize("target, value", [
    ("herald_rate_cps", 1e9),
    ("heralded_prob", 0.99),
    ("g2_noise", 5.0),
    ("r_rate_cps", 1e9),
])
def test_calibrate_unreachable_target(primary, target, value):
    with pytest.raises(NoConvergence, match=f"{target} target {value!r} is unreachable"):
        calibrate(primary, {target: value})


@pytest.mark.parametrize("value", [2.0, 1.5])
def test_calibrate_g2_xc_hs_at_or_below_the_floor(primary, value):
    """g2_xc_hs = 1 + 1/k + 1/mu never reaches 1 + 1/k (2 for the primary's
    single mode), so no mean pair number gives it."""
    assert primary.source.schmidt_modes == 1.0
    with pytest.raises(NoConvergence, match=f"target {value} is at or below the 2.000 floor"):
        calibrate(primary, {"g2_xc_hs": value})


def test_calibrate_eta_conversion_beyond_saturation(primary):
    """The conversion efficiency at delay 1 saturates at 0.9878 on the primary
    config (coefficient 4.27, where its slope changes sign); a higher target
    names that maximum."""
    with pytest.raises(NoConvergence, match=r"saturates at 0\.9878 < target 0\.9999"):
        calibrate(primary, {"eta_conversion": 0.9999})


@pytest.mark.parametrize("config_name", ["primary", "alternate"])
@pytest.mark.parametrize("value", [0.95, 0.96, 0.986, 0.9877])
def test_calibrate_eta_conversion_near_saturation(config_name, value, request):
    """Targets between the 0.9475 a coefficient grid in x1.3 steps saw and the
    true maximum 0.9878 calibrate: 0.95 and 0.96 on the rising branch below
    the coefficient where the widest node's angle is pi/2, 0.986 and 0.9877
    between it and the maximum."""
    cal, resid = calibrate(request.getfixturevalue(config_name), {"eta_conversion": value})
    assert abs(resid["eta_conversion"]) / value <= 1e-6
    assert cal.pulses.nonlinear_coeff < 4.271


@pytest.mark.parametrize("value", [0.0, 1e-12, -0.1])
def test_calibrate_eta_conversion_below_its_range(primary, value):
    """A target below the conversion at the smallest coefficient is
    NoConvergence naming the range the model reaches."""
    with pytest.raises(NoConvergence, match=rf"conversion target {value} is unreachable: "
                                            r"the conversion reaches only 1\.341e-09 to 0\.9878"):
        calibrate(primary, {"eta_conversion": value})


def _herald_rate(cfg) -> float:
    return fockstats._TARGETS["herald_rate_cps"].value(cfg, readout.readout_curve(cfg, [1]))


def test_herald_efficiency_inverts_the_engine_rate(primary):
    """The closed-form herald efficiency, solved for the engine's own herald
    rate at random in-range (mu, k, d), at a random eta_h and at both ends
    eta_h = 0 and 1, gives that rate back."""
    rng = np.random.default_rng(34)
    worst = 0.0
    for _ in range(2000):
        mu, k, dark = rng.uniform(0.0, 2.0), rng.uniform(1.0, 20.0), rng.uniform(0.0, 0.5)
        cfg = primary.replace_fields(**{
            "source.mean_pairs_per_pulse": mu, "source.schmidt_modes": k,
            "detectors.dark_prob_per_gate": dark})
        for eta in (rng.uniform(0.0, 1.0), 0.0, 1.0):
            rate = _herald_rate(cfg.replace_fields(**{"detectors.eta_herald_path": eta}))
            solved, evaluations = fockstats._eta_herald_for_rate(cfg, rate)
            assert evaluations == 0
            again = _herald_rate(cfg.replace_fields(**{"detectors.eta_herald_path": solved}))
            worst = max(worst, abs(again - rate) / rate)
    assert worst <= 1e-10


@pytest.mark.parametrize("mu", [0.0, 0.02])
def test_herald_rate_outside_its_range_is_unreachable(primary, mu):
    """A herald rate below the dark counts' (eta_h = 0) or above the one at
    eta_h = 1, by more than REL_TOL, is NoConvergence naming that range; with
    mu = 0 the range is the dark-count rate alone."""
    cfg = primary.replace_fields(**{"source.mean_pairs_per_pulse": mu})
    clock = cfg.pulses.clock_rate_khz * 1e3
    low = cfg.detectors.dark_prob_per_gate * clock
    high = _herald_rate(cfg.replace_fields(**{"detectors.eta_herald_path": 1.0}))
    for value in (low * (1.0 - 2e-6), high * (1.0 + 2e-6)):
        with pytest.raises(NoConvergence, match=rf"herald_rate_cps target {value!r} is "
                                                rf"unreachable: .* from {low:.6g} to {high:.6g}$"):
            calibrate(cfg, {"herald_rate_cps": value})


PUBLISHED_TARGETS = {"g2_xc_hs": 26.0, "herald_rate_cps": 474.0, "g2_noise": 1.09,
                     "eta_conversion": 0.80, "heralded_prob": 0.096}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("target", sorted(fockstats.CALIBRATION_PAIRS))
def test_calibrate_rejects_non_finite_target(primary, monkeypatch, target, value):
    """A target that is not finite is NonPhysicalParameter naming it, before
    any solve, also among finite targets."""
    def no_solve(*args):
        raise AssertionError("solved before the targets were checked")
    monkeypatch.setattr(fockstats, "_solve_target", no_solve)
    assert len(fockstats.CALIBRATION_PAIRS) == 6
    with pytest.raises(NonPhysicalParameter, match=f"target {target} must be finite"):
        calibrate(primary, {**PUBLISHED_TARGETS, target: value})


def _relative_residuals(targets, residuals):
    return {name: abs(r) / abs(targets[name]) for name, r in residuals.items()}


def test_calibrate_coupled_readout_rate_converges(primary):
    """The readout rate couples to the heralding efficiency, so this set
    needs a second pass; calibration must still end within REL_TOL."""
    targets = dict(PUBLISHED_TARGETS, r_rate_cps=3405.0 * 1.03)
    cal, resid = calibrate(primary, targets)
    assert set(resid) == set(targets)
    assert max(_relative_residuals(targets, resid).values()) <= 1e-6
    rates = fockstats.model_report(cal, 1)["rates"]
    assert rates["readout_cps"] == pytest.approx(3405.0 * 1.03, rel=1e-6)
    assert rates["herald_cps"] == pytest.approx(474.0, rel=1e-6)


def test_calibrate_gives_up_after_max_passes(primary, monkeypatch):
    targets = dict(PUBLISHED_TARGETS, r_rate_cps=3405.0 * 1.03)
    monkeypatch.setattr(fockstats, "MAX_PASSES", 1)
    with pytest.raises(NoConvergence, match="after 1 pass") as err:
        calibrate(primary, targets)
    assert set(err.value.residual) == set(targets)
    assert max(_relative_residuals(targets, err.value.residual).values()) > 1e-6
    assert err.value.best.noise.noise_mean_per_nj != primary.noise.noise_mean_per_nj


def _count_calls(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each call; returns the record."""
    calls, real = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_calibrate_stops_at_first_converged_pass(primary, monkeypatch):
    """The published targets are solved in dependency order, so one pass and
    one residual check reach them; a second pass would add about 29 engine
    evaluations. The brentq fields do not enter the readout overlap, so each
    of the two root searches and the residual check evaluate the readout
    curve once, and the conversion solve evaluates none: it computes the
    delay-1 envelope once and builds no config per trial. The herald
    efficiency is a closed form, and each root search evaluates its bracket
    ends once: 29 engine evaluations and 24 configs."""
    engine = _count_calls(monkeypatch, fockstats, "no_click_table")
    curves = _count_calls(monkeypatch, readout, "readout_curve")
    configs = _count_calls(monkeypatch, ValidatedConfig, "replace_fields")
    _, resid = calibrate(primary, PUBLISHED_TARGETS)
    assert max(_relative_residuals(PUBLISHED_TARGETS, resid).values()) <= 1e-6
    assert len(engine) == 29
    assert len(curves) == 3
    assert len(configs) == 24


def _seeded_target_sets(seed, count):
    """The published targets, the set that needs a second pass, and count
    sets within 5% of the published targets."""
    rng = np.random.default_rng(seed)
    return [PUBLISHED_TARGETS, dict(PUBLISHED_TARGETS, r_rate_cps=3405.0 * 1.03)] + [
        {k: v * (1.0 + rng.uniform(-0.05, 0.05)) for k, v in PUBLISHED_TARGETS.items()}
        for _ in range(count)]


@pytest.mark.parametrize("config_name", ["primary", "alternate"])
def test_calibrate_equals_rebuilding_oracle(config_name, request):
    """Each trial value costs one model evaluation, and the calibration
    still gives the config and residuals, compared with ==, of the one that
    builds a config and a readout curve at every trial value."""
    cfg = request.getfixturevalue(config_name)
    for targets in _seeded_target_sets(2028, 4):
        got_cfg, got_resid = calibrate(cfg, targets)
        want_cfg, want_resid = calibrate_rebuilding(cfg, targets)
        assert got_cfg == want_cfg, targets
        assert got_resid == want_resid, targets


def test_calibrate_diagnostics(primary, monkeypatch):
    """The diagnostics dict records the passes, the worst relative residual
    after each and the model evaluations of each target's solves, which run
    in the first pass only for g2_xc_hs and herald_rate_cps (closed forms,
    none) and eta_conversion; a calibration that gives up leaves its record too."""
    published = {}
    _, resid = calibrate(primary, PUBLISHED_TARGETS, published)
    assert published == {
        "passes": 1,
        "worst_relative_residual": [max(_relative_residuals(PUBLISHED_TARGETS, resid).values())],
        "model_evaluations": {"g2_xc_hs": 0, "eta_conversion": 10, "herald_rate_cps": 0,
                              "g2_noise": 13, "heralded_prob": 6}}
    coupled = {}
    targets = dict(PUBLISHED_TARGETS, r_rate_cps=3405.0 * 1.03)
    _, resid = calibrate(primary, targets, coupled)
    assert coupled["passes"] == 2
    first, second = coupled["worst_relative_residual"]
    assert first > fockstats.REL_TOL >= second
    assert second == max(_relative_residuals(targets, resid).values())
    evaluations = coupled["model_evaluations"]
    assert set(evaluations) == set(targets)
    assert [evaluations[n] for n in ("g2_xc_hs", "eta_conversion", "herald_rate_cps")] \
        == [0, 10, 0]
    assert evaluations["r_rate_cps"] > 0
    assert all(evaluations[n] > published["model_evaluations"][n]
               for n in ("g2_noise", "heralded_prob"))
    monkeypatch.setattr(fockstats, "MAX_PASSES", 1)
    failed = {}
    with pytest.raises(NoConvergence):
        calibrate(primary, targets, failed)
    assert failed["passes"] == 1
    assert failed["worst_relative_residual"] == [first]


@pytest.mark.parametrize("config_name", ["primary", "alternate"])
def test_calibrate_solves_independent_targets_once(config_name, request, monkeypatch):
    """g2_xc_hs, eta_conversion and herald_rate_cps depend on no later
    target's field, so a calibration that needs more passes still solves
    them only in the first."""
    cfg = request.getfixturevalue(config_name)
    calls = []

    def counting(solve):
        def solve_counted(*args):
            calls.append(args[1])
            return solve(*args)
        return solve_counted

    for name in ("g2_xc_hs", "eta_conversion", "herald_rate_cps"):
        target = fockstats._TARGETS[name]
        monkeypatch.setitem(fockstats._TARGETS, name,
                            target._replace(solve=counting(target.solve)))
    targets = dict(PUBLISHED_TARGETS, r_rate_cps=3405.0 * 1.03)
    _, resid = calibrate(cfg, targets)
    assert calls == [26.0, 0.80, 474.0]
    assert max(_relative_residuals(targets, resid).values()) <= 1e-6


# ---------------------------------------------------------------------------
# shipped operating points
# ---------------------------------------------------------------------------

def test_primary_operating_point(primary):
    """Cross-checks of the calibrated primary config at the first readout bin."""
    rep = fockstats.model_report(primary, 1)
    rates = rep["rates"]
    corr = rep["correlations"]
    assert rates["herald_cps"] == pytest.approx(474.0, abs=0.5)
    assert rates["readout_cps"] == pytest.approx(3405.0, abs=5.0)
    assert 55.0 < rates["herald_readout_cps"] < 75.0
    assert 0.3 < rates["triple_cps"] < 2.5
    assert 2.6 < corr["g2_xc_hr"] < 3.9
    assert 0.43 < corr["g2_ac_heralded"] < 0.65
    assert corr["heralding_efficiency"] == pytest.approx(0.096, abs=1e-6)


def test_alternate_operating_point(alternate):
    """The low-noise cavity trades lifetime for much cleaner statistics."""
    assert alternate.survival_per_cycle == pytest.approx(math.exp(-1 / 12), rel=1e-12)
    g2 = correlations(model_patterns(alternate))["g2_ac_heralded"]
    assert g2 == pytest.approx(0.068, abs=0.002)


# ---------------------------------------------------------------------------
# the mask-indexed engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config_name", ["primary", "alternate"])
def test_engine_over_delays_equals_single_delay_rows(config_name, request):
    cfg = request.getfixturevalue(config_name)
    delays = np.arange(1, 301)
    total = readout.readout_curve(cfg, delays)[2]
    q_mon, chain = readout.signal_branch_probs(cfg, delays, total)
    for include_source in (True, False):
        table = fockstats.no_click_table(cfg, q_mon, chain, include_source)
        assert table.shape == (delays.size, 16)
        for i, t in enumerate(delays):
            branches = readout.signal_branch_probs(cfg, t, total[i:i + 1])
            row = fockstats.no_click_table(cfg, *branches, include_source)
            assert np.array_equal(row, table[i:i + 1]), (t, include_source)


def _random_engine_config(rng, cfg):
    """cfg with every field the engine reads drawn in its range, its ends included."""
    def unit():
        return float(rng.choice([0.0, 1.0, rng.uniform()], p=[0.1, 0.1, 0.8]))
    return cfg.replace_fields(**{
        "source.mean_pairs_per_pulse": float(rng.choice([0.0, rng.uniform(0, 2)], p=[0.1, 0.9])),
        "source.schmidt_modes": float(rng.uniform(1, 50)),
        "noise.noise_mean_per_nj": float(rng.choice([0.0, rng.uniform(0, 0.5)], p=[0.1, 0.9])),
        "noise.mode_count": float(rng.uniform(1, 1e4)),
        "detectors.eta_herald_path": unit(),
        "detectors.dark_prob_per_gate": float(rng.choice([0.0, rng.uniform(0, 0.05)])),
        "detectors.splitter_ratio": unit()})


def test_engine_equals_direct_formula(primary, alternate):
    """The engine, which keeps its noise and detector factors between calls
    and answers a source-off table with their row, gives the bits of the
    formula computed whole at each call: random in-range configs, one and
    many branches, the source on and off, each asked twice."""
    rng = np.random.default_rng(2032)
    configs = [primary, alternate] + [_random_engine_config(rng, primary) for _ in range(40)]
    for cfg in configs:
        q_mon = rng.uniform(0, 0.5, 7)
        chain = rng.uniform(0, 0.5, 7)
        for branches in ((q_mon[0], chain[0]), (q_mon[:1], chain[:1]), (q_mon, chain),
                         (0.0, chain), readout.signal_branch_probs(cfg, [1, 7, 300])):
            for include_source in (True, False, True, False):
                got = fockstats.no_click_table(cfg, *branches, include_source)
                want = no_click_table_direct(cfg, *branches, include_source)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (cfg, branches, include_source)


def test_exact_heralded_g2_follows_mixture_curve(primary):
    """On the criterion-5 configuration (the calibrated primary cavity with
    a 78-cycle lifetime) the engine's heralded g2_AC(T) from one call
    rises monotonically and stays close to the mixture-model oracle curve."""
    cal, _ = calibrate(primary, PUBLISHED_TARGETS)
    cfg = cal.replace_fields(**{"cavity.ringdown_lifetime_cycles": 78.0})
    delays = np.arange(1, 297)
    curve = fockstats.heralded_g2_curve(cfg, delays)
    assert [t for t, _ in curve] == delays.tolist()
    exact = np.array([v for _, v in curve])
    mixture = np.array([v for _, v in mixture_g2_curve(cfg, delays)])
    assert np.all(np.diff(exact) > 0)
    assert np.max(np.abs(exact - mixture)) <= 0.005


@pytest.mark.parametrize("cfg_name", ["primary", "alternate"])
def test_heralded_g2_curve_is_the_model_report_ratio(cfg_name, request):
    """Each point of the curve is g2_ac_heralded of model_report at that delay."""
    cfg = request.getfixturevalue(cfg_name)
    delays = [1, 7, 81, 300]
    curve = fockstats.heralded_g2_curve(cfg, delays)
    assert [t for t, _ in curve] == delays
    for t, g2 in curve:
        want = fockstats.model_report(cfg, t)["correlations"]["g2_ac_heralded"]
        assert g2 == pytest.approx(want, rel=1e-12, abs=0), t


def test_heralded_g2_curve_rejects_bad_delays_and_vacuum(primary):
    for delays in ([0, 1], [1, 2.5], [-3]):
        with pytest.raises(NonPhysicalParameter):
            fockstats.heralded_g2_curve(primary, delays)
    assert fockstats.heralded_g2_curve(primary, []) == []
    dark = primary.replace_fields(**{"source.mean_pairs_per_pulse": 0.0,
                                     "detectors.dark_prob_per_gate": 0.0})
    with pytest.raises(DivisionByZeroRate):
        fockstats.heralded_g2_curve(dark, [1, 5])


def test_heralded_g2_curve_names_the_delay_where_model_report_gives_none(primary):
    """With no noise, no dark counts and a 1-cycle lifetime, nothing is read
    out at T = 2000: model_report gives None for that one entry of its
    report, while the curve, one quantity, raises naming the delay; at T = 1
    both give the same ratio."""
    cfg = primary.replace_fields(**{"noise.noise_mean_per_nj": 0.0,
                                    "detectors.dark_prob_per_gate": 0.0,
                                    "cavity.ringdown_lifetime_cycles": 1.0})
    at_1 = fockstats.model_report(cfg, 1)["correlations"]["g2_ac_heralded"]
    assert at_1 == pytest.approx(0.1403, abs=5e-5)
    assert fockstats.model_report(cfg, 2000)["correlations"]["g2_ac_heralded"] is None
    assert fockstats.heralded_g2_curve(cfg, [1]) == [(1, at_1)]
    for delays, first in (([1, 2000], 2000), ([3000, 1, 2000], 3000)):
        with pytest.raises(DivisionByZeroRate, match=f"at delay {first}: "):
            fockstats.heralded_g2_curve(cfg, delays)


@pytest.mark.parametrize("delay", [0, 1.5, -3, True, math.inf, np.True_, 2.5, 2.0, "3", None,
                                   pytest.param(10**400, id="10**400")])
def test_model_rejects_delays_that_are_not_readout_bins(primary, delay):
    """Every caller of the one readout-bin check rejects the delay, alone
    or in a list, also next to a valid delay (a bool is no delay, not
    delay 1, a list is not cast to numbers before the check, an integral
    float such as 2.0 is not the delay 2, and an integer too large for a
    float is no delay)."""
    callers = (fockstats.model_report, click_model, readout.signal_branch_probs,
               lambda cfg, d: readout.readout_probability(d, cfg),
               lambda cfg, d: trialsim.simulate_run(cfg, 1, 1000, delay_cycles=d))
    for call in callers:
        with pytest.raises(NonPhysicalParameter):
            call(primary, delay)
    for call in (readout.signal_branch_probs, fockstats.heralded_g2_curve):
        for delays in ([delay], [delay, 2], [2, delay], np.array([delay, 2], dtype=object)):
            with pytest.raises(NonPhysicalParameter):
                call(primary, delays)


def test_benchmark_facing_views_match_engine(primary):
    """click_model's no_click, p and p_all, and estimators.PATTERNS, are views
    of the engine and of the pattern table."""
    assert estimators.PATTERNS == {"h": 1, "s": 2, "r1": 4, "r2": 8, "hs": 3,
                                   "hr1": 5, "hr2": 9, "r1r2": 12, "hr1r2": 13}
    (q_mon,), (chain,) = readout.signal_branch_probs(primary, 7)
    for include_source in (True, False):
        _, clicks = click_model(primary, 7, include_source=include_source)
        q = fockstats.no_click_table(primary, q_mon, chain, include_source)[0]
        p = pattern_probs(q)
        assert clicks.no_click == {
            frozenset(d for d, bit in DETECTOR_BITS.items() if mask & bit): q[mask]
            for mask in range(16)}
        for name, bit in DETECTOR_BITS.items():
            assert clicks.p(name) == 1.0 - q[bit]
            assert clicks.p(name) == p[name.lower()]
        for name, bits in estimators.PATTERNS.items():
            names = [d for d, bit in DETECTOR_BITS.items() if bits & bit]
            assert clicks.p_all(*names) == pytest.approx(p[name], rel=0, abs=4.4e-16)
