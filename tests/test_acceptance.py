"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 5 is split: the T=1 predictions and the monotone approach
of the click engine's heralded g2(T) are asserted in
test_criterion_5_predictions; the late-delay convergence bound has its own
test (see the note there).
"""

import hashlib
import math
from statistics import NormalDist

import numpy as np
import pytest

from fcsim import default_config_path, estimators, fockstats, load_config, multiplex
from fcsim import readout, trialsim
from fcsim.cli import main as cli_main


def report(line):
    print(f"\nACCEPTANCE {line}")


@pytest.fixture(scope="module")
def calibrated(primary):
    """Re-run the calibration from scratch on the published target set."""
    targets = {
        "g2_xc_hs": 26.0,
        "herald_rate_cps": 474.0,
        "g2_noise": 1.09,
        "eta_conversion": 0.8,
        "heralded_prob": 0.096,
    }
    cfg, residuals = fockstats.calibrate(primary, targets)
    for name, resid in residuals.items():
        assert abs(resid) <= 1e-5 * max(abs(targets[name]), 1.0)
    return cfg


def test_criterion_1_walkoff_consistency(primary, capsys):
    zeta = primary.walkoff_ratio
    assert zeta == pytest.approx(4.10, abs=0.05)
    code = cli_main(["validate", "--config", str(default_config_path())])
    out = capsys.readouterr().out
    assert code == 0
    assert '"walkoff_ratio": 4.109' in out
    report(f"1 walkoff ratio: zeta = {zeta:.3f} (4.10 +- 0.05) PASS")


def test_criterion_2_conversion_saturation(primary):
    refit = readout.solve_nonlinear_coeff(
        primary.replace_fields(**{"pulses.nonlinear_coeff": 1.0}), 0.8)
    assert refit == pytest.approx(primary.pulses.nonlinear_coeff, rel=1e-6)
    eta_cal = readout.conversion_efficiency(primary)
    assert eta_cal == pytest.approx(0.80, abs=1e-6)
    eta_boost = readout.conversion_efficiency(primary.replace_fields(
        **{"pulses.energy_p_nj": 9.66, "pulses.energy_q_nj": 12.04}))
    gain = eta_boost / eta_cal
    assert 0.96 <= eta_boost <= 0.995
    assert gain == pytest.approx(1.22, abs=0.03)
    report(f"2 conversion saturation: eta(+40%) = {eta_boost:.4f} "
           f"([0.96, 0.995]), gain = {gain:.3f} (1.22 +- 0.03) PASS")


def test_criterion_3_memory_decay(primary):
    cfg = primary.replace_fields(**{"cavity.ringdown_lifetime_cycles": 78.0})
    assert cfg.cavity.mismatch_ps_per_cycle == 0.09
    assert cfg.cavity.dispersion_ps2_per_cycle == 0.05
    t_e = readout.one_over_e_delay(cfg)
    assert t_e == pytest.approx(67.0, abs=3.0)
    report(f"3 memory decay: 1/e point = {t_e:.2f} cycles (67 +- 3) PASS")


def test_criterion_4_ringdown_recovery(primary):
    """Fit the leakage-monitor decay of a 1e7-trigger scan with readout off."""
    cfg = primary.replace_fields(**{
        "pulses.energy_p_nj": 0.0,
        "pulses.energy_q_nj": 0.0,
        "source.mean_pairs_per_pulse": 0.3,
        "detectors.eta_s_path": 0.5,
        "detectors.dark_prob_per_gate": 0.0,
    })
    delays = np.arange(1, 271, 10)
    per_delay = 10_000_000 // delays.size
    series = []
    for i, t in enumerate(delays):
        run = trialsim.simulate_run(cfg, seed=1000 + i, n_triggers=per_delay,
                                    delay_cycles=int(t))
        rates = estimators.estimate_rates(run)
        series.append((float(t), rates["s"].value, rates["s"].standard_error))
    fit = estimators.fit_exponential(np.asarray(series))
    lifetime, err = fit.values["lifetime"], fit.errors["lifetime"]
    assert abs(lifetime - 111.0) < 2 * err
    report(f"4 ring-down recovery: lifetime = {lifetime:.2f} +- {err:.2f} "
           f"cycles (111 within 2 sigma) PASS")


def test_criterion_5_predictions(calibrated):
    rep = fockstats.model_report(calibrated, 1)
    g2_hr = rep["correlations"]["g2_xc_hr"]
    g2_ac = rep["correlations"]["g2_ac_heralded"]
    assert 2.6 <= g2_hr <= 3.9
    assert 0.43 <= g2_ac <= 0.65
    # the engine's heralded g2(T): monotone rise toward the noise auto-correlation
    cfg = calibrated.replace_fields(**{"cavity.ringdown_lifetime_cycles": 78.0})
    curve = fockstats.heralded_g2_curve(cfg, range(1, 301, 5))
    values = np.array([v for _, v in curve])
    g2_noise = 1.0 + 1.0 / cfg.noise.mode_count
    assert np.all(np.diff(values) >= -1e-12)
    assert values[-1] == pytest.approx(g2_noise, abs=0.02)
    report(f"5 correlations: g2_xc(h,r;1) = {g2_hr:.3f} ([2.6, 3.9]), "
           f"heralded g2_ac(1) = {g2_ac:.3f} ([0.43, 0.65]), "
           f"curve monotone toward {g2_noise:.3f} PASS")


def test_criterion_5_noise_convergence_tail(calibrated):
    """Literal late-delay bound: |g2_ac(T) - g2_noise| <= 0.1 for every T > 80.

    This bound is jointly unreachable with the other calibrated values:
    the decay curve that places the 1/e point at 67 cycles still retains
    ~29% of the signal at T = 81, which holds the click engine's heralded
    g2_ac near 0.88, and the curve only enters the 0.1 band near T ~ 120.
    The assertion is kept as specified rather than loosened; see the first
    passing delay below.
    """
    cfg = calibrated.replace_fields(**{"cavity.ringdown_lifetime_cycles": 78.0})
    delays = list(range(81, 301, 5))
    curve = fockstats.heralded_g2_curve(cfg, delays)
    g2_noise = 1.0 + 1.0 / cfg.noise.mode_count
    gaps = {t: abs(v - g2_noise) for t, v in curve}
    first_ok = next((t for t, gap in sorted(gaps.items()) if gap <= 0.1), None)
    worst_t = max(gaps, key=gaps.get)
    ok = all(gap <= 0.1 for gap in gaps.values())
    report(f"5 noise convergence for T>80: worst |g2-{g2_noise:.2f}| = "
           f"{gaps[worst_t]:.3f} at T={worst_t}; within 0.1 from T~{first_ok} "
           f"{'PASS' if ok else 'FAIL (unattainable, see notes)'}")
    assert ok, (
        f"g2_ac(T) is within 0.1 of the noise value only from T ~ {first_ok}, "
        f"not from T > 80 (worst gap {gaps[worst_t]:.3f} at T = {worst_t})")


def _random_test_config(primary, rng):
    mu = rng.uniform(0.05, 0.15)
    return primary.replace_fields(**{
        "source.mean_pairs_per_pulse": mu,
        "detectors.eta_herald_path": rng.uniform(0.1, 0.4),
        "detectors.eta_r_path": rng.uniform(0.15, 0.5),
        "detectors.eta_s_path": rng.uniform(0.3, 0.9),
        "noise.noise_mean_per_nj": rng.uniform(0.002, 0.01),
        "noise.mode_count": rng.uniform(3.0, 20.0),
        "cavity.ringdown_lifetime_cycles": rng.uniform(40.0, 150.0),
        "source.schmidt_modes": rng.choice([1.0, 2.0]),
    })


# criterion 6 runs per case; seeds 9000 + case + 10 * r
C6_RUNS = 4
# two-sided bound on each of the 40 seed-averaged pulls (5 cases x 8
# observables) such that an unbiased sampler fails one of them with chance at
# most 1e-3 (Bonferroni), whatever the correlations between observables
C6_BOUND = float(NormalDist().inv_cdf(1.0 - 1e-3 / (2 * 40)))


def test_criterion_6_oracle_equivalence(primary):
    """Each observable of each random config is simulated C6_RUNS times; the
    sum of its pulls over sqrt(C6_RUNS) is standard normal if the sampler is
    unbiased, and a bias of b sigma per run shows as sqrt(C6_RUNS) * b."""
    rng = np.random.Generator(np.random.PCG64(2024))
    clock = primary.pulses.clock_rate_khz * 1e3
    worst = 0.0
    for case in range(5):
        cfg = _random_test_config(primary, rng)
        delay = int(rng.integers(1, 8))
        p = fockstats.model_patterns(cfg, delay)
        corr = fockstats.correlations(p, fockstats.model_patterns(cfg, include_source=False))
        expected = {
            **{name: p[name] * clock for name in ("h", "s", "r", "hs")},
            "cross_hr": corr["g2_xc_hr"],
            "cross_hs": corr["g2_xc_hs"],
            "heralded_auto": corr["g2_ac_heralded"],
            # herald-arm efficiency as seen through coincidences (dark included)
            "klyshko": corr["klyshko_efficiency"],
        }
        pull_sums = dict.fromkeys(expected, 0.0)
        for r in range(C6_RUNS):
            run = trialsim.simulate_run(cfg, seed=9000 + case + 10 * r,
                                        n_triggers=10_000_000, delay_cycles=delay)
            est = estimators.estimate_rates(run)
            est.update((kind, estimators.estimate_g2(run, kind, seed=case))
                       for kind in ("cross_hr", "cross_hs", "heralded_auto"))
            est["klyshko"] = estimators.klyshko_efficiency(run, seed=case)
            for key, value in expected.items():
                pull_sums[key] += ((est[key].value - value)
                                   / max(est[key].standard_error, 1e-9))
        for key, total in pull_sums.items():
            pull = abs(total) / math.sqrt(C6_RUNS)
            worst = max(worst, pull)
            assert pull < C6_BOUND, f"case {case}: {key} off by {pull:.2f} sigma"

    # independent direct-sum enumeration against the closed-form engine
    from oracles import brute_click_patterns
    cfg = primary.replace_fields(**{"source.mean_pairs_per_pulse": 0.04})
    (q_mon,), (chain,) = readout.signal_branch_probs(cfg, 2)
    brute = brute_click_patterns(
        mu=0.04, schmidt_modes=1.0, n_max=6,
        eta_herald=cfg.detectors.eta_herald_path,
        p_monitor=q_mon, p_readout=chain,
        noise_mean=cfg.noise_mean_per_trigger(),
        noise_modes=cfg.noise.mode_count,
        dark=cfg.detectors.dark_prob_per_gate,
        splitter=0.5,
    )
    max_diff = 0.0
    for mask, p in enumerate(fockstats.EXACT @ fockstats.no_click_table(cfg, q_mon, chain)[0]):
        pattern = frozenset(d for d, bit in fockstats.DETECTOR_BITS.items() if mask & bit)
        max_diff = max(max_diff, abs(p - brute.get(pattern, 0.0)))
    assert max_diff < 1e-6
    report(f"6 oracle equivalence: 5 random configs x {C6_RUNS} runs within "
           f"{C6_BOUND:.2f} sigma (worst pull {worst:.2f}); "
           f"brute-force max diff {max_diff:.1e} PASS")


def test_criterion_7_statistical_identities(primary):
    """The identities hold on the photon-number table oracle."""
    from oracles import PhotonNumberDistribution, add_thermal_noise, detect, tmsv_state
    mu = 0.05
    pairs = tmsv_state(mu, 1.0, 30)
    g2_xc = pairs.cross_g2("herald", "signal")
    assert abs(g2_xc - (2 + 1 / mu)) < 1e-6

    m_count = 1 / 0.09
    noise = add_thermal_noise(
        PhotonNumberDistribution(("readout",), np.array([1.0])),
        "readout", 0.05, m_count)
    g2_n = noise.auto_g2("readout")
    assert abs(g2_n - 1.09) < 1e-6

    one_photon = PhotonNumberDistribution(("readout",), np.array([0.0, 1.0]))
    from fcsim.config import DetectorParams
    clicks = detect(one_photon, DetectorParams(
        eta_herald_path=1, eta_r_path=1, eta_s_path=1,
        dark_prob_per_gate=0, splitter_ratio=0.5))
    coincidence = clicks.p_all("R1", "R2")
    assert coincidence == 0.0
    report(f"7 identities: g2_xc = 2+1/mu to {abs(g2_xc - 2 - 1/mu):.1e}, "
           f"g2_noise = 1+1/M to {abs(g2_n - 1.09):.1e}, "
           f"single-photon coincidence = {coincidence} PASS")


def test_criterion_8_noise_linearity(primary):
    energies = np.linspace(1.0, 10.0, 10)
    rates = []
    for i, ep in enumerate(energies):
        cfg = primary.replace_fields(**{"pulses.energy_p_nj": float(ep)})
        run = trialsim.simulate_run(cfg, seed=300 + i, n_triggers=200_000,
                                    controls_only=True)
        rates.append(estimators.estimate_rates(run)["r"].value)
    rates = np.asarray(rates)
    slope = float(np.dot(energies, rates) / np.dot(energies, energies))
    fitted = slope * energies
    r2 = 1.0 - np.sum((rates - fitted) ** 2) / np.sum((rates - rates.mean()) ** 2)
    assert r2 > 0.99
    report(f"8 noise linearity: through-origin fit R^2 = {r2:.5f} (> 0.99) PASS")


def test_criterion_9_multiplex_sanity(primary):
    curve = multiplex.readout_curve(primary, 45)
    p_herald = 474.0 / 76800.0
    enh = []
    for k in range(1, 41):
        plan = multiplex.MultiplexPlan(bins=k, bin_spacing_cycles=1,
                                       herald_prob=p_herald, readout_curve=curve)
        enh.append(multiplex.multiplex_success(plan)["enhancement"])
    assert enh[0] == 1.0
    assert all(b >= a for a, b in zip(enh, enh[1:]))
    assert multiplex.REFERENCE_ENHANCEMENT == 9.7
    report(f"9 multiplexing: K=1 enhancement = {enh[0]}, monotone to "
           f"K=40 ({enh[-1]:.2f}x; literature context "
           f"{multiplex.REFERENCE_ENHANCEMENT}({multiplex.REFERENCE_ENHANCEMENT_ERR})) PASS")


def test_criterion_10_determinism(tmp_path, primary):
    digests = []
    for sub in ("one", "two"):
        out = tmp_path / f"{sub}.bin"
        run = trialsim.simulate_run(primary, seed=20260810, n_triggers=1_000_000)
        trialsim.write_records(run, out)
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    report(f"10 determinism: byte-identical files (sha256 {digests[0][:12]}...) PASS")
