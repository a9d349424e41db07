import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from fcsim import estimators, readout, solvers, trialsim
from fcsim.errors import (
    DivisionByZeroRate,
    EmptyInput,
    NoConvergence,
    NonPhysicalParameter,
    SingularFit,
)
from fcsim.estimators import (
    estimate_g2,
    estimate_rates,
    fit_exponential,
    fit_memory_model,
    klyshko_efficiency,
    subtract_background,
)
from fcsim.trialsim import MASK_H, MASK_R1, MASK_R2, MASK_S, ClickRecords, RunManifest
from oracles import bootstrap_ratio_loop


def synthetic_records(masks, n_triggers, clock_khz=76.8, delay=1):
    masks = np.asarray(masks, dtype=np.uint8)
    keep = masks > 0
    return ClickRecords(
        trigger=np.nonzero(keep)[0].astype(np.uint64),
        mask=masks[keep],
        manifest=RunManifest(config_hash="x", seed=0, n_triggers=int(n_triggers),
                             n_records=int(keep.sum()),
                             clock_rate_khz=clock_khz, readout_delay=delay,
                             controls_only=False),
    )


def test_empty_input():
    rec = synthetic_records([], 0)
    with pytest.raises(EmptyInput):
        estimate_rates(rec)


def test_zero_rates_for_silent_run():
    rec = synthetic_records(np.zeros(1000, dtype=np.uint8), 1000)
    rates = estimate_rates(rec)
    assert all(v.value == 0.0 for v in rates.values())


def test_known_herald_probability_rate():
    n = 200_000
    rng = np.random.Generator(np.random.PCG64(0))
    masks = np.where(rng.random(n) < 0.00617, MASK_H, 0).astype(np.uint8)
    rates = estimate_rates(synthetic_records(masks, n))
    # p = 0.00617 at 76.8 kHz gives about 474 counts per second
    assert rates["h"].value == pytest.approx(0.00617 * 76800, rel=0.03)
    assert rates["h"].standard_error == pytest.approx(
        math.sqrt(0.00617 * (1 - 0.00617) / n) * 76800, rel=0.05)


def test_rate_error_is_binomial_at_high_click_probability():
    """At p = 0.7 the binomial error sqrt(p (1-p) / n) is 0.55 of the Poisson
    sqrt(p / n); the rate error is the binomial one to rounding."""
    n = 10_000
    rates = estimate_rates(synthetic_records(np.repeat([MASK_H, 0], [7000, 3000]), n))
    clock = 76.8e3
    assert rates["h"].value == pytest.approx(0.7 * clock, rel=1e-12)
    assert rates["h"].standard_error == pytest.approx(
        math.sqrt(0.7 * 0.3 / n) * clock, rel=1e-12)


def test_independent_poisson_channels_uncorrelated():
    n = 400_000
    rng = np.random.Generator(np.random.PCG64(1))
    m = (np.where(rng.random(n) < 0.03, MASK_R1, 0)
         | np.where(rng.random(n) < 0.04, MASK_R2, 0)).astype(np.uint8)
    est = estimate_g2(synthetic_records(m, n), "unheralded_auto")
    assert abs(est.value - 1.0) < 3 * est.standard_error


def test_estimators_permutation_invariant(primary):
    run = trialsim.simulate_run(primary, seed=2, n_triggers=500_000)
    perm = np.random.Generator(np.random.PCG64(3)).permutation(run.trigger.size)
    shuffled = ClickRecords(trigger=run.trigger[perm], mask=run.mask[perm],
                            manifest=run.manifest)
    a = estimate_rates(run)
    b = estimate_rates(shuffled)
    for key in a:
        assert a[key].value == b[key].value
    ga = estimate_g2(run, "cross_hr", seed=7)
    gb = estimate_g2(shuffled, "cross_hr", seed=7)
    assert ga.value == gb.value


def test_bootstrap_deterministic(primary):
    run = trialsim.simulate_run(primary, seed=2, n_triggers=400_000)
    a = estimate_g2(run, "cross_hr", seed=5)
    b = estimate_g2(run, "cross_hr", seed=5)
    assert a.standard_error == b.standard_error


def test_background_subtraction_zeroes_pure_noise(primary):
    a = estimators.estimate_rates(
        trialsim.simulate_run(primary, seed=41, n_triggers=400_000, controls_only=True))
    b = estimators.estimate_rates(
        trialsim.simulate_run(primary, seed=42, n_triggers=400_000, controls_only=True))
    diff = subtract_background(a, b)
    for key in ("r", "r1", "r2"):
        assert abs(diff[key].value) < 4 * diff[key].standard_error


def test_background_error_adds_both_errors_in_quadrature():
    signal = estimate_rates(synthetic_records(np.repeat([MASK_H | MASK_R1, MASK_R2, 0],
                                                        [7000, 1000, 2000]), 10_000))
    controls = estimate_rates(synthetic_records(np.repeat([MASK_R1, MASK_R2, 0],
                                                          [300, 500, 19_200]), 20_000))
    diff = subtract_background(signal, controls)
    for key in ("h", "r1", "r2", "hr1"):
        assert diff[key].value == pytest.approx(signal[key].value - controls[key].value,
                                                rel=1e-12)
        assert diff[key].standard_error == pytest.approx(
            math.hypot(signal[key].standard_error, controls[key].standard_error), rel=1e-12)


def test_klyshko_lossless_herald():
    n = 300_000
    rng = np.random.Generator(np.random.PCG64(9))
    pair = rng.random(n) < 0.01
    s_seen = pair & (rng.random(n) < 0.3)
    masks = (np.where(pair, MASK_H, 0) | np.where(s_seen, MASK_S, 0)).astype(np.uint8)
    est = klyshko_efficiency(synthetic_records(masks, n))
    assert est.value == pytest.approx(1.0)


def test_klyshko_recovers_configured_efficiency(primary):
    """At low flux the coincidence-to-singles ratio reads the arm efficiency."""
    cfg = primary.replace_fields(**{
        "detectors.eta_herald_path": 0.06,
        "detectors.eta_s_path": 0.9,
        "source.mean_pairs_per_pulse": 0.02,
        "detectors.dark_prob_per_gate": 0.0,
    })
    run = trialsim.simulate_run(cfg, seed=12, n_triggers=8_000_000)
    est = klyshko_efficiency(run)
    assert abs(est.value - 0.06) < max(3 * est.standard_error, 0.01)


def test_klyshko_invariant_under_signal_loss(primary):
    """The herald-arm estimate does not move when the monitored arm gets lossier."""
    values = []
    for eta_s in (0.9, 0.45, 0.15):
        cfg = primary.replace_fields(**{
            "detectors.eta_herald_path": 0.2,
            "detectors.eta_s_path": eta_s,
            "source.mean_pairs_per_pulse": 0.3,
            "detectors.dark_prob_per_gate": 0.0,
        })
        run = trialsim.simulate_run(cfg, seed=13, n_triggers=2_000_000)
        est = klyshko_efficiency(run)
        values.append((est.value, est.standard_error))
    ref_v, ref_se = values[0]
    for v, se in values[1:]:
        assert abs(v - ref_v) < 3.5 * math.hypot(se, ref_se)


def test_pattern_counts_match_per_record_count():
    """Rates and per-block counts equal a plain per-record tally, all 16 masks."""
    n, block = 200, 7
    rng = np.random.Generator(np.random.PCG64(4))
    trigger = np.sort(rng.choice(n, size=120, replace=False)).astype(np.uint64)
    mask = np.concatenate([np.arange(16), rng.integers(0, 16, 104)]).astype(np.uint8)
    rec = ClickRecords(
        trigger=trigger, mask=mask,
        manifest=RunManifest(config_hash="x", seed=0, n_triggers=n,
                             n_records=int(trigger.size), clock_rate_khz=76.8,
                             readout_delay=1, controls_only=False))

    def matches(name, m):
        any_r = bool(m & (MASK_R1 | MASK_R2))
        if name == "r":
            return any_r
        if name == "hr":
            return bool(m & MASK_H) and any_r
        bits = estimators.PATTERNS[name]
        return m & bits == bits

    names = [*estimators.PATTERNS, "r", "hr"]
    n_blocks = -(-n // block)
    expected = {name: [0] * n_blocks for name in names}
    for t, m in zip(trigger.tolist(), mask.tolist()):
        for name in names:
            expected[name][t // block] += matches(name, m)

    counts = estimators._block_counts(rec, block)
    table = dict(zip(estimators.PATTERN_MASKS, counts[:, 1:].T))
    assert counts.shape == (n_blocks, 1 + len(names)) and sorted(table) == sorted(names)
    assert {name: c.tolist() for name, c in table.items()} == expected
    assert counts[:, 0].tolist() == [block] * (n_blocks - 1) + [n - block * (n_blocks - 1)]
    rates = estimate_rates(rec)
    assert list(rates) == names
    for name in names:
        assert rates[name].value == sum(expected[name]) / n * 76800.0


def test_divide_by_zero_rate():
    n = 1000
    masks = np.zeros(n, dtype=np.uint8)
    masks[0] = MASK_H
    rec = synthetic_records(masks, n)
    with pytest.raises(DivisionByZeroRate):
        estimate_g2(rec, "cross_hr")
    with pytest.raises(DivisionByZeroRate):
        klyshko_efficiency(rec)


SEEN_BLOCK, SEEN_N_BLOCKS, SEEN = 100, 50, (3, 31)


def seen_in_two_blocks():
    """Records of 50 blocks of 100 triggers with signal-monitor clicks in
    blocks 3 and 31 only."""
    n = SEEN_BLOCK * SEEN_N_BLOCKS
    masks = np.zeros(n, dtype=np.uint8)
    masks[::7] = MASK_H
    for b in SEEN:
        masks[b * SEEN_BLOCK + 1] = MASK_H | MASK_S
    return synthetic_records(masks, n)


def test_bootstrap_counts_dropped_resamples():
    """Signal-monitor clicks in 2 of 50 blocks: a resample that draws neither
    block has no denominator, so it is dropped and counted."""
    block, n_blocks, seen = SEEN_BLOCK, SEEN_N_BLOCKS, SEEN
    est = klyshko_efficiency(seen_in_two_blocks(), block_triggers=block, seed=3)
    rng = np.random.Generator(np.random.PCG64(3))
    missed = sum(not np.isin(rng.integers(0, n_blocks, n_blocks), seen).any()
                 for _ in range(estimators.BOOTSTRAP_RESAMPLES))
    assert est.dropped_resamples == missed > 0
    assert math.isfinite(est.standard_error)


@pytest.mark.parametrize("block_triggers, resamples", [(0, 200), (-5, 200), (100, -3),
                                                     (100.5, 200), (100, 2.5), (True, 200),
                                                     (100, np.True_), (100.0, 200),
                                                     ("100", 200), (100, None)])
@pytest.mark.parametrize("estimate", [lambda rec, **kw: estimate_g2(rec, "cross_hs", **kw),
                                      klyshko_efficiency], ids=["g2", "klyshko"])
def test_bad_bootstrap_arguments_are_nonphysical(estimate, block_triggers, resamples):
    """A block under one trigger, a negative resample count, or either not an
    integer (a bool, a float, a string, None) is a typed error naming the
    argument that is wrong and its value, raised before a bootstrap is built
    or kept."""
    rec = seen_in_two_blocks()
    block_ok = type(block_triggers) is int and block_triggers >= 1
    name, lo, value = ("resamples", 0, resamples) if block_ok else ("block_triggers", 1,
                                                                      block_triggers)
    with pytest.raises(NonPhysicalParameter,
                       match=re.escape(f"{name} must be >= {lo} and an integer, got {value!r}")):
        estimate(rec, block_triggers=block_triggers, resamples=resamples)
    assert rec._bootstraps == {}


@pytest.mark.parametrize("seed", [-1, np.int64(-1), True, False, np.True_])
@pytest.mark.parametrize("estimate", [lambda rec, **kw: estimate_g2(rec, "cross_hs", **kw),
                                      klyshko_efficiency], ids=["g2", "klyshko"])
def test_negative_or_bool_bootstrap_seed_is_nonphysical(estimate, seed):
    """A negative seed is a typed error, not numpy's ValueError, and a bool is
    not taken for the seed 0 or 1; neither builds or keeps a bootstrap."""
    rec = seen_in_two_blocks()
    with pytest.raises(NonPhysicalParameter, match="seed"):
        estimate(rec, block_triggers=SEEN_BLOCK, seed=seed)
    assert rec._bootstraps == {}


@pytest.mark.parametrize("seed", [3.0, 2.5, np.float64(3.0), "3", None])
@pytest.mark.parametrize("estimate", [lambda rec, **kw: estimate_g2(rec, "cross_hs", **kw),
                                      klyshko_efficiency], ids=["g2", "klyshko"])
def test_non_integer_bootstrap_seed_is_nonphysical(estimate, seed):
    """A seed that is not an integer is a typed error on fresh records, and
    still one after the equal integer seed has built and kept its bootstrap."""
    rec = seen_in_two_blocks()
    with pytest.raises(NonPhysicalParameter, match="seed"):
        estimate(rec, block_triggers=SEEN_BLOCK, seed=seed)
    assert rec._bootstraps == {}
    estimate(rec, block_triggers=SEEN_BLOCK, seed=3)
    with pytest.raises(NonPhysicalParameter, match="seed"):
        estimate(rec, block_triggers=SEEN_BLOCK, seed=seed)


def test_numerator_that_never_occurred_has_an_infinite_error():
    """No triple coincidence in the stream makes every resample of
    g2_ac_heralded 0: the value stays 0, the error is infinite rather than
    0, and resamples without a denominator are still counted."""
    n = SEEN_BLOCK * SEEN_N_BLOCKS
    masks = np.zeros(n, dtype=np.uint8)
    masks[::7] = MASK_H
    masks[5 * SEEN_BLOCK + 1] = masks[40 * SEEN_BLOCK + 1] = MASK_H | MASK_R1
    masks[9 * SEEN_BLOCK + 2] = MASK_H | MASK_R2
    rec = synthetic_records(masks, n)
    est = estimate_g2(rec, "heralded_auto", block_triggers=SEEN_BLOCK, seed=3)
    loop = bootstrap_ratio_loop(rec, estimators.RATIOS["g2_ac_heralded"], SEEN_BLOCK,
                                estimators.BOOTSTRAP_RESAMPLES, 3)
    assert est.value == 0.0 and est.standard_error == math.inf
    assert est.dropped_resamples > 0
    assert est == loop
    # a numerator pattern that occurred once keeps a finite error
    masks[9 * SEEN_BLOCK + 2] = MASK_H | MASK_R1 | MASK_R2
    masks[9 * SEEN_BLOCK + 3] = MASK_H | MASK_R2
    est = estimate_g2(synthetic_records(masks, n), "heralded_auto",
                      block_triggers=SEEN_BLOCK, seed=3)
    assert est.value > 0 and math.isfinite(est.standard_error)


def test_numpy_integer_bootstrap_arguments_give_the_same_estimate():
    """block_triggers and resamples as numpy integers are accepted and change
    no bit of the value, the error or the dropped resamples."""
    block, resamples = SEEN_BLOCK, estimators.BOOTSTRAP_RESAMPLES
    want = klyshko_efficiency(seen_in_two_blocks(), block_triggers=block, resamples=resamples,
                              seed=3)
    got = klyshko_efficiency(seen_in_two_blocks(), block_triggers=np.int64(block),
                             resamples=np.uint16(resamples), seed=3)
    assert (got.value, got.standard_error, got.dropped_resamples) == (
        want.value, want.standard_error, want.dropped_resamples)


def _bootstrap_or_error(estimate, *args):
    try:
        return estimate(*args)
    except DivisionByZeroRate as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("stream", ["primary", "dense", "seen_in_two_blocks",
                                    "primary_20000_blocks"])
def test_bootstrap_matches_resample_loop(primary, stream):
    """The estimate of every RATIOS entry gives the value, standard error
    and dropped_resamples of the one-resample-at-a-time loop, bit for bit:
    on 1000 blocks of the primary config, 100 blocks of a dense one, the 50
    blocks of which only 2 hold the denominator, and 20000 blocks, whose
    resamples are drawn in four chunks of at most 2^20 block indices."""
    block, seed = estimators.BOOTSTRAP_BLOCK, 11
    if stream == "primary":
        records = trialsim.simulate_run(primary, seed=6, n_triggers=10_000_000)
    elif stream == "primary_20000_blocks":
        records, block = trialsim.simulate_run(primary, seed=6, n_triggers=2_000_000), 100
    elif stream == "dense":
        dense = primary.replace_fields(**{"source.mean_pairs_per_pulse": 0.25,
                                          "noise.noise_mean_per_nj": 0.2})
        records = trialsim.simulate_run(dense, seed=6, n_triggers=1_000_000)
    else:
        records, block, seed = seen_in_two_blocks(), SEEN_BLOCK, 3
    for name, ratio in estimators.RATIOS.items():
        got = _bootstrap_or_error(estimators.estimate, records, name, block,
                                  estimators.BOOTSTRAP_RESAMPLES, seed)
        want = _bootstrap_or_error(bootstrap_ratio_loop, records, ratio, block,
                                   estimators.BOOTSTRAP_RESAMPLES, seed)
        assert got == want, name
    if stream == "seen_in_two_blocks":
        assert klyshko_efficiency(records, block, seed=seed).dropped_resamples > 0


def test_g2_and_klyshko_are_estimates_of_their_ratio(primary):
    """estimate_g2 and klyshko_efficiency give estimate's value, standard
    error and dropped_resamples for their RATIOS entry; estimate takes only
    a RATIOS name, not an estimate_g2 kind, and estimate_g2 only a kind."""
    records = trialsim.simulate_run(primary, seed=6, n_triggers=1_000_000)
    for kind, name in estimators.G2_KINDS.items():
        assert estimate_g2(records, kind) == estimators.estimate(records, name), kind
    assert klyshko_efficiency(records) == estimators.estimate(records, "klyshko_efficiency")
    for name in ("nope", "cross_hs"):
        with pytest.raises(NonPhysicalParameter):
            estimators.estimate(records, name)
    with pytest.raises(NonPhysicalParameter, match="unknown correlation kind 'bogus'"):
        estimate_g2(records, "bogus")


def test_bootstrap_sums_exact_beyond_float_precision():
    """Past 2^53 triggers per resample the sums stay integer: 2^55 claimed
    triggers in 1024 blocks of 2^45 + 1 give the loop's estimates bit for bit."""
    n, block = 2**55, 2**45 + 1
    rng = np.random.Generator(np.random.PCG64(8))
    trigger = np.unique(rng.integers(0, n, 3000, dtype=np.uint64))
    rec = ClickRecords(
        trigger=trigger, mask=rng.integers(1, 16, trigger.size).astype(np.uint8),
        manifest=RunManifest(config_hash="x", seed=0, n_triggers=n,
                             n_records=int(trigger.size), clock_rate_khz=76.8,
                             readout_delay=1, controls_only=False))
    for kind in estimators.G2_KINDS:
        got = _bootstrap_or_error(estimate_g2, rec, kind, block, 50, 1)
        want = _bootstrap_or_error(bootstrap_ratio_loop, rec,
                                   estimators.RATIOS[estimators.G2_KINDS[kind]], block, 50, 1)
        assert got == want, kind


def _fresh(rec):
    """The same stream as new records, on copies of its arrays."""
    return ClickRecords(trigger=rec.trigger.copy(), mask=rec.mask.copy(),
                        manifest=rec.manifest)


def test_shared_bootstrap_matches_fresh_records(primary):
    """Interleaved estimates of one record set, over kinds, seeds, block sizes
    and resample counts, equal each call on records that have seen no other."""
    rec = trialsim.simulate_run(primary, seed=2, n_triggers=1_000_000)
    assert estimate_rates(rec) == estimate_rates(_fresh(rec))
    calls = []
    for seed in (0, 7):
        for block in (10_000, 2_500):
            for resamples in (200, 31):
                calls += [(estimate_g2, kind, block, resamples, seed)
                          for kind in estimators.G2_KINDS]
                calls.append((klyshko_efficiency, block, resamples, seed))
    calls = calls[1::2] + calls[::2] + calls[::-3]  # each set of parameters visited out of order
    for estimate, *args in calls:
        assert estimate(rec, *args) == estimate(_fresh(rec), *args), args
    assert estimate_rates(rec) == estimate_rates(_fresh(rec))


def test_records_are_read_only(primary):
    rec = trialsim.simulate_run(primary, seed=2, n_triggers=100_000)
    for array in (rec.trigger, rec.delay, rec.mask):
        with pytest.raises(ValueError):
            array[0] = 1


def test_replaced_masks_give_new_estimates():
    """dataclasses.replace makes new records, whose estimates follow their own masks."""
    rec = seen_in_two_blocks()
    before = klyshko_efficiency(rec, SEEN_BLOCK, seed=3)
    herald_only = dataclasses.replace(rec, mask=np.where(rec.mask == MASK_H | MASK_S,
                                                         MASK_S, rec.mask).astype(np.uint8))
    assert klyshko_efficiency(herald_only, SEEN_BLOCK, seed=3).value == 0.0 < before.value
    assert klyshko_efficiency(rec, SEEN_BLOCK, seed=3) == before


def test_failures_are_raised_on_every_call():
    empty = synthetic_records([], 0)
    silent_signal = synthetic_records(np.full(1000, MASK_H, dtype=np.uint8), 1000)
    for _ in range(2):
        with pytest.raises(EmptyInput):
            estimate_g2(empty, "cross_hr")
        with pytest.raises(EmptyInput):
            estimate_rates(empty)
        with pytest.raises(DivisionByZeroRate):
            klyshko_efficiency(silent_signal, block_triggers=100)


def test_dropped_resamples_do_not_depend_on_earlier_estimates():
    alone = klyshko_efficiency(seen_in_two_blocks(), SEEN_BLOCK, seed=3)
    rec = seen_in_two_blocks()
    for kind in ("cross_hs", "heralded_auto"):
        _bootstrap_or_error(estimate_g2, rec, kind, SEEN_BLOCK,
                            estimators.BOOTSTRAP_RESAMPLES, 3)
    estimate_rates(rec)
    after = klyshko_efficiency(rec, SEEN_BLOCK, seed=3)
    assert after.dropped_resamples == alone.dropped_resamples > 0
    assert after == alone


def test_rates_of_a_huge_claimed_trigger_count_allocate_no_blocks():
    """Three records of a manifest claiming 1e13 triggers: the rates follow the
    claimed count, and the call allocates no per-block arrays."""
    n = 10**13
    rec = ClickRecords(
        trigger=np.array([5, 10**9, n - 1], dtype=np.uint64),
        mask=np.array([MASK_H, MASK_H | MASK_R1, MASK_S], dtype=np.uint8),
        manifest=RunManifest(config_hash="x", seed=0, n_triggers=n, n_records=3,
                             clock_rate_khz=76.8, readout_delay=1, controls_only=False))
    tracemalloc.start()
    try:
        rates = estimate_rates(rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert rates["h"].value == 2 / n * 76800.0
    assert rates["hr1"].value == rates["s"].value == 1 / n * 76800.0
    assert rates["r2"].value == 0.0


def test_no_resamples_dropped_on_primary(primary):
    run = trialsim.simulate_run(primary, seed=2, n_triggers=500_000)
    estimates = [estimate_g2(run, kind) for kind in estimators.G2_KINDS]
    estimates.append(klyshko_efficiency(run))
    assert [e.dropped_resamples for e in estimates] == [0] * len(estimates)
    assert estimate_rates(run)["h"].dropped_resamples == 0


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------

def test_fit_exponential_exact_recovery():
    t = np.arange(1, 300, 5, dtype=float)
    y = 3.7 * np.exp(-t / 111.0)
    res = fit_exponential(np.column_stack([t, y]))
    assert res.values["lifetime"] == pytest.approx(111.0, abs=1e-6)
    assert res.values["amplitude"] == pytest.approx(3.7, rel=1e-8)
    assert res.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_exponential_rejects_constant():
    t = np.arange(1, 40, dtype=float)
    with pytest.raises(SingularFit):
        fit_exponential(np.column_stack([t, np.full_like(t, 2.5)]))
    with pytest.raises(SingularFit):
        fit_exponential(np.column_stack([t[:2], np.array([1.0, 0.5])]))


@pytest.mark.parametrize("y, error, match", [
    (np.r_[1.0, 0.0, np.ones(8)], SingularFit, "requires positive values"),
    (np.exp(np.arange(1.0, 11.0) / 20), SingularFit, "does not decay"),
    (None, NonPhysicalParameter, "series must be rows"),
], ids=["non_positive", "rising", "one_dimensional"])
def test_fit_exponential_rejects_a_series_it_cannot_fit(y, error, match):
    """A zero value, a rising series and a bare array of delays are typed errors."""
    t = np.arange(1.0, 11.0)
    with pytest.raises(error, match=match):
        fit_exponential(t if y is None else np.column_stack([t, y]))


def test_fit_exponential_weighted_noisy():
    rng = np.random.Generator(np.random.PCG64(17))
    t = np.arange(1, 280, 6, dtype=float)
    truth = 1000 * np.exp(-t / 111.0)
    y = rng.poisson(truth).astype(float)
    y[y == 0] = 0.5
    sigma = np.sqrt(np.maximum(y, 1.0))
    res = fit_exponential(np.column_stack([t, y, sigma]))
    assert abs(res.values["lifetime"] - 111.0) < 3 * res.errors["lifetime"]
    assert res.r_squared > 0.98


def test_fit_exponential_that_runs_out_of_evaluations_is_no_convergence(monkeypatch):
    """With too few residual evaluations to converge the fit raises with its
    last point instead of reporting it as a result."""
    real = solvers.least_squares
    monkeypatch.setattr(solvers, "least_squares",
                        lambda resid, x0, **kw: real(resid, x0, **dict(kw, max_nfev=4)))
    rng = np.random.Generator(np.random.PCG64(17))
    t = np.arange(1, 280, 6, dtype=float)
    y = rng.poisson(1000 * np.exp(-t / 111.0)).astype(float) + 0.5
    with pytest.raises(NoConvergence, match="exponential fit") as err:
        fit_exponential(np.column_stack([t, y, np.sqrt(y)]))
    assert set(err.value.best) == {"amplitude", "lifetime"}


def test_memory_model_self_consistency(primary):
    """Fitting data generated by the model itself recovers the parameters."""
    cfg = primary.replace_fields(**{
        "cavity.ringdown_lifetime_cycles": 78.0,
    })
    t = np.arange(1, 101, 5, dtype=float)
    y = 0.42 * np.array([readout.readout_probability(int(d), cfg)[2] for d in t])
    res = fit_memory_model(
        np.column_stack([t, y]),
        ("amplitude", "lifetime", "delta"),
        cfg.replace_fields(**{"cavity.ringdown_lifetime_cycles": 60.0,
                              "cavity.mismatch_ps_per_cycle": 0.05}),
    )
    assert res.values["amplitude"] == pytest.approx(0.42, rel=0.01)
    assert res.values["lifetime"] == pytest.approx(78.0, rel=0.01)
    assert res.values["delta"] == pytest.approx(0.09, rel=0.01)
    assert res.r_squared > 0.9999


def test_memory_model_noisy_recovery(primary):
    cfg = primary.replace_fields(**{"cavity.ringdown_lifetime_cycles": 78.0})
    rng = np.random.Generator(np.random.PCG64(23))
    t = np.arange(1, 101, 5, dtype=float)
    clean = 5000 * np.array([readout.readout_probability(int(d), cfg)[2] for d in t])
    y = rng.poisson(clean).astype(float)
    sigma = np.sqrt(np.maximum(y, 1.0))
    res = fit_memory_model(np.column_stack([t, y, sigma]),
                           ("amplitude", "lifetime"), cfg)
    assert abs(res.values["lifetime"] - 78.0) < 3 * res.errors["lifetime"]
    assert res.r_squared > 0.995


def test_memory_and_exponential_fits_agree_without_walkoff(primary):
    """With no mismatch or dispersion both fitters see the same pure decay."""
    cfg = primary.replace_fields(**{
        "cavity.mismatch_ps_per_cycle": 0.0,
        "cavity.dispersion_ps2_per_cycle": 0.0,
        "cavity.ringdown_lifetime_cycles": 93.0,
    })
    t = np.arange(1, 120, 6, dtype=float)
    y = 0.8 * np.array([readout.readout_probability(int(d), cfg)[2] for d in t])
    series = np.column_stack([t, y])
    exp_fit = fit_exponential(series)
    mem_fit = fit_memory_model(series, ("amplitude", "lifetime"),
                               cfg.replace_fields(**{
                                   "cavity.ringdown_lifetime_cycles": 70.0}))
    assert mem_fit.values["lifetime"] == pytest.approx(
        exp_fit.values["lifetime"], rel=1e-6)


def test_memory_model_needs_enough_delays(primary):
    t = np.arange(1, 9, dtype=float)
    y = np.exp(-t / 50)
    with pytest.raises(SingularFit):
        fit_memory_model(np.column_stack([t, y]), ("amplitude",), primary)


def test_memory_model_rejects_fractional_delays(primary):
    """Delays 5.0, 5.1, ..., 5.9, 6.4 are ten distinct values but only two
    delays of the model; the first fractional row is named, not rounded."""
    t = np.append(np.arange(50, 60) / 10, 6.4)
    y = np.exp(-t / 50)
    with pytest.raises(NonPhysicalParameter, match=r"row 2: delay 5\.1 "):
        fit_memory_model(np.column_stack([t, y]), ("amplitude",), primary)


def test_memory_model_names_the_row_of_a_negative_delay(primary):
    """A delay below 0 is named by its row before any readout curve is taken."""
    t = np.array([5.0, -1.0, *range(6, 16)])
    y = np.exp(-np.abs(t) / 50)
    with pytest.raises(NonPhysicalParameter, match=r"row 2: delay -1\.0 "):
        fit_memory_model(np.column_stack([t, y]), ("amplitude",), primary)


@pytest.mark.parametrize("stderr", [0.0, -0.01])
@pytest.mark.parametrize("fit", ["exponential", "memory"])
def test_fits_reject_a_standard_error_that_is_not_positive(primary, fit, stderr):
    """A weight 1 / stderr needs stderr > 0: row 3 is named before any fitting."""
    t = np.arange(1.0, 41.0)
    y = 0.5 * readout.readout_curve(primary, t)[2]
    sigma = np.full_like(t, 0.01)
    sigma[2] = stderr
    series = np.column_stack([t, y, sigma])
    with pytest.raises(NonPhysicalParameter, match="series row 3 has a standard error <= 0"):
        if fit == "exponential":
            fit_exponential(series)
        else:
            fit_memory_model(series, ("amplitude", "lifetime"), primary)


@pytest.mark.parametrize("fit", ["exponential", "memory"])
def test_fits_reject_a_standard_error_with_no_finite_weight(primary, fit):
    """A positive but subnormal stderr overflows its weight 1 / stderr to inf:
    a typed error naming row 3, as for stderr <= 0."""
    t = np.arange(1.0, 41.0)
    y = 0.5 * readout.readout_curve(primary, t)[2]
    sigma = np.full_like(t, 0.01)
    sigma[2] = 1e-320
    series = np.column_stack([t, y, sigma])
    with pytest.raises(NonPhysicalParameter,
                       match="series row 3 has a standard error 1e-320, too small"):
        if fit == "exponential":
            fit_exponential(series)
        else:
            fit_memory_model(series, ("amplitude", "lifetime"), primary)


def test_memory_model_counts_distinct_delays(primary):
    """Nine delays, repeated over twelve rows, are too few; a tenth is enough."""
    t = np.array([1.0, 1.0, 2.0, 3.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 9.0])
    y = np.exp(-t / 50)
    with pytest.raises(SingularFit, match="10 distinct delays"):
        fit_memory_model(np.column_stack([t, y]), ("amplitude",), primary)
    t[-1] = 10.0
    y = 0.5 * readout.readout_curve(primary, t)[2]
    res = fit_memory_model(np.column_stack([t, y]), ("amplitude",), primary)
    assert res.values["amplitude"] == pytest.approx(0.5, rel=1e-9)
    assert res.n_points == t.size


@pytest.mark.parametrize("free, error, match", [
    (("amplitude", "bogus"), NonPhysicalParameter, r"unknown fit parameter\(s\) \['bogus'\]"),
    ((), SingularFit, "no free parameters"),
    ("lifetime", NonPhysicalParameter, "got the string 'lifetime'"),
], ids=["unknown", "none", "string"])
def test_memory_model_rejects_free_parameters_it_cannot_fit(primary, free, error, match):
    t = np.arange(1.0, 41.0)
    y = 0.5 * readout.readout_curve(primary, t)[2]
    with pytest.raises(error, match=match):
        fit_memory_model(np.column_stack([t, y]), free, primary)


def test_memory_model_rejects_a_parameter_named_twice(primary):
    """A free parameter named twice is an error naming it, not a fit with one
    value and an infinite error for every parameter."""
    t = np.arange(1.0, 41.0)
    y = 0.5 * readout.readout_curve(primary, t)[2]
    with pytest.raises(NonPhysicalParameter, match="'lifetime' is named more than once"):
        fit_memory_model(np.column_stack([t, y]), ("lifetime", "lifetime", "amplitude"),
                         primary)

