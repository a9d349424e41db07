import dataclasses

import numpy as np
import pytest

from fcsim import fockstats, multiplex
from fcsim.errors import CurveRangeExceeded, DivisionByZeroRate, NonPhysicalParameter
from fcsim.multiplex import MultiplexPlan, multiplex_success, optimal_K
from oracles import multiplex_sum


def flat_curve(n, value=1.0):
    return np.full(n, value)


def make_plan(bins, curve, p=0.1, spacing=1, latency=1):
    return MultiplexPlan(bins=bins, bin_spacing_cycles=spacing, herald_prob=p,
                         readout_curve=np.asarray(curve, dtype=float),
                         switch_latency_cycles=latency)


def test_single_bin_enhancement_is_exactly_one():
    plan = make_plan(1, flat_curve(5, 0.7), p=0.31)
    res = multiplex_success(plan)
    assert res["p_out"] == 0.31 * 0.7
    assert res["enhancement"] == 1.0


def test_lossless_limit_saturates():
    plan = make_plan(400, flat_curve(400), p=0.05)
    res = multiplex_success(plan)
    assert res["p_out"] == pytest.approx(1 - (1 - 0.05) ** 400, rel=1e-12)
    assert res["p_out"] > 0.999999


def test_contributions_sum_exactly():
    """The per-bin oracle: one contribution per bin, summed exactly."""
    curve = np.exp(-np.arange(1, 200) / 67.0) * 0.79
    plan = make_plan(60, curve, p=0.006)
    p_out, contributions = multiplex_sum(plan)
    assert sum(contributions) == p_out
    assert len(contributions) == 60


def test_curve_range_guard():
    plan = make_plan(10, flat_curve(5), spacing=2)
    with pytest.raises(CurveRangeExceeded):
        multiplex_success(plan)


def test_monotone_in_herald_probability():
    """More heralds help as long as attempts are not saturated (p*K <~ 1).

    In deep saturation a higher herald rate locks in early successes that
    then decay longer, so the global claim fails by design; the operating
    regime of a heralded pair source sits far below that."""
    curve = np.exp(-np.arange(1, 100) / 50.0)
    prev = -1.0
    for p in (0.0005, 0.002, 0.008, 0.02):
        res = multiplex_success(make_plan(40, curve, p=p))
        assert res["p_out"] > prev
        prev = res["p_out"]


def test_monotone_in_pointwise_curve_increase():
    base = np.exp(-np.arange(1, 100) / 50.0) * 0.5
    low = multiplex_success(make_plan(40, base, p=0.01))["p_out"]
    high = multiplex_success(make_plan(40, base * 1.5, p=0.01))["p_out"]
    assert high > low


def test_optimal_k_boundaries():
    # efficiency collapses after two bins: extra bins add nothing useful
    steep = np.concatenate([[1.0, 0.5], np.zeros(200)])
    plan = make_plan(1, steep, p=0.3)
    k_star = optimal_K(plan, 100)
    assert k_star <= 3
    # lossless curve: every extra bin helps
    plan = make_plan(1, flat_curve(300), p=0.1)
    assert optimal_K(plan, 200) == 200


def test_optimal_k_tie_breaks_small():
    plan = make_plan(1, flat_curve(50, 0.0), p=0.5)
    with pytest.raises(Exception):
        multiplex_success(plan)  # zero reference probability
    with pytest.raises(DivisionByZeroRate):
        optimal_K(plan, 40)
    # a curve that is zero after the first delay: K=1 ties with any K
    curve = np.concatenate([[0.6], np.zeros(100)])
    plan2 = make_plan(1, curve, p=0.2)
    assert optimal_K(plan2, 50) == 1


def test_invalid_plans_rejected():
    with pytest.raises(NonPhysicalParameter):
        make_plan(0, flat_curve(5))
    with pytest.raises(NonPhysicalParameter):
        make_plan(1, flat_curve(5), p=1.5)
    with pytest.raises(NonPhysicalParameter):
        MultiplexPlan(bins=1, bin_spacing_cycles=0, herald_prob=0.1,
                      readout_curve=flat_curve(5))
    with pytest.raises(NonPhysicalParameter, match="switch_latency_cycles must be >= 1"):
        make_plan(1, flat_curve(5), latency=0)
    with pytest.raises(NonPhysicalParameter, match="max_K must be >= 1"):
        optimal_K(make_plan(1, flat_curve(5)), 0)


def test_projection_for_configured_source(primary):
    """End-to-end projection with the model's own readout curve."""
    curve = multiplex.readout_curve(primary, 45)
    plan = make_plan(40, curve, p=474.0 / 76800.0)
    res = multiplex_success(plan)
    assert res["enhancement"] > 1.0
    enhancements = [multiplex_success(make_plan(k, curve, p=474.0 / 76800.0))["enhancement"]
                    for k in range(1, 41)]
    assert all(b >= a for a, b in zip(enhancements, enhancements[1:]))


@pytest.mark.parametrize("spacing, latency", [(1, 1), (3, 2)])
@pytest.mark.parametrize("config_name", ["primary", "alternate"])
def test_output_curve_matches_multiplex_success(request, config_name, spacing, latency):
    """The one-pass recurrence reproduces the per-K sums of the oracle, and
    multiplex_success is its last entry."""
    cfg = request.getfixturevalue(config_name)
    bins = 400
    curve = multiplex.readout_curve(cfg, (bins - 1) * spacing + latency)
    plan = make_plan(bins, curve, p=fockstats.model_patterns(cfg)["h"],
                     spacing=spacing, latency=latency)
    p_out, enhancement = multiplex.output_curve(plan)
    direct = np.array([multiplex_sum(dataclasses.replace(plan, bins=k))[0]
                       for k in range(1, bins + 1)])
    assert multiplex_success(plan) == {"p_out": p_out[-1], "enhancement": enhancement[-1]}
    assert p_out.shape == enhancement.shape == (bins,)
    assert np.all(np.abs(p_out - direct) <= 1e-14 * direct)
    assert enhancement[0] == 1.0
    assert optimal_K(plan, bins) == 1 + int(np.argmax(direct))
