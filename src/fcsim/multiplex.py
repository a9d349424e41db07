"""Temporal multiplexing planner.

Generation attempts run in K time bins feeding one storage cavity; the
first successful herald wins and its photon is stored until a fixed output
slot after the last bin. Because earlier successes wait longer, their
readout efficiency is lower, so there is an optimal number of bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ValidatedConfig
from .errors import CurveRangeExceeded, DivisionByZeroRate, NonPhysicalParameter
from . import readout

# Published storage-loop benchmark used purely as context in reports:
# a free-space cavity with an 83-cycle 1/e lifetime reached x9.7(5)
# enhancement when multiplexing K=40 bins.
REFERENCE_ENHANCEMENT = 9.7
REFERENCE_ENHANCEMENT_ERR = 0.5
REFERENCE_K = 40


@dataclass(frozen=True)
class MultiplexPlan:
    bins: int
    bin_spacing_cycles: int
    herald_prob: float
    readout_curve: np.ndarray       # eta(T) tabulated at T = 1, 2, ..., len
    switch_latency_cycles: int = 1

    def __post_init__(self):
        if self.bins < 1:
            raise NonPhysicalParameter("bins must be >= 1")
        if self.bin_spacing_cycles < 1:
            raise NonPhysicalParameter("bin_spacing_cycles must be >= 1")
        if not 0.0 <= self.herald_prob <= 1.0:
            raise NonPhysicalParameter("herald_prob must be in [0, 1]")
        if self.switch_latency_cycles < 1:
            raise NonPhysicalParameter("switch_latency_cycles must be >= 1")


def readout_curve(cfg: ValidatedConfig, max_delay_cycles: int) -> np.ndarray:
    """Retrieval probability eta(T) for T = 1..max_delay_cycles."""
    return readout.readout_curve(cfg, np.arange(1, max_delay_cycles + 1))[2]


def _eta_at(plan: MultiplexPlan, delay: int) -> float:
    if delay < 1 or delay > plan.readout_curve.size:
        raise CurveRangeExceeded(
            f"plan needs eta at delay {delay} but the curve covers "
            f"1..{plan.readout_curve.size} cycles")
    return float(plan.readout_curve[delay - 1])


def multiplex_success(plan: MultiplexPlan) -> dict:
    """Output probability under the first-herald-wins policy.

    Bin k succeeds first with probability (1-p)^(k-1) p and its photon is
    stored for (K-k)*spacing + latency cycles before the output slot.
    enhancement compares against a single attempt in the final bin.
    """
    p = plan.herald_prob
    contributions = []
    for k in range(1, plan.bins + 1):
        delay = (plan.bins - k) * plan.bin_spacing_cycles + plan.switch_latency_cycles
        contributions.append((1.0 - p) ** (k - 1) * p * _eta_at(plan, delay))
    p_out = float(sum(contributions))
    single = p * _eta_at(plan, plan.switch_latency_cycles)
    if single == 0.0:
        raise DivisionByZeroRate(
            "single-attempt reference probability is zero; cannot define enhancement")
    return {
        "p_out": p_out,
        "enhancement": p_out / single,
        "contributions": contributions,
    }


def optimal_K(plan: MultiplexPlan, max_K: int) -> int:
    """Bin count in [1, max_K] maximizing p_out; ties go to fewer bins."""
    if max_K < 1:
        raise NonPhysicalParameter("max_K must be >= 1")
    best_k, best_p = 1, -1.0
    for k in range(1, max_K + 1):
        trial = MultiplexPlan(bins=k,
                              bin_spacing_cycles=plan.bin_spacing_cycles,
                              herald_prob=plan.herald_prob,
                              readout_curve=plan.readout_curve,
                              switch_latency_cycles=plan.switch_latency_cycles)
        p_out = multiplex_success(trial)["p_out"]
        if p_out > best_p:
            best_k, best_p = k, p_out
    return best_k
