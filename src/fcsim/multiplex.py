"""Temporal multiplexing planner.

Generation attempts run in K time bins feeding one storage cavity; the
first successful herald wins and its photon is stored until a fixed output
slot after the last bin. Because earlier successes wait longer, their
readout efficiency is lower, so there is an optimal number of bins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import ValidatedConfig, integer, number
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
        for name in ("bins", "bin_spacing_cycles", "switch_latency_cycles"):
            value = getattr(self, name)
            if not integer(value, 1):
                raise NonPhysicalParameter(f"{name} must be >= 1 and an integer, got {value!r}")
        number("herald_prob", self.herald_prob, (0.0, False, 1.0))


def readout_curve(cfg: ValidatedConfig, max_delay_cycles: int) -> np.ndarray:
    """Retrieval probability eta(T) for T = 1..max_delay_cycles."""
    if not integer(max_delay_cycles, 0):
        raise NonPhysicalParameter(
            f"max_delay_cycles must be >= 0 and an integer, got {max_delay_cycles!r}")
    return readout.readout_curve(cfg, np.arange(1, max_delay_cycles + 1))[2]


def _eta(plan: MultiplexPlan) -> list:
    """eta at the storage delays (k-1)*spacing + latency of bins k = 1..bins."""
    last = (plan.bins - 1) * plan.bin_spacing_cycles + plan.switch_latency_cycles
    if last > plan.readout_curve.size:
        raise CurveRangeExceeded(
            f"plan needs eta at delay {last} but the curve covers "
            f"1..{plan.readout_curve.size} cycles")
    first = plan.switch_latency_cycles - 1
    return plan.readout_curve[first:last:plan.bin_spacing_cycles].tolist()


def output_curve(plan: MultiplexPlan):
    """(p_out, enhancement) as arrays over K = 1..plan.bins, in one pass.

    Under the first-herald-wins policy bin k succeeds first with probability
    (1-p)^(k-1) p, and its photon is stored for (K-k)*spacing + latency
    cycles before the output slot. Adding a bin delays every earlier success
    by one spacing: p_out(K) = (1-p) p_out(K-1) + p eta((K-1) spacing + latency).
    enhancement compares against a single attempt in the final bin.
    """
    p = plan.herald_prob
    eta = _eta(plan)
    single = p * eta[0]
    if single == 0.0:
        raise DivisionByZeroRate(
            "single-attempt reference probability is zero; cannot define enhancement")
    p_out = np.empty(plan.bins)
    acc = 0.0
    for k, e in enumerate(eta):
        acc = (1.0 - p) * acc + p * e
        p_out[k] = acc
    return p_out, p_out / single


def multiplex_success(plan: MultiplexPlan) -> dict:
    """p_out and enhancement of the plan's K = plan.bins: the last entries of output_curve."""
    p_out, enhancement = output_curve(plan)
    return {"p_out": float(p_out[-1]), "enhancement": float(enhancement[-1])}


def optimal_K(plan: MultiplexPlan, max_K: int) -> int:
    """Bin count in [1, max_K] maximizing p_out; ties go to fewer bins."""
    if not integer(max_K, 1):
        raise NonPhysicalParameter(f"max_K must be >= 1 and an integer, got {max_K!r}")
    p_out, _ = output_curve(replace(plan, bins=max_K))
    return 1 + int(np.argmax(p_out))
