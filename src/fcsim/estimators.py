"""Estimators over click records, and decay-curve fitting.

Point estimates are ratios of pattern frequencies; uncertainties come from
a block bootstrap over contiguous trigger ranges (default block 1e4
triggers) to stay honest about possible within-run correlation. A record
set's bootstrap is built once per (block, resamples, seed) and shared by
all its estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import ValidatedConfig, integer
from .errors import (
    DivisionByZeroRate,
    EmptyInput,
    NoConvergence,
    NonPhysicalParameter,
    SingularFit,
)
from .patterns import PATTERN_MASKS, PATTERN_MATRIX, PATTERNS, RATIOS  # PATTERNS: bench/ reads it

if TYPE_CHECKING:  # records come from trialsim, which fitting never loads
    from .trialsim import ClickRecords

BOOTSTRAP_BLOCK = 10_000
BOOTSTRAP_RESAMPLES = 200

# estimate_g2 kind -> its correlation in RATIOS
G2_KINDS = {
    "cross_hs": "g2_xc_hs",
    "cross_hr": "g2_xc_hr",
    "heralded_auto": "g2_ac_heralded",
    "unheralded_auto": "g2_noise",
}


@dataclass(frozen=True)
class CorrelationEstimate:
    value: float
    standard_error: float
    dropped_resamples: int = 0  # bootstrap resamples whose denominator was zero


@dataclass(frozen=True)
class FitResult:
    values: dict
    errors: dict
    r_squared: float
    residual_rms: float
    n_points: int
    evaluations: int = 0  # residual evaluations, jacobian columns included


def estimate_rates(records: ClickRecords) -> dict:
    """Counts per second (at the manifest's clock) of each click pattern, with binomial errors."""
    clock = records.manifest.clock_rate_khz * 1e3
    n = records.manifest.n_triggers
    if n < 1:
        raise EmptyInput("record stream covers zero triggers")
    # one mask histogram, whatever the trigger count: no per-block arrays
    counts = np.bincount(records.mask, minlength=16) @ PATTERN_MATRIX
    out = {}
    for name, c in zip(PATTERN_MASKS, counts.tolist()):
        p = c / n
        se = math.sqrt(max(p * (1.0 - p), 0.0) / n)
        out[name] = CorrelationEstimate(value=p * clock, standard_error=se * clock)
    return out


def subtract_background(rates: dict, control_rates: dict) -> dict:
    """Difference two rate dictionaries (signal run minus controls-only run)."""
    out = {}
    for name, est in rates.items():
        bg = control_rates[name]
        out[name] = CorrelationEstimate(
            value=est.value - bg.value,
            standard_error=math.hypot(est.standard_error, bg.standard_error))
    return out


def _block_counts(records: ClickRecords, block_triggers: int) -> np.ndarray:
    """(blocks, 1 + patterns) int64: each block's trigger total, then its count
    of every PATTERN_MASKS pattern, the (block, mask) histogram summed over
    the pattern's masks."""
    n = records.manifest.n_triggers
    if n < 1:
        raise EmptyInput("record stream covers zero triggers")
    n_blocks = (n + block_triggers - 1) // block_triggers
    sizes = np.full(n_blocks, block_triggers, dtype=np.int64)
    sizes[-1] = n - block_triggers * (n_blocks - 1)
    key = records.trigger // np.uint64(block_triggers) * np.uint64(16) + records.mask
    hist = np.bincount(key.view(np.int64), minlength=16 * n_blocks)
    return np.column_stack([sizes, hist.reshape(n_blocks, 16) @ PATTERN_MATRIX])


def _bootstrap_sums(records: ClickRecords, block_triggers: int, resamples: int,
                    seed: int) -> np.ndarray:
    """(1 + resamples, 1 + patterns) int64 sums of the _block_counts columns:
    row 0 over the whole stream, each further row over one resample, its
    blocks weighed by how often it drew them. Built once per (block_triggers,
    resamples, seed) of a record set and kept on it."""
    if not (integer(block_triggers, 1) and integer(resamples, 0) and integer(seed, 0)):
        raise NonPhysicalParameter("bootstrap needs integers block_triggers >= 1, resamples >= 0 "
                                   f"and seed >= 0, got {block_triggers} and {resamples} "
                                   f"and seed {seed!r}")
    key = (block_triggers, resamples, seed)
    if key in records._bootstraps:
        return records._bootstraps[key]
    counts = _block_counts(records, block_triggers)
    n_blocks = counts.shape[0]
    # float64 sums of these integers are exact below 2^53, and a resample
    # holds at most n_blocks * block_triggers triggers
    exact = np.float64 if n_blocks * block_triggers <= 1 << 53 else np.int64
    terms = counts.astype(exact)
    rng = np.random.Generator(np.random.PCG64(seed))
    step = max(1, (1 << 20) // n_blocks)  # at most 2^20 block indices per draw
    rows = [counts.sum(axis=0, keepdims=True)]
    for start in range(0, resamples, step):
        draws = rng.integers(0, n_blocks, (min(step, resamples - start), n_blocks))
        draws += np.arange(0, draws.size, n_blocks)[:, None]  # resample i's weights at row i
        weights = np.bincount(draws.ravel(), minlength=draws.size).reshape(draws.shape)
        rows.append((weights.astype(exact) @ terms).astype(np.int64))
    sums = records._bootstraps[key] = np.concatenate(rows)
    sums.flags.writeable = False
    return sums


# pattern name -> its column in _block_counts and _bootstrap_sums
_COLUMN = {name: i for i, name in enumerate(PATTERN_MASKS, start=1)}


def estimate(records: ClickRecords, name: str, block_triggers: int = BOOTSTRAP_BLOCK,
             resamples: int = BOOTSTRAP_RESAMPLES, seed: int = 0) -> CorrelationEstimate:
    """Ratio-of-frequencies estimate of the correlation RATIOS[name],
    prod(p_num) / prod(p_den), with block-bootstrap error; resamples whose
    denominator vanishes are dropped and counted in dropped_resamples."""
    if name not in RATIOS:
        raise NonPhysicalParameter(f"unknown correlation {name!r}")
    sums = _bootstrap_sums(records, block_triggers, resamples, seed)
    num, den = RATIOS[name]
    for pattern in den:
        if not sums[0, _COLUMN[pattern]]:
            raise DivisionByZeroRate(f"pattern {pattern!r} never occurred")
    p = {pattern: sums[:, _COLUMN[pattern]] / sums[:, 0] for pattern in {*num, *den}}
    d = math.prod(p[pattern] for pattern in den)
    ok = d > 0
    values = math.prod(p[pattern] for pattern in num)[ok] / d[ok]
    # a numerator pattern that never occurred makes every resample 0: no error estimate
    seen = all(sums[0, _COLUMN[pattern]] for pattern in num)
    se = float(np.std(values[1:], ddof=1)) if values.size > 2 and seen else math.inf
    return CorrelationEstimate(value=float(values[0]), standard_error=se,
                               dropped_resamples=int(np.count_nonzero(~ok[1:])))


def estimate_g2(records: ClickRecords, kind: str, block_triggers: int = BOOTSTRAP_BLOCK,
                resamples: int = BOOTSTRAP_RESAMPLES, seed: int = 0) -> CorrelationEstimate:
    """estimate of the correlation G2_KINDS[kind]."""
    if kind not in G2_KINDS:
        raise NonPhysicalParameter(f"unknown correlation kind {kind!r}")
    return estimate(records, G2_KINDS[kind], block_triggers, resamples, seed)


def klyshko_efficiency(records: ClickRecords, block_triggers: int = BOOTSTRAP_BLOCK,
                       resamples: int = BOOTSTRAP_RESAMPLES, seed: int = 0) -> CorrelationEstimate:
    """Herald-arm efficiency p(H and S) / p(S), independent of monitor-arm losses."""
    return estimate(records, "klyshko_efficiency", block_triggers, resamples, seed)


# ---------------------------------------------------------------------------
# Decay-curve fits
# ---------------------------------------------------------------------------

def _series_arrays(series):
    """(T, value, weight) of the series rows, the weights 1 / stderr (1
    without a stderr column); NonPhysicalParameter names the first row with
    a value that is not finite or a weight that is not finite and positive."""
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] not in (2, 3):
        raise NonPhysicalParameter("series must be rows of (T, value[, stderr])")
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        raise NonPhysicalParameter(f"series row {bad.argmax() + 1} is not finite")
    if arr.shape[1] == 2:
        return arr[:, 0], arr[:, 1], np.ones(arr.shape[0])
    sigma = arr[:, 2]
    with np.errstate(divide="ignore", over="ignore"):
        weight = 1.0 / sigma
    bad = ~(np.isfinite(weight) & (weight > 0))
    if bad.any():
        row = int(bad.argmax())
        why = ("<= 0" if sigma[row] <= 0
               else f"{float(sigma[row])!r}, too small for a finite weight 1/stderr")
        raise NonPhysicalParameter(f"series row {row + 1} has a standard error {why}")
    return arr[:, 0], arr[:, 1], weight


def fit_exponential(series) -> FitResult:
    """Least-squares fit of amplitude * exp(-T / lifetime).

    Reports the lifetime and amplitude with standard errors and R^2
    (computed on the data scale, not log transformed).
    """
    t, y, weight = _series_arrays(series)
    if t.size < 3:
        raise SingularFit("need at least 3 points for an exponential fit")
    if np.any(y <= 0):
        raise SingularFit("exponential fit requires positive values")
    # log-linear regression for starting values and degeneracy detection
    slope, intercept = np.polyfit(t, np.log(y), 1)
    span = t.max() - t.min()
    if span <= 0 or abs(slope) * span < 1e-9:
        raise SingularFit("series is constant within precision; lifetime unconstrained")
    if slope >= 0:
        raise SingularFit("series does not decay; lifetime would be negative")
    return _fit(("amplitude", "lifetime"), lambda p: p[0] * np.exp(-t / p[1]),
                np.array([math.exp(intercept), -1.0 / slope]), y, weight,
                "exponential fit", xtol=1e-12, max_nfev=2000)


def _fit(names: tuple, model, p0, y, weight, what: str, xtol: float,
         max_nfev: int) -> FitResult:
    """Least-squares fit of model(params) to y, each residual times its
    weight, from p0; NoConvergence names the fit as `what`. Standard errors
    come from the jacobian at the solution, inf where it is singular."""
    from . import solvers

    res = solvers.least_squares(lambda p: (model(p) - y) * weight, p0, xtol=xtol, ftol=1e-12,
                                max_nfev=max_nfev)
    if not res.success:
        raise NoConvergence(f"{what} did not converge", best=dict(zip(names, res.x)))
    dof = max(y.size - len(names), 1)
    try:
        cov = np.linalg.inv(res.jac.T @ res.jac) * (res.fun @ res.fun) / dof
        errors = [float(math.sqrt(max(cov[i, i], 0.0))) for i in range(len(names))]
    except np.linalg.LinAlgError:
        errors = [math.inf] * len(names)
    ss_res = float(np.sum((y - model(res.x)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return FitResult(
        values={name: float(v) for name, v in zip(names, res.x)},
        errors=dict(zip(names, errors)),
        r_squared=1.0 - ss_res / ss_tot if ss_tot else (1.0 if ss_res == 0 else -math.inf),
        residual_rms=math.sqrt(ss_res / y.size),
        n_points=int(y.size),
        evaluations=int(res.nfev),
    )


MEMORY_FIT_PARAMS = ("amplitude", "lifetime", "delta", "psi2")
# the least value of each parameter the decay model takes: below it, it takes this
_MODEL_FLOORS = {"lifetime": 1e-6, "delta": 0.0, "psi2": 0.0}


def fit_memory_model(series, free_params, cfg: ValidatedConfig) -> FitResult:
    """Nonlinear fit of the storage decay model to (T, value) data.

    Delays T are whole numbers of cycles, at least 10 distinct ones.
    Free parameters are a subset of {amplitude, lifetime, delta, psi2},
    each named once; the remaining ones are held at the config values.
    Convergence follows a damped least-squares iteration with relative step
    tolerance 1e-8, capped at 500 model evaluations per free parameter.
    The model holds lifetime, delta and psi2 at their _MODEL_FLOORS; a
    solution below one is SingularFit naming the parameter.
    """
    from . import readout

    t, y, weight = _series_arrays(series)
    fractional = t != np.rint(t)
    if fractional.any():
        row = int(fractional.argmax())
        raise NonPhysicalParameter(
            f"series row {row + 1}: delay {float(t[row])!r} is not a whole number of cycles")
    delays, index = np.unique(t, return_inverse=True)
    if delays.size < 10:
        raise SingularFit("memory-model fit needs at least 10 distinct delays")
    if isinstance(free_params, str):  # a tuple of it would be its letters
        raise NonPhysicalParameter(f"free_params must list names, got the string {free_params!r}")
    free = tuple(free_params)
    bad = set(free) - set(MEMORY_FIT_PARAMS)
    if bad:
        raise NonPhysicalParameter(f"unknown fit parameter(s) {sorted(bad)}")
    twice = [name for name in free if free.count(name) > 1]
    if twice:
        raise NonPhysicalParameter(f"fit parameter {twice[0]!r} is named more than once")
    if not free:
        raise SingularFit("no free parameters requested")

    defaults = {
        "amplitude": float(y.max()),
        "lifetime": cfg.cavity.ringdown_lifetime_cycles,
        "delta": cfg.cavity.mismatch_ps_per_cycle,
        "psi2": cfg.cavity.dispersion_ps2_per_cycle,
    }

    etas = {}  # (delta, psi2) -> the overlap over delays; the lifetime does not enter it

    def model_curve(params):
        p = dict(defaults)
        p.update(zip(free, params))
        c = cfg.replace_fields(**{
            "cavity.ringdown_lifetime_cycles": max(p["lifetime"], _MODEL_FLOORS["lifetime"]),
            "cavity.mismatch_ps_per_cycle": max(p["delta"], _MODEL_FLOORS["delta"]),
            "cavity.dispersion_ps2_per_cycle": max(p["psi2"], _MODEL_FLOORS["psi2"]),
        })
        key = (c.cavity.mismatch_ps_per_cycle, c.cavity.dispersion_ps2_per_cycle)
        if key not in etas:
            etas[key] = readout.readout_curve(c, delays)[1]
        return p["amplitude"] * readout._retrieval(c, delays, etas[key])[1][index]

    fit = _fit(free, model_curve, np.array([defaults[name] for name in free]), y, weight,
               "memory-model fit", xtol=1e-8, max_nfev=500 * len(free))
    for name, floor in _MODEL_FLOORS.items():
        value = fit.values.get(name, floor)
        if value < floor:  # the model never saw this value, so the fit did not constrain it
            raise SingularFit(f"memory-model fit took {name} to {value:.6g}, below {floor:g} "
                              f"where the model holds it; the series does not constrain "
                              f"{name} from this start")
    return fit
