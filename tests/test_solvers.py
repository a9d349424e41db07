"""The numpy-only solvers against the scipy routines they replace, and the memory
fit against the one that calls the readout curve at every step (tests/oracles.py)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcsim import estimators, fockstats, readout, solvers
from fcsim.errors import NoConvergence, SingularFit
from oracles import memory_fit_every_step, scipy_brentq, scipy_least_squares

PUBLISHED_TARGETS = {"g2_xc_hs": 26.0, "herald_rate_cps": 474.0, "g2_noise": 1.09,
                     "eta_conversion": 0.80, "heralded_prob": 0.096}


# ---------------------------------------------------------------------------
# brentq
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("extra, searches", [
    ({}, {"primary": 3, "alternate": 3}),
    ({"r_rate_cps": 3507.15}, {"primary": 7, "alternate": 10}),
    ({"eta_conversion": 0.986}, {"primary": 4, "alternate": 4})],
    ids=["published", "with_r_rate", "conversion_past_rise"])
@pytest.mark.parametrize("config_name", ["primary", "alternate"])
def test_brentq_matches_scipy_on_published_calibrations(config_name, extra, searches,
                                                        request, monkeypatch):
    """Every root a published calibration asks for, replayed through scipy,
    comes back bit for bit: the conversion coefficient, the conversion
    maximum when the target lies past the rising branch, and each bracketed
    target (g2_noise, heralded_prob and r_rate_cps in each pass: two on the
    primary config, three on the alternate); the herald efficiency is a
    closed form and searches nothing."""
    calls, real = [], solvers.brentq

    def recording(f, a, b, xtol=solvers.BRENTQ_XTOL, rtol=solvers.BRENTQ_RTOL,
                  maxiter=100):
        root = real(f, a, b, xtol, rtol, maxiter)
        calls.append((f, a, b, xtol, rtol, maxiter, root))
        return root

    monkeypatch.setattr(solvers, "brentq", recording)
    fockstats.calibrate(request.getfixturevalue(config_name),
                        dict(PUBLISHED_TARGETS, **extra))
    assert len(calls) == searches[config_name]
    for f, a, b, xtol, rtol, maxiter, root in calls:
        assert scipy_brentq(f, a, b, xtol, rtol, maxiter).hex() == root.hex()


def test_evaluated_once_keeps_each_exact_argument():
    """A wrapped function evaluates each argument once, keyed on the exact
    value (the next float is a new evaluation), and a new wrapper starts
    with nothing kept."""
    calls = []

    def square(x):
        calls.append(x)
        return x * x

    near = math.nextafter(0.5, 1.0)
    once = solvers.evaluated_once(square)
    assert [once(0.5), once(near), once(0.5), once(near)] == [0.25, near * near] * 2
    assert calls == [0.5, near]
    assert once.values == {0.5: 0.25, near: near * near}
    assert solvers.evaluated_once(square)(0.5) == 0.25
    assert calls == [0.5, near, 0.5]


def _tanh(k, c):
    return lambda x: math.tanh(k * (x - c))


def _cubic(k, c):
    return lambda x: k * (x - c) ** 3


def _exp(k, c):
    return lambda x: math.expm1(min(k * (x - c), 700.0))


def _atan_linear(k, c):
    return lambda x: math.atan(k * (x - c)) + 1e-3 * (x - c)


def _tiny_tanh(k, c):
    """Values near 1e-300: products of slopes underflow to zero, where C
    divides to inf or nan and Python raises."""
    return lambda x: 1e-300 * math.tanh(k * (x - c))


def _outcome(solve, f, tol):
    """The root's bits, or the kind of failure (scipy's RuntimeError after
    maxiter iterations is the package's NoConvergence)."""
    try:
        return solve(f, -1.0, 1.0, *tol).hex()
    except (RuntimeError, NoConvergence):
        return "no convergence"
    except ValueError:
        return "ValueError"


@settings(deadline=None, max_examples=300)
@given(family=st.sampled_from([_tanh, _cubic, _exp, _atan_linear, _tiny_tanh]),
       k=st.floats(1e-2, 1e6), c=st.floats(-0.99, 0.99),
       tol=st.sampled_from([(2e-12, solvers.BRENTQ_RTOL), (1e-10, solvers.BRENTQ_RTOL),
                            (1e-11, 1e-8), (1e-9, 1e-6)]))
def test_brentq_matches_scipy_on_monotone_and_steep_functions(family, k, c, tol):
    f = family(k, c)
    assert _outcome(solvers.brentq, f, tol) == _outcome(scipy_brentq, f, tol)


def test_brentq_maxiter_exhaustion_is_no_convergence():
    """Where scipy gives up with a RuntimeError, the port raises the typed error."""
    def f(x):
        return math.exp(x) - 2.0

    with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
        scipy_brentq(f, 0.0, 3.0, solvers.BRENTQ_XTOL, solvers.BRENTQ_RTOL, maxiter=3)
    with pytest.raises(NoConvergence, match="3 iterations") as err:
        solvers.brentq(f, 0.0, 3.0, maxiter=3)
    assert 0.0 < err.value.best < 3.0


def test_brentq_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        solvers.brentq(lambda x: x * x + 1.0, -1.0, 1.0)


@pytest.mark.parametrize("f, tol, match", [
    (math.sin, {"xtol": 0.0}, "xtol too small"),
    (math.sin, {"rtol": solvers.BRENTQ_RTOL / 2}, "rtol too small"),
    (lambda x: math.nan if x > 0 else -1.0, {}, "is NaN"),
], ids=["xtol_zero", "rtol_below_the_floor", "nan_value"])
def test_brentq_rejects_what_scipy_rejects(f, tol, match):
    """Where scipy's brentq raises a ValueError, the port raises one too."""
    for solve in (solvers.brentq, scipy_brentq):
        with pytest.raises(ValueError, match=match):
            solve(f, -1.0, 1.0, tol.get("xtol", solvers.BRENTQ_XTOL),
                  tol.get("rtol", solvers.BRENTQ_RTOL))


@pytest.mark.parametrize("root", [-1.0, 1.0])
def test_brentq_returns_a_root_at_a_bracket_end(root):
    """A bracket end where f is 0 is the root, with no iteration."""
    calls = []

    def f(x):
        calls.append(x)
        return x - root

    assert solvers.brentq(f, -1.0, 1.0) == root
    assert calls == [-1.0, 1.0]
    assert scipy_brentq(f, -1.0, 1.0, solvers.BRENTQ_XTOL, solvers.BRENTQ_RTOL) == root


# ---------------------------------------------------------------------------
# least_squares
# ---------------------------------------------------------------------------

def _fit_both(monkeypatch, fit, *args):
    """(package fit, the same fit with scipy's least_squares)."""
    mine = fit(*args)
    monkeypatch.setattr(solvers, "least_squares", scipy_least_squares)
    return mine, fit(*args)


def _assert_same_fit(mine, reference):
    for part in ("values", "errors"):
        got, want = getattr(mine, part), getattr(reference, part)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name] == pytest.approx(want[name], rel=1e-6), (part, name)


def test_least_squares_matches_scipy_on_weighted_exponential(monkeypatch):
    """The series of test_fit_exponential_weighted_noisy."""
    rng = np.random.Generator(np.random.PCG64(17))
    t = np.arange(1, 280, 6, dtype=float)
    y = rng.poisson(1000 * np.exp(-t / 111.0)).astype(float)
    y[y == 0] = 0.5
    series = np.column_stack([t, y, np.sqrt(np.maximum(y, 1.0))])
    _assert_same_fit(*_fit_both(monkeypatch, estimators.fit_exponential, series))


def test_least_squares_matches_scipy_on_noisy_memory_model(primary, monkeypatch):
    """The series of test_memory_model_noisy_recovery."""
    cfg = primary.replace_fields(**{"cavity.ringdown_lifetime_cycles": 78.0})
    rng = np.random.Generator(np.random.PCG64(23))
    t = np.arange(1, 101, 5, dtype=float)
    clean = 5000 * np.array([readout.readout_probability(int(d), cfg)[2] for d in t])
    y = rng.poisson(clean).astype(float)
    series = np.column_stack([t, y, np.sqrt(np.maximum(y, 1.0))])
    _assert_same_fit(*_fit_both(monkeypatch, estimators.fit_memory_model, series,
                                ("amplitude", "lifetime"), cfg))


def _decay_series(cfg, seed):
    """Delays 5..300 in steps of 5, amplitude 1000, 2% Gaussian noise with
    its standard errors: the shape of the benchmark's decay series."""
    delays = np.arange(5, 305, 5)
    truth = 1000.0 * readout.readout_curve(cfg, delays)[2]
    rng = np.random.default_rng(seed)
    values = truth + 0.02 * truth * rng.standard_normal(truth.size)
    return np.column_stack([delays, values, 0.02 * truth])


@pytest.mark.parametrize("free", [("amplitude", "lifetime"),
                                  ("amplitude", "lifetime", "delta")])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_least_squares_matches_scipy_on_decay_series(primary, monkeypatch, seed, free):
    _assert_same_fit(*_fit_both(monkeypatch, estimators.fit_memory_model,
                                _decay_series(primary, seed), free, primary))


# residual evaluations, jacobian columns included, of the amplitude + lifetime fit of
# _decay_series(primary, seed) for seeds 0..9: 126 in all
DECAY_FIT_EVALUATIONS = (12, 12, 12, 12, 12, 15, 12, 15, 12, 12)


@pytest.mark.parametrize("seed, evaluations", enumerate(DECAY_FIT_EVALUATIONS))
def test_decay_fit_evaluation_counts_are_pinned(primary, seed, evaluations):
    fit = estimators.fit_memory_model(_decay_series(primary, seed),
                                      ("amplitude", "lifetime"), primary)
    assert fit.evaluations == evaluations


@pytest.mark.parametrize("free", [("amplitude", "lifetime"),
                                  ("amplitude", "lifetime", "delta"),
                                  ("amplitude", "lifetime", "delta", "psi2")])
@pytest.mark.parametrize("seed", [0, 1])
def test_memory_fit_reuses_its_overlap_bit_for_bit(primary, seed, free):
    """Computing each (delta, psi2) overlap once per fit changes no value,
    error, R^2, residual or evaluation count of the fit that calls the
    readout curve at every step."""
    series = _decay_series(primary, seed)
    assert estimators.fit_memory_model(series, free, primary) == memory_fit_every_step(
        series, free, primary)


def test_memory_fit_of_amplitude_and_lifetime_evaluates_the_overlap_once(primary,
                                                                        monkeypatch):
    series, calls, real = _decay_series(primary, 0), [], readout.readout_curve

    def counting(cfg, delays):
        calls.append(delays)
        return real(cfg, delays)

    monkeypatch.setattr(readout, "readout_curve", counting)
    fit = estimators.fit_memory_model(series, ("amplitude", "lifetime"), primary)
    assert fit.evaluations > 1 and len(calls) == 1


def test_memory_fit_below_a_model_floor_is_singular(primary):
    """With all four parameters free from lifetime 30, the seed-0 series
    takes delta and psi2 below 0, where the model holds them at 0: that is
    SingularFit naming delta, not a converged result. From the config's
    lifetime the same series fits inside the floors."""
    series = _decay_series(primary, 0)
    short = primary.replace_fields(**{"cavity.ringdown_lifetime_cycles": 30.0})
    with pytest.raises(SingularFit, match="took delta to -1.28"):
        estimators.fit_memory_model(series, estimators.MEMORY_FIT_PARAMS, short)
    fit = estimators.fit_memory_model(series, estimators.MEMORY_FIT_PARAMS, primary)
    assert fit.values["delta"] > 0 and fit.values["psi2"] > 0
    assert fit.values["lifetime"] == pytest.approx(105.6, abs=0.1)


def test_least_squares_leaves_a_parameter_the_residual_ignores_at_its_start():
    """A third parameter that moves nothing gets no step: the other two end
    where the two-parameter fit ends, and it stays at its start value."""
    t = np.linspace(0.0, 4.0, 30)
    y = 2.0 * np.exp(-t / 1.3) + 0.01 * np.sin(7 * t)

    def resid(p):
        return p[0] * np.exp(-t / p[1]) - y

    two = solvers.least_squares(resid, [1.0, 1.0], xtol=1e-10, ftol=1e-12, max_nfev=200)
    three = solvers.least_squares(resid, [1.0, 1.0, 0.7], xtol=1e-10, ftol=1e-12,
                                  max_nfev=300)
    assert two.success and three.success
    assert three.x[2] == 0.7
    np.testing.assert_allclose(three.x[:2], two.x, rtol=1e-12)
    np.testing.assert_array_equal(three.jac[:, 2], 0.0)


def test_least_squares_returns_the_solution_and_counts_every_call():
    t = np.linspace(0.0, 4.0, 30)
    y = 2.0 * np.exp(-t / 1.3) + 0.01 * np.sin(7 * t)
    calls = []

    def resid(p):
        calls.append(p.copy())
        return p[0] * np.exp(-t / p[1]) - y

    res = solvers.least_squares(resid, [1.0, 1.0], xtol=1e-10, ftol=1e-12, max_nfev=200)
    assert res.success
    assert res.nfev == len(calls) <= 200
    np.testing.assert_array_equal(res.fun, resid(res.x))
    np.testing.assert_array_equal(res.jac, solvers._jacobian(resid, res.x, res.fun))
    # the residuals are orthogonal to the jacobian's columns at the minimum
    cosines = (res.jac.T @ res.fun) / np.linalg.norm(res.jac, axis=0) / np.linalg.norm(res.fun)
    assert np.max(np.abs(cosines)) < 1e-6


def test_least_squares_rejects_a_step_to_non_finite_residuals():
    """sqrt(x) - 0.1 is undefined below 0, where the first, barely damped
    step from x = 1 lands (about 1 - 1.8); the damping grows until a step
    stays inside."""
    def resid(p):
        return np.array([math.sqrt(p[0]) - 0.1 if p[0] > 0 else math.nan])

    res = solvers.least_squares(resid, [1.0], xtol=1e-12, ftol=1e-15, max_nfev=100)
    assert res.success
    assert res.x[0] == pytest.approx(0.01, rel=1e-9)


def test_least_squares_stops_within_max_nfev():
    t = np.linspace(0.0, 4.0, 30)
    y = 2.0 * np.exp(-t / 1.3)
    calls = []

    def resid(p):
        calls.append(1)
        return p[0] * np.exp(-t / p[1]) - y

    res = solvers.least_squares(resid, [0.1, 20.0], xtol=1e-15, ftol=1e-15, max_nfev=7)
    assert not res.success
    assert res.nfev == len(calls) <= 7
