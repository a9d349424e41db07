"""The benchmark's four workloads.

Each workload has three parts:

- `inputs(workdir, seed, smoke, ref)` writes the seeded inputs (config files,
  calibration target sets, a noisy decay series) and returns what the other
  two parts need. fcsim sees only these generated inputs, never the seed.
- `run_pass(ops, inp)` is one in-process pass. Every call into fcsim is an
  `ops.step`, and every output check an `ops.check`. It returns the sizes
  that per-layer rates are computed from.
- `inp["cli"]` lists the argument vectors of the workload's CLI commands,
  each run as `python -m fcsim.cli <argv>`; `check_cli(ops, inp)` checks
  what they wrote.

Why each workload exists:

- mc_sparse: `trialsim` sampling does nearly all the work; record I/O and
  the estimators see about 5e5 records and the analytic layers run once.
- mc_dense: about 74% of triggers click, so record I/O and the bootstrap
  dominate and sampling is a small share; a sparse-sampling change should
  gain nothing here.
- calibrate: `click_model` evaluations and the conversion-coefficient
  solve; no records. Exercises the analytic click engine.
- delay_scan: the per-delay readout overlap does nearly all the work;
  `fockstats` runs once. Exercises the readout curve, which mc_* bypass.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import fcsim
from fcsim import config, estimators, fockstats, multiplex, readout, trialsim

PUBLISHED_TARGETS = {
    "g2_xc_hs": 26.0,
    "herald_rate_cps": 474.0,
    "g2_noise": 1.09,
    "eta_conversion": 0.8,
    "heralded_prob": 0.096,
}

# Reference values of the output checks. The self-check overrides one of
# them with a wrong value to show that the checks can fail.
REFERENCE = {
    "rate_sigmas": 5.0,          # MC pattern rate vs click_model, in sigma
    "residual_rel": 1e-5,        # calibration residual, relative
    "herald_cps": 474.0,         # published operating point
    "heralded_prob": 0.096,
    "one_over_e": 67.0,          # 78-cycle cavity variant, cycles
    "one_over_e_tol": 3.0,
    "lifetime": 111.0,           # ring-down lifetime behind the decay series
    "lifetime_sigmas": 3.0,
}

G2_KINDS = ("cross_hs", "cross_hr", "heralded_auto", "unheralded_auto")
DETECTOR_BITS = (("H", trialsim.MASK_H), ("S", trialsim.MASK_S),
                 ("R1", trialsim.MASK_R1), ("R2", trialsim.MASK_R2))

# Full size, and the smoke size the self-check runs.
SIZES = {
    False: {"sparse_triggers": 10_000_000, "dense_triggers": 1_000_000,
            "seeded_sets": 4, "report_delays": (1, 10, 50), "scan_max": 300,
            "g2_max": 200, "mux_bins": 40},
    True: {"sparse_triggers": 200_000, "dense_triggers": 100_000,
           "seeded_sets": 1, "report_delays": (1,), "scan_max": 30,
           "g2_max": 20, "mux_bins": 10},
}

# CPUs this process may use, read before run.py pins it to one of them.
ALLOWED_CPUS = frozenset(os.sched_getaffinity(0))

DECAY_DELAYS = np.arange(5, 305, 5)   # 60 delays
DECAY_AMPLITUDE = 1000.0
DECAY_REL_NOISE = 0.02


class StepFailed(Exception):
    """A step of a pass raised; the rest of the pass is skipped."""


class Ops:
    """Counts operations and failures, and times each step.

    With a tracer set, each step is also recorded as a `bench.<step>` span.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.times = {}
        self.tracer = None

    def fail(self, name, detail):
        self.failed += 1
        self.failures.append(f"{name}: {detail}")

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.fail(name, detail or "check failed")

    def step(self, name, fn, *args, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                out = fn(*args, **kwargs)
            else:
                with self.tracer.span("bench." + name):
                    out = fn(*args, **kwargs)
        except Exception as exc:  # any error of the program is a failed operation
            self.fail(name, f"{type(exc).__name__}: {exc}")
            raise StepFailed(name) from exc
        self.times.setdefault(name, []).append(time.perf_counter() - t0)
        return out

    def run_pass(self, run_pass, inp) -> dict:
        try:
            return run_pass(self, inp)
        except StepFailed:
            return {}


@contextlib.contextmanager
def on_all_cpus():
    """Let this process, and the workers it starts, use every allowed CPU."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALLOWED_CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def _packaged_doc(name="primary_cavity") -> dict:
    return json.loads(fcsim.default_config_path(name).read_text(encoding="utf-8"))


def _write_config(path: Path, doc: dict, **dotted) -> str:
    doc = json.loads(json.dumps(doc))
    for key, value in dotted.items():
        section, _, field = key.partition(".")
        doc[section][field] = value
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _record_bytes(rec) -> bytes:
    return rec.trigger.tobytes() + rec.delay.tobytes() + rec.mask.tobytes()


# ---------------------------------------------------------------------------
# mc_sparse and mc_dense
# ---------------------------------------------------------------------------

def _mc_inputs(workdir, seed, smoke, ref, dense):
    rng = np.random.default_rng(seed)
    size = SIZES[smoke]
    overrides = ({"source.mean_pairs_per_pulse": 0.25, "noise.noise_mean_per_nj": 0.2}
                 if dense else {})
    cfg = _write_config(workdir / "config.json", _packaged_doc(), **overrides)
    n = size["dense_triggers" if dense else "sparse_triggers"]
    suffix = ".csv" if dense else ".bin"
    sim_seed = int(rng.integers(1, 2**31))
    return {
        "ref": ref,
        "configs": [cfg],
        "config": cfg,
        "sim_seed": sim_seed,
        "triggers": n,
        "controls": n // 5,
        "compare_jobs": not dense,
        "jobs": min(2, len(ALLOWED_CPUS)),
        "records": str(workdir / ("pass" + suffix)),
        "cli_records": str(workdir / ("cli" + suffix)),
        "cli": [["simulate", "--config", cfg, "--seed", str(sim_seed),
                 "--triggers", str(n), "--out", str(workdir / ("cli" + suffix)),
                 "--jobs", "1"]],
    }


def _estimate_all(records):
    rates = estimators.estimate_rates(records)
    for kind in G2_KINDS:
        estimators.estimate_g2(records, kind)
    estimators.klyshko_efficiency(records)
    return rates


def _model_prob(clicks, name):
    q = clicks.no_click
    if name == "r":
        return 1.0 - q[frozenset({"R1", "R2"})]
    if name == "hr":
        return clicks.p("H") - (q[frozenset({"R1", "R2"})] - q[frozenset({"H", "R1", "R2"})])
    bits = estimators.PATTERNS[name]
    return clicks.p_all(*(det for det, bit in DETECTOR_BITS if bits & bit))


def _mc_pass(ops, inp):
    ref = inp["ref"]
    cfg = ops.step("load", config.load_config, inp["config"])
    n, seed = inp["triggers"], inp["sim_seed"]
    rec = ops.step("simulate", trialsim.simulate_run, cfg, seed, n, 1, jobs=1)
    if inp["compare_jobs"]:
        with on_all_cpus():
            rec2 = ops.step("simulate_j2", trialsim.simulate_run, cfg, seed, n, 1,
                            jobs=inp["jobs"])
        ops.check("jobs_identical", _record_bytes(rec) == _record_bytes(rec2),
                  "jobs=1 and jobs=2 records differ")
    ops.step("write", trialsim.write_records, rec, inp["records"])
    back = ops.step("read", trialsim.read_records, inp["records"])
    ops.check("read_back_identical",
              _record_bytes(back) == _record_bytes(rec) and back.manifest == rec.manifest,
              "records read back differ from those written")
    rates = ops.step("estimate", _estimate_all, back)
    controls = ops.step("simulate_controls", trialsim.simulate_run, cfg, seed + 1,
                        inp["controls"], 1, controls_only=True, jobs=1)
    ops.step("subtract_background", lambda: estimators.subtract_background(
        rates, estimators.estimate_rates(controls)))
    _, clicks = ops.step("click_model", fockstats.click_model, cfg, 1)
    clock = cfg.pulses.clock_rate_khz * 1e3
    for name, est in rates.items():
        p = _model_prob(clicks, name)
        sigma = math.sqrt(p * (1.0 - p) / n) * clock
        ops.check(f"rate_{name}", abs(est.value - p * clock) <= ref["rate_sigmas"] * sigma,
                  f"{est.value:.6g} cps vs model {p * clock:.6g} +- {sigma:.3g}")
    return {"triggers": n, "records": int(rec.trigger.size),
            "bytes": os.path.getsize(inp["records"]),
            "format": Path(inp["records"]).suffix[1:]}


def _mc_check_cli(ops, inp):
    try:
        same = Path(inp["cli_records"]).read_bytes() == Path(inp["records"]).read_bytes()
        detail = "CLI and in-process record files differ"
    except OSError as exc:
        same, detail = False, str(exc)
    ops.check("cli_records_identical", same, detail)


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def _calibrate_inputs(workdir, seed, smoke, ref):
    rng = np.random.default_rng(seed)
    size = SIZES[smoke]
    sets = [dict(PUBLISHED_TARGETS)]
    for _ in range(size["seeded_sets"]):
        sets.append({k: v * (1.0 + rng.uniform(-0.05, 0.05))
                     for k, v in PUBLISHED_TARGETS.items()})
    targets = workdir / "targets.json"
    targets.write_text(json.dumps(sets, indent=2) + "\n", encoding="utf-8")
    primary = _write_config(workdir / "primary.json", _packaged_doc())
    alternate = _write_config(workdir / "alternate.json", _packaged_doc("alternate_cavity"))
    return {
        "ref": ref,
        "configs": [primary, alternate],
        "primary": primary,
        "alternate": alternate,
        "targets": str(targets),
        "report_delays": size["report_delays"],
        "cli": [["stats", "--config", primary]
                + [a for k, v in PUBLISHED_TARGETS.items()
                   for a in ("--calibrate", f"{k}={v!r}")]],
    }


def _calibrate_pass(ops, inp):
    ref = inp["ref"]
    primary = ops.step("load", config.load_config, inp["primary"])
    alternate = ops.step("load", config.load_config, inp["alternate"])
    with open(inp["targets"], encoding="utf-8") as fh:
        target_sets = json.load(fh)
    calibrated = []
    for i, targets in enumerate(target_sets):
        cfg, resid = ops.step("calibrate", fockstats.calibrate, primary, targets)
        worst = max(abs(resid[k]) / abs(targets[k]) for k in resid)
        ops.check(f"residuals_{i}", worst <= ref["residual_rel"],
                  f"worst relative residual {worst:.3g}")
        calibrated.append(cfg)
    reports = {}
    for i, cfg in enumerate(calibrated + [alternate]):
        for t in inp["report_delays"]:
            reports[i, t] = ops.step("model_report", fockstats.model_report, cfg, t)
    published = reports[0, 1]
    herald = published["rates"]["herald_cps"]
    heff = published["correlations"]["heralding_efficiency"]
    ops.check("published_herald_cps",
              math.isclose(herald, ref["herald_cps"], rel_tol=ref["residual_rel"]),
              f"herald rate {herald:.6g} cps")
    ops.check("published_heralded_prob",
              math.isclose(heff, ref["heralded_prob"], rel_tol=ref["residual_rel"]),
              f"heralding efficiency {heff:.6g}")
    return {"calibrations": len(calibrated)}


# ---------------------------------------------------------------------------
# delay_scan
# ---------------------------------------------------------------------------

def _delay_scan_inputs(workdir, seed, smoke, ref):
    rng = np.random.default_rng(seed)
    size = SIZES[smoke]
    primary = _write_config(workdir / "primary.json", _packaged_doc())
    cfg = config.load_config(primary)
    truth = DECAY_AMPLITUDE * np.array(
        [readout.readout_probability(int(t), cfg)[2] for t in DECAY_DELAYS])
    stderr = DECAY_REL_NOISE * truth
    values = truth + stderr * rng.standard_normal(truth.size)
    series = workdir / "series.csv"
    series.write_text("T,value,stderr\n" + "".join(
        f"{t},{float(v)!r},{float(s)!r}\n" for t, v, s in zip(DECAY_DELAYS, values, stderr)),
        encoding="utf-8")
    scan = size["scan_max"]
    sweep = ["sweep", "--config", primary, "--param", "readout_delay",
             "--from", "1", "--to", str(scan), "--steps", str(scan),
             "--out", str(workdir / "sweep.csv")]
    nproc = len(ALLOWED_CPUS)
    if (os.cpu_count() or 1) > nproc:
        sweep += ["--jobs", str(nproc)]  # the default would start more workers than cores
    return {
        "ref": ref,
        "configs": [primary],
        "primary": primary,
        "series": str(series),
        "scan_max": scan,
        "g2_max": size["g2_max"],
        "mux_bins": size["mux_bins"],
        "cli": [sweep,
                ["multiplex", "--config", primary, "--max-bins", str(size["mux_bins"]),
                 "--out", str(workdir / "mux.csv")],
                ["fit", "--kind", "memory", "--data", str(series), "--config", primary]],
    }


def _delay_scan_pass(ops, inp):
    ref = inp["ref"]
    cfg = ops.step("load", config.load_config, inp["primary"])
    ops.step("readout_scan", lambda: [readout.readout_probability(t, cfg)
                                      for t in range(1, inp["scan_max"] + 1)])
    _, clicks = ops.step("click_model", fockstats.click_model, cfg, 1)
    bins = inp["mux_bins"]
    curve = ops.step("readout_curve", multiplex.readout_curve, cfg, bins)
    plans = [multiplex.MultiplexPlan(bins=k, bin_spacing_cycles=1,
                                     herald_prob=clicks.p("H"), readout_curve=curve)
             for k in range(1, bins + 1)]
    p_out = ops.step("multiplex_success",
                     lambda: [multiplex.multiplex_success(p)["p_out"] for p in plans])
    best = ops.step("optimal_K", multiplex.optimal_K, plans[-1], bins)
    ops.check("optimal_K_is_argmax", best == int(np.argmax(p_out)) + 1,
              f"optimal_K {best}, argmax {int(np.argmax(p_out)) + 1}")
    variant = ops.step("variant", cfg.replace_fields,
                       **{"cavity.ringdown_lifetime_cycles": 78.0})
    t_e = ops.step("one_over_e_delay", readout.one_over_e_delay, variant)
    ops.check("one_over_e_delay", abs(t_e - ref["one_over_e"]) <= ref["one_over_e_tol"],
              f"1/e delay {t_e:.3f} cycles")
    ops.step("heralded_g2_curve", fockstats.heralded_g2_curve, cfg,
             range(1, inp["g2_max"] + 1))
    series = ops.step("load_series", np.loadtxt, inp["series"], delimiter=",",
                      skiprows=1, ndmin=2)
    fit = ops.step("fit_memory", estimators.fit_memory_model, series,
                   ("amplitude", "lifetime"), cfg)
    life, err = fit.values["lifetime"], fit.errors["lifetime"]
    ops.check("lifetime_recovered", abs(life - ref["lifetime"]) <= ref["lifetime_sigmas"] * err,
              f"fitted lifetime {life:.3f} +- {err:.3f}")
    return {"delays": inp["scan_max"]}


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    run_pass: Callable
    check_cli: Callable = lambda ops, inp: None


WORKLOADS = {
    "mc_sparse": Workload(lambda *a: _mc_inputs(*a, dense=False), _mc_pass, _mc_check_cli),
    "mc_dense": Workload(lambda *a: _mc_inputs(*a, dense=True), _mc_pass, _mc_check_cli),
    "calibrate": Workload(_calibrate_inputs, _calibrate_pass),
    "delay_scan": Workload(_delay_scan_inputs, _delay_scan_pass),
}
