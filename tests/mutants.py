"""Mutation check: does tier-1 notice a wrong line in src/?

    python3 tests/mutants.py            # every mutant, about 20 minutes
    python3 tests/mutants.py 3 10       # rows 3 and 10 only

Each row of MUTANTS replaces one piece of text in one source file. The
script copies src/, tests/, bench/ (which tier-1 reads) and pyproject.toml
to a temporary directory, checks that tier-1 passes there unmutated, then
applies each row in turn and runs tier-1 on the copy with the documented
criterion-5 failure deselected, and with tests/test_mutants.py's check of
this table, which a mutated file fails by construction (this script checks
each row's text before applying it). A mutant is killed when a test fails;
the first failing test is printed. The repository itself is never edited.

pytest does not collect this file (its name does not start with test_),
and it is not part of tier-1. Exit status 0 if every mutant was killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KNOWN_FAILURE = "tests/test_acceptance.py::test_criterion_5_noise_convergence_tail"
TABLE_CHECK = "tests/test_mutants.py::test_every_mutant_row_names_text_that_occurs_once"

# (file, old text, new text, what it breaks)
MUTANTS = [
    ("src/fcsim/estimators.py",
     "se = math.sqrt(max(p * (1.0 - p), 0.0) / n)",
     "se = math.sqrt(max(p, 0.0) / n)",
     "rate error Poisson sqrt(p/n), not binomial"),
    ("src/fcsim/estimators.py",
     "standard_error=math.hypot(est.standard_error, bg.standard_error)",
     "standard_error=est.standard_error",
     "background subtraction drops the controls' error"),
    ("src/fcsim/readout.py",
     "    return t - 1 + (math.log(prev) - math.log(target)) / (math.log(prev) - math.log(cur))",
     "    return float(t)",
     "1/e delay is the integer crossing, not interpolated"),
    ("src/fcsim/trialsim.py",
     "/ math.log1p(-p)) + 1, count + 1)",
     "/ math.log1p(-p)), count + 1)",
     "geometric gaps one short: an index can repeat"),
    ("src/fcsim/trialsim.py",
     "if terms[-1] * r < 2.0 ** -53 * (1.0 - r):",
     "if terms[-1] * r < 2.0 ** -45 * (1.0 - r):",
     "photon-number table cut at 2^-45, not 2^-53"),
    ("src/fcsim/trialsim.py",
     "(rng.random(noise_at.size) >= det.splitter_ratio)",
     "(rng.random(noise_at.size) < det.splitter_ratio)",
     "noise photons split to R2 below the ratio, not R1"),
    ("src/fcsim/trialsim.py",
     "if k > 1:  # no leading zero",
     "if k > 2:  # no leading zero",
     "CSV reader accepts a leading zero in 2-digit triggers"),
    ("src/fcsim/fockstats.py",
     "m * np.log1p(n_bar / m * e)",
     "m * np.log1p(n_bar * e)",
     "engine's noise photons ignore the mode count"),
    ("src/fcsim/patterns.py",
     '"klyshko_efficiency": (("hs",), ("s",)),',
     '"klyshko_efficiency": (("hs",), ("h",)),',
     "Klyshko efficiency over herald singles, not monitor singles"),
    ("src/fcsim/readout.py",
     "s ** (d - 1)",
     "s ** d",
     "monitor leak one cycle late (shared by engine, Monte Carlo and oracle)"),
    ("src/fcsim/trialsim.py",
     "(dark % count).astype(np.uint32)]) << 2",
     "(dark % count).astype(np.uint32)]).astype(np.uint16) << 2",
     "block merge keys as uint16: triggers wrap at 2^14"),
    ("src/fcsim/solvers.py",
     "lam /= 10.0",
     "lam /= 1.0",
     "Levenberg-Marquardt damping never falls after a good step"),
    ("src/fcsim/solvers.py",
     "np.diag(math.sqrt(lam) * np.linalg.norm(jac, axis=0))",
     "math.sqrt(lam) * np.eye(x.size)",
     "damping not scaled by the jacobian's column norms"),
    ("src/fcsim/solvers.py",
     "cost_new = float(f_new @ f_new) if np.all(np.isfinite(f_new)) else math.inf",
     "cost_new = float(f_new @ f_new)",
     "a step to non-finite residuals is not rejected"),
    ("src/fcsim/trialsim.py",
     "n += u >= c",
     "n += u > c",
     "photon-number head count misses a uniform equal to a cdf entry"),
    ("src/fcsim/trialsim.py",
     "int(np.searchsorted(cdf, _HEAD_CUT)) + 1",
     "int(np.searchsorted(cdf, _HEAD_CUT))",
     "photon-number table head cut one entry short"),
    ("src/fcsim/trialsim.py",
     "min(int(np.searchsorted(cdf, _HEAD_CUT)) + 1, _HEAD_MAX)",
     "int(np.searchsorted(cdf, _HEAD_CUT)) + 1",
     "photon-number head not capped: one pass per entry up to the cut"),
    ("src/fcsim/trialsim.py",
     '    integer("seed", seed, 0)\n',
     '    if not isinstance(seed, bool):\n        integer("seed", seed, 0)\n',
     "simulate_run runs a bool seed as 0 or 1"),
    ("src/fcsim/estimators.py",
     'integer("seed", seed, 0)',
     'integer("seed", seed, -1)',
     "bootstrap takes the seed -1 to numpy's untyped ValueError"),
    ("src/fcsim/readout.py",
     "for start in range(0, end, rows):",
     "for start in range(0, end, rows + 1):",
     "1/e search chunks start one delay late after the first: later crossings shift"),
    ("src/fcsim/estimators.py",
     "key = (c.cavity.mismatch_ps_per_cycle, c.cavity.dispersion_ps2_per_cycle)",
     "key = c.cavity.mismatch_ps_per_cycle",
     "memory-fit overlap memo drops psi2: a psi2 step reuses the old overlap"),
    ("src/fcsim/trialsim.py",
     '    integer("seed", seed, 0)\n',
     '    if isinstance(seed, int):\n        integer("seed", seed, 0)\n',
     "simulate_run hands a float seed to numpy's untyped TypeError"),
    ("src/fcsim/estimators.py",
     '    integer("seed", seed, 0)\n',
     '    if not isinstance(seed, float):\n        integer("seed", seed, 0)\n',
     "bootstrap answers a float seed from the memo of the equal integer seed"),
    ("src/fcsim/estimators.py",
     "if values.size > 2 and values[0] else math.inf",
     "if values.size > 2 else math.inf",
     "a numerator that never occurred claims a zero standard error"),
    ("src/fcsim/estimators.py",
     '    if name not in RATIOS:\n        raise NonPhysicalParameter(f"unknown correlation {name!r}")\n',
     "",
     "estimate takes an unknown name to an untyped KeyError"),
    ("src/fcsim/readout.py",
     '        integer("readout delay", x, 1)\n',
     '        if x is not True:\n            integer("readout delay", x, 1)\n',
     "the readout-bin check takes a bool delay as delay 1"),
    ("src/fcsim/readout.py",
     "if d.size != 1:",
     "if d.size < 1:",
     "readout_probability answers a list of delays with its first delay's values"),
    ("src/fcsim/readout.py",
     "np.array(delays, object, ndmin=1).tolist()",
     "np.array(delays, ndmin=1).tolist()",
     "the readout-bin check casts a list first: [True, 2] is the delays 1 and 2"),
    ("src/fcsim/readout.py",
     "envelope_intensity(cfg, np.ones((1, 1)), t)",
     "envelope_intensity(cfg, np.zeros((1, 1)), t)",
     "the conversion solve's envelope is taken at delay 0, not 1"),
    ("src/fcsim/solvers.py",
     "        if x not in values:\n            values[x] = f(x)\n        return values[x]\n",
     "        if round(x, 6) not in values:\n            values[round(x, 6)] = f(x)\n"
     "        return values[round(x, 6)]\n",
     "a solve's kept values are keyed on the trial value rounded to 6 places"),
    ("src/fcsim/config.py",
     "for section, ranges in fields.items():",
     "for section, ranges in list(fields.items())[1:]:",
     "config validation skips the wavelength section"),
    ("src/fcsim/fockstats.py",
     "_H, _S, _R1, _R2 = _HAS.T.astype(float)",
     "_H, _S, _R2, _R1 = _HAS.T.astype(float)",
     "the engine's R1 and R2 membership masks are swapped"),
    ("src/fcsim/config.py",
     "    reflectivity_r: UnitInterval\n",
     "    reflectivity_r: NonNegative\n",
     "the facet reflectivity is declared non-negative, not in [0, 1]"),
    ("src/fcsim/config.py",
     '"UnitInterval": (0.0, False, 1.0),',
     '"UnitInterval": (0.0, False, 1.5),',
     "the unit interval's upper bound is 1.5"),
    ("src/fcsim/multiplex.py",
     'float(p_out[-1]), "enhancement": float(enhancement[-1])',
     'float(p_out[0]), "enhancement": float(enhancement[0])',
     "multiplex_success reads output_curve at one bin, not at the plan's K"),
    ("src/fcsim/readout.py",
     "    if total[0] == 0.0:\n        raise DivisionByZeroRate(",
     "    if False:\n        raise DivisionByZeroRate(",
     "a memory that retrieves nothing has a 1/e delay of 1"),
    ("src/fcsim/config.py",
     "and not isinstance(value, bool)) and lo <= value <= hi",
     ") and lo <= value <= hi",
     "the integer rule takes a bool for the integer 0 or 1"),
    ("src/fcsim/trialsim.py",
     'integer("readout delay", delay_cycles, 1, MAX_DELAY)',
     'integer("readout delay", delay_cycles, 1)',
     "simulate_run takes a delay beyond MAX_DELAY that its records cannot hold"),
    ("src/fcsim/multiplex.py",
     'number("herald_prob", self.herald_prob, (0.0, False, 1.0))',
     'number("herald_prob", self.herald_prob, (0.0, False, 2.0))',
     "a herald probability above 1 makes a plan"),
    ("src/fcsim/estimators.py",
     "    if isinstance(free_params, str):",
     "    if False:",
     "a string of free parameters is read letter by letter"),
    ("src/fcsim/readout.py",
     "    survival, total = _retrieval(cfg, d, eta)\n    return survival, eta, total",
     "    survival, total = _retrieval(cfg, d[0] if d.size == 1 else d, eta)\n"
     "    return survival, eta, total",
     "one-delay survival as a scalar power, not the batched array power"),
    ("src/fcsim/readout.py",
     "eta = envelope_intensity(cfg, d[0], t)[None] @ profile",
     "eta = envelope_intensity(cfg, d[0], t) @ profile",
     "one-delay overlap as a (nodes,) dot, not a chunk's (1, nodes) product"),
    ("src/fcsim/readout.py",
     "np.array(delays, object, ndmin=1).tolist()",
     "np.array(delays, object, ndmin=1).ravel().tolist()",
     "a nested list of delays passes the delay check"),
    ("src/fcsim/multiplex.py",
     "return (self.bins - 1) * self.bin_spacing_cycles + self.switch_latency_cycles",
     "return (self.bins - 1) * self.bin_spacing_cycles + 1",
     "a plan's longest delay ignores the switch latency"),
    ("src/fcsim/trialsim.py",
     "p_monitor + p_readout * det.splitter_ratio",
     "p_monitor + p_readout * (1.0 - det.splitter_ratio)",
     "signal photons reach R1 with chance 1 - f, not f"),
    ("src/fcsim/fockstats.py",
     "controls = dark_powers * np.exp(-noise)",
     "controls = np.exp(-noise)",
     "a controls-only table drops the dark counts"),
    ("src/fcsim/patterns.py",
     "num, den = RATIOS[name]",
     "den, num = RATIOS[name]",
     "ratio reads a correlation upside down"),
    ("src/fcsim/readout.py",
     "math.sqrt(energy_p_nj) * math.sqrt(energy_q_nj)",
     "math.sqrt(energy_p_nj * energy_q_nj)",
     "the conversion scale takes the root of the energy product, which can underflow"),
    ("src/fcsim/readout.py",
     'number("readout delay", x)',
     "float(x)",
     "readout_curve reads a string or a bool delay as a number"),
    ("src/fcsim/readout.py",
     'if not (isinstance(delays, np.ndarray) and delays.dtype.kind in "iuf"):',
     "if True:",
     "readout_curve checks a numpy array element by element"),
    ("src/fcsim/config.py",
     "if name in changes[section]}",
     "if name in ()}",
     "replace_fields checks none of the fields it sets"),
    ("src/fcsim/trialsim.py",
     "        if manifest.n_records > manifest.n_triggers:",
     "        if False:",
     "a manifest may count more records than triggers"),
    ("src/fcsim/config.py",
     "and lo <= value <= hi):",
     "and lo <= value):",
     "the integer rule drops its upper bound"),
    ("src/fcsim/fockstats.py",
     "math.expm1((math.log1p(-dark) - math.log1p(-p)) / k)",
     "math.expm1(-math.log1p(-p) / k)",
     "herald efficiency inverted without the dark counts"),
    ("src/fcsim/readout.py",
     "rise = math.pi / 2.0 / (",
     "rise = math.pi / (",
     "conversion bracketed up to an angle of pi, past the rising branch"),
    ("src/fcsim/readout.py",
     "np.sin(2.0 * coeff * scale * window)",
     "np.sin(coeff * scale * window)",
     "conversion slope at half the angle: the maximum lands past the peak"),
    ("src/fcsim/readout.py",
     "lo, hi = min(1e-4, rise / 2.0), rise",
     "lo, hi = 1e-4, rise",
     "conversion bracket starts at 1e-4 even where the rising branch ends below it"),
    ("src/fcsim/readout.py",
     "xtol=1e-10 * min(1.0, rise))",
     "xtol=1e-10)",
     "conversion solve ends at an absolute tolerance: large energies solve roughly"),
    ("src/fcsim/fockstats.py",
     'found.get("evaluations", 0)',
     'found.get("evaluations", 1)',
     "a closed-form calibration solve counts a model evaluation"),
    ("src/fcsim/cli.py",
     'integer("readout delay", args.readout_delay, 1)',
     'integer("readout delay", args.readout_delay, 0)',
     "a field sweep reads out at delay 0"),
    ("src/fcsim/cli.py",
     "readout_curve=readout.readout_curve(cfg, delays)[2]",
     "readout_curve=readout.readout_curve(cfg, delays)[1]",
     "multiplex plans with the conversion efficiency, not the retrieval"),
    ("src/fcsim/patterns.py",
     "/ (d + (d <= 0)), d > 0",
     "/ (d + (d <= 0)), d >= 0",
     "a ratio with a zero denominator counts as defined"),
    ("src/fcsim/fockstats.py",
     "ts[defined.argmin()]",
     "ts[defined.argmax()]",
     "the g2 curve names the first delay where it is defined, not undefined"),
    ("src/fcsim/fockstats.py",
     "    if not defined:\n        raise DivisionByZeroRate(f\"calibration target",
     "    if False:\n        raise DivisionByZeroRate(f\"calibration target",
     "the calibration solves on an undefined ratio's numerator"),
    ("src/fcsim/cli.py",
     "allow_nan=False",
     "allow_nan=True",
     "the CLI prints Infinity and NaN, which strict JSON rejects"),
    ("src/fcsim/config.py",
     "if not rel <= ENERGY_REL_TOL:  # NaN too",
     "if rel > ENERGY_REL_TOL:  # NaN too",
     "a NaN pair-generation error passes the energy check"),
    ("src/fcsim/config.py",
     "if not 0.0 < inv < math.inf:",
     "if not 0.0 < inv:",
     "an infinite output wavenumber divides by zero in the energy check"),
    ("src/fcsim/readout.py",
     "panels = 2.0 * half_ps * gap * PANEL_MARGIN / sigma0_ps",
     "panels = math.ceil(2.0 * half_ps * gap * PANEL_MARGIN / sigma0_ps)",
     "the panel count is rounded up before its check: an infinite one is an OverflowError"),
    ("src/fcsim/readout.py",
     "if scale * float(window.max()) == 0.0:",
     "if scale == 0.0:",
     "a walk-off window 0 on every node divides by zero in the conversion solve"),
]


def run_tier1(root: Path) -> str | None:
    """None if tier-1 passes in root, else the first failing test (or pytest's last line)."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--deselect", KNOWN_FAILURE, "--deselect", TABLE_CHECK],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    lines = proc.stdout.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else (lines[-1] if lines else proc.stderr.strip()[-200:])


def main(argv: list[str]) -> int:
    rows = [int(a) for a in argv] or list(range(1, len(MUTANTS) + 1))
    with tempfile.TemporaryDirectory(prefix="fcsim-mutants-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests", "bench"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        first = run_tier1(copy)
        if first is not None:
            print(f"tier-1 fails without a mutant ({first}); nothing to compare")
            return 2
        killed = 0
        for row in rows:
            path, old, new, breaks = MUTANTS[row - 1]
            original = (ROOT / path).read_text(encoding="utf-8")
            if original.count(old) != 1:
                print(f"{row:2d}  stale     {path}: the old text is not there exactly once")
                continue
            (copy / path).write_text(original.replace(old, new), encoding="utf-8")
            try:
                first = run_tier1(copy)
            finally:
                (copy / path).write_text(original, encoding="utf-8")
            killed += first is not None
            verdict = f"killed    by {first}" if first else "SURVIVED"
            print(f"{row:2d}  {breaks}\n    {path}: {verdict}", flush=True)
    print(f"{killed} of {len(rows)} mutants killed")
    return 0 if killed == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
