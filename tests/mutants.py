"""Mutation check: does tier-1 notice a wrong line in src/?

    python3 tests/mutants.py            # every mutant, a few minutes
    python3 tests/mutants.py 3 10       # rows 3 and 10 only

Each row of MUTANTS replaces one piece of text in one source file. The
script copies src/, tests/, bench/ (which tier-1 reads) and pyproject.toml
to a temporary directory, checks that tier-1 passes there unmutated, then
applies each row in turn and runs tier-1 on the copy with the documented
criterion-5 failure deselected. A mutant is killed when a test fails; the first failing test
is printed. The repository itself is never edited.

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
    ("src/fcsim/estimators.py",
     '(("hs",), ("s",)), "klyshko"',
     '(("hs",), ("h",)), "klyshko"',
     "Klyshko efficiency over herald singles, not monitor singles"),
    ("src/fcsim/fockstats.py",
     "s ** (d - 1)",
     "s ** d",
     "monitor leak one cycle late (shared by engine, Monte Carlo and oracle)"),
    ("src/fcsim/trialsim.py",
     "(dark % count).astype(np.uint32)]) << 2",
     "(dark % count).astype(np.uint32)]).astype(np.uint16) << 2",
     "block merge keys as uint16: triggers wrap at 2^14"),
]


def run_tier1(root: Path) -> str | None:
    """None if tier-1 passes in root, else the first failing test (or pytest's last line)."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--deselect", KNOWN_FAILURE],
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
