"""Self-check of the benchmark, at smoke size.

    python3 bench/selfcheck.py

For every workload it runs `bench/run.py --smoke` with `--trace 0` and
`--trace 1`, and asserts that the last line of stdout is the result object
with every metric BENCHMARK.json declares, each with its unit, and that no
operation failed. It then reruns each workload with one deliberately wrong
reference value and asserts that fail_frac turns positive. Takes about two
minutes on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc_sparse", "mc_dense", "calibrate", "delay_scan")
# One wrong reference value per workload; each must make a check fail.
WRONG_REFERENCE = {
    "mc_sparse": "rate_sigmas=0",
    "mc_dense": "rate_sigmas=0",
    "calibrate": "herald_cps=480",
    "delay_scan": "lifetime=150",
}
SUMMARY_NAMES = ("setup_s", "run_s", "cli_s", "peak_rss_mb", "fail_frac")


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            declared = {d["name"]: d["unit"] for d in spec[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == declared, (workload, trace, set(printed) ^ set(declared))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, name, m)
            assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"], (
                workload, trace, [line for line in lines if "FAILED" in line])
            for name in SUMMARY_NAMES:
                assert any(line.split()[:1] == [name] for line in lines), (workload, name)
        lines, result = run(workload, 1, "--ref", WRONG_REFERENCE[workload])
        fail_frac = result["metrics"]["fail_frac"]["value"]
        assert fail_frac > 0 and result["failed"] > 0 and not result["correct"], (
            workload, WRONG_REFERENCE[workload], result["failed"])
        print(f"ok {workload}: metrics and units as declared; "
              f"{WRONG_REFERENCE[workload]} gives fail_frac {fail_frac:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
