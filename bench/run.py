"""fcsim benchmark: one workload and one seed per run.

Run from the repository root:

    python3 bench/run.py --workload mc_sparse --seed 1 --seconds 22 --trace 0

Workloads: mc_sparse, mc_dense, calibrate, delay_scan (see workloads.py).
A run

1. writes the workload's seeded inputs under .bench_work/;
2. runs one untimed warm-up pass in this process;
3. for --seconds, repeats a cycle of: one round of the workload's CLI
   commands in fresh subprocesses (cli_s); one or more in-process passes
   (run_s), until they have taken half as long as the CLI round.
   Every second cycle starts with, and the window ends with, one fresh
   interpreter that imports fcsim.cli and loads the workload's configs
   (setup_s). Each sample is scaled to a fixed machine speed (see
   `SpeedMonitor`), and each metric is the median of its scaled samples;
4. with --trace 1, also runs `python -X importtime`, one traced pass and
   one traced in-process round of the CLI commands, and reports per-layer
   metrics. Spans and a self-time table go to .bench_work/trace/.

Every pass checks the program's outputs; a raised error, a non-zero CLI
exit or a failed check counts as a failed operation. Metric names and units
come from BENCHMARK.json. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the full result, with the
machine record and quartiles, goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from tracing import LAYERS, SpanQuery, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SUBPROCESS_TIMEOUT_S = 60
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

# The speed of a shared machine drifts by up to 2x, in phases from about a
# second to minutes, and the program's steps slow down with it. A monitor
# thread, on the CPU the samples run on, times a fixed tick of numpy work
# every MONITOR_PERIOD_S in thread CPU time: calls on a small array, whose
# cost is interpreter and call overhead, then arithmetic on a 128 KiB
# array. fcsim's passes and imports are made of these two kinds of work,
# and their times track the tick more closely than a pure-Python loop
# (bench/README.md gives the figures). Each sample is reported as
# wall * REF_NOMINAL_S / (mean tick time within the sample): seconds on a
# machine where the tick takes REF_NOMINAL_S.
TICK_SMALL_CALLS = 150
TICK_ARRAY_ROUNDS = 2
REF_NOMINAL_S = 0.0006
MONITOR_PERIOD_S = 0.04

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import fcsim.cli
t1 = time.perf_counter()
from fcsim.config import load_config
for path in sys.argv[1:]:
    load_config(path)
print(t1 - t0, time.perf_counter() - t1)
"""


def subprocess_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class SpeedMonitor:
    """Times a fixed tick of work every MONITOR_PERIOD_S.

    The tick is timed in thread CPU time, so time the thread waits for the
    GIL or for the CPU does not count; what counts is how fast the CPU runs.
    The thread holds no lock that the pool workers of a jobs-2 simulation,
    forked while it runs, would need.
    """

    def __init__(self):
        self.at, self.tick_s = [], []
        self._stop, self._ticked = threading.Event(), threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        small, grid = np.zeros(100), np.linspace(0.0, 1.0, 16384)
        while not self._stop.wait(MONITOR_PERIOD_S):
            t0 = time.thread_time()
            x = small
            for _ in range(TICK_SMALL_CALLS):
                x = np.add(x, 1.0)
            for _ in range(TICK_ARRAY_ROUNDS):
                (np.exp(-grid * grid) * np.cos(grid)).sum()
            self.tick_s.append(time.thread_time() - t0)
            self.at.append(time.perf_counter())
            self._ticked.set()

    def __enter__(self):
        self._thread.start()
        self._ticked.wait()  # every sample then has a tick to be scaled by
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def mean_tick_s(self, t0, t1) -> float:
        """Mean time of the ticks in [t0, t1], else of the two around it."""
        at = list(self.at)  # the thread appends tick_s first, then at
        lo, hi = bisect.bisect_left(at, t0), bisect.bisect_right(at, t1)
        if lo == hi:  # no tick within a short sample: the ticks on either side
            lo, hi = max(0, lo - 1), min(len(at), hi + 1)
        return statistics.fmean(self.tick_s[lo:hi])


def timed_run(cmd, env):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def probe_setup(configs, env):
    """(wall s, import s, config load s) of one fresh interpreter."""
    wall, proc = timed_run([sys.executable, "-c", SETUP_PROBE, *configs], env)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    import_s, load_s = map(float, proc.stdout.split())
    return wall, import_s, load_s


def scipy_import_s(log: str) -> float:
    """Seconds spent importing scipy and what it imports, from -X importtime."""
    rows = []
    for line in log.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2]
        rows.append((len(name) - len(name.lstrip()), int(parts[0]), name.strip()))
    total_us, stack = 0, []
    for depth, self_us, name in reversed(rows):  # parents now come before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        in_scipy = name.split(".")[0] == "scipy" or bool(stack and stack[-1][1])
        total_us += self_us if in_scipy else 0
        stack.append((depth, in_scipy))
    return total_us / 1e6


def cli_round(ops, commands, env):
    """Run the workload's CLI commands in fresh subprocesses."""
    for argv in commands:
        try:
            _, proc = timed_run([sys.executable, "-m", "fcsim.cli", *argv], env)
        except subprocess.TimeoutExpired:
            ops.check(f"cli_{argv[0]}", False, "timed out")
            continue
        ops.check(f"cli_{argv[0]}", proc.returncode == 0,
                  f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")


def cli_in_process(ops, commands) -> float:
    """Run the same commands through fcsim.cli.main in this process."""
    import fcsim.cli

    t0 = time.perf_counter()
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = fcsim.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        ops.check(f"cli_in_process_{argv[0]}", code == 0,
                  f"exit {code}: {err.getvalue().strip()[-300:]}")
    return time.perf_counter() - t0


def summary(values) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def per(a, b, scale=1.0) -> float:
    return a * scale / b if b else 0.0


def code_lines() -> dict:
    out = {"src.lines": 0}
    for path in SRC.rglob("*.py"):
        n = len(path.read_text(encoding="utf-8").splitlines())
        out["src.lines"] += n
        if path.parent == SRC / "fcsim":
            out[("init" if path.stem == "__init__" else path.stem) + ".lines"] = n
    return out


def layer_metrics(tracer, ops, facts, stats, traced_s, inproc_cli_s, scipy_s, n_cli):
    """Per-layer metrics from the traced pass, the CLI round and the probes.

    Each CLI command pays one set-up, so cli.overhead_s subtracts n_cli of them.
    """
    q = SpanQuery(tracer.spans, "pass")
    m = {}
    # cli self time comes from the in-process CLI round, the rest from the pass
    layer_self = dict(q.layer_self(), cli=SpanQuery(tracer.spans, "cli").layer_self().get("cli"))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self.get(layer) or (0, 0.0))[1]
    setup = stats["wall_setup_s"]["median"]
    m["cli.import_s"] = statistics.median(stats["import_s"])
    m["cli.import_scipy_s"] = scipy_s
    m["cli.overhead_s"] = stats["wall_cli_s"]["median"] - n_cli * setup - inproc_cli_s
    m["config.load_s"] = statistics.median(stats["load_s"])
    m["config.replace_fields_calls"] = q.count("config.ValidatedConfig.replace_fields")

    calls = q.count("readout.readout_probability")
    m["readout.readout_probability_calls"] = calls
    m["readout.readout_probability_s"] = q.total("readout.readout_probability")
    m["readout.us_per_delay"] = per(m["readout.readout_probability_s"], calls, 1e6)
    m["readout.solve_nonlinear_coeff_s"] = q.total("readout.solve_nonlinear_coeff")
    m["readout.one_over_e_delay_s"] = q.total("readout.one_over_e_delay")

    m["fockstats.click_model_calls"] = q.count("fockstats.click_model")
    m["fockstats.click_model_s"] = q.total("fockstats.click_model")
    m["fockstats.calibrate_s"] = q.total("fockstats.calibrate")
    first = q.first("fockstats.calibrate")
    m["fockstats.click_model_calls_per_calibration"] = (
        0 if first is None else q.count("fockstats.click_model", under=first))

    triggers, records = facts.get("triggers", 0), facts.get("records", 0)
    step = q.first("bench.simulate")
    m["trialsim.simulate_s"] = (0.0 if step is None
                                else q.total("trialsim.simulate_run", under=step))
    m["trialsim.ns_per_trigger"] = per(m["trialsim.simulate_s"], triggers, 1e9)
    m["trialsim.click_fraction"] = per(records, triggers)
    j1, j2 = ops.times.get("simulate"), ops.times.get("simulate_j2")
    m["trialsim.simulate_j2_s"] = statistics.median(j2) if j2 else 0.0
    m["trialsim.j2_speedup"] = per(statistics.median(j1), m["trialsim.simulate_j2_s"]) if j2 else 0.0
    write, read = q.total("trialsim.write_records"), q.total("trialsim.read_records")
    fmt = facts.get("format")
    for kind in ("bin", "csv"):
        m[f"trialsim.write_{kind}_s"] = write if fmt == kind else 0.0
        m[f"trialsim.read_{kind}_s"] = read if fmt == kind else 0.0
    m["trialsim.ns_per_record_write"] = per(write, records, 1e9)
    m["trialsim.ns_per_record_read"] = per(read, records, 1e9)
    m["trialsim.bytes_per_record"] = per(facts.get("bytes", 0), records)

    m["estimators.g2_s"] = q.total("estimators.estimate_g2")
    m["estimators.ns_per_record"] = per(q.total("bench.estimate"), records, 1e9)
    m["estimators.fit_memory_s"] = q.total("estimators.fit_memory_model")
    fit = q.first("estimators.fit_memory_model")
    m["estimators.fit_memory_readout_calls"] = (
        0 if fit is None else q.count("readout.readout_probability", under=fit))

    m["multiplex.readout_curve_s"] = q.total("multiplex.readout_curve")
    m["multiplex.optimal_K_s"] = q.total("multiplex.optimal_K")
    m["trace.overhead_s"] = traced_s - stats["wall_run_s"]["median"]
    return m


def self_time_table(tracer, traced_s, overhead_s) -> str:
    lines = []
    for pass_id in ("pass", "cli"):
        q = SpanQuery(tracer.spans, pass_id)
        elapsed = q.elapsed()
        lines.append(f"pass {pass_id}: {elapsed:.4f} s in top-level spans")
        lines.append(f"  {'layer':<12}{'spans':>8}{'self_s':>12}{'share':>9}")
        for layer, (n, s) in sorted(q.layer_self().items(), key=lambda kv: -kv[1][1]):
            lines.append(f"  {layer:<12}{n:>8}{s:>12.4f}{per(s, elapsed):>9.1%}")
    lines.append(f"traced pass {traced_s:.4f} s; tracing overhead {overhead_s:+.4f} s")
    return "\n".join(lines) + "\n"


def timed_window(wl, inp, ops, env, seconds, monitor):
    """Samples of setup_s, cli_s and run_s, wall and scaled, for `seconds`.

    One cycle is a CLI round and then passes, until the passes have taken
    half as long as the CLI round, so that a workload whose pass is short
    (delay_scan) gets as many run_s samples as its median needs. A set-up
    probe opens every second cycle and closes the window: set-up is the
    cheapest sample and has no spread bound, so the window's time goes to
    cli_s and run_s. A cycle starts only if at least half of it should fall
    within the window.
    """
    wall = {"setup_s": [], "cli_s": [], "run_s": []}
    scaled = {key: [] for key in wall}
    probes, facts = [], {}

    def sample(key, t0):
        t1 = time.perf_counter()
        wall[key].append(t1 - t0)
        scaled[key].append((t1 - t0) * REF_NOMINAL_S / monitor.mean_tick_s(t0, t1))

    def setup_probe():
        t0 = time.perf_counter()
        probes.append(probe_setup(inp["configs"], env))
        sample("setup_s", t0)

    start, cycle_s, cycles = time.perf_counter(), 0.0, 0
    while not cycles or time.perf_counter() - start + cycle_s / 2 <= seconds:
        cycle_start = time.perf_counter()
        if cycles % 2 == 0:
            setup_probe()
        t0 = time.perf_counter()
        cli_round(ops, inp["cli"], env)
        sample("cli_s", t0)
        passes_start = time.perf_counter()
        while time.perf_counter() - passes_start < wall["cli_s"][-1] / 2:
            t0 = time.perf_counter()
            facts = ops.run_pass(wl.run_pass, inp)
            sample("run_s", t0)
        cycle_s = time.perf_counter() - cycle_start
        cycles += 1
    setup_probe()
    return wall, scaled, probes, facts


def measure(name, seed, seconds, trace, smoke, ref, workdir):
    from workloads import ALLOWED_CPUS, WORKLOADS, Ops

    wl = WORKLOADS[name]
    inp = wl.inputs(workdir, seed, smoke, ref)
    env = subprocess_env()
    # The CPUs of a shared host drift in speed each on its own, so the
    # samples, their subprocesses and the speed monitor (a thread inherits
    # the mask of the thread that starts it) all run on one CPU; only the
    # jobs-2 simulation of mc_sparse widens to every allowed CPU.
    os.sched_setaffinity(0, {min(ALLOWED_CPUS)})
    ops = Ops()
    with SpeedMonitor() as monitor:
        ops.run_pass(wl.run_pass, inp)  # warm-up: lazy imports, pyc cache
        ops.times.clear()
        wall, scaled, probes, facts = timed_window(wl, inp, ops, env, seconds, monitor)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wl.check_cli(ops, inp)

        stats = {key: summary(values) for key, values in scaled.items()}
        stats.update({"wall_" + key: summary(values) for key, values in wall.items()})
        stats.update(monitor_tick_s=summary(monitor.tick_s), import_s=[p[1] for p in probes],
                     load_s=[p[2] for p in probes])
        metrics = {key: stats[key]["median"] for key in scaled}
        metrics["peak_rss_mb"] = peak_rss_mb
        table = None
        if trace:  # the monitor keeps running, as it did for the untraced passes
            table = traced_run(name, seed, wl, inp, ops, env, stats, metrics)
    metrics["fail_frac"] = per(ops.failed, ops.attempted)
    metrics.update(code_lines())
    return ops, stats, metrics, table, facts


def traced_run(name, seed, wl, inp, ops, env, stats, metrics) -> str:
    """One traced pass and in-process CLI round; adds the per-layer metrics."""
    _, proc = timed_run([sys.executable, "-X", "importtime", "-c", "import fcsim.cli"], env)
    scipy_s = scipy_import_s(proc.stderr)
    tracer = Tracer()
    tracer.install()
    ops.tracer = tracer
    try:
        tracer.pass_id = "pass"
        t0 = time.perf_counter()
        traced_facts = ops.run_pass(wl.run_pass, inp)
        traced_s = time.perf_counter() - t0
        tracer.pass_id = "cli"
        inproc_cli_s = cli_in_process(ops, inp["cli"])
    finally:
        ops.tracer = None
        tracer.uninstall()
    metrics.update(layer_metrics(tracer, ops, traced_facts, stats, traced_s,
                                 inproc_cli_s, scipy_s, len(inp["cli"])))
    table = self_time_table(tracer, traced_s, metrics["trace.overhead_s"])
    (WORK / "trace").mkdir(parents=True, exist_ok=True)
    stem = WORK / "trace" / f"{name}-seed{seed}"
    tracer.write(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".selftime.txt").write_text(table, encoding="utf-8")
    return table


def machine() -> dict:
    import scipy
    from workloads import ALLOWED_CPUS

    return {"nproc": len(ALLOWED_CPUS), "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc_sparse", "mc_dense", "calibrate", "delay_scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the self-check")
    parser.add_argument("--ref", action="append", default=[], metavar="KEY=VALUE",
                        help="override a reference value of the output checks")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "fcsim" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no fcsim sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    from workloads import REFERENCE

    ref = dict(REFERENCE)
    for item in args.ref:
        key, _, value = item.partition("=")
        if key not in ref:
            parser.error(f"unknown reference {key!r}")
        ref[key] = float(value)
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workdir = WORK / f"run-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops, stats, metrics, table, facts = measure(
            args.workload, args.seed, args.seconds, args.trace, args.smoke, ref, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = machine()
    print(f"fcsim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in record.items()))
    for key in ("setup_s", "run_s", "cli_s"):
        s, w = stats[key], stats["wall_" + key]
        print(f"  {key:<12}{s['median']:>12.4f} s   median of {s['n']}, "
              f"q1 {s['q1']:.4f}, q3 {s['q3']:.4f}; wall median {w['median']:.4f} s")
    r = stats["monitor_tick_s"]
    print(f"  {'monitor':<12}{r['median'] * 1e3:>12.4f} ms  median of {r['n']} ticks, "
          f"q1 {r['q1'] * 1e3:.4f}, q3 {r['q3'] * 1e3:.4f}; nominal {REF_NOMINAL_S * 1e3:g} ms")
    print(f"  {'peak_rss_mb':<12}{metrics['peak_rss_mb']:>12.1f} MB")
    print(f"  {'fail_frac':<12}{metrics['fail_frac']:>12.4g} ratio "
          f"{ops.failed} of {ops.attempted} operations failed")
    for failure in ops.failures[:20]:
        print(f"  FAILED {failure}")
    for d in declared:  # a module that no longer exists has no lines
        if d["name"].endswith(".lines"):
            metrics.setdefault(d["name"], 0)
    if table:
        print(table, end="")
        for d in declared:
            print(f"  {d['name']:<46}{metrics[d['name']]:>16.6g} {d['unit']}")
    out = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
           "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                       for d in declared}}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "machine": record, "stats": stats,
                    "step_median_s": {k: statistics.median(v) for k, v in ops.times.items()},
                    "metrics": metrics, "facts": facts, "failures": ops.failures,
                    **{k: out[k] for k in ("correct", "attempted", "failed")}},
                   indent=2, default=str) + "\n", encoding="utf-8")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
