"""Command-line interface.

Subcommands: validate, simulate, stats, sweep, fit, multiplex. All outputs
are written atomically (temp file + rename); every simulation writes a
JSON manifest recording the config hash, seed and generator. Exit codes:
0 success, 2 invalid configuration, 3 runtime failure; failures print a
machine-readable JSON body on stderr. Each command imports the modules it
runs and no others, so `validate` starts without numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import numbers
import sys
import time

from . import __version__, atomic
from .config import ValidatedConfig, config_hash, integer, load_config, number, save_config
from .errors import ConfigError, EmptyInput, FcsimError, NonPhysicalParameter

EXIT_CONFIG_INVALID = 2
EXIT_RUNTIME_FAILURE = 3


def _fmt(x) -> str:
    """CSV float format: 17 significant digits, '.' decimal separator."""
    if isinstance(x, numbers.Integral):  # numpy integers too
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic.write_text(path, "\n".join(lines) + "\n")


def _emit(doc: dict, out_path=None) -> None:
    """Write doc, stamped with the package version, as strict JSON to out_path or stdout."""
    text = json.dumps({**doc, "version": __version__}, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    if out_path:
        atomic.write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _number_item(flag: str, item: str):
    """(key, value) of a KEY=NUMBER argument; ConfigError if it is not one."""
    key, _, value = item.partition("=")
    try:
        return key, float(value)
    except ValueError:
        raise ConfigError(f"{flag} expects KEY=NUMBER, got {item!r}") from None


def _load(args) -> ValidatedConfig:
    cfg = load_config(args.config)
    for item in args.set or []:
        key, value = _number_item("--set", item)
        cfg = cfg.replace_fields(**{key: value})
    return cfg


def _resolve_seed(args) -> int:
    import secrets

    return args.seed if args.seed is not None else secrets.randbits(63)


def _cmd_validate(args) -> int:
    cfg = _load(args)
    _emit({
        "valid": True,
        "config_hash": config_hash(cfg),
        "derived": {f.name: getattr(cfg, f.name)
                    for f in dataclasses.fields(cfg) if not f.init},
    }, args.out)
    return 0


def _cmd_simulate(args) -> int:
    from . import estimators, trialsim

    cfg = _load(args)
    seed = _resolve_seed(args)
    sampler = {}
    start = time.perf_counter()
    records = trialsim.simulate_run(cfg, seed, args.triggers, args.readout_delay,
                                    controls_only=args.controls_only, stage_seconds=sampler)
    simulated = time.perf_counter()
    trialsim.write_records(records, args.out)
    written = time.perf_counter()
    rates = estimators.estimate_rates(records)
    estimated = time.perf_counter()
    _emit({
        "out": str(args.out),
        "seed": seed,
        "n_triggers": args.triggers,
        "records": int(records.trigger.size),
        "rates_cps": {k: v.value for k, v in rates.items()},
        "config_hash": config_hash(cfg),
        "generator": records.manifest.generator,
        "timings": {
            "simulate_s": simulated - start,
            "write_s": written - simulated,
            "estimate_s": estimated - written,
            "triggers_per_s": args.triggers / max(simulated - start, 1e-9),
            "sampler": sampler,
        },
    })
    return 0


def _cmd_stats(args) -> int:
    from . import fockstats

    cfg = _load(args)
    residuals = {}
    start = time.perf_counter()
    diagnostics = {}
    if args.calibrate:
        targets = dict(_number_item("--calibrate", item) for item in args.calibrate)
        cfg, residuals = fockstats.calibrate(cfg, targets, diagnostics)
    calibrated = time.perf_counter()
    report = fockstats.model_report(cfg, args.readout_delay)
    report["timings"] = {"calibrate_s": calibrated - start,
                         "report_s": time.perf_counter() - calibrated}
    report["residuals"] = residuals
    if args.calibrate:
        report["calibration"] = diagnostics
    report["config_hash"] = config_hash(cfg)
    if args.out_config:
        save_config(cfg, args.out_config)
        report["calibrated_config"] = str(args.out_config)
    _emit(report, args.out)
    return 0


def _cmd_sweep(args) -> int:
    import numpy as np

    from . import readout

    cfg = _load(args)
    # a delay grid stays where every float is an exact integer, so it casts exactly
    span = 2.0**53 if args.param == "readout_delay" else float("inf")
    number("--from", args.start, (-span, False, span))
    number("--to", args.stop, (-span, False, span))
    start = time.perf_counter()
    values = np.linspace(args.start, args.stop, max(args.steps, 0))
    if args.param == "readout_delay":
        values = np.sort(np.rint(values).astype(int))
        values = values[(values >= 1) & (np.diff(values, prepend=0) != 0)]  # each delay once
        rows = list(zip(values, *readout.readout_curve(cfg, values),
                        np.full(values.size, cfg.noise_mean_per_trigger())))
    else:
        integer("readout delay", args.readout_delay, 1)
        rows = []
        for v in values:
            c = cfg.replace_fields(**{args.param: float(v)})
            curve = readout.readout_curve(c, [args.readout_delay])
            rows.append((float(v), *(a[0] for a in curve), c.noise_mean_per_trigger()))
    if not rows:
        raise NonPhysicalParameter(
            f"sweep of {args.param} has no points: --steps must be >= 1, and a "
            "readout_delay sweep needs an integer >= 1 between --from and --to")
    sweep_s = time.perf_counter() - start
    _write_csv(args.out, ("T_or_Ep", "survival", "eta_conv", "total", "noise_mean"),
               rows)
    _emit({"out": str(args.out), "points": len(rows), "timings": {"sweep_s": sweep_s},
           "config_hash": config_hash(cfg)})
    return 0


def _read_series(path) -> np.ndarray:
    """Decay series rows (T, value[, stderr]); a sweep CSV gives (T_or_Ep, total).
    '#' starts a comment, and empty lines are skipped; the first line left is
    a header unless every field of it is a number. NonPhysicalParameter names
    the first line with a field that is not a number, or with more or fewer
    fields than the first row; EmptyInput if no row is left."""
    import numpy as np

    header, rows = [], []
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#")[0].rstrip("\n")
            if not text:
                continue
            fields = text.split(",")
            try:
                row = [float(field) for field in fields]
            except ValueError:
                if not rows and not header:
                    header = [name.strip() for name in fields]
                    continue
                raise NonPhysicalParameter(
                    f"{path}: line {lineno} holds a value that is not a number") from None
            if rows and len(row) != len(rows[0]):
                raise NonPhysicalParameter(f"{path}: line {lineno} has {len(row)} values, "
                                           f"the rows above it {len(rows[0])}")
            rows.append(row)
    if not rows:
        raise EmptyInput(f"{path}: no data rows under the header")
    data = np.array(rows)
    if "T_or_Ep" in header and "total" in header:
        data = data[:, [header.index("T_or_Ep"), header.index("total")]]
    return data


def _cmd_fit(args) -> int:
    from . import estimators

    data = _read_series(args.data)
    if args.kind == "memory":
        cfg = _load(args)
        free = [s.strip() for s in args.free.split(",") if s.strip()]
    start = time.perf_counter()
    if args.kind == "exponential":
        result = estimators.fit_exponential(data)
    else:
        result = estimators.fit_memory_model(data, free, cfg)
    fit_s = time.perf_counter() - start
    _emit({
        "kind": args.kind,
        "values": result.values,
        "errors": result.errors,
        "r_squared": result.r_squared,
        "residual_rms": result.residual_rms,
        "n_points": result.n_points,
        "evaluations": result.evaluations,
        "timings": {"fit_s": fit_s},
    }, args.out)
    return 0


def _cmd_multiplex(args) -> int:
    import numpy as np

    from . import multiplex, readout

    cfg = _load(args)
    if args.herald_prob is not None:
        p_herald = args.herald_prob
    else:
        from . import fockstats

        p_herald = fockstats.model_patterns(cfg)["h"]
    start = time.perf_counter()
    # the plan is validated before its curve is sized from it and before anything is written
    plan = multiplex.MultiplexPlan(bins=args.max_bins, bin_spacing_cycles=args.spacing,
                                   herald_prob=p_herald, readout_curve=None,
                                   switch_latency_cycles=args.latency)
    delays = np.arange(1, plan.max_delay_cycles + 1)
    plan = dataclasses.replace(plan, readout_curve=readout.readout_curve(cfg, delays)[2])
    p_out, enhancement = multiplex.output_curve(plan)
    best = 1 + int(p_out.argmax())  # the first maximum: ties go to fewer bins
    multiplex_s = time.perf_counter() - start
    _write_csv(args.out, ("K", "p_out", "enhancement"),
               zip(range(1, plan.bins + 1), p_out, enhancement))
    _emit({
        "out": str(args.out),
        "herald_prob": p_herald,
        "optimal_K": best,
        "p_out_at_optimal_K": float(p_out[best - 1]),
        "enhancement_at_max_K": float(enhancement[-1]),
        "timings": {"multiplex_s": multiplex_s},
        "note": ("projection for this source; published storage-loop benchmark "
                 f"for context: x{multiplex.REFERENCE_ENHANCEMENT}"
                 f"({multiplex.REFERENCE_ENHANCEMENT_ERR}) at "
                 f"K={multiplex.REFERENCE_K} in a free-space cavity"),
        "config_hash": config_hash(cfg),
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcsim",
        description="Fiber-cavity heralded photon source simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_out=False):
        p.add_argument("--config", required=True, help="config JSON path")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field (dotted key), repeatable")
        if needs_out:
            p.add_argument("--out", required=True, help="output file path")
        else:
            p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("validate", help="validate a config and print derived values")
    add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("simulate", help="generate a Monte Carlo click-record file")
    add_common(p, needs_out=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--triggers", type=int, required=True)
    p.add_argument("--readout-delay", type=int, default=1)
    p.add_argument("--controls-only", action="store_true")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect (one sparse sampler)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("stats", help="analytic model report (rates, correlations)")
    add_common(p)
    p.add_argument("--readout-delay", type=int, default=1)
    p.add_argument("--calibrate", action="append", metavar="TARGET=VALUE",
                   help="calibrate before reporting, repeatable")
    p.add_argument("--out-config", default=None,
                   help="write the config JSON here, with any --set applied and "
                        "calibrated if --calibrate is given")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("sweep", help="sweep a parameter, emit a CSV curve")
    add_common(p, needs_out=True)
    p.add_argument("--param", required=True,
                   help="dotted config key or 'readout_delay'")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--readout-delay", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect (one batched readout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fit", help="fit a decay series CSV (T,value[,stderr]) "
                                   "or the CSV of a readout_delay sweep")
    p.add_argument("--kind", choices=("exponential", "memory"), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="required for --kind memory")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--free", default="amplitude,lifetime",
                   help="comma list for the memory model")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("multiplex", help="multiplexing gain projection CSV")
    add_common(p, needs_out=True)
    p.add_argument("--max-bins", type=int, default=40)
    p.add_argument("--spacing", type=int, default=1)
    p.add_argument("--latency", type=int, default=1)
    p.add_argument("--herald-prob", type=float, default=None)
    p.set_defaults(func=_cmd_multiplex)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fit" and args.kind == "memory" and not args.config:
        parser.error("--config is required for --kind memory")
    try:
        return args.func(args)
    except (FcsimError, OSError, ValueError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr, indent=2)
        sys.stderr.write("\n")
        return EXIT_CONFIG_INVALID if isinstance(exc, ConfigError) else EXIT_RUNTIME_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
