import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fcsim
from fcsim import default_config_path, fockstats, load_config, multiplex, readout
from fcsim.cli import main
from fcsim.config import ValidatedConfig, dumps_config

CONFIG = str(default_config_path("primary_cavity"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env():
    """The environment for a fresh interpreter that imports this fcsim."""
    env = dict(os.environ)
    src = str(Path(fcsim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_validate_prints_derived(capsys):
    code, out, err = run_cli(capsys, "validate", "--config", CONFIG)
    assert code == 0
    doc = json.loads(out)
    derived = doc["derived"]
    assert derived["walkoff_ratio"] == pytest.approx(4.11, abs=0.05)
    assert derived["survival_per_cycle"] == pytest.approx(0.99103, abs=1e-5)
    assert derived["lambda_r_exact_nm"] == pytest.approx(999.2, abs=0.05)
    assert set(derived) == {f.name for f in dataclasses.fields(ValidatedConfig)
                            if not f.init}


def test_validate_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    text = default_config_path("primary_cavity").read_text()
    doc = json.loads(text)
    doc["scheme"]["lambda_h_nm"] = 700.0  # violates pair-generation relation
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", "--config", str(bad))
    assert code == 2
    body = json.loads(err)
    assert body["error"] == "EnergyConservationViolated"


def test_unknown_override_key_rejected(capsys):
    code, out, err = run_cli(capsys, "validate", "--config", CONFIG,
                             "--set", "cavity.bogus=1.0")
    assert code == 2
    assert json.loads(err)["error"] == "UnknownConfigKey"


@pytest.mark.parametrize("args", [
    ("validate", "--set", "source.mean_pairs_per_pulse=abc"),
    ("stats", "--calibrate", "herald_rate_cps=x"),
    ("stats", "--calibrate", "herald_rate_cps"),
], ids=["set_not_a_number", "calibrate_not_a_number", "calibrate_without_value"])
def test_malformed_number_argument_is_config_error(capsys, args):
    command, *rest = args
    code, out, err = run_cli(capsys, command, "--config", CONFIG, *rest)
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"


def test_non_finite_calibration_target_is_config_error(capsys):
    code, out, err = run_cli(capsys, "stats", "--config", CONFIG,
                             "--calibrate", "herald_rate_cps=nan")
    assert code == 2
    body = json.loads(err)
    assert body["error"] == "NonPhysicalParameter"
    assert "herald_rate_cps" in body["message"]
    assert out == ""


def test_unknown_calibration_target_is_runtime_failure(capsys):
    code, out, err = run_cli(capsys, "stats", "--config", CONFIG,
                             "--calibrate", "bogus=1")
    assert code == 3
    assert json.loads(err)["error"] == "Underdetermined"


def test_simulate_deterministic_files(tmp_path, capsys):
    digests = []
    for name in ("one.csv", "two.csv"):
        out_path = tmp_path / name
        code, out, err = run_cli(
            capsys, "simulate", "--config", CONFIG, "--seed", "1",
            "--triggers", "1000000", "--out", str(out_path), "--jobs", "1")
        assert code == 0
        digests.append(hashlib.sha256(out_path.read_bytes()).hexdigest())
        assert (tmp_path / (name.replace(".csv", "") + ".manifest.json")).exists()
    assert digests[0] == digests[1]


def test_simulate_random_seed_recorded(tmp_path, capsys):
    out_path = tmp_path / "r.csv"
    code, out, err = run_cli(capsys, "simulate", "--config", CONFIG,
                             "--triggers", "50000", "--out", str(out_path),
                             "--jobs", "1")
    assert code == 0
    seed = json.loads(out)["seed"]
    manifest = json.loads((tmp_path / "r.manifest.json").read_text())
    assert manifest["seed"] == seed
    assert manifest["generator"] == "numpy-pcg64-sparse3"


def test_simulate_reports_generator_and_timings(tmp_path, capsys):
    out_path = tmp_path / "t.bin"
    code, out, err = run_cli(capsys, "simulate", "--config", CONFIG, "--seed", "2",
                             "--triggers", "300000", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["generator"] == fcsim.trialsim.GENERATOR_NAME
    assert set(doc["timings"]) == {"simulate_s", "write_s", "estimate_s", "triggers_per_s",
                                   "sampler"}
    assert all(doc["timings"][step] >= 0 for step in ("simulate_s", "write_s", "estimate_s"))
    assert doc["timings"]["triggers_per_s"] > 0
    # the sampler's stages, summed over blocks, lie within the simulate step
    sampler = doc["timings"]["sampler"]
    assert set(sampler) == {"positions", "photon_numbers", "thinning", "merge"}
    assert all(seconds >= 0 for seconds in sampler.values())
    assert sum(sampler.values()) <= doc["timings"]["simulate_s"]
    manifest = json.loads((tmp_path / "t.manifest.json").read_text())
    assert "timings" not in manifest and "sampler" not in manifest


def test_simulate_does_not_mutate_config(tmp_path, capsys):
    before = default_config_path("primary_cavity").read_bytes()
    out_path = tmp_path / "x.csv"
    run_cli(capsys, "simulate", "--config", CONFIG, "--seed", "3",
            "--triggers", "10000", "--out", str(out_path), "--jobs", "1")
    assert default_config_path("primary_cavity").read_bytes() == before


def test_stats_report(capsys):
    code, out, err = run_cli(capsys, "stats", "--config", CONFIG)
    assert code == 0
    doc = json.loads(out)
    assert doc["rates"]["herald_cps"] == pytest.approx(474.0, abs=0.5)
    assert doc["correlations"]["g2_ac_heralded"] == pytest.approx(0.58, abs=0.05)
    p = fockstats.model_patterns(load_config(CONFIG))
    assert doc["correlations"]["klyshko_efficiency"] == p["hs"] / p["s"]


def test_stats_out_config_without_calibrate(tmp_path, capsys):
    """--out-config writes the config, with --set applied, also when nothing
    is calibrated."""
    out_config = tmp_path / "cal.json"
    code, out, err = run_cli(capsys, "stats", "--config", CONFIG, "--set",
                             "source.mean_pairs_per_pulse=0.02",
                             "--out-config", str(out_config))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["residuals"] == {}
    assert doc["calibrated_config"] == str(out_config)
    expected = load_config(CONFIG).replace_fields(**{"source.mean_pairs_per_pulse": 0.02})
    assert out_config.read_text() == dumps_config(expected)
    assert doc["config_hash"] == hashlib.sha256(out_config.read_bytes()).hexdigest()


def test_energy_sweep_shapes(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, err = run_cli(
        capsys, "sweep", "--config", CONFIG, "--param", "pulses.energy_p_nj",
        "--from", "0", "--to", "10", "--steps", "21", "--out", str(out_path),
        "--jobs", "1")
    assert code == 0
    rows = np.loadtxt(out_path, delimiter=",", skiprows=1)
    assert rows.shape == (21, 5)
    ep, eta, noise = rows[:, 0], rows[:, 2], rows[:, 4]
    assert eta[0] == 0.0 and noise[0] == 0.0
    # saturating conversion, strictly linear noise
    assert np.all(np.diff(eta) > -1e-12)
    slopes = np.diff(eta) / np.diff(ep)
    assert slopes[-1] < slopes[0]
    assert np.allclose(noise, noise[1] / ep[1] * ep, rtol=1e-12)


def test_delay_sweep(tmp_path, capsys):
    out_path = tmp_path / "delay.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--config", CONFIG, "--param", "readout_delay",
        "--from", "1", "--to", "101", "--steps", "21", "--out", str(out_path),
        "--jobs", "1")
    assert code == 0
    rows = np.loadtxt(out_path, delimiter=",", skiprows=1)
    totals = rows[:, 3]
    assert np.all(np.diff(totals) < 0)
    # --jobs is accepted but has no effect on the batched readout
    again = tmp_path / "delay_jobs.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--config", CONFIG, "--param", "readout_delay",
        "--from", "1", "--to", "101", "--steps", "21", "--out", str(again),
        "--jobs", "3")
    assert code == 0
    assert again.read_bytes() == out_path.read_bytes()


def test_fit_subcommand(tmp_path, capsys):
    t = np.arange(1, 200, 4, dtype=float)
    y = 2.0 * np.exp(-t / 111.0)
    data = tmp_path / "series.csv"
    data.write_text("T,value\n" + "\n".join(f"{a},{b}" for a, b in zip(t, y)))
    out_path = tmp_path / "fit.json"
    code, _, _ = run_cli(capsys, "fit", "--kind", "exponential",
                         "--data", str(data), "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["values"]["lifetime"] == pytest.approx(111.0, abs=1e-6)
    assert doc["r_squared"] == pytest.approx(1.0, abs=1e-9)


def test_fit_reads_sweep_output(tmp_path, capsys):
    sweep = tmp_path / "delay.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--config", CONFIG, "--param", "readout_delay",
        "--from", "1", "--to", "200", "--steps", "40", "--out", str(sweep),
        "--jobs", "1")
    assert code == 0
    code, out, err = run_cli(capsys, "fit", "--kind", "exponential",
                             "--data", str(sweep))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["n_points"] == 40
    assert 0.0 < doc["values"]["lifetime"] < 200.0


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("kind", ["exponential", "memory"])
def test_fit_on_non_finite_series_names_the_row(tmp_path, capsys, kind, value):
    t = np.arange(1, 146, 5, dtype=float)
    rows = [f"{a},{b}" for a, b in zip(t, 0.3 * np.exp(-t / 111.0))]
    rows[4] = f"21.0,{value}"
    data = tmp_path / "decay.csv"
    data.write_text("T,value\n" + "\n".join(rows) + "\n")
    extra = ["--config", CONFIG] if kind == "memory" else []
    code, out, err = run_cli(capsys, "fit", "--kind", kind, "--data", str(data), *extra)
    assert code == 2
    body = json.loads(err)
    assert body["error"] == "NonPhysicalParameter"
    assert "row 5" in body["message"]
    assert out == ""


@pytest.mark.parametrize("stderr", ["0", "-5"])
@pytest.mark.parametrize("kind", ["exponential", "memory"])
def test_fit_on_a_standard_error_that_is_not_positive_names_the_row(tmp_path, capsys, kind,
                                                                    stderr):
    """The row 10,900,0 is a typed error naming series row 2 (exit 2), not a
    failed linear solve with warnings on stderr."""
    t = np.arange(5, 305, 5)
    rows = [f"{a},{1000 * math.exp(-a / 111.0)!r},{20 * math.exp(-a / 111.0)!r}" for a in t]
    rows[1] = f"10,900,{stderr}"
    data = tmp_path / "decay.csv"
    data.write_text("T,value,stderr\n" + "\n".join(rows) + "\n")
    extra = ["--config", CONFIG] if kind == "memory" else []
    code, out, err = run_cli(capsys, "fit", "--kind", kind, "--data", str(data), *extra)
    assert code == 2
    assert json.loads(err) == {"error": "NonPhysicalParameter",
                               "message": "series row 2 has a standard error <= 0"}
    assert out == ""


@pytest.mark.parametrize("kind", ["exponential", "memory"])
def test_fit_on_a_subnormal_standard_error_names_the_row(tmp_path, capsys, kind):
    """The row 10,900,1e-320 has the weight 1/stderr = inf: a typed error
    naming series row 2 (exit 2), not numpy's LinAlgError (exit 3)."""
    t = np.arange(5, 305, 5)
    rows = [f"{a},{1000 * math.exp(-a / 111.0)!r},{20 * math.exp(-a / 111.0)!r}" for a in t]
    rows[1] = "10,900,1e-320"
    data = tmp_path / "decay.csv"
    data.write_text("T,value,stderr\n" + "\n".join(rows) + "\n")
    extra = ["--config", CONFIG] if kind == "memory" else []
    code, out, err = run_cli(capsys, "fit", "--kind", kind, "--data", str(data), *extra)
    assert code == 2
    body = json.loads(err)
    assert body["error"] == "NonPhysicalParameter"
    assert body["message"].startswith("series row 2 has a standard error 1e-320")
    assert out == ""


@pytest.mark.parametrize("row, message", [
    ("2,abc", "line 3 holds a value that is not a number"),
    ("2,0.25,0.01", "line 3 has 3 values, the rows above it 2"),
], ids=["not_a_number", "ragged_row"])
@pytest.mark.parametrize("kind", ["exponential", "memory"])
def test_fit_on_unreadable_series_names_the_line(tmp_path, capsys, kind, row, message):
    """A value that is not a number, or a row wider than the rows above it, is
    the typed error a non-finite value is (exit 2), naming the file's line."""
    data = tmp_path / "decay.csv"
    data.write_text(f"T,value\n1,0.5\n{row}\n3,0.125\n")
    extra = ["--config", CONFIG] if kind == "memory" else []
    code, out, err = run_cli(capsys, "fit", "--kind", kind, "--data", str(data), *extra)
    assert code == 2
    assert json.loads(err) == {"error": "NonPhysicalParameter",
                               "message": f"{data}: {message}"}
    assert out == ""


@pytest.mark.parametrize("kind", ["exponential", "memory"])
def test_fit_reads_line_one_as_data_unless_it_is_a_header(tmp_path, capsys, kind):
    """A series whose line 1 is all numbers has no header: its first row is
    data, so it fits exactly as the same rows under a header."""
    t = np.arange(1, 21, dtype=float)
    rows = "\n".join(f"{a},{b:.17g}" for a, b in zip(t, 0.3 * np.exp(-t / 67.0))) + "\n"
    extra = ["--config", CONFIG] if kind == "memory" else []
    docs = []
    for name, header in (("headed.csv", "T,value\n"), ("bare.csv", "")):
        data = tmp_path / name
        data.write_text(header + rows)
        code, out, err = run_cli(capsys, "fit", "--kind", kind, "--data", str(data), *extra)
        assert code == 0, err
        docs.append({k: v for k, v in json.loads(out).items() if k != "timings"})
    assert docs[0] == docs[1]
    assert docs[1]["n_points"] == 20


@pytest.mark.parametrize("kind", ["exponential", "memory"])
def test_fit_reads_the_header_below_leading_comments(tmp_path, capsys, kind):
    """The header is the first line that is neither a comment nor empty: a
    series under '# decay' fits exactly as the same rows without it, and a
    line below that header that is not a number is still named."""
    t = np.arange(1, 21, dtype=float)
    rows = "".join(f"{a},{b:.17g},0.01\n" for a, b in zip(t, 0.3 * np.exp(-t / 67.0)))
    extra = ["--config", CONFIG] if kind == "memory" else []
    docs = []
    for name, head in (("plain.csv", "T,value,stderr\n"),
                       ("commented.csv", "# decay\n\nT,value,stderr\n")):
        data = tmp_path / name
        data.write_text(head + rows)
        code, out, err = run_cli(capsys, "fit", "--kind", kind, "--data", str(data), *extra)
        assert code == 0, err
        docs.append({k: v for k, v in json.loads(out).items() if k != "timings"})
    assert docs[0] == docs[1]
    assert docs[1]["n_points"] == 20
    data = tmp_path / "bad.csv"
    data.write_text("# decay\nT,value,stderr\nT,value,stderr\n" + rows)
    code, out, err = run_cli(capsys, "fit", "--kind", kind, "--data", str(data), *extra)
    assert code == 2
    assert json.loads(err) == {"error": "NonPhysicalParameter",
                               "message": f"{data}: line 3 holds a value that is not a number"}
    assert out == ""


def test_fit_with_a_free_parameter_named_twice_is_config_error(tmp_path, capsys):
    code, _, _ = run_cli(capsys, *[a.format(tmp=tmp_path) for a in SWEEP_60])
    assert code == 0
    code, out, err = run_cli(capsys, "fit", "--kind", "memory", "--data",
                             str(tmp_path / "sweep.csv"), "--config", CONFIG,
                             "--free", "lifetime,lifetime,amplitude")
    assert code == 2
    body = json.loads(err)
    assert body["error"] == "NonPhysicalParameter" and "'lifetime'" in body["message"]
    assert out == ""


def test_fit_on_empty_series_is_empty_input(tmp_path):
    """A series with a header and no rows fails as EmptyInput naming the file,
    and nothing but the JSON body reaches stderr."""
    data = tmp_path / "empty.csv"
    data.write_text("T,value,stderr\n")
    out = subprocess.run([sys.executable, "-m", "fcsim.cli", "fit", "--kind", "exponential",
                          "--data", str(data)], capture_output=True, text=True,
                         env=subprocess_env(), timeout=120)
    assert out.returncode == 3
    body = json.loads(out.stderr)
    assert body["error"] == "EmptyInput"
    assert str(data) in body["message"]
    assert out.stdout == ""


@pytest.mark.parametrize("key", ["cavity.reflectivity_h", "cavity.reflectivity_s",
                                 "cavity.cycle_time_ns", "cavity.cavity_freq_mhz",
                                 "pulses.energy_pump_nj", "pulses.rep_rate_mhz"])
def test_removed_config_key_rejected(tmp_path, capsys, key):
    """The keys that configs once carried without the model reading them fail
    closed, in a file and through --set; the migration is to delete the key."""
    section, _, name = key.partition(".")
    doc = json.loads(default_config_path("primary_cavity").read_text())
    doc[section][name] = 1.0
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    for argv in (["--config", str(old)], ["--config", CONFIG, "--set", f"{key}=1.0"]):
        code, out, err = run_cli(capsys, "validate", *argv)
        assert code == 2
        body = json.loads(err)
        assert body["error"] == "UnknownConfigKey" and name in body["message"]


def test_missing_config_key_exit_code(tmp_path, capsys):
    doc = json.loads(default_config_path("primary_cavity").read_text())
    del doc["detectors"]["eta_s_path"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", "--config", str(bad))
    assert code == 2
    body = json.loads(err)
    assert body["error"] == "MissingConfigKey" and "eta_s_path" in body["message"]
    assert out == ""


@pytest.mark.parametrize("text", ["3", "null", "[]", '"x"'])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    """A config file holding a JSON value other than an object is a
    MissingConfigKey body on stderr with exit 2, not a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run_cli(capsys, "validate", "--config", str(bad))
    assert code == 2
    assert json.loads(err) == {"error": "MissingConfigKey",
                               "message": "the config must be an object"}
    assert out == ""


def test_stats_with_unreachable_eta_conversion_exits_3(capsys):
    code, out, err = run_cli(capsys, "stats", "--config", CONFIG,
                             "--calibrate", "eta_conversion=0.9999")
    assert code == 3
    assert json.loads(err) == {"error": "NoConvergence",
                               "message": "conversion saturates at 0.9878 < target 0.9999"}
    assert out == ""


@pytest.mark.parametrize("value", ["0", "1e-12", "-0.1"])
def test_stats_with_eta_conversion_below_its_range_exits_3(capsys, value):
    """A conversion target below what the smallest coefficient gives is
    NoConvergence naming the range the model reaches, not brentq's ValueError."""
    code, out, err = run_cli(capsys, "stats", "--config", CONFIG,
                             "--calibrate", f"eta_conversion={value}")
    assert code == 3
    assert json.loads(err) == {
        "error": "NoConvergence",
        "message": f"conversion target {float(value)} is unreachable: the conversion "
                   "reaches only 1.341e-09 to 0.9878"}
    assert out == ""


def test_config_with_fock_cutoff_rejected(tmp_path, capsys):
    doc = json.loads(default_config_path("primary_cavity").read_text())
    doc["fock_cutoff"] = 8
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "validate", "--config", str(old))
    assert code == 2
    assert json.loads(err)["error"] == "UnknownConfigKey"


ALTERNATE = str(default_config_path("alternate_cavity"))
PUBLISHED_CALIBRATION = [a for k, v in (("g2_xc_hs", "26.0"), ("herald_rate_cps", "474.0"),
                                        ("g2_noise", "1.09"), ("eta_conversion", "0.80"),
                                        ("heralded_prob", "0.096"))
                         for a in ("--calibrate", f"{k}={v}")]
SWEEP_60 = ["sweep", "--config", CONFIG, "--param", "readout_delay", "--from", "1",
            "--to", "60", "--steps", "60", "--out", "{tmp}/sweep.csv"]


# modules that no command may load, and per command those it runs nothing of
NEVER_LOADED = ("numpy.ma", "numpy.polynomial")
UNUSED_BY = {"validate": ("numpy",),
             "simulate": ("fcsim.multiplex", "fcsim.solvers", "fcsim.fockstats"),
             "sweep": ("fcsim.estimators", "fcsim.fockstats", "fcsim.trialsim",
                       "fcsim.multiplex", "fcsim.solvers"),
             "stats": ("fcsim.estimators", "fcsim.trialsim", "fcsim.multiplex"),
             "fit": ("fcsim.trialsim", "fcsim.multiplex", "hashlib", "fcsim.fockstats"),
             "fit --kind exponential": ("fcsim.readout",),
             "multiplex": ("fcsim.estimators", "fcsim.trialsim", "fcsim.solvers")}


def _assert_not_loaded(modules) -> str:
    """A statement that fails, naming them, if any of `modules` is in sys.modules."""
    return (f"loaded = sorted(set({sorted(modules)!r}) & set(sys.modules)); "
            "assert not loaded, loaded; ")


@pytest.mark.parametrize("commands", [
    [],
    [["validate", "--config", CONFIG]],
    [["simulate", "--config", CONFIG, "--seed", "1", "--triggers", "20000",
      "--out", "{tmp}/clicks.bin"]],
    [SWEEP_60],
    [["sweep", "--config", CONFIG, "--param", "pulses.energy_p_nj", "--from", "1",
      "--to", "9", "--steps", "5", "--out", "{tmp}/power.csv"]],
    [["multiplex", "--config", CONFIG, "--max-bins", "12", "--out", "{tmp}/mux.csv"]],
    [["stats", "--config", CONFIG, "--readout-delay", "5"]],
    [["stats", "--config", CONFIG, *PUBLISHED_CALIBRATION,
      "--out-config", "{tmp}/calibrated.json"]],
    [["stats", "--config", ALTERNATE, *PUBLISHED_CALIBRATION]],
    [["fit", "--kind", "exponential", "--data", "{tmp}/sweep.csv"]],
    [["fit", "--kind", "memory", "--data", "{tmp}/sweep.csv", "--config", CONFIG]],
], ids=["import", "validate", "simulate", "sweep_delay", "sweep_energy", "multiplex",
        "stats", "stats_calibrate_primary", "stats_calibrate_alternate", "fit_exponential",
        "fit_memory"])
def test_cli_loads_no_scipy(tmp_path, commands):
    """Every command runs in a fresh interpreter in which importing scipy
    fails, and loads only the modules it runs: never numpy.ma or
    numpy.polynomial, and none of those in UNUSED_BY for its name, or for
    its name and first option with its value. The series that `fit` reads
    is written here first, outside that interpreter."""
    assert main([a.format(tmp=tmp_path) for a in SWEEP_60]) == 0
    run = "".join(f"assert fcsim.cli.main({[a.format(tmp=tmp_path) for a in argv]!r}) == 0; "
                  + _assert_not_loaded(NEVER_LOADED + UNUSED_BY.get(argv[0], ())
                                       + UNUSED_BY.get(" ".join(argv[:3]), ()))
                  for argv in commands)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['scipy'] = None; import fcsim.cli; "
         f"{_assert_not_loaded(('numpy',))}{run}print('ran', {len(commands)})"],
        capture_output=True, text=True, env=subprocess_env(), timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == f"ran {len(commands)}"


def test_stats_and_fit_report_timings_and_evaluations(tmp_path, capsys):
    """The timings, evaluation counts and calibration diagnostics go into
    the command's JSON only, not into the calibrated config; stats without
    --calibrate has no calibration block."""
    calibrated = tmp_path / "calibrated.json"
    code, out, err = run_cli(capsys, "stats", "--config", CONFIG, *PUBLISHED_CALIBRATION,
                             "--out-config", str(calibrated))
    assert code == 0, err
    timings = json.loads(out)["timings"]
    assert set(timings) == {"calibrate_s", "report_s"}
    assert all(v >= 0 for v in timings.values())
    assert not any(name in calibrated.read_text() for name in timings)
    diagnostics = {}
    targets = {k: float(v) for k, v in (a.split("=") for a in PUBLISHED_CALIBRATION[1::2])}
    fockstats.calibrate(load_config(CONFIG), targets, diagnostics)
    assert json.loads(out)["calibration"] == diagnostics
    assert diagnostics["passes"] == 1
    assert "calibration" not in calibrated.read_text()
    code, out, _ = run_cli(capsys, "stats", "--config", CONFIG)
    assert json.loads(out)["timings"]["calibrate_s"] < json.loads(out)["timings"]["report_s"]
    assert "calibration" not in json.loads(out)
    sweep = tmp_path / "sweep.csv"
    assert run_cli(capsys, *[a.format(tmp=tmp_path) for a in SWEEP_60])[0] == 0
    for kind, extra in (("exponential", []), ("memory", ["--config", CONFIG])):
        code, out, err = run_cli(capsys, "fit", "--kind", kind, "--data", str(sweep), *extra)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["evaluations"] >= 3
        assert set(doc["timings"]) == {"fit_s"} and doc["timings"]["fit_s"] > 0


@pytest.mark.parametrize("argv, key", [
    (("sweep", "--param", "readout_delay", "--from", "1", "--to", "60", "--steps", "60"),
     "sweep_s"),
    (("sweep", "--param", "pulses.energy_p_nj", "--from", "1", "--to", "7", "--steps", "4"),
     "sweep_s"),
    (("multiplex", "--max-bins", "40"), "multiplex_s"),
])
def test_sweep_and_multiplex_report_timings(tmp_path, capsys, argv, key):
    out_path = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, *argv, "--config", CONFIG, "--out", str(out_path))
    assert code == 0, err
    timings = json.loads(out)["timings"]
    assert set(timings) == {key} and timings[key] > 0
    assert key not in out_path.read_text()


def test_multiplex_subcommand(tmp_path, capsys):
    out_path = tmp_path / "mux.csv"
    code, out, _ = run_cli(capsys, "multiplex", "--config", CONFIG,
                           "--max-bins", "40", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert "9.7" in doc["note"]
    rows = np.loadtxt(out_path, delimiter=",", skiprows=1)
    assert rows.shape == (40, 3)
    assert rows[0, 2] == 1.0
    assert np.all(np.diff(rows[:, 2]) >= 0)


def test_multiplex_optimal_K_is_first_argmax(tmp_path, capsys, alternate):
    out_path = tmp_path / "mux.csv"
    code, out, _ = run_cli(capsys, "multiplex", "--config",
                           str(default_config_path("alternate_cavity")),
                           "--max-bins", "120", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    rows = np.loadtxt(out_path, delimiter=",", skiprows=1)
    plan = multiplex.MultiplexPlan(bins=120, bin_spacing_cycles=1,
                                   herald_prob=fockstats.model_patterns(alternate)["h"],
                                   readout_curve=multiplex.readout_curve(alternate, 120))
    assert doc["optimal_K"] == 48
    assert doc["optimal_K"] == multiplex.optimal_K(plan, 120)
    assert doc["optimal_K"] == int(np.argmax(rows[:, 1])) + 1
    assert doc["p_out_at_optimal_K"] == rows[47, 1]


def test_multiplex_with_a_given_herald_probability(tmp_path, capsys, primary):
    """--herald-prob replaces the model's herald probability in the plan."""
    out_path = tmp_path / "mux.csv"
    code, out, err = run_cli(capsys, "multiplex", "--config", CONFIG, "--max-bins", "30",
                             "--herald-prob", "0.25", "--out", str(out_path))
    assert code == 0, err
    doc = json.loads(out)
    plan = multiplex.MultiplexPlan(bins=30, bin_spacing_cycles=1, herald_prob=0.25,
                                   readout_curve=multiplex.readout_curve(primary, 30))
    p_out, enhancement = multiplex.output_curve(plan)
    rows = np.loadtxt(out_path, delimiter=",", skiprows=1)
    assert doc["herald_prob"] == 0.25 and doc["herald_prob"] != fockstats.model_patterns(
        primary)["h"]
    assert rows[:, 1].tolist() == p_out.tolist() and rows[:, 2].tolist() == enhancement.tolist()
    assert doc["optimal_K"] == multiplex.optimal_K(plan, 30)


@pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
def test_multiplex_herald_probability_outside_unit_interval_writes_nothing(tmp_path, capsys,
                                                                          value):
    code, out, err = run_cli(capsys, "multiplex", "--config", CONFIG, "--herald-prob", value,
                             "--out", str(tmp_path / "mux.csv"))
    assert code == 2
    assert json.loads(err)["error"] == "NonPhysicalParameter"
    assert out == "" and list(tmp_path.iterdir()) == []


def test_fit_memory_without_config_is_usage_error(tmp_path, capsys):
    code, _, _ = run_cli(capsys, *[a.format(tmp=tmp_path) for a in SWEEP_60])
    assert code == 0
    with pytest.raises(SystemExit) as exit_info:
        main(["fit", "--kind", "memory", "--data", str(tmp_path / "sweep.csv")])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "--config is required for --kind memory" in captured.err and captured.out == ""


def test_multiplex_zero_bins_writes_nothing(tmp_path, capsys):
    out_path = tmp_path / "mux.csv"
    code, out, err = run_cli(capsys, "multiplex", "--config", CONFIG,
                             "--max-bins", "0", "--out", str(out_path))
    assert code == 2
    assert json.loads(err)["error"] == "NonPhysicalParameter"
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [("--max-bins", "0", "--spacing", "3"),
                                  ("--max-bins", "-1", "--latency", "2")])
def test_multiplex_bad_bins_are_named(tmp_path, capsys, argv):
    """The plan is validated before the curve is sized from it, so the error
    names the bins given, not the curve length they imply."""
    code, out, err = run_cli(capsys, "multiplex", "--config", CONFIG, *argv,
                             "--out", str(tmp_path / "mux.csv"))
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "NonPhysicalParameter"
    assert doc["message"].startswith("bins ") and "max_delay_cycles" not in doc["message"]
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sweep", [
    ("pulses.energy_p_nj", "0", "10", "0"),
    ("pulses.energy_p_nj", "0", "10", "-1"),
    ("readout_delay", "0.1", "0.4", "4"),
], ids=["zero_steps", "negative_steps", "no_delay_at_least_one"])
def test_sweep_without_points_writes_nothing(tmp_path, capsys, sweep):
    param, start, stop, steps = sweep
    code, out, err = run_cli(capsys, "sweep", "--config", CONFIG, "--param", param,
                             "--from", start, "--to", stop, "--steps", steps,
                             "--out", str(tmp_path / "sweep.csv"))
    assert code == 2
    assert json.loads(err)["error"] == "NonPhysicalParameter"
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("param, start, stop, message", [
    ("readout_delay", "1", "1e30", "--to must be <= 9007199254740992.0, got 1e+30"),
    ("readout_delay", "-1e30", "5", "--from must be >= -9007199254740992.0, got -1e+30"),
    ("readout_delay", "nan", "5", "--from must be finite, got nan"),
    ("pulses.energy_p_nj", "1", "inf", "--to must be finite, got inf"),
], ids=["delay_past_2_53", "delay_below_minus_2_53", "delay_nan", "field_inf"])
def test_sweep_bound_outside_its_range_writes_nothing(tmp_path, capsys, param, start, stop,
                                                      message):
    """A bound that is not finite, or a delay bound where floats are no longer
    exact integers, names its flag before the grid is cast: such delays used
    to overflow the cast with a RuntimeWarning and drop out of a CSV."""
    code, out, err = run_cli(capsys, "sweep", "--config", CONFIG, "--param", param,
                             f"--from={start}", f"--to={stop}", "--steps", "3",
                             "--out", str(tmp_path / "sweep.csv"))
    assert code == 2
    assert json.loads(err) == {"error": "NonPhysicalParameter", "message": message}
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_delay_sweep_up_to_2_53_keeps_every_delay(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", "--config", CONFIG, "--param", "readout_delay",
                           "--from", "1", "--to", str(2**53), "--steps", "3",
                           "--out", str(out_path))
    assert code == 0 and json.loads(out)["points"] == 3
    delays = [line.split(",")[0] for line in out_path.read_text().splitlines()[1:]]
    assert delays == ["1", str(2**52), str(2**53)]


def test_field_sweep_rows_are_the_readout_curve_at_the_delay(tmp_path, capsys, primary):
    """Each row of a field sweep is readout_curve of the config with that field
    set, at --readout-delay, to the bit in the CSV's 17 digits."""
    out_path = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, "sweep", "--config", CONFIG, "--param", "pulses.energy_q_nj",
                           "--from", "2", "--to", "12", "--steps", "6", "--readout-delay", "9",
                           "--out", str(out_path))
    assert code == 0, err
    rows = np.loadtxt(out_path, delimiter=",", skiprows=1)
    assert rows.shape == (6, 5)
    for value, *curve, noise in rows.tolist():
        c = primary.replace_fields(**{"pulses.energy_q_nj": value})
        assert curve == [a[0] for a in readout.readout_curve(c, [9])], value
        assert noise == c.noise_mean_per_trigger()


@pytest.mark.parametrize("delay", ["0", "-4"])
def test_field_sweep_at_a_delay_that_is_no_readout_bin_writes_nothing(tmp_path, capsys, delay):
    """A field sweep checks --readout-delay with the readout-bin rule (an
    integer >= 1), which readout_curve alone, taking any delay >= 0, would not."""
    code, out, err = run_cli(capsys, "sweep", "--config", CONFIG, "--param", "pulses.energy_q_nj",
                             "--from", "2", "--to", "12", "--steps", "3",
                             "--readout-delay", delay, "--out", str(tmp_path / "sweep.csv"))
    assert code == 2
    assert json.loads(err) == {"error": "NonPhysicalParameter", "message":
                               f"readout delay must be >= 1 and an integer, got {delay}"}
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("section, field, value", [
    ("cavity", "length_m", "4.9"),
    ("source", "schmidt_modes", "2"),
    ("cavity", "length_m", True),
], ids=["length_string", "schmidt_modes_string", "length_true"])
def test_validate_non_number_is_config_error(tmp_path, capsys, section, field, value):
    doc = json.loads(default_config_path("primary_cavity").read_text())
    doc[section][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", "--config", str(bad))
    assert code == 2
    body = json.loads(err)
    assert body["error"] == "NonPhysicalParameter"
    assert f"{section}.{field} is not a number" in body["message"]
    assert out == ""


def test_simulate_negative_seed_is_config_error(tmp_path, capsys):
    """A negative --seed is a typed error (exit 2), not numpy's ValueError
    (exit 3), and writes nothing."""
    code, out, err = run_cli(capsys, "simulate", "--config", CONFIG, "--seed", "-1",
                             "--triggers", "1000", "--out", str(tmp_path / "neg.bin"))
    assert code == 2
    body = json.loads(err)
    assert body["error"] == "NonPhysicalParameter" and "seed" in body["message"]
    assert list(tmp_path.iterdir()) == []


def test_simulate_delay_beyond_record_field_is_config_error(tmp_path, capsys):
    out_path = tmp_path / "far.bin"
    code, out, err = run_cli(capsys, "simulate", "--config", CONFIG, "--seed", "1",
                             "--triggers", "1000", "--readout-delay", "70000",
                             "--out", str(out_path))
    assert code == 2
    assert json.loads(err)["error"] == "NonPhysicalParameter"
    assert list(tmp_path.iterdir()) == []


def test_runtime_failure_exit_code(tmp_path, capsys):
    code, out, err = run_cli(capsys, "fit", "--kind", "exponential",
                             "--data", str(tmp_path / "does_not_exist.csv"))
    assert code == 3
    body = json.loads(err)
    assert "error" in body and "message" in body


def test_no_temp_files_left(tmp_path, capsys):
    out_path = tmp_path / "clean.csv"
    run_cli(capsys, "sweep", "--config", CONFIG, "--param", "readout_delay",
            "--from", "1", "--to", "11", "--steps", "3", "--out", str(out_path),
            "--jobs", "1")
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def _strict_json(text: str):
    """text parsed as JSON that holds no Infinity, -Infinity or NaN."""
    def reject(constant):
        raise ValueError(f"non-finite constant {constant} in the JSON output")
    return json.loads(text, parse_constant=reject)


FUZZ_VALUES = ("0", "-0", "1", "1e-300", "5e-324", "1e300", "1e308", "0.5", "2", "1e-9",
               "100", "inf", "nan", "-1")
FUZZ_COMMANDS = {
    "validate": ["validate"],
    "stats": ["stats"],
    "stats_calibrate": ["stats", *PUBLISHED_CALIBRATION],
    "sweep_delay": ["sweep", "--param", "readout_delay", "--from", "1", "--to", "300",
                    "--steps", "300", "--out", "{tmp}/sweep.csv"],
    "multiplex": ["multiplex", "--out", "{tmp}/mux.csv"],
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
def test_one_field_at_any_value_runs_or_fails_typed(tmp_path, capsys, primary, command):
    """Every config field set to each of FUZZ_VALUES in turn: no exception
    escapes main, the exit code is 0, 2 or 3, a failure writes a JSON error
    body, and what is printed is strict JSON (no non-finite constant).
    simulate is left out: a huge mean builds an unbounded photon-number table."""
    fields = [f"{section.name}.{f.name}" for section in dataclasses.fields(primary)
              if section.init for f in dataclasses.fields(getattr(primary, section.name))]
    extra = [a.format(tmp=tmp_path) for a in FUZZ_COMMANDS[command][1:]]
    faults = []
    for field in fields:
        for value in FUZZ_VALUES:
            argv = [FUZZ_COMMANDS[command][0], "--config", CONFIG,
                    "--set", f"{field}={value}", *extra]
            try:
                code, out, err = run_cli(capsys, *argv)
                if code not in (0, 2, 3):
                    raise AssertionError(f"exit code {code}")
                if code:
                    assert set(_strict_json(err)) == {"error", "message"}, err
                if code == 0 or out:
                    _strict_json(out)
            except Exception as exc:  # each fault is collected, and all are reported at once
                capsys.readouterr()
                faults.append(f"{field}={value}: {type(exc).__name__}: {exc}"[:200])
    assert not faults, "\n".join(faults)


@pytest.mark.parametrize("sets, command, code, error", [
    (["detectors.eta_herald_path=0", "detectors.dark_prob_per_gate=0"],
     ["stats", "--calibrate", "heralded_prob=0.096"], 3, "DivisionByZeroRate"),
    (["noise.noise_mean_per_nj=1e308"], ["stats", *PUBLISHED_CALIBRATION],
     3, "DivisionByZeroRate"),
    (["scheme.lambda_pump_nm=5e-324"], ["validate"], 2, "EnergyConservationViolated"),
    (["scheme.lambda_p_nm=5e-324"], ["validate"], 2, "NonPhysicalParameter"),
    (["pulses.control_fwhm_ps=1e308"], ["stats"], 3, "GridTooCoarse"),
    (["cavity.length_m=1e-300"], ["stats", "--calibrate", "eta_conversion=0.8"],
     3, "NoConvergence"),
    (["cavity.length_m=1e308"], ["validate"], 3, "ValueError"),
    (["pulses.clock_rate_khz=1e308"], ["stats"], 3, "ValueError"),
], ids=["calibrate_no_herald", "calibrate_noise_1e308", "pump_5e-324", "p_control_5e-324",
        "fwhm_1e308", "conversion_length_1e-300", "validate_infinite_walkoff",
        "stats_infinite_rate"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_former_tracebacks_fail_typed(capsys, sets, command, code, error):
    """Inputs that ended in a traceback, printed non-strict JSON or passed
    validation with a NaN energy check: each fails with its typed error
    and prints nothing on stdout."""
    argv = [command[0], "--config", CONFIG, *(a for s in sets for a in ("--set", s)),
            *command[1:]]
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert json.loads(err)["error"] == error
    if error == "DivisionByZeroRate":
        assert "calibration target" in json.loads(err)["message"]
