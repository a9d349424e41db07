import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from fcsim import config, estimators, fockstats, readout, trialsim
from fcsim.errors import CorruptRecords, EmptyInput, NonPhysicalParameter
from fcsim.trialsim import (
    MASK_H,
    MASK_R1,
    MASK_R2,
    MASK_S,
    read_records,
    simulate_run,
    write_records,
)
from oracles import csv_records_rows, csv_records_text


def quiet_config(primary):
    return primary.replace_fields(**{
        "source.mean_pairs_per_pulse": 0.0,
        "noise.noise_mean_per_nj": 0.0,
        "detectors.dark_prob_per_gate": 0.0,
    })


def test_all_silent_without_source_noise_or_darks(primary):
    run = simulate_run(quiet_config(primary), seed=1, n_triggers=200_000)
    assert run.trigger.size == 0
    rates = estimators.estimate_rates(run)
    assert all(est.value == 0.0 for est in rates.values())


@pytest.mark.parametrize("seed", [-1, np.int64(-1), True, False, np.True_])
def test_negative_or_bool_seed_is_nonphysical(primary, seed):
    """A negative seed is a typed error, not numpy's ValueError, and a bool is
    not run as the seed 0 or 1."""
    with pytest.raises(NonPhysicalParameter, match="seed"):
        simulate_run(primary, seed=seed, n_triggers=1000)


@pytest.mark.parametrize("seed", [2.5, 3.0, np.float64(3.0), "3", None])
def test_non_integer_seed_is_nonphysical(primary, seed):
    """A seed that is not an integer is a typed error, not numpy's TypeError."""
    with pytest.raises(NonPhysicalParameter, match="seed"):
        simulate_run(primary, seed=seed, n_triggers=1000)


def test_determinism_same_seed(primary):
    a = simulate_run(primary, seed=99, n_triggers=300_000)
    b = simulate_run(primary, seed=99, n_triggers=300_000)
    assert np.array_equal(a.trigger, b.trigger)
    assert np.array_equal(a.mask, b.mask)
    c = simulate_run(primary, seed=100, n_triggers=300_000)
    assert not (np.array_equal(a.trigger, c.trigger) and np.array_equal(a.mask, c.mask))


def test_block_and_jobs_do_not_change_stream(primary):
    """Worker count must not affect the produced records."""
    a = simulate_run(primary, seed=5, n_triggers=2_200_000, jobs=1)
    b = simulate_run(primary, seed=5, n_triggers=2_200_000, jobs=3)
    assert np.array_equal(a.trigger, b.trigger)
    assert np.array_equal(a.mask, b.mask)


def test_trigger_indices_strictly_increasing(primary):
    run = simulate_run(primary, seed=3, n_triggers=1_500_000)
    assert np.all(np.diff(run.trigger.astype(np.int64)) > 0)


def test_controls_only_darks_only(primary):
    cfg = primary.replace_fields(**{"noise.noise_mean_per_nj": 0.0})
    run = simulate_run(cfg, seed=11, n_triggers=500_000, controls_only=True)
    # only dark counts appear, at the configured per-gate probability
    p_dark = cfg.detectors.dark_prob_per_gate
    for bit in (MASK_H, MASK_S, MASK_R1, MASK_R2):
        count = int(np.count_nonzero(run.mask & bit))
        assert count == pytest.approx(500_000 * p_dark, abs=4 * np.sqrt(500_000 * p_dark) + 3)


def test_noise_rate_linear_in_energy(primary):
    base = estimators.estimate_rates(
        simulate_run(primary, seed=21, n_triggers=400_000, controls_only=True))
    doubled_cfg = primary.replace_fields(**{"pulses.energy_p_nj": 2 * 6.9})
    doubled = estimators.estimate_rates(
        simulate_run(doubled_cfg, seed=22, n_triggers=400_000, controls_only=True))
    ratio = doubled["r"].value / base["r"].value
    se = ratio * np.hypot(doubled["r"].standard_error / doubled["r"].value,
                          base["r"].standard_error / base["r"].value)
    assert ratio == pytest.approx(2.0, abs=3 * se + 0.02)


def test_controls_only_noise_autocorrelation(primary):
    run = simulate_run(primary, seed=31, n_triggers=6_000_000, controls_only=True)
    est = estimators.estimate_g2(run, "unheralded_auto")
    controls = fockstats.pattern_probs(fockstats.controls_table(primary))
    expected = fockstats.correlations(controls)["g2_noise"]
    assert abs(est.value - expected) < 3 * est.standard_error
    assert expected == pytest.approx(1.09, abs=0.01)


def test_csv_roundtrip(tmp_path, primary):
    run = simulate_run(primary, seed=8, n_triggers=120_000)
    path = tmp_path / "clicks.csv"
    write_records(run, path)
    back = read_records(path)
    assert np.array_equal(back.trigger, run.trigger)
    assert np.array_equal(back.delay, run.delay)
    assert np.array_equal(back.mask, run.mask)
    assert back.manifest.n_triggers == run.manifest.n_triggers
    assert back.manifest.seed == 8
    assert back.manifest.generator == "numpy-pcg64-sparse3"


def test_binary_roundtrip(tmp_path, primary):
    run = simulate_run(primary, seed=8, n_triggers=120_000, delay_cycles=17)
    path = tmp_path / "clicks.bin"
    write_records(run, path)
    back = read_records(path)
    assert np.array_equal(back.trigger, run.trigger)
    assert np.all(back.delay == 17)
    assert np.array_equal(back.mask, run.mask)


def test_csv_writer_matches_row_by_row_text(tmp_path, primary):
    """The vectorized CSV writer is byte-identical to row-by-row formatting,
    including triggers of every digit count up to 2^64 - 1, at delays of one,
    two and five digits."""
    for delay in (1, 10, 65535):
        run = simulate_run(primary, seed=8, n_triggers=120_000, delay_cycles=delay)
        edge = dataclasses.replace(
            run,
            trigger=np.array([0, 9, 10, 99, 100, 12345, 2**64 - 1], dtype=np.uint64),
            mask=np.array([1, 2, 4, 8, 15, 0, 6], dtype=np.uint8),
            manifest=dataclasses.replace(run.manifest, n_triggers=2**64, n_records=7))
        empty = dataclasses.replace(run, trigger=run.trigger[:0], mask=run.mask[:0],
                                    manifest=dataclasses.replace(run.manifest, n_records=0))
        for i, records in enumerate((run, edge, empty)):
            path = tmp_path / f"clicks{delay}_{i}.csv"
            write_records(records, path)
            assert path.read_bytes() == csv_records_text(records).encode("utf-8")


def _records(trigger, mask, delay=1, n_triggers=2**64):
    """Click records with a manifest that describes them."""
    trigger = np.array(trigger, dtype=np.uint64)
    manifest = trialsim.RunManifest(
        config_hash="", seed=0, n_triggers=n_triggers, n_records=trigger.size,
        clock_rate_khz=76.8, readout_delay=delay, controls_only=False)
    return trialsim.ClickRecords(trigger=trigger, mask=np.array(mask, dtype=np.uint8),
                                 manifest=manifest)


def _assert_round_trip(records, path):
    """read(write(records)) equals records, and writing what was read gives
    the same file bytes again."""
    write_records(records, path)
    back = read_records(path)
    for field in ("trigger", "delay", "mask"):
        got, want = getattr(back, field), getattr(records, field)
        assert got.dtype == want.dtype and np.array_equal(got, want), field
    assert back.manifest == records.manifest
    data = path.read_bytes()
    write_records(back, path)
    assert path.read_bytes() == data


# triggers on both sides of the 1|2, 2|3, 3|4, 9|10 and 19|20 digit edges (past 9 digits
# the CSV digits are uint64, not uint32) up to 2^64 - 1, one for each of the 16 masks
EDGE_TRIGGERS = [0, 9, 10, 99, 100, 999, 1000, 12345, 10**9 - 1, 10**9, 10**10, 10**18,
                 10**19 - 1, 10**19, 2**64 - 2, 2**64 - 1]


@pytest.mark.parametrize("suffix", [".csv", ".bin"])
@pytest.mark.parametrize("delay", [1, 10, 65535])
def test_edge_records_round_trip(tmp_path, suffix, delay):
    _assert_round_trip(_records(EDGE_TRIGGERS, range(16), delay), tmp_path / ("a" + suffix))
    _assert_round_trip(_records([], [], delay, n_triggers=0), tmp_path / ("b" + suffix))


@settings(deadline=None, max_examples=60)
@given(rows=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 15)),
                     max_size=40, unique_by=lambda row: row[0]),
       delay=st.integers(1, trialsim.MAX_DELAY), suffix=st.sampled_from([".csv", ".bin"]))
def test_random_records_round_trip(tmp_path_factory, rows, delay, suffix):
    rows.sort()
    records = _records([t for t, _ in rows], [m for _, m in rows], delay)
    _assert_round_trip(records, tmp_path_factory.getbasetemp() / ("random" + suffix))


@pytest.mark.parametrize("suffix", [".csv", ".bin"])
@pytest.mark.parametrize("change", [
    {"mask": np.array([1, 16, 2], dtype=np.uint8)},
    {"manifest": dataclasses.replace(_records([3, 5, 8], [1, 2, 3]).manifest, n_records=4)},
], ids=["mask_above_15", "record_count_differs"])
def test_write_records_refuses_what_read_records_rejects(tmp_path, suffix, change):
    """A mask of 16 used to be written as no click at all, and a wrong record
    count gave files that could not be read back."""
    records = dataclasses.replace(_records([3, 5, 8], [1, 2, 3]), **change)
    with pytest.raises(CorruptRecords):
        write_records(records, tmp_path / ("clicks" + suffix))
    assert list(tmp_path.iterdir()) == []


# triggers 7, 12 and 345 at delay 10, masks 1, 6 and 15: lines 2 to 4 below the header
CANONICAL_CSV = "trigger,H,S,R1,R2\n7,1,0,0,0\n12,0,1,1,0\n345,1,1,1,1\n"


@pytest.mark.parametrize("old, new, line", [
    ("345,", "0345,", 4),
    ("12,0", "12, 0", 3),
    ("R2\n", "R2\n# fcsim\n", 2),
    ("0\n12", "0\n\n12", 3),
    ("\n", "\r\n", 1),
    ("1,1,1,1\n", "1,1,1,1", 4),
    ("7,", "+7,", 2),
    ("0,1,1,0", "0,01,1,0", 3),
    ("R1,R2", "R1,R3", 1),
    ("345,", "100000000000000000000,", 4),
    ("345,", "18446744073709551616,", 4),
    ("12,0", "12,10,0", 3),
    ("12,0,1,1,0\n345,1,1,1,1", "345,1,1,1,1\n12,0,1,1,0", 4),
], ids=["leading_zero", "space_before_field", "comment_line", "blank_line", "crlf",
        "no_final_newline", "plus_sign", "flag_01", "wrong_header", "21_digits",
        "2_to_the_64", "delay_column", "row_shorter_than_before"])
def test_noncanonical_csv_is_corrupt_records(tmp_path, old, new, line):
    """A CSV file reads only if it is exactly what write_records writes; the
    error names the first line that is not."""
    path = tmp_path / "clicks.csv"
    write_records(_records([7, 12, 345], [1, 6, 15], delay=10), path)
    assert path.read_text(encoding="ascii") == CANONICAL_CSV
    path.write_text(CANONICAL_CSV.replace(old, new, 1 if line > 1 else -1), encoding="ascii",
                    newline="")
    with pytest.raises(CorruptRecords, match=f"line {line} "):
        read_records(path)
    assert csv_records_rows(path.read_bytes()) == line


# the triggers on both sides of every digit-count edge, then any uint64
DIGIT_EDGES = sorted({10**j + d for j in range(20) for d in (-1, 0, 1)} | {2**64 - 1})
TRIGGERS = st.one_of(st.sampled_from(DIGIT_EDGES), st.integers(0, 2**64 - 1),
                     st.integers(1, 19).flatmap(lambda k: st.integers(0, 10**k - 1)))
RECORD_ROWS = st.lists(st.tuples(TRIGGERS, st.integers(0, 15)), max_size=12,
                       unique_by=lambda row: row[0])


def _sorted_records(rows):
    rows = sorted(rows)
    return _records([t for t, _ in rows], [m for _, m in rows])


@settings(deadline=None, max_examples=100)
@given(rows=RECORD_ROWS)
def test_csv_writer_matches_row_by_row_text_on_random_records(tmp_path_factory, rows):
    records = _sorted_records(rows)
    path = tmp_path_factory.getbasetemp() / "written.csv"
    write_records(records, path)
    assert path.read_bytes() == csv_records_text(records).encode("ascii")


@settings(deadline=None, max_examples=300)
@given(rows=RECORD_ROWS,
       edits=st.lists(st.tuples(st.sampled_from(["substitute", "insert", "delete"]),
                                st.integers(0, 2**16), st.sampled_from(b"0123456789,\n\r ")),
                      max_size=3))
def test_csv_reader_matches_line_by_line_oracle(tmp_path_factory, rows, edits):
    """On a file write_records wrote, with up to 3 bytes substituted, inserted or
    deleted, read_records gives the records a plain line-by-line reader gives,
    or names the first line that reader rejects."""
    path = tmp_path_factory.getbasetemp() / "edited.csv"
    write_records(_sorted_records(rows), path)
    data = bytearray(path.read_bytes())
    for op, at, byte in edits:
        at %= len(data) + (op == "insert")
        if op == "substitute":
            data[at] = byte
        elif op == "insert":
            data.insert(at, byte)
        else:
            del data[at]
    path.write_bytes(data)
    want = csv_records_rows(bytes(data))
    if isinstance(want, int):
        with pytest.raises(CorruptRecords, match=f": line {want} is not"):
            read_records(path)
    elif np.all(want[0][1:] > want[0][:-1]):
        back = read_records(path)
        assert np.array_equal(back.trigger, want[0]) and np.array_equal(back.mask, want[1])
    else:  # rows of one length in another order read, and then fail the order check
        with pytest.raises(CorruptRecords, match="not strictly increasing"):
            read_records(path)


def test_every_one_byte_edit_reads_as_the_line_by_line_oracle_reads_it(tmp_path):
    """Each byte of a file with every digit-count edge and a run of 22 rows of
    one length deleted, replaced by '/' or ':' (next to the digits), or
    replaced by or preceded by a zero, a comma or a newline: the parser gives
    the records the line-by-line reader gives, or names the line it rejects."""
    path = tmp_path / "edited.csv"
    trigger = sorted(EDGE_TRIGGERS + list(range(101, 121)))
    write_records(_records(trigger, [t % 16 for t in trigger]), path)
    data = path.read_bytes()
    edits = [data[:at] + new + data[at + cut:] for at in range(len(data))
             for new, cut in [(b"", 1), (b"/", 1), (b":", 1),
                              *((byte, cut) for byte in (b"0", b",", b"\n") for cut in (0, 1))]]
    for edited in edits + [data + b"1", data + b"\n"]:
        want = csv_records_rows(edited)
        if isinstance(want, int):
            with pytest.raises(CorruptRecords, match=f": line {want} is not"):
                trialsim._parse_csv(edited, path)
        else:
            got = trialsim._parse_csv(edited, path)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("suffix", [".csv", ".bin"])
@pytest.mark.parametrize("failing_rename", [1, 2], ids=["records", "sidecar"])
def test_write_records_failure_leaves_nothing(tmp_path, primary, monkeypatch,
                                              suffix, failing_rename):
    """If either rename fails, neither the record file nor its sidecar remains."""
    run = simulate_run(primary, seed=8, n_triggers=20_000)
    path = tmp_path / ("clicks" + suffix)
    real_replace = os.replace
    calls = []

    def flaky_replace(src, dst):
        calls.append(dst)
        if len(calls) == failing_rename:
            raise OSError("rename refused")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", flaky_replace)
    with pytest.raises(OSError, match="rename refused"):
        write_records(run, path)
    assert list(tmp_path.iterdir()) == []
    assert [str(p) for p in calls] == [str(path), str(trialsim.manifest_path(path))][
        :failing_rename]


def _halve_triggers(run, path):
    manifest = dataclasses.replace(run.manifest, n_triggers=run.manifest.n_triggers // 2)
    trialsim.manifest_path(path).write_text(manifest.to_json(), encoding="utf-8")


def _swap_first_two(run, path):
    arr = np.fromfile(path, dtype=trialsim.BINARY_DTYPE)
    arr[[0, 1]] = arr[[1, 0]]
    arr.tofile(path)


def _set_field(field, value):
    def tamper(run, path):
        arr = np.fromfile(path, dtype=trialsim.BINARY_DTYPE)
        arr[field][3] = value
        arr.tofile(path)
    return tamper


def _truncate(run, path):
    path.write_bytes(path.read_bytes()[:-1])


def _csv_flag_two(run, path):
    lines = path.read_text(encoding="utf-8").splitlines()
    trigger, *_ = lines[1].split(",")
    lines[1] = f"{trigger},2,0,0,0"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csv_rows(*rows):
    def tamper(run, path):
        path.write_text("\n".join([trialsim.CSV_HEADER, *rows]) + "\n", encoding="utf-8")
    return tamper


@pytest.mark.parametrize("suffix, tamper", [
    (".bin", _halve_triggers),
    (".bin", _swap_first_two),
    (".bin", _set_field("mask", 16)),
    (".bin", _truncate),
    (".csv", _csv_flag_two),
    (".csv", _csv_rows("1,1,1,0")),
    (".csv", _csv_rows("1,1,0,0,0", "x,0,0,0,1")),
], ids=["beyond_n_triggers", "not_increasing", "mask_above_15",
        "partial_record", "csv_flag_not_bit", "csv_short_row", "csv_not_numeric"])
def test_read_records_rejects_mismatch(tmp_path, primary, suffix, tamper):
    run = simulate_run(primary, seed=8, n_triggers=120_000)
    path = tmp_path / ("clicks" + suffix)
    write_records(run, path)
    tamper(run, path)
    with pytest.raises(CorruptRecords):
        read_records(path)


def test_file_estimates_equal_memory_estimates(tmp_path, primary):
    run = simulate_run(primary, seed=13, n_triggers=250_000)
    path = tmp_path / "clicks.bin"
    write_records(run, path)
    back = read_records(path)
    mem = estimators.estimate_rates(run)
    disk = estimators.estimate_rates(back)
    for key in mem:
        assert mem[key].value == disk[key].value
    g_mem = estimators.estimate_g2(run, "cross_hr", seed=4)
    g_disk = estimators.estimate_g2(back, "cross_hr", seed=4)
    assert g_mem.value == g_disk.value
    assert g_mem.standard_error == g_disk.standard_error


def test_identical_seed_writes_identical_files(tmp_path, primary):
    digests = []
    for name in ("a.csv", "b.csv"):
        run = simulate_run(primary, seed=777, n_triggers=400_000)
        path = tmp_path / name
        write_records(run, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


# sha256 of the .bin of simulate_run(primary, seed=20260810, n_triggers=1_000_000),
# criterion 10's input; it may change only together with GENERATOR_NAME
PINNED_STREAM = ("numpy-pcg64-sparse3",
                 "b401d8640a5e14b323f5ed02d98c08cfcdb746d6000d8cb0973ff3b434d81642")
# sha256 of that run's trigger.tobytes() + mask.tobytes(), 49,471 records: the
# sampler's output apart from any file layout (the same under sparse2)
PINNED_SAMPLE = "5bd1db7c10e8a3cc1f4156953429b0e66c6455bbfc3909297367fa6c0b922c77"


def test_byte_stream_is_pinned_to_generator_name(tmp_path, primary):
    path = tmp_path / "pinned.bin"
    run = simulate_run(primary, seed=20260810, n_triggers=1_000_000)
    write_records(run, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert (trialsim.GENERATOR_NAME, digest) == PINNED_STREAM
    sample = hashlib.sha256(run.trigger.tobytes() + run.mask.tobytes()).hexdigest()
    assert (run.trigger.size, sample) == (49_471, PINNED_SAMPLE)
    assert path.stat().st_size == 9 * run.trigger.size


# sha256 of trigger.tobytes() + mask.tobytes() of simulate_run(dense, seed=20260810,
# n_triggers=1_200_000): one full block and a partial one, where most triggers click
# and the merge sorts the most keys; with and without the pair source
PINNED_DENSE = {
    False: (890_452, "e7f1fe6b8af70b9194623507705b15f05e906f7b776a38b0e11376a5d460ae9a"),
    True: (871_873, "a56eef36b5f162e1a348316e8f55a35e6461aacbeb9650112ef319649e52f602"),
}


@pytest.mark.parametrize("controls_only", [False, True])
def test_dense_stream_is_pinned(primary, controls_only):
    dense = primary.replace_fields(**{"source.mean_pairs_per_pulse": 0.25,
                                      "noise.noise_mean_per_nj": 0.2})
    run = simulate_run(dense, seed=20260810, n_triggers=1_200_000,
                       controls_only=controls_only)
    sample = hashlib.sha256(run.trigger.tobytes() + run.mask.tobytes()).hexdigest()
    assert (trialsim.GENERATOR_NAME, run.trigger.size, sample) == (
        "numpy-pcg64-sparse3", *PINNED_DENSE[controls_only])


def test_block_merge_keys_fit_in_32_bits():
    """A block's merge key trigger << 2 | detector is a uint32, so the
    block may hold at most 2^30 triggers."""
    assert 4 * trialsim.BLOCK_TRIGGERS <= 2**32


def _write_sparse2(run, path):
    """run as the sparse2 layout wrote it: the delay in every record, as a
    uint16 T field of the .bin and a T column of the CSV."""
    delay = run.manifest.readout_delay
    if path.suffix == ".bin":
        old = np.dtype([("trigger", "<u8"), ("T", "<u2"), ("mask", "u1")])
        np.rec.fromarrays([run.trigger, np.full(run.trigger.size, delay), run.mask],
                          dtype=old).tofile(path)
    else:
        path.write_text("".join(
            ["trigger,T,H,S,R1,R2\n"] + [f"{t},{delay},{m & 1},{m >> 1 & 1},{m >> 2 & 1},"
                                         f"{m >> 3}\n" for t, m in zip(run.trigger, run.mask)]),
            encoding="ascii")
    manifest = dataclasses.replace(run.manifest, generator="numpy-pcg64-sparse2")
    trialsim.manifest_path(path).write_text(manifest.to_json(), encoding="utf-8")


@pytest.mark.parametrize("suffix", [".bin", ".csv"])
def test_sparse2_files_are_corrupt_records(tmp_path, primary, suffix):
    """A file of the layout before sparse3 fails as CorruptRecords: a .bin is
    not 9 bytes per record the manifest counts, and a CSV has the old header."""
    for n_triggers in (120_000, 20_020):  # 5905 records; 945, whose 11 * 945 bytes are 1155 * 9
        run = simulate_run(primary, seed=8, n_triggers=n_triggers, delay_cycles=9)
        path = tmp_path / (f"old{n_triggers}" + suffix)
        _write_sparse2(run, path)
        with pytest.raises(CorruptRecords, match="line 1 is not the header" if suffix == ".csv"
                           else "9-byte records|records, but the manifest"):
            read_records(path)


@pytest.mark.parametrize("generator", ["anything", "numpy-pcg64-sparse2"])
@pytest.mark.parametrize("n_triggers, n_records", [(10_000, 493), (5, 0)])
def test_other_generator_is_corrupt_records(tmp_path, primary, generator, n_triggers,
                                            n_records):
    """A sidecar naming another stream fails even where the record bytes fit
    the layout; an empty sparse2 .bin used to read."""
    path = tmp_path / "clicks.bin"
    run = simulate_run(primary, seed=8, n_triggers=n_triggers)
    assert run.trigger.size == n_records
    write_records(run, path)
    mpath = trialsim.manifest_path(path)
    doc = json.loads(mpath.read_text(encoding="utf-8"))
    mpath.write_text(json.dumps({**doc, "generator": generator}), encoding="utf-8")
    with pytest.raises(CorruptRecords, match=f"{mpath.name}: generator {generator!r} is "
                                             f"not {trialsim.GENERATOR_NAME!r}"):
        read_records(path)


def test_delay_is_a_read_only_view_of_the_manifest(primary):
    run = simulate_run(primary, seed=8, n_triggers=120_000, delay_cycles=300)
    delay = run.delay
    assert delay.dtype == np.uint16 and delay.shape == run.trigger.shape
    assert np.all(delay == 300) and delay.strides == (0,) and not delay.flags.writeable
    assert delay.tobytes() == np.full(run.trigger.size, 300, dtype=np.uint16).tobytes()
    assert [f.name for f in dataclasses.fields(run)] == ["trigger", "mask", "manifest",
                                                         "_bootstraps"]


@pytest.mark.parametrize("delay", [0, trialsim.MAX_DELAY + 1, 70_000])
def test_simulate_rejects_delays_the_records_cannot_hold(primary, delay, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before the delay was checked")
    monkeypatch.setattr(trialsim, "_simulate_block", no_sampling)
    with pytest.raises(NonPhysicalParameter):
        simulate_run(primary, seed=1, n_triggers=10, delay_cycles=delay)


def test_simulate_at_largest_record_delay(primary):
    run = simulate_run(primary, seed=3, n_triggers=50_000, delay_cycles=trialsim.MAX_DELAY)
    assert trialsim.MAX_DELAY == 65535
    assert run.trigger.size > 0 and np.all(run.delay == 65535)


@pytest.mark.parametrize("text", [
    None,  # the manifest with one extra key
    '{"seed": 1}',
    "[1, 2, 3]",
    "not json {",
], ids=["extra_key", "missing_keys", "not_an_object", "not_json"])
def test_malformed_manifest_is_corrupt_records(tmp_path, primary, text):
    path = tmp_path / "clicks.bin"
    write_records(simulate_run(primary, seed=8, n_triggers=10_000), path)
    mpath = trialsim.manifest_path(path)
    if text is None:
        doc = json.loads(mpath.read_text(encoding="utf-8"))
        text = json.dumps({**doc, "extra": 1})
    mpath.write_text(text, encoding="utf-8")
    with pytest.raises(CorruptRecords, match=str(mpath.name)):
        read_records(path)


@pytest.mark.parametrize("suffix", [".bin", ".csv"])
def test_records_without_their_sidecar_are_empty_input(tmp_path, primary, suffix):
    path = tmp_path / f"clicks{suffix}"
    write_records(simulate_run(primary, seed=8, n_triggers=10_000), path)
    trialsim.manifest_path(path).unlink()
    with pytest.raises(EmptyInput, match="missing manifest sidecar"):
        read_records(path)


def test_sidecar_shared_with_other_suffix_is_corrupt_records(tmp_path, primary):
    """x.bin and x.csv share x.manifest.json; once a run with another trigger
    count writes x.csv, reading x.bin fails instead of taking its labels."""
    write_records(simulate_run(primary, seed=1, n_triggers=20_000), tmp_path / "a.bin")
    write_records(simulate_run(primary, seed=2, n_triggers=30_000), tmp_path / "a.csv")
    with pytest.raises(CorruptRecords, match="records, but the manifest"):
        read_records(tmp_path / "a.bin")
    assert read_records(tmp_path / "a.csv").manifest.n_triggers == 30_000


def test_manifest_without_record_count_is_corrupt_records(tmp_path, primary):
    path = tmp_path / "clicks.bin"
    write_records(simulate_run(primary, seed=8, n_triggers=10_000), path)
    mpath = trialsim.manifest_path(path)
    doc = json.loads(mpath.read_text(encoding="utf-8"))
    del doc["n_records"]
    mpath.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CorruptRecords, match="n_records"):
        read_records(path)


@pytest.mark.parametrize("field, value", [
    ("config_hash", 123),
    ("seed", True),
    ("n_triggers", "20000"),
    ("clock_rate_khz", "76.8"),
    ("readout_delay", None),
    ("readout_delay", 2.0),  # an integral float is no integer
    ("clock_rate_khz", True),
    ("controls_only", 0),
    ("generator", None),
    ("created", 5),
    # the right type, but a value no run can have written
    ("clock_rate_khz", -76.8),
    ("clock_rate_khz", 0.0),
    ("clock_rate_khz", math.inf),
    ("clock_rate_khz", math.nan),
    ("seed", -1),
    ("n_triggers", -1),
    ("n_records", "5"),
    ("n_records", -1),
    ("n_records", 10_001),  # more records than triggers
    ("readout_delay", 0),
    ("readout_delay", int(trialsim.MAX_DELAY) + 1),
])
def test_manifest_field_of_wrong_type_is_corrupt_records(tmp_path, primary, field, value):
    """A manifest value of the wrong JSON type, or out of range (a negative
    clock rate used to read cleanly and turn every rate negative)."""
    path = tmp_path / "clicks.bin"
    write_records(simulate_run(primary, seed=8, n_triggers=10_000), path)
    mpath = trialsim.manifest_path(path)
    doc = json.loads(mpath.read_text(encoding="utf-8"))
    mpath.write_text(json.dumps({**doc, field: value}), encoding="utf-8")
    with pytest.raises(CorruptRecords, match=f"{mpath.name}.*{field!r}"):
        read_records(path)


def test_herald_rate_matches_analytic(primary):
    run = simulate_run(primary, seed=55, n_triggers=4_000_000)
    rates = estimators.estimate_rates(run)
    _, clicks = fockstats.click_model(primary, 1)
    expected = clicks.p("H") * 76.8e3
    assert abs(rates["h"].value - expected) < 3 * rates["h"].standard_error
    assert expected == pytest.approx(474.0, abs=0.1)


class _UnitGaps:
    """Stands in for a Generator whose uniforms are all 0, so that every
    geometric gap drawn from them by inversion is 1."""

    def random(self, size):
        return np.zeros(size)


def test_positions_edges():
    rng = np.random.default_rng(1)
    assert trialsim.positions(rng, 0.0, 1000).size == 0
    assert np.array_equal(trialsim.positions(rng, 1.0, 1000), np.arange(1000))
    # gaps far beyond the block leave it empty instead of overflowing
    assert trialsim.positions(rng, 1e-300, 1000).size == 0
    # more hits than the first batch of gaps holds: the rest of the block is
    # drawn on from the last hit
    assert np.array_equal(trialsim.positions(_UnitGaps(), 0.5, 1000), np.arange(1000))


@pytest.mark.parametrize("p", [1e-5, 0.04, 0.73])
def test_positions_sorted_in_range_at_rate(p):
    count = 1 << 20
    idx = trialsim.positions(np.random.default_rng(7), p, count)
    assert np.all(np.diff(idx) > 0)
    assert idx.size == 0 or (idx[0] >= 0 and idx[-1] < count)
    assert abs(idx.size - count * p) < 5 * np.sqrt(count * p * (1 - p))


def _nb_pmf(n, mean, k):
    """NB(n) with k modes and the given mean, from lgamma."""
    x = mean / (mean + k)
    return math.exp(math.lgamma(n + k) - math.lgamma(k) - math.lgamma(n + 1)
                    + k * math.log1p(-x) + n * math.log(x))


@pytest.mark.parametrize("k", [1.0, 2.0, 10.85])
@pytest.mark.parametrize("mean", [1e-6, 0.042, 1.38, 5.0])
def test_zero_truncated_nb_table(mean, k):
    pmf, cdf = trialsim.zero_truncated_nb(mean, k)
    assert abs(cdf[-1] - 1.0) <= 2.0 ** -53
    x = mean / (mean + k)
    nonzero = -math.expm1(k * math.log1p(-x))
    expected = np.array([_nb_pmf(n, mean, k) for n in range(1, pmf.size + 1)]) / nonzero
    np.testing.assert_allclose(pmf, expected, rtol=1e-12, atol=0)
    # the cut-off tail is below the resolution of a uniform draw
    tail = math.fsum(_nb_pmf(n, mean, k) for n in range(pmf.size + 1, pmf.size + 2000))
    assert tail / nonzero < 2.0 ** -53


def _tables(primary, alternate):
    """The pair and noise number tables of both shipped configs and of the
    dense regime, then one longer than 255 entries."""
    tables = {}
    for name, cfg in (("primary", primary), ("alternate", alternate),
                      ("dense", _dense(primary))):
        tables[f"{name}_pairs"] = trialsim._number_table(cfg.source.mean_pairs_per_pulse,
                                                         cfg.source.schmidt_modes)
        tables[f"{name}_noise"] = trialsim._number_table(cfg.noise_mean_per_trigger(),
                                                         cfg.noise.mode_count)
    tables["long"] = trialsim._number_table(100.0, 1.0)
    return tables


def test_photon_numbers_equal_the_binary_search(primary, alternate):
    """The head count with its tail search is the inverse CDF exactly, at
    every cdf entry, the double just below each, 0 and the largest uniform.
    A head ends at its first entry at or above the cut, or at the cap."""
    tables = _tables(primary, alternate)
    for name, (_, cdf, head) in tables.items():
        assert 1 <= head <= min(cdf.size, trialsim._HEAD_MAX)
        assert cdf[head - 1] >= trialsim._HEAD_CUT or head == trialsim._HEAD_MAX
        assert head == 1 or cdf[head - 2] < trialsim._HEAD_CUT
        u = np.concatenate([cdf, np.nextafter(cdf, 0.0), [0.0, 1.0 - 2.0 ** -53]])
        u = u[u < 1.0]  # a uniform draw is below 1
        n = trialsim._photon_numbers(u, cdf, head)
        assert n.dtype == np.min_scalar_type(cdf.size + 1), name
        np.testing.assert_array_equal(n, np.searchsorted(cdf, u, side="right") + 1, name)
    # a table longer than 255 entries widens the counts, and its last ones are reached
    _, cdf, head = tables["long"]
    assert cdf.size > 255 and head < cdf.size
    assert trialsim._photon_numbers(np.array([1.0 - 2.0 ** -53]), cdf, head)[0] > 255
    # its head stops at the cap, short of the cut, and any head >= 1 counts exactly
    assert head == trialsim._HEAD_MAX and cdf[head - 1] < trialsim._HEAD_CUT
    u = np.random.default_rng(3).random(20_000)
    for other in (1, 2, 7, head, int(np.searchsorted(cdf, trialsim._HEAD_CUT)) + 1):
        np.testing.assert_array_equal(trialsim._photon_numbers(u, cdf, other),
                                      np.searchsorted(cdf, u, side="right") + 1)


def test_stage_seconds_leave_the_records_unchanged(primary):
    stages = {}
    a = simulate_run(_dense(primary), seed=8, n_triggers=1_200_000, stage_seconds=stages)
    b = simulate_run(_dense(primary), seed=8, n_triggers=1_200_000)
    assert np.array_equal(a.trigger, b.trigger) and np.array_equal(a.mask, b.mask)
    assert list(stages) == list(trialsim.SAMPLER_STAGES)
    assert all(seconds > 0 for seconds in stages.values())


def _dense(primary):
    return primary.replace_fields(**{"source.mean_pairs_per_pulse": 0.25,
                                     "noise.noise_mean_per_nj": 0.2})


def _mask_counts(cfg, seed, n, delay, controls_only):
    """(observed, expected) counts of the 16 record masks in a run of n
    triggers; mask 0 counts the triggers without a record, and the expected
    counts are n * EXACT @ Q of the engine's row (controls_table's for a
    controls-only run)."""
    run = simulate_run(cfg, seed=seed, n_triggers=n, delay_cycles=delay,
                       controls_only=controls_only)
    observed = np.bincount(run.mask, minlength=16).astype(float)
    observed[0] = n - run.mask.size
    q = (fockstats.controls_table(cfg) if controls_only
         else fockstats.no_click_table(cfg, *readout.signal_branch_probs(cfg, delay))[0])
    return observed, n * (fockstats.EXACT @ q)


@pytest.mark.parametrize("make, include_source, delay", [
    (lambda cfg, alt: cfg, True, 1),
    (lambda cfg, alt: _dense(cfg), True, 1),
    (lambda cfg, alt: cfg, False, 1),
    (lambda cfg, alt: cfg.replace_fields(**{"detectors.dark_prob_per_gate": 0.02}), True, 1),
    (lambda cfg, alt: cfg, True, 50),
    (lambda cfg, alt: alt, True, 1),
    (lambda cfg, alt: cfg.replace_fields(**{"detectors.splitter_ratio": 0.2}), True, 1),
], ids=["primary", "dense", "controls_only", "dark_0.02", "primary_T50", "alternate",
        "splitter_0.2"])
def test_mask_histogram_matches_engine(primary, alternate, make, include_source, delay):
    """Pearson chi-square of the 16-mask histogram against EXACT @ Q; masks
    expected fewer than 25 times are pooled with the no-click mask."""
    cfg = make(primary, alternate)
    observed, expected = _mask_counts(cfg, 4, 1 << 22, delay, not include_source)
    group = np.where(expected >= 25, np.arange(16), 0)
    kept = np.unique(group)
    obs = np.bincount(group, weights=observed, minlength=16)[kept]
    exp = np.bincount(group, weights=expected, minlength=16)[kept]
    statistic = float(np.sum((obs - exp) ** 2 / exp))
    assert scipy.stats.chi2.sf(statistic, kept.size - 1) > 1e-3, statistic


# field -> the values the domain test draws for it, inside its config._FIELDS
# range: an interval drawn uniformly, or a list of values drawn from. The ranges
# are clipped to where 2e6 triggers sample every config in well under a second.
DOMAIN_FIELDS = {
    "source.mean_pairs_per_pulse": (0.001, 0.5),
    "source.schmidt_modes": [1.0, 1.5, 3.0, 10.0],
    "detectors.eta_herald_path": (0.01, 1.0),
    "detectors.eta_s_path": (0.01, 1.0),
    "detectors.eta_r_path": (0.01, 1.0),
    "detectors.dark_prob_per_gate": [0.0, 1e-5, 1e-3, 0.02],
    "detectors.splitter_ratio": (0.05, 0.95),
    "noise.noise_mean_per_nj": (0.0, 0.05),
    "noise.mode_count": (1.0, 100.0),
    "cavity.ringdown_lifetime_cycles": (5.0, 300.0),
}
DOMAIN_CONFIGS = 40
DOMAIN_TRIGGERS = 2_000_000
# an unbiased sampler fails the summed chi-square with this chance, to the
# accuracy of the chi-square law for pooled cells of at least 5 expected counts
DOMAIN_P_BOUND = 1e-6


def test_domain_fields_lie_in_their_config_ranges():
    for key, values in DOMAIN_FIELDS.items():
        section, _, name = key.partition(".")
        lo, lo_open, hi = config._FIELDS[section][name]
        for v in values:  # a list's values, an interval's ends
            assert (lo < v if lo_open else lo <= v) and v <= hi, (key, v)


def _domain_config(primary, rng):
    return primary.replace_fields(**{
        key: float(rng.choice(values) if isinstance(values, list) else rng.uniform(*values))
        for key, values in DOMAIN_FIELDS.items()})


def test_mask_histogram_matches_engine_over_the_config_domain(primary):
    """Pearson chi-square of the 16-mask histogram against EXACT @ Q over
    random configs from DOMAIN_FIELDS at delays 1..399, summed over the
    configs; every fifth run is controls-only, against controls_table. Per
    config, masks expected fewer than 5 times are pooled into one cell, and
    that cell joins mask 0 if it is still under 5. A record in a mask the
    model gives probability 0 fails outright."""
    rng = np.random.default_rng(35)
    statistic, dof, per_config = 0.0, 0, []
    for i in range(DOMAIN_CONFIGS):
        cfg = _domain_config(primary, rng)
        delay = int(rng.integers(1, 400))
        observed, expected = _mask_counts(cfg, 100 + i, DOMAIN_TRIGGERS, delay, i % 5 == 4)
        impossible = expected <= 1e-15 * DOMAIN_TRIGGERS  # zero up to rounding
        assert not observed[impossible].any(), (i, delay, np.flatnonzero(observed * impossible))
        group = np.where(expected >= 5, np.arange(16), 16)
        if expected[group == 16].sum() < 5:
            group[group == 16] = 0
        kept = np.unique(group)
        obs = np.bincount(group, weights=observed, minlength=17)[kept]
        exp = np.bincount(group, weights=expected, minlength=17)[kept]
        chi2 = float(np.sum((obs - exp) ** 2 / exp))
        statistic += chi2
        dof += kept.size - 1
        per_config.append((chi2, kept.size - 1, i))
    worst = max(per_config, key=lambda c: (c[0] - c[1]) / math.sqrt(2 * max(c[1], 1)))
    assert scipy.stats.chi2.sf(statistic, dof) > DOMAIN_P_BOUND, (statistic, dof, worst)
