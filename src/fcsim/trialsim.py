"""Monte Carlo click-stream generation, photon by photon but sparse.

Samples exactly the same per-trigger model as the analytic engine in
fockstats, so the two must agree on every observable within statistics.
Most triggers of a weak source carry nothing, so a block draws only the
triggers that do: the ones with a pair, found by geometric gaps at
P(n > 0) of the pair distribution, the ones with a noise photon, found the
same way, and the dark clicks of all four detectors. Their photon numbers
come from the zero-truncated negative binomial, and each photon draws one
uniform that decides where it clicks, if anywhere. Records are kept only
for clicked triggers, as (trigger, mask); the manifest carries the trigger
and record counts and the one readout delay of the run. Inside a block,
trigger indices and the merge keys trigger << 2 | detector are uint32;
simulate_run widens them to uint64 once, when it adds the block's start.

Reproducibility: triggers are simulated in fixed-size blocks, each block
drawing from a PCG64 stream seeded by (run seed, block index). Identical
(config, seed, n_triggers) therefore produce byte-identical record files.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import atomic
from .config import ValidatedConfig, config_hash, integer, number
from .errors import CorruptRecords, EmptyInput, NonPhysicalParameter
from .patterns import MASK_H, MASK_R1, MASK_R2, MASK_S
from .readout import signal_branch_probs

BLOCK_TRIGGERS = 1 << 20
GENERATOR_NAME = "numpy-pcg64-sparse3"

CSV_HEADER = "trigger,H,S,R1,R2"
_HEADER_LINE = (CSV_HEADER + "\n").encode("ascii")
# a row is k trigger digits, then the tail ",H,S,R1,R2" (8 bytes), then "\n"
_TAIL8 = np.frombuffer("".join(f",{m & 1},{m >> 1 & 1},{m >> 2 & 1},{m >> 3}"
                               for m in range(16)).encode("ascii"), dtype="<u8")
_FLAG_BITS = np.uint64(0x0100010001000100)  # bit 0 of the tail's flag bytes 1, 3, 5, 7
# "0000".."9999" as little-endian uint32 words of their ASCII digits
_DIGITS4 = 0x30303030 + sum(np.arange(10000, dtype=np.uint32) // 10**(3 - j) % 10 << 8 * j
                            for j in range(4))
BINARY_DTYPE = np.dtype([("trigger", "<u8"), ("mask", "u1")])
MAX_DELAY = 65535  # largest readout delay of a run (its manifest's range)


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    seed: int
    n_triggers: int
    n_records: int  # rows of the record file: catches a sidecar shared with another run
    clock_rate_khz: float
    readout_delay: int
    controls_only: bool
    generator: str = GENERATOR_NAME
    created: str = ""

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        """Manifest of a JSON object; ValueError, TypeError or NonPhysicalParameter
        naming the field if it is not one or a value is one no run can have written.
        The counts and the delay follow the integer rule, the clock the real one."""
        manifest = cls(**json.loads(text))
        number("field 'clock_rate_khz'", manifest.clock_rate_khz, (0.0, True, math.inf))
        for name in ("seed", "n_triggers", "n_records"):
            integer(f"field {name!r}", getattr(manifest, name), 0)
        integer("field 'readout_delay'", manifest.readout_delay, 1, MAX_DELAY)
        for name, kind in (("config_hash", str), ("controls_only", bool), ("generator", str),
                           ("created", str)):
            if not isinstance(getattr(manifest, name), kind):
                raise ValueError(f"field {name!r} is no value a run writes: "
                                 f"{getattr(manifest, name)!r}")
        if manifest.n_records > manifest.n_triggers:
            raise ValueError(f"field 'n_records' is {manifest.n_records}, more than "
                             f"the {manifest.n_triggers} triggers")
        return manifest


@dataclass(frozen=True)
class ClickRecords:
    """Sparse click stream: one row per trigger with at least one click.

    Every row has the manifest's readout_delay. The arrays are made
    read-only, so what the estimators derive from them (see
    estimators._bootstrap_sums) can be kept with them; a new stream is a new
    instance, e.g. by dataclasses.replace.
    """

    trigger: np.ndarray  # uint64, strictly increasing
    mask: np.ndarray     # uint8 bit flags (H|S|R1|R2)
    manifest: RunManifest
    # estimators' bootstrap sums by (block_triggers, resamples, seed)
    _bootstraps: dict = dataclasses.field(default_factory=dict, init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        for array in (self.trigger, self.mask):
            array.flags.writeable = False

    @property
    def delay(self) -> np.ndarray:
        """The manifest's readout delay per row, a read-only uint16 view that copies
        nothing; kept only for bench/workloads.py (_record_bytes)."""
        return np.broadcast_to(np.uint16(self.manifest.readout_delay), self.trigger.shape)


def positions(rng: np.random.Generator, p: float, count: int) -> np.ndarray:
    """Sorted indices in [0, count), each present independently with chance p.

    The gaps between successive indices are geometric at p, so the cost
    scales with count * p rather than count. Empty at p = 0, every index at
    p = 1.
    """
    if p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(count, dtype=np.int64)
    # enough gaps unless the hits exceed count * p by 6 sigma; the loop
    # draws on from the last hit then. A gap beyond count leaves the block,
    # so clipping it changes no index and keeps the sum from overflowing.
    size = int(count * p + 6.0 * np.sqrt(count * p)) + 16
    idx = np.array([-1])  # the first gap counts from just before index 0
    while idx[-1] < count:
        # geometric by inversion: P(gap > k) = P(1 - u <= (1 - p)^k) = (1 - p)^k
        gaps = np.minimum(np.floor(np.log1p(-rng.random(size)) / math.log1p(-p)) + 1, count + 1)
        idx = np.concatenate([idx, idx[-1] + np.cumsum(gaps.astype(np.int64))])
    return idx[1:np.searchsorted(idx, count)]


def _nonzero_prob(mean: float, k: float) -> float:
    """P(n > 0) = 1 - (1 + mean/k)^-k of a negative binomial with k modes."""
    return -float(np.expm1(-k * np.log1p(mean / k)))


def zero_truncated_nb(mean: float, k: float) -> tuple:
    """(pmf, cdf) over n = 1, 2, ... of NB(mean, k) conditioned on n > 0.

    NB(n) = Gamma(n+k) / (Gamma(k) n!) (1-x)^k x^n with x = mean / (mean+k);
    k need not be an integer, and k >= 1 as the config requires. The pmf
    follows the ratio NB(n+1)/NB(n) = x (n+k)/(n+1), which does not grow with
    n for k >= 1, so the mass beyond entry n is at most pmf[n] r / (1 - r)
    with r that ratio. The table is cut at the first n where this bound is
    below 2^-53, and the cdf is normalized to end at exactly 1: the cut tail
    is below the resolution of a double uniform draw.
    """
    x = mean / (mean + k)
    p_nonzero = _nonzero_prob(mean, k)
    terms = [k * x * (1.0 - p_nonzero) / p_nonzero]
    n = 1
    while True:
        r = x * (n + k) / (n + 1)
        if terms[-1] * r < 2.0 ** -53 * (1.0 - r):
            break
        terms.append(terms[-1] * r)
        n += 1
    pmf = np.array(terms)
    cdf = np.cumsum(pmf)
    return pmf, cdf / cdf[-1]


_HEAD_CUT = 0.9  # a table's head ends at its first cdf entry at or above this,
_HEAD_MAX = 32   # or at this many entries: each costs one pass over the draws


def _number_table(mean: float, k: float):
    """(P(n > 0), cdf, head) of the photon numbers NB(mean, k), None if mean
    is 0: cdf is the zero-truncated table and head counts its entries up to
    and including the first at or above _HEAD_CUT, at most _HEAD_MAX."""
    if mean <= 0.0:
        return None
    cdf = zero_truncated_nb(mean, k)[1]
    return (_nonzero_prob(mean, k), cdf,
            min(int(np.searchsorted(cdf, _HEAD_CUT)) + 1, _HEAD_MAX))


def _photon_numbers(u: np.ndarray, cdf: np.ndarray, head: int) -> np.ndarray:
    """The inverse CDF n of each uniform u, exactly searchsorted(cdf, u,
    side="right") + 1: n - 1 is the number of cdf entries <= u. One compare
    per head entry counts them; only the draws at or past the head's last
    entry, u >= cdf[head - 1], search the rest. The counts are the narrowest
    unsigned type that holds every n."""
    dtype = np.min_scalar_type(cdf.size + 1)
    n = np.ones(u.size, dtype)
    for c in cdf[:head]:
        n += u >= c
    tail = np.flatnonzero(n > head)
    n[tail] += np.searchsorted(cdf[head:], u[tail], side="right").astype(dtype)
    return n


SAMPLER_STAGES = ("positions", "photon_numbers", "thinning", "merge")


class _StageClock:
    """Seconds per sampler stage, summed over blocks: lap(stage) adds the
    time since the previous lap (or since the clock started) to stage."""

    def __init__(self):
        self.seconds = dict.fromkeys(SAMPLER_STAGES, 0.0)
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] += now - self._last
        self._last = now


def _photon_triggers(rng: np.random.Generator, table, count: int,
                     clock: _StageClock) -> np.ndarray:
    """The uint32 trigger index of every photon of a source among count
    triggers, table its _number_table: geometric gaps find the triggers
    with n > 0, one uniform each gives their n by inverse CDF."""
    if table is None:
        return np.empty(0, dtype=np.uint32)
    p_nonzero, cdf, head = table
    idx = positions(rng, p_nonzero, count).astype(np.uint32)
    clock.lap("positions")
    n = _photon_numbers(rng.random(idx.size), cdf, head)
    clock.lap("photon_numbers")
    return np.repeat(idx, n)


def _simulate_block(cfg: ValidatedConfig, pairs, noise, p_monitor: float,
                    p_readout: float, rng: np.random.Generator, count: int,
                    clock: _StageClock):
    """(sorted trigger indices, uint8 click masks) of the clicked triggers
    among count triggers. pairs and noise are the two sources'
    _number_table (pairs None for a controls-only run), p_monitor and
    p_readout the per-photon branch probabilities.

    Each photon takes one uniform: a herald photon clicks H below eta_h, a
    signal photon goes to S, R1, R2 or is lost by where its uniform falls
    among the cumulative branch probabilities, a noise photon goes to R1
    below the splitter ratio, else to R2.
    """
    det = cfg.detectors
    pair_at = _photon_triggers(rng, pairs, count, clock)
    herald = pair_at[rng.random(pair_at.size) < det.eta_herald_path]
    u = rng.random(pair_at.size)  # the signal photon's branch: S, R1, R2 or lost
    branch = sum((u >= t).view(np.uint8) for t in (
        p_monitor, p_monitor + p_readout * det.splitter_ratio, p_monitor + p_readout))
    seen = branch < 3
    clock.lap("thinning")
    noise_at = _photon_triggers(rng, noise, count, clock)
    noise_det = np.uint8(2) + (rng.random(noise_at.size) >= det.splitter_ratio)  # R1, else R2
    clock.lap("thinning")
    # gate d * count + i of one draw over all four detectors: trigger i, detector d
    dark = positions(rng, det.dark_prob_per_gate, 4 * count)
    clock.lap("positions")
    # one sort key per click, trigger << 2 | d for detector d = H, S, R1, R2
    key = np.concatenate([herald, pair_at[seen], noise_at, (dark % count).astype(np.uint32)]) << 2
    key |= np.concatenate([np.zeros(herald.size, np.uint8), branch[seen] + 1, noise_det,
                           (dark // count).astype(np.uint8)])
    key.sort()
    bits = np.left_shift(np.uint8(1), key.astype(np.uint8) & 3)  # detector d's record bit: 1 << d
    key >>= 2
    # where each clicked trigger's clicks begin (nowhere if the block is silent)
    first = np.flatnonzero(np.concatenate(([key.size > 0], key[1:] != key[:-1])))
    return key[first], np.bitwise_or.reduceat(bits, first)


def simulate_run(cfg: ValidatedConfig, seed: int, n_triggers: int,
                 delay_cycles: int = 1, controls_only: bool = False,
                 jobs: int = 1, stage_seconds: dict | None = None) -> ClickRecords:
    """Simulate n_triggers clock triggers at a fixed readout delay.

    controls_only turns the pair source off, so only noise and dark counts
    click. The delay must be within 1..MAX_DELAY. jobs is accepted for
    compatibility and has no effect: the sparse sampler runs the blocks in
    this process. A stage_seconds dict, if given, receives the seconds of
    each of SAMPLER_STAGES summed over the blocks (seeding a block's stream
    counts as positions, widening its indices as merge); the records and
    manifest never carry them.
    """
    integer("n_triggers", n_triggers, 1)
    integer("seed", seed, 0)
    integer("readout delay", delay_cycles, 1, MAX_DELAY)
    (q_mon,), (chain,) = signal_branch_probs(cfg, delay_cycles)
    pairs = None if controls_only else _number_table(cfg.source.mean_pairs_per_pulse,
                                                     cfg.source.schmidt_modes)
    noise = _number_table(cfg.noise_mean_per_trigger(), cfg.noise.mode_count)

    clock = _StageClock()
    triggers, masks = [], []
    for i, start in enumerate(range(0, n_triggers, BLOCK_TRIGGERS)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
        clicked, mask = _simulate_block(cfg, pairs, noise, float(q_mon), float(chain), rng,
                                        min(BLOCK_TRIGGERS, n_triggers - start), clock)
        triggers.append(clicked.astype(np.uint64) + np.uint64(start))
        masks.append(mask)
        clock.lap("merge")
    trigger, mask = np.concatenate(triggers), np.concatenate(masks)
    clock.lap("merge")
    if stage_seconds is not None:
        stage_seconds.update(clock.seconds)
    manifest = RunManifest(
        config_hash=config_hash(cfg),
        seed=int(seed),
        n_triggers=int(n_triggers),
        n_records=int(trigger.size),
        clock_rate_khz=cfg.pulses.clock_rate_khz,
        readout_delay=int(delay_cycles),
        controls_only=bool(controls_only),
        created=_dt.datetime.now(_dt.timezone.utc).isoformat(),
    )
    return ClickRecords(trigger=trigger, mask=mask, manifest=manifest)


# ---------------------------------------------------------------------------
# On-disk formats: CSV and compact binary, each with a JSON manifest sidecar
# ---------------------------------------------------------------------------

def manifest_path(path) -> Path:
    p = Path(path)
    return p.with_name(p.stem + ".manifest.json")


def _check_records(records: ClickRecords, p: Path) -> None:
    """CorruptRecords unless the records are ones their manifest describes."""
    trigger, manifest = records.trigger, records.manifest
    if trigger.size != manifest.n_records:
        raise CorruptRecords(f"{p}: {trigger.size} records, but the manifest "
                             f"{manifest_path(p).name} counts {manifest.n_records}")
    if np.any(trigger[1:] <= trigger[:-1]):
        raise CorruptRecords(f"{p}: trigger indices are not strictly increasing")
    if trigger.size and trigger[-1] >= manifest.n_triggers:
        raise CorruptRecords(f"{p}: trigger {int(trigger[-1])} is beyond the "
                             f"manifest's {manifest.n_triggers} triggers")
    if np.any(records.mask > MASK_H | MASK_S | MASK_R1 | MASK_R2):
        raise CorruptRecords(f"{p}: click mask above {MASK_H | MASK_S | MASK_R1 | MASK_R2}")


def _field(buf, offset: int, rows: int, length: int, dtype) -> np.ndarray:
    """The field at offset of each of rows rows of length bytes in buf, as a
    strided view."""
    return np.ndarray(rows, dtype, buffer=buf, offset=offset, strides=(length,))


def _csv_bytes(records: ClickRecords) -> np.ndarray:
    """The CSV file as one uint8 buffer. Rising triggers without leading zeros
    keep the rows of each trigger digit count k contiguous, so each field of
    such a group is one strided view: the digits 4 at a time as uint32 words,
    the tail as one uint64 word, the newline as one byte."""
    trigger = records.trigger
    edges = [0, *np.searchsorted(trigger, 10 ** np.arange(1, 20, dtype=np.uint64)).tolist(),
             trigger.size]
    out = np.empty(len(_HEADER_LINE) + int(np.diff(edges) @ np.arange(10, 30)), np.uint8)
    out[:len(_HEADER_LINE)] = np.frombuffer(_HEADER_LINE, np.uint8)
    o = len(_HEADER_LINE)
    for k, lo, hi in zip(range(1, 21), edges[:-1], edges[1:]):
        n, length = hi - lo, k + 9
        if not n:
            continue
        rest = trigger[lo:hi].astype(np.uint32) if k <= 9 else trigger[lo:hi]
        chunks = []  # 4 digits each, from the right
        for _ in range((k - 1) // 4):
            rest, chunk = np.divmod(rest, 10000)
            chunks.append(chunk)
        w = k - 4 * len(chunks)  # digits of the leading chunk, 1..4
        # the leading chunk scaled left: the next chunk, or the tail, overwrites its padding
        lead = rest % 10**w  # no trigger can index beyond _DIGITS4
        lead *= 10**(4 - w)
        for pos, chunk in zip([0, *range(w, k, 4)], [lead, *reversed(chunks)]):
            _field(out, o + pos, n, length, "<u4")[:] = np.take(_DIGITS4, chunk)
        _field(out, o + k, n, length, "<u8")[:] = np.take(_TAIL8, records.mask[lo:hi])
        _field(out, o + k + 8, n, length, np.uint8)[:] = ord("\n")
        o += n * length
    return out


def _leading_newlines(ends: np.ndarray) -> int:
    """How many of ends, from the first, are newlines: a galloping search."""
    n, step = 0, 16
    while n < ends.size:
        other = ends[n:n + step] != ord("\n")
        if other.any():
            return n + int(other.argmax())
        n, step = n + step, 2 * step
    return ends.size


def _digits_value(word: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """The numbers 0..9999 that the uint32 words of four ASCII digits spell,
    computed in word. Each byte of word that is not '0'..'9' sets a high bit
    of bad: the SWAR range test ((x + 0x46464646) | (x - 0x30303030)) & 0x80808080."""
    over = word + 0x46464646
    word -= 0x30303030  # each digit's value, in its byte
    over |= word
    bad |= over
    word *= 2561  # 10 * 256 + 1: the digit pairs 10 d0 + d1 and 10 d2 + d3 in bytes 1 and 3
    word >>= 8
    word &= 0x00FF00FF
    word *= 6553601  # 100 * 65536 + 1: 100 (10 d0 + d1) + 10 d2 + d3 in the upper half
    word >>= 16
    return word


def _parse_csv(data: bytes, p: Path):
    """(trigger, mask) of a CSV file exactly as write_records writes it, else
    CorruptRecords naming the first line that differs. Rows of k digits are
    k + 9 bytes and follow those of fewer, so each k is one run of rows whose
    newlines fall every k + 9 bytes, read and checked through strided views."""
    form = "a row '<trigger>,<H>,<S>,<R1>,<R2>' in canonical form"
    if not data.startswith(_HEADER_LINE):
        raise CorruptRecords(f"{p}: line 1 is not the header {CSV_HEADER!r}")
    buf = np.frombuffer(data, dtype=np.uint8)
    groups, o = [], len(_HEADER_LINE)
    for k in range(1, 21):
        n = _leading_newlines(buf[o + k + 8::k + 9])
        groups.append((k, o, n))
        o += n * (k + 9)
    rows = sum(n for _, _, n in groups)
    trigger, mask = np.empty(rows, np.uint64), np.empty(rows, np.uint8)
    row = 0
    for k, start, n in groups:
        if not n:
            continue
        length = k + 9
        w = k - 4 * ((k - 1) // 4)  # digits of the leading chunk, 1..4
        # the leading chunk's own bytes, shifted to the end of a word padded with '0'
        lead = _field(buf, start, n, length, "<u4") << 8 * (4 - w)
        lead |= 0x30303030 >> 8 * w
        bad = np.zeros(n, np.uint32)
        value = trigger[row:row + n]
        value[:] = _digits_value(lead, bad)
        for pos in range(w, k, 4):
            value *= 10000
            value += _digits_value(_field(buf, start + pos, n, length, "<u4").copy(), bad)
        wrong = bad & 0x80808080 != 0
        if k > 1:  # no leading zero
            wrong |= value < 10 ** (k - 1)
        if k == 20:  # above 2^64 - 1, compared as text
            text = np.ndarray((n, 20), np.uint8, buffer=buf, offset=start, strides=(length, 1))
            wrong |= text.copy().view("S20")[:, 0] > str(2**64 - 1).encode()
        tail = _field(buf, start + k, n, length, "<u8").copy()
        # the tail is _TAIL8[mask]: with bit 0 of each flag byte cleared, it is _TAIL8[0]
        wrong |= tail & ~_FLAG_BITS != _TAIL8[0]
        if wrong.any():
            raise CorruptRecords(f"{p}: line {row + 2 + int(wrong.argmax())} is not {form}")
        # the flag bits 8, 24, 40, 56 to bits 0, 16, 32, 48, then all four to bits 56..59
        tail >>= 8
        tail &= _FLAG_BITS >> 8
        tail *= 2**56 + 2**41 + 2**26 + 2**11
        tail >>= 56
        mask[row:row + n] = tail
        row += n
    if o != buf.size:  # the first line no run of rows took
        raise CorruptRecords(f"{p}: line {row + 2} is not {form}")
    return trigger, mask


def write_records(records: ClickRecords, path) -> None:
    """Write records (.csv or .bin by extension) plus the manifest sidecar.

    Both files are written atomically, the sidecar last; if the sidecar
    cannot be written the record file is removed again, so a failed write
    leaves neither behind.
    """
    p = Path(path)
    _check_records(records, p)  # CorruptRecords, and no file, for what read_records rejects
    if p.suffix == ".bin":
        atomic.write_bytes(p, np.rec.fromarrays(
            [records.trigger, records.mask], dtype=BINARY_DTYPE))
    else:
        atomic.write_bytes(p, _csv_bytes(records))
    try:
        atomic.write_text(manifest_path(p), records.manifest.to_json())
    except BaseException:
        p.unlink(missing_ok=True)
        raise


def read_records(path) -> ClickRecords:
    """Read records and their manifest; CorruptRecords if they disagree.

    Rows must match the manifest's record count, triggers rise strictly and
    stay below its trigger count, masks combine the four detector bits, a
    CSV file be what write_records writes, and the manifest name
    GENERATOR_NAME. The delay is the manifest's alone.
    """
    p = Path(path)
    mpath = manifest_path(p)
    if not mpath.exists():
        raise EmptyInput(f"missing manifest sidecar {mpath}")
    try:
        manifest = RunManifest.from_json(mpath.read_text(encoding="utf-8"))
    except (TypeError, ValueError, NonPhysicalParameter) as exc:  # not JSON, wrong keys or values
        raise CorruptRecords(f"{mpath}: not a run manifest: {exc}") from None
    data = p.read_bytes()
    if p.suffix == ".bin":
        if len(data) % BINARY_DTYPE.itemsize:
            raise CorruptRecords(f"{p}: {len(data)} bytes is not a whole number of "
                                 f"{BINARY_DTYPE.itemsize}-byte records")
        arr = np.frombuffer(data, dtype=BINARY_DTYPE)
        trigger, mask = arr["trigger"].copy(), arr["mask"].copy()
    else:
        trigger, mask = _parse_csv(data, p)
    records = ClickRecords(trigger=trigger, mask=mask, manifest=manifest)
    _check_records(records, p)
    if manifest.generator != GENERATOR_NAME:  # another stream, or another layout
        raise CorruptRecords(f"{mpath}: generator {manifest.generator!r} is not "
                             f"{GENERATOR_NAME!r}, the only one this version reads")
    return records
