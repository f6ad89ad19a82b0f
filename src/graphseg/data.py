"""Labeled ECG records: text-file ingestion and a synthetic generator.

The on-disk format is deliberately minimal: a two-column CSV
``sample_index,amplitude`` (header required) plus an annotation file with
one 0-based R-peak sample index per line, in ASCII decimal with an
optional sign and spaces or tabs around it (blank lines are skipped).
Both are UTF-8 with LF line endings and full-precision decimal amplitudes.
The compiled library scans a sample file's bytes in one pass and reports
the line it refuses, which the DataFormatError names.  A file that cannot
be read, or holds a byte that is not UTF-8, is a DataFormatError too,
naming the file (and the line).

save_record writes each amplitude as Python's repr writes it, so it reads
back to the same bits.  The compiled library formats the sample lines; the
rare amplitude whose digits it does not compute (below 1e-5 or from 1e15
up in magnitude, other than zero) is written with repr.  A record of fewer
than two chunks of 8,192 lines fills one small buffer with whole lines at
a time.  A longer one, in a process that may run on two CPUs or more, is
formatted a chunk at a time on two threads, the calling one and a helper
that lives for the call only; the calling thread writes the chunks in file
order, and at most two are held at once.  Each file is written beside its
path and renamed into place, so a failed save leaves no partial file.
"""

from __future__ import annotations

import io
import math
import os
import re
import secrets
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _native
from .solver import Signal, is_int


class DataFormatError(ValueError):
    """An input file cannot be read or is malformed; the message names the
    file and, for a malformed one, the line."""


@dataclass
class LabeledRecord:
    record_id: str
    signal: Signal
    rpeak_annotations: np.ndarray
    # evaluation core of a context-padded window, as a (lo, hi) sample span;
    # detections outside it are ignored when scoring
    eval_span: tuple = None

    def __post_init__(self):
        ann = np.asarray(self.rpeak_annotations, dtype=np.int64)
        n = len(self.signal)
        if len(ann) and (ann[0] < 0 or ann[-1] >= n):
            raise ValueError(f"annotations outside [0, {n})")
        if len(ann) > 1 and np.any(np.diff(ann) <= 0):
            raise ValueError("annotations must be strictly increasing")
        self.rpeak_annotations = ann

    @property
    def n_cycles(self):
        return len(self.rpeak_annotations)


_HEADER = "sample_index,amplitude"
# graphseg_parse_samples's reasons for refusing a line (_solve.c)
_SCAN_ERRORS = {
    1: "expected index,amplitude in ASCII decimal, ending in LF or CRLF",
    2: "sample_index {} breaks the contiguous order",
    3: "sample_index outside int64",
    4: "non-finite amplitude",
}


def _read_bytes(path):
    """An input file's bytes; a path that cannot be read (missing, a
    directory, not permitted) is a DataFormatError that names it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read: {exc.strerror or exc}") from None


def _decode(path, data):
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        # lines end where Python's text files end them: "\n", "\r\n" or "\r"
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise DataFormatError(
            f"{path}:{line}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from None


def read_text(path):
    """An input file's text, decoded as UTF-8; a file that cannot be read
    or holds a byte that is not UTF-8 is a DataFormatError that names it
    (and the line)."""
    return _decode(path, _read_bytes(path))


def _quote(text, limit=60):
    """repr of text, cut to its first limit characters and ``...``."""
    return repr(text) if len(text) <= limit else f"{text[:limit]!r}..."


def _refuse(path, data, offset, reason):
    """Raise the DataFormatError for the line of data holding byte offset;
    a byte that is not UTF-8 anywhere in data is named instead."""
    _decode(path, data)
    line = 1 + data.count(b"\n", 0, offset)
    raise DataFormatError(f"{path}:{line}: {reason}")


def load_signal_csv(path, sample_rate=360.0) -> Signal:
    """Read the two-column sample CSV into a Signal.

    After a ``sample_index,amplitude`` header line, the compiled scan reads
    the body in one pass: blank lines, or an ASCII decimal index and
    amplitude with an optional sign (``-12,+.5e-3``), spaces and tabs
    around each field, LF or CRLF line ends, contiguous int64 indices and
    finite amplitudes.  Each amplitude is the double Python's float() gives.
    Any other line is a DataFormatError that names it.
    """
    data = _read_bytes(path)
    start = re.match(rb"[^\r\n]*", data).end()  # the header line's end
    header = data[:start].decode("utf-8", "replace").strip()
    if header != _HEADER:
        _refuse(path, data, 0, f"expected header {_HEADER!r}, got {_quote(header)}")
    # a line takes at least 4 bytes ("0,0\n"), the last one 3
    out = np.empty((len(data) - start + 1) // 4)
    info = np.zeros(3, dtype=np.int64)
    status = _native.library().parse_samples(data, start, len(data), out, len(out), info)
    n, offset, index = info.tolist()
    if status in _SCAN_ERRORS:
        _refuse(path, data, offset, _SCAN_ERRORS[status].format(index))
    if status:  # no memory for a long amplitude, or no room left in out
        raise MemoryError(f"{path}: the compiled sample scan ran out of room ({status})")
    if n < 2:
        raise DataFormatError(f"{path}: needs at least 2 samples, got {n}")
    out.resize(n, refcheck=False)  # shrinks in place
    return Signal(out, sample_rate)


# an annotation line: blank, or one index in the sample scan's grammar
_ANNOTATION = re.compile(r"[ \t]*(?:([+-]?[0-9]+)[ \t]*)?")


def _load_annotations(path, n):
    ann = []
    # newline=None splits lines as a file opened in text mode does
    with io.StringIO(read_text(path), newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            m = _ANNOTATION.fullmatch(line)
            if m is None:
                raise DataFormatError(
                    f"{path}:{lineno}: expected a sample index in ASCII decimal, "
                    f"got {_quote(line)}"
                )
            if m[1] is None:
                continue
            idx = int(m[1])
            if not (0 <= idx < n):
                raise DataFormatError(
                    f"{path}:{lineno}: annotation {idx} outside the signal [0, {n})"
                )
            if ann and idx <= ann[-1]:
                raise DataFormatError(
                    f"{path}:{lineno}: annotation {idx} not strictly increasing"
                )
            ann.append(idx)
    return np.array(ann, dtype=np.int64)


def record_id_of(signal_path):
    """A record's id: its sample file's basename without the extension."""
    return os.path.splitext(os.path.basename(signal_path))[0]


def load_record(signal_path, annotation_path, sample_rate=360.0) -> LabeledRecord:
    """Read a record from its sample CSV and annotation file; its id is
    ``record_id_of(signal_path)``.

    The text format carries no sampling rate, so it is passed in (default
    360 Hz).
    """
    signal = load_signal_csv(signal_path, sample_rate)
    ann = _load_annotations(annotation_path, len(signal))
    return LabeledRecord(record_id_of(signal_path), signal, ann)


def replace_file(path, write):
    """Call write(fh) on a new binary file beside path, then rename it over
    path, so that a failed or interrupted write leaves neither a partial
    file under path nor the new file."""
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{secrets.token_hex(6)}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# the compiled writer's buffer: it stops at the first line that would not fit
_BUFFER_BYTES = 1 << 17
# the two-thread writer's chunk of lines; a record of fewer than two chunks
# is written on the calling thread alone (the helper gains from about 1.5
# chunks up and costs more than it gains below)
_CHUNK_LINES = 8192


def _cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _write_samples(fh, samples):
    """The sample CSV of samples: the header, then "i,repr(samples[i])" per
    line, formatted by the compiled library.  It leaves the amplitudes whose
    digits it does not compute (below 1e-5 or from 1e15 up in magnitude,
    other than zero) to repr.

    A record of fewer than two chunks of lines, or a process that may run
    on one CPU only, is formatted into one buffer, which the library fills
    with whole lines before each write.  A longer one is formatted a chunk
    at a time on two threads: this one formats the even chunks and a helper
    thread the odd ones, into two buffers that take turns, and this one
    writes them in file order.  The library call releases the GIL."""
    fh.write(f"{_HEADER}\n".encode())
    fmt = _native.library().format_samples
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    n = len(samples)
    if n >= 2 * _CHUNK_LINES and _cpus() > 1:  # on one CPU the helper costs ~3%
        _write_in_two_threads(fh, fmt, samples)
        return
    buf = np.empty(_BUFFER_BYTES, dtype=np.uint8)
    view, info = memoryview(buf), np.zeros(2, dtype=np.int64)
    i = 0
    while i < n:
        left = fmt(samples, i, n, buf, len(buf), info)
        i, used = info.tolist()
        fh.write(view[:used])
        if left:
            fh.write(f"{i},{float(samples[i])!r}\n".encode())
            i += 1


def _write_in_two_threads(fh, fmt, samples):
    """Write the lines of samples a chunk at a time, the odd chunks
    formatted on a helper thread that ends before this returns or raises.
    Two chunk buffers take turns: while the helper fills one with the next
    odd chunk, this thread writes the last odd chunk from the other, then
    formats the even chunk after it there and writes it."""
    n = len(samples)
    # a line takes at most the index's digits, a comma, 24 bytes of repr and LF
    size = _CHUNK_LINES * (len(str(n)) + 26)
    a, b = ((np.empty(size, dtype=np.uint8), np.zeros(2, dtype=np.int64)) for _ in range(2))

    def chunk(i, buf):
        """The bytes of the chunk from line i, formatted into buf, which has
        room for all of its lines, those left to repr included."""
        out, info = buf
        stop, used = min(i + _CHUNK_LINES, n), 0
        while i < stop:
            left = fmt(samples, i, stop, out[used:], len(out) - used, info)
            i, wrote = info.tolist()
            used += wrote
            if left:
                line = f"{i},{float(samples[i])!r}\n".encode()
                out[used:used + len(line)] = np.frombuffer(line, dtype=np.uint8)
                used += len(line)
                i += 1
        return out[:used]

    with ThreadPoolExecutor(1) as helper:
        odd = None  # the helper's chunk under way, in b
        for i in range(0, n, 2 * _CHUNK_LINES):
            last = odd.result() if odd else None
            odd = helper.submit(chunk, i + _CHUNK_LINES, a) if i + _CHUNK_LINES < n else None
            if last is not None:
                fh.write(last)
            fh.write(chunk(i, b))
            a, b = b, a
        if odd:
            fh.write(odd.result())


def save_record(record: LabeledRecord, signal_path, annotation_path):
    """Inverse of load_record: the amplitudes are written as repr writes
    them, so they read back to the same bits.  Each file is written beside
    its path and renamed into place."""
    replace_file(signal_path, lambda fh: _write_samples(fh, record.signal.samples))
    text = "".join(f"{idx}\n" for idx in record.rpeak_annotations.tolist())
    replace_file(annotation_path, lambda fh: fh.write(text.encode()))


@dataclass
class SynthConfig:
    """Parameters of the synthetic generator.

    Each cycle gets a Gaussian R bump of fixed 30 ms width at a jittered
    cycle centre, an optional pre-R deflection 90 ms earlier (signed:
    positive is an upward bump, negative a dip), slow sinusoidal baseline
    wander, and white noise.  Ground-truth annotations sit at the exact
    bump-centre samples.
    """

    n_cycles: int
    heart_rate_bpm: float = 75.0
    sample_rate: float = 360.0
    r_amplitude: float = 10.0
    noise_sigma: float = 0.0
    baseline_wander_amp: float = 0.0
    pre_r_dip: float = 0.0
    invert_qrs: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("n_cycles", "heart_rate_bpm", "sample_rate", "r_amplitude",
                     "noise_sigma", "baseline_wander_amp", "pre_r_dip"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name, least in (("n_cycles", 1), ("seed", 0)):
            value = getattr(self, name)
            if not is_int(value) or value < least:
                raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
        if self.heart_rate_bpm <= 0 or self.sample_rate <= 0:
            raise ValueError("rates must be positive")
        if self.r_amplitude <= 0:
            raise ValueError("r_amplitude must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        n = self.n_cycles * self.cycle_samples
        if not (n < _MAX_SAMPLES and round(n) >= 2):
            raise ValueError(
                f"n_cycles * 60 / heart_rate_bpm * sample_rate gives a record of "
                f"{n:.3g} samples; it must be finite, at least 2 and below {_MAX_SAMPLES}")

    @property
    def cycle_samples(self):
        """The samples in one cycle at the mean heart rate."""
        return 60.0 / self.heart_rate_bpm * self.sample_rate


# the most float64 samples an array's byte size can count (numpy's limit)
_MAX_SAMPLES = np.iinfo(np.intp).max // 8


R_WAVE_WIDTH_S = 0.030     # full visible width of the R bump
PRE_R_OFFSET_S = 0.090     # lead time of the pre-R deflection
PRE_R_WIDTH_S = 0.060
WANDER_FREQ_HZ = (0.05, 0.12)  # slow respiratory-style drift


def _add_bumps(sig, centers, sigma, amp):
    """Add to sig, for each centre c in turn, the Gaussian bump
    amp * exp(-0.5 * ((t - c) / sigma) ** 2) on the samples t of sig within
    ceil(6 sigma) of c.  The centres strictly increase, so each offset
    t - c, taken from the largest down, adds to distinct samples, and each
    sample takes the same additions in the same order as from one bump at
    a time."""
    n, half = len(sig), int(math.ceil(6.0 * sigma))
    offsets = np.arange(half, -half - 1, -1)
    bump = amp * np.exp(-0.5 * (offsets.astype(np.float64) / sigma) ** 2)
    # centers[lo:hi] are the centres c with c + o in [0, n)
    los, his = np.searchsorted(centers, -offsets), np.searchsorted(centers, n - offsets)
    for o, b, lo, hi in zip(offsets.tolist(), bump.tolist(), los.tolist(), his.tolist()):
        sig[centers[lo:hi] + o] += b


def generate_synthetic(cfg: SynthConfig) -> LabeledRecord:
    """Deterministic synthetic record with ground-truth R annotations."""
    rng = np.random.default_rng(cfg.seed)
    rate = cfg.sample_rate
    cyc = cfg.cycle_samples
    n = int(round(cfg.n_cycles * cyc))

    jitter = rng.uniform(-0.05, 0.05, cfg.n_cycles)
    centers = np.round((np.arange(cfg.n_cycles) + 0.5 + jitter) * cyc).astype(np.int64)
    centers = np.clip(centers, 0, n - 1)
    if np.any(centers[1:] <= centers[:-1]):
        raise ValueError(
            f"heart_rate_bpm {cfg.heart_rate_bpm!r} at sample_rate {cfg.sample_rate!r} "
            f"gives cycles of {cyc:.3g} samples, and two R peaks fall on one sample")

    sig = np.zeros(n)
    r_amp = -cfg.r_amplitude if cfg.invert_qrs else cfg.r_amplitude
    _add_bumps(sig, centers, R_WAVE_WIDTH_S * rate / 6.0, r_amp)
    if cfg.pre_r_dip != 0.0:
        offset = int(round(PRE_R_OFFSET_S * rate))
        _add_bumps(sig, centers - offset, PRE_R_WIDTH_S * rate / 6.0, cfg.pre_r_dip)

    wander_freq = rng.uniform(*WANDER_FREQ_HZ)
    wander_phase = rng.uniform(0.0, 2.0 * math.pi)
    if cfg.baseline_wander_amp != 0.0:
        t = np.arange(n) / rate
        sig += cfg.baseline_wander_amp * np.sin(2.0 * math.pi * wander_freq * t + wander_phase)

    if cfg.noise_sigma > 0.0:
        sig += rng.normal(0.0, cfg.noise_sigma, n)

    return LabeledRecord(
        record_id=f"synth-{cfg.seed}",
        signal=Signal(sig, rate),
        rpeak_annotations=centers,
    )
