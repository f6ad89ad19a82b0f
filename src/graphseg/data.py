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
back to the same bits.  The compiled library formats the sample lines a
chunk at a time into one small buffer; the rare amplitude whose digits it
does not compute (below 1e-5 or from 1e15 up in magnitude, other than
zero) is written with repr.  Each file is written beside its path and
renamed into place, so a failed save leaves no partial file.
"""

from __future__ import annotations

import io
import math
import os
import re
import secrets
from dataclasses import dataclass

import numpy as np

from . import _native
from .solver import Signal


class DataFormatError(ValueError):
    """An input file cannot be read or is malformed; the message names the
    file and, for a malformed one, the line."""


@dataclass
class LabeledRecord:
    record_id: str
    signal: Signal
    rpeak_annotations: np.ndarray
    lead: str = "MLII"
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


def load_record(signal_path, annotation_path, sample_rate=360.0, lead="MLII",
                record_id=None) -> LabeledRecord:
    """Read a record from its sample CSV and annotation file.

    The text format carries no sampling rate, so it is passed in (default
    360 Hz).
    """
    signal = load_signal_csv(signal_path, sample_rate)
    ann = _load_annotations(annotation_path, len(signal))
    if record_id is None:
        record_id = record_id_of(signal_path)
    return LabeledRecord(record_id, signal, ann, lead=lead)


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


# lines per call of the compiled writer, and the longest line it writes: an
# int64 index, a comma, 24 bytes of repr and LF
_CHUNK_LINES = 4096
_LINE_BYTES = 48


def _write_samples(fh, samples):
    """The sample CSV of samples: the header, then "i,repr(samples[i])" per
    line, formatted by the compiled library a chunk of lines at a time into
    one buffer.  It leaves the amplitudes whose digits it does not compute
    (below 1e-5 or from 1e15 up in magnitude, other than zero) to repr."""
    fh.write(f"{_HEADER}\n".encode())
    fmt = _native.library().format_samples
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    buf = np.empty(_CHUNK_LINES * _LINE_BYTES, dtype=np.uint8)
    view, info = memoryview(buf), np.zeros(2, dtype=np.int64)
    i, n = 0, len(samples)
    while i < n:
        left = fmt(samples, i, min(i + _CHUNK_LINES, n), buf, len(buf), info)
        i, used = info.tolist()
        fh.write(view[:used])
        if left:
            fh.write(f"{i},{float(samples[i])!r}\n".encode())
            i += 1


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
    cycle centre, an optional pre-R deflection 150 ms earlier (signed:
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
        if self.n_cycles < 1:
            raise ValueError("n_cycles must be >= 1")
        if self.heart_rate_bpm <= 0 or self.sample_rate <= 0:
            raise ValueError("rates must be positive")
        if self.r_amplitude <= 0:
            raise ValueError("r_amplitude must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        n = self.n_cycles * self.cycle_samples
        if not n < _MAX_SAMPLES:
            raise ValueError(
                f"n_cycles * 60 / heart_rate_bpm * sample_rate gives a record of "
                f"{n:.3g} samples; it must be finite and below {_MAX_SAMPLES}")

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


def _add_bump(sig, center, sigma, amp):
    half = int(math.ceil(6.0 * sigma))
    lo = max(0, center - half)
    hi = min(len(sig), center + half + 1)
    t = np.arange(lo, hi, dtype=np.float64)
    sig[lo:hi] += amp * np.exp(-0.5 * ((t - center) / sigma) ** 2)


def generate_synthetic(cfg: SynthConfig) -> LabeledRecord:
    """Deterministic synthetic record with ground-truth R annotations."""
    rng = np.random.default_rng(cfg.seed)
    rate = cfg.sample_rate
    cyc = cfg.cycle_samples
    n = int(round(cfg.n_cycles * cyc))

    jitter = rng.uniform(-0.05, 0.05, cfg.n_cycles)
    centers = np.round((np.arange(cfg.n_cycles) + 0.5 + jitter) * cyc).astype(np.int64)
    centers = np.clip(centers, 0, n - 1)

    sig = np.zeros(n)
    r_sigma = R_WAVE_WIDTH_S * rate / 6.0
    r_amp = -cfg.r_amplitude if cfg.invert_qrs else cfg.r_amplitude
    for c in centers:
        _add_bump(sig, int(c), r_sigma, r_amp)

    if cfg.pre_r_dip != 0.0:
        offset = int(round(PRE_R_OFFSET_S * rate))
        p_sigma = PRE_R_WIDTH_S * rate / 6.0
        for c in centers:
            _add_bump(sig, int(c) - offset, p_sigma, cfg.pre_r_dip)

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
        lead="SYN",
    )
