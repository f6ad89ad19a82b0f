"""A line-by-line reader and writer of the sample CSV, over Python's
``int``, ``float`` and ``repr``.

The reader is the differential oracle of the compiled scan that
``graphseg.data.load_signal_csv`` runs (``graphseg_parse_samples`` in
``src/graphseg/_solve.c``).  It reads more spellings than the scan takes:
``_`` between digits, digits and whitespace that are not ASCII, indices
outside int64 and lone CR line ends, which the scan refuses.  On every
other body the two must give the same float64 bits, or errors that name
the same line.

The writer is the oracle of the compiled writer that
``graphseg.data.save_record`` runs (``graphseg_format_samples``), on one
thread or two: both must write the same bytes.

``generate_signal_bumps`` is the oracle of ``graphseg.data.generate_synthetic``,
which adds its Gaussian bumps one offset from the centres at a time: it
adds them one numpy call per bump, and both must give the same samples and
annotations, bit for bit.
"""

import math

import numpy as np

from graphseg.data import (
    PRE_R_OFFSET_S,
    PRE_R_WIDTH_S,
    R_WAVE_WIDTH_S,
    WANDER_FREQ_HZ,
    DataFormatError,
)

_HEADER = "sample_index,amplitude"


def _check_header(path, fh):
    header = fh.readline()
    if header.strip() != _HEADER:
        raise DataFormatError(
            f"{path}:1: expected header {_HEADER!r}, got {header.strip()!r}"
        )


def load_signal_lines(path):
    """The sample CSV's amplitudes, parsed line by line."""
    values = []
    expected = None
    with open(path, "r", encoding="utf-8") as fh:
        _check_header(path, fh)
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise DataFormatError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
            try:
                idx = int(parts[0])
                amp = float(parts[1])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
            if not math.isfinite(amp):
                raise DataFormatError(f"{path}:{lineno}: non-finite amplitude")
            if expected is None:
                expected = idx
            if idx != expected:
                raise DataFormatError(
                    f"{path}:{lineno}: sample_index {idx} breaks the contiguous order"
                )
            expected += 1
            values.append(amp)
    if len(values) < 2:
        raise DataFormatError(f"{path}: needs at least 2 samples, got {len(values)}")
    return np.array(values)


def save_signal_lines(samples, path):
    """Write the sample CSV of samples line by line, each amplitude as its
    repr."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_HEADER + "\n")
        for i, v in enumerate(np.asarray(samples, dtype=np.float64).tolist()):
            fh.write(f"{i},{v!r}\n")


def _add_bump(sig, center, sigma, amp):
    half = int(math.ceil(6.0 * sigma))
    lo = max(0, center - half)
    hi = min(len(sig), center + half + 1)
    if lo < hi:  # a pre-R bump may end before sample 0
        t = np.arange(lo, hi, dtype=np.float64)
        sig[lo:hi] += amp * np.exp(-0.5 * ((t - center) / sigma) ** 2)


def generate_signal_bumps(cfg):
    """The samples and R annotations of generate_synthetic(cfg), from the
    same random draws, with each bump added by a call of its own."""
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
    return sig, centers
