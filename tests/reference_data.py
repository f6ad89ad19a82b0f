"""A line-by-line reader of the sample CSV, over Python's ``int`` and
``float``.

This is the differential oracle of the compiled scan that
``graphseg.data.load_signal_csv`` runs (``graphseg_parse_samples`` in
``src/graphseg/_solve.c``).  It reads more spellings than the scan takes:
``_`` between digits, digits and whitespace that are not ASCII, indices
outside int64 and lone CR line ends, which the scan refuses.  On every
other body the two must give the same float64 bits, or errors that name
the same line.
"""

import math

import numpy as np

from graphseg.data import DataFormatError

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
