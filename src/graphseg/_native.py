"""Build and load the compiled library in ``_solve.c``: the solver's forward
pass and backtrack (``graphseg_solve``, which takes the graph as one array
of ``EDGE`` and writes one array of ``SEGMENT``), the kernels of the public
``graphseg.pwq`` operations (``graphseg_min``, ``graphseg_global_min`` and
``graphseg_envelope``, the change operator of ``solve``'s edges), the
sample-file scanner (``graphseg_parse_samples``) and the sample-file writer
(``graphseg_format_samples``, whose amplitudes are byte for byte their
Python ``repr``).

The C source is compiled once with the system ``gcc`` into a shared library
cached in ``$XDG_CACHE_HOME/graphseg`` (``~/.cache/graphseg`` when unset),
a directory private to the user.  The file name holds the sha256 of the
source, the compiler command and the platform, so an edited source or a
different flag set builds a new library and never loads a stale one.  A
build writes a temporary file in the cache directory and renames it into
place, so processes building at the same time never load a partial file.

``-ffp-contract=off`` keeps the compiler from fusing a multiply and an add
into one instruction that rounds once: every floating-point operation then
rounds as Python's does, the compiled solver matches the Python loop bit
for bit, and the decimal-to-double multiply or divide with which the
scanner reads and the writer checks its digits rounds once.  ``-O2`` makes
``solve`` 25-40% faster than ``-Os`` on the benchmark's detect records.
It costs more only on a first run with an empty cache: gcc 12 peaks at
about 42 MiB and takes about 0.6 s, against 38 MiB and 0.4 s at ``-Os``
(2-vCPU VM).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from typing import NamedTuple

import numpy as np

CC = ("gcc",)
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_solve.c")


# The C struct Piece, field for field: (lo, hi, a, b, c) for a*m^2 + b*m + c
# on [lo, hi], then the tag (pt, br, kind).  _solve.c asserts the same
# offsets and size.
PIECE = np.dtype({
    "names": ["lo", "hi", "a", "b", "c", "pt", "br", "kind"],
    "formats": ["f8"] * 6 + ["i4", "i1"],
    "offsets": [0, 8, 16, 24, 32, 40, 48, 52],
    "itemsize": 56,
})

# graphseg_solve's C structs Edge (its input, one per edge) and Segment (its
# output), laid out as C lays them out; _solve.c asserts their layout.
EDGE = np.dtype([("gap", "f8"), ("penalty", "f8"), ("source", "i4"), ("target", "i4"),
                 ("up", "i1")], align=True)
SEGMENT = np.dtype([("bound", "i8"), ("mean", "f8"), ("edge", "i4"), ("state", "i4")],
                   align=True)


class NativeBuildError(RuntimeError):
    """The compiled library could not be built or loaded."""


class Library(NamedTuple):
    """The functions of the compiled library, with their argument types."""

    solve: object
    parse_samples: object
    format_samples: object
    min: object
    envelope: object
    global_min: object


def cache_dir():
    """The per-user cache directory of compiled libraries."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "graphseg")


def _private_dir(path):
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.stat(path)
    if st.st_uid != os.getuid() or st.st_mode & 0o077:
        raise NativeBuildError(
            f"cache directory {path} must be owned by this user with mode 0700"
        )


def library_path(source: bytes):
    """The cached library's path for this source, compiler and platform."""
    key = hashlib.sha256(source)
    key.update("\0".join(CC + CFLAGS).encode())
    key.update(f"\0{sys.platform}\0{platform.machine()}".encode())
    return os.path.join(cache_dir(), f"_solve-{key.hexdigest()}.so")


def build(path):
    """Compile ``_solve.c`` into ``path``."""
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so",
                               dir=os.path.dirname(path))
    os.close(fd)
    try:
        cmd = [*CC, *CFLAGS, "-o", tmp, SOURCE]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise NativeBuildError(f"cannot run {' '.join(cmd)}: {exc}") from exc
        if proc.returncode != 0:
            raise NativeBuildError(
                f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}"
            )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _array(dtype):
    return np.ctypeslib.ndpointer(dtype=dtype, ndim=1, flags="C_CONTIGUOUS")


def load():
    """The functions of the cached library, built first when the cache has
    none for this source."""
    with open(SOURCE, "rb") as fh:
        path = library_path(fh.read())
    try:
        _private_dir(os.path.dirname(path))
    except OSError as exc:
        raise NativeBuildError(f"cannot create cache directory: {exc}") from exc
    if not os.path.exists(path):
        build(path)
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        raise NativeBuildError(f"cannot load {path}: {exc}") from exc
    f64, i64, u8, pieces, edges, segments = (
        _array(t) for t in (np.float64, np.int64, np.uint8, PIECE, EDGE, SEGMENT))
    solve = lib.graphseg_solve
    solve.argtypes = [
        f64, ctypes.c_int64, ctypes.c_int32, ctypes.c_int32,  # y, n, states, start
        ctypes.c_int32, edges,  # edge count, edges
        ctypes.c_double, ctypes.c_double,  # domain
        segments, i64,  # out: segments, info
        ctypes.POINTER(ctypes.c_double),  # out: total cost
    ]
    solve.restype = ctypes.c_int
    parse = lib.graphseg_parse_samples
    parse.argtypes = [
        ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64,  # bytes, body start, length
        f64, ctypes.c_int64, i64,  # out: amplitudes, capacity, info
    ]
    parse.restype = ctypes.c_int
    fmt = lib.graphseg_format_samples
    fmt.argtypes = [
        f64, ctypes.c_int64, ctypes.c_int64,  # amplitudes, first and end index
        u8, ctypes.c_int64, i64,  # out: bytes, capacity, info
    ]
    fmt.restype = ctypes.c_int
    pmin = lib.graphseg_min
    pmin.argtypes = [pieces, ctypes.c_int64, pieces, ctypes.c_int64, pieces]
    pmin.restype = ctypes.c_int64
    envelope = lib.graphseg_envelope
    envelope.argtypes = [pieces, ctypes.c_int64, ctypes.c_double, ctypes.c_int32,  # f, n, gap, up
                         ctypes.c_double, ctypes.c_double, pieces, pieces]  # domain, env, out
    envelope.restype = ctypes.c_int64
    global_min = lib.graphseg_global_min
    global_min.argtypes = [pieces, ctypes.c_int64, ctypes.POINTER(ctypes.c_double)]
    global_min.restype = ctypes.c_double
    return Library(solve, parse, fmt, pmin, envelope, global_min)


# Built or found in the cache once, at import: before any timed call and
# before the threads of cross_validate share it.  A failed build is
# stored for library() to raise, and the command line to report.
try:
    _LIBRARY = load()
except NativeBuildError as exc:
    _LIBRARY = exc


def library() -> Library:
    """The library loaded at import, or raise the build's NativeBuildError."""
    if isinstance(_LIBRARY, NativeBuildError):
        raise _LIBRARY.with_traceback(None)
    return _LIBRARY
