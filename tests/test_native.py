"""Building, caching and loading the compiled library."""

import ctypes
import os
import re
import shutil
import stat
import subprocess
import sys

import numpy as np
import pytest

from graphseg import _native, cli, data, pwq, solver
from graphseg import graph as gr
from graphseg._native import NativeBuildError


def test_source_compiles_without_warnings(tmp_path):
    # production builds carry no -Werror; this keeps new warnings out
    cmd = [*_native.CC, *_native.CFLAGS, "-Wall", "-Wextra", "-Werror",
           "-o", str(tmp_path / "solve.so"), _native.SOURCE]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_library_keeps_no_mutable_globals(tmp_path):
    # concurrent ctypes calls (cross_validate's threads, tests/test_threads.py)
    # and the ThreadSanitizer runner rely on the library holding no state:
    # nm must list only code (T, t), read-only data (r) and undefined
    # references (U), never data or bss (D, d, B, b) such as a lazily filled
    # table; and the global code is exactly the entry points that _native.load
    # binds, one per Library field, so that every helper stays static
    if shutil.which("nm") is None:
        pytest.skip("nm is not installed")
    obj = tmp_path / "solve.o"
    flags = [f for f in _native.CFLAGS if f != "-shared"]
    proc = subprocess.run([*_native.CC, *flags, "-c", "-o", str(obj), _native.SOURCE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    listing = subprocess.run(["nm", str(obj)], capture_output=True, text=True, check=True)
    symbols = [tuple(line.split()[-2:]) for line in listing.stdout.splitlines()]
    assert [s for s in symbols if s[0] not in ("T", "t", "r", "U")] == []
    assert sorted(name for kind, name in symbols if kind == "T") == sorted(
        f"graphseg_{field}" for field in _native.Library._fields)


def test_flags_keep_python_rounding():
    # bit-identity with tests/reference_solver.py rests on these flags
    assert "-ffp-contract=off" in _native.CFLAGS
    unsafe = {"-ffast-math", "-Ofast", "-funsafe-math-optimizations"}
    assert not unsafe & set(_native.CFLAGS)


def test_piece_dtype_matches_the_asserted_struct_layout():
    # pwq passes its arrays to C as Piece; the source's _Static_asserts and
    # the dtype must give the same size and offsets
    with open(_native.SOURCE) as fh:
        source = fh.read()
    size = re.findall(r"_Static_assert\(sizeof\(Piece\) == (\d+)", source)
    offsets = dict(re.findall(r"_Static_assert\(offsetof\(Piece, (\w+)\) == (\d+)", source))
    assert size == ["56"] and offsets == {"br": "48", "kind": "52"}
    assert _native.PIECE.itemsize == 56
    fields = {name: off for name, (_, off) in _native.PIECE.fields.items()}
    assert fields == {"lo": 0, "hi": 8, "a": 16, "b": 24, "c": 32, "pt": 40,
                      "br": 48, "kind": 52}


def test_solve_refuses_arrays_of_another_layout():
    # the ndpointer checks keep an array that C would misread out of solve
    g = gr.initial_graph(1.0, 1.0, 1.0)
    edges = solver._edge_array(g)
    packed = edges.astype([(name, _native.EDGE[name]) for name in _native.EDGE.names])

    def call(edges, segs):
        return _native.library().solve(np.zeros(3), 3, len(g.states), -1, len(edges), edges,
                                       -1.0, 1.0, segs, np.zeros(7, np.int64),
                                       ctypes.byref(ctypes.c_double()))

    assert call(edges, np.zeros(3, _native.SEGMENT)) == 0
    with pytest.raises(ctypes.ArgumentError):
        call(packed, np.zeros(3, _native.SEGMENT))
    with pytest.raises(ctypes.ArgumentError):
        call(edges, np.zeros(6, _native.SEGMENT)[::2])


def test_cold_cache_builds_into_a_private_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert all(callable(fn) for fn in _native.load())
    cache = tmp_path / "graphseg"
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    with open(_native.SOURCE, "rb") as fh:
        lib = _native.library_path(fh.read())
    assert os.path.dirname(lib) == str(cache)
    assert [p.name for p in cache.iterdir()] == [os.path.basename(lib)]


def test_shared_cache_directory_is_refused(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    (tmp_path / "graphseg").mkdir()
    os.chmod(tmp_path / "graphseg", 0o777)
    with pytest.raises(NativeBuildError, match="mode 0700"):
        _native.load()


def test_failed_build_is_a_typed_error_and_detect_exits_4(tmp_path, monkeypatch, capsys):
    message = "simulated compiler failure"
    monkeypatch.setattr(_native, "CC", (
        sys.executable, "-c", f"import sys; sys.stderr.write({message!r}); sys.exit(1)"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with pytest.raises(NativeBuildError, match=message) as failure:
        _native.load()
    assert list((tmp_path / "graphseg").iterdir()) == []  # no partial library

    # the import-time build stores its error, and solve, the sample-file
    # scan and every pwq operation that calls the compiled kernels raise it
    monkeypatch.setattr(_native, "_LIBRARY", failure.value)
    sig = tmp_path / "step.csv"
    sig.write_text("sample_index,amplitude\n"
                   + "".join(f"{i},{v}\n" for i, v in enumerate([0, 0, 5, 5, 0])))
    graph = tmp_path / "g.json"
    graph.write_text(gr.serialize(gr.initial_graph(1.0, 1.0, 1.0)))
    rc = cli.main(["detect", "--signal", str(sig), "--graph", str(graph),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 4
    assert message in capsys.readouterr().err
    with pytest.raises(NativeBuildError, match=message):
        data.load_signal_csv(str(sig))
    f = pwq.PiecewiseQuad.point_loss(1.0, (-5.0, 5.0))
    for op in (lambda: pwq.pointwise_min(f, f), lambda: pwq.min_leq_envelope(f, 1.0),
               lambda: pwq.global_min(f)):
        with pytest.raises(NativeBuildError, match=message):
            op()
