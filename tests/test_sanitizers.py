"""``_solve.c`` under the address, undefined-behaviour and thread sanitizers.

``sanitize_runner.c`` runs the library's entry points outside the Python
process.  Built under ``-fsanitize=address,undefined`` as one translation
unit with ``_solve.c`` (``-include``), so that a drift in an entry point's
signature fails to compile, it solves long records, whose decision records
fill several blocks of both streams, scans edge-case sample files, and
writes the sample lines of edge-case amplitudes and of lines that fill its
buffer exactly.
Built under ``-fsanitize=thread``, it solves the same records in several
threads at once, as ``cross_validate``'s thread pool does.  A sanitizer
report fails the run, and the results must equal the ctypes library's.
Each build is skipped where gcc cannot link its sanitizers.
"""

import ctypes
import os
import re
import subprocess

import numpy as np
import pytest

from graphseg import _native
from graphseg import graph as gr
from graphseg.data import SynthConfig, generate_synthetic
from graphseg.solver import Signal, solve_domain
from helpers import halfway_tokens
from test_compiled_solver import learned_four_state
from test_data import neighbours

RUNNER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sanitize_runner.c")
COMMON = ("-fno-omit-frame-pointer", "-g", "-O1", "-ffp-contract=off", "-pthread")
SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all", *COMMON)
TSAN = ("-fsanitize=thread", *COMMON)
ENV = {**os.environ, "ASAN_OPTIONS": "abort_on_error=0:exitcode=99",
       "UBSAN_OPTIONS": "print_stacktrace=1:exitcode=99",
       "TSAN_OPTIONS": "halt_on_error=1:exitcode=99"}
THREADS = 4


def _decision_block():
    with open(_native.SOURCE) as fh:
        return 1 << int(re.search(r"#define DEC_SHIFT (\d+)", fh.read()).group(1))


def _build_runner(tmp, flags, probe_source):
    """The runner built with flags, or skip where the probe program built
    with them does not compile or run."""
    probe = tmp / "probe.c"
    probe.write_text(probe_source)
    proc = subprocess.run([*_native.CC, *flags, "-o", str(tmp / "probe"), str(probe)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        pytest.skip(f"gcc cannot build with {flags[0]}: {proc.stderr.strip()[-300:]}")
    run = subprocess.run([str(tmp / "probe")], env=ENV, capture_output=True, text=True)
    if run.returncode:
        pytest.skip(f"a program built with {flags[0]} does not run: "
                    f"{run.stderr.strip()[-300:]}")
    exe = tmp / "runner"
    proc = subprocess.run([*_native.CC, *flags, "-include", _native.SOURCE,
                           "-o", str(exe), RUNNER, "-lm"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return str(exe)


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return _build_runner(tmp_path_factory.mktemp("sanitize"), SANITIZE,
                         "#include <stdlib.h>\nint main(void) { free(malloc(1)); return 0; }\n")


@pytest.fixture(scope="module")
def tsan_runner(tmp_path_factory):
    return _build_runner(tmp_path_factory.mktemp("tsan"), TSAN,
                         "#include <pthread.h>\nstatic void *run(void *p) { return p; }\n"
                         "int main(void) { pthread_t t; return pthread_create(&t, 0, run, 0) "
                         "|| pthread_join(t, 0); }\n")


def _run(runner, args, data):
    proc = subprocess.run([runner, *args], input=data, capture_output=True, env=ENV)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-3000:]
    return proc.stdout


def _solve_inputs(y, g, start):
    dlo, dhi = solve_domain(Signal(y, 360.0))
    e = g.edges
    return (np.ascontiguousarray(y, dtype=np.float64), len(y), len(g.states), start, len(e),
            np.array([x.source for x in e], dtype=np.int32),
            np.array([x.target for x in e], dtype=np.int32),
            np.array([x.direction == gr.UP for x in e], dtype=np.int8),
            np.array([x.gap for x in e], dtype=np.float64),
            np.array([x.penalty for x in e], dtype=np.float64), dlo, dhi)


def _library_solve(args):
    y, n = args[0], args[1]
    out = (np.zeros(n, np.int64), np.zeros(n, np.int32), np.zeros(n, np.int32),
           np.zeros(n, np.float64))
    info = np.zeros(6, dtype=np.int64)
    total = ctypes.c_double()
    status = _native.library().solve(*args, *out, info, ctypes.byref(total))
    return status, info, total.value, out


def _runner_solve(runner, args, mode=("solve",)):
    y, n, nstates, start, nedges, src, tgt, up, gap, pen, dlo, dhi = args
    data = b"".join([
        np.int64(n).tobytes(), np.array([nstates, start, nedges], np.int32).tobytes(),
        np.array([dlo, dhi]).tobytes(), y.tobytes(), src.tobytes(), tgt.tobytes(),
        up.tobytes(), gap.tobytes(), pen.tobytes()])
    raw = _run(runner, mode, data)
    status = int(np.frombuffer(raw, np.int32, 1)[0])
    info = np.frombuffer(raw, np.int64, 6, 4)
    total = float(np.frombuffer(raw, np.float64, 1, 52)[0])
    pos, out = 60, []
    for dtype in (np.int64, np.int32, np.int32, np.float64):
        out.append(np.frombuffer(raw, dtype, n, pos))
        pos += n * np.dtype(dtype).itemsize
    assert pos == len(raw)
    return status, info, total, out


RECORDS = {
    "plain": (SynthConfig(n_cycles=110, heart_rate_bpm=75.0, r_amplitude=10.0,
                          noise_sigma=0.2, baseline_wander_amp=3.0, seed=31),
              gr.initial_graph(6.5, 3.0, 50.0), -1),
    "dip": (SynthConfig(n_cycles=110, heart_rate_bpm=88.0, r_amplitude=10.0,
                        noise_sigma=0.2, baseline_wander_amp=3.0, pre_r_dip=10.5, seed=37),
            learned_four_state(), -1),
    "dip, start in S3": (SynthConfig(n_cycles=110, heart_rate_bpm=88.0, r_amplitude=10.0,
                                     noise_sigma=0.2, baseline_wander_amp=3.0,
                                     pre_r_dip=10.5, seed=41),
                         learned_four_state(), 3),
}


def _assert_solves_like_library(runner, name, mode=("solve",)):
    cfg, g, start = RECORDS[name]
    y = generate_synthetic(cfg).signal.samples
    args = _solve_inputs(y, g, start)
    status, info, total, out = _runner_solve(runner, args, mode)
    want_status, want_info, want_total, want_out = _library_solve(args)
    assert status == want_status == 0
    assert info.tolist() == want_info.tolist()
    assert repr(total) == repr(want_total)
    first = int(info[0])
    for got, want in zip(out, want_out):
        assert got[first:].tobytes() == want[first:].tobytes()
    # both decision streams of some state cross a block boundary
    block, nstates = _decision_block(), len(g.states)
    assert len(y) > 25_000 and info[4] > nstates * block and info[5] > nstates * block


@pytest.mark.parametrize("name", RECORDS)
def test_solve_under_sanitizers(runner, name):
    _assert_solves_like_library(runner, name)


@pytest.mark.parametrize("name", ["plain", "dip, start in S3"])
def test_threaded_solves_under_thread_sanitizer(tsan_runner, name):
    # the runner also requires the threads' outputs to be equal
    _assert_solves_like_library(tsan_runner, name, ("solve-threads", str(THREADS)))


SCAN_BODIES = [
    b"0,1.5\n1,-2\n2,3e-3\n",
    b"0,1\r\n1,2\r\n",
    b"0,1\n1,2",
    b"0,1\n1,2\r",
    b"0,1\n1,2e",
    b"0,1\n1,-",
    b"0,1\n1,",
    b"0,1\n1",
    b"0,1\n-",
    b"0,1.\n1,2\n",
    b"0,1e+\n1,2\n",
    b"0,1\n1,1e400\n",
    b"0,-0.0\n1,5e-324\n",
    b"9223372036854775806,1\n9223372036854775807,2\n9223372036854775808,3\n",
    b"-9223372036854775808,1\n-9223372036854775807,2\n",
    b"0," + b"1" * 300 + b"\n1,0." + b"0" * 400 + b"1\n2,1e" + b"0" * 30 + b"1\n",
    b"0,18014398509481985\n1,-18014398509481985\n2,1e27\n3,1e28\n4,12345678901234567890\n",
    b"0,1\n\n1,2\n",
    b"",
    b"\n0,1\n \t\n\r\n1,2\n\n",
    b" 0 ,\t1\t\r\n\t1\t, 2 \n",
    b"+0,+1\n1,-.5\n2,.5e1\n3,5.\n4,+5.e-1\n",
    b"0,1\n1,2\n \t ",
    b"0,1\n1,.\n",
    b"0,1\n1,2\r3\n",
    b"0,1\n1,nan\n",
    b"0,1\n1,InFiNiTy",
    b"0,1\n2,2\n",
    b"0,1\n1,2\n99999999999999999999,3\n",
    b"0,1 1\n1,2\n",
    b"0,." + b"0" * 300 + b"1\n1," + b"9" * 80 + b".\n",
]


def _library_parse(data, start):
    out = np.empty(max((len(data) - start + 1) // 4, 0))
    info = np.zeros(3, dtype=np.int64)
    status = _native.library().parse_samples(data, start, len(data), out, len(out), info)
    return status, info, out[:info[0]]


@pytest.mark.parametrize("body", SCAN_BODIES + [None])
def test_scan_under_sanitizers(runner, body):
    header = b"sample_index,amplitude\n"
    if body is None:  # the extended scan's halfway results
        tokens = halfway_tokens(np.random.default_rng(5), 40)
        body = "".join(f"{i},{t}\n" for i, t in enumerate(tokens)).encode()
    data = header + body
    raw = _run(runner, ["parse", str(len(header))], data)
    status = int(np.frombuffer(raw, np.int32, 1)[0])
    info = np.frombuffer(raw, np.int64, 3, 4)
    want_status, want_info, want = _library_parse(data, len(header))
    assert status == want_status
    assert info.tolist() == want_info.tolist()  # count, failing line, index
    assert raw[28:] == want.tobytes()


def _format_in_calls(y, start, cap):
    """What the runner's format command writes, through the ctypes library."""
    fmt = _native.library().format_samples
    out, info, chunks, i = np.empty(cap, np.uint8), np.zeros(2, np.int64), [], start
    while i < len(y):
        left = fmt(y, i, len(y), out, cap, info)
        chunks.append(out[:info[1]].tobytes())
        if left:
            chunks.append(f"{info[0]},?\n".encode())
        assert info[0] + left > i
        i = int(info[0]) + left
    return b"".join(chunks)


def _format_edge_values():
    values = [2.0 ** k for k in range(-1074, 1024)] + [
        0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    near = [v for x in (1e-5, 1e-4, 1e15, 1e16, 2.0 ** 53) for v in neighbours(x, 20)]
    return np.array(values + [-v for v in values] + near)


def _longest_written(rng, count):
    """Negative amplitudes whose repr takes 23 bytes, the longest the library
    writes: 17 digits in the exponent form or after "0.000"."""
    out = []
    while len(out) < count:
        v = -float(rng.uniform(1e-5, 1e-3))
        if len(repr(v)) == 23:
            out.append(v)
    return np.array(out)


@pytest.mark.parametrize("case", ["edge values", "exactly full"])
def test_format_under_sanitizers(runner, case):
    if case == "edge values":
        y, start, cap = _format_edge_values(), 0, 48
    else:  # lines 10-99 all take 27 bytes, and 3 of them fill the buffer
        y, start = _longest_written(np.random.default_rng(67), 100), 10
        cap = 3 * len(f"{start},{y[start]!r}\n")
    got = _run(runner, ["format", str(start), str(cap)], y.tobytes())
    assert got == _format_in_calls(y, start, cap)
    left = 0
    for line, i in zip(got.decode().splitlines(), range(start, len(y))):
        v = float(y[i])
        if line == f"{i},?":  # amplitudes outside [1e-5, 1e15) other than zero
            assert v and not 1e-5 <= abs(v) < 1e15
            left += 1
        else:
            assert line == f"{i},{v!r}"
    assert len(got.splitlines()) == len(y) - start
    assert left if case == "edge values" else not left
