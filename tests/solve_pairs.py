"""Time the compiled solve of a git revision against the working tree's.

Builds ``src/graphseg/_solve.c`` as it is at the revision and as it is in
the working tree, with ``_native.CC`` and ``_native.CFLAGS``, into a
temporary directory, loads both libraries into this process and runs
interleaved pairs of ``graphseg_solve`` calls in a random order on the
benchmark's detect records (the plain record under the 2-state graph and
the pre-R-dip record under the learned 4-state graph, free start) and on
1,000-sample windows of them solved from the baseline state, as the
learner of ``cross_validate`` solves its windows.  The inputs come from
``perfbench/workloads.py``.  Every pair's outputs (segments, info and
total cost) must be byte-equal.  It prints, per input, the median and the
quartiles of the change/base time ratio.  Run from the repository root:

    python tests/solve_pairs.py HEAD~1 --pairs 41
"""

from __future__ import annotations

import argparse
import ctypes
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from graphseg import _native, solver  # noqa: E402
from graphseg.solver import Signal  # noqa: E402
from workloads import Detect  # noqa: E402

WINDOW = 1_000
WINDOWS_PER_RECORD = 20


def revision_source(rev):
    """The text of _solve.c at a git revision of this repository."""
    return subprocess.run(["git", "show", f"{rev}:src/graphseg/_solve.c"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


def build(sources, tmp):
    """Each source compiled and loaded; returns their graphseg_solve."""
    paths, procs = [], []
    for i, text in enumerate(sources):
        src, lib = os.path.join(tmp, f"solve{i}.c"), os.path.join(tmp, f"solve{i}.so")
        with open(src, "w") as fh:
            fh.write(text)
        paths.append(lib)
        procs.append(subprocess.Popen([*_native.CC, *_native.CFLAGS, "-o", lib, src],
                                      stderr=subprocess.PIPE, text=True))
    for proc in procs:
        _, err = proc.communicate()
        if proc.returncode:
            raise RuntimeError(f"gcc exited with {proc.returncode}:\n{err}")
    solves = []
    for path in paths:
        fn = ctypes.CDLL(path).graphseg_solve
        fn.argtypes = _native.library().solve.argtypes
        fn.restype = ctypes.c_int
        solves.append(fn)
    return solves


def solve_args(y, g, start):
    """graphseg_solve's inputs (start -1 for a free start), as solver.solve
    makes them for a signal whose amplitudes need no scaling."""
    y = np.ascontiguousarray(y, dtype=np.float64)
    dlo, dhi = solver.solve_domain(Signal(y, 360.0))
    edges = solver._edge_array(g)
    return y, len(y), len(g.states), start, len(edges), edges, dlo, dhi


def inputs(seed, tiny, workdir):
    """name -> list of solve inputs: each detect record whole, and the
    windows cut from both."""
    detect = Detect(seed=seed, tiny=tiny)
    detect.setup(workdir)
    out, windows = {}, []
    for name, rec, g, _path in detect.cases:
        y = rec.signal.samples
        out[name] = [solve_args(y, g, -1)]
        for lo in range(0, min(len(y) // WINDOW, WINDOWS_PER_RECORD) * WINDOW, WINDOW):
            windows.append(solve_args(y[lo:lo + WINDOW], g, g.baseline_state))
    out["windows"] = windows
    return out


def timed(fn, cases):
    """Seconds to solve every case, and the outputs."""
    outs = [(np.zeros(a[1], _native.SEGMENT), np.zeros(7, np.int64), ctypes.c_double())
            for a in cases]
    t0 = time.perf_counter()
    for args, (segs, info, total) in zip(cases, outs):
        if fn(*args, segs, info, ctypes.byref(total)):
            raise RuntimeError("graphseg_solve failed")
    seconds = time.perf_counter() - t0
    return seconds, [(segs.tobytes(), info.tobytes(), repr(total.value))
                     for segs, info, total in outs]


def compare(base_source, change_source, pairs=41, seed=1, tiny=False):
    """name -> (samples, change/base ratios), from pairs interleaved, randomly
    ordered pairs per input, each with byte-equal outputs."""
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory(prefix="solve-pairs-") as tmp:
        solves = build([base_source, change_source], tmp)
        cases = inputs(seed, tiny, os.path.join(tmp, "work"))
        ratios = {name: [] for name in cases}
        for _ in range(pairs):
            for name, args in cases.items():
                seconds = [0.0, 0.0]
                outputs = [None, None]
                for side in rng.permutation(2):
                    seconds[side], outputs[side] = timed(solves[side], args)
                if outputs[0] != outputs[1]:
                    raise AssertionError(f"{name}: the two builds' outputs differ")
                ratios[name].append(seconds[1] / seconds[0])
        return {name: (sum(a[1] for a in args), ratios[name]) for name, args in cases.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev", help="git revision to time the working tree against")
    p.add_argument("--pairs", type=int, default=41)
    p.add_argument("--seed", type=int, default=1, help="workload seed and pair order")
    args = p.parse_args(argv)
    with open(_native.SOURCE) as fh:
        change = fh.read()
    results = compare(revision_source(args.rev), change, args.pairs, args.seed)
    print(f"change/base time of {args.rev} -> working tree, {args.pairs} pairs each, "
          "outputs byte-equal")
    for name, (samples, ratios) in results.items():
        q1, med, q3 = np.percentile(ratios, [25, 50, 75])
        print(f"{name:8s} {samples:7d} samples  median {med:.3f}  "
              f"quartiles {q1:.3f}-{q3:.3f}")


if __name__ == "__main__":
    main()
