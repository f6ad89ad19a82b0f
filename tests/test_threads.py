"""``solve`` and ``load_signal_csv`` called from concurrent threads.

``cross_validate`` runs its tasks on a thread pool, and the compiled
library's calls release the GIL, so solves and scans overlap in one
process.  Every threaded result must equal the one the same call gives
alone: all output fields and ``stats``, ``total_cost`` bit for bit, the
same typed error, and the scanned amplitudes' bits.
"""

import sys
import threading

import numpy as np

from graphseg import graph as gr
from graphseg.data import SynthConfig, generate_synthetic, load_signal_csv, save_record
from graphseg.solver import InfeasibleModelError, Signal, solve
from test_compiled_solver import learned_four_state

ROUNDS = 3
TIMEOUT_S = 60


def run_together(calls):
    """Start every call in its own thread at once, with the interpreter
    switching threads often; their results in order, an exception standing
    for its call's result."""
    barrier = threading.Barrier(len(calls), timeout=TIMEOUT_S)
    results = [None] * len(calls)

    def run(i):
        barrier.wait()
        try:
            results[i] = calls[i]()
        except Exception as exc:  # compared with the serial call's
            results[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def solve_outcome(y, g, start):
    try:
        seg = solve(Signal(y, 360.0), g, start_state=start)
    except InfeasibleModelError as exc:
        return ("infeasible", exc.state, exc.t)
    return (seg.boundaries, seg.edges_taken, seg.states, [m.hex() for m in seg.means],
            seg.total_cost.hex(), seg.stats)


def synthetic(seed, **kw):
    return generate_synthetic(SynthConfig(n_cycles=40, r_amplitude=10.0, noise_sigma=0.2,
                                          baseline_wander_amp=3.0, seed=seed, **kw))


def test_concurrent_solves_equal_serial_ones():
    plain = synthetic(51, heart_rate_bpm=75.0).signal.samples
    dip = synthetic(52, heart_rate_bpm=88.0, pre_r_dip=10.5).signal.samples
    dip_b = synthetic(53, heart_rate_bpm=80.0, pre_r_dip=10.5).signal.samples
    cases = [
        (plain, gr.initial_graph(6.5, 3.0, 50.0), "free"),
        (dip, learned_four_state(), "free"),
        (dip_b, learned_four_state(), 3),
        # squared samples past float64: no finite minimum at the last sample
        (np.full(500, 1e154), gr.initial_graph(1e153, 1e153, 1.0), "free"),
    ]
    calls = [lambda c=c: solve_outcome(*c) for c in cases]
    serial = [call() for call in calls]
    assert serial[3] == ("infeasible", "all", 499)
    for _ in range(ROUNDS):
        assert run_together(calls) == serial


def test_concurrent_scans_equal_serial_ones(tmp_path):
    paths = []
    for i in range(4):
        rec = synthetic(60 + i, heart_rate_bpm=70.0 + 5 * i)
        sp, ap = tmp_path / f"r{i}.csv", tmp_path / f"r{i}.ann"
        save_record(rec, str(sp), str(ap))
        paths.append(str(sp))
    calls = [lambda p=p: load_signal_csv(p).samples.tobytes() for p in paths]
    serial = [call() for call in calls]
    assert len(set(serial)) == 4
    for _ in range(ROUNDS):
        assert run_together(calls) == serial
