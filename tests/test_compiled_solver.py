"""The compiled solver against the Python reference loop, bit for bit.

``graphseg.solver.solve`` runs the forward pass and backtrack in C;
``reference_solver.solve`` is the same dynamic program in Python.  Every
output field must agree in ``repr``: boundaries, states, edges, means,
total cost and piece statistics, and an infeasible model must fail with
the same error at the same sample.
"""

import ctypes
import warnings

import numpy as np
import pytest

import reference_solver
from graphseg import _native
from graphseg import graph as gr
from graphseg.data import SynthConfig, generate_synthetic
from graphseg.solver import (MAX_IN_EDGES, InfeasibleModelError, Signal, _edge_array, solve,
                             solve_domain)
from helpers import assert_valid_segmentation, random_graph, random_signal, recompute_cost


def outcome(solve_fn, y, g, start):
    try:
        seg = solve_fn(Signal(y, 360.0), g, start_state=start)
    except InfeasibleModelError as exc:
        return ("infeasible", exc.state, exc.t)
    # each boundary is an edge taken and no edge is a self-loop, which
    # extract_rpeaks relies on to take one peak per R segment
    assert all(a != b for a, b in zip(seg.states, seg.states[1:]))
    return tuple(repr(v) for v in (seg.boundaries, seg.states, seg.edges_taken,
                                   seg.means, seg.total_cost, seg.stats))


def assert_matches_reference(y, g, start="free"):
    assert outcome(solve, y, g, start) == outcome(reference_solver.solve, y, g, start)


def any_start(rng, g):
    return ["free", g.baseline_state, int(rng.integers(0, len(g.states)))][
        int(rng.integers(0, 3))]


def scaled(g, gap_scale, penalty_scale):
    edges = tuple(gr.Edge(e.source, e.target, e.direction, e.gap * gap_scale,
                          e.penalty * penalty_scale) for e in g.edges)
    return gr.ConstraintGraph(g.states, edges, g.baseline_state, g.rpeak_state)


def cycle_graph(rng, n_states):
    states = tuple(gr.StateId(i, "B" if i == 0 else "R" if i == 1 else f"S{i}")
                   for i in range(n_states))
    edges = tuple(
        gr.Edge(i, (i + 1) % n_states, gr.UP if rng.random() < 0.5 else gr.DOWN,
                float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.2, 4.0)))
        for i in range(n_states))
    return gr.ConstraintGraph(states, edges, 0, 1)


def test_random_graphs_and_starts():
    rng = np.random.default_rng(2024)
    for _ in range(420):
        y = random_signal(rng, n=int(rng.integers(2, 90)))
        g = random_graph(rng, y)
        assert_matches_reference(y, g, any_start(rng, g))


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9])
def test_amplitude_scales(scale):
    rng = np.random.default_rng(int(np.log10(scale)) + 100)
    for _ in range(40):
        y = random_signal(rng)
        g = scaled(random_graph(rng, y), scale, scale * scale)
        assert_matches_reference(y * scale, g, any_start(rng, g))


def test_zero_gap_edges():
    rng = np.random.default_rng(7)
    for _ in range(120):
        y = random_signal(rng)
        g = random_graph(rng, y, max_gap_cells=0)
        assert_matches_reference(y, g, any_start(rng, g))


def test_runs_of_exact_zeros():
    # means of exact-zero runs are signed zeros; a down edge that maps a
    # constant piece back must give the same sign as the Python loop
    rng = np.random.default_rng(11)
    for _ in range(120):
        y = random_signal(rng) - float(rng.uniform(0.0, 10.0))
        for _ in range(int(rng.integers(1, 4))):
            a = int(rng.integers(0, len(y)))
            y[a:a + int(rng.integers(1, 12))] = 0.0
        g = random_graph(rng, y)
        assert_matches_reference(y, g, any_start(rng, g))


def mapped_outcome(y, g, start, a):
    """outcome of solving the input scaled by a, mapped back to scale 1."""
    try:
        seg = solve(Signal(y * a, 360.0), scaled(g, a, a * a), start_state=start)
    except InfeasibleModelError as exc:
        return ("infeasible", exc.state, exc.t)
    return tuple(repr(v) for v in (seg.boundaries, seg.states, seg.edges_taken,
                                   [m / a for m in seg.means],
                                   seg.total_cost / (a * a), seg.stats))


def test_tiny_amplitudes_solve_a_power_of_two_image():
    # below 2^-20 the solver works on an exact power-of-two image, so every
    # such scale of one input maps back to the same answer bit for bit; in
    # band the Python loop runs on the input itself and must agree
    rng = np.random.default_rng(29)
    for _ in range(6):
        y = random_signal(rng)
        g = random_graph(rng, y)
        start = any_start(rng, g)
        images = set()
        for j in range(-60, 61):
            a = 2.0 ** j
            if np.max(np.abs(y * a)) < 2.0 ** -20:
                images.add(mapped_outcome(y, g, start, a))
            else:
                ga = scaled(g, a, a * a)
                assert outcome(solve, y * a, ga, start) == \
                    outcome(reference_solver._solve, y * a, ga, start)
        assert len(images) == 1


def test_tiny_amplitudes_with_penalties_past_the_image_range():
    # penalty 1 against amplitudes near 1e-300 overflows in the image: the
    # edge is never taken, quietly, in both solvers
    rng = np.random.default_rng(31)
    for amp in [1e-300, 1e-200]:
        y = random_signal(rng) * amp
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_reference(y, gr.initial_graph(0.1 * amp, 0.2 * amp, 1.0), "B")


def test_flat_signals():
    # a zero-span signal takes solve_domain's max(1.0, ...) padding
    rng = np.random.default_rng(13)
    for level in [0.0, -0.0, 1e-9, 1.0, -4.2, 7.5, 1e6, -3e8]:
        for _ in range(8):
            y = np.full(int(rng.integers(2, 60)), level)
            g = random_graph(rng, y)
            assert_matches_reference(y, g, any_start(rng, g))


def test_twenty_state_cycle():
    rng = np.random.default_rng(17)
    for _ in range(40):
        y = random_signal(rng, n=int(rng.integers(10, 80)))
        g = cycle_graph(rng, 20)
        assert gr.validate(g) == []
        assert_matches_reference(y, g, any_start(rng, g))


def test_infeasible_models_fail_alike():
    # squared amplitudes past the float64 range leave no finite minimum at
    # the last sample
    rng = np.random.default_rng(19)
    for amp in [1e154, 1e160, 1e200, 1e300]:
        for _ in range(5):
            y = np.full(int(rng.integers(2, 40)), amp * float(rng.choice([-1.0, 1.0])))
            g = gr.initial_graph(0.1 * amp, 0.1 * amp, 1.0)
            start = any_start(rng, g)
            assert outcome(solve, y, g, start) == ("infeasible", "all", len(y) - 1)
            assert_matches_reference(y, g, start)


def hole_graph(rng, width):
    """B, R and S2, where R's up in-edge from B and down in-edge from S2
    have gaps that each lie below the domain width but sum to more: with R
    not started, its function is covered only above dlo + the up gap and
    below dhi - the down gap, and keeps that hole."""
    up, down = (float(f) * width for f in rng.uniform(0.55, 0.95, 2))
    small = [float(f) * width for f in rng.uniform(0.0, 0.3, 3)]
    pens = [float(p) for p in rng.uniform(0.2, 4.0, 5)]
    edges = (gr.Edge(0, 1, gr.UP, up, pens[0]), gr.Edge(2, 1, gr.DOWN, down, pens[1]),
             gr.Edge(1, 0, gr.DOWN, small[0], pens[2]), gr.Edge(1, 2, gr.UP, small[1], pens[3]),
             gr.Edge(0, 2, gr.UP, small[2], pens[4]))
    return gr.ConstraintGraph((gr.StateId(0, "B"), gr.StateId(1, "R"), gr.StateId(2, "S2")),
                              edges, 0, 1)


# the one solve below whose segmentation costs more than its total_cost:
# the backtrack's slip at R's mean dlo + the up gap (ROADMAP item 16)
HOLE_SLIPS = {(21, "free")}


def test_functions_with_holes():
    # min_k skips R's hole to the next covered piece, and the envelopes of
    # R's out-edges fill it with their running minimum
    rng = np.random.default_rng(43)
    for i in range(25):
        y = random_signal(rng)
        dlo, dhi = solve_domain(Signal(y, 360.0))
        g = hole_graph(rng, dhi - dlo)
        for start in ("free", 0, 1, 2):
            assert_matches_reference(y, g, start)
            seg = solve(Signal(y, 360.0), g, start_state=start)
            if (i, start) in HOLE_SLIPS:
                assert recompute_cost(y, g, seg) > seg.total_cost + 1.0
            else:
                assert_valid_segmentation(y, g, seg)


def test_cost_overflow_is_a_typed_error():
    # here the overflow makes a NaN breakpoint, on which the Python loop's
    # pointwise minimum never advances; the compiled sweep stops and says so
    amp = 1e154
    y = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0]) * amp
    with pytest.raises(ValueError, match="overflow"):
        solve(Signal(y, 360.0), gr.initial_graph(0.1 * amp, 0.1 * amp, 1.0))


def learned_four_state():
    return gr.ConstraintGraph(
        states=(gr.StateId(0, "B"), gr.StateId(1, "R"), gr.StateId(2, "S2"),
                gr.StateId(3, "S3")),
        edges=(gr.Edge(0, 2, gr.UP, 6.5, 50.0), gr.Edge(2, 3, gr.DOWN, 3.25, 50.0),
               gr.Edge(3, 1, gr.UP, 3.25, 50.0), gr.Edge(1, 0, gr.DOWN, 3.0, 50.0)),
        baseline_state=0,
        rpeak_state=1,
    )


# full-length records of the benchmark's detect workload: a plain
# 100,512-sample record under the 2-state graph and a pre-R-dip record under
# the learned 4-state graph
CORPUS = {
    "plain": (SynthConfig(n_cycles=349, heart_rate_bpm=75.0, r_amplitude=10.0,
                          noise_sigma=0.2, baseline_wander_amp=3.0, seed=31),
              gr.initial_graph(6.5, 3.0, 50.0)),
    "dip": (SynthConfig(n_cycles=230, heart_rate_bpm=88.0, r_amplitude=10.0,
                        noise_sigma=0.2, baseline_wander_amp=3.0, pre_r_dip=10.5, seed=37),
            learned_four_state()),
}


@pytest.mark.parametrize("record", ["plain", "dip"])
def test_detect_corpus_records(record):
    cfg, g = CORPUS[record]
    assert_matches_reference(generate_synthetic(cfg).signal.samples, g)


def three_in_edge_graph():
    # R's in-edges, in edge order, are up, down, up, so R's candidate goes
    # through min_k three times a step and its result alternates between the
    # two scratch lists
    return gr.ConstraintGraph(
        states=(gr.StateId(0, "B"), gr.StateId(1, "R"), gr.StateId(2, "S2"),
                gr.StateId(3, "S3")),
        edges=(gr.Edge(0, 1, gr.UP, 6.0, 40.0), gr.Edge(2, 1, gr.DOWN, 2.0, 30.0),
               gr.Edge(3, 1, gr.UP, 3.0, 30.0), gr.Edge(1, 0, gr.DOWN, 3.0, 40.0),
               gr.Edge(0, 2, gr.UP, 4.0, 30.0), gr.Edge(0, 3, gr.DOWN, 2.0, 30.0)),
        baseline_state=0,
        rpeak_state=1,
    )


@pytest.mark.parametrize("start", ["free", 0, 2])
def test_state_with_three_in_edges(start):
    # a start in B or S2 leaves R's stay candidate empty at the first steps,
    # so a branch becomes the candidate before any min_k
    cfg = SynthConfig(n_cycles=10, heart_rate_bpm=75.0, r_amplitude=10.0,
                      noise_sigma=0.3, baseline_wander_amp=2.0, pre_r_dip=4.0, seed=3)
    y = generate_synthetic(cfg).signal.samples
    g = three_in_edge_graph()
    assert len(y) > 2500
    assert {0, 1, 2} <= set(solve(Signal(y, 360.0), g, start_state=start).edges_taken)
    assert_matches_reference(y, g, start)


def hub_graph(n_hub):
    """R with n_hub in-edges: even ones up from B (the gap rises as the
    penalty falls, so different jumps take different edges), odd ones down
    from S2.  R's edge back to B comes first and B's edge to S2 halfway, so
    an in-edge's position among R's in-edges is not its edge index."""
    hub = []
    for j in range(n_hub):
        if j % 2 == 0:
            hub.append(gr.Edge(0, 1, gr.UP, 1.0 + 0.25 * j, 60.0 - 1.0 * j))
        else:
            hub.append(gr.Edge(2, 1, gr.DOWN, 0.5 + 0.1 * j, 40.0 - 0.5 * j))
    half = n_hub // 2
    edges = ((gr.Edge(1, 0, gr.DOWN, 3.0, 40.0),) + tuple(hub[:half])
             + (gr.Edge(0, 2, gr.UP, 2.0, 30.0),) + tuple(hub[half:]))
    return gr.ConstraintGraph((gr.StateId(0, "B"), gr.StateId(1, "R"), gr.StateId(2, "S2")),
                              edges, 0, 1)


def test_hub_state_with_forty_in_edges():
    # a run's code holds the taken edge's position among R's in-edges;
    # positions far above 1 must map back to the right edges
    cfg = SynthConfig(n_cycles=2, heart_rate_bpm=75.0, r_amplitude=10.0, noise_sigma=0.3,
                      baseline_wander_amp=2.0, pre_r_dip=4.0, seed=3)
    y = generate_synthetic(cfg).signal.samples
    g = hub_graph(40)
    taken = set(solve(Signal(y, 360.0), g).edges_taken)
    positions = {p for p, (i, _) in enumerate(g.in_edges(1)) if i in taken}
    assert max(positions) > 20 and len(positions) >= 2
    assert_matches_reference(y, g)


def limit_graph(n_hub):
    """B and R, where R has n_hub up edges from B after its edge back: only
    the last can be taken, the others' gaps being past any record here."""
    hub = [gr.Edge(0, 1, gr.UP, 1e6 + j, 1.0) for j in range(n_hub - 1)]
    edges = (gr.Edge(1, 0, gr.DOWN, 1.0, 1.0), *hub, gr.Edge(0, 1, gr.UP, 1.0, 1.0))
    return gr.ConstraintGraph((gr.StateId(0, "B"), gr.StateId(1, "R")), edges, 0, 1)


def test_in_edge_limit():
    # the 13 bits of a run's code tell apart MAX_IN_EDGES in-edges per state
    with open(_native.SOURCE) as fh:
        assert f"#define MAX_IN_EDGES {MAX_IN_EDGES}\n" in fh.read()
    y = np.array([0.0, 0.0, 10.0, 10.0, 0.0])
    g = limit_graph(MAX_IN_EDGES)
    assert solve(Signal(y, 360.0), g, start_state="B").edges_taken == [MAX_IN_EDGES, 0]
    assert_matches_reference(y, g, "B")

    over = limit_graph(MAX_IN_EDGES + 1)
    # the compiled solver refuses it, naming the state and its in-edge count
    dlo, dhi = solve_domain(Signal(y, 360.0))
    info = np.zeros(7, np.int64)
    status = _native.library().solve(y, len(y), 2, -1, len(over.edges), _edge_array(over),
                                     dlo, dhi, np.zeros(len(y), _native.SEGMENT),
                                     info, ctypes.byref(ctypes.c_double()))
    assert status == 6  # SOLVE_TOO_MANY_IN_EDGES
    assert info[1:3].tolist() == [1, MAX_IN_EDGES + 1]
    with pytest.raises(ValueError, match=rf"state 1 \(R\) has {MAX_IN_EDGES + 1} in-edges; "
                                         rf"solve takes at most {MAX_IN_EDGES} per state"):
        solve(Signal(y, 360.0), over)


@pytest.mark.parametrize("record, bound", [("plain", 100), ("dip", 175)])
def test_decision_record_bytes_per_sample(record, bound):
    # 2 bytes per run, 8 per run but the last of its (state, step) and 8 per
    # point: about 91 and 160 B/sample on these records, against 139 and 256
    # with 12 bytes per run and two 32-bit counts per (state, sample)
    cfg, g = CORPUS[record]
    y = generate_synthetic(cfg).signal.samples
    stats = solve(Signal(y, 360.0), g).stats
    assert stats["decision_bytes"] <= bound * len(y)
    assert stats["decision_bytes"] > 2 * stats["decision_runs"] + 8 * stats["point_runs"]
