"""Solver tests: exact cases, oracle agreement, equivariances, extraction."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from graphseg import graph as gr
from graphseg.solver import (
    Signal,
    extract_rpeaks,
    solve,
    solve_domain,
)
from grid_oracle import grid_dp, grid_refit_cost, resolution_bound
from helpers import assert_valid_segmentation, random_graph, random_signal


def sig(values, rate=360.0):
    return Signal(np.asarray(values, dtype=float), rate)


STEP = [0.0, 0.0, 0.0, 10.0, 10.0, 0.0, 0.0]


def test_exact_fit_step_signal():
    g = gr.initial_graph(1.0, 1.0, 1.0)
    seg = solve(sig(STEP), g, start_state="B")
    assert seg.boundaries == [3, 5]
    assert seg.states == [0, 1, 0]
    assert seg.edges_taken == [0, 1]
    assert seg.means == pytest.approx([0.0, 10.0, 0.0], abs=1e-9)
    assert seg.total_cost == pytest.approx(2.0, abs=1e-9)


def test_exact_fit_free_start():
    g = gr.initial_graph(1.0, 1.0, 1.0)
    seg = solve(sig(STEP), g)
    assert seg.boundaries == [3, 5]
    assert seg.total_cost == pytest.approx(2.0, abs=1e-9)


def test_constant_signal_huge_penalty():
    g = gr.initial_graph(1.0, 1.0, 1e6)
    seg = solve(sig([4.2] * 100), g)
    assert seg.boundaries == []
    assert seg.states == [0]
    assert seg.means[0] == pytest.approx(4.2, abs=1e-6)
    assert seg.total_cost == pytest.approx(0.0, abs=1e-6)


def test_solve_rejects_invalid_graph():
    # the constructor refuses the graph, so solve never sees it
    with pytest.raises(gr.GraphValidationError) as exc:
        gr.ConstraintGraph(
            states=(gr.StateId(0, "B"), gr.StateId(1, "R")),
            edges=(gr.Edge(0, 1, "up", 1.0, -1.0), gr.Edge(1, 0, "down", 1.0, 1.0)),
            baseline_state=0,
            rpeak_state=1,
        )
    assert any("penalty must be non-negative" in v for v in exc.value.violations)


def test_solve_rejects_unknown_start_state():
    g = gr.initial_graph(1, 1, 1)
    with pytest.raises(ValueError, match="'Q' is not a state"):
        solve(sig(STEP), g, start_state="Q")
    with pytest.raises(ValueError):
        solve(sig(STEP), g, start_state=7)


def test_solve_takes_only_a_constraint_graph():
    # a look-alike skips the constructor's check, so its endpoints would
    # reach the compiled code unchecked
    g = gr.initial_graph(1, 1, 1)
    fake = SimpleNamespace(**{**vars(g), "edges": g.edges + (gr.Edge(0, 5, "up", 1.0, 1.0),)})
    with pytest.raises(TypeError, match="must be a ConstraintGraph, got SimpleNamespace"):
        solve(sig(STEP), fake)


@pytest.mark.parametrize("start", [True, False])
def test_solve_rejects_bool_start_state(start):
    # True == 1 and False == 0, but a bool is not a state id
    g = gr.initial_graph(1, 1, 1)
    with pytest.raises(ValueError, match=f"start_state {start} is not a state"):
        solve(sig(STEP), g, start_state=start)


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(np.array([1.0]), 360.0)
    with pytest.raises(ValueError):
        Signal(np.array([1.0, np.nan]), 360.0)
    with pytest.raises(ValueError):
        Signal(np.array([1.0, 2.0]), 0.0)


@pytest.mark.parametrize("rate", [math.inf, math.nan, -math.inf])
def test_signal_refuses_non_finite_sample_rate(rate):
    with pytest.raises(ValueError, match="sample_rate must be positive and finite"):
        Signal(np.array([1.0, 2.0]), rate)


def test_solve_domain_pads_range():
    lo, hi = solve_domain(sig([0.0, 10.0]))
    assert lo == pytest.approx(-0.1)
    assert hi == pytest.approx(10.1)
    lo, hi = solve_domain(sig([4.2, 4.2]))
    assert lo < 4.2 < hi


def test_gap_larger_than_range_means_no_change():
    # both edges infeasible, so the best model is a single segment
    g = gr.initial_graph(100.0, 100.0, 1.0)
    seg = solve(sig([0, 1, 0, 1, 0, 1]), g)
    assert seg.boundaries == []
    assert seg.means[0] == pytest.approx(0.5, abs=1e-9)


def test_oracle_equivalence_small_batch():
    rng = np.random.default_rng(1234)
    ambiguous = 0
    for _ in range(30):
        y = random_signal(rng)
        g = random_graph(rng, y)
        s = sig(y)
        dom = solve_domain(s)
        seg = solve(s, g)
        assert_valid_segmentation(y, g, seg)
        oc, ob, _, _, _ = grid_dp(y, g, dom)
        bound = resolution_bound(len(y), dom)
        assert seg.total_cost <= oc + 1e-6
        assert seg.total_cost >= oc - bound - 1e-9
        if seg.boundaries != ob:
            refit = grid_refit_cost(y, g, dom, 801, seg.boundaries, seg.edges_taken)
            assert refit <= oc + 10 * bound, "boundary mismatch beyond uniqueness margin"
            ambiguous += 1
    assert ambiguous <= 3


def test_start_state_restriction_changes_solution():
    # with start fixed to R, the first segment must be R
    g = gr.initial_graph(1.0, 1.0, 1.0)
    seg = solve(sig(STEP), g, start_state="R")
    assert seg.states[0] == 1


def test_shift_equivariance():
    rng = np.random.default_rng(99)
    for _ in range(20):
        y = random_signal(rng, n=40)
        g = random_graph(rng, y, n_states=2)
        base = solve(sig(y), g)
        shifted = solve(sig(y + 13.25), g)
        assert shifted.boundaries == base.boundaries
        assert shifted.states == base.states
        for m1, m2 in zip(base.means, shifted.means):
            assert m2 - 13.25 == pytest.approx(m1, rel=1e-6, abs=1e-6)


def scaled_graph(g, a):
    """g with gaps times a and penalties times a^2."""
    return gr.ConstraintGraph(
        states=g.states,
        edges=tuple(
            gr.Edge(e.source, e.target, e.direction, e.gap * a, e.penalty * a * a)
            for e in g.edges
        ),
        baseline_state=g.baseline_state,
        rpeak_state=g.rpeak_state,
    )


def test_scale_equivariance():
    rng = np.random.default_rng(100)
    for _ in range(20):
        y = random_signal(rng, n=40)
        g = random_graph(rng, y, n_states=2)
        a = 2.5
        g2 = scaled_graph(g, a)
        base = solve(sig(y), g)
        scaled = solve(sig(a * y), g2)
        assert scaled.boundaries == base.boundaries
        assert scaled.states == base.states
        for m1, m2 in zip(base.means, scaled.means):
            assert m2 / a == pytest.approx(m1, rel=1e-6, abs=1e-6)


def flip(g):
    """The same graph with every edge's direction swapped."""
    swap = {gr.UP: gr.DOWN, gr.DOWN: gr.UP}
    return gr.ConstraintGraph(
        states=g.states,
        edges=tuple(
            gr.Edge(e.source, e.target, swap[e.direction], e.gap, e.penalty)
            for e in g.edges
        ),
        baseline_state=g.baseline_state,
        rpeak_state=g.rpeak_state,
    )


def test_sign_flip_equivariance():
    # negating the signal and swapping every edge's direction reflects the
    # problem through m -> -m; down edges then run the up-edge path and vice
    # versa, so the two solutions must agree bit for bit
    from graphseg.data import SynthConfig, generate_synthetic

    rng = np.random.default_rng(123)
    cases = []
    for _ in range(30):
        y = random_signal(rng, n=int(rng.integers(8, 80)))
        cases.append((y, random_graph(rng, y)))
    for _ in range(10):
        y = random_signal(rng, n=60)
        g = gr.initial_graph(float(rng.uniform(0, 3)), float(rng.uniform(0, 3)),
                             float(rng.uniform(0.5, 5)))
        cases.append((y, g))
    learned = gr.ConstraintGraph(
        states=(gr.StateId(0, "B"), gr.StateId(1, "R"), gr.StateId(2, "S2"),
                gr.StateId(3, "S3")),
        edges=(gr.Edge(0, 2, gr.UP, 6.5, 50.0), gr.Edge(2, 3, gr.DOWN, 3.25, 50.0),
               gr.Edge(3, 1, gr.UP, 3.25, 50.0), gr.Edge(1, 0, gr.DOWN, 3.0, 50.0)),
        baseline_state=0,
        rpeak_state=1,
    )
    rec = generate_synthetic(
        SynthConfig(n_cycles=4, heart_rate_bpm=88, r_amplitude=10.0, noise_sigma=0.2,
                    baseline_wander_amp=3.0, pre_r_dip=10.5, seed=1015)
    )
    cases.append((rec.signal.samples, learned))
    for y, g in cases:
        base = solve(sig(y), g, start_state=g.baseline_state)
        neg = solve(sig(-y), flip(g), start_state=g.baseline_state)
        assert neg.boundaries == base.boundaries
        assert neg.states == base.states
        assert neg.edges_taken == base.edges_taken
        assert neg.means == [-m for m in base.means]
        assert neg.total_cost == base.total_cost


def test_penalty_monotonicity():
    rng = np.random.default_rng(42)
    for _ in range(15):
        y = random_signal(rng, n=50)
        g = random_graph(rng, y, n_states=2)
        seg1 = solve(sig(y), g)
        for t in (1.5, 4.0):
            g2 = gr.ConstraintGraph(
                states=g.states,
                edges=tuple(
                    gr.Edge(e.source, e.target, e.direction, e.gap, e.penalty * t)
                    for e in g.edges
                ),
                baseline_state=g.baseline_state,
                rpeak_state=g.rpeak_state,
            )
            seg2 = solve(sig(y), g2)
            assert seg2.total_cost >= seg1.total_cost - 1e-9
            assert len(seg2.boundaries) <= len(seg1.boundaries)


def test_cost_recomputation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(10):
        y = random_signal(rng)
        g = random_graph(rng, y)
        seg = solve(sig(y), g)
        assert_valid_segmentation(y, g, seg)  # includes cost recomputation


def test_extract_rpeaks_argmax_in_run():
    g = gr.initial_graph(1.0, 1.0, 1.0)
    s = sig([0, 0, 0, 10, 12, 0, 0])
    seg = solve(s, g, start_state="B")
    assert extract_rpeaks(seg, s, g) == [4]


def test_extract_rpeaks_no_r_segment():
    g = gr.initial_graph(1.0, 1.0, 1e6)
    s = sig([4.2] * 50)
    seg = solve(s, g)
    assert extract_rpeaks(seg, s, g) == []


def test_extract_rpeaks_ties_pick_earliest():
    g = gr.initial_graph(1.0, 1.0, 0.5)
    s = sig([0, 0, 10, 10, 0, 0])
    seg = solve(s, g, start_state="B")
    peaks = extract_rpeaks(seg, s, g)
    assert peaks == [2]


def test_extract_rpeaks_inverted_record_uses_minima():
    # R reached by a down edge: the extremum is the minimum
    from graphseg.data import SynthConfig, generate_synthetic

    rec = generate_synthetic(SynthConfig(n_cycles=8, heart_rate_bpm=75,
                                         r_amplitude=8.0, invert_qrs=True, seed=3))
    g = gr.ConstraintGraph(
        states=(gr.StateId(0, "B"), gr.StateId(1, "R")),
        edges=(gr.Edge(0, 1, "down", 3.0, 20.0), gr.Edge(1, 0, "up", 3.0, 20.0)),
        baseline_state=0,
        rpeak_state=1,
    )
    seg = solve(rec.signal, g, start_state="B")
    peaks = extract_rpeaks(seg, rec.signal, g)
    assert peaks == rec.rpeak_annotations.tolist()


def test_segment_slices():
    g = gr.initial_graph(1.0, 1.0, 1.0)
    s = sig(STEP)
    seg = solve(s, g)
    assert seg.segment_slices(len(s)) == [(0, 3), (3, 5), (5, 7)]


def test_piece_count_stats_recorded():
    g = gr.initial_graph(1.0, 1.0, 1.0)
    seg = solve(sig(STEP), g)
    assert seg.stats["max_pieces"] >= 1
    assert seg.stats["mean_pieces"] > 0


def test_two_level_signal_matches_oracle():
    # noisy two-level signal, moderate gaps and penalty; gaps are snapped to
    # the oracle grid so its resolution bound applies
    rng = np.random.default_rng(2025)
    y = np.where(np.arange(60) % 20 < 10, 1.0, 6.0) + rng.normal(0, 0.3, 60)
    y = np.clip(y, 0.0, 10.0)
    dom = solve_domain(sig(y))
    delta = (dom[1] - dom[0]) / 800
    gap = round(2.0 / delta) * delta
    g = gr.initial_graph(gap, gap, 5.0)
    seg = solve(sig(y), g)
    oc, ob, _, _, _ = grid_dp(y, g, dom)
    bound = resolution_bound(len(y), dom)
    assert seg.total_cost <= oc + 1e-6
    assert seg.total_cost >= oc - bound - 1e-9
    if seg.boundaries != ob:
        refit = grid_refit_cost(y, g, dom, 801, seg.boundaries, seg.edges_taken)
        assert refit <= oc + 10 * bound
    else:
        assert seg.boundaries == ob


def test_oracle_equivalence_under_exact_ties():
    # integer step signals with zero penalties and gap-0 edges maximise exact
    # cost ties at shared breakpoints; backtracking must stay optimal
    rng = np.random.default_rng(777)
    for _ in range(60):
        n = int(rng.integers(6, 40))
        nlev = int(rng.integers(1, 4))
        y = np.zeros(n)
        prev = 0
        cuts = sorted(rng.choice(np.arange(1, n), size=min(nlev - 1, n - 1),
                                 replace=False).tolist()) + [n]
        for cut in cuts:
            y[prev:cut] = float(rng.integers(0, 8))
            prev = cut
        s = sig(y)
        dom = solve_domain(s)
        delta = (dom[1] - dom[0]) / 800
        nstates = int(rng.integers(2, 4))
        states = tuple(
            gr.StateId(i, "BR"[i] if i < 2 else f"V{i}") for i in range(nstates)
        )
        edges = []
        for i in range(nstates):
            direction = gr.UP if rng.random() < 0.5 else gr.DOWN
            gap = round(float(rng.integers(0, 3)) / delta) * delta
            edges.append(gr.Edge(i, (i + 1) % nstates, direction, gap,
                                 float(rng.integers(0, 4))))
        try:
            g = gr.ConstraintGraph(states=states, edges=tuple(edges),
                                   baseline_state=0, rpeak_state=1)
        except gr.GraphValidationError:
            continue
        seg = solve(s, g)
        assert_valid_segmentation(y, g, seg)
        oc, ob, _, _, _ = grid_dp(y, g, dom)
        bound = resolution_bound(len(y), dom)
        assert seg.total_cost <= oc + 1e-6
        assert seg.total_cost >= oc - bound - 1e-9
        if seg.boundaries != ob:
            refit = grid_refit_cost(y, g, dom, 801, seg.boundaries, seg.edges_taken)
            assert refit <= oc + 10 * bound


def test_piece_counts_grow_at_most_logarithmically():
    # mean piece counts on synthetic records stay near-constant as N grows
    from graphseg.data import SynthConfig, generate_synthetic

    g = gr.initial_graph(6.5, 3.0, 50.0)
    means = []
    for n_cycles in (8, 80):
        rec = generate_synthetic(
            SynthConfig(n_cycles=n_cycles, heart_rate_bpm=75, r_amplitude=10.0,
                        noise_sigma=0.2, baseline_wander_amp=3.0, seed=31)
        )
        seg = solve(rec.signal, g)
        means.append(seg.stats["mean_pieces"])
    # 10x more samples: allow at most log-factor growth over the small run
    assert means[1] <= 2.0 * means[0] + 4.0


def test_cost_is_scale_free_on_the_equivariance_generator():
    # criterion 3's instances with amplitudes and gaps times a, penalties
    # times a^2: the cost over a^2 stays at the a = 1 optimum
    rng = np.random.default_rng(77_000)
    for _ in range(100):
        y = random_signal(rng, n=int(rng.integers(20, 61)))
        g = random_graph(rng, y, n_states=int(rng.integers(2, 4)))
        rng.uniform(-20, 20), rng.uniform(0.5, 3.0)   # criterion 3's shift and scale
        base = solve(sig(y), g).total_cost
        for a in [b ** j for b in (2.0, 10.0) for j in range(-12, 13)]:
            cost = solve(sig(a * y), scaled_graph(g, a)).total_cost / (a * a)
            assert cost == pytest.approx(base, rel=1e-9), a
