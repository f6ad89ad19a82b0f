"""Edit enumeration and the greedy structure search."""

import numpy as np
import pytest

from graphseg import graph as gr
from graphseg import learning
from graphseg import solver
from graphseg.data import SynthConfig, generate_synthetic
from graphseg.evaluate import windows_whole_record
from graphseg.learning import (
    EDIT_KINDS,
    LearnConfig,
    default_initial_graph,
    enumerate_candidates,
    evaluate_graph,
    learn,
)

CFG = LearnConfig(seed=5)


def dip_record(n_cycles=12, seed=7):
    return generate_synthetic(
        SynthConfig(n_cycles=n_cycles, heart_rate_bpm=88, r_amplitude=10.0,
                    noise_sigma=0.2, baseline_wander_amp=3.0, pre_r_dip=10.5,
                    seed=seed)
    )


def clean_record(n_cycles=10, seed=21):
    return generate_synthetic(
        SynthConfig(n_cycles=n_cycles, heart_rate_bpm=82, r_amplitude=10.0,
                    noise_sigma=0.2, baseline_wander_amp=3.0, seed=seed)
    )


INITIAL = gr.initial_graph(6.5, 3.0, 50.0)


# ---------------------------------------------------------------------------
# enumerate_candidates
# ---------------------------------------------------------------------------


def test_initial_graph_yields_16_candidates():
    # both delete kinds are inapplicable on both edges (B and R protected)
    cands = enumerate_candidates(INITIAL)
    assert len(cands) == 16
    kinds = {c.kind for c in cands}
    assert "delete_merge_keep_in" not in kinds
    assert "delete_merge_keep_out" not in kinds
    assert kinds == set(EDIT_KINDS) - {"delete_merge_keep_in", "delete_merge_keep_out"}


def test_all_candidates_validate():
    for cand in enumerate_candidates(INITIAL):
        assert gr.validate(cand.resulting_graph) == [], cand.kind


def test_penalty_up_is_single_field_edit():
    g = gr.initial_graph(1.0, 1.0, 50.0)
    cand = [c for c in enumerate_candidates(g)
            if c.kind == "penalty_up" and c.anchor_edge == 0][0]
    g2 = cand.resulting_graph
    assert g2.states == g.states
    assert g2.edges[0].penalty == 100.0
    assert g2.edges[0].gap == g.edges[0].gap
    assert g2.edges[1] == g.edges[1]


def test_gap_edits_respect_min_gap_step():
    g = gr.initial_graph(0.0, 2.0, 10.0)
    cands = enumerate_candidates(g, min_gap=0.8)
    up0 = [c for c in cands if c.kind == "gap_up" and c.anchor_edge == 0][0]
    assert up0.resulting_graph.edges[0].gap == 0.8    # max(0*2, step)
    down1 = [c for c in cands if c.kind == "gap_down" and c.anchor_edge == 1][0]
    assert down1.resulting_graph.edges[1].gap == 1.0  # 2/2 >= step/2, kept
    g2 = gr.initial_graph(0.5, 2.0, 10.0)
    down0 = [c for c in enumerate_candidates(g2, min_gap=0.8)
             if c.kind == "gap_down" and c.anchor_edge == 0][0]
    assert down0.resulting_graph.edges[0].gap == 0.0  # 0.25 < step/2, snapped


def chain_graph():
    # B -> W -> R -> B; W is deletable
    return gr.ConstraintGraph(
        states=(gr.StateId(0, "B"), gr.StateId(1, "R"), gr.StateId(2, "W")),
        edges=(gr.Edge(0, 2, "up", 2.0, 10.0), gr.Edge(2, 1, "up", 1.0, 20.0),
               gr.Edge(1, 0, "down", 3.0, 30.0)),
        baseline_state=0,
        rpeak_state=1,
    )


def test_candidate_order_on_chain_graph():
    # the order decides ties between equal-error candidates, so pin it
    inserts = ["split_same_dir", "detour_before", "detour_after", "insert_two_bump"]
    deletes = ["delete_merge_keep_in", "delete_merge_keep_out"]
    tunings = ["penalty_up", "penalty_down", "gap_up", "gap_down"]
    expected = [(k, 0) for k in inserts + deletes + tunings]
    expected += [(k, i) for i in (1, 2) for k in inserts + tunings]
    got = [(c.kind, c.anchor_edge) for c in enumerate_candidates(chain_graph())]
    assert got == expected


def test_delete_candidates_on_unprotected_chain_node():
    cands = enumerate_candidates(chain_graph())
    keep_in = [c for c in cands if c.kind == "delete_merge_keep_in"]
    keep_out = [c for c in cands if c.kind == "delete_merge_keep_out"]
    assert len(keep_in) == 1 and keep_in[0].anchor_edge == 0
    assert len(keep_out) == 1
    gi = keep_in[0].resulting_graph
    assert len(gi.states) == 2
    assert gr.validate(gi) == []
    merged = gi.edges[0]
    assert (merged.direction, merged.gap, merged.penalty) == ("up", 2.0, 10.0)
    go = keep_out[0].resulting_graph
    merged_out = go.edges[0]
    assert (merged_out.direction, merged_out.gap, merged_out.penalty) == ("up", 1.0, 20.0)
    # rpeak/baseline ids were remapped consistently
    assert gi.name_of(gi.rpeak_state) == "R"
    assert gi.name_of(gi.baseline_state) == "B"


def test_candidate_closure_under_repeated_edits():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = INITIAL
        for _ in range(3):
            cands = enumerate_candidates(g)
            assert cands
            g = cands[rng.integers(0, len(cands))].resulting_graph
            assert gr.validate(g) == []
            assert 0 <= g.baseline_state < len(g.states)
            assert 0 <= g.rpeak_state < len(g.states)


# ---------------------------------------------------------------------------
# evaluate_graph
# ---------------------------------------------------------------------------


def test_evaluate_graph_perfect_detector():
    rec = clean_record()
    windows = windows_whole_record(rec, 5)
    err, rep = evaluate_graph(INITIAL, windows, CFG)
    assert err == 0
    assert rep.tp == rec.n_cycles
    assert rep.fp == rep.fn == 0


def test_evaluate_graph_empty_detection_counts_fn():
    rec = clean_record()
    windows = windows_whole_record(rec, 5)
    # gaps beyond the amplitude range: no change is ever feasible
    g = gr.initial_graph(1e6, 1e6, 1.0)
    err, rep = evaluate_graph(g, windows, CFG)
    assert err == rec.n_cycles
    assert rep.fn == rec.n_cycles
    assert rep.fp == 0


def test_evaluate_graph_infeasible_window_counts_all_labels_fn(monkeypatch):
    rec = clean_record()
    windows = windows_whole_record(rec, 5)

    def boom(*a, **k):
        raise solver.InfeasibleModelError("B", 3)

    monkeypatch.setattr(learning, "solve", boom)
    err, rep = evaluate_graph(INITIAL, windows, CFG)
    assert err == rec.n_cycles
    assert all(r.infeasible_windows == 1 for r in rep.records)


def test_evaluate_graph_requires_windows():
    with pytest.raises(ValueError):
        evaluate_graph(INITIAL, [], CFG)


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------


def test_learn_perfect_initial_returns_unchanged():
    rec = clean_record()
    windows = windows_whole_record(rec, 4)
    best, trace = learn(INITIAL, windows, LearnConfig(seed=2))
    assert best == INITIAL
    assert len(trace) == 0
    assert trace.initial_train_error == 0


def test_learn_zero_iterations():
    rec = dip_record()
    windows = windows_whole_record(rec, 4)
    best, trace = learn(INITIAL, windows, LearnConfig(max_iterations=0, seed=2))
    assert best == INITIAL
    assert len(trace) == 0
    assert trace.initial_train_error > 0


def test_learn_empty_windows_errors():
    with pytest.raises(ValueError):
        learn(INITIAL, [], CFG)


def test_learn_fixes_dip_corpus_with_node_insertion():
    rec = dip_record()
    windows = windows_whole_record(rec, 4)
    best, trace = learn(INITIAL, windows, LearnConfig(seed=3))
    assert len(trace) >= 1
    kinds = [s.kind for s in trace.steps]
    assert any(
        k in ("split_same_dir", "detour_before", "detour_after", "insert_two_bump")
        for k in kinds
    )
    assert len(best.states) > 2
    # training error strictly decreasing across accepted iterations
    errors = [trace.initial_train_error] + [s.train_error for s in trace.steps]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    final_err, _ = evaluate_graph(best, windows, LearnConfig(seed=3))
    assert final_err <= trace.initial_train_error


def test_learn_deterministic_under_seed():
    rec = dip_record(n_cycles=10)
    windows = windows_whole_record(rec, 4)
    b1, t1 = learn(INITIAL, windows, LearnConfig(seed=9))
    b2, t2 = learn(INITIAL, windows, LearnConfig(seed=9))
    assert b1 == b2
    assert t1.to_jsonl() == t2.to_jsonl()


def test_learn_trace_serialization():
    rec = dip_record(n_cycles=10)
    windows = windows_whole_record(rec, 4)
    best, trace = learn(INITIAL, windows, LearnConfig(seed=9))
    jsonl = trace.to_jsonl()
    lines = jsonl.strip().split("\n")
    assert len(lines) == len(trace) + 1  # row 0 is the initial graph
    csv = trace.to_progress_csv()
    rows = csv.strip().split("\n")
    assert rows[0] == "iteration,train_fn_fp,validation_fn_fp"
    assert len(rows) == len(trace) + 2  # header + initial + accepted


def test_default_initial_graph_heuristics():
    rec = clean_record()
    windows = windows_whole_record(rec, 4)
    g = default_initial_graph(windows)
    assert gr.validate(g) == []
    assert len(g.states) == 2
    assert g.edges[0].gap > 0
    assert g.edges[0].penalty > 0
    # gap heuristic: 30% of the p99-p1 spread, so well below the R amplitude
    assert g.edges[0].gap < 10.0


def test_learn_early_stops_on_rising_validation(monkeypatch):
    # script the error sequence: training keeps improving while validation
    # rises twice in a row; learn must return the best-validation snapshot
    rec = clean_record()
    windows = windows_whole_record(rec, 2)  # enough windows for a val split
    g0 = INITIAL
    candidate = enumerate_candidates(g0)[0]
    monkeypatch.setattr(learning, "enumerate_candidates", lambda g, min_gap: [candidate])
    # call order: init train, init val, then per iteration one candidate
    # train eval and one accepted-graph val eval
    scripted = iter([10, 2, 9, 3, 8, 4, 7, 5])
    monkeypatch.setattr(learning, "evaluate_graph",
                        lambda g, ws, cfg: (next(scripted), None))
    best, trace = learning.learn(g0, windows, LearnConfig(seed=1))
    assert best == g0                     # iteration 0 had the best validation
    assert len(trace.steps) == 2          # stopped after two rising val errors
    assert [s.validation_error for s in trace.steps] == [3, 4]
    assert trace.initial_validation_error == 2


def test_learn_config_validation():
    with pytest.raises(ValueError):
        LearnConfig(validation_fraction=0.0)
    with pytest.raises(ValueError):
        LearnConfig(max_iterations=-1)
