"""Edit enumeration and the greedy structure search."""

import logging
import re

import numpy as np
import pytest

import reference_learner

from graphseg import graph as gr
from graphseg import learning
from graphseg import solver
from graphseg.data import SynthConfig, generate_synthetic
from graphseg.evaluate import split_cycles, windows_whole_record
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


def count_solves(monkeypatch):
    """Route learning.solve through a counter; returns the one-item count."""
    calls = [0]
    real = learning.solve

    def counted(*a, **k):
        calls[0] += 1
        return real(*a, **k)

    monkeypatch.setattr(learning, "solve", counted)
    return calls


def test_evaluate_graph_bound_at_or_above_error_is_exact(monkeypatch):
    windows = windows_whole_record(dip_record(), 2)
    err, rep = evaluate_graph(INITIAL, windows, CFG)
    assert err > 0
    calls = count_solves(monkeypatch)
    for bound in (err, err + 1, 10 ** 6):
        calls[0] = 0
        assert evaluate_graph(INITIAL, windows, CFG, bound=bound) == (err, rep)
        assert calls[0] == len(windows)


def test_evaluate_graph_stops_after_the_window_that_crosses_the_bound(monkeypatch):
    windows = windows_whole_record(dip_record(), 2)
    err, rep = evaluate_graph(INITIAL, windows, CFG)
    running = np.cumsum([r.fn + r.fp for r in rep.records])
    calls = count_solves(monkeypatch)
    for bound in range(-1, err):
        calls[0] = 0
        crossed = int(np.argmax(running > bound))
        total, report = evaluate_graph(INITIAL, windows, CFG, bound=bound)
        assert report is None
        assert total == running[crossed] > bound
        assert calls[0] == crossed + 1


def test_evaluate_graph_bound_counts_infeasible_labels(monkeypatch):
    windows = windows_whole_record(clean_record(), 5)

    def boom(*a, **k):
        raise solver.InfeasibleModelError("B", 3)

    monkeypatch.setattr(learning, "solve", boom)
    labels = len(windows[0].rpeak_annotations)
    assert evaluate_graph(INITIAL, windows, CFG, bound=labels - 1) == (labels, None)


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
                        lambda g, ws, cfg, bound=None: (next(scripted), None))
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


# ---------------------------------------------------------------------------
# learn against the full-scoring oracle
# ---------------------------------------------------------------------------


def outputs(result):
    best, trace = result
    return gr.serialize(best), trace.to_jsonl(), trace.to_progress_csv()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("record", [dip_record, clean_record])
def test_learn_matches_full_scoring_oracle(record, seed):
    rec = record(seed=seed)
    for windows in (windows_whole_record(rec, 2), split_cycles(rec, seed)[0]):
        for g0 in (INITIAL, default_initial_graph(windows)):
            cfg = LearnConfig(seed=seed)
            assert outputs(learn(g0, windows, cfg)) == \
                outputs(reference_learner.learn(g0, windows, cfg))


def test_learn_matches_oracle_with_an_unexplained_window(monkeypatch):
    # the solver cannot explain one window under any graph with extra states,
    # so those candidates pay its label count
    rec = dip_record(seed=4)
    windows = windows_whole_record(rec, 2)
    bad = windows[1].signal
    real = learning.solve

    def solve(signal, g, **k):
        if signal is bad and len(g.states) > 2:
            raise solver.InfeasibleModelError("all", len(signal) - 1)
        return real(signal, g, **k)

    monkeypatch.setattr(learning, "solve", solve)
    for seed in (1, 2, 3):
        cfg = LearnConfig(seed=seed)
        got = learn(INITIAL, windows, cfg)
        assert outputs(got) == outputs(reference_learner.learn(INITIAL, windows, cfg))


def test_learn_tie_on_error_goes_to_the_smaller_tie_tail(monkeypatch):
    # scripted errors: every insertion and every penalty edit scores 7, gap
    # edits 9.  The first 3-state insertion scores first; the penalty_down
    # edits tie with it on a smaller tail, so one of them must be scored up
    # to the best error itself, and the earliest one wins.
    def score(g):
        if g == INITIAL:
            return 10
        if len(g.states) > 2 or sum(e.penalty for e in g.edges) != 100.0:
            return 7
        return 9

    seen = []

    def fake(g, windows, cfg, bound=None):
        err = score(g)
        seen.append((err, bound))
        return (err, None) if bound is not None and err > bound else (err, "report")

    monkeypatch.setattr(learning, "evaluate_graph", fake)
    monkeypatch.setattr(reference_learner, "evaluate_graph", fake)
    windows = windows_whole_record(clean_record(), 2)
    cfg = LearnConfig(max_iterations=3, seed=1)
    got = learn(INITIAL, windows, cfg)
    # (error, bound) per candidate of iteration 1, after the two initial
    # scores: inserts then penalty, gap edits, per edge.  A smaller tie tail
    # may reach the best error (7, 7); any other tie is stopped (7, 6).
    assert seen[2:18] == [(7, 9), (7, 6), (7, 6), (7, 6), (7, 7), (7, 7), (9, 6), (9, 6),
                          (7, 6), (7, 6), (7, 6), (7, 6), (7, 6), (7, 6), (9, 6), (9, 6)]
    assert outputs(got) == outputs(reference_learner.learn(INITIAL, windows, cfg))
    step, = got[1].steps
    assert (step.kind, step.anchor_edge, step.train_error) == ("penalty_down", 0, 7)


def test_learn_runs_fewer_solves_than_the_oracle(monkeypatch):
    windows = windows_whole_record(dip_record(n_cycles=12), 2)
    cfg = LearnConfig(seed=3)
    calls = count_solves(monkeypatch)
    got = learn(INITIAL, windows, cfg)
    ours, calls[0] = calls[0], 0
    want = reference_learner.learn(INITIAL, windows, cfg)
    assert outputs(got) == outputs(want)
    assert len(got[1]) >= 1
    # here the bound cuts 72 solves to 35; skipping alone would leave 68
    assert ours < 0.6 * calls[0]


def test_learn_debug_log_leaves_outputs_unchanged(monkeypatch, caplog):
    windows = windows_whole_record(dip_record(), 2)
    cfg = LearnConfig(seed=3)
    with caplog.at_level(logging.WARNING, logger="graphseg.learning"):
        quiet = outputs(learn(INITIAL, windows, cfg))
    assert not caplog.records
    calls = count_solves(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="graphseg.learning"):
        best, trace = learn(INITIAL, windows, cfg)
    assert outputs((best, trace)) == quiet
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("iteration")]
    assert len(lines) >= len(trace)
    counts = [re.fullmatch(r"iteration \d+: (\d+) candidates, (\d+) scored, (\d+) stopped "
                           r"early, (\d+) skipped, (\d+) solves", line).groups()
              for line in lines]
    for enumerated, scored, stopped, skipped, _ in counts:
        assert int(enumerated) == int(scored) + int(stopped) + int(skipped)
    n_val = min(round(cfg.validation_fraction * len(windows)), len(windows) - 1)
    # the initial scores solve every window once, each accepted edit the
    # validation windows
    assert calls[0] == (len(windows) + len(trace) * n_val
                        + sum(int(c[4]) for c in counts))
