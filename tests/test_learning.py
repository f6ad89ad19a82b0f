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


def test_edit_that_duplicates_an_edge_is_omitted():
    # parallel up edges B -> R with penalties 1 and 2: doubling the first's
    # penalty or halving the second's would make two identical edges
    g = gr.ConstraintGraph(
        states=(gr.StateId(0, "B"), gr.StateId(1, "R")),
        edges=(gr.Edge(0, 1, "up", 2.0, 1.0), gr.Edge(0, 1, "up", 2.0, 2.0),
               gr.Edge(1, 0, "down", 3.0, 30.0)),
        baseline_state=0,
        rpeak_state=1,
    )
    got = {(c.kind, c.anchor_edge) for c in enumerate_candidates(g)}
    assert len(got) == 22
    assert ("penalty_up", 0) not in got and ("penalty_down", 1) not in got
    assert {("penalty_down", 0), ("penalty_up", 1)} <= got


def test_new_states_avoid_taken_names():
    # the first new state's id is 2, and S2 is taken
    g = gr.ConstraintGraph(
        states=(gr.StateId(0, "B"), gr.StateId(1, "S2")),
        edges=(gr.Edge(0, 1, "up", 2.0, 10.0), gr.Edge(1, 0, "down", 2.0, 10.0)),
        baseline_state=0,
        rpeak_state=1,
    )
    bump = next(c for c in enumerate_candidates(g) if c.kind == "insert_two_bump")
    assert [s.name for s in bump.resulting_graph.states] == ["B", "S2", "S2x", "S3"]


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


def test_evaluate_graph_sums_its_one_window_scores():
    # learn scores a candidate one window at a time and adds the errors up
    windows = windows_whole_record(dip_record(), 2)
    err, rep = evaluate_graph(INITIAL, windows, CFG)
    singles = [evaluate_graph(INITIAL, [w], CFG) for w in windows]
    assert err > 0
    assert err == sum(e for e, _ in singles)
    assert rep.records == [r for _, one in singles for r in one.records]


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
    # script the errors: training keeps improving while validation rises
    # twice in a row; learn must return the best-validation snapshot
    rec = clean_record()
    windows = windows_whole_record(rec, 1)  # ten windows, two for validation
    g0 = INITIAL
    cands = enumerate_candidates(g0)[:3]
    offered = iter(cands)  # one new candidate per iteration
    monkeypatch.setattr(learning, "enumerate_candidates", lambda g, min_gap: [next(offered)])
    train = {g0: 10}
    val = {g0: 2}
    for c, t, v in zip(cands, (9, 8, 7), (3, 4, 5)):
        train[c.resulting_graph] = t
        val[c.resulting_graph] = v
    charged = set()

    def fake(g, ws, cfg):
        if len(ws) == 1:  # a candidate's training window: all errors on the first
            first = g not in charged
            charged.add(g)
            return (train[g] if first else 0), None
        return (val[g] if len(ws) == 2 else train[g]), None

    monkeypatch.setattr(learning, "evaluate_graph", fake)
    best, trace = learning.learn(g0, windows, LearnConfig(seed=1))
    assert best == g0                     # iteration 0 had the best validation
    assert len(trace.steps) == 2          # stopped after two rising val errors
    assert [s.train_error for s in trace.steps] == [9, 8]
    assert [s.validation_error for s in trace.steps] == [3, 4]
    assert trace.initial_validation_error == 2


@pytest.mark.parametrize("tolerance_ms", [-5.0, float("inf"), float("nan")])
def test_learn_config_rejects_a_bad_tolerance(tolerance_ms):
    with pytest.raises(ValueError, match="tolerance_ms"):
        LearnConfig(tolerance_ms=tolerance_ms)


def test_learn_config_validation():
    with pytest.raises(ValueError):
        LearnConfig(validation_fraction=0.0)
    with pytest.raises(ValueError):
        LearnConfig(max_iterations=-1)


@pytest.mark.parametrize("field", ["max_iterations", "seed"])
@pytest.mark.parametrize("value", [-1, 2.5, 1.0, True, "3", None])
def test_learn_config_names_a_bad_count(field, value):
    # a float once reached learn and failed there with a bare TypeError
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an int >= 0, got {value!r}")):
        LearnConfig(**{field: value})


@pytest.mark.parametrize("field", ["max_iterations", "seed"])
def test_learn_config_takes_numpy_ints(field):
    assert getattr(LearnConfig(**{field: np.int64(3)}), field) == 3
    assert getattr(LearnConfig(**{field: 0}), field) == 0


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
    # scripted errors, all on the shortest window, which learn scores first:
    # every insertion and every penalty edit scores 7, gap edits 9.
    # Best-first opens every candidate in (tie tail, index) order, then
    # finishes the first penalty_down: the two penalty_down edits tie on
    # error and on the smallest tail, and the earlier one wins.
    windows = windows_whole_record(clean_record(), 2)
    shortest = min(windows, key=lambda w: len(w.signal))

    def score(g):
        if g == INITIAL:
            return 10
        if len(g.states) > 2 or sum(e.penalty for e in g.edges) != 100.0:
            return 7
        return 9

    seen = []

    def fake(g, ws, cfg):
        seen.append(g)
        return (score(g) if any(w is shortest for w in ws) else 0), None

    monkeypatch.setattr(learning, "evaluate_graph", fake)
    monkeypatch.setattr(reference_learner, "evaluate_graph", fake)
    cfg = LearnConfig(max_iterations=3, validation_fraction=0.1, seed=1)  # no validation
    got = learn(INITIAL, windows, cfg)
    cands = [c.resulting_graph
             for c in enumerate_candidates(INITIAL, min_gap=learning._gap_step(windows))]
    # seen[0] is the initial score; then iteration 1 opens the 16 candidates
    # (tails: penalty_down, gap, penalty_up, split, detours, two-node insert)
    # and scores the winner's four other windows
    assert [cands.index(g) for g in seen[1:21]] == \
        [5, 13, 6, 7, 14, 15, 4, 12, 0, 8, 1, 2, 9, 10, 3, 11, 5, 5, 5, 5]
    # iteration 2 opens its 16 candidates; none can go below 7
    assert len(seen) == 1 + 20 + 16
    assert outputs(got) == outputs(reference_learner.learn(INITIAL, windows, cfg))
    step, = got[1].steps
    assert (step.kind, step.anchor_edge, step.train_error) == ("penalty_down", 0, 7)


def bound_rule_evaluations(table, tails, train_err):
    """Window evaluations of the sequential loop that stopped scoring a
    candidate once its running total passed a bound: train_err - 1 before
    any candidate had finished, then the best full score so far if the
    candidate's tail is smaller than the best's, else one less."""
    best = None
    count = 0
    for row, tail in zip(table, tails):
        if best is None:
            bound = train_err - 1
        else:
            bound = best[0] if tail < best[1] else best[0] - 1
        total = 0
        for e in row:
            if total > bound:
                break
            count += 1
            total += e
        if total <= bound and (best is None or (total, tail) < best):
            best = (total, tail)
    return count


def test_best_first_picks_the_full_scoring_winner_with_no_more_solves(monkeypatch):
    windows = windows_whole_record(clean_record(), 1)
    order = sorted(windows, key=lambda w: len(w.signal))  # learn's scoring order
    column = {id(w): k for k, w in enumerate(order)}
    rng = np.random.default_rng(2024)
    cfg = LearnConfig(max_iterations=1, validation_fraction=0.01, seed=0)  # no validation
    for _ in range(300):
        n = int(rng.integers(1, 13))
        table = rng.choice([0, 0, 0, 1, 1, 2, 3], size=(n, len(windows)))
        penalties = rng.integers(1, 4, n)  # few values, so tails tie
        cands = [learning.EditCandidate("penalty_up", i, gr.initial_graph(1.0 + i, 1.0, float(p)))
                 for i, p in enumerate(penalties)]
        row = {c.resulting_graph: table[i] for i, c in enumerate(cands)}
        train_err = int(rng.integers(1, 2 * len(windows)))
        evaluations = [0]

        def fake(g, ws, cfg):
            if g == INITIAL:
                return train_err, None
            evaluations[0] += len(ws)
            return int(sum(row[g][column[id(w)]] for w in ws)), None

        monkeypatch.setattr(learning, "evaluate_graph", fake)
        monkeypatch.setattr(learning, "enumerate_candidates", lambda g, min_gap: cands)
        _, trace = learn(INITIAL, windows, cfg)
        tails = [learning._tie_tail(c.resulting_graph) for c in cands]
        err, tail, idx = min((int(table[i].sum()), tails[i], i) for i in range(n))
        if err < train_err:
            step, = trace.steps
            assert (step.anchor_edge, step.train_error) == (idx, err)
        else:
            assert not trace.steps
        assert evaluations[0] <= bound_rule_evaluations(table, tails, train_err)


def test_learn_runs_fewer_solves_than_the_oracle(monkeypatch):
    windows = windows_whole_record(dip_record(n_cycles=12), 2)
    cfg = LearnConfig(seed=3)
    calls = count_solves(monkeypatch)
    got = learn(INITIAL, windows, cfg)
    ours, calls[0] = calls[0], 0
    want = reference_learner.learn(INITIAL, windows, cfg)
    assert outputs(got) == outputs(want)
    assert len(got[1]) >= 1
    # best-first takes 26 solves here, the sequential loop with a bound per
    # candidate took 35 and the full-scoring oracle takes 72
    assert ours <= 35


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
    counts = [[int(x) for x in re.fullmatch(
        r"iteration \d+: (\d+) candidates, (\d+) finished, (\d+) solves", line).groups()]
        for line in lines]
    for enumerated, finished, _ in counts:
        assert finished <= enumerated
    # an accepted iteration has a finished candidate: the winner
    assert all(finished >= 1 for _, finished, _ in counts[:len(trace)])
    n_val = min(round(cfg.validation_fraction * len(windows)), len(windows) - 1)
    # the initial scores solve every window once, each accepted edit the
    # validation windows
    assert calls[0] == len(windows) + len(trace) * n_val + sum(c[2] for c in counts)


def test_trace_jsonl_writes_the_golden_bytes():
    g = gr.ConstraintGraph(
        states=(gr.StateId(0, "B"), gr.StateId(1, "R"), gr.StateId(2, "S2")),
        edges=(gr.Edge(0, 2, "up", 6.5, 50.0), gr.Edge(2, 1, "up", 0.1 + 0.2, 12.5),
               gr.Edge(1, 0, "down", 3.0, 50.0)),
        baseline_state=0, rpeak_state=1)
    trace = learning.LearnTrace(4, 3, gr.initial_graph(6.5, 3.0, 50.0),
                                [learning.LearnStep(1, "split_same_dir", 0, 1, 2, g)])
    assert trace.to_jsonl() == (
        '{"iteration": 0, "kind": null, "anchor_edge": null, "train_error": 4, '
        '"validation_error": 3, "graph": {"states": [{"id": 0, "name": "B"}, '
        '{"id": 1, "name": "R"}], "edges": [{"source": 0, "target": 1, '
        '"direction": "up", "gap": 6.5, "penalty": 50.0}, {"source": 1, '
        '"target": 0, "direction": "down", "gap": 3.0, "penalty": 50.0}], '
        '"baseline_state": 0, "rpeak_state": 1}}\n'
        '{"iteration": 1, "kind": "split_same_dir", "anchor_edge": 0, '
        '"train_error": 1, "validation_error": 2, "graph": {"states": '
        '[{"id": 0, "name": "B"}, {"id": 1, "name": "R"}, {"id": 2, "name": "S2"}], '
        '"edges": [{"source": 0, "target": 2, "direction": "up", "gap": 6.5, '
        '"penalty": 50.0}, {"source": 2, "target": 1, "direction": "up", '
        '"gap": 0.30000000000000004, "penalty": 12.5}, {"source": 1, "target": 0, '
        '"direction": "down", "gap": 3.0, "penalty": 50.0}], "baseline_state": 0, '
        '"rpeak_state": 1}}\n'
    )
    assert trace.to_progress_csv() == "iteration,train_fn_fp,validation_fn_fp\n0,4,3\n1,1,2\n"
