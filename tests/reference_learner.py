"""The full-scoring greedy loop of ``graphseg.learning.learn``.

Every candidate is scored on every training window, in the order the
windows were given.  ``learn`` scores the candidates best-first, one window
at a time and the shortest windows first, and stops once the winner is
known; the tests require the two to give byte-identical traces and graphs.
"""

import numpy as np

from graphseg import graph as gr
from graphseg.learning import (
    LearnConfig,
    LearnStep,
    LearnTrace,
    _gap_step,
    enumerate_candidates,
    evaluate_graph,
)


def _candidate_key(err, cand, idx):
    g = cand.resulting_graph
    return (err, len(g.states), len(g.edges), sum(e.penalty for e in g.edges), idx)


def learn(initial: gr.ConstraintGraph, windows, cfg: LearnConfig = None):
    """Greedy hill climb from the initial graph.

    Accepts the candidate with the strictly smallest training FN+FP each
    iteration (ties prefer fewer states, then fewer edges, then a smaller
    penalty sum, then enumeration order).  Stops when no candidate improves,
    at max_iterations, or after the validation error rises on two
    consecutive accepted iterations, in which case the best-validation
    snapshot is returned.
    """
    if cfg is None:
        cfg = LearnConfig()
    if not windows:
        raise ValueError("windows must be non-empty")
    violations = gr.validate(initial)
    if violations:
        raise gr.GraphValidationError(violations)
    step = _gap_step(windows)

    rng = np.random.default_rng(cfg.seed)
    n = len(windows)
    n_val = int(round(cfg.validation_fraction * n))
    n_val = min(n_val, n - 1)
    val_ids = set(rng.choice(n, size=n_val, replace=False).tolist()) if n_val > 0 else set()
    train_w = [w for i, w in enumerate(windows) if i not in val_ids]
    val_w = [w for i, w in enumerate(windows) if i in val_ids]

    current = initial
    train_err, _ = evaluate_graph(current, train_w, cfg)
    val_err = evaluate_graph(current, val_w, cfg)[0] if val_w else None
    trace = LearnTrace(train_err, val_err, initial, steps=[])
    best_val = val_err
    best_val_graph = current
    rising = 0

    for it in range(1, cfg.max_iterations + 1):
        if train_err == 0:
            break  # nothing can be strictly better
        best = None
        for idx, cand in enumerate(enumerate_candidates(current, min_gap=step)):
            err, _ = evaluate_graph(cand.resulting_graph, train_w, cfg)
            key = _candidate_key(err, cand, idx)
            if best is None or key < best[0]:
                best = (key, cand)
        if best is None or best[0][0] >= train_err:
            break
        key, cand = best
        train_err = key[0]
        prev_val = val_err
        current = cand.resulting_graph
        val_err = evaluate_graph(current, val_w, cfg)[0] if val_w else None
        trace.steps.append(LearnStep(it, cand.kind, cand.anchor_edge,
                                     train_err, val_err, current))
        if val_w:
            if val_err < best_val:
                best_val = val_err
                best_val_graph = current
            rising = rising + 1 if val_err > prev_val else 0
            if rising >= 2:
                current = best_val_graph
                break
    return current, trace
