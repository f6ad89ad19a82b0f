"""Greedy structure search over constraint graphs driven by detection error.

Each iteration enumerates a fixed family of ten edit candidates per edge
(three single-node insertions, one two-node insertion, two node deletions,
and penalty/gap edits that multiply or divide by EDIT_FACTOR), scores each
candidate by the total number of detection errors on the training windows,
and accepts the strictly best one.  Candidates are scored best-first, one
window at a time, so a candidate is only solved on a window while its
running total could still win.  The loop stops when nothing improves, at
the iteration cap, or when the validation error has risen twice in a row.
"""

from __future__ import annotations

import heapq
import json
import logging
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import graph as gr
from .evaluate import DetectionReport, RecordCounts, _median, _percentiles, match
from .solver import InfeasibleModelError, extract_rpeaks, solve

log = logging.getLogger(__name__)

EDIT_KINDS = (
    "split_same_dir",
    "detour_before",
    "detour_after",
    "insert_two_bump",
    "delete_merge_keep_in",
    "delete_merge_keep_out",
    "penalty_up",
    "penalty_down",
    "gap_up",
    "gap_down",
)


# Penalty and gap edits multiply or divide the edge's value by this.
EDIT_FACTOR = 2.0


@dataclass
class LearnConfig:
    max_iterations: int = 20
    tolerance_ms: float = 100.0
    validation_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not (math.isfinite(self.tolerance_ms) and self.tolerance_ms >= 0.0):
            raise ValueError(f"tolerance_ms must be finite and >= 0, got {self.tolerance_ms}")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must be in (0, 1)")


@dataclass
class EditCandidate:
    kind: str
    anchor_edge: int
    resulting_graph: gr.ConstraintGraph


@dataclass
class LearnStep:
    iteration: int
    kind: str
    anchor_edge: int
    train_error: int
    validation_error: int
    graph: gr.ConstraintGraph


@dataclass
class LearnTrace:
    """Initial errors plus one record per accepted iteration."""

    initial_train_error: int
    initial_validation_error: int
    initial_graph: gr.ConstraintGraph
    steps: list

    def __len__(self):
        return len(self.steps)

    def _rows(self):
        first = LearnStep(0, None, None, self.initial_train_error,
                          self.initial_validation_error, self.initial_graph)
        return [dict(vars(s), graph=json.loads(gr.serialize(s.graph)))
                for s in [first, *self.steps]]

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r) for r in self._rows()) + "\n"

    def to_progress_csv(self) -> str:
        lines = ["iteration,train_fn_fp,validation_fn_fp"]
        for r in self._rows():
            val = "" if r["validation_error"] is None else r["validation_error"]
            lines.append(f"{r['iteration']},{r['train_error']},{val}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------


def _fresh_states(g, count):
    names = {s.name for s in g.states}
    out = []
    next_id = len(g.states)
    for _ in range(count):
        name = f"S{next_id}"
        while name in names:
            name += "x"
        names.add(name)
        out.append(gr.StateId(next_id, name))
        next_id += 1
    return out


def _replace_edge(g, i, new_edges, new_states=()):
    edges = list(g.edges[:i]) + list(new_edges) + list(g.edges[i + 1:])
    return gr.ConstraintGraph(
        states=g.states + tuple(new_states),
        edges=tuple(edges),
        baseline_state=g.baseline_state,
        rpeak_state=g.rpeak_state,
    )


def _delete_state(g, i, j, merged):
    """Remove the target state of edge i: edge i becomes the merged edge,
    the state's out-edge j goes, and the states after it are renumbered."""
    victim = g.edges[i].target

    def remap(v):
        return v - 1 if v > victim else v

    states = tuple(
        gr.StateId(remap(s.id), s.name) for s in g.states if s.id != victim
    )
    spliced = list(g.edges)
    spliced[i] = merged
    edges = tuple(
        gr.Edge(remap(e.source), remap(e.target), e.direction, e.gap, e.penalty)
        for k, e in enumerate(spliced) if k != j
    )
    return gr.ConstraintGraph(
        states=states,
        edges=edges,
        baseline_state=remap(g.baseline_state),
        rpeak_state=remap(g.rpeak_state),
    )


def enumerate_candidates(g: gr.ConstraintGraph, min_gap: float = 0.0) -> list:
    """All applicable edit candidates, ten kinds per edge.

    A doubled gap below min_gap becomes min_gap, and a halved gap below
    min_gap / 2 becomes 0.  Inapplicable deletions (protected target, wrong
    degrees, would create a self-loop) and any edit whose resulting graph the
    ConstraintGraph constructor refuses are omitted; omissions are logged at
    debug level.
    """
    out = []
    protected = {g.baseline_state, g.rpeak_state}
    w1, w2 = _fresh_states(g, 2)
    for i, e in enumerate(g.edges):
        half = e.gap / 2.0
        flip = gr.DOWN if e.direction == gr.UP else gr.UP

        inserts = (
            ("split_same_dir",
             [replace(e, target=w1.id, gap=half, penalty=e.penalty / 2.0),
              replace(e, source=w1.id, gap=half, penalty=e.penalty / 2.0)], [w1]),
            ("detour_before",
             [replace(e, target=w1.id, direction=flip, gap=half),
              replace(e, source=w1.id)], [w1]),
            ("detour_after",
             [replace(e, target=w1.id),
              replace(e, source=w1.id, direction=flip, gap=half)], [w1]),
            ("insert_two_bump",
             [replace(e, target=w1.id),
              replace(e, source=w1.id, target=w2.id, direction=flip, gap=half),
              replace(e, source=w2.id, gap=half)], [w1, w2]),
        )
        for kind, edges, states in inserts:
            _append_candidate(out, kind, i, _replace_edge, g, i, edges, states)

        vin = g.in_edges(e.target)
        vout = g.out_edges(e.target)
        if e.target in protected or len(vin) != 1 or len(vout) != 1:
            log.debug("edge %d: delete kinds inapplicable (protected or degree != 1)", i)
        elif vout[0][1].target == e.source:
            log.debug("edge %d: delete kinds would create a self-loop", i)
        else:
            j, succ = vout[0]
            for kind, kept in (("delete_merge_keep_in", e), ("delete_merge_keep_out", succ)):
                merged = replace(kept, source=e.source, target=succ.target)
                _append_candidate(out, kind, i, _delete_state, g, i, j, merged)

        down_gap = e.gap / EDIT_FACTOR
        tunings = (
            ("penalty_up", replace(e, penalty=e.penalty * EDIT_FACTOR)),
            ("penalty_down", replace(e, penalty=e.penalty / EDIT_FACTOR)),
            ("gap_up", replace(e, gap=max(e.gap * EDIT_FACTOR, min_gap))),
            ("gap_down", replace(e, gap=0.0 if down_gap < min_gap / 2.0 else down_gap)),
        )
        for kind, edited in tunings:
            _append_candidate(out, kind, i, _replace_edge, g, i, [edited])
    return out


def _append_candidate(out, kind, anchor, build, *args):
    """Append the candidate build(*args) makes, or log why it is invalid."""
    try:
        graph_ = build(*args)
    except gr.GraphValidationError as exc:
        log.debug("edit %s on edge %d omitted: %s", kind, anchor, exc.violations)
        return
    out.append(EditCandidate(kind=kind, anchor_edge=anchor, resulting_graph=graph_))


# ---------------------------------------------------------------------------
# Scoring and the greedy loop
# ---------------------------------------------------------------------------


def evaluate_graph(g: gr.ConstraintGraph, windows, cfg: LearnConfig):
    """(total FN+FP, report) for the graph over labeled windows.

    Windows are built to open in baseline context, so the solve is anchored
    at the graph's baseline state; that also pins the phase of multi-state
    cycles, which a free start leaves ambiguous.  A window the solver cannot
    explain counts all of its labels as false negatives instead of raising.
    When a window carries an eval_span, detections outside that core region
    are ignored.
    """
    if not windows:
        raise ValueError("windows must be non-empty")
    rows = []
    total = 0
    for w in windows:
        labels = w.rpeak_annotations.tolist()
        try:
            seg = solve(w.signal, g, start_state=g.baseline_state)
            det = extract_rpeaks(seg, w.signal, g)
        except InfeasibleModelError:
            row = RecordCounts(w.record_id, tp=0, fp=0, fn=len(labels),
                               infeasible_windows=1)
        else:
            if w.eval_span is not None:
                lo, hi = w.eval_span
                det = [d for d in det if lo <= d < hi]
            tol = cfg.tolerance_ms * w.signal.sample_rate / 1000.0
            # a product past the float range exceeds any span, and match
            # treats every tolerance beyond the inputs' span as that span
            mr = match(labels, det, int(round(min(tol, sys.float_info.max))))
            row = RecordCounts(w.record_id, tp=mr.tp, fp=mr.fp, fn=mr.fn)
        rows.append(row)
        total += row.fn + row.fp
    return total, DetectionReport(records=rows)


def default_initial_graph(windows) -> gr.ConstraintGraph:
    """Starting graph with data-derived edge values.

    Penalty is 20 times the squared noise level (a median-absolute-deviation
    estimate on first differences); both gaps are 30% of the p99-p1
    amplitude spread.  Medians are taken across windows.
    """
    if not windows:
        raise ValueError("windows must be non-empty")
    lams = []
    gaps = []
    for w in windows:
        x = w.signal.samples
        d = np.diff(x)
        sigma = 1.4826 * float(_median(np.abs(d - _median(d)))) / math.sqrt(2.0)
        lams.append(20.0 * sigma * sigma)
        p1, p99 = _percentiles(x, (1, 99))
        gaps.append(0.3 * float(p99 - p1))
    lam = float(_median(lams))
    gap = float(_median(gaps))
    return gr.initial_graph(gap, gap, lam)


def _gap_step(windows) -> float:
    """The gap edits' step: 5% of the p5-p95 amplitude spread, median over
    windows."""
    spreads = []
    for w in windows:
        p5, p95 = _percentiles(w.signal.samples, (5, 95))
        spreads.append(0.05 * float(p95 - p5))
    return float(_median(spreads))


def _tie_tail(g):
    """What breaks a tie on training error: fewer states, then fewer edges,
    then a smaller penalty sum."""
    return (len(g.states), len(g.edges), sum(e.penalty for e in g.edges))


def learn(initial: gr.ConstraintGraph, windows, cfg: LearnConfig = None):
    """Greedy hill climb from the initial graph.

    Accepts the candidate with the strictly smallest training FN+FP each
    iteration (ties prefer fewer states, then fewer edges, then a smaller
    penalty sum, then enumeration order).  Stops when no candidate improves,
    at max_iterations, or after the validation error rises on two
    consecutive accepted iterations, in which case the best-validation
    snapshot is returned.  The initial graph, like every ConstraintGraph,
    was checked when it was built.

    Candidates are scored best-first.  A heap holds one entry per candidate:
    its running FN+FP over the training windows scored so far (shortest
    window first), its tie tail and its index.  The smallest entry is scored
    on its next window until it has scored them all, and then it wins:
    running totals only grow, so no other candidate can end below it.  When
    the smallest running total reaches the current training error, nothing
    is accepted.  The accepted edits are exactly those of scoring every
    candidate on every window.
    """
    if cfg is None:
        cfg = LearnConfig()
    if not windows:
        raise ValueError("windows must be non-empty")
    step = _gap_step(windows)

    rng = np.random.default_rng(cfg.seed)
    n = len(windows)
    n_val = int(round(cfg.validation_fraction * n))
    n_val = min(n_val, n - 1)
    val_ids = set(rng.choice(n, size=n_val, replace=False).tolist()) if n_val > 0 else set()
    train_w = sorted((w for i, w in enumerate(windows) if i not in val_ids),
                     key=lambda w: len(w.signal))
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
        cands = enumerate_candidates(current, min_gap=step)
        # (running FN+FP, tie tail, enumeration index, training windows scored)
        heap = [(0, _tie_tail(c.resulting_graph), idx, 0) for idx, c in enumerate(cands)]
        heapq.heapify(heap)
        solves = 0
        while heap and heap[0][0] < train_err and heap[0][3] < len(train_w):
            err, tail, idx, k = heap[0]
            window_err, _ = evaluate_graph(cands[idx].resulting_graph, [train_w[k]], cfg)
            heapq.heapreplace(heap, (err + window_err, tail, idx, k + 1))
            solves += 1
        log.debug("iteration %d: %d candidates, %d finished, %d solves", it, len(cands),
                  sum(entry[3] == len(train_w) for entry in heap), solves)
        if not heap or heap[0][0] >= train_err:
            break  # no candidate scores below train_err
        train_err, _, idx, _ = heap[0]
        cand = cands[idx]
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
