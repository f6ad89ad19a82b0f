"""Greedy structure search over constraint graphs driven by detection error.

Each iteration enumerates a fixed family of ten edit candidates per edge
(three single-node insertions, one two-node insertion, two node deletions,
and multiplicative penalty/gap adjustments), scores every candidate by the
total number of detection errors on the training windows, and accepts the
strictly best one.  The loop stops when nothing improves, at the iteration
cap, or when the validation error has risen twice in a row.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import graph as gr
from .evaluate import DetectionReport, RecordCounts, match
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


@dataclass
class LearnConfig:
    max_iterations: int = 20
    tolerance_ms: float = 100.0
    validation_fraction: float = 0.25
    penalty_factor: float = 2.0
    gap_factor: float = 2.0
    min_gap: float = 0.0      # gap-edit step floor; 0 means derive from the data
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.penalty_factor <= 1.0 or self.gap_factor <= 1.0:
            raise ValueError("penalty_factor and gap_factor must be > 1")
        if self.min_gap < 0:
            raise ValueError("min_gap must be >= 0")


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
        rows = [
            {
                "iteration": 0,
                "kind": None,
                "anchor_edge": None,
                "train_error": self.initial_train_error,
                "validation_error": self.initial_validation_error,
                "graph": json.loads(gr.serialize(self.initial_graph)),
            }
        ]
        for s in self.steps:
            rows.append(
                {
                    "iteration": s.iteration,
                    "kind": s.kind,
                    "anchor_edge": s.anchor_edge,
                    "train_error": s.train_error,
                    "validation_error": s.validation_error,
                    "graph": json.loads(gr.serialize(s.graph)),
                }
            )
        return rows

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


def _flip(direction):
    return gr.DOWN if direction == gr.UP else gr.UP


def _replace_edge(g, i, new_edges, new_states=()):
    edges = list(g.edges[:i]) + list(new_edges) + list(g.edges[i + 1:])
    return gr.ConstraintGraph(
        states=g.states + tuple(new_states),
        edges=tuple(edges),
        baseline_state=g.baseline_state,
        rpeak_state=g.rpeak_state,
    )


def _delete_state(g, victim, drop_edges, new_edge, insert_at):
    """Remove a state and two edges, splice in a replacement edge, reindex."""

    def remap(v):
        return v - 1 if v > victim else v

    states = tuple(
        gr.StateId(remap(s.id), s.name) for s in g.states if s.id != victim
    )
    edges = []
    for i, e in enumerate(g.edges):
        if i == insert_at:
            edges.append(
                gr.Edge(remap(new_edge.source), remap(new_edge.target),
                        new_edge.direction, new_edge.gap, new_edge.penalty)
            )
        if i in drop_edges:
            continue
        edges.append(gr.Edge(remap(e.source), remap(e.target), e.direction, e.gap, e.penalty))
    return gr.ConstraintGraph(
        states=states,
        edges=tuple(edges),
        baseline_state=remap(g.baseline_state),
        rpeak_state=remap(g.rpeak_state),
    )


def enumerate_candidates(g: gr.ConstraintGraph, cfg: LearnConfig) -> list:
    """All applicable edit candidates, ten kinds per edge.

    Inapplicable deletions (protected target, wrong degrees, would create a
    self-loop or duplicate edge) and any edit whose result fails validation
    are omitted; omissions are logged at debug level.
    """
    out = []
    protected = {g.baseline_state, g.rpeak_state}
    step = cfg.min_gap
    for i, e in enumerate(g.edges):
        half_gap = e.gap / 2.0
        flip = _flip(e.direction)

        (w,) = _fresh_states(g, 1)
        builders = [
            (
                "split_same_dir",
                lambda: _replace_edge(
                    g, i,
                    [gr.Edge(e.source, w.id, e.direction, half_gap, e.penalty / 2.0),
                     gr.Edge(w.id, e.target, e.direction, half_gap, e.penalty / 2.0)],
                    [w],
                ),
            ),
            (
                "detour_before",
                lambda: _replace_edge(
                    g, i,
                    [gr.Edge(e.source, w.id, flip, half_gap, e.penalty),
                     gr.Edge(w.id, e.target, e.direction, e.gap, e.penalty)],
                    [w],
                ),
            ),
            (
                "detour_after",
                lambda: _replace_edge(
                    g, i,
                    [gr.Edge(e.source, w.id, e.direction, e.gap, e.penalty),
                     gr.Edge(w.id, e.target, flip, half_gap, e.penalty)],
                    [w],
                ),
            ),
        ]
        for kind, build in builders:
            _append_candidate(out, kind, i, build())

        w1, w2 = _fresh_states(g, 2)
        two_bump = _replace_edge(
            g, i,
            [gr.Edge(e.source, w1.id, e.direction, e.gap, e.penalty),
             gr.Edge(w1.id, w2.id, flip, half_gap, e.penalty),
             gr.Edge(w2.id, e.target, e.direction, half_gap, e.penalty)],
            [w1, w2],
        )
        _append_candidate(out, "insert_two_bump", i, two_bump)

        victim = e.target
        vin = g.in_edges(victim)
        vout = g.out_edges(victim)
        if victim in protected or len(vin) != 1 or len(vout) != 1:
            log.debug("edge %d: delete kinds inapplicable (protected or degree != 1)", i)
        else:
            si, succ = vout[0]
            if succ.target == e.source:
                log.debug("edge %d: delete kinds would create a self-loop", i)
            else:
                keep_in = _delete_state(
                    g, victim, {i, si},
                    gr.Edge(e.source, succ.target, e.direction, e.gap, e.penalty),
                    insert_at=i,
                )
                _append_candidate(out, "delete_merge_keep_in", i, keep_in)
                keep_out = _delete_state(
                    g, victim, {i, si},
                    gr.Edge(e.source, succ.target, succ.direction, succ.gap, succ.penalty),
                    insert_at=i,
                )
                _append_candidate(out, "delete_merge_keep_out", i, keep_out)

        _append_candidate(
            out, "penalty_up", i,
            _replace_edge(g, i, [replace(e, penalty=e.penalty * cfg.penalty_factor)]),
        )
        _append_candidate(
            out, "penalty_down", i,
            _replace_edge(g, i, [replace(e, penalty=e.penalty / cfg.penalty_factor)]),
        )
        new_gap = max(e.gap * cfg.gap_factor, step)
        _append_candidate(
            out, "gap_up", i, _replace_edge(g, i, [replace(e, gap=new_gap)])
        )
        down_gap = e.gap / cfg.gap_factor
        if down_gap < step / 2.0:
            down_gap = 0.0
        _append_candidate(
            out, "gap_down", i, _replace_edge(g, i, [replace(e, gap=down_gap)])
        )
    return out


def _append_candidate(out, kind, anchor, graph_):
    violations = gr.validate(graph_)
    if violations:
        log.debug("edit %s on edge %d omitted: %s", kind, anchor, violations)
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
    for w in windows:
        labels = w.rpeak_annotations.tolist()
        try:
            seg = solve(w.signal, g, start_state=g.baseline_state)
            det = extract_rpeaks(seg, w.signal, g)
        except InfeasibleModelError:
            rows.append(RecordCounts(w.record_id, tp=0, fp=0, fn=len(labels),
                                     infeasible_windows=1))
            continue
        if w.eval_span is not None:
            lo, hi = w.eval_span
            det = [d for d in det if lo <= d < hi]
        tol = int(round(cfg.tolerance_ms * w.signal.sample_rate / 1000.0))
        mr = match(labels, det, tol)
        rows.append(RecordCounts(w.record_id, tp=mr.tp, fp=mr.fp, fn=mr.fn))
    report = DetectionReport(records=rows)
    return report.fn + report.fp, report


def default_initial_graph(windows) -> gr.ConstraintGraph:
    """Starting graph with data-derived edge values.

    Penalty is 20 times the squared noise level (a median-absolute-deviation
    estimate on first differences); both gaps are 30% of the p99-p1
    amplitude spread.  Medians are taken across windows.
    """
    if isinstance(windows, (list, tuple)) and not windows:
        raise ValueError("windows must be non-empty")
    if not isinstance(windows, (list, tuple)):
        windows = [windows]
    lams = []
    gaps = []
    for w in windows:
        x = w.signal.samples
        d = np.diff(x)
        sigma = 1.4826 * float(np.median(np.abs(d - np.median(d)))) / math.sqrt(2.0)
        lams.append(20.0 * sigma * sigma)
        p1, p99 = np.percentile(x, [1, 99])
        gaps.append(0.3 * float(p99 - p1))
    lam = float(np.median(lams))
    gap = float(np.median(gaps))
    return gr.initial_graph(gap, gap, lam)


def _resolved_min_gap(cfg: LearnConfig, windows) -> LearnConfig:
    if cfg.min_gap > 0:
        return cfg
    spreads = []
    for w in windows:
        p5, p95 = np.percentile(w.signal.samples, [5, 95])
        spreads.append(0.05 * float(p95 - p5))
    return replace(cfg, min_gap=float(np.median(spreads)))


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
    cfg = _resolved_min_gap(cfg, windows)

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

    steps = []

    def trace():
        return LearnTrace(
            initial_train_error=init_train,
            initial_validation_error=init_val,
            initial_graph=initial,
            steps=steps,
        )

    init_train = train_err
    init_val = val_err
    best_val = val_err
    best_val_graph = current
    prev_val = val_err
    rising = 0

    for it in range(1, cfg.max_iterations + 1):
        if train_err == 0:
            break  # nothing can be strictly better
        best = None
        for idx, cand in enumerate(enumerate_candidates(current, cfg)):
            err, _ = evaluate_graph(cand.resulting_graph, train_w, cfg)
            key = _candidate_key(err, cand, idx)
            if best is None or key < best[0]:
                best = (key, cand)
        if best is None or best[0][0] >= train_err:
            break
        current = best[1].resulting_graph
        train_err = best[0][0]
        val_err = evaluate_graph(current, val_w, cfg)[0] if val_w else None
        steps.append(
            LearnStep(
                iteration=it,
                kind=best[1].kind,
                anchor_edge=best[1].anchor_edge,
                train_error=train_err,
                validation_error=val_err,
                graph=current,
            )
        )
        if val_w:
            if val_err < best_val:
                best_val = val_err
                best_val_graph = current
            if val_err > prev_val:
                rising += 1
            else:
                rising = 0
            prev_val = val_err
            if rising >= 2:
                return best_val_graph, trace()
    return current, trace()

