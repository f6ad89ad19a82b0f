"""Globally optimal graph-constrained segmentation of a 1-D signal.

One piecewise-quadratic value function per hidden state is carried across
the samples.  At each step a state's function is the pointwise minimum of
its own previous function (no change) and, per incoming edge, the gap
envelope of the source state's function plus the edge penalty; the new
sample's squared-error term is then added.  Backtracking uses compact
per-(state, step) decision records so memory stays linear in the signal
length.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import graph as gr
from .pwq import _add_point_loss_k, _global_min_k, _min_k, _prefix_min_k, _reflect_k


class InfeasibleModelError(RuntimeError):
    """No state admits any feasible mean at some step."""

    def __init__(self, state, t):
        self.state = state
        self.t = t
        super().__init__(f"model infeasible at state {state}, sample {t}")


@dataclass
class Signal:
    """Uniformly sampled amplitude sequence."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or len(self.samples) < 2:
            raise ValueError("signal needs at least 2 samples")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("signal contains non-finite samples")
        if not self.sample_rate > 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")

    def __len__(self):
        return len(self.samples)

    def __eq__(self, other):
        if not isinstance(other, Signal):
            return NotImplemented
        return self.sample_rate == other.sample_rate and np.array_equal(
            self.samples, other.samples
        )


@dataclass
class Segmentation:
    """Solver output.

    ``boundaries[k]`` is the number of samples before the k-th change, i.e.
    the 1-based index of the last sample of the segment to its left; segment
    k covers samples[boundaries[k-1]:boundaries[k]] in 0-based slice terms.
    ``edges_taken[k]`` is the graph edge index used at ``boundaries[k]``.
    """

    boundaries: list
    edges_taken: list
    means: list
    states: list
    total_cost: float
    stats: dict = field(default_factory=dict, repr=False, compare=False)

    def segment_slices(self, n: int):
        cuts = [0] + list(self.boundaries) + [n]
        return [(cuts[k], cuts[k + 1]) for k in range(len(self.means))]


def solve_domain(signal: Signal):
    """Mean-value search interval: the data range padded by 1% per side."""
    lo = float(np.min(signal.samples))
    hi = float(np.max(signal.samples))
    span = hi - lo
    eps = 0.01 * span if span > 0 else max(1.0, 0.01 * abs(hi))
    return lo - eps, hi + eps


def _resolve_start(graph_, start_state):
    if start_state == "free" or start_state is None:
        return None
    if isinstance(start_state, gr.StateId):
        start_state = start_state.id
    if isinstance(start_state, str):
        return graph_.state_named(start_state).id
    if isinstance(start_state, int) and 0 <= start_state < len(graph_.states):
        return start_state
    raise ValueError(f"start_state {start_state!r} is not a state of the graph")


# decision kinds stored per piece of the pre-loss candidate function
_K_STAY = 0      # previous mean equals the current mean
_K_THR_UP = 1    # previous mean = m - gap (up edge, envelope still descending)
_K_THR_DOWN = 2  # previous mean = m + gap (down edge)
_K_POINT = 3     # previous mean is a fixed argmin point


def solve(signal: Signal, graph_: gr.ConstraintGraph, start_state="free") -> Segmentation:
    """Minimise total squared error plus change penalties subject to the graph.

    Returns the optimal boundaries, per-segment means and hidden states, the
    edges taken, and the optimal total cost.  At equal cost, staying in a
    state is preferred over changing, and lower-index edges over higher.
    """
    violations = gr.validate(graph_)
    if violations:
        raise gr.GraphValidationError(violations)
    y = signal.samples
    n = len(y)
    dlo, dhi = solve_domain(signal)
    width = dhi - dlo
    nstates = len(graph_.states)
    start = _resolve_start(graph_, start_state)

    # (edge index, source, is_up, gap, penalty) per target state
    in_edges = [[] for _ in range(nstates)]
    for idx, e in enumerate(graph_.edges):
        in_edges[e.target].append((idx, e.source, e.direction == gr.UP, e.gap, e.penalty))

    y0 = float(y[0])
    base = (dlo, dhi, 1.0, -2.0 * y0, y0 * y0, None)
    funcs = [
        [base] if (start is None or v == start) else [] for v in range(nstates)
    ]

    # flat decision stores per state: interval upper bound, branch (edge index
    # or -1 for stay), argmin kind, argmin point; offsets index them by step
    dec_hi = [array("d") for _ in range(nstates)]
    dec_br = [array("i") for _ in range(nstates)]
    dec_kind = [array("b") for _ in range(nstates)]
    dec_pt = [array("d") for _ in range(nstates)]
    dec_off = [array("q", [0]) for _ in range(nstates)]

    piece_total = 0
    piece_max = 0

    yy = y.tolist()
    for t in range(1, n):
        yt = yy[t]
        new_funcs = []
        for v in range(nstates):
            cand = funcs[v]
            for eidx, src_v, is_up, gap, lam in in_edges[v]:
                src = funcs[src_v]
                if not src or gap >= width:
                    continue
                # a down edge is an up edge on the reflected axis m -> -m
                if is_up:
                    top, sgn, thr_tag = dhi, 1.0, (eidx, _K_THR_UP, 0.0)
                    env = _prefix_min_k(src, top)
                else:
                    top, sgn, thr_tag = -dlo, -1.0, (eidx, _K_THR_DOWN, 0.0)
                    env = _prefix_min_k(_reflect_k(src), top)
                    env.reverse()
                # shift by gap with clipping at top, add the penalty, tag, and
                # map a down edge's piece back to the original axis (0.0 - x
                # rather than -x, so an exact zero comes back as +0.0)
                branch = []
                for (plo, phi, a, b, c, tg) in env:
                    plo += gap
                    if plo >= top:
                        continue
                    phi += gap
                    if phi > top:
                        phi = top
                    c = (a * gap - b) * gap + c + lam
                    b -= 2.0 * a * gap
                    ntag = thr_tag if tg[0] == "thr" else (eidx, _K_POINT, sgn * tg[1])
                    if is_up:
                        branch.append((plo, phi, a, b, c, ntag))
                    else:
                        branch.append((0.0 - phi, 0.0 - plo, a, 0.0 - b, c, ntag))
                cand = _min_k(cand, branch) if cand else branch
            if not cand:
                new_funcs.append(cand)
                dec_off[v].append(len(dec_hi[v]))
                continue

            # compress the per-piece decisions into runs
            d_hi = dec_hi[v]
            d_br = dec_br[v]
            d_kind = dec_kind[v]
            d_pt = dec_pt[v]
            last_key = None
            for p in cand:
                tg = p[5]
                key = (-1, _K_STAY, 0.0) if tg is None else tg
                if key == last_key:
                    d_hi[-1] = p[1]
                else:
                    d_hi.append(p[1])
                    d_br.append(key[0])
                    d_kind.append(key[1])
                    d_pt.append(key[2])
                    last_key = key
            dec_off[v].append(len(d_hi))

            npieces = len(cand)
            piece_total += npieces
            if npieces > piece_max:
                piece_max = npieces
            new_funcs.append(_add_point_loss_k(cand, yt, strip_tags=True))
        funcs = new_funcs
        if not any(funcs):
            raise InfeasibleModelError("every state", t)

    best_v = None
    best_arg = None
    best_val = math.inf
    for v in range(nstates):
        if not funcs[v]:
            continue
        arg, val = _global_min_k(funcs[v])
        if val < best_val:
            best_v, best_arg, best_val = v, arg, val
    if best_v is None:
        raise InfeasibleModelError("all", n - 1)

    # backtrack through the decision records
    m = best_arg
    v = best_v
    rev_states = [v]
    rev_means = [m]
    rev_bounds = []
    rev_edges = []
    edges = graph_.edges
    for t in range(n - 1, 0, -1):
        off = dec_off[v]
        lo_i = off[t - 1]
        hi_i = off[t]
        d_hi = dec_hi[v]
        i = lo_i
        while i < hi_i - 1 and d_hi[i] < m:
            i += 1
        br = dec_br[v][i]
        if br >= 0:
            e = edges[br]
            rev_bounds.append(t)
            rev_edges.append(br)
            kind = dec_kind[v][i]
            if kind == _K_THR_UP:
                m = m - e.gap
            elif kind == _K_THR_DOWN:
                m = m + e.gap
            else:
                m = dec_pt[v][i]
            if m < dlo:
                m = dlo
            elif m > dhi:
                m = dhi
            v = e.source
            rev_states.append(v)
            rev_means.append(m)

    rev_bounds.reverse()
    rev_edges.reverse()
    rev_states.reverse()
    rev_means.reverse()
    stats = {
        "mean_pieces": piece_total / ((n - 1) * nstates) if n > 1 else 0.0,
        "max_pieces": piece_max,
    }
    return Segmentation(
        boundaries=rev_bounds,
        edges_taken=rev_edges,
        means=rev_means,
        states=rev_states,
        total_cost=best_val,
        stats=stats,
    )


def extract_rpeaks(seg: Segmentation, signal: Signal, graph_: gr.ConstraintGraph):
    """One 0-based sample index per maximal run of the R state.

    Within a run entered via an up edge the extremum is the maximum sample,
    via a down edge the minimum; ties break to the earliest sample.  A run
    that starts the record uses the opposite of its exit edge's direction.
    """
    n = len(signal)
    cuts = [0] + list(seg.boundaries) + [n]
    r = graph_.rpeak_state
    peaks = []
    k = 0
    nseg = len(seg.states)
    while k < nseg:
        if seg.states[k] != r:
            k += 1
            continue
        first = k
        while k + 1 < nseg and seg.states[k + 1] == r:
            k += 1
        last = k
        start, end = cuts[first], cuts[last + 1]
        if first > 0:
            direction = graph_.edges[seg.edges_taken[first - 1]].direction
        elif last + 1 < nseg:
            exit_dir = graph_.edges[seg.edges_taken[last]].direction
            direction = gr.UP if exit_dir == gr.DOWN else gr.DOWN
        else:
            direction = gr.UP
        window = signal.samples[start:end]
        if direction == gr.UP:
            peaks.append(start + int(np.argmax(window)))
        else:
            peaks.append(start + int(np.argmin(window)))
        k += 1
    return peaks
