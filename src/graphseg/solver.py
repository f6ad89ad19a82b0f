"""Globally optimal graph-constrained segmentation of a 1-D signal.

One piecewise-quadratic value function per hidden state is carried across
the samples.  At each step a state's function is the pointwise minimum of
its own previous function (no change) and, per incoming edge, the gap
envelope of the source state's function plus the edge penalty; the new
sample's squared-error term is then added.  Backtracking uses compact
per-(state, step) decision records so memory stays linear in the signal
length.  The forward pass and the backtrack run in C (``_solve.c``, one
call per solve); this module checks the inputs, packs the graph's edges and
unpacks the result.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from . import _native
from . import graph as gr

# graphseg_solve status codes (see _solve.c)
_INFEASIBLE_STEP, _INFEASIBLE_END, _NO_MEMORY, _NOT_FINITE = 1, 2, 3, 5


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
        if not 0 < self.sample_rate < math.inf:
            raise ValueError(f"sample_rate must be positive and finite, got {self.sample_rate}")

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
    ``stats`` holds the mean and maximum pre-loss piece count per (state,
    step) (``mean_pieces``, ``max_pieces``) and the decision runs stored
    (``decision_runs``, of which ``point_runs`` also store a point): the
    decision record took 12 * runs + 8 * points + 8 * states * n bytes.
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
    return _padded(float(np.min(signal.samples)), float(np.max(signal.samples)))


def _padded(lo, hi):
    span = hi - lo
    eps = 0.01 * span if span > 0 else max(1.0, 0.01 * abs(hi))
    return lo - eps, hi + eps


# Below this largest amplitude, solve works on the input times 2^-k, where
# 2^(k-1) <= max|y| < 2^k: the solver's one absolute tolerance (on the
# discriminant of a piece crossing, which scales as amplitude squared) would
# otherwise drop real crossings.  Scaling by a power of two is exact, so the
# answer is, bit for bit, the mapped answer for the image.
_SMALL_AMPLITUDE = 2.0 ** -20


def _image_exponent(lo, hi):
    """k such that solve works on samples and gaps times 2^-k and penalties
    times 2^-2k, given the data range [lo, hi]; 0 leaves the input as is."""
    top = max(abs(lo), abs(hi))
    if top == 0.0 or top >= _SMALL_AMPLITUDE:
        return 0
    return math.frexp(top)[1]


def _resolve_start(graph_, start_state):
    if start_state == "free" or start_state is None:
        return None
    if isinstance(start_state, gr.StateId):
        start_state = start_state.id
    if isinstance(start_state, str):
        try:
            return graph_.state_named(start_state).id
        except KeyError:
            pass
    if (isinstance(start_state, int) and not isinstance(start_state, bool)
            and 0 <= start_state < len(graph_.states)):
        return start_state
    raise ValueError(f"start_state {start_state!r} is not a state of the graph")


def solve(signal: Signal, graph_: gr.ConstraintGraph, start_state="free") -> Segmentation:
    """Minimise total squared error plus change penalties subject to the graph.

    Returns the optimal boundaries, per-segment means and hidden states, the
    edges taken, and the optimal total cost.  At equal cost, staying in a
    state is preferred over changing, and lower-index edges over higher.
    The graph is not checked here: a ConstraintGraph is valid once built.
    """
    if not isinstance(graph_, gr.ConstraintGraph):
        # the C code indexes by edge endpoints that only the constructor checked
        raise TypeError(f"graph must be a ConstraintGraph, got {type(graph_).__name__}")
    y = np.ascontiguousarray(signal.samples)
    n = len(y)
    lo, hi = float(np.min(y)), float(np.max(y))
    k = _image_exponent(lo, hi)
    gaps = np.array([e.gap for e in graph_.edges], dtype=np.float64)
    penalties = np.array([e.penalty for e in graph_.edges], dtype=np.float64)
    if k:
        y, lo, hi = np.ldexp(y, -k), math.ldexp(lo, -k), math.ldexp(hi, -k)
        # a gap or penalty past the float range of the image becomes inf, so
        # its edge is never taken; against image samples below 1 in size,
        # such an edge could never pay for itself anyway
        with np.errstate(over="ignore"):
            gaps, penalties = np.ldexp(gaps, -k), np.ldexp(penalties, -2 * k)
    dlo, dhi = _padded(lo, hi)
    nstates = len(graph_.states)
    start = _resolve_start(graph_, start_state)
    edges = graph_.edges

    bounds = np.empty(n, dtype=np.int64)
    edges_taken = np.empty(n, dtype=np.int32)
    states = np.empty(n, dtype=np.int32)
    means = np.empty(n, dtype=np.float64)
    info = np.zeros(6, dtype=np.int64)
    total_cost = ctypes.c_double()
    status = _native.library().solve(
        y, n, nstates, -1 if start is None else start,
        len(edges),
        np.array([e.source for e in edges], dtype=np.int32),
        np.array([e.target for e in edges], dtype=np.int32),
        np.array([e.direction == gr.UP for e in edges], dtype=np.int8),
        gaps, penalties,
        dlo, dhi,
        bounds, edges_taken, states, means, info, ctypes.byref(total_cost),
    )
    if status == _INFEASIBLE_STEP:
        raise InfeasibleModelError("every state", int(info[1]))
    if status == _INFEASIBLE_END:
        raise InfeasibleModelError("all", n - 1)
    if status == _NO_MEMORY:
        raise MemoryError(f"solve: out of memory at {n} samples")
    if status == _NOT_FINITE:
        raise ValueError("signal amplitudes too large: the segment costs overflow float64")
    if status != 0:
        raise RuntimeError(f"solve: compiled solver returned status {status}")

    first = int(info[0])
    stats = {
        "mean_pieces": int(info[2]) / ((n - 1) * nstates) if n > 1 else 0.0,
        "max_pieces": int(info[3]),
        "decision_runs": int(info[4]),
        "point_runs": int(info[5]),
    }
    return Segmentation(
        boundaries=bounds[first : n - 1].tolist(),
        edges_taken=edges_taken[first : n - 1].tolist(),
        means=np.ldexp(means[first:], k).tolist(),
        states=states[first:].tolist(),
        total_cost=math.ldexp(total_cost.value, 2 * k),
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
