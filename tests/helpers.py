"""Shared builders and checkers for the test suite."""

import math
from fractions import Fraction

import numpy as np

from graphseg import graph as gr
from graphseg import pwq
from graphseg.solver import Signal, solve_domain
from grid_oracle import fine_step


def apply_op(f, op):
    """f after one ``(name, *args)`` step of a random_trace."""
    name, *args = op
    if name == "loss":
        return pwq.add_point_loss(f, args[0])
    if name == "const":
        return pwq.add_constant(f, args[0])
    if name == "min":
        y, k = args
        return pwq.pointwise_min(
            f, pwq.add_constant(pwq.PiecewiseQuad.point_loss(y, f.domain), k))
    if name == "leq":
        return pwq.min_leq_envelope(f, args[0])
    return pwq.min_geq_envelope(f, args[0])


def random_trace(rng, domain=(-6.0, 6.0), n_ops=None, max_losses=8):
    """A random operation sequence, applied to a PiecewiseQuad.

    Returns (PiecewiseQuad, trace).  The trace starts with ``("start", y0)``
    for ``point_loss(y0)``; each later entry is a step for ``apply_op``.  An
    envelope step ``(name, gap, cells)`` has a gap of a whole number of
    fine-grid cells, so the exact oracle's terms shift by whole cells.  The
    sequence stops early once the function is empty.
    """
    y0 = float(rng.uniform(-4, 4))
    f = pwq.PiecewiseQuad.point_loss(y0, domain)
    if n_ops is None:
        n_ops = int(rng.integers(2, 8))
    losses = 1
    ops = [("start", y0)]
    for _ in range(n_ops):
        name = str(rng.choice(["loss", "min", "leq", "geq", "const"]))
        if name == "loss" and losses >= max_losses:
            name = "const"
        if name == "loss":
            op = ("loss", float(rng.uniform(-4, 4)))
            losses += 1
        elif name == "const":
            op = ("const", float(rng.uniform(-3, 3)))
        elif name == "min":
            op = ("min", float(rng.uniform(-4, 4)), float(rng.uniform(0, 4)))
        else:
            cells = int(rng.integers(0, 200_001))
            op = (name, cells * fine_step(domain), cells)
        f = apply_op(f, op)
        ops.append(op)
        if f.is_empty:
            break
    return f, ops


def random_signal(rng, n=None, n_levels=None):
    """Nonnegative piecewise-constant-ish signal with noise, values in [0, 10]."""
    if n is None:
        n = int(rng.integers(8, 61))
    if n_levels is None:
        n_levels = int(rng.integers(1, 5))
    cuts = sorted(rng.choice(np.arange(1, n), size=min(n_levels - 1, n - 1),
                             replace=False).tolist()) if n_levels > 1 else []
    levels = rng.uniform(1.0, 9.0, n_levels)
    y = np.empty(n)
    prev = 0
    for k, c in enumerate(cuts + [n]):
        y[prev:c] = levels[k]
        prev = c
    y += rng.normal(0.0, 0.5, n)
    return np.clip(y, 0.0, 10.0)


def random_graph(rng, signal, n_states=None, n_grid=801, max_gap_cells=20):
    """Random strongly-connected graph whose gaps are exact grid multiples."""
    if n_states is None:
        n_states = int(rng.integers(2, 5))
    dlo, dhi = solve_domain(Signal(signal, 360.0))
    delta = (dhi - dlo) / (n_grid - 1)
    names = ["B", "R"] + [f"V{i}" for i in range(2, n_states)]
    states = tuple(gr.StateId(i, names[i]) for i in range(n_states))
    edges = []
    for i in range(n_states):
        j = (i + 1) % n_states
        direction = gr.UP if rng.random() < 0.5 else gr.DOWN
        gap = int(rng.integers(0, max_gap_cells + 1)) * delta
        pen = float(rng.uniform(0.2, 4.0))
        edges.append(gr.Edge(i, j, direction, gap, pen))
    for _ in range(int(rng.integers(0, 3))):
        s = int(rng.integers(0, n_states))
        t = int(rng.integers(0, n_states))
        if s == t:
            continue
        direction = gr.UP if rng.random() < 0.5 else gr.DOWN
        gap = int(rng.integers(0, max_gap_cells + 1)) * delta
        pen = float(rng.uniform(0.2, 4.0))
        e = gr.Edge(s, t, direction, gap, pen)
        if any(x == e for x in edges):
            continue
        edges.append(e)
    g = gr.ConstraintGraph(states=states, edges=tuple(edges),
                           baseline_state=0, rpeak_state=1)
    assert gr.validate(g) == []
    return g


def recompute_cost(y, g, seg):
    """Total cost from (boundaries, means, edges_taken), independent of the DP."""
    cuts = [0] + list(seg.boundaries) + [len(y)]
    cost = 0.0
    for k, m in enumerate(seg.means):
        cost += float(np.sum((y[cuts[k]:cuts[k + 1]] - m) ** 2))
    for ei in seg.edges_taken:
        cost += g.edges[ei].penalty
    return cost


def assert_valid_segmentation(y, g, seg, slack=1e-9):
    """Check every structural invariant of a Segmentation."""
    n = len(y)
    assert len(seg.means) == len(seg.states) == len(seg.boundaries) + 1
    assert all(1 <= b <= n - 1 for b in seg.boundaries)
    assert all(b1 < b2 for b1, b2 in zip(seg.boundaries, seg.boundaries[1:]))
    assert len(seg.edges_taken) == len(seg.boundaries)
    for k, ei in enumerate(seg.edges_taken):
        e = g.edges[ei]
        assert (seg.states[k], seg.states[k + 1]) == (e.source, e.target)
        if e.direction == gr.UP:
            assert seg.means[k + 1] >= seg.means[k] + e.gap - slack
        else:
            assert seg.means[k + 1] <= seg.means[k] - e.gap + slack
    recomputed = recompute_cost(y, g, seg)
    denom = max(1.0, abs(recomputed))
    assert abs(recomputed - seg.total_cost) / denom < 1e-6, (
        f"cost mismatch: reported {seg.total_cost}, recomputed {recomputed}"
    )


def _round_to_bits(x, bits):
    """The positive Fraction x rounded to `bits` significant bits, ties to even."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    if Fraction(2) ** e > x:
        e -= 1  # now 2^e <= x < 2^(e + 1)
    scale = Fraction(2) ** (bits - 1 - e)
    return round(x * scale) / scale


def halfway_tokens(rng, count):
    """19-digit decimals off the exact fast path whose value rounded to 64
    significant bits lies exactly halfway between two doubles, though the
    value itself does not: rounding that 64-bit result to a double breaks
    the tie to even, which is the wrong way for about half of them."""
    tokens = []
    while len(tokens) < count:
        d = float(rng.uniform(1.0, 10.0)) * 10.0 ** int(rng.integers(-8, 27))
        mid = Fraction(d) + Fraction(math.ulp(d)) / 2
        e = math.floor(math.log10(d)) - 18
        p10 = Fraction(10) ** e
        w0 = round(mid / p10)
        for w in range(w0 - 2, w0 + 3):
            x = w * p10
            if 10**18 <= w < 10**19 and x != mid and _round_to_bits(x, 64) == mid:
                tokens.append(f"{w}e{e}")
    return tokens
