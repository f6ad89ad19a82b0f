"""The Python forward loop and backtrack of ``graphseg.solver.solve``.

This is the pure-Python functional dynamic program, over the kernels of
``reference_pwq.py``, that the compiled solver (``src/graphseg/_solve.c``)
repeats operation for operation.  Tests compare the two bit for bit, so
keep any change to one mirrored in the other.
"""

import math
from array import array
from dataclasses import replace

import numpy as np

from graphseg import graph as gr
from graphseg.solver import (InfeasibleModelError, Segmentation, Signal, _resolve_start,
                             _image_exponent, solve_domain)
from reference_pwq import _add_point_loss_k, _global_min_k, _min_k, _prefix_min_k, _reflect_k


# decision kinds stored per piece of the pre-loss candidate function
_K_STAY = 0      # previous mean equals the current mean
_K_THR_UP = 1    # previous mean = m - gap (up edge, envelope still descending)
_K_THR_DOWN = 2  # previous mean = m + gap (down edge)
_K_POINT = 3     # previous mean is a fixed argmin point


def solve(signal, graph_, start_state="free"):
    """``graphseg.solver.solve``, computed in Python."""
    violations = gr.validate(graph_)
    if violations:
        raise gr.GraphValidationError(violations)
    k = _image_exponent(float(np.min(signal.samples)), float(np.max(signal.samples)))
    if k == 0:
        return _solve(signal, graph_, start_state)
    # a tiny-amplitude input is solved as its power-of-two image
    image = Signal(np.ldexp(signal.samples, -k), signal.sample_rate)
    with np.errstate(over="ignore"):  # past the float range: inf, as in solve
        edges = tuple(replace(e, gap=float(np.ldexp(e.gap, -k)),
                              penalty=float(np.ldexp(e.penalty, -2 * k)))
                      for e in graph_.edges)
    # the image's edge values may pass the float range (inf), which no
    # ConstraintGraph holds, so they travel beside the graph, as in solve
    seg = _solve(image, graph_, start_state, edges)
    seg.means = [math.ldexp(m, k) for m in seg.means]
    seg.total_cost = math.ldexp(seg.total_cost, 2 * k)
    return seg


def _solve(signal, graph_, start_state, edges=None):
    edges = graph_.edges if edges is None else edges
    y = signal.samples
    n = len(y)
    dlo, dhi = solve_domain(signal)
    width = dhi - dlo
    nstates = len(graph_.states)
    start = _resolve_start(graph_, start_state)

    # (edge index, source, is_up, gap, penalty) per target state
    in_edges = [[] for _ in range(nstates)]
    for idx, e in enumerate(edges):
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
        "decision_runs": sum(len(d) for d in dec_hi),
        "point_runs": sum(d.count(_K_POINT) for d in dec_kind),
    }
    return Segmentation(
        boundaries=rev_bounds,
        edges_taken=rev_edges,
        means=rev_means,
        states=rev_states,
        total_cost=best_val,
        stats=stats,
    )
