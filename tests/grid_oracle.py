"""Independent oracles for the test suite.

These import nothing from the package, its reference kernels or the test
helpers.  The segmentation oracle discretizes the mean axis and runs an
exhaustive dynamic program over (state, grid index); a companion routine
refits a fixed segmentation on the same grid, which the tests use to certify
optimum-uniqueness margins.  The function-algebra oracle replays a trace
exactly as a minimum of convex terms (see its section).

Resolution bound: snapping the continuous optimum's means down to the grid
changes each sample's squared error by at most 2*W*delta + delta**2 with W
the mean-domain width, so when every gap is an exact multiple of the grid
step the oracle cost exceeds the true optimum by at most
N * delta * (2*W + delta).
"""

import numpy as np


def prefix_min_argmin(x):
    """Running minimum and the first index attaining it."""
    pm = np.minimum.accumulate(x)
    strict = x < np.concatenate(([np.inf], pm[:-1]))
    arg = np.where(strict, np.arange(len(x)), -1)
    arg = np.maximum.accumulate(arg)
    return pm, arg


def suffix_min_argmin(x):
    pm, arg = prefix_min_argmin(x[::-1])
    n = len(x)
    return pm[::-1], (n - 1 - arg)[::-1]


def _shifted_change_branch(src_costs, direction, k, n_grid):
    """min over predecessor grid means compatible with a gap of k cells."""
    out = np.full(n_grid, np.inf)
    arg = np.zeros(n_grid, dtype=np.int64)
    if direction == "up":
        pm, pa = prefix_min_argmin(src_costs)
        if k == 0:
            return pm, pa
        if k < n_grid:
            out[k:] = pm[:-k]
            arg[k:] = pa[:-k]
    else:
        sm, sa = suffix_min_argmin(src_costs)
        if k == 0:
            return sm, sa
        if k < n_grid:
            out[:-k] = sm[k:]
            arg[:-k] = sa[k:]
    return out, arg


def grid_dp(y, g, domain, n_grid=801, start=None):
    """Exhaustive DP over (sample, state, grid mean).

    Returns (cost, boundaries, states, edges_taken, grid).  Boundaries use
    prefix-length convention.  Ties prefer staying, then lower edge index,
    matching the solver's documented tie-break.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    lo, hi = domain
    grid = np.linspace(lo, hi, n_grid)
    delta = (hi - lo) / (n_grid - 1)
    nv = len(g.states)
    koff = [int(round(e.gap / delta)) for e in g.edges]
    in_edges = [[(i, e) for i, e in enumerate(g.edges) if e.target == v] for v in range(nv)]

    D = np.empty((nv, n_grid))
    loss0 = (y[0] - grid) ** 2
    for v in range(nv):
        D[v] = loss0 if (start is None or v == start) else np.inf

    branch_hist = np.empty((n - 1, nv, n_grid), dtype=np.int32)
    prev_hist = np.empty((n - 1, nv, n_grid), dtype=np.int32)
    idx = np.arange(n_grid, dtype=np.int32)

    for t in range(1, n):
        loss = (y[t] - grid) ** 2
        newD = np.empty((nv, n_grid))
        for v in range(nv):
            best = D[v].copy()
            br = np.full(n_grid, -1, dtype=np.int32)
            pv = idx.copy()
            for ei, e in in_edges[v]:
                cand, carg = _shifted_change_branch(D[e.source], e.direction,
                                                    koff[ei], n_grid)
                cand = cand + e.penalty
                upd = cand < best
                best[upd] = cand[upd]
                br[upd] = ei
                pv[upd] = carg[upd]
            newD[v] = loss + best
            branch_hist[t - 1, v] = br
            prev_hist[t - 1, v] = pv
        D = newD

    best_v = best_j = None
    best_val = np.inf
    for v in range(nv):
        j = int(np.argmin(D[v]))
        if D[v][j] < best_val:
            best_v, best_j, best_val = v, j, float(D[v][j])

    bounds = []
    edges_taken = []
    states_rev = [best_v]
    v, j = best_v, best_j
    for t in range(n - 1, 0, -1):
        br = int(branch_hist[t - 1, v, j])
        pj = int(prev_hist[t - 1, v, j])
        if br >= 0:
            bounds.append(t)
            edges_taken.append(br)
            v = g.edges[br].source
            states_rev.append(v)
        j = pj
    bounds.reverse()
    edges_taken.reverse()
    states_rev.reverse()
    return best_val, bounds, states_rev, edges_taken, grid


def grid_refit_cost(y, g, domain, n_grid, boundaries, edges_taken):
    """Best grid cost of a FIXED segmentation (boundaries and edges).

    Chain DP over segments with the same gap discretization as grid_dp;
    used to measure how close an alternative boundary set comes to the
    oracle optimum.
    """
    y = np.asarray(y, dtype=float)
    lo, hi = domain
    grid = np.linspace(lo, hi, n_grid)
    delta = (hi - lo) / (n_grid - 1)
    cuts = [0] + list(boundaries) + [len(y)]

    def seg_cost(a, b):
        seg = y[a:b]
        cnt = len(seg)
        s = seg.sum()
        s2 = (seg ** 2).sum()
        return cnt * grid ** 2 - 2.0 * s * grid + s2

    dp = seg_cost(cuts[0], cuts[1])
    for k, ei in enumerate(edges_taken):
        e = g.edges[ei]
        koffe = int(round(e.gap / delta))
        cand, _ = _shifted_change_branch(dp, e.direction, koffe, n_grid)
        dp = cand + e.penalty + seg_cost(cuts[k + 1], cuts[k + 2])
    return float(np.min(dp))


def resolution_bound(n, domain, n_grid=801):
    """Worst-case oracle excess over the continuous optimum (see module doc)."""
    w = domain[1] - domain[0]
    delta = w / (n_grid - 1)
    return n * delta * (2.0 * w + delta)


# ---------------------------------------------------------------------------
# Function-algebra oracle: replay a random_trace exactly on convex terms.
#
# Every step keeps the function a minimum of convex terms: "start" and "min"
# add a quadratic term, "loss" and "const" add to every term, and a running
# minimum distributes over a minimum.  On one convex term t with argmin x,
# min{t(m') : m' <= m - gap} = t(min(m - gap, x)), which is convex again;
# "geq" is its mirror, t(max(m + gap, x)).  Gaps are whole fine cells, so a
# term stays feasible on whole cells.  No crossing of two functions is ever
# computed, so the oracle shares no logic with the minima it checks.
# ---------------------------------------------------------------------------

N_COARSE = 10001
OVERSAMPLE = 120
N_FINE = (N_COARSE - 1) * OVERSAMPLE + 1


def fine_step(domain):
    """The fine grid's spacing on domain."""
    return (float(domain[1]) - float(domain[0])) / (N_FINE - 1)


def comparison_points(domain):
    """Every OVERSAMPLE-th fine cell of domain: where functions are compared."""
    return float(domain[0]) + np.arange(0, N_FINE, OVERSAMPLE) * fine_step(domain)


def _shift(piece, d):
    """A piece (start, a, b, c) of a*m^2 + b*m + c moved right by d."""
    start, a, b, c = piece
    return start + d, a, b - 2.0 * a * d, c + d * (a * d - b)


def _least(pieces, lo, hi):
    """(x, t(x)) at a point x of [lo, hi] where the convex term t is least."""
    best = (None, np.inf)
    for (start, a, b, c), end in zip(pieces, [p[0] for p in pieces[1:]] + [np.inf]):
        s, e = max(start, lo), min(end, hi)
        x = min(max(-b / (2.0 * a), s), e) if a > 0.0 else (s if b >= 0.0 else e)
        if s <= e and (a * x + b) * x + c < best[1]:
            best = (x, (a * x + b) * x + c)
    return best


def _envelope(term, name, gap, cells, lo, step):
    """A term after a "leq" or "geq" step; first > last once it leaves the domain."""
    first, last, pieces = term
    x, v = _least(pieces, lo + first * step, lo + last * step)
    starts = [p[0] for p in pieces]
    if name == "leq":
        below = [_shift(p, gap) for p in pieces[:np.searchsorted(starts, x)]]
        return first + cells, N_FINE - 1, below + [(x + gap, 0.0, 0.0, v)]
    k = np.searchsorted(starts, x, side="right") - 1
    above = [_shift(p, -gap) for p in [(x,) + pieces[k][1:]] + pieces[k + 1:]]
    return 0, last - cells, [(-np.inf, 0.0, 0.0, v)] + above


def trace_values(ops, domain):
    """The random_trace ops at comparison_points(domain): the lowest term at
    each point, +inf where no term is feasible.  A term (first cell, last
    cell, pieces) holds each piece (start, a, b, c), a*m^2 + b*m + c, from its
    start up to the next piece's start."""
    lo, step = float(domain[0]), fine_step(domain)
    terms = []
    for name, *args in ops:
        if name in ("start", "min"):
            y, k = args[0], args[1] if name == "min" else 0.0
            terms.append((0, N_FINE - 1, [(-np.inf, 1.0, -2.0 * y, y * y + k)]))
        elif name in ("leq", "geq"):
            terms = [t for t in (_envelope(t, name, *args, lo, step) for t in terms)
                     if t[0] <= t[1]]
        else:
            y = args[0]
            da, db, dc = (1.0, -2.0 * y, y * y) if name == "loss" else (0.0, 0.0, y)
            terms = [(first, last, [(s, a + da, b + db, c + dc) for s, a, b, c in ps])
                     for first, last, ps in terms]
    cells = np.arange(0, N_FINE, OVERSAMPLE)
    points = comparison_points(domain)
    out = np.full(N_COARSE, np.inf)
    for first, last, pieces in terms:
        on = (cells >= first) & (cells <= last)
        starts, a, b, c = np.array(pieces).T
        k = np.searchsorted(starts, points[on], side="right") - 1
        out[on] = np.minimum(out[on], (a[k] * points[on] + b[k]) * points[on] + c[k])
    return out


def assert_matches_oracle(pwq_func, ops, tol=1e-9, where=""):
    """Compare a PiecewiseQuad with the random_trace ops at the comparison points."""
    points = comparison_points(pwq_func.domain)
    expect = trace_values(ops, pwq_func.domain)
    got = pwq_func(points)
    finite = np.isfinite(expect)
    assert np.array_equal(finite, np.isfinite(got)), (
        f"feasible-region mismatch {where}: "
        f"{int(finite.sum())} oracle vs {int(np.isfinite(got).sum())} symbolic"
    )
    if finite.any():
        err = float(np.max(np.abs(got[finite] - expect[finite])))
        assert err <= tol, f"value mismatch {where}: max err {err:.3e} > {tol}"
