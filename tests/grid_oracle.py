"""Independent brute-force oracles for the test suite.

These never touch the package's piecewise-quadratic representation.  The
segmentation oracle discretizes the mean axis and runs an exhaustive
dynamic program over (state, grid index); a companion routine refits a
fixed segmentation on the same grid, which the tests use to certify
optimum-uniqueness margins.

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
# Function-algebra oracle: compose the same operations on a fine sample grid.
#
# The grid is OVERSAMPLE times finer than the 10001-point comparison grid, so
# within-cell curvature error stays below max|a| * step^2 / 2; envelope gaps
# are restricted to whole numbers of fine cells so index shifts are exact.
# ---------------------------------------------------------------------------

N_COARSE = 10001
OVERSAMPLE = 120
N_FINE = (N_COARSE - 1) * OVERSAMPLE + 1


def fine_step(domain):
    """The fine grid's spacing on domain."""
    return (float(domain[1]) - float(domain[0])) / (N_FINE - 1)


_GRIDS = {}  # (lo, hi) -> the read-only fine grid of that domain


class GridFunc:
    """A function sampled on the shared fine grid; +inf marks infeasible."""

    def __init__(self, domain, values=None):
        self.lo, self.hi = float(domain[0]), float(domain[1])
        self.n = N_FINE
        self.step = fine_step(domain)
        self.grid = _GRIDS.get((self.lo, self.hi))
        if self.grid is None:
            self.grid = self.lo + np.arange(self.n) * self.step
            self.grid.flags.writeable = False
            _GRIDS[self.lo, self.hi] = self.grid
        self.values = np.zeros(self.n) if values is None else values

    def _copy(self, values):
        out = GridFunc.__new__(GridFunc)
        out.lo, out.hi, out.n, out.step, out.grid = (
            self.lo, self.hi, self.n, self.step, self.grid,
        )
        out.values = values
        return out

    def gap_of(self, cells):
        return cells * self.step

    def add_point_loss(self, y):
        d = y - self.grid
        np.square(d, out=d)
        d += self.values
        return self._copy(d)

    def add_constant(self, k):
        return self._copy(self.values + k)

    def pointwise_min(self, other):
        return self._copy(np.minimum(self.values, other.values))

    def min_leq_envelope(self, cells):
        pm = np.minimum.accumulate(self.values)
        out = np.full(self.n, np.inf)
        if cells == 0:
            out = pm
        else:
            out[cells:] = pm[:-cells]
        return self._copy(out)

    def min_geq_envelope(self, cells):
        sm = np.minimum.accumulate(self.values[::-1])[::-1]
        out = np.full(self.n, np.inf)
        if cells == 0:
            out = sm
        else:
            out[:-cells] = sm[cells:]
        return self._copy(out)

    def coarse(self):
        """(points, values) at the 10001-point comparison grid."""
        return self.grid[::OVERSAMPLE], self.values[::OVERSAMPLE]


def assert_matches_oracle(pwq_func, grid_func, tol=1e-9, where=""):
    """Compare a PiecewiseQuad against the fine-grid oracle on coarse points."""
    points, expect = grid_func.coarse()
    got = pwq_func(points)
    finite = np.isfinite(expect)
    assert np.array_equal(finite, np.isfinite(got)), (
        f"feasible-region mismatch {where}: "
        f"{int(finite.sum())} oracle vs {int(np.isfinite(got).sum())} symbolic"
    )
    if finite.any():
        err = float(np.max(np.abs(got[finite] - expect[finite])))
        assert err <= tol, f"value mismatch {where}: max err {err:.3e} > {tol}"
