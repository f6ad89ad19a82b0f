"""The piecewise-quadratic kernels in pure Python: the test oracle of the
public ``graphseg.pwq`` operations and the kernels of the Python solver loop
in ``reference_solver.py``.

``src/graphseg/_solve.c`` runs the same kernels operation for operation,
with the same floating-point expressions and comparisons, so the tests
require the two to agree bit for bit.  A piece is a tuple
``(lo, hi, a, b, c, tag)`` for a*m^2 + b*m + c on [lo, hi]; a tag is
``None``, ``("pt", x)`` or ``("thr",)``, and tags compare with ``==``.
"""

import math
from bisect import bisect_right

DISC_TOL = 1e-14  # discriminants below this are treated as tangency

_INF = math.inf


def _add_point_loss_k(pieces, y, strip_tags=False):
    y = float(y)
    c_add = y * y
    b_add = -2.0 * y
    if not strip_tags:
        return [
            (p[0], p[1], p[2] + 1.0, p[3] + b_add, p[4] + c_add, p[5]) for p in pieces
        ]
    # stripping tags opens exact-equality merges; fold them in here
    out = []
    append = out.append
    for p in pieces:
        a = p[2] + 1.0
        b = p[3] + b_add
        c = p[4] + c_add
        if out:
            q = out[-1]
            if q[1] == p[0] and q[2] == a and q[3] == b and q[4] == c:
                out[-1] = (q[0], p[1], a, b, c, None)
                continue
        append((p[0], p[1], a, b, c, None))
    return out


def _add_constant_k(pieces, k):
    k = float(k)
    return [(p[0], p[1], p[2], p[3], p[4] + k, p[5]) for p in pieces]


def _min_k(F, G):
    """Pointwise minimum of two piece lists; F wins ties."""
    if not F:
        return list(G)
    if not G:
        return list(F)
    out = []

    def emit(lo, hi, w):
        # an equal neighbour keeps its coefficients and tag and only grows
        if out:
            q = out[-1]
            if q[1] == lo and q[5] == w[5] and q[2] == w[2] and q[3] == w[3] and q[4] == w[4]:
                out[-1] = (q[0], hi, q[2], q[3], q[4], q[5])
                return
        out.append((lo, hi, w[2], w[3], w[4], w[5]))

    nF = len(F)
    nG = len(G)
    i = j = 0
    x = F[0][0] if F[0][0] < G[0][0] else G[0][0]
    sqrt = math.sqrt
    while True:
        while i < nF and F[i][1] <= x:
            i += 1
        while j < nG and G[j][1] <= x:
            j += 1
        if i >= nF and j >= nG:
            break
        pf = F[i] if i < nF else None
        pg = G[j] if j < nG else None
        # advance x to the next covered point, then find the interval end
        if pf is None or pg is None:
            w = pg if pf is None else pf
            if w[0] > x:
                x = w[0]
            emit(x, w[1], w)
            x = w[1]
            continue
        nx = pf[0] if pf[0] < pg[0] else pg[0]
        if nx > x:
            x = nx
        f_cov = pf[0] <= x
        g_cov = pg[0] <= x
        x1 = pf[1] if f_cov else pf[0]
        xg = pg[1] if g_cov else pg[0]
        if xg < x1:
            x1 = xg
        if not f_cov:
            if not g_cov:
                x = x1
                continue
            w = pg
        elif not g_cov:
            w = pf
        else:
            da = pf[2] - pg[2]
            db = pf[3] - pg[3]
            dc = pf[4] - pg[4]
            r1 = r2 = None
            if da == 0.0:
                if db != 0.0:
                    r = -dc / db
                    if x < r < x1:
                        r1 = r
            else:
                disc = db * db - 4.0 * da * dc
                if disc > DISC_TOL:
                    sq = sqrt(disc)
                    qq = -0.5 * (db + sq) if db >= 0.0 else -0.5 * (db - sq)
                    ra = qq / da
                    rb = dc / qq if qq != 0.0 else ra
                    if rb < ra:
                        ra, rb = rb, ra
                    if x < ra < x1:
                        r1 = ra
                    if x < rb < x1 and rb != ra:
                        if r1 is None:
                            r1 = rb
                        else:
                            r2 = rb
            lo = x
            for cut in (r1, r2, x1):
                if cut is None:
                    continue
                mm = 0.5 * (lo + cut)
                d = (da * mm + db) * mm + dc
                emit(lo, cut, pf if d <= 0.0 else pg)
                lo = cut
            x = x1
            continue
        emit(x, x1, w)
        x = x1
    return out


def _piece_argmin(lo, hi, a, b):
    """Location of the minimum of a*m^2 + b*m + c over [lo, hi], a >= 0."""
    if a > 0.0:
        v = -b / (2.0 * a)
        if v < lo:
            return lo
        if v > hi:
            return hi
        return v
    if b > 0.0:
        return lo
    if b < 0.0:
        return hi
    return lo


def _emit_const(out, lo, hi, val, tag):
    if hi <= lo:
        return
    if out:
        q = out[-1]
        if q[1] == lo and q[4] == val and q[2] == 0.0 and q[3] == 0.0 and q[5] == tag:
            out[-1] = (q[0], hi, 0.0, 0.0, val, tag)
            return
    out.append((lo, hi, 0.0, 0.0, val, tag))


def _prefix_min_k(F, dom_hi):
    """Running minimum R(x) = min{f(m') : m' <= x}, extended up to dom_hi.

    Constant stretches are tagged ("pt", argmin); stretches following the
    input's descending branch are tagged ("thr",) meaning the argmin is the
    evaluation point itself.
    """
    out = []
    best = _INF
    barg = 0.0
    prev_hi = None
    for (lo, hi, a, b, c, _t) in F:
        if prev_hi is not None and lo > prev_hi:
            _emit_const(out, prev_hi, lo, best, ("pt", barg))
        p = _piece_argmin(lo, hi, a, b)
        if p > lo:
            qlo = (a * lo + b) * lo + c
            qp = (a * p + b) * p + c
            if best <= qp:
                _emit_const(out, lo, p, best, ("pt", barg))
            elif best >= qlo:
                out.append((lo, p, a, b, c, ("thr",)))
            else:
                if a > 0.0:
                    sq = math.sqrt(max(b * b - 4.0 * a * (c - best), 0.0))
                    xc = (-b - sq) / (2.0 * a)
                else:
                    xc = (best - c) / b
                if xc < lo:
                    xc = lo
                elif xc > p:
                    xc = p
                _emit_const(out, lo, xc, best, ("pt", barg))
                if p > xc:
                    out.append((xc, p, a, b, c, ("thr",)))
        qp = (a * p + b) * p + c
        if qp < best:
            best = qp
            barg = p
        if hi > p:
            _emit_const(out, p, hi, best, ("pt", barg))
        prev_hi = hi
    if prev_hi is not None and dom_hi > prev_hi:
        _emit_const(out, prev_hi, dom_hi, best, ("pt", barg))
    return out


def _envelope_k(F, gap, lam, up, dom_lo, dom_hi):
    """An edge's change operator on [dom_lo, dom_hi] plus lam: min{f(m') :
    m' <= m - gap} (up) or min{f(m') : m' >= m + gap} (down: the up one on
    the axis m -> -m, mapped back with 0.0 - x, its ("pt", x) tags holding
    the argmin m').  Pieces that rounding leaves with no width are kept."""
    top = dom_hi if up else -dom_lo
    env = _prefix_min_k(F if up else _reflect_k(F), top)
    out = []
    for (lo, hi, a, b, c, t) in (env if up else reversed(env)):
        lo += gap
        if lo >= top:
            continue
        hi += gap
        if hi > top:
            hi = top
        c = (a * gap - b) * gap + c + lam
        b -= 2.0 * a * gap
        if not up:
            lo, hi, b = 0.0 - hi, 0.0 - lo, 0.0 - b
            if t[0] == "pt":
                t = ("pt", -t[1])
        out.append((lo, hi, a, b, c, t))
    return out


def _reflect_k(pieces):
    """Substitute -m: the pieces of m -> f(-m), in ascending order."""
    return [(-hi, -lo, a, -b, c, t) for (lo, hi, a, b, c, t) in reversed(pieces)]


def _global_min_k(pieces):
    """(argmin, value) over all pieces; ties break toward smaller m."""
    best_val = _INF
    best_arg = None
    for (lo, hi, a, b, c, _t) in pieces:
        p = _piece_argmin(lo, hi, a, b)
        v = (a * p + b) * p + c
        if v < best_val:
            best_val = v
            best_arg = p
    return best_arg, best_val


def _eval_k(pieces, los, m):
    """Evaluate at m; at a shared breakpoint return the smaller piece value.

    Piece edges get a few ulps of slack so querying exactly at a boundary
    computed through a different floating-point route still lands inside.
    """
    eps = 1e-12 * (1.0 + abs(m))
    i = bisect_right(los, m) - 1
    val = _INF
    if i >= 0:
        p = pieces[i]
        if m <= p[1] + eps:
            val = (p[2] * m + p[3]) * m + p[4]
    j = i + 1
    if j < len(pieces) and pieces[j][0] <= m + eps:
        p = pieces[j]
        v = (p[2] * m + p[3]) * m + p[4]
        if v < val:
            val = v
    return val
