/* Forward pass and backtrack of graphseg.solver.solve, the kernels of the
 * public graphseg.pwq operations, and the sample-file scanner of
 * graphseg.data.load_signal_csv and writer of graphseg.data.save_record
 * (at the end of this file).
 *
 * This is the functional dynamic program of the Python loop kept as the
 * test oracle in tests/reference_solver.py (over the Python kernels of
 * tests/reference_pwq.py), operation for operation: the
 * same piece lists, the same comparisons in the same order and the same
 * floating-point expressions, so that both give bit-identical results when
 * this file is compiled without floating-point contraction
 * (-ffp-contract=off; a fused multiply-add rounds once where Python rounds
 * twice).  Each Python expression is written here with the same
 * association, e.g. `2.0 * a * gap` is (2.0 * a) * gap.
 *
 * A piece is (lo, hi, a, b, c) for a*m^2 + b*m + c on [lo, hi] plus a
 * decision tag (br, kind, pt): the edge taken (-1 for staying; its index,
 * or in graphseg_solve its position among the state's in-edges), how the
 * previous mean follows from the current one, and the argmin point of a
 * K_PT tag.  Two tags are equal when br and kind are equal and the
 * points compare equal with ==, as Python compares the tuples.  The
 * running-minimum envelope tags its pieces K_PT (argmin pt) or K_THR (the
 * argmin is the evaluation point), and a change keeps that kind: the
 * backtrack reads the sign of a K_THR change's gap from its edge.
 *
 * graphseg.pwq calls min_k (graphseg_min), envelope (graphseg_envelope)
 * and graphseg_global_min on numpy arrays whose dtype spells out Piece, so
 * its change operators run the code of solve's edges; graphseg_solve reads
 * the graph from an array of Edge and writes into one of Segment.  The
 * static asserts below pin these layouts.
 *
 * graphseg_solve runs forward, then backtrack, over one Solver.
 * Each state update of forward is one pass over its pieces: every
 * state function carries the stay tag, so min_k reads it in place; a down
 * edge's envelope reads its source reflected in place; and one loop over
 * the result records its decision runs and adds the point loss.  The
 * decision record of a state is two streams: a 16-bit code per run (bit
 * 0 marks the first run of a step, bits 1-2 hold the kind, bits 3-15 hold 0
 * for staying, else 1 + the edge's position among the state's in-edges),
 * and the values: each run's predecessor's upper breakpoint hi, then the
 * run's pt if it is K_PT.  That is 2 * runs + 8 * (runs - steps) + 8 *
 * points bytes per solve, where steps counts the (state, step) pairs that
 * have runs.  The backtrack reads a step's runs once, from its last: it
 * takes the last run whose predecessor's hi is below the mean, or else the
 * step's first run.
 */

#include <float.h>
#include <locale.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define DISC_TOL 1e-14

enum {
    K_STAY = 0, /* previous mean equals the current mean */
    K_THR = 1,  /* previous mean = m - gap on an up edge, m + gap on a down
                 * one: the envelope follows its input's descending branch */
    K_PT = 2    /* previous mean is the fixed point pt: the envelope is
                 * constant there */
};

enum {
    SOLVE_OK = 0,
    SOLVE_INFEASIBLE_END = 2,  /* no finite minimum at the last sample */
    SOLVE_NO_MEMORY = 3,
    SOLVE_BAD_RECORD = 4,      /* backtrack met a step with no decision */
    SOLVE_NOT_FINITE = 5,      /* a NaN breakpoint stalled the minimum */
    SOLVE_TOO_MANY_IN_EDGES = 6 /* state info[1] has info[2] in-edges */
};

/* the in-edges per state that bits 3-15 of a run's code tell apart */
#define MAX_IN_EDGES 8191

typedef struct {
    double lo, hi, a, b, c, pt;
    int32_t br;
    int8_t kind;
} Piece;

_Static_assert(sizeof(Piece) == 56, "graphseg.pwq's piece dtype is 56 bytes");
_Static_assert(offsetof(Piece, br) == 48, "graphseg.pwq's br offset is 48");
_Static_assert(offsetof(Piece, kind) == 52, "graphseg.pwq's kind offset is 52");

/* graphseg_solve's edge (up is 1 for an up edge, 0 for a down edge) and
 * segment, laid out as the dtypes _native.EDGE and _native.SEGMENT */
typedef struct {
    double gap, penalty;
    int32_t source, target;
    int8_t up;
} Edge;

typedef struct {
    int64_t bound;
    double mean;
    int32_t edge, state;
} Segment;

_Static_assert(sizeof(Edge) == 32, "_native.EDGE is 32 bytes");
_Static_assert(offsetof(Edge, source) == 16, "_native.EDGE's source offset is 16");
_Static_assert(offsetof(Edge, up) == 24, "_native.EDGE's up offset is 24");
_Static_assert(sizeof(Segment) == 24, "_native.SEGMENT is 24 bytes");
_Static_assert(offsetof(Segment, edge) == 16, "_native.SEGMENT's edge offset is 16");

typedef struct {
    Piece *p;
    size_t n, cap;
} List;

/* The decision records of one state, in two streams of blocks of
 * DEC_BLOCK values, so that growing them never copies them and never holds
 * them twice: the code of each run of equal tags of the pre-loss function,
 * and the values, in run order: for each run but the first of its step its
 * predecessor's hi, then for each K_PT run its argmin point.  The backtrack
 * pops them from the end, each stream's n serving as its cursor, and step
 * is the step of the last run not yet popped. */
#define DEC_SHIFT 14
#define DEC_BLOCK ((size_t)1 << DEC_SHIFT)

typedef struct {
    char **blocks;
    size_t nblocks, cap, n;
} Stream;

typedef struct {
    Stream code, vals;
    int64_t step;
} Decisions;

/* the i-th value: a run's predecessor's hi, or a point */
static double *dec_f64(const Stream *s, size_t i)
{
    return (double *)s->blocks[i >> DEC_SHIFT] + (i & (DEC_BLOCK - 1));
}

/* the i-th run's code */
static uint16_t *dec_code(const Stream *s, size_t i)
{
    return (uint16_t *)s->blocks[i >> DEC_SHIFT] + (i & (DEC_BLOCK - 1));
}

static int grow(void **buf, size_t *cap, size_t need, size_t elem)
{
    size_t nc;
    void *p;

    if (need <= *cap)
        return 0;
    nc = *cap ? *cap : 16;
    while (nc < need)
        nc *= 2;
    p = realloc(*buf, nc * elem);
    if (!p)
        return -1;
    *buf = p;
    *cap = nc;
    return 0;
}

static int reserve(List *l, size_t need)
{
    return grow((void **)&l->p, &l->cap, need, sizeof(Piece));
}

static int stream_reserve(Stream *s, size_t need, size_t elem)
{
    while (s->nblocks * DEC_BLOCK < need) {
        char *b;
        if (grow((void **)&s->blocks, &s->cap, s->nblocks + 1, sizeof(char *)))
            return -1;
        b = malloc(DEC_BLOCK * elem);
        if (!b)
            return -1;
        s->blocks[s->nblocks++] = b;
    }
    return 0;
}

static void stream_free(Stream *s)
{
    for (size_t b = 0; b < s->nblocks; b++)
        free(s->blocks[b]);
    free(s->blocks);
}

static void swap_lists(List *x, List *y)
{
    List t = *x;
    *x = *y;
    *y = t;
}

static int same_tag(const Piece *p, const Piece *q)
{
    return p->br == q->br && p->kind == q->kind && p->pt == q->pt;
}

static Piece *push(List *out, double lo, double hi, double a, double b, double c)
{
    Piece *r = &out->p[out->n++];
    r->lo = lo;
    r->hi = hi;
    r->a = a;
    r->b = b;
    r->c = c;
    return r;
}

/* The append-or-extend of the Python min_k: an equal neighbour keeps its
 * coefficients and tag and only grows. */
static void emit(List *out, double lo, double hi, const Piece *w)
{
    Piece *r;

    if (out->n) {
        Piece *q = &out->p[out->n - 1];
        if (q->hi == lo && same_tag(q, w) && q->a == w->a && q->b == w->b
            && q->c == w->c) {
            q->hi = hi;
            return;
        }
    }
    r = &out->p[out->n++];
    *r = *w;
    r->lo = lo;
    r->hi = hi;
}

/* Each step of the sweep moves x up to a breakpoint of F or G and emits at
 * most three pieces, so a sweep takes at most MIN_STEPS(nF + nG) steps. */
#define MIN_STEPS(n) (2 * (n) + 2)

/* Pointwise minimum of two non-empty lists; F wins ties.  out needs room
 * for 3 * MIN_STEPS(F->n + G->n) pieces.  Returns -1 if the sweep overruns
 * its step bound, which only a NaN breakpoint (costs beyond the float64
 * range) can cause; finite input never does.  Always inlined: with its second
 * caller, graphseg_min, gcc would stop inlining it into graphseg_solve. */
static inline __attribute__((always_inline)) int
min_k(const List *F, const List *G, List *out)
{
    const Piece *f = F->p, *g = G->p;
    size_t nF = F->n, nG = G->n, i = 0, j = 0, steps = 0;
    double x = f[0].lo < g[0].lo ? f[0].lo : g[0].lo;

    out->n = 0;
    for (;;) {
        const Piece *pf, *pg, *w;
        double x1, xg, nx;
        int f_cov, g_cov;

        while (i < nF && f[i].hi <= x)
            i++;
        while (j < nG && g[j].hi <= x)
            j++;
        if (i >= nF && j >= nG)
            break;
        if (++steps > MIN_STEPS(nF + nG))
            return -1;
        pf = i < nF ? &f[i] : NULL;
        pg = j < nG ? &g[j] : NULL;
        if (!pf || !pg) {
            w = pf ? pf : pg;
            if (w->lo > x)
                x = w->lo;
            x1 = w->hi;
            emit(out, x, x1, w);
            x = x1;
            continue;
        }
        nx = pf->lo < pg->lo ? pf->lo : pg->lo;
        if (nx > x)
            x = nx;
        f_cov = pf->lo <= x;
        g_cov = pg->lo <= x;
        x1 = f_cov ? pf->hi : pf->lo;
        xg = g_cov ? pg->hi : pg->lo;
        if (xg < x1)
            x1 = xg;
        if (!f_cov) {
            if (!g_cov) {
                x = x1;
                continue;
            }
            w = pg;
        } else if (!g_cov) {
            w = pf;
        } else {
            double da = pf->a - pg->a, db = pf->b - pg->b, dc = pf->c - pg->c;
            double cuts[3], lo;
            int ncut = 0, k;

            if (da == 0.0) {
                if (db != 0.0) {
                    double r = -dc / db;
                    if (x < r && r < x1)
                        cuts[ncut++] = r;
                }
            } else {
                double disc = db * db - 4.0 * da * dc;
                if (disc > DISC_TOL) {
                    double sq = sqrt(disc);
                    double qq = db >= 0.0 ? -0.5 * (db + sq) : -0.5 * (db - sq);
                    double ra = qq / da;
                    double rb = qq != 0.0 ? dc / qq : ra;
                    if (rb < ra) {
                        double t = ra;
                        ra = rb;
                        rb = t;
                    }
                    if (x < ra && ra < x1)
                        cuts[ncut++] = ra;
                    if (x < rb && rb < x1 && rb != ra)
                        cuts[ncut++] = rb;
                }
            }
            cuts[ncut++] = x1;
            lo = x;
            for (k = 0; k < ncut; k++) {
                double cut = cuts[k];
                double mm = 0.5 * (lo + cut);
                double d = (da * mm + db) * mm + dc;
                emit(out, lo, cut, d <= 0.0 ? pf : pg);
                lo = cut;
            }
            x = x1;
            continue;
        }
        emit(out, x, x1, w);
        x = x1;
    }
    return 0;
}

static double piece_argmin(double lo, double hi, double a, double b)
{
    if (a > 0.0) {
        double v = -b / (2.0 * a);
        if (v < lo)
            return lo;
        if (v > hi)
            return hi;
        return v;
    }
    if (b > 0.0)
        return lo;
    if (b < 0.0)
        return hi;
    return lo;
}

/* The Python emit_const: an extended neighbour takes a = b = +0.0, the new
 * c and the new tag. */
static void emit_const(List *out, double lo, double hi, double val, double arg)
{
    Piece *r;

    if (hi <= lo)
        return;
    if (out->n) {
        Piece *q = &out->p[out->n - 1];
        if (q->hi == lo && q->c == val && q->a == 0.0 && q->b == 0.0
            && q->kind == K_PT && q->pt == arg) {
            q->hi = hi;
            q->a = 0.0;
            q->b = 0.0;
            q->c = val;
            q->pt = arg;
            return;
        }
    }
    r = push(out, lo, hi, 0.0, 0.0, val);
    r->kind = K_PT;
    r->pt = arg;
}

static void push_thr(List *out, double lo, double hi, double a, double b, double c)
{
    Piece *r = push(out, lo, hi, a, b, c);
    r->kind = K_THR;
    r->pt = 0.0;
}

/* Running minimum of F's n pieces, extended up to dom_hi.  out needs
 * room for 4 * n + 1 pieces.  With reflect set it is the running minimum of
 * m -> F(-m), read from F in place: F's pieces in reverse order, with lo
 * and hi swapped and negated and b negated.  Always inlined, so that each
 * call passes a constant flag and gets the branches folded. */
static inline __attribute__((always_inline)) void
prefix_min(const Piece *F, size_t n, double dom_hi, List *out, int reflect)
{
    double best = INFINITY, barg = 0.0, prev_hi = 0.0, qp;
    size_t k;

    out->n = 0;
    for (k = 0; k < n; k++) {
        const Piece *s = &F[reflect ? n - 1 - k : k];
        double lo = reflect ? -s->hi : s->lo, hi = reflect ? -s->lo : s->hi;
        double a = s->a, b = reflect ? -s->b : s->b, c = s->c;
        double p;

        if (k > 0 && lo > prev_hi)
            emit_const(out, prev_hi, lo, best, barg);
        p = piece_argmin(lo, hi, a, b);
        if (p > lo) {
            double qlo = (a * lo + b) * lo + c;
            qp = (a * p + b) * p + c;
            if (best <= qp) {
                emit_const(out, lo, p, best, barg);
            } else if (best >= qlo) {
                push_thr(out, lo, p, a, b, c);
            } else {
                double xc;
                if (a > 0.0) {
                    double t = b * b - 4.0 * a * (c - best);
                    double sq = sqrt(0.0 > t ? 0.0 : t); /* max(t, 0.0) */
                    xc = (-b - sq) / (2.0 * a);
                } else {
                    xc = (best - c) / b;
                }
                if (xc < lo)
                    xc = lo;
                else if (xc > p)
                    xc = p;
                emit_const(out, lo, xc, best, barg);
                if (p > xc)
                    push_thr(out, xc, p, a, b, c);
            }
        }
        qp = (a * p + b) * p + c;
        if (qp < best) {
            best = qp;
            barg = p;
        }
        if (hi > p)
            emit_const(out, p, hi, best, barg);
        prev_hi = hi;
    }
    if (n > 0 && dom_hi > prev_hi)
        emit_const(out, prev_hi, dom_hi, best, barg);
}

static void tag(Piece *p, int32_t br, int8_t kind, double pt)
{
    p->br = br;
    p->kind = kind;
    p->pt = pt;
}

/* The minimum of f's n pieces, and in *arg the first point that attains it
 * (+inf and 0.0 when n is 0): ties break toward smaller m. */
double graphseg_global_min(const Piece *f, int64_t n, double *arg)
{
    double val = INFINITY;
    int64_t i;

    *arg = 0.0;
    for (i = 0; i < n; i++) {
        const Piece *p = &f[i];
        double pa = piece_argmin(p->lo, p->hi, p->a, p->b);
        double pv = (p->a * pa + p->b) * pa + p->c;
        if (pv < val) {
            val = pv;
            *arg = pa;
        }
    }
    return val;
}

/* graphseg.pwq.pointwise_min: min_k of nf > 0 and ng > 0 pieces into out,
 * which has room for 3 * MIN_STEPS(nf + ng) pieces.  Returns the piece
 * count, or -1 when min_k overruns its step bound. */
int64_t graphseg_min(const Piece *f, int64_t nf, const Piece *g, int64_t ng,
                     Piece *out)
{
    List F = {(Piece *)f, (size_t)nf, (size_t)nf};
    List G = {(Piece *)g, (size_t)ng, (size_t)ng};
    List o = {out, 0, 0};

    if (min_k(&F, &G, &o))
        return -1;
    return (int64_t)o.n;
}

/* The change operator of an edge on [dlo, dhi] from F's n pieces, plus the
 * penalty lam: min{F(m') : m' <= m - gap} on an up edge, min{F(m') : m' >=
 * m + gap} on a down one, which is an up edge on the axis m -> -m, mapped
 * back with 0.0 - x (an exact zero comes back as +0.0).  Its pieces, with
 * those that rounding leaves with lo >= hi, go to out, tagged br, their
 * envelope piece's kind and, for K_PT, the argmin on the original axis.
 * Returns -1 when out of memory.  Always inlined, as min_k is. */
static inline __attribute__((always_inline)) int
envelope(const Piece *F, size_t n, double gap, double lam, int up, double dlo,
         double dhi, int32_t br, List *env, List *out)
{
    double top = up ? dhi : -dlo;
    size_t jj;

    if (reserve(env, 4 * n + 1) || reserve(out, 4 * n + 1))
        return -1;
    if (up)
        prefix_min(F, n, top, env, 0);
    else
        prefix_min(F, n, top, env, 1);
    /* shift by gap with clipping at top, add the penalty and tag */
    out->n = 0;
    for (jj = 0; jj < env->n; jj++) {
        const Piece *e = &env->p[up ? jj : env->n - 1 - jj];
        double plo = e->lo + gap, phi, a = e->a, b = e->b, c;
        Piece *r;

        if (plo >= top)
            continue;
        phi = e->hi + gap;
        if (phi > top)
            phi = top;
        c = (a * gap - b) * gap + e->c + lam;
        b -= 2.0 * a * gap;
        if (up)
            r = push(out, plo, phi, a, b, c);
        else
            r = push(out, 0.0 - phi, 0.0 - plo, a, 0.0 - b, c);
        tag(r, br, e->kind, e->kind != K_PT ? 0.0 : up ? e->pt : -e->pt);
    }
    return 0;
}

/* graphseg.pwq.min_leq_envelope (up = 1) and min_geq_envelope (up = 0):
 * envelope with no penalty and br 0, through env into out, which both have
 * room for 4 * n + 1 pieces.  Returns out's piece count. */
int64_t graphseg_envelope(const Piece *f, int64_t n, double gap, int32_t up, double dlo,
                          double dhi, Piece *env, Piece *out)
{
    List e = {env, 0, 4 * (size_t)n + 1}, o = {out, 0, 4 * (size_t)n + 1};

    envelope(f, (size_t)n, gap, 0.0, up, dlo, dhi, 0, &e, &o); /* has the room */
    return (int64_t)o.n;
}

/* What the phases of graphseg_solve share */
typedef struct {
    const Edge *edges;
    int32_t nstates, *in_start, *in_edge;
    double dlo, dhi;
    List *funcs, *next;
    Decisions *dec;
    int64_t piece_total, piece_max, points;
} Solver;

/* The forward pass over steps t0 <= t < t1: SOLVE_OK, SOLVE_NO_MEMORY or
 * SOLVE_NOT_FINITE.  No step can leave every state empty: a state that has
 * pieces keeps them, since its stay candidate is its own function, so with
 * at least one state started every step has one.  Its working lists and
 * copies of s's fields are locals, which gcc keeps in registers. */
static int forward(Solver *s, const double *y, int64_t t0, int64_t t1)
{
    const Edge *edges = s->edges;
    const int32_t *in_start = s->in_start, *in_edge = s->in_edge;
    List *funcs = s->funcs, *next = s->next, scratch[2] = {{0}}, branch = {0}, env = {0};
    Decisions *dec = s->dec;
    int64_t piece_total = s->piece_total, piece_max = s->piece_max, points = s->points, t;
    int32_t nstates = s->nstates, v, k;
    int status = SOLVE_NO_MEMORY;
    double dlo = s->dlo, dhi = s->dhi, width = dhi - dlo;

    for (t = t0; t < t1; t++) {
        double yt = y[t], c_add = yt * yt, b_add = -2.0 * yt;

        for (v = 0; v < nstates; v++) {
            const List *cand = &funcs[v];
            List *out = &next[v];
            Decisions *dv = &dec[v];
            size_t i, nr, nv;
            int w = 0;

            /* cand is the stay candidate in place, then each min_k result,
             * written to the scratch list that cand does not point to */
            for (k = in_start[v]; k < in_start[v + 1]; k++) {
                const Edge *e = &edges[in_edge[k]];
                const List *src = &funcs[e->source];

                if (!src->n || e->gap >= width)
                    continue;
                if (envelope(src->p, src->n, e->gap, e->penalty, e->up, dlo, dhi,
                             k - in_start[v], &env, &branch))
                    goto out;
                if (!branch.n)
                    continue;
                if (!cand->n) {
                    swap_lists(&scratch[w], &branch);
                } else {
                    if (reserve(&scratch[w], 3 * MIN_STEPS(cand->n + branch.n)))
                        goto out;
                    if (min_k(cand, &branch, &scratch[w])) {
                        status = SOLVE_NOT_FINITE;
                        goto out;
                    }
                }
                cand = &scratch[w];
                w ^= 1;
            }

            nr = dv->code.n;
            nv = dv->vals.n;
            out->n = 0;
            if (cand->n) {
                const Piece *last = NULL;
                Piece *q = NULL;

                if (stream_reserve(&dv->code, nr + cand->n, sizeof(uint16_t))
                    || stream_reserve(&dv->vals, nv + 2 * cand->n, sizeof(double))
                    || reserve(out, cand->n))
                    goto out;
                /* one pass over the result: compress its tags into runs, and
                 * add (y - m)^2 with the stay tag, merging neighbours that
                 * become equal; a merge takes the new a, b and c, as the
                 * Python add_point_loss does, since == ignores a zero's sign */
                for (i = 0; i < cand->n; i++) {
                    const Piece *p = &cand->p[i];
                    double a = p->a + 1.0, b = p->b + b_add, c = p->c + c_add;

                    if (!last || !same_tag(p, last)) {
                        if (last) /* the previous run ends at the previous piece */
                            *dec_f64(&dv->vals, nv++) = p[-1].hi;
                        last = p;
                        *dec_code(&dv->code, nr++) =
                            (uint16_t)(8 * (p->br + 1) + 2 * p->kind + !i);
                        if (p->kind == K_PT) {
                            *dec_f64(&dv->vals, nv++) = p->pt;
                            points++;
                        }
                    }
                    if (q && q->hi == p->lo && q->a == a && q->b == b && q->c == c) {
                        q->hi = p->hi;
                        q->a = a;
                        q->b = b;
                        q->c = c;
                        continue;
                    }
                    q = push(out, p->lo, p->hi, a, b, c);
                    tag(q, -1, K_STAY, 0.0);
                }
                dv->code.n = nr;
                dv->vals.n = nv;
                piece_total += (int64_t)cand->n;
                if ((int64_t)cand->n > piece_max)
                    piece_max = (int64_t)cand->n;
            }
        }
        for (v = 0; v < nstates; v++)
            swap_lists(&funcs[v], &next[v]);
    }
    s->piece_total = piece_total;
    s->piece_max = piece_max;
    s->points = points;
    status = SOLVE_OK;
out:
    free(scratch[0].p);
    free(scratch[1].p);
    free(branch.p);
    free(env.p);
    return status;
}

/* The backtrack over steps t1 - 1 down to t0, taking state *v and mean *m at
 * sample t1 - 1 to those at t0 - 1 and writing each change into segs below
 * *first, which it moves down.  At step t it pops v's runs, each with its
 * point and its predecessor's hi, down to the last run of step t whose
 * predecessor's hi is below m, or else to the step's first run: the run
 * that holds m, since the his of a step never decrease, and a tie takes the
 * left run.  The runs left above it are popped unread at v's next visit.
 * Returns SOLVE_OK or SOLVE_BAD_RECORD. */
static int backtrack(Solver *s, int64_t t1, int64_t t0, int32_t *v, double *m,
                     Segment *segs, int64_t *first)
{
    for (int64_t t = t1 - 1; t >= t0; t--) {
        Decisions *dv = &s->dec[*v];
        int64_t step;
        int32_t br;
        uint16_t code;

        do {
            if (!dv->code.n)
                return SOLVE_BAD_RECORD;
            code = *dec_code(&dv->code, --dv->code.n);
            dv->vals.n -= (code >> 1 & 3) == K_PT;
            dv->vals.n -= !(code & 1);
            step = dv->step;
            dv->step -= code & 1;
        } while (step > t || (!(code & 1) && !(*dec_f64(&dv->vals, dv->vals.n) < *m)));
        br = (code >> 3) - 1;
        if (br >= 0) {
            br = s->in_edge[s->in_start[*v] + br];
            segs[--*first].bound = t;
            segs[*first].edge = br;
            if ((code >> 1 & 3) == K_THR)
                *m = s->edges[br].up ? *m - s->edges[br].gap : *m + s->edges[br].gap;
            else /* the point follows the predecessor's hi */
                *m = *dec_f64(&dv->vals, dv->vals.n + !(code & 1));
            if (*m < s->dlo)
                *m = s->dlo;
            else if (*m > s->dhi)
                *m = s->dhi;
            *v = s->edges[br].source;
            segs[*first].state = *v;
            segs[*first].mean = *m;
        }
    }
    return SOLVE_OK;
}

/* Solve one signal.  Edges are given by index; a state's in-edges are
 * taken in edge-index order, at most MAX_IN_EDGES of them: a state with more
 * ends the solve with SOLVE_TOO_MANY_IN_EDGES, its id in info[1] and its
 * in-edge count in info[2].  start < 0 lets the first segment be in any
 * state; a start of nstates or more starts none, and the solve ends with
 * SOLVE_INFEASIBLE_END.  segs holds n entries; on SOLVE_OK
 * entries [info[0], n) hold the segments' states and means, and [info[0],
 * n - 1) the bound (samples before the change) and edge taken at each
 * change.  info[2], info[3] hold the sum and the maximum of the pre-loss
 * piece counts over (state, step), info[4], info[5] the decision runs and
 * the K_PT runs stored, and info[6] the bytes of the two streams.
 *
 * It runs forward over steps [1, n), then backtrack from the end minimum,
 * which reads each step's runs once, from the last.  A
 * piece's br here is the edge's position among the state's in-edges, so a
 * run's code holds it as it is; a state that has runs at some step has them
 * at every later step (its stay candidate is never empty again), so the
 * backtrack can count a state's steps from the end of its streams. */
int graphseg_solve(const double *y, int64_t n, int32_t nstates, int32_t start,
                   int32_t nedges, const Edge *edges, double dlo, double dhi,
                   Segment *segs, int64_t *info, double *total_cost)
{
    Solver s = {.edges = edges, .nstates = nstates, .dlo = dlo, .dhi = dhi,
                .in_start = calloc((size_t)nstates + 1, sizeof(int32_t)),
                .in_edge = malloc(((size_t)nedges + 1) * sizeof(int32_t)),
                .funcs = calloc((size_t)nstates, sizeof(List)),
                .next = calloc((size_t)nstates, sizeof(List)),
                .dec = calloc((size_t)nstates, sizeof(Decisions))};
    int status = SOLVE_NO_MEMORY;
    int64_t first = n - 1;
    int32_t v, k, best_v = -1;
    double best_arg = 0.0, best_val = INFINITY, y0 = y[0];

    if (!s.funcs || !s.next || !s.dec || !s.in_start || !s.in_edge)
        goto done;

    /* in-edges grouped by target, each group in edge-index order */
    for (v = 0; v < nstates; v++) {
        s.in_start[v + 1] = s.in_start[v];
        for (k = 0; k < nedges; k++)
            if (edges[k].target == v)
                s.in_edge[s.in_start[v + 1]++] = k;
        if (s.in_start[v + 1] - s.in_start[v] > MAX_IN_EDGES) {
            info[1] = v;
            info[2] = s.in_start[v + 1] - s.in_start[v];
            status = SOLVE_TOO_MANY_IN_EDGES;
            goto done;
        }
    }

    /* every state function carries the stay tag */
    for (v = 0; v < nstates; v++) {
        if (start < 0 || v == start) {
            if (reserve(&s.funcs[v], 1))
                goto done;
            tag(push(&s.funcs[v], dlo, dhi, 1.0, -2.0 * y0, y0 * y0), -1, K_STAY, 0.0);
        }
    }

    if ((status = forward(&s, y, 1, n)))
        goto done;

    for (v = 0; v < nstates; v++) {
        double arg, val;

        if (!s.funcs[v].n)
            continue;
        val = graphseg_global_min(s.funcs[v].p, (int64_t)s.funcs[v].n, &arg);
        if (val < best_val) {
            best_v = v;
            best_arg = arg;
            best_val = val;
        }
    }
    if (best_v < 0) {
        status = SOLVE_INFEASIBLE_END;
        goto done;
    }

    /* the record's size, counted before the backtrack moves its cursors */
    info[4] = info[6] = 0;
    info[5] = s.points;
    for (v = 0; v < nstates; v++) {
        Decisions *dv = &s.dec[v];
        info[4] += (int64_t)dv->code.n;
        info[6] += (int64_t)(2 * dv->code.n + 8 * dv->vals.n);
        dv->step = n - 1;
    }

    segs[first].state = best_v;
    segs[first].mean = best_arg;
    if ((status = backtrack(&s, n, 1, &best_v, &best_arg, segs, &first)))
        goto done;
    info[0] = first;
    info[2] = s.piece_total;
    info[3] = s.piece_max;
    *total_cost = best_val;

done:
    if (s.funcs && s.next && s.dec)
        for (v = 0; v < nstates; v++) {
            free(s.funcs[v].p);
            free(s.next[v].p);
            stream_free(&s.dec[v].code);
            stream_free(&s.dec[v].vals);
        }
    free(s.funcs);
    free(s.next);
    free(s.dec);
    free(s.in_start);
    free(s.in_edge);
    return status;
}

/* The sample CSV's body, from the end of its header line: lines of spaces
 * and tabs, or `[-+]?D+,[-+]?(D+(\.D*)?|\.D+)([eE][-+]?D+)?` in ASCII digits
 * D with spaces and tabs around each field, each ending in "\n" or "\r\n"
 * (the last line may end without one).  The indices follow each other by 1
 * within int64 and the amplitudes are finite.  The scan stops at the first
 * other line and reports the reason and the offset of the line's first
 * byte, from which graphseg.data names the line (its messages follow this
 * enum's order). */
enum { PARSE_OK, PARSE_MALFORMED, PARSE_ORDER, PARSE_RANGE, PARSE_NOT_FINITE,
       PARSE_NO_MEMORY, PARSE_FULL /* more samples than out holds */ };

#define EXACT_MANTISSA (UINT64_C(1) << 53)
#define EXACT_POW10 22
#define MAX_SIG_DIGITS 19

/* 10^0 .. 10^22: every one an exact double */
static const double POW10[EXACT_POW10 + 1] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/* w * 10^e10 for a mantissa w of at most 19 significant digits and
 * |e10| <= 27, through the x87 extended format: w < 2^64 and 10^27 are
 * exact in its 64-bit mantissa, so the multiply or divide rounds once, to
 * 64 bits.  Rounding that to a double gives the correctly rounded value
 * unless the 64-bit result lies exactly halfway between two doubles (its
 * low 11 mantissa bits are 0x400), where the exact value may lie on either
 * side; that case, like an exponent out of range, returns -1 for strtod.
 * The halfway test reads the mantissa from the first 8 bytes of the long
 * double, the x87 layout, so the path is compiled only for x86.  It also
 * needs the x87 unit to round to 64 bits, which a process can lower with
 * its precision control; extended_rounding checks that before a scan. */
#if LDBL_MANT_DIG == 64 && (defined(__x86_64__) || defined(__i386__))
#define EXTENDED_POW10 27

static const long double POW10_EXTENDED[EXTENDED_POW10 + 1] = {
    1e0L, 1e1L, 1e2L, 1e3L, 1e4L, 1e5L, 1e6L, 1e7L, 1e8L, 1e9L, 1e10L, 1e11L,
    1e12L, 1e13L, 1e14L, 1e15L, 1e16L, 1e17L, 1e18L, 1e19L, 1e20L, 1e21L,
    1e22L, 1e23L, 1e24L, 1e25L, 1e26L, 1e27L};

static int extended_rounding(void)
{
    volatile long double one = 1.0L, eps = LDBL_EPSILON;

    return one + eps != one;
}

static int scan_extended(uint64_t w, int64_t e10, double *out)
{
    long double r = (long double)w;
    uint64_t mant;

    if (e10 < -EXTENDED_POW10 || e10 > EXTENDED_POW10)
        return -1;
    r = e10 >= 0 ? r * POW10_EXTENDED[e10] : r / POW10_EXTENDED[-e10];
    memcpy(&mant, &r, sizeof mant);
    if ((mant & 0x7FF) == 0x400)
        return -1;
    *out = (double)r;
    return 0;
}
#else
static int extended_rounding(void)
{
    return 0;
}

static int scan_extended(uint64_t w, int64_t e10, double *out)
{
    (void)w;
    (void)e10;
    (void)out;
    return -1;
}
#endif

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

static const char *skip_blanks(const char *s, const char *end)
{
    while (s < end && (*s == ' ' || *s == '\t'))
        s++;
    return s;
}

/* An index `[-+]?D+` at *p, advancing *p past it: 0, PARSE_MALFORMED when
 * it is not one or PARSE_RANGE when it lies outside int64. */
static int scan_index(const char **p, const char *end, int64_t *out)
{
    const char *s = *p;
    int neg = s < end && *s == '-';
    uint64_t mag = 0, limit;

    s += s < end && (*s == '-' || *s == '+');
    limit = neg ? (UINT64_C(1) << 63) : (uint64_t)INT64_MAX;
    if (s == end || !is_digit(*s))
        return PARSE_MALFORMED;
    for (; s < end && is_digit(*s); s++) {
        uint64_t d = (uint64_t)(*s - '0');
        if (mag > (limit - d) / 10)
            return PARSE_RANGE;
        mag = mag * 10 + d;
    }
    *out = neg ? -(int64_t)(mag - 1) - 1 : (int64_t)mag;
    *p = s;
    return 0;
}

/* The double nearest to w * 10^e10.  A w of at most 2^53 is exact in a
 * double, as is 10^e for |e| <= 22, so w * 10^e or w / 10^-e is one
 * correctly rounded operation (Clinger, "How to read floating point
 * numbers accurately", PLDI 1990).  With extended set, most other w (any
 * w < 2^64) with |e10| <= 27 take scan_extended.  The rest go to strtod,
 * which also rounds correctly; all three equal Python's float() bit for
 * bit.  The text strtod reads has no decimal point, so the locale's does
 * not matter. */
static double read_decimal(uint64_t w, int64_t e10, int extended)
{
    char text[48];
    double v = (double)w;

    if (w <= EXACT_MANTISSA && e10 >= -EXACT_POW10 && e10 <= EXACT_POW10)
        return e10 >= 0 ? v * POW10[e10] : v / POW10[-e10];
    if (extended && !scan_extended(w, e10, &v))
        return v;
    snprintf(text, sizeof text, "%llue%lld", (unsigned long long)w, (long long)e10);
    return strtod(text, NULL);
}

/* The double nearest to the decimal amplitude at *p, advancing *p past it:
 * 0, PARSE_MALFORMED, PARSE_NOT_FINITE or PARSE_NO_MEMORY.  A token of at
 * most 19 significant digits and an exponent below 100000 is its mantissa
 * w and exponent e10, which read_decimal reads; strtod reads the others
 * from their text. */
static int scan_amplitude(const char **p, const char *end, double *out, int extended)
{
    const char *tok = *p, *s = *p;
    int neg = s < end && *s == '-';
    int digits = 0, exact = 1, frac = 0, seen = 0;
    uint64_t w = 0;
    int64_t e10 = 0;
    double v;

    s += s < end && (*s == '-' || *s == '+');
    for (;;) {
        for (; s < end && is_digit(*s); s++) {
            seen = 1;
            if (w == 0 && *s == '0') {
                e10 -= frac; /* a leading zero only places the point */
                continue;
            }
            if (++digits > MAX_SIG_DIGITS) {
                exact = 0;
                continue;
            }
            w = w * 10 + (uint64_t)(*s - '0');
            e10 -= frac;
        }
        if (frac || s == end || *s != '.')
            break;
        frac = 1;
        s++;
    }
    if (!seen)
        return PARSE_MALFORMED;
    if (s < end && (*s == 'e' || *s == 'E')) {
        int eneg;
        int64_t e = 0;
        s++;
        eneg = s < end && *s == '-';
        if (s < end && (*s == '-' || *s == '+'))
            s++;
        if (s == end || !is_digit(*s))
            return PARSE_MALFORMED;
        for (; s < end && is_digit(*s); s++) {
            if (e < 100000)
                e = e * 10 + (*s - '0');
            else
                exact = 0; /* e saturated: let strtod read it */
        }
        e10 += eneg ? -e : e;
    }

    if (exact) {
        v = read_decimal(w, e10, extended);
        if (neg)
            v = -v;
    } else {
        char small[64], *buf = small, *stop, *dot;
        size_t len = (size_t)(s - tok);
        if (len >= sizeof small && !(buf = malloc(len + 1)))
            return PARSE_NO_MEMORY;
        memcpy(buf, tok, len);
        buf[len] = '\0';
        if ((dot = memchr(buf, '.', len))) /* strtod reads the locale's point */
            *dot = *localeconv()->decimal_point;
        v = strtod(buf, &stop);
        /* a decimal point of more than one byte stops strtod early */
        len -= (size_t)(stop - buf);
        if (buf != small)
            free(buf);
        if (len)
            return PARSE_MALFORMED;
    }
    if (!isfinite(v))
        return PARSE_NOT_FINITE;
    *out = v;
    *p = s;
    return PARSE_OK;
}

/* Scan the sample lines of buf[start, len) into out (cap entries), setting
 * info[0] to the number of samples.  Returns PARSE_OK, or the reason the
 * line at offset info[1] fails, with its index in info[2] for PARSE_ORDER. */
int graphseg_parse_samples(const char *buf, int64_t start, int64_t len,
                           double *out, int64_t cap, int64_t *info)
{
    const char *p = buf + start, *end = buf + len, *line = p;
    int64_t count = 0, idx = 0, prev = 0;
    int extended = extended_rounding(), status = PARSE_OK;

    while (p < end && !status) {
        line = p;
        p = skip_blanks(p, end);
        if (p < end && *p != '\n' && *p != '\r') { /* not a blank line */
            status = count == cap ? PARSE_FULL : scan_index(&p, end, &idx);
            p = skip_blanks(p, end);
            if (!status && (p == end || *p++ != ','))
                status = PARSE_MALFORMED;
            p = skip_blanks(p, end);
            if (!status)
                status = scan_amplitude(&p, end, &out[count], extended);
            if (!status && count && (prev == INT64_MAX || idx != prev + 1))
                status = PARSE_ORDER;
            p = skip_blanks(p, end);
            prev = idx;
            count += !status;
        }
        if (!status && p < end && *p == '\r' && (++p == end || *p != '\n'))
            status = PARSE_MALFORMED; /* a lone "\r" */
        if (!status && p < end && *p++ != '\n')
            status = PARSE_MALFORMED;
    }
    info[0] = count;
    info[1] = line - buf;
    info[2] = idx;
    return status;
}

/* The sample lines of graphseg.data.save_record, "index,amplitude\n", with
 * each amplitude spelled as Python's repr spells it: the shortest digits
 * that read back to the same double, the nearest to it among those; the
 * exponent form below 1e-4 and from 1e16 up, with at least two exponent
 * digits (1e-05); a ".0" after an integral value, and -0.0.
 *
 * The digits are found for 1e-5 <= |x| < 1e15 and for zero.  There a
 * correctly rounded decimal of 15, 16 or 17 significant digits is w =
 * round(m * 10^s / 2^q) for x = m * 2^-q, with 3 <= q <= 69, s <= 21 and
 * m * 10^s < 2^123, exact in 128 bits.  Each is rounded from the exact
 * value, never from another.  Every 15-digit decimal that a double holds
 * reads back to it, so a double has at most one, its own rounding
 * (DBL_DIG); failing that the nearest 16-digit one is the only candidate;
 * 17 digits always read back.  (A power of two, whose next double down lies
 * nearer than the next up, could read back only from the 16-digit decimal
 * just above it; no power of two in the range does.)  read_decimal, the
 * scan's reader, decides what reads back, and trailing zeros are then
 * dropped.  Other amplitudes, tiny, huge, subnormal or not finite, are left
 * to the caller, which writes that line with repr. */
#define FORMAT_MIN_E10 (-5)
#define FORMAT_MAX_E10 14
#define FORMAT_LINE_BYTES 48 /* an int64 index, ',', 24 bytes of repr, '\n' */

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* 10^0 .. 10^19 */
static const uint64_t POW10_INT[20] = {
    UINT64_C(1), UINT64_C(10), UINT64_C(100), UINT64_C(1000), UINT64_C(10000),
    UINT64_C(100000), UINT64_C(1000000), UINT64_C(10000000), UINT64_C(100000000),
    UINT64_C(1000000000), UINT64_C(10000000000), UINT64_C(100000000000),
    UINT64_C(1000000000000), UINT64_C(10000000000000), UINT64_C(100000000000000),
    UINT64_C(1000000000000000), UINT64_C(10000000000000000),
    UINT64_C(100000000000000000), UINT64_C(1000000000000000000),
    UINT64_C(10000000000000000000)};

/* Whether m * 2^-q >= 10^e10, for m < 2^53, q <= 69 and 10^e10 within a
 * factor of 100 of m * 2^-q, so that no product reaches 2^128 */
static int at_least_pow10(uint64_t m, int q, int e10)
{
    if (e10 >= 0)
        return (u128)m >= (u128)POW10_INT[e10] << q;
    return (u128)m * POW10_INT[-e10] >= (u128)1 << q;
}

/* p / 2^q rounded to the nearest integer, ties to even */
static uint64_t round_shifted(u128 p, int q)
{
    u128 n = p >> q, rem = p - (n << q), half = (u128)1 << (q - 1);

    return (uint64_t)(n + (rem > half || (rem == half && (n & 1))));
}

/* Python's repr digits of x > 0 as w * 10^*e10, or -1 when x lies outside
 * [1e-5, 1e15) */
static int shortest_digits(double x, int extended, uint64_t *w, int *e10)
{
    uint64_t bits, m;
    int b2, q, d10, s;
    u128 p;

    memcpy(&bits, &x, sizeof bits);
    b2 = (int)(bits >> 52) - 1023; /* x in [2^b2, 2^(b2 + 1)) */
    if (b2 < -17 || b2 > 49)
        return -1;
    m = (bits & ((UINT64_C(1) << 52) - 1)) | UINT64_C(1) << 52;
    q = 52 - b2; /* x = m * 2^-q */
    d10 = (int)floor(b2 * 0.30102999566398120); /* floor(log10(x)) or one less */
    d10 += at_least_pow10(m, q, d10 + 1);
    if (d10 < FORMAT_MIN_E10 || d10 > FORMAT_MAX_E10)
        return -1;
    s = 14 - d10; /* x * 10^s has 15 digits before the point */
    p = (u128)m * POW10_INT[s];
    for (;; s++, p *= 10) { /* 15, 16, then 17 digits */
        *w = round_shifted(p, q);
        *e10 = -s;
        if (s == 16 - d10 || read_decimal(*w, -s, extended) == x)
            return 0;
    }
}
#else
static int shortest_digits(double x, int extended, uint64_t *w, int *e10)
{
    (void)x;
    (void)extended;
    (void)w;
    (void)e10;
    return -1;
}
#endif

/* The decimal digits of w > 0, ending at end; returns their start */
static char *put_digits(uint64_t w, char *end)
{
    do
        *--end = (char)('0' + w % 10);
    while (w /= 10);
    return end;
}

/* repr(x) at out, returning its length, or 0 for an amplitude left to the
 * caller */
static int format_amplitude(double x, int extended, char *out)
{
    char buf[20], *digits, *s = out;
    uint64_t w;
    int e10, nd, decpt;

    if (signbit(x)) {
        *s++ = '-';
        x = -x;
    }
    if (x == 0) {
        memcpy(s, "0.0", 3);
        return (int)(s - out) + 3;
    }
    if (shortest_digits(x, extended, &w, &e10))
        return 0;
    for (; w % 10 == 0; w /= 10)
        e10++;
    digits = put_digits(w, buf + sizeof buf);
    nd = (int)(buf + sizeof buf - digits);
    decpt = nd + e10; /* x = 0.digits * 10^decpt, -4 <= decpt <= 16 */
    if (decpt == -4) { /* repr's exponent form, here only for x < 1e-4 */
        *s++ = digits[0];
        if (nd > 1) {
            *s++ = '.';
            memcpy(s, digits + 1, (size_t)nd - 1);
            s += nd - 1;
        }
        memcpy(s, "e-05", 4);
        s += 4;
    } else if (decpt <= 0) {
        memcpy(s, "0.000", (size_t)(2 - decpt));
        s += 2 - decpt;
        memcpy(s, digits, (size_t)nd);
        s += nd;
    } else if (decpt < nd) {
        memcpy(s, digits, (size_t)decpt);
        s += decpt;
        *s++ = '.';
        memcpy(s, digits + decpt, (size_t)(nd - decpt));
        s += nd - decpt;
    } else {
        memcpy(s, digits, (size_t)nd);
        s += nd;
        memset(s, '0', (size_t)(decpt - nd));
        s += decpt - nd;
        memcpy(s, ".0", 2);
        s += 2;
    }
    return (int)(s - out);
}

/* Write the lines "i,repr(y[i])\n" for i from start while i < stop into
 * out (cap bytes).  Stops at stop, at a line that no longer fits, or at an
 * amplitude that format_amplitude leaves to the caller.  Sets info[0] to
 * the i of the first line not written and info[1] to the bytes written;
 * returns 1 when it stopped at such an amplitude, else 0. */
int graphseg_format_samples(const double *y, int64_t start, int64_t stop, char *out,
                            int64_t cap, int64_t *info)
{
    char line[FORMAT_LINE_BYTES], *s;
    int64_t i, used = 0;
    int extended = extended_rounding(), left = 0;

    for (i = start; i < stop; i++) {
        char digits[20], *d;
        uint64_t mag = i < 0 ? -(uint64_t)i : (uint64_t)i;
        int len;

        s = line;
        *s = '-';
        s += i < 0;
        d = put_digits(mag, digits + sizeof digits);
        memcpy(s, d, (size_t)(digits + sizeof digits - d));
        s += digits + sizeof digits - d;
        *s++ = ',';
        if (!(len = format_amplitude(y[i], extended, s))) {
            left = 1;
            break;
        }
        s += len;
        *s++ = '\n';
        if (s - line > cap - used)
            break;
        memcpy(out + used, line, (size_t)(s - line));
        used += s - line;
    }
    info[0] = i;
    info[1] = used;
    return left;
}
