"""Unit tests for the piecewise-quadratic function algebra."""

import math

import numpy as np
import pytest

import reference_pwq as ref
from graphseg import _native, pwq
from graphseg.pwq import (
    DomainMismatchError,
    EmptyFunctionError,
    PiecewiseQuad,
    QuadPiece,
    add_constant,
    add_point_loss,
    global_min,
    min_geq_envelope,
    min_leq_envelope,
    pointwise_min,
    reflect,
)
from grid_oracle import assert_matches_oracle, comparison_points, fine_step
from helpers import apply_op, random_trace

DOM = (-5.0, 5.0)


def quad(a, b, c, domain=DOM):
    return PiecewiseQuad([(domain[0], domain[1], a, b, c, None)], domain)


def grid_eval(f, n=2001):
    xs = np.linspace(f.domain[0], f.domain[1], n)
    return xs, f(xs)


# ---------------------------------------------------------------------------
# add_point_loss
# ---------------------------------------------------------------------------


def test_add_point_loss_to_zero():
    f = add_point_loss(PiecewiseQuad.zero(DOM), 1.0)
    assert len(f.pieces) == 1
    p = f.pieces[0]
    assert (p.a, p.b, p.c) == (1.0, -2.0, 1.0)
    assert (p.lo, p.hi) == DOM


def test_add_point_loss_two_terms():
    f = add_point_loss(PiecewiseQuad.point_loss(1.0, DOM), 3.0)
    p = f.pieces[0]
    assert (p.a, p.b, p.c) == (2.0, -8.0, 10.0)


def test_add_point_loss_matches_grid_on_random_function():
    rng = np.random.default_rng(101)
    for _ in range(10):
        f, ops = random_trace(rng, n_ops=4)
        if f.is_empty:
            continue
        assert_matches_oracle(add_point_loss(f, 0.7), ops + [("loss", 0.7)], where=str(ops))


# ---------------------------------------------------------------------------
# pointwise_min
# ---------------------------------------------------------------------------


def test_pointwise_min_crossing():
    f = quad(1.0, 0.0, 0.0)            # m^2
    g = quad(1.0, -4.0, 5.0)           # (m-2)^2 + 1
    h = pointwise_min(f, g)
    assert len(h.pieces) == 2
    assert h.pieces[0].hi == pytest.approx(1.25, abs=1e-12)
    assert (h.pieces[0].a, h.pieces[0].b, h.pieces[0].c) == (1.0, 0.0, 0.0)
    assert (h.pieces[1].a, h.pieces[1].b, h.pieces[1].c) == (1.0, -4.0, 5.0)


def test_pointwise_min_idempotent():
    f = quad(1.0, -2.0, 1.0)
    h = pointwise_min(f, f)
    assert h == f


def test_pointwise_min_strict_dominance():
    f = PiecewiseQuad.zero(DOM)
    g = quad(1.0, 0.0, 1.0)            # m^2 + 1 > 0 everywhere
    h = pointwise_min(f, g)
    assert len(h.pieces) == 1
    assert (h.pieces[0].a, h.pieces[0].b, h.pieces[0].c) == (0.0, 0.0, 0.0)


def test_pointwise_min_domain_mismatch():
    f = PiecewiseQuad.zero(DOM)
    g = PiecewiseQuad.zero((-4.0, 5.0))
    with pytest.raises(DomainMismatchError):
        pointwise_min(f, g)


def test_pointwise_min_commutative_associative():
    rng = np.random.default_rng(7)
    for _ in range(20):
        fs = [
            add_constant(PiecewiseQuad.point_loss(rng.uniform(-4, 4), DOM),
                         rng.uniform(0, 3))
            for _ in range(3)
        ]
        ab = pointwise_min(fs[0], fs[1])
        ba = pointwise_min(fs[1], fs[0])
        xs, va = grid_eval(ab)
        _, vb = grid_eval(ba)
        np.testing.assert_allclose(va, vb, atol=1e-12)
        left = pointwise_min(pointwise_min(fs[0], fs[1]), fs[2])
        right = pointwise_min(fs[0], pointwise_min(fs[1], fs[2]))
        _, vl = grid_eval(left)
        _, vr = grid_eval(right)
        np.testing.assert_allclose(vl, vr, atol=1e-12)


def test_pointwise_min_piece_count_bound():
    rng = np.random.default_rng(21)
    for _ in range(30):
        f, _ = random_trace(rng, n_ops=4)
        g, _ = random_trace(rng, n_ops=4)
        if f.is_empty or g.is_empty:
            continue
        h = pointwise_min(f, g)
        bound = len(f) + len(g) + 2 * max(len(f), len(g))
        assert len(h) <= bound


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------


def test_min_leq_envelope_gap0():
    f = quad(1.0, -2.0, 1.0)           # (m-1)^2
    e = min_leq_envelope(f, 0.0)
    assert len(e.pieces) == 2
    assert (e.pieces[0].a, e.pieces[0].b, e.pieces[0].c) == (1.0, -2.0, 1.0)
    assert e.pieces[0].hi == 1.0
    assert (e.pieces[1].a, e.pieces[1].b, e.pieces[1].c) == (0.0, 0.0, 0.0)


def test_min_leq_envelope_gap2_clips_domain():
    f = quad(1.0, -2.0, 1.0)
    e = min_leq_envelope(f, 2.0)
    assert e.feasible_span == (-3.0, 5.0)
    # (m-3)^2 up to m=3, then 0
    assert e(0.0) == pytest.approx(9.0)
    assert e(3.0) == pytest.approx(0.0)
    assert e(4.7) == pytest.approx(0.0)
    assert e(-3.5) == math.inf


def test_min_geq_envelope_gap0():
    f = quad(1.0, -2.0, 1.0)
    e = min_geq_envelope(f, 0.0)
    assert e(-2.0) == pytest.approx(0.0)
    assert e(1.0) == pytest.approx(0.0)
    assert e(3.0) == pytest.approx(4.0)


def test_min_geq_envelope_tags_the_argmin_itself():
    # (m-1)^2 has its minimum 0 at m' = 1: D(m) = 0 for m <= 1 - 0.5, and
    # (m + 0.5 - 1)^2 above, up to where m + 0.5 leaves the domain
    e = min_geq_envelope(PiecewiseQuad([(-5, 5, 1, -2, 1)], DOM), 0.5)
    assert e.pieces == (QuadPiece(-5.0, 0.5, 0.0, 0.0, 0.0, ("pt", 1.0)),
                        QuadPiece(0.5, 4.5, 1.0, -1.0, 0.25, ("thr",)))
    assert math.copysign(1.0, e.pieces[0].b) == 1.0  # +0.0, mapped back as 0.0 - x


def test_envelopes_of_the_infeasible_function_are_empty():
    for gap in (0.0, 1.5):
        assert min_leq_envelope(PiecewiseQuad.infeasible(DOM), gap).is_empty
        assert min_geq_envelope(PiecewiseQuad.infeasible(DOM), gap).is_empty


def test_envelope_reflection_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        f, _ = random_trace(rng, n_ops=3)
        if f.is_empty:
            continue
        gap = float(rng.uniform(0, 1.5))
        ge = min_geq_envelope(f, gap)
        le = min_leq_envelope(reflect(f), gap)
        ms = np.linspace(f.domain[0], f.domain[1], 401)
        for a, b in zip(ge(ms).tolist(), le(-ms).tolist()):
            if math.isinf(a) or math.isinf(b):
                assert a == b
            else:
                assert abs(a - b) < 1e-9


def test_envelope_running_min_is_nonincreasing():
    rng = np.random.default_rng(31)
    for _ in range(15):
        f, _ = random_trace(rng, n_ops=4)
        if f.is_empty:
            continue
        gap = float(rng.uniform(0, 1.0))
        e = min_leq_envelope(f, gap)
        if e.is_empty:
            continue
        lo, hi = e.feasible_span
        vals = e(np.linspace(lo, hi, 500)).tolist()
        for v1, v2 in zip(vals, vals[1:]):
            assert v2 <= v1 + 1e-9


def test_envelope_gap_too_large():
    f = PiecewiseQuad.zero(DOM)
    with pytest.raises(ValueError):
        min_leq_envelope(f, 10.0)
    with pytest.raises(ValueError):
        min_geq_envelope(f, 12.0)
    with pytest.raises(ValueError):
        min_leq_envelope(f, -0.5)


def test_envelopes_match_grid_oracle():
    rng = np.random.default_rng(63)
    for _ in range(10):
        f, ops = random_trace(rng, n_ops=3)
        if f.is_empty:
            continue
        cells = int(rng.integers(0, 60_001))
        gap = cells * fine_step(f.domain)
        assert_matches_oracle(min_leq_envelope(f, gap), ops + [("leq", gap, cells)],
                              where=f"leq after {ops}")
        assert_matches_oracle(min_geq_envelope(f, gap), ops + [("geq", gap, cells)],
                              where=f"geq after {ops}")


# ---------------------------------------------------------------------------
# add_constant / global_min / reflect
# ---------------------------------------------------------------------------


def test_add_constant():
    f = PiecewiseQuad.zero(DOM)
    assert add_constant(f, 3.0)(0.2) == 3.0
    g = quad(2.0, 1.0, -1.0)
    assert add_constant(g, 0.0) == g


def test_global_min_interior():
    assert global_min(quad(1.0, -2.0, 1.0)) == (1.0, 0.0)


def test_global_min_boundary():
    arg, val = global_min(quad(1.0, -20.0, 100.0))   # (m-10)^2 on [-5, 5]
    assert arg == 5.0
    assert val == pytest.approx(25.0)


def test_global_min_ties_toward_smaller_m():
    # two equal constant pieces: the constructor keeps them apart, so the
    # tie is between argmins -5 and 0
    f = PiecewiseQuad(
        [(-5.0, 0.0, 0.0, 0.0, 2.0, None), (0.0, 5.0, 0.0, 0.0, 2.0, None)], DOM
    )
    assert len(f) == 2
    arg, val = global_min(f)
    assert arg == -5.0
    assert val == 2.0


def test_global_min_empty_errors():
    with pytest.raises(EmptyFunctionError):
        global_min(PiecewiseQuad.infeasible(DOM))


def test_global_min_matches_grid_scan():
    rng = np.random.default_rng(17)
    for _ in range(20):
        f, _ = random_trace(rng, n_ops=5)
        if f.is_empty:
            continue
        arg, val = global_min(f)
        lo, hi = f.feasible_span
        xs = np.linspace(lo, hi, 10001)
        vals = f(xs)
        k = int(np.argmin(vals))
        assert val <= vals[k] + 1e-9
        assert abs(val - vals[k]) < 1e-6
        assert f(arg) == pytest.approx(val, abs=1e-9)


# ---------------------------------------------------------------------------
# Representation invariants
# ---------------------------------------------------------------------------


def test_construction_rejects_nonconvex_piece():
    with pytest.raises(ValueError):
        PiecewiseQuad([(-5.0, 5.0, -1.0, 0.0, 0.0, None)], DOM)


def test_construction_rejects_bad_interval():
    with pytest.raises(ValueError):
        PiecewiseQuad([(2.0, 2.0, 1.0, 0.0, 0.0, None)], DOM)
    with pytest.raises(ValueError):
        PiecewiseQuad([(0.0, 1.0, 1.0, 0.0, 0.0, None),
                       (0.5, 2.0, 1.0, 0.0, 0.0, None)], DOM)
    with pytest.raises(ValueError):
        PiecewiseQuad([], (3.0, 3.0))


def test_neighbours_are_joined_only_when_exactly_equal():
    # there is no tolerant merge: the constructor keeps the pieces it is
    # given, and pointwise_min (the C min_k) joins a neighbour only when its
    # coefficients and tag are exactly equal, as solve does
    near = PiecewiseQuad(
        [(-5.0, 0.0, 1.0, 0.0, 0.0, None), (0.0, 5.0, 1.0, 0.0, 5e-13, None)], DOM
    )
    same = PiecewiseQuad(
        [(-5.0, 0.0, 1.0, 0.0, 0.0, None), (0.0, 5.0, 1.0, 0.0, 0.0, None)], DOM
    )
    assert len(near) == len(same) == 2
    assert len(pointwise_min(near, near)) == 2
    assert pointwise_min(same, same) == quad(1.0, 0.0, 0.0)
    tagged = PiecewiseQuad(
        [(-5.0, 0.0, 0.0, 0.0, 1.0, ("pt", 0.5)), (0.0, 5.0, 0.0, 0.0, 1.0, ("thr",))], DOM
    )
    assert len(pointwise_min(tagged, tagged)) == 2


def test_construction_rejects_unknown_tags():
    for tag in ("x", ("pt",), ("pt", 1.0, 2.0), ("thr", 1.0), ("pt", math.nan)):
        with pytest.raises(ValueError):
            PiecewiseQuad([(-5.0, 5.0, 1.0, 0.0, 0.0, tag)], DOM)
    f = PiecewiseQuad([(-5.0, 0.0, 1.0, 0.0, 0.0, ("pt", -0.0)),
                       (0.0, 5.0, 1.0, 0.0, 0.0, ("thr",)), ], DOM)
    assert [p.tag for p in f.pieces] == [("pt", -0.0), ("thr",)]
    assert math.copysign(1.0, f.pieces[0].tag[1]) == -1.0


def test_unary_ops_preserve_breakpoint_continuity():
    # Minima of same-domain continuous functions stay continuous; clipped
    # envelopes may introduce jumps where a feasible region begins, so this
    # invariant is checked on clip-free compositions only.
    rng = np.random.default_rng(77)

    def assert_continuous(g):
        for p, q in zip(g.pieces, g.pieces[1:]):
            if p.hi != q.lo:
                continue  # infeasible hole between pieces
            a = p.value(p.hi)
            b = q.value(q.lo)
            scale = max(1.0, abs(a), abs(b))
            assert abs(a - b) <= 1e-9 * scale

    for _ in range(15):
        f = PiecewiseQuad.point_loss(rng.uniform(-4, 4), DOM)
        for _ in range(int(rng.integers(1, 6))):
            g = add_constant(PiecewiseQuad.point_loss(rng.uniform(-4, 4), DOM),
                             rng.uniform(0, 4))
            f = pointwise_min(f, g)
        for out in (add_point_loss(f, 1.3), add_constant(f, 2.0),
                    min_leq_envelope(f, 0.1), min_geq_envelope(f, 0.1)):
            assert_continuous(out)


def test_fuzzed_compositions_match_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        f, ops = random_trace(rng)
        assert_matches_oracle(f, ops, where=str(ops))


def test_quadpiece_value():
    p = QuadPiece(0.0, 1.0, 2.0, -1.0, 3.0)
    assert p.value(2.0) == 2.0 * 4 - 2.0 + 3.0


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def test_call_equals_reference_eval_bit_for_bit():
    # __call__ on an array of points, on criterion 4's first 50
    # compositions, against the scalar reference evaluator; a scalar
    # argument gives the same bits
    rng = np.random.default_rng(424_242)
    points = comparison_points((-6.0, 6.0))
    for i in range(50):
        f, ops = random_trace(rng)
        pieces = f.pieces
        los = [p.lo for p in pieces]
        want = np.array([ref._eval_k(pieces, los, m) for m in points])
        got = f(points)
        assert np.array_equal(_bits(got), _bits(want)), f"composition {i}: {ops}"
        for m in points[::1000]:
            assert _bits(f(m)) == _bits(ref._eval_k(pieces, los, float(m)))
            assert type(f(m)) is float


def _reference_step(pieces, op, domain):
    """The reference kernels' result of one random_trace step."""
    name, *args = op
    dom_lo, dom_hi = domain
    if name == "start":
        return [(dom_lo, dom_hi, 1.0, -2.0 * args[0], args[0] * args[0], None)]
    if name == "loss":
        return ref._add_point_loss_k(pieces, args[0])
    if name == "const":
        return ref._add_constant_k(pieces, args[0])
    if name == "min":
        y, k = args
        g = ref._add_constant_k([(dom_lo, dom_hi, 1.0, -2.0 * y, y * y, None)], k)
        return ref._min_k(pieces, g)
    env = ref._envelope_k(pieces, args[0], 0.0, name == "leq", dom_lo, dom_hi)
    return [p for p in env if p[0] < p[1]]


def _piece_bits(pieces):
    """The bits of every (lo, hi, a, b, c), and the tags with the bits of a
    ("pt", x) tag's x."""
    tags = [t if t is None or t[0] == "thr" else ("pt", int(_bits(t[1])))
            for t in (p[5] for p in pieces)]
    return _bits([p[:5] for p in pieces]).reshape(-1, 5).tolist(), tags


def _assert_equal_bits(f, want, where):
    assert _piece_bits(f.pieces) == _piece_bits(want), where


def test_operations_equal_reference_kernels_bit_for_bit():
    # every public operation, step by step over 300 random compositions, on
    # the same input bits as the reference kernels; the reference envelope is
    # followed by the same drop of pieces with lo >= hi
    rng = np.random.default_rng(9)
    dom = (-6.0, 6.0)
    steps = 0
    for i in range(300):
        _, ops = random_trace(rng, domain=dom)
        f = PiecewiseQuad.point_loss(ops[0][1], dom)
        want = _reference_step(None, ops[0], dom)
        for k, op in enumerate(ops):
            if k:
                f = apply_op(f, op)
                want = _reference_step(want, op, dom)
            where = f"composition {i}, step {k}: {ops[: k + 1]}"
            _assert_equal_bits(f, want, where)
            if want:
                got_min, want_min = global_min(f), ref._global_min_k(want)
                assert _bits(got_min).tolist() == _bits(want_min).tolist(), where
            steps += 1
        r = reflect(f)
        _assert_equal_bits(r, ref._reflect_k(want), f"reflect after composition {i}")
    assert steps > 1000


def test_operations_on_functions_with_holes_equal_reference_kernels():
    # pieces with gaps between them, as solve makes for a state whose up and
    # down in-edges each cover only part of the domain: pointwise_min skips
    # to the next covered piece, and an envelope fills each gap with its
    # running minimum
    dom = (-6.0, 6.0)
    f = PiecewiseQuad([(-6.0, -2.0, 1.0, 4.0, 4.0), (1.0, 3.0, 1.0, -2.0, 1.5),
                       (4.5, 6.0, 0.0, 0.5, -1.0)], dom)
    g = PiecewiseQuad([(-5.0, -3.0, 0.0, 0.0, 2.0), (-1.0, 2.0, 1.0, 0.0, 0.0)], dom)
    for x, y in ((f, g), (g, f)):
        _assert_equal_bits(pointwise_min(x, y), ref._min_k(x.pieces, y.pieces), (x, y))
    for h in (f, g):
        for gap in (0.0, 1.25):
            for up, op in ((True, min_leq_envelope), (False, min_geq_envelope)):
                want = ref._envelope_k(h.pieces, gap, 0.0, up, *dom)
                _assert_equal_bits(op(h, gap), [p for p in want if p[0] < p[1]], (h, gap, up))


def test_constant_and_linear_pieces():
    # a = 0: the running minimum of 3 - m crosses the constant 0 at m = 3,
    # and a linear piece takes its minimum at the end it descends to
    dom = (-6.0, 6.0)
    f = PiecewiseQuad([(-6.0, 0.0, 0.0, 0.0, 0.0), (0.0, 6.0, 0.0, -1.0, 3.0)], dom)
    assert min_leq_envelope(f, 0.0).pieces == (
        QuadPiece(-6.0, 3.0, 0.0, 0.0, 0.0, ("pt", -6.0)),
        QuadPiece(3.0, 6.0, 0.0, -1.0, 3.0, ("thr",)))
    assert global_min(PiecewiseQuad.constant(1.5, dom)) == (-6.0, 1.5)
    assert global_min(PiecewiseQuad([(-6.0, 6.0, 0.0, 2.0, 0.0)], dom)) == (-6.0, -12.0)


# ---------------------------------------------------------------------------
# Non-finite input and overflow are typed errors
# ---------------------------------------------------------------------------


def test_non_finite_gap_is_rejected():
    f = PiecewiseQuad.point_loss(1.0, DOM)
    for gap in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gap"):
            min_leq_envelope(f, gap)
        with pytest.raises(ValueError, match="gap"):
            min_geq_envelope(f, gap)


def test_non_finite_sample_is_rejected():
    for y in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            add_point_loss(PiecewiseQuad.zero(DOM), y)
        with pytest.raises(ValueError, match="finite"):
            PiecewiseQuad.point_loss(y, DOM)


def test_non_finite_constant_is_rejected():
    for k in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            add_constant(PiecewiseQuad.zero(DOM), k)
        with pytest.raises(ValueError, match="non-finite"):
            PiecewiseQuad.constant(k, DOM)


def test_non_finite_coefficient_is_rejected():
    for piece in ((-5.0, 5.0, math.nan, 0.0, 0.0), (-5.0, 5.0, 1.0, math.inf, 0.0),
                  (-5.0, 5.0, 1.0, 0.0, -math.inf), (-5.0, math.nan, 1.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="non-finite"):
            PiecewiseQuad([piece], DOM)


def test_overflowing_results_are_typed_errors():
    big = (-1e200, 1e200)
    with pytest.raises(ValueError, match="overflow float64"):
        PiecewiseQuad.point_loss(1e200, big)
    with pytest.raises(ValueError, match="overflow float64"):
        add_point_loss(PiecewiseQuad.zero(big), 1e200)
    with pytest.raises(ValueError, match="overflow float64"):
        add_constant(PiecewiseQuad.constant(1e308, DOM), 1e308)
    with pytest.raises(ValueError, match="overflow float64"):
        min_leq_envelope(PiecewiseQuad.point_loss(0.0, big), 1e199)
    descending = PiecewiseQuad([(1.0, 10.0, 0.0, -1e308, 0.0, None)], (1.0, 10.0))
    with pytest.raises(ValueError, match="overflow float64"):
        global_min(descending)


def test_step_bound_failure_is_a_typed_error(monkeypatch):
    # finite pieces never overrun min_k's step bound; the status is mapped
    overrun = _native.library()._replace(min=lambda *args: -1)
    monkeypatch.setattr(_native, "_LIBRARY", overrun)
    f = PiecewiseQuad.point_loss(1.0, DOM)
    with pytest.raises(ValueError, match="overflow float64"):
        pointwise_min(f, PiecewiseQuad.point_loss(2.0, DOM))
