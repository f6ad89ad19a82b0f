"""Algebra of the piecewise-quadratic value functions of the solver's
dynamic program: data terms, pointwise minima, change envelopes, constants.

A ``PiecewiseQuad`` holds one numpy array of the ``Piece`` struct of
``_solve.c`` (dtype ``_native.PIECE``): ordered, disjoint [lo, hi] in a
fixed domain, each with a convex a*m^2 + b*m + c; elsewhere it is +inf.
``pointwise_min``, the change envelopes and ``global_min`` call the C
kernels of ``solve``: ``min_leq_envelope`` and ``min_geq_envelope`` both
call ``graphseg_envelope``, the operator of ``solve``'s up and down edges.
The rest are numpy expressions.  No tolerance joins neighbours.
``tests/reference_pwq.py`` keeps the kernels in Python as the test oracle,
equal bit for bit.

A tag is ``None`` (C kind K_STAY), ``("pt", x)`` (K_PT: a constant stretch
of a running minimum attained at x; for ``min_geq_envelope`` too, x is the
argmin m' itself) or ``("thr",)`` (K_THR: the input's descending branch,
attained at the evaluation point).  Any other tag, a non-finite sample,
constant, gap or coefficient, and a result whose coefficients or minimum
overflow are ``ValueError``s.
"""

from __future__ import annotations

import ctypes
import math
from typing import NamedTuple

import numpy as np

from . import _native
from ._native import PIECE

CONVEXITY_TOL = 1e-12  # a piece with a < -CONVEXITY_TOL is not convex
K_STAY, K_THR, K_PT = 0, 1, 2  # the tag kinds of _solve.c
_OVERFLOW = "the costs overflow float64"


class DomainMismatchError(ValueError):
    """Operands of a binary operation live on different reference domains."""


class EmptyFunctionError(ValueError):
    """The operation needs at least one feasible point."""


class QuadPiece(NamedTuple):
    lo: float
    hi: float
    a: float
    b: float
    c: float
    tag: object = None

    def value(self, m: float) -> float:
        return (self.a * m + self.b) * m + self.c


def _finite(x, name):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def _encode(tag):  # the (kind, pt) of a tag
    if tag is None or tag == ("thr",):
        return (K_STAY if tag is None else K_THR), 0.0
    if isinstance(tag, tuple) and len(tag) == 2 and tag[0] == "pt":
        return K_PT, _finite(tag[1], "the x of a ('pt', x) tag")
    raise ValueError(f"unknown piece tag {tag!r}: use None, ('pt', x) or ('thr',)")


def _result(arr, domain):  # an operation's result, whose pieces must be finite
    if not all(np.isfinite(arr[k]).all() for k in ("a", "b", "c")):
        raise ValueError(_OVERFLOW)
    f = PiecewiseQuad.__new__(PiecewiseQuad)
    f.domain, f._arr = domain, arr
    return f


class PiecewiseQuad:
    """Piecewise-quadratic function over a fixed reference domain, from
    ordered, disjoint, finite and convex (a >= 0) ``(lo, hi, a, b, c[, tag])``
    pieces inside ``domain``; no pieces is the everywhere-infeasible one."""

    __slots__ = ("domain", "_arr")

    def __init__(self, pieces, domain):
        lo, hi = float(domain[0]), float(domain[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"invalid domain [{lo}, {hi}]")
        rows = []
        for p in pieces:
            plo, phi, a, b, c = (float(v) for v in p[:5])
            kind, pt = _encode(p[5] if len(p) > 5 else None)
            if not (all(map(math.isfinite, (plo, phi, a, b, c))) and plo < phi):
                raise ValueError(f"non-finite or empty piece {tuple(p)}")
            if plo < lo - 1e-9 or phi > hi + 1e-9:
                raise ValueError(f"piece [{plo}, {phi}] outside domain [{lo}, {hi}]")
            if a < -CONVEXITY_TOL:
                raise ValueError(f"non-convex piece: a = {a}")
            if rows and plo < rows[-1][1]:
                raise ValueError("pieces overlap or are out of order")
            rows.append((plo, phi, a, b, c, pt, 0, kind))
        self.domain = (lo, hi)
        self._arr = np.array(rows, dtype=PIECE)

    @classmethod
    def constant(cls, value, domain):
        return cls([(domain[0], domain[1], 0.0, 0.0, value)], domain)

    @classmethod
    def zero(cls, domain):
        return cls.constant(0.0, domain)

    @classmethod
    def point_loss(cls, y, domain):
        """The single data term (y - m)^2 over the whole domain."""
        y = _finite(y, "y")
        if not math.isfinite(y * y):
            raise ValueError(_OVERFLOW)
        return cls([(domain[0], domain[1], 1.0, -2.0 * y, y * y)], domain)

    @classmethod
    def infeasible(cls, domain):
        return cls([], domain)

    @property
    def pieces(self):
        """The pieces as a tuple of ``QuadPiece``."""
        return tuple(QuadPiece(lo, hi, a, b, c, None if kind == K_STAY else
                               ("pt", pt) if kind == K_PT else ("thr",))
                     for lo, hi, a, b, c, pt, _br, kind in self._arr.tolist())

    @property
    def is_empty(self):
        return not len(self._arr)

    @property
    def feasible_span(self):
        """(lo, hi) of the covered region, or None when empty."""
        p = self._arr
        return None if self.is_empty else (float(p["lo"][0]), float(p["hi"][-1]))

    @np.errstate(invalid="ignore", over="ignore")  # in the rows not taken
    def __call__(self, m):
        """f(m) for a float or an array m: from the last piece starting at or
        below m if m is within its end, or from the next if that starts within
        1e-12 * (1 + |m|) above m and is smaller there; else +inf."""
        m = np.asarray(m, dtype=float)
        out = np.full(m.shape, math.inf)
        if not self.is_empty:
            lo, hi, a, b, c = (self._arr[k] for k in ("lo", "hi", "a", "b", "c"))
            last = len(lo) - 1
            eps = 1e-12 * (1.0 + np.abs(m))
            i = lo.searchsorted(m, "right") - 1
            k, j = np.maximum(i, 0), np.minimum(i + 1, last)
            own = (a[k] * m + b[k]) * m + c[k]
            nxt = (a[j] * m + b[j]) * m + c[j]
            out = np.where((i >= 0) & (m <= hi[k] + eps), own, out)
            out = np.where((i < last) & (lo[j] <= m + eps) & (nxt < out), nxt, out)
        return float(out) if out.ndim == 0 else out

    def __len__(self):
        return len(self._arr)

    def __eq__(self, other):
        if not isinstance(other, PiecewiseQuad):
            return NotImplemented
        return self.domain == other.domain and self.pieces == other.pieces

    def __repr__(self):
        return f"PiecewiseQuad({len(self)} pieces on {self.domain})"


@np.errstate(over="ignore")  # an overflow is the ValueError of _result
def add_point_loss(f: PiecewiseQuad, y: float) -> PiecewiseQuad:
    """Add the data term (y - m)^2 to every piece of f; tags are kept."""
    y = _finite(y, "y")
    p = f._arr.copy()
    p["a"] += 1.0
    p["b"] += -2.0 * y
    p["c"] += y * y
    return _result(p, f.domain)


@np.errstate(over="ignore")
def add_constant(f: PiecewiseQuad, k: float) -> PiecewiseQuad:
    """Add a constant penalty k to f."""
    p = f._arr.copy()
    p["c"] += _finite(k, "k")
    return _result(p, f.domain)


def pointwise_min(f: PiecewiseQuad, g: PiecewiseQuad) -> PiecewiseQuad:
    """min(f, g) pointwise on their common domain; f wins ties."""
    if f.domain != g.domain:
        raise DomainMismatchError(f"domains differ: {f.domain} vs {g.domain}")
    if f.is_empty or g.is_empty:
        return g if f.is_empty else f
    out = np.zeros(3 * (2 * (len(f) + len(g)) + 2), dtype=PIECE)
    n = _native.library().min(f._arr, len(f), g._arr, len(g), out)
    if n < 0:  # the sweep overran its step bound
        raise ValueError(_OVERFLOW)
    return _result(out[:n], f.domain)


def _envelope(f, gap, up):  # _solve.c's change operator of an edge, with no penalty
    gap, (lo, hi) = float(gap), f.domain
    if not 0.0 <= gap < hi - lo:
        raise ValueError(f"gap must be in [0, {hi - lo}), the domain width; got {gap}")
    env, r = np.zeros((2, 4 * len(f) + 1), dtype=PIECE)
    r = r[: _native.library().envelope(f._arr, len(f), gap, up, lo, hi, env, r)]
    # lo + gap == hi + gap by rounding leaves a piece of no width
    return _result(r[r["lo"] < r["hi"]], f.domain)


def min_leq_envelope(f: PiecewiseQuad, gap: float) -> PiecewiseQuad:
    """Up-change operator D(m) = min{f(m') : m' <= m - gap}: infeasible where
    m - gap is below f's feasible start, constant past its last piece."""
    return _envelope(f, gap, 1)


def min_geq_envelope(f: PiecewiseQuad, gap: float) -> PiecewiseQuad:
    """Down-change operator D(m) = min{f(m') : m' >= m + gap}: the up-change one
    on the axis m -> -m, computed there and mapped back, so a ("pt", x) tag
    holds the argmin m' itself."""
    return _envelope(f, gap, 0)


def global_min(f: PiecewiseQuad):
    """(argmin, value) over the feasible region; ties toward smaller m."""
    if f.is_empty:
        raise EmptyFunctionError("global_min of an everywhere-infeasible function")
    arg = ctypes.c_double()
    val = _native.library().global_min(f._arr, len(f), ctypes.byref(arg))
    if not math.isfinite(val):
        raise ValueError(_OVERFLOW)
    return arg.value, val


def reflect(f: PiecewiseQuad) -> PiecewiseQuad:
    """The function m -> f(-m) on the mirrored domain."""
    p = f._arr[::-1].copy()
    p["lo"], p["hi"], p["b"] = -p["hi"], -p["lo"], -p["b"]
    return _result(p, (-f.domain[1], -f.domain[0]))
