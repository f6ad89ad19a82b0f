"""Constraint graph: hidden states plus directed change edges.

Each edge says that the segment mean may change from its source state to
its target state, in a fixed direction (up or down), by at least ``gap``
amplitude units, at an additive cost of ``penalty``.  Staying in a state
is not an edge; the solver handles the no-change case directly.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, fields

UP = "up"
DOWN = "down"
DIRECTIONS = (UP, DOWN)


class GraphParseError(ValueError):
    """The graph document is malformed."""


class GraphValidationError(ValueError):
    """The graph document parsed but violates a structural invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class StateId:
    id: int
    name: str


@dataclass(frozen=True)
class Edge:
    source: int
    target: int
    direction: str
    gap: float
    penalty: float


@dataclass(frozen=True)
class ConstraintGraph:
    """A valid graph: the constructor stores states and edges as tuples and
    raises GraphValidationError with every violation validate() finds."""

    states: tuple
    edges: tuple
    baseline_state: int
    rpeak_state: int

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "edges", tuple(self.edges))
        violations = validate(self)
        if violations:
            raise GraphValidationError(violations)

    def state_named(self, name: str) -> StateId:
        for s in self.states:
            if s.name == name:
                return s
        raise KeyError(f"no state named {name!r}")

    def name_of(self, state_id: int) -> str:
        return self.states[state_id].name

    def in_edges(self, state_id: int):
        return [(i, e) for i, e in enumerate(self.edges) if e.target == state_id]

    def out_edges(self, state_id: int):
        return [(i, e) for i, e in enumerate(self.edges) if e.source == state_id]


def initial_graph(gap_up: float, gap_down: float, penalty: float) -> ConstraintGraph:
    """Two-state starting point: baseline B with an up edge to R and a down
    edge back."""
    return ConstraintGraph(
        states=(StateId(0, "B"), StateId(1, "R")),
        edges=(
            Edge(0, 1, UP, float(gap_up), float(penalty)),
            Edge(1, 0, DOWN, float(gap_down), float(penalty)),
        ),
        baseline_state=0,
        rpeak_state=1,
    )


def _is_int(v):
    return type(v) is int or (isinstance(v, int) and not isinstance(v, bool))


def _is_real(v):
    return type(v) is float or (isinstance(v, numbers.Real) and not isinstance(v, bool))


def validate(g: ConstraintGraph):
    """Return a list of human-readable invariant violations (empty when valid).

    Never raises.  The ConstraintGraph constructor raises
    GraphValidationError when this is non-empty, so every graph that exists
    passes it.
    """
    out = []
    n = len(g.states)
    if n == 0:
        return ["graph has no states"]
    if not all(isinstance(s, StateId) for s in g.states):
        return ["every state must be a StateId"]
    if not all(isinstance(e, Edge) for e in g.edges):
        return ["every edge must be an Edge"]
    ids = [s.id for s in g.states]
    if not all(map(_is_int, ids)) or ids != list(range(n)):
        out.append(f"state ids must be dense 0..{n - 1} in order, got {ids}")
        return out
    for i, e in enumerate(g.edges):
        if not (_is_int(e.source) and _is_int(e.target)):
            out.append(f"edge {i} ({e.source!r}->{e.target!r}): endpoints must be integers")
    if out:
        return out
    names = [s.name for s in g.states]
    if not all(isinstance(x, str) for x in names):
        return [f"state names must be strings, got {names}"]
    if len(set(names)) != n:
        dup = sorted({x for x in names if names.count(x) > 1})
        out.append(f"duplicate state names: {dup}")
    for s in g.states:
        if not s.name:
            out.append(f"state {s.id} has an empty name")

    seen = set()
    for i, e in enumerate(g.edges):
        label = f"edge {i} ({e.source}->{e.target})"
        if not (0 <= e.source < n) or not (0 <= e.target < n):
            out.append(f"{label}: endpoint out of range")
            continue
        if e.source == e.target:
            out.append(f"{label}: self-loops are not allowed")
        hashable = isinstance(e.direction, str)
        if not (hashable and e.direction in DIRECTIONS):
            out.append(f"{label}: direction must be 'up' or 'down', got {e.direction!r}")
        for field, v in (("gap", e.gap), ("penalty", e.penalty)):
            if not _is_real(v):
                out.append(f"{label}: {field} must be a number, got {v!r}")
                hashable = False
            elif not (v >= 0):
                out.append(f"{label}: {field} must be non-negative, got {v}")
            elif not v <= sys.float_info.max:
                out.append(f"{label}: {field} must be finite, got {v}")
        if not hashable:
            continue
        key = (e.source, e.target, e.direction, e.gap, e.penalty)
        if key in seen:
            out.append(f"{label}: duplicates another edge with identical attributes")
        seen.add(key)

    for v in range(n):
        if not any(e.source == v for e in g.edges):
            out.append(f"state {v} ({g.states[v].name}): no outgoing edge")
        if not any(e.target == v for e in g.edges):
            out.append(f"state {v} ({g.states[v].name}): no incoming edge")

    for anchor, label in ((g.baseline_state, "baseline_state"), (g.rpeak_state, "rpeak_state")):
        if not (_is_int(anchor) and 0 <= anchor < n):
            out.append(f"{label} {anchor} is not a state id")

    if not out and not _strongly_connected(g):
        out.append("graph is not strongly connected")
    return out


def _strongly_connected(g: ConstraintGraph) -> bool:
    n = len(g.states)
    fwd = [[] for _ in range(n)]
    rev = [[] for _ in range(n)]
    for e in g.edges:
        fwd[e.source].append(e.target)
        rev[e.target].append(e.source)

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    return len(reach(fwd)) == n and len(reach(rev)) == n


_FIELDS = {cls: {f.name for f in fields(cls)} for cls in (StateId, Edge, ConstraintGraph)}


def _object(cls, obj, where):
    """Return obj if it is a JSON object with exactly the fields of cls."""
    if not isinstance(obj, dict):
        raise GraphParseError(f"{where}: must be an object")
    want = _FIELDS[cls]
    if obj.keys() != want:
        raise GraphParseError(f"{where}: missing field(s) {sorted(want - obj.keys())}, "
                              f"unknown field(s) {sorted(obj.keys() - want)}")
    return obj


def _want_real(obj, key, where):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise GraphParseError(f"{where}: field {key!r} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise GraphParseError(f"{where}: field {key!r} is past the float range") from None


def parse(document: str) -> ConstraintGraph:
    """Parse the JSON graph document by its shape; the constructor checks
    the values.

    Raises GraphParseError when the document is not JSON, an object lacks
    or adds a field, 'states' or 'edges' is not a list, or a gap or penalty
    is not a number (bools included) or is an int past the float range.
    Any other bad value (a mistyped id, endpoint, anchor, name or direction,
    or a broken invariant; 1e400 reads as inf) is a GraphValidationError
    from the ConstraintGraph constructor that lists every violation.
    """
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an int of over 4300 digits, deep nesting
        raise GraphParseError(f"invalid JSON: {exc}") from exc
    _object(ConstraintGraph, raw, "top level")
    for key in ("states", "edges"):
        if not isinstance(raw[key], list):
            raise GraphParseError(f"{key!r} must be a list")
    states = [StateId(**_object(StateId, s, f"states[{i}]"))
              for i, s in enumerate(raw["states"])]
    edges = []
    for i, e in enumerate(raw["edges"]):
        where = f"edges[{i}]"
        _object(Edge, e, where)
        e["gap"] = _want_real(e, "gap", where)
        e["penalty"] = _want_real(e, "penalty", where)
        edges.append(Edge(**e))
    raw["states"], raw["edges"] = states, edges
    return ConstraintGraph(**raw)


def serialize(g: ConstraintGraph) -> str:
    """Canonical JSON rendering; parse(serialize(g)) == g structurally."""
    doc = dict(vars(g), states=[vars(s) for s in g.states], edges=[vars(e) for e in g.edges])
    return json.dumps(doc, indent=2) + "\n"
