"""Constraint-graph model, validation, and JSON round trips."""

import json
import math
from pathlib import Path

import pytest

from graphseg import graph as gr


def test_initial_graph_topology():
    g = gr.initial_graph(1.0, 1.0, 50.0)
    assert [s.name for s in g.states] == ["B", "R"]
    assert len(g.edges) == 2
    up = g.edges[0]
    assert (up.source, up.target, up.direction, up.gap, up.penalty) == (0, 1, "up", 1.0, 50.0)
    down = g.edges[1]
    assert (down.source, down.target, down.direction, down.gap, down.penalty) == (1, 0, "down", 1.0, 50.0)
    assert g.baseline_state == 0
    assert g.rpeak_state == 1
    assert gr.validate(g) == []


def test_initial_graph_zero_values():
    g = gr.initial_graph(0.0, 0.0, 0.0)
    assert gr.validate(g) == []


def test_initial_graph_rejects_negative():
    with pytest.raises(ValueError):
        gr.initial_graph(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gr.initial_graph(0.0, 0.0, -5.0)


def test_roundtrip_initial_graph():
    g = gr.initial_graph(1.0, 1.0, 50.0)
    assert gr.parse(gr.serialize(g)) == g


def test_roundtrip_preserves_full_float_precision():
    g = gr.initial_graph(0.1 + 0.2, 1.0 / 3.0, 1e-17 + 20.0)
    g2 = gr.parse(gr.serialize(g))
    assert g2.edges[0].gap == g.edges[0].gap
    assert g2.edges[1].gap == g.edges[1].gap
    assert g2.edges[0].penalty == g.edges[0].penalty


def test_validate_reports_sink_state():
    with pytest.raises(gr.GraphValidationError) as exc:
        gr.ConstraintGraph(
            states=(gr.StateId(0, "B"), gr.StateId(1, "R"), gr.StateId(2, "X")),
            edges=(gr.Edge(0, 1, "up", 1.0, 1.0), gr.Edge(1, 0, "down", 1.0, 1.0),
                   gr.Edge(0, 2, "up", 1.0, 1.0)),
            baseline_state=0,
            rpeak_state=1,
        )
    violations = exc.value.violations
    assert any("state 2" in v and "outgoing" in v for v in violations)


def test_validate_reports_negative_penalty():
    with pytest.raises(gr.GraphValidationError) as exc:
        gr.ConstraintGraph(
            states=(gr.StateId(0, "B"), gr.StateId(1, "R")),
            edges=(gr.Edge(0, 1, "up", 1.0, -1.0), gr.Edge(1, 0, "down", 1.0, 1.0)),
            baseline_state=0,
            rpeak_state=1,
        )
    violations = exc.value.violations
    assert any("penalty" in v and "edge 0" in v for v in violations)


def test_validate_reports_self_loop_and_duplicate():
    with pytest.raises(gr.GraphValidationError) as exc:
        gr.ConstraintGraph(
            states=(gr.StateId(0, "B"), gr.StateId(1, "R")),
            edges=(gr.Edge(0, 1, "up", 1.0, 1.0), gr.Edge(1, 0, "down", 1.0, 1.0),
                   gr.Edge(1, 1, "up", 1.0, 1.0), gr.Edge(0, 1, "up", 1.0, 1.0)),
            baseline_state=0,
            rpeak_state=1,
        )
    violations = exc.value.violations
    assert any("self-loop" in v for v in violations)
    assert any("duplicates" in v for v in violations)


def test_validate_multigraph_edges_differing_gap_allowed():
    g = gr.ConstraintGraph(
        states=(gr.StateId(0, "B"), gr.StateId(1, "R")),
        edges=(gr.Edge(0, 1, "up", 1.0, 1.0), gr.Edge(0, 1, "up", 2.0, 1.0),
               gr.Edge(1, 0, "down", 1.0, 1.0)),
        baseline_state=0,
        rpeak_state=1,
    )
    assert gr.validate(g) == []


def test_validate_not_strongly_connected():
    with pytest.raises(gr.GraphValidationError) as exc:
        gr.ConstraintGraph(
            states=(gr.StateId(0, "B"), gr.StateId(1, "R"),
                    gr.StateId(2, "X"), gr.StateId(3, "Y")),
            edges=(gr.Edge(0, 1, "up", 1.0, 1.0), gr.Edge(1, 0, "down", 1.0, 1.0),
                   gr.Edge(2, 3, "up", 1.0, 1.0), gr.Edge(3, 2, "down", 1.0, 1.0)),
            baseline_state=0,
            rpeak_state=1,
        )
    violations = exc.value.violations
    assert any("strongly connected" in v for v in violations)


def test_validate_dense_ids():
    with pytest.raises(gr.GraphValidationError) as exc:
        gr.ConstraintGraph(
            states=(gr.StateId(0, "B"), gr.StateId(2, "R")),
            edges=(gr.Edge(0, 1, "up", 1.0, 1.0), gr.Edge(1, 0, "down", 1.0, 1.0)),
            baseline_state=0,
            rpeak_state=1,
        )
    assert any("dense" in v for v in exc.value.violations)


def test_graph_built_from_lists_holds_tuples():
    states = [gr.StateId(0, "B"), gr.StateId(1, "R")]
    edges = [gr.Edge(0, 1, "up", 1.0, 1.0), gr.Edge(1, 0, "down", 1.0, 1.0)]
    g = gr.ConstraintGraph(states=states, edges=edges, baseline_state=0, rpeak_state=1)
    assert isinstance(g.states, tuple) and isinstance(g.edges, tuple)
    assert hash(g) == hash(gr.initial_graph(1.0, 1.0, 1.0))
    # the checked graph does not see later edits to the caller's lists
    edges.append(gr.Edge(0, 5, "up", 1.0, 1.0))
    states.pop()
    assert g == gr.initial_graph(1.0, 1.0, 1.0)


def two_state(source=0, target=1, direction="up", gap=1.0, penalty=1.0, ids=(0, 1),
              names=("B", "R"), baseline=0):
    return gr.ConstraintGraph(
        states=(gr.StateId(ids[0], names[0]), gr.StateId(ids[1], names[1])),
        edges=(gr.Edge(source, target, direction, gap, penalty),
               gr.Edge(1, 0, "down", 1.0, 1.0)),
        baseline_state=baseline,
        rpeak_state=1,
    )


@pytest.mark.parametrize("kw, text", [
    (dict(target=1.0), "endpoints must be integers"),
    (dict(source=False), "endpoints must be integers"),
    (dict(target="1"), "endpoints must be integers"),
    (dict(ids=(0.0, 1)), "dense"),
    (dict(ids=(False, True)), "dense"),
    (dict(baseline=False), "baseline_state False is not a state id"),
    (dict(gap="1"), "gap must be a number"),
    (dict(penalty=None), "penalty must be a number"),
    (dict(gap=True), "gap must be a number"),
    (dict(direction=["up"]), "direction must be 'up' or 'down'"),
    (dict(names=("B", ["R"])), "state names must be strings"),
])
def test_mistyped_fields_are_violations_not_crashes(kw, text):
    # validate never raises: a float endpoint once raised TypeError in the
    # connectivity check, and a float or bool id passed the dense-id check
    with pytest.raises(gr.GraphValidationError) as exc:
        two_state(**kw)
    assert any(text in v for v in exc.value.violations), exc.value.violations


def test_states_and_edges_of_other_types_are_violations():
    states = (gr.StateId(0, "B"), gr.StateId(1, "R"))
    edges = (gr.Edge(0, 1, "up", 1.0, 1.0), gr.Edge(1, 0, "down", 1.0, 1.0))
    with pytest.raises(gr.GraphValidationError, match="every state must be a StateId"):
        gr.ConstraintGraph(states[:1] + ((1, "R"),), edges, 0, 1)
    with pytest.raises(gr.GraphValidationError, match="every edge must be an Edge"):
        gr.ConstraintGraph(states, edges[:1] + ((1, 0, "down", 1.0, 1.0),), 0, 1)


@pytest.mark.parametrize("field", ["gap", "penalty"])
@pytest.mark.parametrize("value", [math.inf, pytest.param(10**400, id="10**400")])
def test_non_finite_edge_value_is_refused(field, value):
    with pytest.raises(gr.GraphValidationError) as exc:
        two_state(**{field: value})
    assert exc.value.violations == [f"edge 0 (0->1): {field} must be finite, got {value}"]


def test_non_finite_values_are_refused_where_graphs_are_made():
    with pytest.raises(gr.GraphValidationError, match="gap must be finite"):
        gr.initial_graph(math.inf, 1.0, 1.0)
    with pytest.raises(gr.GraphValidationError, match="penalty must be finite"):
        gr.initial_graph(1.0, 1.0, math.inf)
    doc = gr.serialize(gr.initial_graph(1.0, 1.0, 50.0))
    # 1e400 reads as inf, which serialize would write as Infinity: not JSON
    with pytest.raises(gr.GraphValidationError, match="penalty must be finite, got inf"):
        gr.parse(doc.replace('"penalty": 50.0', '"penalty": 1e400', 1))
    with pytest.raises(gr.GraphParseError, match="past the float range"):
        gr.parse(doc.replace('"penalty": 50.0', '"penalty": 1' + "0" * 400, 1))


def test_parse_missing_field():
    doc = json.loads(gr.serialize(gr.initial_graph(1, 1, 1)))
    del doc["edges"]
    with pytest.raises(gr.GraphParseError, match="edges"):
        gr.parse(json.dumps(doc))


def test_parse_unknown_field_rejected():
    doc = json.loads(gr.serialize(gr.initial_graph(1, 1, 1)))
    doc["extra"] = 1
    with pytest.raises(gr.GraphParseError, match="unknown"):
        gr.parse(json.dumps(doc))
    doc2 = json.loads(gr.serialize(gr.initial_graph(1, 1, 1)))
    doc2["edges"][0]["color"] = "red"
    with pytest.raises(gr.GraphParseError, match="edges\\[0\\]"):
        gr.parse(json.dumps(doc2))


def test_parse_duplicate_state_name_is_validation_error():
    doc = json.loads(gr.serialize(gr.initial_graph(1, 1, 1)))
    doc["states"][1]["name"] = "B"
    with pytest.raises(gr.GraphValidationError, match="duplicate"):
        gr.parse(json.dumps(doc))


def test_parse_invalid_json_reports_line():
    with pytest.raises(gr.GraphParseError, match="line"):
        gr.parse('{"states": [,]}')


def test_parse_rejects_bool_as_number():
    doc = json.loads(gr.serialize(gr.initial_graph(1, 1, 1)))
    doc["edges"][0]["gap"] = True
    with pytest.raises(gr.GraphParseError, match="number"):
        gr.parse(json.dumps(doc))


def test_state_lookup_helpers():
    g = gr.initial_graph(1, 1, 1)
    assert g.state_named("R").id == 1
    assert g.name_of(0) == "B"
    with pytest.raises(KeyError):
        g.state_named("Z")
    assert [i for i, _ in g.in_edges(0)] == [1]
    assert [i for i, _ in g.out_edges(0)] == [0]


INITIAL_6_5_3_50 = """\
{
  "states": [
    {
      "id": 0,
      "name": "B"
    },
    {
      "id": 1,
      "name": "R"
    }
  ],
  "edges": [
    {
      "source": 0,
      "target": 1,
      "direction": "up",
      "gap": 6.5,
      "penalty": 50.0
    },
    {
      "source": 1,
      "target": 0,
      "direction": "down",
      "gap": 3.0,
      "penalty": 50.0
    }
  ],
  "baseline_state": 0,
  "rpeak_state": 1
}
"""

LEARNED_GRAPH = Path(__file__).resolve().parent.parent / "perfbench" / "graphs" / "criterion7_learned.json"


def test_serialize_writes_the_golden_bytes():
    assert gr.serialize(gr.initial_graph(6.5, 3.0, 50.0)) == INITIAL_6_5_3_50


def test_committed_learned_graph_round_trips_byte_for_byte():
    text = LEARNED_GRAPH.read_text()
    assert len(gr.parse(text).states) == 4
    assert gr.serialize(gr.parse(text)) == text


# Raw JSON tokens: 1e400 reads as inf, 10**400 as an int past the float range
BAD_VALUES = ["null", "true", "0", "-1", "1.5", "1e400",
              pytest.param("1" + "0" * 400, id="10**400"), '"s"', "[]", "{}"]
_PATHS = ([("states",), ("edges",), ("baseline_state",), ("rpeak_state",)]
          + [("states", i, k) for i in range(2) for k in ("id", "name")]
          + [("edges", i, k) for i in range(2)
             for k in ("source", "target", "direction", "gap", "penalty")])


def _document_with(path, token):
    doc = json.loads(INITIAL_6_5_3_50)
    obj = doc
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = "@VALUE@"
    return json.dumps(doc).replace('"@VALUE@"', token)


@pytest.mark.parametrize("token", BAD_VALUES)
@pytest.mark.parametrize("path", _PATHS, ids=lambda p: "/".join(map(str, p)))
def test_parse_of_any_field_value_raises_only_graph_errors(path, token):
    try:
        g = gr.parse(_document_with(path, token))
    except (gr.GraphParseError, gr.GraphValidationError):
        return
    assert gr.parse(gr.serialize(g)) == g


def test_parse_leaves_field_types_to_the_constructor_which_lists_each():
    doc = json.loads(INITIAL_6_5_3_50)
    doc["edges"][0]["source"] = "0"
    doc["edges"][1]["target"] = 0.5
    with pytest.raises(gr.GraphValidationError) as exc:
        gr.parse(json.dumps(doc))
    assert exc.value.violations == [
        "edge 0 ('0'->1): endpoints must be integers",
        "edge 1 (1->0.5): endpoints must be integers",
    ]
    doc = json.loads(INITIAL_6_5_3_50)
    doc["edges"][0]["direction"] = None
    doc["edges"][1]["direction"] = "sideways"
    with pytest.raises(gr.GraphValidationError) as exc:
        gr.parse(json.dumps(doc))
    assert exc.value.violations == [
        "edge 0 (0->1): direction must be 'up' or 'down', got None",
        "edge 1 (1->0): direction must be 'up' or 'down', got 'sideways'",
    ]


@pytest.mark.parametrize("document", [
    pytest.param(INITIAL_6_5_3_50.replace('"id": 0', '"id": 1' + "0" * 5000, 1),
                 id="int-of-5001-digits"),
    pytest.param("[" * 100_000, id="deep-nesting"),
])
def test_json_that_does_not_decode_is_a_parse_error(document):
    # json.loads raises ValueError and RecursionError here, not JSONDecodeError
    with pytest.raises(gr.GraphParseError, match="invalid JSON"):
        gr.parse(document)
