"""Graph-constrained changepoint detection with constraint-graph learning.

A signal is modelled as piecewise constant in mean; permitted mean changes
are the edges of a small directed graph over hidden states, each with a
direction, a minimum magnitude (gap), and an additive penalty.  The solver
finds the globally optimal segmentation, and the learner edits the graph
greedily to minimise R-peak detection errors on labeled records.
"""

from .pwq import (
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
from .graph import (
    ConstraintGraph,
    Edge,
    GraphParseError,
    GraphValidationError,
    StateId,
    initial_graph,
    parse,
    serialize,
    validate,
)
from ._native import NativeBuildError
from .solver import (
    InfeasibleModelError,
    Segmentation,
    Signal,
    extract_rpeaks,
    solve,
    solve_domain,
)
from .data import (
    DataFormatError,
    LabeledRecord,
    SynthConfig,
    generate_synthetic,
    load_record,
    save_record,
)
from .evaluate import (
    DetectionReport,
    MatchResult,
    cross_validate,
    match,
    match_within_bands,
    metrics,
    split_cycles,
)
from .learning import (
    EditCandidate,
    LearnConfig,
    LearnTrace,
    default_initial_graph,
    enumerate_candidates,
    evaluate_graph,
    learn,
)

__version__ = "0.1.0"
