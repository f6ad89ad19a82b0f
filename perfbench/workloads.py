"""The benchmark's workloads: inputs made from the seed, one round of
operations, and the checks on each operation's outputs.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  A round is the unit the loop repeats
and the per-layer metrics are counted over: one detect call per corpus
record for ``detect`` and one ``cross_validate()`` call for ``cv``.

The seed draws every random input: beat jitter, baseline wander and noise
of every record, and the learner's and the fold plan's seeds.  The start
graph of ``cv`` is fixed so that the learner does about the same work
whatever the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from graphseg import cli, evaluate, learning
from graphseg import graph as gr
from graphseg.data import SynthConfig, generate_synthetic, load_record, save_record
from graphseg.evaluate import match, windows_whole_record
from graphseg.solver import Signal

HERE = os.path.dirname(os.path.abspath(__file__))
LEARNED_GRAPH = os.path.join(HERE, "graphs", "criterion7_learned.json")
TOLERANCE_MS = 100.0
FLOAT_RTOL = 1e-9
# the recomputed segmentation cost sums squares in another order than the
# solver's quadratic coefficients; 1e-6 relative leaves room for that
COST_RTOL = 1e-6


def sub_seed(seed, *keys):
    """A generator seed derived from the workload seed and a record key."""
    return int(np.random.SeedSequence([int(seed), *keys]).generate_state(1)[0])


def digest(obj):
    """Short hash of an operation's discrete outputs (canonical JSON)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def close(a, b, rtol=FLOAT_RTOL):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def write_and_load(workdir, rec):
    """Write the record to CSV and annotation files and read it back, as
    the program's users load their data."""
    csv = os.path.join(workdir, f"{rec.record_id}.csv")
    ann = os.path.join(workdir, f"{rec.record_id}.ann")
    save_record(rec, csv, ann)
    return load_record(csv, ann, sample_rate=rec.signal.sample_rate)


def write_and_parse_graph(path, g):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(gr.serialize(g))
    with open(path, encoding="utf-8") as fh:
        return gr.parse(fh.read())


@dataclass
class OpResult:
    """One operation: its name, wall seconds, outputs and check outcome."""

    name: str
    seconds: float
    outputs: dict = None
    error: str = None
    digest: str = None


@dataclass
class Workload:
    seed: int
    tiny: bool = False
    workdir: str = None
    samples_per_round: int = 0
    workers: int = 1
    first_digest: dict = field(default_factory=dict)

    # subclasses: setup(), ops(), run_op(), validate(), discrete(), quality()
    # and probe()

    def learn_config(self):
        # tiny inputs are for smoke tests: one learner iteration is enough
        if self.tiny:
            return learning.LearnConfig(seed=self.seed, max_iterations=1)
        return learning.LearnConfig(seed=self.seed)

    def reset_workdir(self, workdir):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        self.workdir = workdir

    def check(self, op, reference):
        """Fill op.digest and set op.error when an output check fails."""
        if op.error:
            return
        try:
            problem = self.validate(op)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problem = f"malformed output: {exc!r}"
        if problem:
            op.error = problem
            return
        disc = self.discrete(op)
        op.digest = digest(disc)
        first = self.first_digest.setdefault(op.name, op.digest)
        if first != op.digest:
            op.error = "output differs from this run's first call on the same input"
            return
        if reference is not None:
            ref = reference.get(op.name)
            if ref is None:
                op.error = "no reference output"
            elif ref["discrete"] != json.loads(json.dumps(disc)):
                op.error = "discrete outputs differ from the reference"
            else:
                op.error = _float_mismatch(self.floats(op), ref["floats"])

    def floats(self, op):
        """Outputs compared with the reference within FLOAT_RTOL."""
        return {}

    def reference_entry(self, op):
        return {"discrete": self.discrete(op), "floats": self.floats(op)}

    def child_traces(self, op):
        """Trace snapshots that worker processes attached to op's outputs."""
        return []


def _float_mismatch(got, want):
    for key, w in want.items():
        g = got.get(key)
        ws = w if isinstance(w, list) else [w]
        gs = g if isinstance(g, list) else [g]
        if g is None or len(gs) != len(ws):
            return f"{key}: shape differs from the reference"
        for i, (x, y) in enumerate(zip(gs, ws)):
            if not close(x, y):
                return f"{key}[{i}] = {x!r}, reference {y!r} (rtol {FLOAT_RTOL})"
    return None


# ---------------------------------------------------------------------------
# detect: repeated `graphseg detect` CLI calls on CSV records
# ---------------------------------------------------------------------------


class Detect(Workload):
    """`graphseg detect` on CSV files: a long plain-beat record under the
    2-state graph and a pre-R-dip record under the committed 4-state graph
    that `learn` produces on the criterion-7 corpus.  The dip record is
    sized so that both calls take about as long, which keeps the median
    call time away from the gap between two clusters of call times."""

    def setup(self, workdir):
        self.reset_workdir(workdir)
        plain_cycles, dip_cycles = (8, 6) if self.tiny else (349, 230)
        plain = generate_synthetic(SynthConfig(
            n_cycles=plain_cycles, heart_rate_bpm=75.0, r_amplitude=10.0,
            noise_sigma=0.2, baseline_wander_amp=3.0, seed=sub_seed(self.seed, 0)))
        dip = generate_synthetic(SynthConfig(
            n_cycles=dip_cycles, heart_rate_bpm=88.0, r_amplitude=10.0,
            noise_sigma=0.2, baseline_wander_amp=3.0, pre_r_dip=10.5,
            seed=sub_seed(self.seed, 1)))
        two_state = os.path.join(workdir, "two_state.json")
        four_state = os.path.join(workdir, "four_state.json")
        shutil.copyfile(LEARNED_GRAPH, four_state)
        with open(four_state, encoding="utf-8") as fh:
            learned = gr.parse(fh.read())
        self.cases = [
            ("plain", plain, write_and_parse_graph(two_state, gr.initial_graph(6.5, 3.0, 50.0)),
             two_state),
            ("dip", dip, learned, four_state),
        ]
        for name, rec, *_ in self.cases:
            save_record(rec, self.csv(name), os.path.join(workdir, f"{name}.ann"))
        self.samples_per_round = sum(len(c[1].signal) for c in self.cases)

    def ops(self):
        return [c[0] for c in self.cases]

    def csv(self, name):
        return os.path.join(self.workdir, f"{name}.csv")

    def run_op(self, i, clock):
        name, _rec, _g, gpath = self.cases[i]
        out = os.path.join(self.workdir, f"out_{name}")
        t0 = clock()
        code = cli.main(["detect", "--signal", self.csv(name), "--graph", gpath,
                         "--out-dir", out])
        op = OpResult(name, clock() - t0)
        if code != 0:
            op.error = f"graphseg detect exited with {code}"
            return op
        with open(os.path.join(out, "segmentation.json"), encoding="utf-8") as fh:
            seg = json.load(fh)
        with open(os.path.join(out, "rpeaks.txt"), encoding="utf-8") as fh:
            peaks = [int(x) for x in fh.read().split()]
        op.outputs = {"seg": seg, "rpeaks": peaks}
        return op

    def quality(self, op):
        rec = self.cases[self.ops().index(op.name)][1]
        tol = int(round(TOLERANCE_MS * rec.signal.sample_rate / 1000.0))
        mr = match(rec.rpeak_annotations.tolist(), op.outputs["rpeaks"], tol)
        return mr.tp, mr.fp, mr.fn

    def validate(self, op):
        _name, rec, g, _gpath = self.cases[self.ops().index(op.name)]
        return check_segmentation(rec.signal.samples, g, op.outputs["seg"],
                                  op.outputs["rpeaks"])

    def discrete(self, op):
        seg = op.outputs["seg"]
        return {k: seg[k] for k in ("boundaries", "states", "edges_taken")} | {
            "rpeaks": op.outputs["rpeaks"]}

    def floats(self, op):
        seg = op.outputs["seg"]
        return {"total_cost": seg["total_cost"], "means": seg["means"]}

    def probe(self):
        """A solve input for the decision-record memory measurement."""
        _name, rec, g, _gpath = self.cases[0]
        return Signal(rec.signal.samples[:20_000], rec.signal.sample_rate), g, "free"


def check_segmentation(y, g, seg, peaks):
    """None when the segmentation is consistent with the graph and its cost
    matches the signal, else a description of the first problem."""
    n = len(y)
    b = seg["boundaries"]
    states = [g.state_named(s).id for s in seg["states"]]
    means = seg["means"]
    edges = seg["edges_taken"]
    if len(states) != len(b) + 1 or len(means) != len(b) + 1 or len(edges) != len(b):
        return "segment lists have inconsistent lengths"
    cuts = [0] + list(b) + [n]
    if any(cuts[k] >= cuts[k + 1] for k in range(len(cuts) - 1)):
        return "boundaries are not strictly increasing inside the signal"
    cost = 0.0
    for k, e_idx in enumerate(edges):
        e = g.edges[e_idx]
        if (e.source, e.target) != (states[k], states[k + 1]):
            return f"change {k} takes edge {e_idx}, which does not join its states"
        step = means[k + 1] - means[k] if e.direction == gr.UP else means[k] - means[k + 1]
        if step < e.gap - 1e-9 * (1.0 + abs(means[k])):
            return f"change {k} moves the mean by {step}, less than its gap {e.gap}"
        cost += e.penalty
    for k, m in enumerate(means):
        d = y[cuts[k]:cuts[k + 1]] - m
        cost += float(d @ d)
    if not close(cost, seg["total_cost"], COST_RTOL):
        return f"total_cost {seg['total_cost']!r} but the segments cost {cost!r}"
    if any(p < 0 or p >= n for p in peaks) or peaks != sorted(set(peaks)):
        return "R peaks are not strictly increasing sample indices"
    r = g.rpeak_state
    runs = sum(1 for k, s in enumerate(states) if s == r and (k == 0 or states[k - 1] != r))
    if runs != len(peaks):
        return f"{len(peaks)} R peaks for {runs} runs of the R state"
    return None


# ---------------------------------------------------------------------------
# cv: one cross_validate() call on a mixed corpus with a 2-worker pool
# ---------------------------------------------------------------------------

CV_RECORDS = (  # heart rate (bpm), pre-R deflection
    (74.0, 0.0),
    (80.0, 0.0),
    (86.0, 10.5),
)
CV_JOBS = 2
CV_FOLDS = 5


class CrossValidate(Workload):
    """`cross_validate(records, k=5, n_jobs=2)` from the 2-state graph on
    plain and pre-R-dip records; dip tasks learn extra states and take far
    longer than plain ones, so the slowest task sets the wall time."""

    def setup(self, workdir):
        self.reset_workdir(workdir)
        cycles = 5 if self.tiny else 8
        specs = CV_RECORDS[1:] if self.tiny else CV_RECORDS
        self.records = []
        for i, (bpm, dip) in enumerate(specs):
            rec = generate_synthetic(SynthConfig(
                n_cycles=cycles, heart_rate_bpm=bpm, r_amplitude=10.0, noise_sigma=0.2,
                baseline_wander_amp=3.0, pre_r_dip=dip, seed=sub_seed(self.seed, 3, i)))
            self.records.append(write_and_load(workdir, rec))
        self.initial = write_and_parse_graph(
            os.path.join(workdir, "start.json"), gr.initial_graph(6.5, 3.0, 50.0))
        self.samples_per_round = sum(len(r.signal) for r in self.records)
        self.workers = CV_JOBS

    def ops(self):
        return ["cv"]

    def run_op(self, i, clock):
        cfg = self.learn_config()
        t0 = clock()
        report = evaluate.cross_validate(self.records, k=CV_FOLDS, cfg=cfg,
                                         initial_graph=self.initial, n_jobs=CV_JOBS)
        op = OpResult("cv", clock() - t0)
        op.outputs = {"report": report}
        return op

    def quality(self, op):
        report = op.outputs["report"]
        return report.tp, report.fp, report.fn

    def child_traces(self, op):
        if op.error:
            return []
        snaps = []
        for row in op.outputs["report"].records:
            snap = row.__dict__.pop("bench_trace", None)
            if snap is not None:
                snaps.append(snap)
        return snaps

    def validate(self, op):
        rows = op.outputs["report"].records
        if len(rows) != len(self.records) * CV_FOLDS:
            return f"{len(rows)} report rows for {len(self.records)} records x {CV_FOLDS} folds"
        for rec in self.records:
            mine = [r for r in rows if r.record_id == rec.record_id]
            if sorted(r.fold for r in mine) != list(range(CV_FOLDS)):
                return f"{rec.record_id}: folds {sorted(r.fold for r in mine)}"
            if any(min(r.tp, r.fp, r.fn) < 0 for r in mine):
                return f"{rec.record_id}: negative counts"
            if sum(r.tp + r.fn for r in mine) != rec.n_cycles:
                return f"{rec.record_id}: TP+FN over the folds is not the label count"
        return None

    def discrete(self, op):
        return op.outputs["report"].to_json_dict()["records"]

    def probe(self):
        w = windows_whole_record(self.records[0], 4)[0]
        return w.signal, self.initial, self.initial.baseline_state


WORKLOADS = {"detect": Detect, "cv": CrossValidate}
