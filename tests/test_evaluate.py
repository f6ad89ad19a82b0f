"""Matching, metrics, splits, and cross-validation plumbing."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import graphseg
from graphseg import evaluate
from graphseg import graph as gr
from graphseg.data import LabeledRecord, SynthConfig, generate_synthetic
from graphseg.evaluate import (
    DetectionReport,
    RecordCounts,
    _median,
    _percentiles,
    _task_seed,
    cross_validate,
    cycle_bounds,
    make_fold_plan,
    match,
    match_within_bands,
    metrics,
    split_cycles,
    windows_from_cycles,
    windows_whole_record,
)
from graphseg.learning import LearnConfig, evaluate_graph
from graphseg.solver import Signal


# ---------------------------------------------------------------------------
# match
# ---------------------------------------------------------------------------


def test_match_one_in_one_out():
    mr = match([100, 460], [105, 800], 36)
    assert (mr.tp, mr.fp, mr.fn) == (1, 1, 1)
    assert mr.matched_pairs == [(0, 0)]


def test_match_identical_lists():
    mr = match([5, 50, 500], [5, 50, 500], 10)
    assert (mr.tp, mr.fp, mr.fn) == (3, 0, 0)


def test_match_single_use():
    mr = match([100], [95, 104], 36)
    assert (mr.tp, mr.fp, mr.fn) == (1, 1, 0)
    assert mr.matched_pairs == [(0, 1)]  # 104 is closer than 95


def test_match_unsorted_raises():
    with pytest.raises(ValueError):
        match([5, 3], [1], 10)
    with pytest.raises(ValueError):
        match([1], [5, 3], 10)


@pytest.mark.parametrize("tolerance", [-1, float("inf"), float("nan")])
def test_match_rejects_a_bad_tolerance(tolerance):
    with pytest.raises(ValueError, match="tolerance_samples must be finite and >= 0"):
        match([5], [5], tolerance)


@pytest.mark.parametrize("tolerance", [1e19, 1e308, pytest.param(10**400, id="10**400"),
                                       pytest.param(2**63, id="2**63")])
@pytest.mark.parametrize("labels, dets", [([1, 5], [2, 9]), ([1, 5], []), ([], [2]),
                                          ([0, 700], [350])])
def test_match_tolerance_beyond_the_span_is_the_span(tolerance, labels, dets):
    # a tolerance past int64 once overflowed the search bounds
    span = max(labels + dets) - min(labels + dets) if labels and dets else 0
    assert match(labels, dets, tolerance) == match(labels, dets, span)


def test_match_symmetry_swaps_fp_fn():
    rng = np.random.default_rng(12)
    for _ in range(25):
        labels = np.unique(rng.integers(0, 2000, rng.integers(1, 20))).tolist()
        dets = np.unique(rng.integers(0, 2000, rng.integers(1, 20))).tolist()
        a = match(labels, dets, 30)
        b = match(dets, labels, 30)
        assert a.tp == b.tp
        assert (a.fp, a.fn) == (b.fn, b.fp)


def test_match_within_bands():
    # detection inside the wrong cycle's band does not match
    mr = match_within_bands([100, 300], [90, 260], [0, 200, 400])
    assert (mr.tp, mr.fp, mr.fn) == (2, 0, 0)
    mr2 = match_within_bands([100, 300], [210, 290], [0, 200, 400])
    assert (mr2.tp, mr2.fp, mr2.fn) == (1, 1, 1)
    with pytest.raises(ValueError):
        match_within_bands([100], [90], [0, 200, 400])


def brute_force_bands(labels, detections, band_edges):
    """Test oracle: every (label, detection) pair checked against its band."""
    cands = sorted(
        (abs(d - lab), li, di)
        for li, lab in enumerate(labels)
        for di, d in enumerate(detections)
        if band_edges[li] <= d < band_edges[li + 1]
    )
    used_l, used_d, pairs = set(), set(), []
    for _dist, li, di in cands:
        if li not in used_l and di not in used_d:
            used_l.add(li)
            used_d.add(di)
            pairs.append((li, di))
    return sorted(pairs)


def test_match_within_bands_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(200):
        labels = np.unique(rng.integers(0, 2000, rng.integers(0, 15))).tolist()
        dets = np.sort(rng.integers(0, 2000, rng.integers(0, 25))).tolist()
        # bands around the labels, sometimes overlapping or reversed
        edges = sorted(rng.integers(0, 2000, len(labels) + 1).tolist())
        if rng.random() < 0.3:
            edges = rng.integers(-50, 2050, len(labels) + 1).tolist()
        mr = match_within_bands(labels, dets, edges)
        pairs = brute_force_bands(labels, dets, edges)
        assert mr.matched_pairs == pairs
        assert (mr.tp, mr.fp, mr.fn) == (len(pairs), len(dets) - len(pairs),
                                         len(labels) - len(pairs))


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------

# ties, signed zeros, infinities and NaNs, besides any double
ORDER_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), st.floats(width=64))
ORDER_INTS = st.one_of(st.integers(-3, 3), st.integers(-2 ** 40, 2 ** 40))
PERCENT = st.one_of(st.integers(0, 100), st.floats(0.0, 100.0))


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=500, deadline=None)
@given(st.one_of(hnp.arrays(np.float64, st.integers(1, 41), elements=ORDER_FLOATS),
                 hnp.arrays(np.int64, st.integers(1, 41), elements=ORDER_INTS)),
       st.one_of(st.sampled_from([(1, 99), (5, 95)]),
                 st.lists(PERCENT, min_size=1, max_size=3)))
def test_order_statistics_equal_numpy_bit_for_bit(a, qs):
    with np.errstate(all="ignore"):  # inf - inf when interpolating
        assert bits(_median(a)) == bits(np.median(a))
        assert bits(_median(a.tolist())) == bits(np.median(a))
        assert bits(_percentiles(a, qs)) == bits(np.percentile(a, list(qs)))


IMPORT_PROBE = """
import sys
from graphseg import evaluate, learning
from graphseg.data import SynthConfig, generate_synthetic

rec = generate_synthetic(SynthConfig(n_cycles=10, pre_r_dip=10.5, seed=3))
plan = evaluate.make_fold_plan([rec], k=5, seed=0)
task = (rec, 0, plan[rec.record_id], learning.LearnConfig(max_iterations=2), None)
before = set(sys.modules)
evaluate._run_cv_task(task)
print(sorted(set(sys.modules) - before))
"""


def test_cv_task_imports_no_module():
    # a lazy import in a cv task costs the process once, in time and peak
    # RSS: a process's first np.median or np.percentile imports numpy.ma,
    # 9-13 ms and 1.0 MiB of ru_maxrss (2-vCPU VM), which _median and
    # _percentiles avoid (see evaluate.py)
    src = os.path.dirname(os.path.dirname(graphseg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metrics_reference_case():
    sen, ppr, der = metrics(9964, 29, 36)
    assert sen == pytest.approx(99.64, abs=1e-12)
    assert ppr == pytest.approx(9964 / 9993 * 100.0, abs=1e-12)
    assert round(ppr, 2) == 99.71
    assert der == pytest.approx(0.65, abs=1e-12)


def test_metrics_perfect():
    assert metrics(10, 0, 0) == (100.0, 100.0, 0.0)


def test_metrics_total_failure():
    # der is (fn+fp)/(tp+fn), so a detector that misses everything while
    # producing as many false alarms scores 200, not 100
    sen, ppr, der = metrics(0, 5, 5)
    assert (sen, ppr, der) == (0.0, 0.0, 200.0)


def test_metrics_undefined_are_none():
    sen, ppr, der = metrics(0, 5, 0)
    assert sen is None and der is None
    assert ppr == 0.0
    sen, ppr, der = metrics(0, 0, 5)
    assert ppr is None
    assert sen == 0.0


def test_metrics_rejects_negative():
    with pytest.raises(ValueError):
        metrics(-1, 0, 0)


def test_metrics_identity_with_sen():
    rng = np.random.default_rng(8)
    for _ in range(200):
        tp = int(rng.integers(1, 10000))
        fp = int(rng.integers(0, 500))
        fn = int(rng.integers(0, 500))
        sen, ppr, der = metrics(tp, fp, fn)
        assert der == pytest.approx((100.0 - sen) + fp * 100.0 / (tp + fn), abs=1e-9)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def make_report():
    return DetectionReport(records=[
        RecordCounts("a", tp=8, fp=1, fn=0, fold=0),
        RecordCounts("b", tp=9, fp=0, fn=1, fold=0),
        RecordCounts("a", tp=7, fp=0, fn=2, fold=1),
    ])


def test_report_pooling_and_folds():
    rep = make_report()
    assert (rep.tp, rep.fp, rep.fn) == (24, 1, 3)
    folds = rep.folds()
    assert folds[0] == (17, 1, 1)
    assert folds[1] == (7, 0, 2)
    doc = rep.to_json_dict()
    assert doc["pooled"]["tp"] == 24
    assert len(doc["folds"]) == 2
    assert doc["fold_average"]["sen"] is not None


def test_report_metrics_recomputable_from_counts():
    rep = make_report()
    sen, ppr, der = rep.pooled_metrics()
    assert sen == pytest.approx(rep.tp / (rep.tp + rep.fn) * 100, abs=1e-12)
    assert ppr == pytest.approx(rep.tp / (rep.tp + rep.fp) * 100, abs=1e-12)
    assert der == pytest.approx((rep.fn + rep.fp) / (rep.tp + rep.fn) * 100, abs=1e-12)


def test_report_table_format():
    table = make_report().to_table(method="this work")
    lines = table.strip().split("\n")
    assert lines[0].split() == ["Method", "Sen", "(%)", "PPR", "(%)", "DER", "(%)"]
    assert lines[1].startswith("this work")
    assert any("fold avg" in ln for ln in lines)


# ---------------------------------------------------------------------------
# cycles, windows, splits
# ---------------------------------------------------------------------------


def record_with_cycles(n, seed=0):
    return generate_synthetic(SynthConfig(n_cycles=n, heart_rate_bpm=75,
                                          noise_sigma=0.1, seed=seed))


def test_cycle_bounds_partition_signal():
    rec = record_with_cycles(6)
    b = cycle_bounds(rec)
    assert b[0] == 0 and b[-1] == len(rec.signal)
    assert np.all(np.diff(b) > 0)
    assert len(b) == rec.n_cycles + 1


def test_split_cycles_8_gives_6_2():
    rec = record_with_cycles(8)
    train, test = split_cycles(rec, seed=4)
    n_train = sum(w.n_cycles for w in train)
    n_test = sum(w.n_cycles for w in test)
    assert (n_train, n_test) == (6, 2)


def test_split_cycles_smallest_case():
    rec = record_with_cycles(4)
    train, test = split_cycles(rec, seed=1)
    assert sum(w.n_cycles for w in train) == 3
    assert sum(w.n_cycles for w in test) == 1
    with pytest.raises(ValueError):
        split_cycles(record_with_cycles(3), seed=1)


@pytest.mark.parametrize("fraction", [1.5, float("nan"), -0.5, 1.0, 0, True, "0.5", None])
def test_split_cycles_refuses_test_fraction_outside_0_1(fraction):
    with pytest.raises(ValueError, match=r"test_fraction must be a number in \(0, 1\), got "):
        split_cycles(record_with_cycles(8), seed=1, test_fraction=fraction)


def test_split_cycles_keeps_one_training_cycle():
    # round(8 * 0.99) = 8 test cycles would leave none to learn on
    train, test = split_cycles(record_with_cycles(8), seed=1, test_fraction=0.99)
    assert sum(w.n_cycles for w in train) == 1
    assert sum(w.n_cycles for w in test) == 7
    train, test = split_cycles(record_with_cycles(8), seed=1, test_fraction=np.float64(0.5))
    assert (sum(w.n_cycles for w in train), sum(w.n_cycles for w in test)) == (4, 4)


def test_split_cycles_deterministic():
    rec = record_with_cycles(12)
    a1, b1 = split_cycles(rec, seed=9)
    a2, b2 = split_cycles(rec, seed=9)
    assert [w.record_id for w in a1] == [w.record_id for w in a2]
    assert [w.rpeak_annotations.tolist() for w in b1] == [
        w.rpeak_annotations.tolist() for w in b2
    ]


def test_windows_cover_labels_once():
    rec = record_with_cycles(10)
    windows = windows_from_cycles(rec, range(10))
    assert sum(w.n_cycles for w in windows) == 10
    for w in windows:
        lo, hi = w.eval_span
        assert 0 <= lo < hi <= len(w.signal)
        assert np.all((w.rpeak_annotations >= lo) & (w.rpeak_annotations < hi))


def test_windows_group_contiguous_cycles():
    rec = record_with_cycles(10)
    windows = windows_from_cycles(rec, [0, 1, 2, 5, 6, 9])
    assert len(windows) == 3
    assert [w.n_cycles for w in windows] == [3, 2, 1]


@pytest.mark.parametrize("cycle_id", [-2, -1, 8])
def test_windows_refuse_cycle_ids_out_of_range(cycle_id):
    # numpy indexing would wrap -2 to another cycle's window
    rec = record_with_cycles(8)
    with pytest.raises(ValueError, match=rf"cycle id {cycle_id} outside \[0, 8\)"):
        windows_from_cycles(rec, [0, cycle_id])


@pytest.mark.parametrize("cycle_id", [1.7, True, 2.0, "3", None])
def test_windows_refuse_cycle_ids_that_are_not_ints(cycle_id):
    # int() would truncate 1.7 and take True as cycle 1
    rec = record_with_cycles(8)
    with pytest.raises(ValueError, match=rf"cycle id {cycle_id!r} of record synth-0 is not an int"):
        windows_from_cycles(rec, [0, cycle_id, 1.5])


def test_windows_take_numpy_int_cycle_ids():
    rec = record_with_cycles(8)
    ws = windows_from_cycles(rec, [np.int64(3), np.int32(2), 3, np.uint8(5)])
    assert [w.record_id for w in ws] == ["synth-0[c2-3]", "synth-0[c5-5]"]


def _window_facts(w):
    return (w.record_id, w.eval_span, w.rpeak_annotations.tolist(), w.signal.samples.tolist())


def test_golden_windows_of_an_edge_case_record():
    # cycle bounds [0, 4, 9, 17, 29, 40], padding 4; annotation 9 opens the
    # core of cycle 2, so it is no label of cycle 1 although it ends cycle 1's
    # annotation slice
    rec = LabeledRecord("g", Signal(np.arange(40.0), 360.0), [0, 9, 10, 25, 33])
    assert cycle_bounds(rec).tolist() == [0, 4, 9, 17, 29, 40]
    c0 = ("g[c0-0]", (0, 4), [0], list(range(0, 8)))
    assert [_window_facts(w) for w in windows_whole_record(rec, 1)] == [
        c0,
        ("g[c1-1]", (4, 9), [], list(range(0, 13))),
        ("g[c2-2]", (4, 12), [4, 5], list(range(5, 21))),
        ("g[c3-3]", (4, 16), [12], list(range(13, 33))),
        ("g[c4-4]", (4, 15), [8], list(range(25, 40))),
    ]
    assert [_window_facts(w) for w in windows_from_cycles(rec, [0, 2, 3])] == [
        c0,
        ("g[c2-3]", (4, 24), [4, 5, 20], list(range(5, 33))),
    ]


def test_windows_are_views_of_the_record():
    rec = record_with_cycles(10)
    windows = (windows_whole_record(rec, 3) + windows_from_cycles(rec, [0, 1, 4, 9])
               + windows_from_cycles(rec, range(10)))
    for w in windows:
        assert np.shares_memory(w.signal.samples, rec.signal.samples)


def test_windowing_computes_cycle_bounds_once(monkeypatch):
    calls = []

    def counting(record):
        calls.append(record.record_id)
        return cycle_bounds(record)

    monkeypatch.setattr(evaluate, "cycle_bounds", counting)
    rec = record_with_cycles(40)
    assert len(windows_whole_record(rec, 4)) == 10
    assert calls == ["synth-0"]
    assert len(windows_from_cycles(rec, [0, 1, 5, 7, 8, 20])) == 4
    assert calls == ["synth-0"] * 2


def test_windows_whole_record_chunks():
    rec = record_with_cycles(10)
    ws = windows_whole_record(rec, cycles_per_window=4)
    assert [w.n_cycles for w in ws] == [4, 4, 2]
    assert [w.n_cycles for w in windows_whole_record(rec, np.int64(4))] == [4, 4, 2]


# ---------------------------------------------------------------------------
# folds and cross-validation
# ---------------------------------------------------------------------------


def test_fold_plan_partitions_cycles():
    recs = [record_with_cycles(10, seed=1), record_with_cycles(13, seed=2)]
    plan = make_fold_plan(recs, k=5, seed=3)
    for rec in recs:
        a = plan[rec.record_id]
        assert len(a) == rec.n_cycles
        sizes = [int(np.sum(a == f)) for f in range(5)]
        assert max(sizes) - min(sizes) <= 1
        union = sorted(i for f in range(5) for i in np.flatnonzero(a == f))
        assert union == list(range(rec.n_cycles))


def test_fold_plan_ten_cycles_k5():
    recs = [record_with_cycles(10)]
    plan = make_fold_plan(recs, k=5, seed=0)
    sizes = [len(np.flatnonzero(plan[recs[0].record_id] == f)) for f in range(5)]
    assert sizes == [2, 2, 2, 2, 2]


def test_fold_plan_validation():
    with pytest.raises(ValueError):
        make_fold_plan([record_with_cycles(10)], k=1, seed=0)
    with pytest.raises(ValueError):
        make_fold_plan([record_with_cycles(4)], k=5, seed=0)
    with pytest.raises(ValueError, match="k must be an int >= 2, got 2.5"):
        make_fold_plan([record_with_cycles(10)], k=2.5, seed=0)


def test_fold_plan_rejects_repeated_record_id():
    a = record_with_cycles(10, seed=1)
    b = dataclasses.replace(record_with_cycles(10, seed=2), record_id=a.record_id)
    with pytest.raises(ValueError, match="more than once"):
        make_fold_plan([a, b], k=5, seed=0)


def test_task_seed_keeps_every_bit_of_the_base_seed():
    assert _task_seed(5, "a", 0) == 3427626192  # seeds below 2**31 keep their value
    for s in (0, 5, 2**31 - 1):
        assert _task_seed(s, "a", 0) != _task_seed(s + 2**31, "a", 0)


def test_cross_validate_frozen_graph_matches_direct_evaluation():
    # with learning disabled, pooled CV counts equal a direct evaluation of
    # the same per-fold windows
    rec = record_with_cycles(10, seed=5)
    g = gr.initial_graph(4.0, 2.0, 40.0)
    cfg = LearnConfig(max_iterations=0, seed=11)
    rep = cross_validate([rec], k=5, cfg=cfg, initial_graph=g, n_jobs=1)
    plan = make_fold_plan([rec], k=5, seed=cfg.seed)
    all_windows = []
    for f in range(5):
        all_windows.extend(windows_from_cycles(rec, np.flatnonzero(plan[rec.record_id] == f)))
    _err, direct = evaluate_graph(g, all_windows, cfg)
    assert (rep.tp, rep.fp, rep.fn) == (direct.tp, direct.fp, direct.fn)
    assert len(rep.folds()) == 5


def test_cross_validate_perfect_corpus():
    recs = [record_with_cycles(10, seed=s) for s in (1, 2)]
    g = gr.initial_graph(4.0, 2.0, 40.0)
    cfg = LearnConfig(max_iterations=0, seed=7)
    rep = cross_validate(recs, k=5, cfg=cfg, initial_graph=g, n_jobs=2)
    assert rep.sen == 100.0
    assert rep.ppr == 100.0
    assert rep.der == 0.0


def test_cross_validate_parallel_equals_serial():
    rec = record_with_cycles(10, seed=6)
    g = gr.initial_graph(4.0, 2.0, 40.0)
    cfg = LearnConfig(max_iterations=1, seed=13)
    r1 = cross_validate([rec], k=5, cfg=cfg, initial_graph=g, n_jobs=1)
    r2 = cross_validate([rec], k=5, cfg=cfg, initial_graph=g, n_jobs=2)
    assert r1.to_json_dict() == r2.to_json_dict()


@pytest.mark.parametrize("n_jobs", [0, -3, 1.5, "2", True])
def test_cross_validate_rejects_bad_n_jobs(n_jobs):
    rec = record_with_cycles(10, seed=6)
    with pytest.raises(ValueError, match="n_jobs"):
        cross_validate([rec], k=5, cfg=LearnConfig(max_iterations=0), n_jobs=n_jobs)


def test_cross_validate_of_no_records_is_an_empty_report():
    assert cross_validate([], k=5).records == []
    assert cross_validate([], k=5, n_jobs=np.int64(2)).records == []


@pytest.mark.parametrize("cycles", [0, -1, 2.0, True, None])
def test_windows_whole_record_refuses_cycles_below_one(cycles):
    with pytest.raises(ValueError, match="cycles_per_window must be an int >= 1"):
        windows_whole_record(record_with_cycles(10), cycles_per_window=cycles)
