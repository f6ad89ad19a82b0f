"""Detection scoring: label matching, summary metrics, splits, cross-validation."""

from __future__ import annotations

import math
import numbers
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import LabeledRecord
from .solver import Signal, is_int


@dataclass
class MatchResult:
    tp: int
    fp: int
    fn: int
    matched_pairs: list


def _check_sorted(name, xs):
    for i in range(1, len(xs)):
        if xs[i] < xs[i - 1]:
            raise ValueError(f"{name} must be sorted ascending")


def _greedy_match(labels, detections, starts, stops) -> MatchResult:
    """Greedy matching where label li may take detections[starts[li]:stops[li]]."""
    cands = []
    for li, lab in enumerate(labels):
        for di in range(starts[li], stops[li]):
            cands.append((abs(detections[di] - lab), li, di))
    cands.sort()
    used_l = set()
    used_d = set()
    pairs = []
    for _dist, li, di in cands:
        if li in used_l or di in used_d:
            continue
        used_l.add(li)
        used_d.add(di)
        pairs.append((li, di))
    pairs.sort()
    tp = len(pairs)
    return MatchResult(tp=tp, fp=len(detections) - tp, fn=len(labels) - tp,
                       matched_pairs=pairs)


def _sorted_lists(labels, detections):
    labels = list(labels)
    detections = list(detections)
    _check_sorted("labels", labels)
    _check_sorted("detections", detections)
    return labels, detections


def match(labels, detections, tolerance_samples: int) -> MatchResult:
    """Greedy one-to-one matching within +-tolerance_samples.

    Candidate pairs are taken in order of increasing distance; every label
    and every detection is used at most once.  Unmatched labels count as
    false negatives, unmatched detections as false positives.  Any finite
    tolerance at or above the span of the inputs gives the result of that
    span.
    """
    if not 0 <= tolerance_samples < math.inf:
        raise ValueError(f"tolerance_samples must be finite and >= 0, got {tolerance_samples}")
    labels, detections = _sorted_lists(labels, detections)
    # the clamp keeps the search bounds inside int64
    span = (max(labels[-1], detections[-1]) - min(labels[0], detections[0])
            if labels and detections else 0)
    tol = min(int(tolerance_samples), span)
    det_arr = np.asarray(detections)
    lab_arr = np.asarray(labels)
    return _greedy_match(
        labels, detections,
        np.searchsorted(det_arr, lab_arr - tol, side="left"),
        np.searchsorted(det_arr, lab_arr + tol, side="right"),
    )


def match_within_bands(labels, detections, band_edges) -> MatchResult:
    """Band-mode matching: detection d can match label k only when d falls in
    [band_edges[k], band_edges[k+1]).  Greedy by distance, single use, like
    match()."""
    labels, detections = _sorted_lists(labels, detections)
    edges = np.asarray(list(band_edges))
    if len(edges) != len(labels) + 1:
        raise ValueError("band_edges must have one more entry than labels")
    det_arr = np.asarray(detections)
    return _greedy_match(
        labels, detections,
        np.searchsorted(det_arr, edges[:-1], side="left"),
        np.searchsorted(det_arr, edges[1:], side="left"),
    )


def metrics(tp: int, fp: int, fn: int):
    """(sensitivity %, positive predictivity %, detection error rate %).

    A zero denominator yields None for that value rather than a silent 0.
    """
    for name, v in (("tp", tp), ("fp", fp), ("fn", fn)):
        if v < 0:
            raise ValueError(f"{name} must be non-negative, got {v}")
    sen = tp / (tp + fn) * 100.0 if tp + fn > 0 else None
    ppr = tp / (tp + fp) * 100.0 if tp + fp > 0 else None
    der = (fn + fp) / (tp + fn) * 100.0 if tp + fn > 0 else None
    return sen, ppr, der


@dataclass
class RecordCounts:
    record_id: str
    tp: int
    fp: int
    fn: int
    fold: int = None
    infeasible_windows: int = 0


def _fmt_pct(x):
    return "   n/a" if x is None else f"{x:6.2f}"


@dataclass
class DetectionReport:
    """Per-record (or per-window) counts plus pooled and per-fold summaries."""

    records: list

    @property
    def tp(self):
        return sum(r.tp for r in self.records)

    @property
    def fp(self):
        return sum(r.fp for r in self.records)

    @property
    def fn(self):
        return sum(r.fn for r in self.records)

    def pooled_metrics(self):
        return metrics(self.tp, self.fp, self.fn)

    @property
    def sen(self):
        return self.pooled_metrics()[0]

    @property
    def ppr(self):
        return self.pooled_metrics()[1]

    @property
    def der(self):
        return self.pooled_metrics()[2]

    def folds(self):
        """Counts aggregated per fold, for rows that carry a fold id."""
        byf = {}
        for r in self.records:
            if r.fold is None:
                continue
            t = byf.setdefault(r.fold, [0, 0, 0])
            t[0] += r.tp
            t[1] += r.fp
            t[2] += r.fn
        return {f: tuple(v) for f, v in sorted(byf.items())}

    def fold_average(self):
        """Mean of the per-fold metric values (None entries are skipped)."""
        vals = [metrics(*c) for c in self.folds().values()]
        out = []
        for i in range(3):
            xs = [v[i] for v in vals if v[i] is not None]
            out.append(sum(xs) / len(xs) if xs else None)
        return tuple(out)

    def to_json_dict(self):
        sen, ppr, der = self.pooled_metrics()
        doc = {
            "records": [
                {
                    "record_id": r.record_id,
                    "fold": r.fold,
                    "tp": r.tp,
                    "fp": r.fp,
                    "fn": r.fn,
                    "infeasible_windows": r.infeasible_windows,
                }
                for r in self.records
            ],
            "pooled": {"tp": self.tp, "fp": self.fp, "fn": self.fn,
                       "sen": sen, "ppr": ppr, "der": der},
        }
        folds = self.folds()
        if folds:
            doc["folds"] = [
                {"fold": f, "tp": c[0], "fp": c[1], "fn": c[2],
                 "sen": metrics(*c)[0], "ppr": metrics(*c)[1], "der": metrics(*c)[2]}
                for f, c in folds.items()
            ]
            fa = self.fold_average()
            doc["fold_average"] = {"sen": fa[0], "ppr": fa[1], "der": fa[2]}
        return doc

    def to_table(self, method="graphseg"):
        """Fixed-column text table: Method, Sen, PPR, DER."""
        folds = self.folds()
        rows = [(method, self.pooled_metrics())]
        for f, c in folds.items():
            rows.append((f"{method} (fold {f})", metrics(*c)))
        if folds:
            rows.append((f"{method} (fold avg)", self.fold_average()))
        width = max(24, max(len(r[0]) for r in rows) + 2)
        lines = [f"{'Method':<{width}}{'Sen (%)':>10}{'PPR (%)':>10}{'DER (%)':>10}"]
        for label, (s, p, d) in rows:
            lines.append(
                f"{label:<{width}}{_fmt_pct(s):>10}{_fmt_pct(p):>10}{_fmt_pct(d):>10}"
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Order statistics.  These repeat numpy's own operations (the same
# partition indices, then np.mean or numpy's linear interpolation), so they
# return np.median's and np.percentile's values bit for bit, without their
# general axis and masked-array handling.  They are cheaper per call, and the
# learner calls them per window: on 2,000 samples and two quantiles
# _percentiles takes ~37 us against 93-127 us for np.percentile, and _median
# ~30 us against ~42 us for np.median (2-vCPU VM); a cv round of the
# benchmark makes 45 _median and 31 _percentiles calls.  They also leave
# numpy.ma unimported: a process's first np.median or np.percentile imports
# it, which took 9-13 ms and added 1.0 MiB of ru_maxrss (same VM), a few per
# cent of a cv run's peak RSS.
# ---------------------------------------------------------------------------


def _median(a):
    """np.median of a non-empty 1-D array-like."""
    a = np.asarray(a)
    h = a.size // 2
    kth = [h - 1, h] if a.size % 2 == 0 else [h]
    inexact = np.issubdtype(a.dtype, np.inexact)
    if inexact:
        kth.append(-1)  # a NaN sorts last
    part = np.partition(a, kth)
    if inexact and np.isnan(part[-1]):
        return part[-1]
    return part[kth[0]:h + 1].mean()


def _percentiles(a, qs):
    """np.percentile(a, qs) of a non-empty 1-D array-like, as a list."""
    a = np.asarray(a)
    n = a.size
    points = []
    for q in qs:
        virtual = (n - 1) * (q / 100)
        lo = -1 if virtual >= n - 1 else math.floor(virtual)  # -1: the largest
        points.append((virtual, lo, lo if lo == -1 else lo + 1))
    part = np.partition(a, sorted({0, -1, *(i for _, lo, hi in points for i in (lo, hi))}))
    if np.issubdtype(a.dtype, np.inexact) and np.isnan(part[-1]):
        return [part[-1]] * len(points)
    out = []
    for virtual, lo, hi in points:
        t = virtual - lo
        below, above = part[lo], part[hi]
        diff = above - below
        out.append(above - diff * (1 - t) if t >= 0.5 else below + diff * t)
    return out


# ---------------------------------------------------------------------------
# Cycle bookkeeping: a cycle runs midpoint-to-midpoint between consecutive
# annotations; the first and last half-cycles attach to their neighbours.
# ---------------------------------------------------------------------------


def cycle_bounds(record: LabeledRecord) -> np.ndarray:
    ann = record.rpeak_annotations
    if len(ann) == 0:
        raise ValueError(f"record {record.record_id} has no annotations")
    n = len(record.signal)
    mids = (ann[:-1] + ann[1:]) // 2
    return np.concatenate(([0], mids, [n])).astype(np.int64)


def _windows(record: LabeledRecord, groups) -> list:
    """One window per (first, last) cycle group: the cycles padded by half the
    median cycle length on each side for solver context, with labels and
    scoring span on the unpadded core [core_lo, core_hi) only.  Bounds and
    padding are computed once and labels found by binary search; a window's
    samples are a view of the record's.  Time and memory are linear."""
    if not groups:
        return []
    bounds = cycle_bounds(record)
    pad = int(_median(np.diff(bounds)) // 2)
    ann, sig = record.rpeak_annotations, record.signal
    windows = []
    for g0, g1 in groups:
        core_lo, core_hi = int(bounds[g0]), int(bounds[g1 + 1])
        win_lo, win_hi = max(0, core_lo - pad), min(len(sig), core_hi + pad)
        windows.append(LabeledRecord(
            record_id=f"{record.record_id}[c{g0}-{g1}]",
            signal=Signal(sig.samples[win_lo:win_hi], sig.sample_rate),
            rpeak_annotations=ann[ann.searchsorted(core_lo):ann.searchsorted(core_hi)] - win_lo,
            eval_span=(core_lo - win_lo, core_hi - win_lo),
        ))
    return windows


def windows_from_cycles(record: LabeledRecord, cycle_ids) -> list:
    """One window (see _windows) per run of consecutive ids among cycle_ids,
    ints or numpy integers in [0, record.n_cycles), in any order, repeats too."""
    ids = set()
    for i in cycle_ids:
        if not is_int(i):
            raise ValueError(f"cycle id {i!r} of record {record.record_id} is not an int")
        ids.add(int(i))
    ids, m = sorted(ids), record.n_cycles
    for i in ids[:1] + ids[-1:]:
        if not 0 <= i < m:
            raise ValueError(f"cycle id {i} outside [0, {m}) of record {record.record_id}")
    groups = []
    for i in ids:
        if groups and i == groups[-1][1] + 1:
            groups[-1][1] = i
        else:
            groups.append([i, i])
    return _windows(record, groups)


def windows_whole_record(record: LabeledRecord, cycles_per_window=4) -> list:
    """Chop a record into consecutive fixed-size cycle groups (see _windows)."""
    if not (is_int(cycles_per_window) and cycles_per_window >= 1):
        raise ValueError(f"cycles_per_window must be an int >= 1, got {cycles_per_window!r}")
    m, step = record.n_cycles, int(cycles_per_window)
    return _windows(record, [(s, min(s + step, m) - 1) for s in range(0, m, step)])


def split_cycles(record: LabeledRecord, seed: int, test_fraction=0.25):
    """Random per-cycle train/test split at roughly 3:1, deterministic under
    the seed.  test_fraction lies in (0, 1); at least one cycle goes to each
    side.  Returns (train_windows, test_windows)."""
    if not (isinstance(test_fraction, numbers.Real) and 0 < test_fraction < 1):
        raise ValueError(f"test_fraction must be a number in (0, 1), got {test_fraction!r}")
    m = record.n_cycles
    if m < 4:
        raise ValueError(f"record {record.record_id} has {m} cycles, needs >= 4")
    rng = np.random.default_rng(seed)
    n_test = min(max(1, int(round(m * test_fraction))), m - 1)
    test_ids = set(rng.choice(m, size=n_test, replace=False).tolist())
    train_ids = [i for i in range(m) if i not in test_ids]
    return (
        windows_from_cycles(record, train_ids),
        windows_from_cycles(record, sorted(test_ids)),
    )


def make_fold_plan(records, k: int, seed: int) -> dict:
    """{record_id: fold id per cycle (int64)}; a record's fold sizes differ
    by <= 1."""
    if not (is_int(k) and k >= 2):
        raise ValueError(f"k must be an int >= 2, got {k!r}")
    plan = {}
    rng = np.random.default_rng(seed)
    for rec in records:
        if rec.record_id in plan:
            raise ValueError(f"record id {rec.record_id!r} appears more than once")
        m = rec.n_cycles
        if m < k:
            raise ValueError(f"record {rec.record_id} has {m} cycles, needs >= k={k}")
        folds = np.empty(m, dtype=np.int64)
        folds[rng.permutation(m)] = np.arange(m) % k
        plan[rec.record_id] = folds
    return plan


def _task_seed(base_seed, record_id, fold):
    return int(
        np.random.SeedSequence(
            [int(base_seed), zlib.crc32(record_id.encode()), int(fold)]
        ).generate_state(1)[0]
    )


def _run_cv_task(args):
    record, fold, folds, cfg, init = args
    from .learning import default_initial_graph, evaluate_graph, learn

    train_windows = windows_from_cycles(record, np.flatnonzero(folds != fold))
    test_windows = windows_from_cycles(record, np.flatnonzero(folds == fold))
    g0 = init if init is not None else default_initial_graph(train_windows)
    task_cfg = replace(cfg, seed=_task_seed(cfg.seed, record.record_id, fold))
    learned, _trace = learn(g0, train_windows, task_cfg)
    _err, rep = evaluate_graph(learned, test_windows, cfg)
    return RecordCounts(
        record_id=record.record_id,
        tp=rep.tp,
        fp=rep.fp,
        fn=rep.fn,
        fold=fold,
        infeasible_windows=sum(r.infeasible_windows for r in rep.records),
    )


def cross_validate(records, k=5, cfg=None, initial_graph=None, n_jobs=None) -> DetectionReport:
    """k-fold cross-validation: per record and fold, learn a graph on the
    other folds' cycles and score the held-out cycles.  The report carries
    per-(record, fold) counts, pooled metrics, and per-fold aggregates.

    The tasks run on n_jobs threads of this process (default: one per task,
    at most one per CPU); the compiled solve releases the GIL.  Each task
    draws from its own seed and the rows are sorted, so the report does not
    depend on n_jobs."""
    from .learning import LearnConfig

    if n_jobs is not None and not (is_int(n_jobs) and n_jobs >= 1):
        raise ValueError(f"n_jobs must be an int >= 1, got {n_jobs!r}")
    if cfg is None:
        cfg = LearnConfig()
    records = list(records)
    plan = make_fold_plan(records, k, cfg.seed)
    tasks = [(rec, fold, plan[rec.record_id], cfg, initial_graph)
             for rec in records for fold in range(k)]
    if n_jobs is None:
        n_jobs = max(1, min(len(tasks), os.cpu_count() or 1))
    with ThreadPoolExecutor(max_workers=n_jobs) as pool:
        rows = list(pool.map(_run_cv_task, tasks))
    rows.sort(key=lambda r: (r.record_id, r.fold))
    return DetectionReport(records=rows)
