"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (run pytest with -s to
see them).  Criterion 9 needs user-supplied data and is skipped unless
GRAPHSEG_MITBIH_DIR is set.
"""

import ast
import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from graphseg import cli
from graphseg import graph as gr
from graphseg.data import SynthConfig, generate_synthetic
from graphseg.evaluate import cross_validate, metrics
from graphseg.learning import LearnConfig, learn
from graphseg.evaluate import windows_whole_record
from graphseg.solver import Signal, solve, solve_domain
from grid_oracle import assert_matches_oracle, grid_dp, grid_refit_cost, resolution_bound
from helpers import (
    assert_valid_segmentation,
    random_graph,
    random_signal,
    random_trace,
)


def criterion(n, ok, detail):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20_240_601)
    t0 = time.perf_counter()
    ambiguous = 0
    worst_gap = 0.0
    for trial in range(200):
        y = random_signal(rng)
        g = random_graph(rng, y)
        s = Signal(y, 360.0)
        dom = solve_domain(s)
        seg = solve(s, g)
        assert_valid_segmentation(y, g, seg)
        oracle_cost, oracle_bounds, _, _, _ = grid_dp(y, g, dom)
        bound = resolution_bound(len(y), dom)
        assert seg.total_cost <= oracle_cost + 1e-6, f"trial {trial}: above oracle"
        assert seg.total_cost >= oracle_cost - bound - 1e-9, f"trial {trial}: below bound"
        worst_gap = max(worst_gap, oracle_cost - seg.total_cost)
        if seg.boundaries != oracle_bounds:
            refit = grid_refit_cost(y, g, dom, 801, seg.boundaries, seg.edges_taken)
            assert refit <= oracle_cost + 10 * bound, (
                f"trial {trial}: boundary mismatch beyond 10x uniqueness margin"
            )
            ambiguous += 1
    dt = time.perf_counter() - t0
    criterion(
        1,
        dt < 60.0,
        f"200 instances, cost within bound (worst gap {worst_gap:.2e}), "
        f"{ambiguous} margin-ambiguous boundary sets, {dt:.1f}s (< 60s)",
    )


def test_criterion_2_exact_fit():
    g = gr.initial_graph(1.0, 1.0, 1.0)
    s = Signal(np.array([0.0, 0.0, 0.0, 10.0, 10.0, 0.0, 0.0]), 360.0)
    seg = solve(s, g, start_state="B")
    ok = (
        seg.boundaries == [3, 5]
        and seg.states == [0, 1, 0]
        and abs(seg.total_cost - 2.0) <= 1e-9
    )
    criterion(2, ok, f"boundaries {seg.boundaries}, cost {seg.total_cost!r}")


def test_criterion_3_equivariance():
    rng = np.random.default_rng(77_000)
    shift_ok = scale_ok = 0
    for _ in range(100):
        y = random_signal(rng, n=int(rng.integers(20, 61)))
        g = random_graph(rng, y, n_states=int(rng.integers(2, 4)))
        base = solve(Signal(y, 360.0), g)

        k = float(rng.uniform(-20, 20))
        sh = solve(Signal(y + k, 360.0), g)
        assert sh.boundaries == base.boundaries and sh.states == base.states
        for m1, m2 in zip(base.means, sh.means):
            assert m2 - k == pytest.approx(m1, rel=1e-6, abs=1e-6)
        shift_ok += 1

        a = float(rng.uniform(0.5, 3.0))
        g2 = gr.ConstraintGraph(
            states=g.states,
            edges=tuple(
                gr.Edge(e.source, e.target, e.direction, e.gap * a, e.penalty * a * a)
                for e in g.edges
            ),
            baseline_state=g.baseline_state,
            rpeak_state=g.rpeak_state,
        )
        sc = solve(Signal(a * y, 360.0), g2)
        assert sc.boundaries == base.boundaries and sc.states == base.states
        for m1, m2 in zip(base.means, sc.means):
            assert m2 / a == pytest.approx(m1, rel=1e-6, abs=1e-6)
        scale_ok += 1
    criterion(3, shift_ok == 100 and scale_ok == 100,
              f"{shift_ok} shift + {scale_ok} scale instances")


def test_criterion_4_piecewise_algebra_fuzz():
    rng = np.random.default_rng(424_242)
    t0 = time.perf_counter()
    for i in range(1000):
        f, ops = random_trace(rng)
        assert_matches_oracle(f, ops, tol=1e-9, where=f"composition {i}: {ops}")
    dt = time.perf_counter() - t0
    criterion(4, True, f"1000 compositions within 1e-9 at 10001 points, {dt:.1f}s")


def test_criterion_4_oracle_imports_nothing_it_checks():
    # criterion 4 means something only while its oracle shares no code with what it checks
    with open(os.path.join(os.path.dirname(__file__), "grid_oracle.py")) as fh:
        tree = ast.parse(fh.read())
    names = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    names |= {n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert not {n.split(".")[0] for n in names} & {"graphseg", "reference_pwq", "helpers"}, names


def test_criterion_5_metrics():
    rng = np.random.default_rng(55)
    for _ in range(1000):
        tp = int(rng.integers(0, 20000))
        fp = int(rng.integers(0, 2000))
        fn = int(rng.integers(0, 2000))
        sen, ppr, der = metrics(tp, fp, fn)
        if tp + fn > 0:
            assert abs(sen - float(Fraction(tp, tp + fn) * 100)) <= 1e-12 * max(1, sen)
            assert abs(der - float(Fraction(fn + fp, tp + fn) * 100)) <= 1e-12 * max(1, der)
        else:
            assert sen is None and der is None
        if tp + fp > 0:
            assert abs(ppr - float(Fraction(tp, tp + fp) * 100)) <= 1e-12 * max(1, ppr)
        else:
            assert ppr is None
    sen, ppr, der = metrics(9964, 29, 36)
    ok = (
        abs(sen - 99.64) <= 1e-12
        and round(ppr, 2) == 99.71
        and abs(der - 0.65) <= 1e-12
    )
    criterion(
        5, ok,
        f"1000 triples at 1e-12; reference counts give sen={sen}, "
        f"ppr={ppr:.4f}, der={der}",
    )


def _acceptance_corpus():
    records = []
    for i in range(20):
        records.append(
            generate_synthetic(
                SynthConfig(
                    n_cycles=60,
                    heart_rate_bpm=72.0 + i,
                    r_amplitude=10.0,
                    noise_sigma=0.2,
                    baseline_wander_amp=3.0,       # 0.3 * r_amplitude
                    pre_r_dip=10.5 if i >= 15 else 0.0,
                    seed=1000 + i,
                )
            )
        )
    return records


ACCEPT_INITIAL = gr.initial_graph(6.5, 3.0, 50.0)


def test_criterion_6_end_to_end_cross_validation():
    records = _acceptance_corpus()
    t0 = time.perf_counter()
    report = cross_validate(
        records, k=5, cfg=LearnConfig(seed=20_240_607),
        initial_graph=ACCEPT_INITIAL, n_jobs=2,
    )
    dt = time.perf_counter() - t0
    sen, ppr, der = report.pooled_metrics()
    ok = sen >= 99.0 and ppr >= 99.0 and der <= 2.0 and dt < 600.0
    criterion(
        6, ok,
        f"20-record 5-fold CV: Sen={sen:.2f}%, PPR={ppr:.2f}%, DER={der:.2f}%, "
        f"{dt:.0f}s (< 600s)",
    )


def test_criterion_7_learning_behaviour():
    rec = generate_synthetic(
        SynthConfig(n_cycles=20, heart_rate_bpm=88, r_amplitude=10.0,
                    noise_sigma=0.2, baseline_wander_amp=3.0, pre_r_dip=10.5,
                    seed=1015)
    )
    windows = windows_whole_record(rec, 4)
    cfg = LearnConfig(seed=99)
    best1, trace1 = learn(ACCEPT_INITIAL, windows, cfg)
    best2, trace2 = learn(ACCEPT_INITIAL, windows, cfg)
    errors = [trace1.initial_train_error] + [s.train_error for s in trace1.steps]
    strictly_decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    ok = (
        len(trace1.steps) >= 1
        and strictly_decreasing
        and len(best1.states) > 2
        and best1 == best2
        and trace1.to_jsonl() == trace2.to_jsonl()
    )
    criterion(
        7, ok,
        f"train errors {errors}, final {len(best1.states)} states, "
        f"rerun identical: {trace1.to_jsonl() == trace2.to_jsonl()}",
    )


def test_criterion_8_log_linear_scaling():
    g = gr.initial_graph(6.5, 3.0, 50.0)
    sizes = [10_000, 100_000, 1_000_000]
    medians = []
    for n in sizes:
        times = []
        # the 10k solve takes ~10 ms, so a host stall in two of three runs
        # would move their median fivefold: that size takes nine runs
        for seed in (1, 2, 3) * (3 if n == sizes[0] else 1):
            n_cycles = int(math.ceil(n / (60.0 / 75.0 * 360.0))) + 1
            rec = generate_synthetic(
                SynthConfig(n_cycles=n_cycles, heart_rate_bpm=75.0,
                            r_amplitude=10.0, noise_sigma=0.2,
                            baseline_wander_amp=3.0, seed=seed)
            )
            s = Signal(rec.signal.samples[:n], 360.0)
            t0 = time.perf_counter()
            solve(s, g)
            times.append(time.perf_counter() - t0)
        medians.append(sorted(times)[len(times) // 2])
    xs = np.log([n * math.log(n) for n in sizes])
    ys = np.log(medians)
    slope = float(np.polyfit(xs, ys, 1)[0])
    ok = 0.8 <= slope <= 1.3
    criterion(
        8, ok,
        f"median times {['%.2fs' % t for t in medians]} for N={sizes}; "
        f"fit exponent vs N*logN = {slope:.3f} (within [0.8, 1.3])",
    )


def test_criterion_9_optional_mitbih_harness(tmp_path):
    data_dir = os.environ.get("GRAPHSEG_MITBIH_DIR")
    if not data_dir:
        pytest.skip("set GRAPHSEG_MITBIH_DIR to run the full-data harness")
    names = [str(n) for n in range(100, 110)]
    pairs = []
    for name in names:
        sp = os.path.join(data_dir, f"{name}.csv")
        ap = os.path.join(data_dir, f"{name}.ann")
        if os.path.exists(sp) and os.path.exists(ap):
            pairs.append((sp, ap))
    if not pairs:
        pytest.skip(f"no <record>.csv/<record>.ann pairs for 100-109 in {data_dir}")
    args = ["cv", "--out-dir", str(tmp_path), "--k", "5", "--seed", "1", "--jobs", "2"]
    for sp, ap in pairs:
        args += ["--signal", sp, "--annotations", ap]
    rc = cli.main(args)
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    sen = report["pooled"]["sen"]
    ppr = report["pooled"]["ppr"]
    print((tmp_path / "report.txt").read_text())
    # informational, not gated: conversion variance makes a hard gate unfair
    criterion(
        9, True,
        f"records {len(pairs)}: Sen={sen:.2f}%, PPR={ppr:.2f}% "
        f"(informational check: >= 99% expected on records 100-109)",
    )
