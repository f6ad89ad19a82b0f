"""graphseg benchmark: closed-loop workloads, untraced end-to-end metrics and
a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload detect --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45   # every workload

One run sets its inputs up at least three times and for at least a second
(``setup_s`` is the median), then
repeats rounds of operations until ``--seconds`` have passed.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics of
the traced rounds, per round.  Every operation's outputs are checked; the
last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``, and the line before it is
the full record (environment, output digests, quality, errors), which is
also written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE_DIR = os.path.join(HERE, "reference")
WORKLOAD_NAMES = ("detect", "cv")
DEFAULT_SEED = 1
# set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0

END_TO_END = {
    "samples_per_s": "samples/s",
    "op_s_p50": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "sen_pct": "%",
    "ppr_pct": "%",
}


def _per_layer_units():
    from tracer import KERNELS

    units = {}
    for k in KERNELS:
        units[f"pwq.{k}.calls"] = "count"
        units[f"pwq.{k}.self_s"] = "s"
        units[f"pwq.{k}.pieces_in_per_call"] = "count"
        units[f"pwq.{k}.pieces_out_per_call"] = "count"
    units.update({
        "solver.solve.calls": "count",
        "solver.solve.self_s": "s",
        "solver.us_per_sample": "us",
        "solver.pieces_per_state_mean": "count",
        "solver.pieces_per_state_max": "count",
        "solver.tracemalloc_bytes_per_sample": "B",
        "solver.extract_rpeaks.self_s": "s",
        "learning.iterations": "count",
        "learning.candidates": "count",
        "learning.evaluate_graph.calls": "count",
        "learning.solves": "count",
        "learning.solve_samples": "count",
        "learning.solve_repeat_frac": "ratio",
        "learning.self_s": "s",
        "evaluate.match.calls": "count",
        "evaluate.match.self_s": "s",
        "evaluate.cv.tasks": "count",
        "evaluate.cv.task_s_p50": "s",
        "evaluate.cv.task_s_max": "s",
        "evaluate.cv.pool_efficiency": "ratio",
        "graph.validate.calls": "count",
        "graph.validate.self_s": "s",
        "data.load_signal_csv.self_s": "s",
        "cli.detect.self_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def git_sha(root):
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy

    return {
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mib():
    """Largest resident set so far of this process or any child it waited
    for (pool workers)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def load_reference(workload, seed, tiny):
    if seed != DEFAULT_SEED or tiny:
        return None
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_op(wl, i, clock):
    """One operation; one that raises is a failed operation, not a crash."""
    from workloads import OpResult

    t0 = clock()
    try:
        return wl.run_op(i, clock)
    except Exception as exc:  # noqa: BLE001 - reported as a failed operation
        traceback.print_exc()
        return OpResult(wl.ops()[i], clock() - t0, error=f"raised {exc!r}")


def run_rounds(wl, seconds, reference, tracer):
    """Repeat rounds until `seconds` have passed.  With a tracer, rounds
    alternate untraced and traced, starting untraced, and the loop runs
    at least one of each."""
    clock = time.perf_counter
    rounds = []
    t_start = clock()
    traced = False
    while True:
        if traced:
            tracer.install()
            tracer.clear()
        ops = [run_op(wl, i, clock) for i in range(len(wl.ops()))]
        snap = None
        if traced:
            tracer.uninstall()
            for op in ops:
                for child in wl.child_traces(op):
                    tracer.merge(child)
            snap = tracer.snapshot()
        for op in ops:
            wl.check(op, reference)
        rounds.append({"traced": traced, "ops": ops, "snap": snap,
                       "op_s": sum(op.seconds for op in ops)})
        if len(rounds) == 1:
            # The high-water mark rises again on the second round (about
            # 64 -> 72 MiB on detect) and then levels off; the first round
            # is what one program run costs, whatever the number of rounds.
            rounds[0]["peak_rss_mib"] = peak_rss_mib()
        if clock() - t_start >= seconds and (tracer is None or traced):
            break
        traced = tracer is not None and not traced
    return rounds


def end_to_end(wl, rounds, setup_s):
    ops = [op for r in rounds for op in r["ops"]]
    first = [op for op in rounds[0]["ops"] if not op.error]
    tp = fp = fn = 0
    for op in first:
        a, b, c = wl.quality(op)
        tp, fp, fn = tp + a, fp + b, fn + c
    return {
        # the median round, so that a slow spell of the host over part of
        # the run does not move it
        "samples_per_s": wl.samples_per_round / statistics.median(r["op_s"] for r in rounds),
        "op_s_p50": statistics.median(op.seconds for op in ops),
        "peak_rss_mib": rounds[0]["peak_rss_mib"],
        "setup_s": statistics.median(setup_s),
        "sen_pct": 100.0 * tp / (tp + fn) if tp + fn else 0.0,
        "ppr_pct": 100.0 * tp / (tp + fp) if tp + fp else 0.0,
    }, (tp, fp, fn)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(snap, op_s, workers):
    """Per-layer metrics of one traced round."""
    from tracer import CALLS, KERNELS, PIECES_IN, PIECES_OUT, SELF_S, TOTAL_S

    st = snap["stats"]
    c = snap["counters"]

    def get(name, slot):
        return st[name][slot] if name in st else 0

    m = {}
    for k in KERNELS:
        name = f"pwq.{k}"
        calls = get(name, CALLS)
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = get(name, SELF_S)
        m[f"{name}.pieces_in_per_call"] = _ratio(get(name, PIECES_IN), calls)
        m[f"{name}.pieces_out_per_call"] = _ratio(get(name, PIECES_OUT), calls)
    tasks = snap["cv_tasks"]
    m.update({
        "solver.solve.calls": get("solver.solve", CALLS),
        "solver.solve.self_s": get("solver.solve", SELF_S),
        "solver.us_per_sample": 1e6 * _ratio(get("solver.solve", TOTAL_S), c["solve_samples"]),
        "solver.pieces_per_state_mean": _ratio(c["solve_pieces"], c["solve_state_steps"]),
        "solver.pieces_per_state_max": c["solve_pieces_max"],
        "solver.extract_rpeaks.self_s": get("solver.extract_rpeaks", SELF_S),
        "learning.iterations": get("learning.enumerate_candidates", CALLS),
        "learning.candidates": c["candidates"],
        "learning.evaluate_graph.calls": get("learning.evaluate_graph", CALLS),
        "learning.solves": c["learning_solves"],
        "learning.solve_samples": c["learning_solve_samples"],
        "learning.solve_repeat_frac": _ratio(c["learn_repeats"], c["learn_solves"]),
        "learning.self_s": sum(get(n, SELF_S) for n in (
            "learning.learn", "learning.evaluate_graph", "learning.enumerate_candidates")),
        "evaluate.match.calls": get("evaluate.match", CALLS),
        "evaluate.match.self_s": get("evaluate.match", SELF_S),
        "evaluate.cv.tasks": len(tasks),
        "evaluate.cv.task_s_p50": statistics.median(tasks) if tasks else 0.0,
        "evaluate.cv.task_s_max": max(tasks) if tasks else 0.0,
        "evaluate.cv.pool_efficiency": _ratio(sum(tasks), workers * op_s) if tasks else 0.0,
        "graph.validate.calls": get("graph.validate", CALLS),
        "graph.validate.self_s": get("graph.validate", SELF_S),
        "data.load_signal_csv.self_s": get("data.load_signal_csv", SELF_S),
        "cli.detect.self_s": get("cli.detect", SELF_S),
    })
    return m


def decision_bytes_per_sample(wl):
    """Peak traced allocation of one untraced solve, per sample."""
    from graphseg.solver import solve

    signal, g, start = wl.probe()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solve(signal, g, start_state=start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / len(signal)


def per_layer(wl, rounds):
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    per_round = [layer_metrics(r["snap"], r["op_s"], wl.workers) for r in traced]
    m = {k: statistics.median(pr[k] for pr in per_round) for k in per_round[0]}
    m["solver.tracemalloc_bytes_per_sample"] = decision_bytes_per_sample(wl)
    m["trace.overhead_frac"] = (statistics.median(r["op_s"] for r in traced)
                                / statistics.median(r["op_s"] for r in untraced) - 1.0)
    return m


def run_workload(args):
    from tracer import Tracer
    from workloads import WORKLOADS

    env = environment()
    wl = WORKLOADS[args.workload](seed=args.seed, tiny=args.tiny)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_s = []
        while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
            t0 = time.perf_counter()
            wl.setup(workdir)
            setup_s.append(time.perf_counter() - t0)
        reference = None if args.write_reference else load_reference(
            args.workload, args.seed, args.tiny)
        tracer = Tracer() if args.trace else None
        rounds = run_rounds(wl, args.seconds, reference, tracer)
        e2e, counts = end_to_end(wl, rounds, setup_s)
        if args.write_reference:
            write_reference(args, wl, rounds)
        layers = per_layer(wl, rounds) if tracer else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in ops if op.error]
    units = _per_layer_units() if args.trace else END_TO_END
    values = layers if args.trace else e2e
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    tp, fp, fn = counts
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "env": env,
        "rounds": len(rounds),
        "ops": len(ops),
        "op_seconds": [op.seconds for op in ops],
        "setup_s_all": setup_s,
        "digests": {op.name: op.digest for op in ops if op.digest},
        "reference_checked": reference is not None,
        "quality": {"tp": tp, "fp": fp, "fn": fn,
                    "der_pct": 100.0 * (fn + fp) / (tp + fn) if tp + fn else None},
        "fail_frac": len(failed) / len(ops),
        "errors": sorted({f"{op.name}: {op.error}" for op in failed}),
        "absent": tracer.absent if tracer else [],
        "metrics": metrics,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "results", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print_table(args.workload, metrics, record)
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def write_reference(args, wl, rounds):
    if args.seed != DEFAULT_SEED or args.tiny:
        raise SystemExit("--write-reference needs the default seed and full size")
    ops = rounds[0]["ops"]
    bad = [op for op in ops if op.error]
    if bad:
        raise SystemExit(f"not writing a reference from failed operations: {bad[0].error}")
    doc = {op.name: wl.reference_entry(op) for op in ops}
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(REFERENCE_DIR, f"{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def print_table(workload, metrics, record):
    out = sys.stderr
    print(f"--- {workload} (seed {record['seed']}, {record['ops']} operations in "
          f"{record['rounds']} rounds, {record['seconds']} s)", file=out)
    for k, v in metrics.items():
        print(f"  {k:<40} {v['value']:>16.6g} {v['unit']}", file=out)
    q = record["quality"]
    der = "n/a" if q["der_pct"] is None else f"{q['der_pct']:.4g}"
    print(f"  {'der_pct':<40} {der:>16} %", file=out)
    print(f"  {'fail_frac':<40} {record['fail_frac']:>16.6g} ratio", file=out)
    for name in record["absent"]:
        print(f"  {name}: absent (not imported where the benchmark looks it up)", file=out)
    for err in record["errors"]:
        print(f"  FAILED {err}", file=out)


# ---------------------------------------------------------------------------
# every workload, one process each
# ---------------------------------------------------------------------------


def run_all(args):
    status = 0
    for w in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w}: exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        print(lines[-1])
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs for a smoke test; no reference check")
    p.add_argument("--write-reference", action="store_true",
                   help="store the default seed's outputs as the committed reference")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "graphseg", "__init__.py")):
        print(f"perfbench: no graphseg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
