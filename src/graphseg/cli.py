"""Command-line workflow: detect, learn, eval, cv.

Data goes to files under --out-dir; progress goes to standard error.  Every
command first writes a manifest.json snapshot sufficient to re-run it
bit-identically.  Exit codes: 0 success, 2 input error (an input file
that is missing, unreadable or malformed, or bad arguments), 3 model
infeasibility, 4 internal error (a failed output write among them).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import __version__
from . import graph as gr
from ._native import NativeBuildError
from .data import (DataFormatError, load_record, load_signal_csv, read_text, record_id_of,
                   replace_file)
from .evaluate import DetectionReport, cross_validate, windows_whole_record
from .learning import LearnConfig, default_initial_graph, evaluate_graph, learn
from .solver import InfeasibleModelError, extract_rpeaks, solve

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _write_manifest(out_dir, command, args, outputs):
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "tool": "graphseg",
        "version": __version__,
        "command": command,
        "arguments": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "outputs": sorted(outputs),
    }
    _write(os.path.join(out_dir, "manifest.json"),
           json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_graph(path):
    return gr.parse(read_text(path))


def _write(path, text):
    """Write text as UTF-8 beside path and rename it into place."""
    replace_file(path, lambda fh: fh.write(text.encode("utf-8")))


def _load_records(args):
    signals = args.signal or []
    annotations = args.annotations or []
    if len(signals) != len(annotations):
        raise ValueError(
            f"got {len(signals)} --signal but {len(annotations)} --annotations"
        )
    if not signals:
        raise ValueError("at least one --signal/--annotations pair is required")
    records = []
    paths = {}
    for s, a in zip(signals, annotations):
        r = load_record(s, a, sample_rate=args.sample_rate)
        if r.record_id in paths:
            raise ValueError(
                f"record id {r.record_id!r} of {s} repeats that of {paths[r.record_id]}"
            )
        paths[r.record_id] = s
        records.append(r)
    return records


def _learn_config(args):
    return LearnConfig(
        max_iterations=args.max_iterations,
        tolerance_ms=args.tolerance_ms,
        validation_fraction=args.validation_fraction,
        seed=args.seed,
    )


def _cmd_detect(args):
    out = [
        os.path.join(args.out_dir, "segmentation.json"),
        os.path.join(args.out_dir, "rpeaks.txt"),
    ]
    _write_manifest(args.out_dir, "detect", args, out)
    g = _load_graph(args.graph)
    signal = load_signal_csv(args.signal, args.sample_rate)
    seg = solve(signal, g, start_state=args.start_state)
    peaks = extract_rpeaks(seg, signal, g)
    doc = {
        "boundaries": seg.boundaries,
        "states": [g.name_of(s) for s in seg.states],
        "means": seg.means,
        "edges_taken": seg.edges_taken,
        "total_cost": seg.total_cost,
    }
    _write(out[0], json.dumps(doc, indent=2) + "\n")
    _write(out[1], "".join(f"{p}\n" for p in peaks))
    print(f"detected {len(peaks)} peak(s) over {len(signal)} samples", file=sys.stderr)
    return EXIT_OK


def _cmd_learn(args):
    names = ["pooled"] if args.pooled else [record_id_of(s) for s in args.signal]
    outputs = [os.path.join(args.out_dir, f"{name}_{suffix}") for name in names
               for suffix in ("graph.json", "trace.jsonl", "progress.csv")]
    _write_manifest(args.out_dir, "learn", args, outputs)
    records = _load_records(args)
    cfg = _learn_config(args)
    initial = _load_graph(args.initial_graph) if args.initial_graph else None
    record_windows = [windows_whole_record(r, args.cycles_per_window) for r in records]
    if args.pooled:
        jobs = [("pooled", [w for ws in record_windows for w in ws])]
    else:
        jobs = list(zip(names, record_windows))
    for name, windows in jobs:
        g0 = initial if initial is not None else default_initial_graph(windows)
        best, trace = learn(g0, windows, cfg)
        _write(os.path.join(args.out_dir, f"{name}_graph.json"), gr.serialize(best))
        _write(os.path.join(args.out_dir, f"{name}_trace.jsonl"), trace.to_jsonl())
        _write(os.path.join(args.out_dir, f"{name}_progress.csv"),
               trace.to_progress_csv())
        final = trace.steps[-1].train_error if trace.steps else trace.initial_train_error
        print(
            f"{name}: {len(trace)} accepted edit(s), "
            f"train FN+FP {trace.initial_train_error} -> {final}",
            file=sys.stderr,
        )
    return EXIT_OK


def _report_paths(out_dir):
    return [os.path.join(out_dir, "report.json"), os.path.join(out_dir, "report.txt")]


def _write_report(out, report):
    """Write report.json and report.txt, and print the table to stderr."""
    _write(out[0], json.dumps(report.to_json_dict(), indent=2) + "\n")
    _write(out[1], report.to_table())
    print(report.to_table(), end="", file=sys.stderr)


def _cmd_eval(args):
    out = _report_paths(args.out_dir)
    _write_manifest(args.out_dir, "eval", args, out)
    records = _load_records(args)
    g = _load_graph(args.graph)
    cfg = LearnConfig(tolerance_ms=args.tolerance_ms)
    rows = []
    for r in records:
        windows = windows_whole_record(r, args.cycles_per_window)
        _err, rep = evaluate_graph(g, windows, cfg)
        rows.extend(rep.records)
    _write_report(out, DetectionReport(records=rows))
    return EXIT_OK


def _cmd_cv(args):
    out = _report_paths(args.out_dir)
    _write_manifest(args.out_dir, "cv", args, out)
    records = _load_records(args)
    cfg = _learn_config(args)
    initial = _load_graph(args.initial_graph) if args.initial_graph else None
    report = cross_validate(records, k=args.k, cfg=cfg, initial_graph=initial,
                            n_jobs=args.jobs)
    _write_report(out, report)
    return EXIT_OK


def _add_record_flags(p):
    p.add_argument("--signal", action="append", required=True,
                   help="sample CSV (repeatable)")
    p.add_argument("--annotations", action="append", required=True,
                   help="annotation file paired with --signal (repeatable)")
    p.add_argument("--sample-rate", type=float, default=360.0)


def _add_learn_flags(p):
    p.add_argument("--max-iterations", type=int, default=20)
    p.add_argument("--tolerance-ms", type=float, default=100.0)
    p.add_argument("--validation-fraction", type=float, default=0.25)
    p.add_argument("--cycles-per-window", type=int, default=4)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphseg",
        description="Graph-constrained changepoint detection for R-peak labeling",
    )
    parser.add_argument("--version", action="version",
                        version=f"graphseg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="segment one signal with a fixed graph")
    p.add_argument("--signal", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sample-rate", type=float, default=360.0)
    p.add_argument("--start-state", default="free")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("learn", help="learn a graph from labeled records")
    _add_record_flags(p)
    p.add_argument("--initial-graph", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pooled", action="store_true",
                   help="train one graph over all records instead of per record")
    _add_learn_flags(p)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("eval", help="score a fixed graph on labeled records")
    _add_record_flags(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--tolerance-ms", type=float, default=100.0)
    p.add_argument("--cycles-per-window", type=int, default=4)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("cv", help="k-fold cross-validation with learning")
    _add_record_flags(p)
    p.add_argument("--initial-graph", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=None)
    _add_learn_flags(p)
    p.set_defaults(func=_cmd_cv)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (gr.GraphParseError, gr.GraphValidationError, DataFormatError,
            ValueError) as exc:
        print(f"graphseg: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleModelError as exc:
        print(f"graphseg: infeasible model: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NativeBuildError as exc:
        print(f"graphseg: cannot build the compiled library: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        print("graphseg: internal error", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
