"""Spans and counters recorded around the calls into each graphseg module.

The tracer changes nothing under ``src/``: it replaces module attributes
(``graphseg.solver._min_k``, ``graphseg.learning.solve``, ...) with timing
wrappers while installed and puts the originals back on ``uninstall``.  A
span's self time is its duration minus the time of the traced spans it
encloses, so the self times of all spans add up to the traced wall time.

Span names are ``<module>.<function>``; the module names are the layers.
A patch point whose attribute no longer exists (a kernel deleted by a
refactor, say) is skipped and listed in ``Tracer.absent`` instead of
raising.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import time

# The kernels graphseg.solver imported from graphseg.pwq when the benchmark
# was defined.  A kernel the solver no longer imports is reported as absent.
KERNELS = (
    "_min_k",
    "_prefix_min_k",
    "_suffix_min_k",
    "_shift_right_k",
    "_shift_left_k",
    "_add_point_loss_k",
)

# (module, attribute, span name): every place a traced function is looked up
# at call time.  A function imported by name into several modules is patched
# in each of them with the same wrapper.
PATCH_POINTS = tuple(
    ("graphseg.solver", k, f"pwq.{k}") for k in KERNELS
) + (
    ("graphseg.cli", "solve", "solver.solve"),
    ("graphseg.learning", "solve", "solver.solve"),
    ("graphseg.cli", "extract_rpeaks", "solver.extract_rpeaks"),
    ("graphseg.learning", "extract_rpeaks", "solver.extract_rpeaks"),
    ("graphseg.cli", "load_signal_csv", "data.load_signal_csv"),
    ("graphseg.graph", "validate", "graph.validate"),
    ("graphseg.learning", "match", "evaluate.match"),
    ("graphseg.learning", "learn", "learning.learn"),
    ("graphseg.learning", "evaluate_graph", "learning.evaluate_graph"),
    ("graphseg.learning", "enumerate_candidates", "learning.enumerate_candidates"),
    ("graphseg.evaluate", "_run_cv_task", "evaluate.cv_task"),
    ("graphseg.cli", "main", "cli.detect"),
)

# stat slots per span name
CALLS, TOTAL_S, SELF_S, PIECES_IN, PIECES_OUT = range(5)


def _new_stat():
    return [0, 0.0, 0.0, 0, 0]


class Tracer:
    """In-memory span statistics plus the solve and learner counters."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._originals = []
        self.absent = []
        self.counters = {}
        self._seen_solves = set()
        self._learn_depth = 0
        self._eval_depth = 0
        self.cv_tasks = []
        self.owner_pid = os.getpid()  # the process whose run this traces
        self._clear_counters()

    def _clear_counters(self):
        self.counters.update(
            solve_samples=0,
            solve_state_steps=0,
            solve_pieces=0.0,
            solve_pieces_max=0,
            learning_solves=0,
            learning_solve_samples=0,
            learn_solves=0,
            learn_repeats=0,
            candidates=0,
        )

    # -- recording ---------------------------------------------------------

    def stat(self, name):
        return self.stats.setdefault(name, _new_stat())

    def span(self, name, fn, count_pieces=False, on_result=None, on_call=None):
        """Wrap fn so that each call records one span under name."""
        stat = self.stat(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat[CALLS] += 1
                stat[TOTAL_S] += dt
                stat[SELF_S] += dt - frame[0]
            if count_pieces:
                stat[PIECES_IN] += sum(len(a) for a in args if isinstance(a, list))
                stat[PIECES_OUT] += len(out)
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def clear(self):
        """Zero every statistic in place (the wrappers keep their slots)."""
        for s in self.stats.values():
            s[:] = _new_stat()
        self._stack.clear()
        self._clear_counters()
        self._seen_solves.clear()
        self.cv_tasks = []

    def snapshot(self):
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "cv_tasks": list(self.cv_tasks),
        }

    def merge(self, snap):
        """Add a snapshot taken in another process (a cross-validation task)."""
        for name, vals in snap["stats"].items():
            s = self.stat(name)
            for i, v in enumerate(vals):
                s[i] += v
        for k, v in snap["counters"].items():
            if k == "solve_pieces_max":
                self.counters[k] = max(self.counters[k], v)
            else:
                self.counters[k] += v
        self.cv_tasks.extend(snap["cv_tasks"])

    # -- solve and learner hooks ---------------------------------------------

    def _on_solve_call(self, args, kwargs):
        signal, graph_ = args[0], args[1]
        if self._eval_depth:
            self.counters["learning_solves"] += 1
            self.counters["learning_solve_samples"] += len(signal)
        if self._learn_depth:
            start = args[2] if len(args) > 2 else kwargs.get("start_state", "free")
            key = (
                hashlib.blake2b(signal.samples.tobytes(), digest_size=16).digest(),
                signal.sample_rate,
                graph_,
                start,
            )
            self.counters["learn_solves"] += 1
            if key in self._seen_solves:
                self.counters["learn_repeats"] += 1
            else:
                self._seen_solves.add(key)

    def _on_solve_result(self, args, kwargs, seg):
        n = len(args[0])
        nstates = len(args[1].states)
        c = self.counters
        c["solve_samples"] += n
        stats = getattr(seg, "stats", None)
        if isinstance(stats, dict) and "mean_pieces" in stats:
            steps = (n - 1) * nstates
            c["solve_state_steps"] += steps
            c["solve_pieces"] += stats["mean_pieces"] * steps
            c["solve_pieces_max"] = max(c["solve_pieces_max"], stats["max_pieces"])

    def _learn_wrapper(self, fn):
        inner = self.span("learning.learn", fn)

        def learn(*args, **kwargs):
            self._learn_depth += 1
            if self._learn_depth == 1:
                self._seen_solves.clear()
            try:
                return inner(*args, **kwargs)
            finally:
                self._learn_depth -= 1

        return learn

    def _eval_wrapper(self, fn):
        inner = self.span("learning.evaluate_graph", fn)

        def evaluate_graph(*args, **kwargs):
            self._eval_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._eval_depth -= 1

        return evaluate_graph

    def _on_candidates(self, args, kwargs, out):
        self.counters["candidates"] += len(out)

    # -- installation --------------------------------------------------------

    def _wrapper_for(self, name, fn):
        if name.startswith("pwq."):
            return self.span(name, fn, count_pieces=True)
        if name == "solver.solve":
            return self.span(name, fn, on_call=self._on_solve_call,
                             on_result=self._on_solve_result)
        if name == "learning.learn":
            return self._learn_wrapper(fn)
        if name == "learning.evaluate_graph":
            return self._eval_wrapper(fn)
        if name == "learning.enumerate_candidates":
            return self.span(name, fn, on_result=self._on_candidates)
        if name == "evaluate.cv_task":
            return traced_cv_task
        return self.span(name, fn)

    def install(self):
        global _ACTIVE, _CV_TASK
        wrappers = {}
        self.absent = []
        for modname, attr, name in PATCH_POINTS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            if name not in wrappers:
                wrappers[name] = self._wrapper_for(name, fn)
            if name == "evaluate.cv_task":
                _CV_TASK = fn
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, wrappers[name])
        _ACTIVE = self
        return self

    def uninstall(self):
        global _ACTIVE
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals = []
        _ACTIVE = None


# A process pool pickles the task function by module and name, so the traced
# cross-validation task must be a module-level function.  Under the fork start
# method the child inherits the installed tracer; under spawn it installs one.
_ACTIVE = None
_CV_TASK = None


def traced_cv_task(args):
    """Run one cross-validation task; in a pool worker, attach its statistics
    to the returned row so the parent can merge them."""
    tracer = _ACTIVE
    if tracer is None:  # a worker started by spawn inherits no tracer
        tracer = Tracer().install()
        tracer.owner_pid = None
    in_parent = tracer.owner_pid == os.getpid()
    if not in_parent:
        tracer.clear()
    t0 = time.perf_counter()
    row = _CV_TASK(args)
    task_s = time.perf_counter() - t0
    if in_parent:
        tracer.cv_tasks.append(task_s)
    else:
        snap = tracer.snapshot()
        snap["cv_tasks"] = [task_s]
        row.bench_trace = snap
    return row
