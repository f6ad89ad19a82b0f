"""Smoke tests of the benchmark at tiny input sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bench(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_lists_what_run_reports():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run._per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
def test_all_workloads_print_every_metric_with_its_unit(trace):
    spec = _spec()
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    proc = _bench(["--workload", "all", "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(run.WORKLOAD_NAMES)
    for res in results:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == wanted
    for name in wanted:
        assert name in proc.stderr  # the printed table


def test_traced_counts_repeat_exactly():
    def counts():
        proc = _bench(["--workload", "cv", "--seed", "5", "--seconds", "0",
                       "--trace", "1", "--tiny"])
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items()
                if k.endswith(".calls") or "pieces" in k
                or k in ("learning.solves", "learning.candidates")}

    first = counts()
    assert first["learning.solves"] > 0
    assert counts() == first


def test_removed_kernel_is_reported_absent():
    import graphseg.solver as solver

    kernel = solver._suffix_min_k
    del solver._suffix_min_k
    tracer = Tracer()
    try:
        tracer.install()
        assert "pwq._suffix_min_k" in tracer.absent
        m = run.layer_metrics(tracer.snapshot(), op_s=1.0, workers=1)
    finally:
        tracer.uninstall()
        solver._suffix_min_k = kernel
    assert m["pwq._suffix_min_k.calls"] == 0
    assert m["pwq._suffix_min_k.pieces_in_per_call"] == 0
    assert solver._min_k is not None and not hasattr(solver._min_k, "__wrapped__")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "detect", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
