"""Command-line integration: outputs, exit codes, reproducibility."""

import errno
import json

import pytest

from graphseg import cli, data
from graphseg import graph as gr
from graphseg import solver
from graphseg.data import SynthConfig, generate_synthetic, save_record


@pytest.fixture
def step_files(tmp_path):
    sig = tmp_path / "step.csv"
    sig.write_text(
        "sample_index,amplitude\n"
        + "".join(f"{i},{v}\n" for i, v in enumerate([0, 0, 0, 10, 10, 0, 0]))
    )
    graph = tmp_path / "g.json"
    graph.write_text(gr.serialize(gr.initial_graph(1.0, 1.0, 1.0)))
    return sig, graph


def synth_files(tmp_path, name, **kw):
    rec = generate_synthetic(SynthConfig(**kw))
    sp = tmp_path / f"{name}.csv"
    ap = tmp_path / f"{name}.ann"
    save_record(rec, str(sp), str(ap))
    return rec, sp, ap


def test_detect_step_signal(tmp_path, step_files, capsys):
    sig, graph = step_files
    out = tmp_path / "out"
    rc = cli.main(["detect", "--signal", str(sig), "--graph", str(graph),
                   "--out-dir", str(out), "--start-state", "B"])
    assert rc == 0
    peaks = (out / "rpeaks.txt").read_text().split()
    assert peaks == ["3"]
    seg = json.loads((out / "segmentation.json").read_text())
    assert seg["boundaries"] == [3, 5]
    assert seg["states"] == ["B", "R", "B"]
    assert seg["total_cost"] == pytest.approx(2.0, abs=1e-9)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "detect"
    assert manifest["version"]


def test_detect_invalid_graph_file_exits_2(tmp_path, step_files, capsys):
    sig, _ = step_files
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": []}')
    rc = cli.main(["detect", "--signal", str(sig), "--graph", str(bad),
                   "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_detect_missing_signal_exits_2(tmp_path, step_files, capsys):
    _, graph = step_files
    rc = cli.main(["detect", "--signal", str(tmp_path / "nope.csv"),
                   "--graph", str(graph), "--out-dir", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("flag", ["--signal", "--graph"])
def test_detect_unreadable_input_exits_2(tmp_path, step_files, capsys, flag):
    # a directory stands for any path that cannot be read: tests that run as
    # root read through chmod 000
    sig, graph = step_files
    inputs = {"--signal": str(sig), "--graph": str(graph)}
    inputs[flag] = str(tmp_path)
    rc = cli.main(["detect", *(x for kv in inputs.items() for x in kv),
                   "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"input error: {tmp_path}: cannot read" in err
    assert "Traceback" not in err


def test_eval_unreadable_annotations_exit_2(tmp_path, step_files, capsys):
    sig, graph = step_files
    rc = cli.main(["eval", "--signal", str(sig), "--annotations", str(tmp_path),
                   "--graph", str(graph), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert f"input error: {tmp_path}: cannot read" in capsys.readouterr().err


def test_detect_infeasible_model_exits_3(tmp_path, step_files, monkeypatch, capsys):
    sig, graph = step_files

    def boom(*a, **k):
        raise solver.InfeasibleModelError("B", 1)

    monkeypatch.setattr(cli, "solve", boom)
    rc = cli.main(["detect", "--signal", str(sig), "--graph", str(graph),
                   "--out-dir", str(tmp_path / "o")])
    assert rc == 3
    assert "infeasible" in capsys.readouterr().err


def test_internal_error_exits_4(tmp_path, step_files, monkeypatch, capsys):
    sig, graph = step_files

    def boom(*a, **k):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "solve", boom)
    rc = cli.main(["detect", "--signal", str(sig), "--graph", str(graph),
                   "--out-dir", str(tmp_path / "o")])
    assert rc == 4


def test_detect_synthetic_matches_truth(tmp_path, capsys):
    rec, sp, ap = synth_files(tmp_path, "synth", n_cycles=10, heart_rate_bpm=75,
                              r_amplitude=10.0, noise_sigma=0.1, seed=12)
    graph = tmp_path / "g.json"
    graph.write_text(gr.serialize(gr.initial_graph(4.0, 2.0, 40.0)))
    out = tmp_path / "out"
    rc = cli.main(["detect", "--signal", str(sp), "--graph", str(graph),
                   "--out-dir", str(out)])
    assert rc == 0
    peaks = [int(x) for x in (out / "rpeaks.txt").read_text().split()]
    assert len(peaks) == 10
    for p, a in zip(peaks, rec.rpeak_annotations):
        assert abs(p - a) <= 36


def test_learn_zero_iterations_outputs_input_graph(tmp_path, capsys):
    rec, sp, ap = synth_files(tmp_path, "r1", n_cycles=8, heart_rate_bpm=80,
                              r_amplitude=10.0, noise_sigma=0.2, seed=3)
    g0 = tmp_path / "g0.json"
    g0.write_text(gr.serialize(gr.initial_graph(6.5, 3.0, 50.0)))
    out = tmp_path / "out"
    rc = cli.main(["learn", "--signal", str(sp), "--annotations", str(ap),
                   "--initial-graph", str(g0), "--out-dir", str(out),
                   "--max-iterations", "0"])
    assert rc == 0
    learned = (out / "r1_graph.json").read_text()
    assert learned == g0.read_text()
    progress = (out / "r1_progress.csv").read_text().strip().split("\n")
    assert progress[0] == "iteration,train_fn_fp,validation_fn_fp"
    assert len(progress) == 2  # header + row 0 (initial)
    trace = (out / "r1_trace.jsonl").read_text().strip().split("\n")
    assert len(trace) == 1
    assert json.loads(trace[0])["iteration"] == 0


def test_learn_on_dip_record_changes_graph(tmp_path, capsys):
    rec, sp, ap = synth_files(tmp_path, "dip", n_cycles=12, heart_rate_bpm=88,
                              r_amplitude=10.0, noise_sigma=0.2,
                              baseline_wander_amp=3.0, pre_r_dip=10.5, seed=7)
    g0 = tmp_path / "g0.json"
    g0.write_text(gr.serialize(gr.initial_graph(6.5, 3.0, 50.0)))
    out = tmp_path / "out"
    rc = cli.main(["learn", "--signal", str(sp), "--annotations", str(ap),
                   "--initial-graph", str(g0), "--out-dir", str(out), "--seed", "5"])
    assert rc == 0
    learned = gr.parse((out / "dip_graph.json").read_text())
    assert len(learned.states) > 2
    rows = (out / "dip_progress.csv").read_text().strip().split("\n")
    assert len(rows) >= 3  # header + initial + >=1 accepted iteration


def test_eval_perfect_corpus_table(tmp_path, capsys):
    rec, sp, ap = synth_files(tmp_path, "r2", n_cycles=10, heart_rate_bpm=75,
                              r_amplitude=10.0, noise_sigma=0.1, seed=8)
    graph = tmp_path / "g.json"
    graph.write_text(gr.serialize(gr.initial_graph(4.0, 2.0, 40.0)))
    out = tmp_path / "out"
    rc = cli.main(["eval", "--signal", str(sp), "--annotations", str(ap),
                   "--graph", str(graph), "--out-dir", str(out)])
    assert rc == 0
    table = (out / "report.txt").read_text()
    row = table.strip().split("\n")[1]
    assert "100.00" in row
    assert row.split()[-1] == "0.00"
    report = json.loads((out / "report.json").read_text())
    assert report["pooled"]["sen"] == 100.0
    assert report["pooled"]["der"] == 0.0


def test_cv_reports_fold_entries(tmp_path, capsys):
    rec, sp, ap = synth_files(tmp_path, "r3", n_cycles=10, heart_rate_bpm=75,
                              r_amplitude=10.0, noise_sigma=0.1, seed=4)
    graph = tmp_path / "g.json"
    graph.write_text(gr.serialize(gr.initial_graph(4.0, 2.0, 40.0)))
    out = tmp_path / "out"
    rc = cli.main(["cv", "--signal", str(sp), "--annotations", str(ap),
                   "--initial-graph", str(graph), "--out-dir", str(out),
                   "--k", "5", "--max-iterations", "0", "--jobs", "1"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["folds"]) == 5
    pooled = report["pooled"]
    recomputed = [sum(f[k] for f in report["folds"]) for k in ("tp", "fp", "fn")]
    assert [pooled["tp"], pooled["fp"], pooled["fn"]] == recomputed


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cv_jobs_below_one_exit_2(tmp_path, capsys, jobs):
    _rec, sp, ap = synth_files(tmp_path, "r3", n_cycles=10, heart_rate_bpm=75,
                               r_amplitude=10.0, noise_sigma=0.1, seed=4)
    out = tmp_path / "out"
    rc = cli.main(["cv", "--signal", str(sp), "--annotations", str(ap),
                   "--out-dir", str(out), "--k", "5", "--jobs", jobs])
    assert rc == 2
    assert f"n_jobs must be an int >= 1, got {jobs}" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_rerun_is_byte_identical(tmp_path, capsys):
    rec, sp, ap = synth_files(tmp_path, "r4", n_cycles=8, heart_rate_bpm=80,
                              r_amplitude=10.0, noise_sigma=0.2, seed=6)
    g0 = tmp_path / "g0.json"
    g0.write_text(gr.serialize(gr.initial_graph(6.5, 3.0, 50.0)))
    outputs = {}
    for name in ("o1", "o2"):
        out = tmp_path / name
        rc = cli.main(["learn", "--signal", str(sp), "--annotations", str(ap),
                       "--initial-graph", str(g0), "--out-dir", str(out),
                       "--seed", "17"])
        assert rc == 0
        outputs[name] = {
            f.name: f.read_bytes() for f in sorted(out.iterdir())
        }
    ref = {k: v for k, v in outputs["o1"].items() if k != "manifest.json"}
    got = {k: v for k, v in outputs["o2"].items() if k != "manifest.json"}
    assert ref == got


def test_mismatched_record_flags_exit_2(tmp_path, capsys):
    rec, sp, ap = synth_files(tmp_path, "r5", n_cycles=6, seed=1)
    graph = tmp_path / "g.json"
    graph.write_text(gr.serialize(gr.initial_graph(4.0, 2.0, 40.0)))
    rc = cli.main(["eval", "--signal", str(sp), "--signal", str(sp),
                   "--annotations", str(ap), "--graph", str(graph),
                   "--out-dir", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("tolerance", ["-5", "inf", "nan"])
@pytest.mark.parametrize("command", ["eval", "learn", "cv"])
def test_bad_tolerance_exits_2(tmp_path, capsys, command, tolerance):
    # -5 used to score a perfect detector at Sen 0 and DER 200, inf exited 4
    _rec, sp, ap = synth_files(tmp_path, "r7", n_cycles=10, heart_rate_bpm=75,
                               r_amplitude=10.0, noise_sigma=0.1, seed=8)
    graph = tmp_path / "g.json"
    graph.write_text(gr.serialize(gr.initial_graph(4.0, 2.0, 40.0)))
    flag = "--graph" if command == "eval" else "--initial-graph"
    rc = cli.main([command, "--signal", str(sp), "--annotations", str(ap), flag, str(graph),
                   "--out-dir", str(tmp_path / "o"), "--tolerance-ms", tolerance])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"input error: tolerance_ms must be finite and >= 0, got {float(tolerance)}" in err


@pytest.mark.parametrize("flags, code", [
    (["--sample-rate", "inf"], 2),
    (["--sample-rate", "nan"], 2),
    (["--sample-rate", "1e308"], 0),
    (["--tolerance-ms", "1e306"], 0),
])
def test_overflowing_tolerance_is_no_internal_error(tmp_path, capsys, flags, code):
    # each of these once overflowed int() or the int64 search bounds of
    # match and exited 4; a finite tolerance past every span matches as the
    # span does, so the perfect detector keeps Sen 100
    _rec, sp, ap = synth_files(tmp_path, "r7", n_cycles=10, heart_rate_bpm=75,
                               r_amplitude=10.0, noise_sigma=0.1, seed=8)
    graph = tmp_path / "g.json"
    graph.write_text(gr.serialize(gr.initial_graph(4.0, 2.0, 40.0)))
    out = tmp_path / "o"
    rc = cli.main(["eval", "--signal", str(sp), "--annotations", str(ap),
                   "--graph", str(graph), "--out-dir", str(out), *flags])
    err = capsys.readouterr().err
    assert rc == code, err
    assert "Traceback" not in err
    if code == 0:
        assert json.loads((out / "report.json").read_text())["pooled"]["sen"] == 100.0
    else:
        assert "sample_rate must be positive and finite" in err


def test_graph_with_a_value_past_the_float_range_exits_2(tmp_path, step_files, capsys):
    # 1e400 reads as inf, and serialize would write it as Infinity
    sig, graph = step_files
    graph.write_text(graph.read_text().replace('"penalty": 1.0', '"penalty": 1e400', 1))
    rc = cli.main(["detect", "--signal", str(sig), "--graph", str(graph),
                   "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "penalty must be finite, got inf" in capsys.readouterr().err


def same_basename_files(tmp_path):
    """Two different records saved as a/rec.csv and b/rec.csv."""
    args = []
    for sub, seed in (("a", 3), ("b", 4)):
        (tmp_path / sub).mkdir()
        _rec, sp, ap = synth_files(tmp_path / sub, "rec", n_cycles=8, seed=seed)
        args += ["--signal", str(sp), "--annotations", str(ap)]
    return args


@pytest.mark.parametrize("command", [["learn"], ["learn", "--pooled"], ["cv"]],
                         ids=" ".join)
def test_repeated_record_id_exits_2(tmp_path, capsys, command):
    # record ids come from the file basename, so a/rec.csv and b/rec.csv
    # collide; the error names both files
    records = same_basename_files(tmp_path)
    rc = cli.main(command + records + ["--out-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "input error" in err
    assert records[1] in err and records[5] in err


def test_detect_unknown_start_state_exits_2(tmp_path, step_files, capsys):
    sig, graph = step_files
    rc = cli.main(["detect", "--signal", str(sig), "--graph", str(graph),
                   "--out-dir", str(tmp_path / "o"), "--start-state", "Q"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "input error" in err
    assert "Traceback" not in err


def test_learn_pooled_writes_the_listed_outputs(tmp_path, capsys):
    records = []
    for name, seed in (("p1", 7), ("p2", 8)):
        _rec, sp, ap = synth_files(tmp_path, name, n_cycles=8, heart_rate_bpm=88,
                                   r_amplitude=10.0, noise_sigma=0.2,
                                   baseline_wander_amp=3.0, pre_r_dip=10.5,
                                   seed=seed)
        records += ["--signal", str(sp), "--annotations", str(ap)]
    g0 = tmp_path / "g0.json"
    g0.write_text(gr.serialize(gr.initial_graph(6.5, 3.0, 50.0)))
    outputs = {}
    for run in ("o1", "o2"):
        out = tmp_path / run
        rc = cli.main(["learn", "--pooled", "--seed", "5", "--initial-graph", str(g0),
                       "--out-dir", str(out)] + records)
        assert rc == 0
        listed = json.loads((out / "manifest.json").read_text())["outputs"]
        assert listed == [str(out / f"pooled_{suffix}") for suffix in
                          ("graph.json", "progress.csv", "trace.jsonl")]
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "pooled_graph.json", "pooled_progress.csv",
            "pooled_trace.jsonl",
        ]
        outputs[run] = {p.name: p.read_bytes() for p in out.iterdir()
                        if p.name != "manifest.json"}
    assert outputs["o1"] == outputs["o2"]


@pytest.mark.parametrize("command", ["detect", "learn", "eval", "cv"])
def test_manifest_written_before_computation(tmp_path, step_files, capsys, command):
    _, graph = step_files
    bad_sig = tmp_path / "bad.csv"
    bad_sig.write_text("sample_index,amplitude\n0,oops\n")
    ann = tmp_path / "bad.ann"
    ann.write_text("0\n")
    out = tmp_path / "o"
    args = [command, "--signal", str(bad_sig), "--out-dir", str(out)]
    if command != "detect":
        args += ["--annotations", str(ann)]
    if command in ("detect", "eval"):
        args += ["--graph", str(graph)]
    rc = cli.main(args)
    assert rc == 2
    assert "bad.csv:2" in capsys.readouterr().err
    # the snapshot precedes the failure
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command


def fail_writes_partway(monkeypatch, marker):
    """Make every write of bytes containing marker stop halfway through
    with a full disk.  Outputs are written by data.replace_file."""
    real_open = open

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, chunk):
            if marker.encode() not in bytes(chunk):
                return self.fh.write(chunk)
            self.fh.write(chunk[: len(chunk) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def fake_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return HalfWriter(fh) if "w" in mode or "x" in mode else fh

    monkeypatch.setattr(data, "open", fake_open, raising=False)


@pytest.mark.parametrize("command", ["detect", "learn"])
def test_failed_write_leaves_no_partial_output(tmp_path, step_files, monkeypatch,
                                               capsys, command):
    # an output is either absent, its previous content or complete: a write
    # that fails partway leaves neither a truncated file nor a temporary one
    if command == "detect":
        sig, graph = step_files
        args = ["detect", "--signal", str(sig), "--graph", str(graph),
                "--start-state", "B"]
        name, marker = "segmentation.json", '"boundaries"'
    else:
        _rec, sp, ap = synth_files(tmp_path, "r1", n_cycles=6, seed=2)
        graph = tmp_path / "g0.json"
        graph.write_text(gr.serialize(gr.initial_graph(6.5, 3.0, 50.0)))
        args = ["learn", "--signal", str(sp), "--annotations", str(ap),
                "--initial-graph", str(graph), "--max-iterations", "0"]
        name, marker = "r1_graph.json", '"baseline_state"'
    fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
    assert cli.main(args + ["--out-dir", str(rerun)]) == 0
    before = {p.name: p.read_bytes() for p in rerun.iterdir()}

    fail_writes_partway(monkeypatch, marker)
    assert cli.main(args + ["--out-dir", str(fresh)]) == 4
    assert name not in {p.name for p in fresh.iterdir()}
    assert not [p for p in fresh.iterdir() if p.name.endswith(".tmp")]
    assert cli.main(args + ["--out-dir", str(rerun)]) == 4
    assert (rerun / name).read_bytes() == before[name]
    assert {p.name for p in rerun.iterdir()} == set(before)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["--version"])
    assert e.value.code == 0
    assert "graphseg" in capsys.readouterr().out
