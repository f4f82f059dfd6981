"""Tests of the benchmark itself: smoke runs at a tiny size, the metric
names against BENCHMARK.json, self-time arithmetic, the tracer's patching
and restoring, and the correctness gate."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# 17 samples per axis; at this size the calibration split of seed 3
# excites every axis on both sides.
SMOKE_SCALE = "0.1"
SMOKE_SEED = "3"


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke_runs():
    """One tiny run per workload and trace mode, as the result lines."""
    out = {}
    for workload in run.WORKLOAD_NAMES:
        for trace in ("0", "1"):
            proc = _bench(ROOT, "--workload", workload, "--seed", SMOKE_SEED,
                          "--seconds", "0", "--trace", trace, "--scale", SMOKE_SCALE)
            assert proc.returncode == 0, proc.stderr
            record_line, result_line = proc.stdout.strip().splitlines()[-2:]
            out[workload, trace] = (json.loads(record_line)["record"], json.loads(result_line))
    return out


def test_spec_matches_workloads_and_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == [
        w for w in run.WORKLOAD_NAMES if w not in run.UNGATED_WORKLOADS]
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT_RE.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric_by_name(smoke_runs, workload):
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        record, result = smoke_runs[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and record["problems"] == []
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
        env = record["environment"]
        assert env["workload"] == workload and env["seed"] == int(SMOKE_SEED)
        assert env["blas_threads"] == "1" and env["frames_per_pass"] >= 1
        assert set(record["input_properties"]) == {
            "reason", "corners_per_frame", "visible_tags_histogram", "lm_iterations_histogram"}
    _, plain = smoke_runs[workload, "0"]
    for name, metric in plain["metrics"].items():
        assert metric["value"] > 0, name


def test_traced_counts_per_workload(smoke_runs):
    pipeline = smoke_runs["pipeline_sweep", "1"][1]["metrics"]
    assert pipeline["geometry.project_points.calls_per_frame"]["value"] == 35
    assert pipeline["layout.corners_ref.calls_per_frame"]["value"] == 35
    assert pipeline["pnp.CorrespondenceSet.constructions_per_frame"]["value"] == 2
    assert pipeline["calibration.calibrate.ms"]["value"] > 0
    replay = smoke_runs["replay_occluded", "1"][1]["metrics"]
    assert replay["pnp.CorrespondenceSet.constructions_per_frame"]["value"] == 1
    for name in ("replay_occluded", "contact_stream"):
        metrics = smoke_runs[name, "1"][1]["metrics"]
        assert metrics["simulator.self_ms_per_frame"]["value"] == 0
        assert metrics["pnp.refine_lm.self_ms_per_frame"]["value"] > 0
    assert smoke_runs["contact_stream", "1"][1]["metrics"]["contact.self_ms_per_frame"]["value"] > 0


def test_exits_without_result_when_the_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "replay_occluded", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_of_synthetic_nested_spans():
    # a [0, 100] holds b [10, 40] (which holds c [20, 30]) and d [50, 70].
    spans = [
        ["a", 0, 100, -1, -1],
        ["b", 10, 40, 0, -1],
        ["c", 20, 30, 1, -1],
        ["d", 50, 70, 0, -1],
    ]
    assert tracing.self_times_ns(spans) == [50, 20, 10, 20]
    table = tracing.summarize(spans + [["d", 80, 90, 0, -1]])
    assert table["a"]["self_ns"] == 40
    assert table["d"] == {"calls": 2, "total_ns": 30, "self_ns": 30}


def test_self_time_of_traced_nested_call():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(1000))

    wrapped_inner = tracer.wrap("m.inner", inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    tracer.wrap("m.outer", outer)()
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["m.outer", "m.inner", "m.inner"]
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0, 0]
    selfs = tracing.self_times_ns(tracer.spans)
    outer_span = tracer.spans[0]
    assert sum(selfs) == outer_span[tracing.END] - outer_span[tracing.START]
    assert all(v >= 0 for v in selfs)


def _ringsense_attributes() -> dict:
    snapshot = {}
    for name, module in sys.modules.items():
        if module is not None and (name == "ringsense" or name.startswith("ringsense.")):
            for attr, value in vars(module).items():
                snapshot[name, attr] = value
    cls = sys.modules["ringsense.pnp"].CorrespondenceSet
    snapshot["CorrespondenceSet", "__init__"] = cls.__dict__["__init__"]
    return snapshot


def test_tracer_patches_importers_and_restores_originals():
    from ringsense import cli, geometry, pnp, simulator

    before = _ringsense_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pnp.estimate_pose is not before["ringsense.pnp", "estimate_pose"]
        assert cli.estimate_pose is pnp.estimate_pose
        assert simulator.project_points is geometry.project_points
        geometry.default_camera()
        assert [s[tracing.NAME] for s in tracer.spans] == ["geometry.default_camera"]
    finally:
        tracer.restore()
    after = _ringsense_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_gate_fails_the_run_loudly(monkeypatch, capsys):
    # main() pins BLAS and extends the import path; undo that afterwards.
    for var in run.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, run.BLAS_THREADS)
    monkeypatch.setenv("PYTHONPATH", os.environ.get("PYTHONPATH", ""))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(workloads, "POSE_ERR_TRANS_FLOOR_MULTIPLE", 1e-9)
    code = run.main(["--workload", "replay_occluded", "--seed", SMOKE_SEED, "--seconds", "0",
                     "--trace", "0", "--scale", SMOKE_SCALE])
    out = capsys.readouterr()
    assert code == 1
    assert json.loads(out.out.strip().splitlines()[-1])["correct"] is False
    assert "translation RMS error" in out.err
