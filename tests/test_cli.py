import csv
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ringsense.calibration import AxisModel, CalibrationReport
from ringsense.cli import _read_sweep_csv, _write_sweep_csv, main
from ringsense.geometry import default_camera
from ringsense.layout import default_layout
from ringsense.sensitivity import DetectionParams

REFERENCE_WRENCH_FLOOR = np.array([4.30, 4.22, 9.93, 0.32, 0.13, 8.55])


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    rc = main(["pipeline", "--seed", "7", "--out", str(out),
               "--samples-per-axis", "20", "--quiet"])
    assert rc == 0
    return out


def test_layout_emit(tmp_path):
    out = tmp_path / "layout.json"
    assert main(["layout", "emit", "--out", str(out), "--quiet"]) == 0
    data = read_json(out)
    assert len(data["tags"]) == 35
    assert data["tag_size_mm"] == 2.0


def test_layout_emit_overlapping_radius_fails(tmp_path, capsys):
    out = tmp_path / "layout.json"
    rc = main(["layout", "emit", "--ring-radius", "2.5", "--out", str(out), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == ("error: tags 0 and 30 are 0.67299 mm apart, "
                                       "within the 2.4 mm footprint bound\n")
    assert not out.exists()


def test_simulate_writes_files_and_manifest(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--axis", "2", "--samples-per-axis", "5",
               "--sigma", "0", "--seed", "3", "--out", str(out), "--quiet"])
    assert rc == 0
    assert (out / "sweep.csv").exists()
    assert (out / "frames.jsonl").exists()
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 3
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("axis,magnitude,fx,")
    assert len(rows) == 6


def test_simulate_digests_file_inputs(tmp_path):
    layout_file = tmp_path / "layout.json"
    assert main(["layout", "emit", "--out", str(layout_file), "--quiet"]) == 0
    out = tmp_path / "sim"
    rc = main(["simulate", "--axis", "0", "--samples-per-axis", "4",
               "--layout", str(layout_file), "--seed", "1", "--out", str(out),
               "--quiet"])
    assert rc == 0
    manifest = read_json(out / "manifest.json")
    assert set(manifest["input_digests"]) == {"layout"}
    assert len(manifest["input_digests"]["layout"]) == 64


def test_simulate_deterministic_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main(["simulate", "--axis", "0", "--samples-per-axis", "4",
                   "--seed", "11", "--out", str(out), "--quiet"])
        assert rc == 0
    for name in ("sweep.csv", "frames.jsonl", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_single_axis_simulate_is_a_block_of_all_axes(tmp_path):
    # Each sweep numbers its own noise streams, so axis k alone draws the
    # same occlusion and noise as the axis-k block of an all-axes run.
    common = ["--samples-per-axis", "6", "--sigma", "0.4", "--occlusion", "0.3", "--seed", "5",
              "--quiet"]
    assert main(["simulate", "--out", str(tmp_path / "all"), *common]) == 0
    all_rows = read_jsonl(tmp_path / "all" / "frames.jsonl")
    all_csv = (tmp_path / "all" / "sweep.csv").read_text().splitlines()
    for axis in range(6):
        out = tmp_path / str(axis)
        assert main(["simulate", "--axis", str(axis), "--out", str(out), *common]) == 0
        rows = read_jsonl(out / "frames.jsonl")
        assert [r["entries"] for r in rows] == [r["entries"] for r in all_rows[6 * axis:][:6]]
        sweep_csv = (out / "sweep.csv").read_text().splitlines()
        assert sweep_csv == all_csv[:1] + all_csv[1 + 6 * axis:][:6]


def test_estimate_converges_on_simulated_frames(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert main(["simulate", "--axis", "1", "--samples-per-axis", "6",
                 "--seed", "5", "--out", str(sim), "--quiet"]) == 0
    poses = tmp_path / "poses.jsonl"
    assert main(["estimate", "--frames", str(sim / "frames.jsonl"),
                 "--out", str(poses)]) == 0
    rows = read_jsonl(poses)
    assert len(rows) == 6
    assert all(r["converged"] for r in rows)
    assert all(r["rms_reprojection_error"] < 1.0 for r in rows)
    mean_iterations = sum(r["iterations_used"] for r in rows) / 6
    assert (f"0 not converged, {mean_iterations:.2f} LM iterations per frame"
            in capsys.readouterr().err)


def test_calibrate_on_ground_truth_sweep(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--samples-per-axis", "20", "--sigma", "0",
                 "--seed", "9", "--out", str(sim), "--quiet"]) == 0
    calib = tmp_path / "calib.json"
    scatter = tmp_path / "scatter.csv"
    rc = main(["calibrate", "--data", str(sim / "sweep.csv"), "--split", "0.8", "--seed", "9", "--out", str(calib),
               "--scatter-csv", str(scatter), "--quiet"])
    assert rc == 0
    report = read_json(calib)
    assert len(report["models"]) == 6
    assert all(m["r2_test"] > 0.9999 for m in report["models"])
    lines = scatter.read_text().splitlines()
    assert lines[0] == "wrench_axis,sample,actual,predicted,subset"
    assert len(lines) == 1 + 6 * 120


def test_sensitivity_with_defaults(pipeline_dir, tmp_path):
    out = tmp_path / "sens.json"
    rc = main(["sensitivity", "--calib", str(pipeline_dir / "calib.json"),
               "--out", str(out), "--quiet"])
    assert rc == 0
    data = read_json(out)
    assert data["delta_l_min_mm"] == pytest.approx(0.0135, abs=1e-4)
    assert data["delta_theta_min_rad"] == pytest.approx(0.0136, abs=1e-4)
    assert data["euler_convention"] == "XYZ-intrinsic"


def test_monitor_threshold_override(pipeline_dir, tmp_path):
    episode = tmp_path / "episode.json"
    rc = main(["monitor", "--threshold", "0.5", "--frames", "12", "--debounce", "2",
               "--poses", str(pipeline_dir / "poses.jsonl"),
               "--out", str(episode), "--quiet"])
    assert rc == 0
    data = read_json(episode)
    assert data["config"] == {"threshold_mm": 0.5, "total_frames": 12,
                              "control_interval_s": 0.02, "debounce_frames": 2}


def test_monitor_object_preset(pipeline_dir, tmp_path):
    episode = tmp_path / "episode.json"
    rc = main(["monitor", "--object", "seaweed",
               "--poses", str(pipeline_dir / "poses.jsonl"),
               "--out", str(episode), "--quiet"])
    # The pipeline sweep includes large deformations, so contact fires; the
    # point here is preset resolution and file output.
    assert rc == 0
    data = read_json(episode)
    assert data["config"]["threshold_mm"] == 0.01
    assert data["config"]["total_frames"] == 150
    assert data["config"]["control_interval_s"] == 0.02


def test_monitor_skips_a_frame_rotated_out_of_range(tmp_path):
    # Row 8, approach frame 3 after the 5 reference rows, is turned 180 deg
    # about x: a skipped frame, not the end of the episode.
    rest = {"rotation": np.eye(3).tolist(), "translation": [0.0, 0.0, 10.0]}
    flipped = {**rest, "rotation": np.diag([1.0, -1.0, -1.0]).tolist()}
    poses = tmp_path / "poses.jsonl"
    poses.write_text("".join(json.dumps({
        "frame": i, "pose": flipped if i == 8 else rest, "rms_reprojection_error": 0.0,
        "iterations_used": 1, "converged": True}) + "\n" for i in range(35)))
    episode = tmp_path / "episode.json"
    assert main(["monitor", "--object", "chip", "--poses", str(poses), "--out", str(episode),
                 "--quiet"]) == 0
    data = read_json(episode)
    assert data["event"] is None and data["skipped_frames"] == [3]
    assert [np.isnan(v) for v in data["delta_z_mm"]] == [f == 3 for f in range(30)]


def _turned_about_x(row):
    rotation = np.array(row["pose"]["rotation"]) @ np.diag([1.0, -1.0, -1.0])
    return {**row, "pose": {**row["pose"], "rotation": rotation.tolist()}}


@pytest.mark.parametrize("edit, detail", [
    (lambda rows: rows[:2] + [_turned_about_x(rows[2])] + rows[3:],
     "relative rotation outside the +-pi/2 operating range"),
    (lambda rows: rows[:3], "stream ended during reference capture"),
    (lambda rows: rows[:7], "stream ended at approach frame 2"),
], ids=["reference_row_rotated", "three_rows", "seven_rows"])
def test_monitor_errors_name_the_poses_file(tmp_path, capsys, pipeline_dir, edit, detail):
    # Row 3 lies inside the 5-frame reference window; no frame is named,
    # since the bad row may be the reference anchor.
    poses = tmp_path / "poses.jsonl"
    poses.write_text("".join(json.dumps(r) + "\n"
                             for r in edit(read_jsonl(pipeline_dir / "poses.jsonl"))))
    rc = main(["monitor", "--threshold", "0.5", "--frames", "12", "--poses", str(poses),
               "--out", str(tmp_path / "episode.json"), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {poses}: bad pose stream: {detail}\n"


def test_pipeline_outputs(pipeline_dir):
    for name in ("sweep.csv", "frames.jsonl", "poses.jsonl",
                 "sweep_estimated.csv", "calib.json", "sensitivity.json",
                 "manifest.json"):
        assert (pipeline_dir / name).exists()
    sens = read_json(pipeline_dir / "sensitivity.json")
    rel = np.abs(np.array(sens["wrench_floor"]) - REFERENCE_WRENCH_FLOOR) / REFERENCE_WRENCH_FLOOR
    assert np.max(rel) < 0.01
    poses = read_jsonl(pipeline_dir / "poses.jsonl")
    assert all(r["converged"] for r in poses)


def test_pipeline_reports_stage_times_unless_quiet(tmp_path, capsys):
    argv = ["pipeline", "--seed", "7", "--samples-per-axis", "20"]
    assert main(argv + ["--out", str(tmp_path / "loud")]) == 0
    err = capsys.readouterr().err
    for stage in (r"simulated 120 frames", r"wrote sweep\.csv and frames\.jsonl",
                  r"estimated 120 poses", r"calibrated", r"analyzed sensitivity"):
        assert re.search(stage + r" in \d[\d.e+-]* s", err), stage
    assert main(argv + ["--out", str(tmp_path / "quiet"), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    for path in sorted((tmp_path / "loud").iterdir()):
        assert path.read_bytes() == (tmp_path / "quiet" / path.name).read_bytes(), path.name


@pytest.mark.parametrize("argv, expected", [
    (["calibrate", "--data", "{data}", "--split", "1e-9"],
     "the training split holds 0 of 120 samples but the fit needs at least 8"),
    (["calibrate", "--data", "{data}", "--split", "0.9999999"],
     "the held-out split holds 0 of 120 samples but the evaluation needs at least 2"),
    (["pipeline", "--samples-per-axis", "10", "--split", "1e-9"],
     "stage 'calibrate': the training split holds 0 of 60 samples"),
], ids=["calibrate_1e-9", "calibrate_0.9999999", "pipeline_1e-9"])
def test_extreme_split_names_the_starved_side(tmp_path, capsys, pipeline_dir, argv, expected):
    argv = [a.format(data=pipeline_dir / "sweep.csv") for a in argv]
    rc = main([*argv, "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {expected}") and err.count("\n") == 1


def test_pipeline_zero_noise_r2(tmp_path):
    out = tmp_path / "zero"
    rc = main(["pipeline", "--seed", "3", "--sigma", "0", "--out", str(out),
               "--samples-per-axis", "20", "--quiet"])
    assert rc == 0
    report = read_json(out / "calib.json")
    assert all(m["r2_test"] > 0.9999 for m in report["models"])


def test_split_excites_every_axis_of_a_small_sweep(tmp_path, pipeline_dir):
    # The split is stratified by dominant wrench axis: at 20 samples per axis
    # every seed excites every axis on both sides.
    for seed in range(10):
        assert main(["calibrate", "--data", str(pipeline_dir / "sweep.csv"), "--seed", str(seed),
                     "--out", str(tmp_path / "calib.json"), "--quiet"]) == 0


def test_calibrate_starved_split_reports_axis(tmp_path, capsys, pipeline_dir):
    # A sweep CSV with a single tz sample: its group of one trains, so the
    # held-out side has no tz excitation; the failure names the axis and the
    # remedy.
    lines = (pipeline_dir / "sweep.csv").read_text().splitlines(keepends=True)
    data = tmp_path / "sweep.csv"
    data.write_text("".join(lines[:-19]))
    rc = main(["calibrate", "--data", str(data), "--out", str(tmp_path / "calib.json"),
               "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: wrench axis 5 (tz) has no excitation in the held-out split; increase the "
        "sample count or change the split seed\n")


def test_degenerate_frames_are_numerical_failure(tmp_path, capsys):
    frames = tmp_path / "frames.jsonl"
    entries = [{"tag_id": i // 4, "corner": i % 4,
                "ref_mm": [float(i), 0.0, 0.0], "img_px": [10.0 + i, 20.0]}
               for i in range(8)]
    frames.write_text(json.dumps({"frame": 0, "timestamp_s": 0.0, "entries": entries}) + "\n")
    rc = main(["estimate", "--frames", str(frames),
               "--out", str(tmp_path / "poses.jsonl"), "--quiet"])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("degenerate_first, expected_rc", [(True, 2), (False, 1)])
def test_first_bad_frame_sets_the_exit_code(tmp_path, capsys, frame_row, degenerate_first,
                                            expected_rc):
    # Two tags on one line pass the tag gate but not EPnP (exit 2); one tag
    # fails the gate (exit 1). Whichever comes first in the file decides.
    collinear = {"frame": 1, "timestamp_s": 0.02, "entries": [
        {"tag_id": i // 4, "corner": i % 4, "ref_mm": [float(i), 0.0, 0.0],
         "img_px": [10.0 + i, 20.0]} for i in range(8)]}
    one_tag = {**frame_row, "frame": 2, "entries": frame_row["entries"][:4]}
    bad = [collinear, one_tag] if degenerate_first else [one_tag, collinear]
    frames = tmp_path / "frames.jsonl"
    frames.write_text("".join(json.dumps(row) + "\n" for row in [frame_row, *bad, frame_row]))
    rc = main(["estimate", "--frames", str(frames),
               "--out", str(tmp_path / "poses.jsonl"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == expected_rc
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("field, scale", [("img_px", (1e300, 1e300)),
                                          ("ref_mm", (1e200, 1e200, 1.0))],
                         ids=["img_1e300", "ref_xy_1e200"])
def test_extreme_finite_coordinates_are_numerical_failure(tmp_path, capsys, frame_row, field,
                                                          scale):
    # Finite values this large make EPnP's decompositions fail to converge.
    row = {**frame_row, "entries": [
        {**e, field: [v * s for v, s in zip(e[field], scale)]} for e in frame_row["entries"]]}
    frames = tmp_path / "frames.jsonl"
    frames.write_text(json.dumps(row) + "\n")
    rc = main(["estimate", "--frames", str(frames),
               "--out", str(tmp_path / "poses.jsonl"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


@pytest.mark.parametrize("params, expected", [
    ({"d_r": 1e308}, "error: {file}: bad detection params: rotation floor must lie in "
                     "(0, pi/2) rad, got 5.42"),
    ({"w_img_px": 1e-308}, "error: {file}: bad detection params: translation floor must be "
                           "positive and finite, got inf mm"),
    ({"w_tag_mm": 1e308}, "numerical failure: wrench axis 0: weights x pose floor is not "
                          "finite"),
], ids=["d_r_1e308", "w_img_px_1e-308", "w_tag_mm_1e308"])
def test_params_pose_floor_errors_name_their_source(tmp_path, capsys, pipeline_dir, params,
                                                     expected):
    # Each params file passes the per-field checks; its pose floor does not
    # fit the Euler regime, overflows, or overflows a wrench axis.
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    rc = main(["sensitivity", "--params", str(path), "--calib", str(pipeline_dir / "calib.json"),
               "--out", str(tmp_path / "sens.json"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == (2 if expected.startswith("numerical") else 1)
    assert err.startswith(expected.format(file=path)) and err.count("\n") == 1, err


@pytest.mark.parametrize("expected", ["wrench floor components must be positive"],
                         ids=["zero_slope"])
def test_report_without_a_wrench_floor_names_its_file(tmp_path, capsys, pipeline_dir, expected):
    # The report passes its reader but gives no wrench floor: one axis model
    # has all six weights 0.
    calib = tmp_path / "calib.json"
    assert main(["calibrate", "--data", str(pipeline_dir / "sweep.csv"),
                 "--out", str(calib), "--quiet"]) == 0
    report = read_json(calib)
    report["models"][2]["weights"] = [0.0] * 6
    calib.write_text(json.dumps(report))
    rc = main(["sensitivity", "--calib", str(calib), "--out", str(tmp_path / "sens.json"),
               "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {calib}: bad calibration report: {expected}\n"


def test_non_coplanar_frame_is_numerical_failure(tmp_path, capsys, pipeline_dir):
    # The third row has 8 of its corners lifted 1 mm off the plate plane,
    # pixels unchanged: EPnP rejects it rather than solving it.
    rows = read_jsonl(pipeline_dir / "frames.jsonl")[:5]
    for entry in rows[2]["entries"][:8]:
        entry["ref_mm"][2] += 1.0
    frames = tmp_path / "frames.jsonl"
    frames.write_text("".join(json.dumps(row) + "\n" for row in rows))
    rc = main(["estimate", "--frames", str(frames),
               "--out", str(tmp_path / "poses.jsonl"), "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "numerical failure: reference points are not coplanar\n")


@pytest.mark.parametrize("argv", [
    ["simulate", "--samples-per-axis", "-1"],
    ["pipeline", "--samples-per-axis", "-1"],
    ["simulate", "--sigma", "nan"],
    ["pipeline", "--sigma", "nan"],
    ["monitor", "--threshold", "nan", "--frames", "12", "--poses", "{poses}"],
    ["layout", "emit", "--tag-size", "nan"],
    ["layout", "emit", "--ring-radius", "nan"],
    ["layout", "emit", "--ring-radius", "inf"],
    ["monitor", "--threshold", "0.5", "--frames", "12", "--start-joints", "nan",
     "--poses", "{poses}"],
    ["monitor", "--threshold", "0.5", "--frames", "12", "--target-joints", "inf",
     "--poses", "{poses}"],
    ["calibrate", "--data", "{data}", "--seed", "-1"],
    ["pipeline", "--sigma", "abc"],
    ["estimate"],
    ["frobnicate"],
    # Only simulate, calibrate and pipeline take --seed.
    ["layout", "emit", "--seed", "1"],
    ["estimate", "--frames", "{frames}", "--seed", "1"],
    ["sensitivity", "--calib", "{calib}", "--seed", "1"],
    ["monitor", "--object", "chip", "--poses", "{poses}", "--seed", "1"],
    # Extreme values keep the message to one short line.
    ["simulate", "--sigma", "1e308", "--samples-per-axis", "5"],
    ["layout", "emit", "--tag-size", "1e308"],
    ["layout", "emit", "--border", "1e307"],
], ids=["simulate_negative_count", "pipeline_negative_count", "simulate_nan_sigma",
        "pipeline_nan_sigma", "monitor_nan_threshold", "layout_nan_tag_size",
        "layout_nan_ring_radius", "layout_inf_ring_radius", "monitor_nan_start_joints",
        "monitor_inf_target_joints", "calibrate_negative_seed", "pipeline_non_numeric_sigma",
        "estimate_without_frames", "unknown_subcommand", "layout_seed", "estimate_seed",
        "sensitivity_seed", "monitor_seed", "simulate_extreme_sigma", "layout_extreme_tag_size",
        "layout_extreme_border"])
def test_out_of_range_options_are_validation_errors(tmp_path, capsys, pipeline_dir, argv):
    argv = [a.format(poses=pipeline_dir / "poses.jsonl", data=pipeline_dir / "sweep_estimated.csv",
                     frames=pipeline_dir / "frames.jsonl", calib=pipeline_dir / "calib.json")
            for a in argv]
    rc = main([*argv, "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200


@pytest.mark.parametrize("argv", [["-h"], ["--version"], ["estimate", "-h"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


_CONFIG_FILES = {
    # kind: (argv with {config} for the file under test, a valid payload, a numeric key)
    "camera": (["simulate", "--axis", "0", "--samples-per-axis", "1", "--camera", "{config}"],
               default_camera().to_dict(), "fx"),
    "layout": (["simulate", "--axis", "0", "--samples-per-axis", "1", "--layout", "{config}"],
               default_layout().to_dict(), "tag_size_mm"),
    "params": (["sensitivity", "--calib", "{calib}", "--params", "{config}"],
               DetectionParams().to_dict(), "d_r"),
    "calib": (["sensitivity", "--calib", "{config}"], None, "split_fraction"),
}
# A value a lax reader takes: a boolean or a numeric string for a number, a
# fractional number for an integer it truncates, an integer beyond the int64
# tag ids, a tag center with a third value, a non-finite fit metric, a null
# test metric (only an unscored model in memory has one).
# (kind, corruption): (path, value).
_BAD_VALUES = {
    ("camera", "boolean"): (["fy"], True),
    ("camera", "numeric_string"): (["cx"], "128"),
    ("layout", "boolean"): (["tag_size_mm"], True),
    ("layout", "numeric_string"): (["border_mm"], "0.2"),
    ("layout", "fractional_integer"): (["tags", 34, "id"], 34.9),
    ("layout", "int64_overflow_id"): (["tags", 34, "id"], 99999999999999999999999),
    ("layout", "three_value_center"): (["tags", 5, "center_mm"], [2.6, 0.0, "x"]),
    ("params", "boolean"): (["d_r"], True),
    ("params", "numeric_string"): (["d_r"], "0.25"),
    ("calib", "boolean"): (["models", 3, "weights", 1], True),
    ("calib", "numeric_string"): (["split_fraction"], "0.8"),
    ("calib", "fractional_integer"): (["split_seed"], 1.9),
    ("calib", "nan_r2_train"): (["models", 2, "r2_train"], float("nan")),
    ("calib", "inf_r2_test"): (["models", 0, "r2_test"], -float("inf")),
    ("calib", "null_r2_test"): (["models", 1, "r2_test"], None),
    ("calib", "null_rmse_test"): (["models", 4, "rmse_test"], None),
}
# A key no reader knows, such as a misspelling or a field the model lacks:
# (kind, corruption): (path to the object, key).
_UNKNOWN_KEYS = {
    ("camera", "unknown_key"): ([], "k1"),  # a distortion coefficient a pinhole ignores
    ("layout", "unknown_key"): ([], "tag_size"),
    ("layout", "unknown_tag_key"): (["tags", 5], "yaw"),
    ("params", "unknown_key"): ([], "w_tag"),  # a typo for w_tag_mm
    ("calib", "unknown_key"): ([], "seed"),
    ("calib", "unknown_model_key"): (["models", 2], "r2"),
}


def _set_at(payload, path, value):
    """Set the leaf of the JSON value ``payload`` that ``path`` (keys and
    indices) leads to."""
    for step in path[:-1]:
        payload = payload[step]
    payload[path[-1]] = value


def _number_leaves(value, path=()):
    """The path of every number in the JSON value ``value``, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _number_leaves(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _number_leaves(item, (*path, i))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


# The structure of calib.json as the pipeline writes it: six axis models.
_CALIB_SHAPE = json.loads(json.dumps(CalibrationReport(
    models=tuple(AxisModel(axis=a, weights=(1.0,) * 6, intercept=0.0, r2_train=1.0,
                           rmse_train=0.0, r2_test=1.0, rmse_test=0.0)
                 for a in range(6)),
    split_fraction=0.8, split_seed=0, sample_count=10).to_dict()))
_WHAT = {"camera": "camera", "layout": "layout", "params": "detection params",
         "calib": "calibration report"}


def _null_cases():
    """(kind, path) for every number leaf of every config file; of the layout's
    tags, only the first and the last."""
    for kind, (_, payload, _) in _CONFIG_FILES.items():
        payload = _CALIB_SHAPE if payload is None else payload
        for path in _number_leaves(payload):
            if kind != "layout" or path[0] != "tags" or path[1] in (0, len(payload["tags"]) - 1):
                yield pytest.param(kind, path, id=f"{kind}-{'.'.join(map(str, path))}")


@pytest.mark.parametrize("kind, path", list(_null_cases()))
def test_null_number_is_a_validation_error(tmp_path, capsys, pipeline_dir, kind, path):
    argv, payload, _ = _CONFIG_FILES[kind]
    calib = pipeline_dir / "calib.json"
    payload = read_json(calib) if payload is None else json.loads(json.dumps(payload))
    _set_at(payload, path, None)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    rc = main([a.format(config=config, calib=calib) for a in argv]
              + ["--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {config}: bad {_WHAT[kind]}: ") and err.count("\n") == 1


@pytest.mark.parametrize("kind, corruption", [
    (kind, corruption) for kind in _CONFIG_FILES
    for corruption in ("truncated", "missing_key", "non_numeric", "non_object", "nan", "inf",
                       "non_utf8")
    if (kind, corruption) != ("params", "missing_key")  # every params key is optional
] + [("calib", "nan_coefficient"), ("calib", "inf_coefficient"), ("calib", "permuted_models")]
  + list(_BAD_VALUES) + list(_UNKNOWN_KEYS))
def test_malformed_config_files_are_validation_errors(tmp_path, capsys, pipeline_dir, kind,
                                                      corruption):
    argv, payload, key = _CONFIG_FILES[kind]
    calib = pipeline_dir / "calib.json"
    payload = read_json(calib) if payload is None else json.loads(json.dumps(payload))
    if corruption == "missing_key":
        payload.pop(key)
    elif corruption == "non_numeric":
        payload[key] = "abc"
    elif corruption in ("nan", "inf"):
        payload[key] = float(corruption)
    elif corruption.endswith("_coefficient"):
        payload["models"][3]["weights"][1] = float(corruption[:3])
    elif corruption == "permuted_models":  # each model still names its own axis
        payload["models"][1], payload["models"][4] = payload["models"][4], payload["models"][1]
    elif (kind, corruption) in _UNKNOWN_KEYS:
        path, unknown = _UNKNOWN_KEYS[kind, corruption]
        _set_at(payload, [*path, unknown], 3.0)
    elif (kind, corruption) in _BAD_VALUES:
        _set_at(payload, *_BAD_VALUES[kind, corruption])
    data = json.dumps([1] if corruption == "non_object" else payload).encode()
    if corruption == "truncated":
        data = data[:len(data) // 2]
    elif corruption == "non_utf8":
        data = data[:1] + b"\xff" + data[1:]
    config = tmp_path / "config.json"
    config.write_bytes(data)
    rc = main([a.format(config=config, calib=calib) for a in argv]
              + ["--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {config}: ") and err.count("\n") == 1
    if (kind, corruption) in _UNKNOWN_KEYS:
        assert f"unknown keys ['{_UNKNOWN_KEYS[kind, corruption][1]}']" in err
    if corruption == "non_utf8":
        assert err == f"error: {config}: byte 0xff is not UTF-8\n"
    if corruption == "permuted_models":
        assert err == (f"error: {config}: bad calibration report: report must list one model "
                       "per wrench axis, in axis order 0..5\n")


def test_camera_and_layout_that_project_off_the_plate_are_both_named(tmp_path, capsys):
    # An fx and a tag x of 1e308 each pass their file's checks; the
    # projection at the reference pose fails, and the line names both files.
    camera, layout = tmp_path / "camera.json", tmp_path / "layout.json"
    camera.write_text(json.dumps({**default_camera().to_dict(), "fx": 1e308}))
    payload = default_layout().to_dict()
    payload["tags"][0]["center_mm"][0] = 1e308
    layout.write_text(json.dumps(payload))
    rc = main(["simulate", "--axis", "0", "--samples-per-axis", "1", "--camera", str(camera),
               "--layout", str(layout), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {camera} and {layout}: bad camera and layout: "
                                       "correspondence coordinates must be finite\n")


def test_camera_that_does_not_see_the_plate_at_rest_is_named(tmp_path, capsys):
    # A 64x48 image at the default field of view holds only the middle of
    # the plate: the noiseless observation at rest puts tag 0 outside it.
    camera = tmp_path / "camera.json"
    camera.write_text(json.dumps({"fx": 73.9, "fy": 73.9, "cx": 32.0, "cy": 24.0,
                                  "image_width": 64.0, "image_height": 48.0}))
    rc = main(["simulate", "--axis", "0", "--samples-per-axis", "1", "--camera", str(camera),
               "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {camera}: bad camera: tag 0 corner 0 at "
                                       "(5.396, -2.604) is outside the 64x48 image\n")


@pytest.mark.parametrize("fx", [1e308, 1e6, None], ids=["overflowing", "large", "no_camera"])
def test_estimate_names_a_camera_that_overflows_at_rest(tmp_path, capsys, fx):
    # An fx of 1e308 passes the camera file's checks, and the solve would
    # fail in EPnP (exit 2) without naming the file.
    sim = tmp_path / "sim"
    assert main(["simulate", "--seed", "3", "--samples-per-axis", "2", "--out", str(sim),
                 "--quiet"]) == 0
    camera = tmp_path / "camera.json"
    camera.write_text(json.dumps({**default_camera().to_dict(), "fx": fx}))
    rc = main(["estimate", "--frames", str(sim / "frames.jsonl"),
               *([] if fx is None else ["--camera", str(camera)]),
               "--out", str(tmp_path / "poses.jsonl"), "--quiet"])
    err = capsys.readouterr().err
    if fx == 1e308:
        assert (rc, err) == (1, f"error: {camera}: bad camera: the first frame projects to "
                                "non-finite pixels at the reference pose\n")
    else:
        assert (rc, err) == (0, "")


def test_written_config_files_load_back(tmp_path, pipeline_dir):
    # Every configuration file the tool writes, and the default camera,
    # passes the readers that reject unknown keys.
    layout, camera, calib = tmp_path / "layout.json", tmp_path / "camera.json", tmp_path / "c.json"
    assert main(["layout", "emit", "--out", str(layout), "--quiet"]) == 0
    camera.write_text(json.dumps(default_camera().to_dict()))
    sim = tmp_path / "sim"
    assert main(["simulate", "--samples-per-axis", "20", "--layout", str(layout),
                 "--camera", str(camera), "--out", str(sim), "--quiet"]) == 0
    assert main(["calibrate", "--data", str(sim / "sweep.csv"), "--out", str(calib),
                 "--quiet"]) == 0
    for report in (calib, pipeline_dir / "calib.json"):
        assert main(["sensitivity", "--calib", str(report), "--out", str(tmp_path / "s.json"),
                     "--quiet"]) == 0


def test_simulate_zero_samples_writes_empty_data(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--samples-per-axis", "0", "--out", str(out), "--quiet"]) == 0
    assert (out / "frames.jsonl").read_text() == ""
    assert len((out / "sweep.csv").read_text().splitlines()) == 1


def test_missing_input_file_is_io_failure(tmp_path, capsys):
    rc = main(["estimate", "--frames", str(tmp_path / "nope.jsonl"),
               "--out", str(tmp_path / "poses.jsonl"), "--quiet"])
    assert rc == 3
    assert "i/o failure" in capsys.readouterr().err


def test_monitor_requires_config(tmp_path, pipeline_dir, capsys):
    rc = main(["monitor", "--poses", str(pipeline_dir / "poses.jsonl"),
               "--out", str(tmp_path / "e.json"), "--quiet"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def frame_row(tmp_path_factory):
    sim = tmp_path_factory.mktemp("one_frame")
    assert main(["simulate", "--axis", "2", "--samples-per-axis", "1", "--sigma", "0",
                 "--seed", "4", "--out", str(sim), "--quiet"]) == 0
    return read_jsonl(sim / "frames.jsonl")[0]


@pytest.mark.parametrize("corners, flags, expected_err", [
    (4, [], "1 tag(s) / 4 corner(s); standard mode needs >= 2 tag(s) and 8 corners"),
    (4, ["--allow-single-tag"], None),
    (3, ["--allow-single-tag"],
     "1 tag(s) / 3 corner(s); single-tag mode needs >= 1 tag(s) and 4 corners"),
], ids=["one_tag_standard", "one_tag_single_tag", "three_corners_single_tag"])
def test_estimate_applies_the_tag_gate(tmp_path, capsys, frame_row, corners, flags,
                                       expected_err):
    one_tag = {**frame_row, "frame": 1, "entries": frame_row["entries"][:corners]}
    frames = tmp_path / "frames.jsonl"
    frames.write_text(json.dumps(frame_row) + "\n" + json.dumps(one_tag) + "\n")
    rc = main(["estimate", "--frames", str(frames), *flags,
               "--out", str(tmp_path / "poses.jsonl"), "--quiet"])
    assert rc == (0 if expected_err is None else 1)
    if expected_err is not None:
        assert capsys.readouterr().err == f"error: {expected_err}\n"


def _drop_ref(row):
    row["entries"][3].pop("ref_mm")
    return json.dumps(row)


def _two_value_ref(row):
    row["entries"][3]["ref_mm"] = row["entries"][3]["ref_mm"][:2]
    return json.dumps(row)


def _ragged_ref(row):
    # Five values over two entries: the flattened count still fits, the lists do not.
    row["entries"][3]["ref_mm"] = row["entries"][3]["ref_mm"][:2]
    row["entries"][4]["ref_mm"].append(0.0)
    return json.dumps(row)


def _retype(index, key, convert):
    # numpy reads each converted value back as the original integer.
    def corrupt(row):
        entry = row["entries"][index]
        entry[key] = convert(entry[key])
        return json.dumps(row)
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _drop_ref,
    lambda row: json.dumps(row)[:200],
    _two_value_ref,
    _ragged_ref,
    _retype(3, "tag_id", lambda v: v + 0.5),
    _retype(3, "corner", lambda v: v + 0.9),
    _retype(3, "tag_id", str),
    _retype(1, "corner", bool),
    _retype(3, "corner", float),
    lambda row: json.dumps({**row, "frame": "abc"}),
    lambda row: json.dumps({**row, "frame": True}),
], ids=["missing_ref_mm", "truncated_json", "two_value_ref_mm", "ragged_ref_mm", "fractional_tag_id",
        "fractional_corner", "string_tag_id", "boolean_corner", "float_corner", "string_frame",
        "boolean_frame"])
def test_malformed_frames_are_validation_errors(tmp_path, capsys, frame_row, corrupt):
    frames = tmp_path / "frames.jsonl"
    good = json.dumps(frame_row)
    frames.write_text(good + "\n\n" + corrupt(json.loads(good)) + "\n")
    rc = main(["estimate", "--frames", str(frames),
               "--out", str(tmp_path / "poses.jsonl"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{frames} line 3:" in err


@pytest.mark.parametrize("key", ["ref_mm", "img_px"])
@pytest.mark.parametrize("value", ["64.5", True], ids=["string", "boolean"])
def test_frame_coordinates_must_be_json_numbers(tmp_path, capsys, frame_row, key, value):
    # numpy would read "64.5" as 64.5 and true as 1.0.
    row = json.loads(json.dumps(frame_row))
    row["entries"][3][key][1] = value
    frames = tmp_path / "frames.jsonl"
    frames.write_text(json.dumps(frame_row) + "\n" + json.dumps(row) + "\n")
    rc = main(["estimate", "--frames", str(frames),
               "--out", str(tmp_path / "poses.jsonl"), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {frames} line 2: bad frame row: {key} must be a number, got {value!r}\n")


@pytest.mark.parametrize("key, value, detail", [
    ("tag_id", 2**63, "tag ids must fit in int64, got 9223372036854775808"),
    ("tag_id", -2**63 - 1, "tag ids must fit in int64, got -9223372036854775809"),
    ("corner", 2**64, "corner_index must be 0..3, got 18446744073709551616"),
], ids=["tag_id_2_63", "tag_id_below_int64", "corner_2_64"])
def test_frame_integers_must_fit_in_int64(tmp_path, capsys, frame_row, key, value, detail):
    # numpy's own overflow message names neither the field nor the rule.
    row = json.loads(json.dumps(frame_row))
    row["entries"][3][key] = value
    frames = tmp_path / "frames.jsonl"
    frames.write_text(json.dumps(frame_row) + "\n" + json.dumps(row) + "\n")
    rc = main(["estimate", "--frames", str(frames),
               "--out", str(tmp_path / "poses.jsonl"), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {frames} line 2: bad frame row: {detail}\n"


@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    sim = tmp_path_factory.mktemp("sweep")
    assert main(["simulate", "--samples-per-axis", "3", "--sigma", "0",
                 "--seed", "4", "--out", str(sim), "--quiet"]) == 0
    with (sim / "sweep.csv").open(newline="") as fh:
        return list(csv.DictReader(fh))


_OUT_OF_RANGE = "euler deltas must satisfy |angle| < pi/2 (operating regime)"


# edits: {physical line: cells}; the error names line 5.
@pytest.mark.parametrize("edits, detail", [
    ({5: {"fx": "abc"}}, None),
    ({5: {"dly": ""}}, None),
    ({5: {"fz": "nan", "dlz": "inf"}}, "wrench components must be finite"),
    ({5: {"dthy": "1.6"}}, _OUT_OF_RANGE),
    ({5: {"dlz": "inf"}}, "deformation components must be finite"),
    ({5: {"dthy": "1.6"}, 7: {"fz": "nan"}}, _OUT_OF_RANGE),
], ids=["non_numeric", "empty", "nan_inf", "rotation_1_6_rad", "deformation_inf",
        "first_bad_row"])
def test_malformed_sweep_csv_is_validation_error(tmp_path, capsys, sweep_rows, edits, detail):
    rows = [dict(r) for r in sweep_rows]
    for line, cells in edits.items():
        rows[line - 2].update(cells)
    data = tmp_path / "sweep.csv"
    with data.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    rc = main(["calibrate", "--data", str(data), "--out", str(tmp_path / "calib.json"),
               "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{data} line 5: bad sweep row:" in err
    if detail is not None:
        assert err == f"error: {data} line 5: bad sweep row: {detail}\n"


finite = st.floats(allow_nan=False, allow_infinity=False)
angle = st.floats(min_value=-np.pi / 2, max_value=np.pi / 2, exclude_min=True, exclude_max=True)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 20).flatmap(lambda n: st.tuples(
    arrays(np.float64, (n, 6), elements=finite),
    arrays(np.float64, (n, 3), elements=finite),
    arrays(np.float64, (n, 3), elements=angle),
)))
def test_sweep_csv_round_trip(tmp_path, data):
    wrenches, translations, rotations = data
    deltas = np.hstack([translations, rotations])
    n = len(wrenches)
    path = tmp_path / "sweep.csv"
    _write_sweep_csv(path, [i % 6 for i in range(n)], [float(i) for i in range(n)],
                     wrenches, deltas)
    x, y = _read_sweep_csv(path)
    assert x.shape == y.shape == (n, 6)
    np.testing.assert_array_equal(x, deltas)
    np.testing.assert_array_equal(y, wrenches)


def _without_pose(row):
    row.pop("pose")
    return row


def _boolean_translation(row):
    row["pose"]["translation"][0] = True
    return row


@pytest.mark.parametrize("corrupt", [
    _without_pose,
    lambda row: {**row, "iterations_used": "x"},
    lambda row: {**row, "converged": "maybe"},
    lambda row: {**row, "rms_reprojection_error": float("nan")},
    lambda row: {**row, "iterations_used": -1},
    lambda row: {**row, "iterations_used": 2.7},
    lambda row: {**row, "iterations_used": "2"},
    lambda row: {**row, "iterations_used": True},
    lambda row: {**row, "rms_reprojection_error": str(row["rms_reprojection_error"])},
    _boolean_translation,
], ids=["missing_pose", "non_integer_iterations", "non_boolean_converged", "nan_rms",
        "negative_iterations", "fractional_iterations", "string_iterations",
        "boolean_iterations", "string_rms", "boolean_translation"])
def test_malformed_poses_are_validation_errors(tmp_path, capsys, pipeline_dir, corrupt):
    rows = read_jsonl(pipeline_dir / "poses.jsonl")
    rows[2] = corrupt(rows[2])
    poses = tmp_path / "poses.jsonl"
    poses.write_text("".join(json.dumps(r) + "\n" for r in rows))
    rc = main(["monitor", "--threshold", "0.5", "--frames", "12", "--poses", str(poses),
               "--out", str(tmp_path / "episode.json"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{poses} line 3: bad pose row:" in err


@pytest.mark.parametrize("argv, name", [
    (["estimate", "--frames", "{data}"], "frames.jsonl"),
    (["monitor", "--threshold", "0.5", "--frames", "12", "--poses", "{data}"], "poses.jsonl"),
    (["calibrate", "--data", "{data}"], "sweep.csv"),
], ids=["estimate_frames", "monitor_poses", "calibrate_data"])
def test_non_utf8_input_is_validation_error(tmp_path, capsys, pipeline_dir, argv, name):
    lines = (pipeline_dir / name).read_bytes().splitlines(keepends=True)
    lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
    data = tmp_path / name
    data.write_bytes(b"".join(lines))
    rc = main([a.format(data=data) for a in argv] + ["--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {data} line 3: byte 0xff is not UTF-8\n"


@pytest.mark.parametrize("flag", ["--start-joints", "--target-joints"])
def test_non_numeric_joints_are_validation_errors(tmp_path, capsys, pipeline_dir, flag):
    rc = main(["monitor", "--threshold", "0.5", "--frames", "12", flag, "a,b",
               "--poses", str(pipeline_dir / "poses.jsonl"),
               "--out", str(tmp_path / "episode.json"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and f"{flag} must be comma-separated numbers" in err


def test_oversized_sweep_csv_field_names_its_line(tmp_path, capsys, pipeline_dir):
    lines = (pipeline_dir / "sweep.csv").read_bytes().splitlines(keepends=True)
    lines[1] = b"[" * 200_000 + lines[1]  # past the csv module's 131072-character field limit
    data = tmp_path / "sweep.csv"
    data.write_bytes(b"".join(lines))
    rc = main(["calibrate", "--data", str(data), "--out", str(tmp_path / "c.json"), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {data} line 2: bad sweep row: field larger than field limit (131072)\n")


# ------------------------------------------------------- mutated input files

# A JSON or CSV number that is not part of a key or of another number.
_NUMBER = re.compile(rb"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?![\w.])")
_NUMBER_SWAPS = [b"NaN", b"Infinity", b"1e308", b"9" * 23, b'"x"', b"null"]
_MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(["truncate", "flip", "duplicate", "nest"]),
              st.integers(0, 2**24), st.integers(1, 255)),
    st.tuples(st.just("number"), st.integers(0, 2**24), st.sampled_from(_NUMBER_SWAPS)),
)


def _mutate(data: bytes, op: str, index: int, value) -> bytes:
    """``data`` with one mutation: cut at byte ``index``, XOR byte ``index``
    with ``value``, repeat line ``index``, insert 5000 ``[`` at byte
    ``index``, or replace number ``index`` with ``value``. Each index wraps
    around the count of its bytes, lines or numbers."""
    if op == "truncate":
        return data[:index % (len(data) + 1)]
    if op == "flip":
        i = index % len(data)
        return data[:i] + bytes([data[i] ^ value]) + data[i + 1:]
    if op == "duplicate":
        lines = data.splitlines(keepends=True)
        i = index % len(lines)
        return b"".join(lines[:i + 1] + lines[i:])
    if op == "nest":
        i = index % (len(data) + 1)
        return data[:i] + b"[" * 5000 + data[i:]
    numbers = list(_NUMBER.finditer(data))
    number = numbers[index % len(numbers)]
    return data[:number.start()] + value + data[number.end():]


@pytest.fixture(scope="module")
def input_files(pipeline_dir):
    """For each of the seven kinds of CLI input file: the argv that reads it
    as ``{file}``, and a small valid file's bytes."""
    calib = pipeline_dir / "calib.json"

    def head(name, n):
        return b"".join((pipeline_dir / name).read_bytes().splitlines(keepends=True)[:n])

    def config(payload):
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()

    simulate = ["simulate", "--axis", "0", "--samples-per-axis", "1"]
    return {
        "frames": (["estimate", "--frames", "{file}"], head("frames.jsonl", 3)),
        "poses": (["monitor", "--threshold", "0.5", "--frames", "12", "--poses", "{file}"],
                  head("poses.jsonl", 20)),
        "sweep": (["calibrate", "--data", "{file}"], (pipeline_dir / "sweep.csv").read_bytes()),
        "camera": ([*simulate, "--camera", "{file}"], config(default_camera().to_dict())),
        "layout": ([*simulate, "--layout", "{file}"], config(default_layout().to_dict())),
        "params": (["sensitivity", "--calib", str(calib), "--params", "{file}"],
                   config(DetectionParams().to_dict())),
        "calib": (["sensitivity", "--calib", "{file}"], calib.read_bytes()),
    }


def _run_mutated(tmp_path, capsys, input_files, kind, mutation):
    """(exit code, stderr, path) of the ``kind`` command on its mutated input,
    run with every warning raised as an error."""
    argv, data = input_files[kind]
    path = tmp_path / f"{kind}.in"
    path.write_bytes(_mutate(data, *mutation))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([a.format(file=path) for a in argv]
                  + ["--out", str(tmp_path / f"{kind}.out"), "--quiet"])
    return rc, capsys.readouterr().err, path


# Each input that once ended in a traceback or in warnings on stderr, with its
# exit code and stderr. Sorted keys put fx third in a camera file, and tag 0's
# x third and its id fifth in a layout file; fz is the fifth number of a sweep row.
_TRIGGERS = {
    **{(kind, ("nest", 0, 0)): (1, "error: {file}" + line + ": invalid JSON: maximum recursion")
       for kind, line in [("frames", " line 1"), ("poses", " line 1"), ("camera", ""),
                          ("layout", ""), ("params", ""), ("calib", "")]},
    ("layout", ("number", 4, b"9" * 23)): (1, "error: {file}: bad layout: tag ids must fit"),
    ("layout", ("number", 2, b"1e308")): (
        1, "error: {file}: bad layout: correspondence coordinates must be finite"),
    ("sweep", ("number", 4, b"1e308")): (2, "numerical failure: wrench axis 2: "),
    ("camera", ("number", 2, b"1e308")): (
        1, "error: {file}: bad camera: correspondence coordinates must be finite"),
}


@pytest.mark.parametrize("kind, mutation", list(_TRIGGERS),
                         ids=[f"{kind}-{op}-{value!r}" for kind, (op, _, value) in _TRIGGERS])
def test_mutation_triggers_exit_with_one_line(tmp_path, capsys, input_files, kind, mutation):
    rc, err, path = _run_mutated(tmp_path, capsys, input_files, kind, mutation)
    expected_rc, prefix = _TRIGGERS[kind, mutation]
    assert rc == expected_rc
    assert err.startswith(prefix.format(file=path)) and err.count("\n") == 1, err


def _pin_triggers(test):
    for kind, mutation in _TRIGGERS:
        test = example(kind=kind, mutation=mutation)(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["frames", "poses", "sweep", "camera", "layout", "params", "calib"]),
       mutation=_MUTATIONS)
@_pin_triggers
def test_mutated_input_files_end_in_a_documented_exit(tmp_path, capsys, input_files, kind,
                                                      mutation):
    # Every mutation of a valid input ends in 0, or in 1, 2 or 3 with one
    # line on stderr: never a traceback, never a warning.
    rc, err, _ = _run_mutated(tmp_path, capsys, input_files, kind, mutation)
    assert rc in (0, 1, 2, 3)
    assert (err == "") if rc == 0 else (err.endswith("\n") and err.count("\n") == 1), err

