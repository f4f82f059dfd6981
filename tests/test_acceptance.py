"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Criteria
  1 sensitivity formulas reproduce the reference minima within 1e-4
  2 zero-noise pipeline reproduces the reference wrench floor within 1%
  3 noisy 1020-sample calibration: r2_test > 0.95, slopes within 5%
  4 pose estimator: zero-noise consistency 1e-6, monotone LM costs,
    analytic Jacobian vs central differences within 1e-5
  5 occlusion robustness ordering with > 2 standard-error margins
  6 contact monitor trigger frames equal the scan oracle, preset table exact
  7 geometry property suite, 1e4 randomized cases per property
  8 pipeline determinism: byte-identical reruns, and the criterion-8 files
    byte-identical to the committed digests
"""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from ringsense.calibration import CalibrationReport
from ringsense.cli import main
from ringsense.contact import (
    OBJECT_PRESETS,
    ApproachTrajectory,
    config_for_object,
    run_episode,
)
from ringsense.geometry import (
    DeformationVector,
    PinholeCamera,
    RigidTransform,
    apply_delta,
    delta_from_poses,
    normal_matrix_from_unit_vector,
    project,
)
from ringsense.layout import visible_subset
from ringsense.pnp import estimate_pose, jacobian_reprojection
from ringsense.pnp import _so3_exp
from ringsense.sensitivity import DetectionParams, min_rotation, min_translation
from ringsense.simulator import default_compliance, project_layout

from conftest import random_pose

REFERENCE_WRENCH_FLOOR = np.array([4.30, 4.22, 9.93, 0.32, 0.13, 8.55])


def check(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def run_pipeline(tmp_path_factory, name: str, sigma: float):
    out = tmp_path_factory.mktemp(name)
    rc = main(["pipeline", "--seed", "7", "--sigma", repr(sigma),
               "--out", str(out), "--quiet"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def zero_noise_run(tmp_path_factory):
    return run_pipeline(tmp_path_factory, "accept_zero", 0.0)


@pytest.fixture(scope="module")
def noisy_run(tmp_path_factory):
    return run_pipeline(tmp_path_factory, "accept_noisy", 0.25)


@pytest.fixture(scope="module")
def noisy_replica(tmp_path_factory):
    return run_pipeline(tmp_path_factory, "accept_noisy_replica", 0.25)


def test_criterion_1_sensitivity_formulas():
    params = DetectionParams(d_r=0.25, w_tag=2.0, w_img=37.0, r=18.5,
                             theta_ref=math.pi / 12)
    dl = min_translation(params)
    dth = min_rotation(params)
    ok = abs(dl - 0.0135) <= 1e-4 and abs(dth - 0.0136) <= 1e-4
    check(1, ok, f"min_translation={dl:.6f} mm, min_rotation={dth:.6f} rad")


def test_criterion_2_wrench_floor_reproduction(zero_noise_run):
    sens = json.loads((zero_noise_run / "sensitivity.json").read_text())
    floor = np.array(sens["wrench_floor"])
    rel = np.abs(floor - REFERENCE_WRENCH_FLOOR) / REFERENCE_WRENCH_FLOOR
    check(2, bool(np.max(rel) < 0.01),
          "wrench floor [" + ", ".join(f"{v:.4f}" for v in floor)
          + f"], max rel err {np.max(rel) * 100:.3f}%")


def test_criterion_3_calibration_fidelity(noisy_run):
    report = CalibrationReport.from_dict(
        json.loads((noisy_run / "calib.json").read_text()))
    compliance = default_compliance().compliance
    assert report.sample_count == 1020
    worst_r2 = min(m.r2_test for m in report.models)
    slope_errs = [
        abs(m.slope - 1.0 / compliance[m.axis, m.axis]) * compliance[m.axis, m.axis]
        for m in report.models
    ]
    ok = worst_r2 > 0.95 and max(slope_errs) < 0.05
    check(3, ok, f"min r2_test={worst_r2:.5f}, "
                 f"max slope rel err={max(slope_errs) * 100:.3f}%")


def test_criterion_4_pose_estimator_consistency(camera, layout):
    rng = np.random.default_rng(100)
    worst_t = worst_r = 0.0
    monotone = True
    for _ in range(1000):
        pose = random_pose(rng)
        corrs = project_layout(camera, layout, pose)
        est = estimate_pose(camera, corrs)
        delta = delta_from_poses(pose, est.pose).as_array()
        worst_t = max(worst_t, float(np.max(np.abs(delta[:3]))))
        worst_r = max(worst_r, float(np.max(np.abs(delta[3:]))))
        monotone = monotone and bool(np.all(np.diff(est.cost_trace) <= 0))

    worst_jac = 0.0
    step = 1e-6
    for _ in range(200):
        pose = random_pose(rng)
        point = np.append(rng.uniform(-9, 9, 2), 0.0)
        jac = jacobian_reprojection(camera, point, pose)
        fd = np.zeros((2, 6))
        for k in range(6):
            twist = np.zeros(6)
            twist[k] = step
            plus = RigidTransform(_so3_exp(twist[3:]) @ pose.rotation,
                                  pose.translation + twist[:3])
            minus = RigidTransform(_so3_exp(-twist[3:]) @ pose.rotation,
                                   pose.translation - twist[:3])
            fd[:, k] = (project(camera, plus.apply(point))
                        - project(camera, minus.apply(point))) / (2 * step)
        worst_jac = max(worst_jac, float(np.max(np.abs(jac - fd))))

    ok = worst_t < 1e-6 and worst_r < 1e-6 and monotone and worst_jac < 1e-5
    check(4, ok, f"max |dt|={worst_t:.2e} mm, max |dth|={worst_r:.2e} rad, "
                 f"monotone={monotone}, max jacobian dev={worst_jac:.2e}")


def test_criterion_5_occlusion_robustness_ordering(camera, layout):
    grid_only = visible_subset(layout, set(range(9, 35)))
    two_tags = visible_subset(layout, set(range(2, 35)))
    errors = {"full": [], "grid": [], "two": []}
    for trial in range(500):
        rng = np.random.default_rng(5000 + trial)
        pose = random_pose(rng)
        for key, lay in (("full", layout), ("grid", grid_only), ("two", two_tags)):
            exact = project_layout(camera, lay, pose)
            corrs = replace(exact, img=exact.img + rng.normal(0, 0.25, (len(exact), 2)))
            est = estimate_pose(camera, corrs)
            errors[key].append(
                float(np.linalg.norm(est.pose.translation - pose.translation)))

    full = np.array(errors["full"])
    grid = np.array(errors["grid"])
    two = np.array(errors["two"])
    d1 = grid - full
    d2 = two - grid
    se1 = float(np.std(d1, ddof=1) / math.sqrt(len(d1)))
    se2 = float(np.std(d2, ddof=1) / math.sqrt(len(d2)))
    ok = float(np.mean(d1)) > 2 * se1 and float(np.mean(d2)) > 2 * se2
    check(5, ok,
          f"mean err 35/9/2 tags = {full.mean():.4f}/{grid.mean():.4f}/{two.mean():.4f} mm; "
          f"margins {np.mean(d1) / se1:.1f} and {np.mean(d2) / se2:.1f} standard errors")


def test_criterion_6_contact_monitor_exactness():
    expected_table = {
        "chip": (0.10, 30), "eggshell": (0.05, 20), "cone": (0.10, 20),
        "cookie": (0.05, 5), "balloon": (0.05, 3), "pencil": (0.02, 15),
        "paper": (0.01, 50), "paper_cup": (0.005, 10), "grape": (0.006, 10),
        "seaweed": (0.01, 150),
    }
    table_ok = OBJECT_PRESETS == expected_table

    reference = RigidTransform(np.eye(3), np.zeros(3))

    def pose_at(dz):
        from ringsense.pnp import PoseEstimate
        return PoseEstimate(
            pose=apply_delta(reference, DeformationVector(0, 0, dz, 0, 0, 0)),
            rms_reprojection_error=0.0, iterations_used=0, converged=True)

    all_match = True
    rng = np.random.default_rng(6)
    for name, (threshold, frames) in expected_table.items():
        # Ramps that cross the threshold early, late, or not at all.
        slopes = [(1.6 * threshold / frames)] + [
            threshold * float(f) / frames for f in rng.uniform(0.2, 3.0, 3)
        ]
        for slope in slopes:
            values = [slope * f for f in range(frames)]
            config = config_for_object(name)
            traj = ApproachTrajectory((0.0,), (1.0,), frames)
            result = run_episode(traj, config, iter([pose_at(v) for v in values]),
                                 reference=reference)
            consecutive = 0
            oracle = None
            for f, v in enumerate(values):
                consecutive = consecutive + 1 if v >= threshold else 0
                if consecutive >= config.debounce_frames:
                    oracle = f
                    break
            got = None if result.event is None else result.event.frame_index
            all_match = all_match and (got == oracle)

    check(6, table_ok and all_match,
          f"preset table exact={table_ok}, trigger==oracle on all rows={all_match}")


def test_criterion_7_geometry_property_suite():
    rng = np.random.default_rng(7)
    cases = 10_000

    worst_round_trip = 0.0
    for _ in range(cases):
        reference = random_pose(rng, t_range=5.0, angle_range=0.6)
        delta = DeformationVector.from_array(
            np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-0.5, 0.5, 3)]))
        recovered = delta_from_poses(reference, apply_delta(reference, delta))
        worst_round_trip = max(worst_round_trip, float(
            np.max(np.abs(recovered.as_array() - delta.as_array()))))

    normals = rng.normal(size=(cases, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    worst_trace = worst_idem = 0.0
    sign_flip_exact = True
    for n in normals:
        m6 = normal_matrix_from_unit_vector(n)
        m = m6.as_matrix()
        worst_trace = max(worst_trace, abs(float(np.trace(m)) - 1.0))
        worst_idem = max(worst_idem, float(np.max(np.abs(m @ m - m))))
        sign_flip_exact = sign_flip_exact and np.array_equal(
            m6.as_array(), normal_matrix_from_unit_vector(-n).as_array())

    cam = PinholeCamera(fx=97.0, fy=103.0, cx=320.0, cy=240.0,
                        image_width=640.0, image_height=480.0)
    worst_scale = 0.0
    for _ in range(cases):
        p = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.1, 50)])
        lam = rng.uniform(1e-3, 1e3)
        worst_scale = max(worst_scale, float(
            np.max(np.abs(project(cam, lam * p) - project(cam, p)))))

    ok = (worst_round_trip < 1e-9 and worst_trace < 1e-9 and worst_idem < 1e-9
          and sign_flip_exact and worst_scale < 1e-9)
    check(7, ok,
          f"round trip {worst_round_trip:.2e}, trace {worst_trace:.2e}, "
          f"idempotence {worst_idem:.2e}, sign flip exact={sign_flip_exact}, "
          f"depth scaling {worst_scale:.2e}")


def test_criterion_8_pipeline_determinism(noisy_run, noisy_replica):
    names = ["sweep.csv", "frames.jsonl", "poses.jsonl", "sweep_estimated.csv",
             "calib.json", "sensitivity.json", "manifest.json"]
    identical = all(
        (noisy_run / n).read_bytes() == (noisy_replica / n).read_bytes()
        for n in names
    )
    check(8, identical, f"{len(names)} output files byte-identical across reruns")


# SHA-256 of the criterion-8 files, by chain and file name:
#   pipeline:  `pipeline --seed 7` (sigma 0.25), as the noisy_run fixture runs it;
#   replay:    `simulate --seed 3 --occlusion 0.3`, then `estimate` of its frames,
#              then `monitor --object chip` of those poses;
#   calibrate: `calibrate --seed 7 --scatter-csv` of the pipeline's
#              sweep_estimated.csv, then `sensitivity` of that report.
# A change whose purpose is a format or value change updates this table and
# says in CHANGES.md which files changed and why; no other change touches it.
CRITERION_8_DIGESTS = {
    "pipeline": {
        "sweep.csv": "0788f6fe56642547910b71201de67c0ed92268c47bc74d68bfdb49793eec8e63",
        "frames.jsonl": "dec4c8f8937ee30a08ad1d2d52e70bdf727d0addadf5c1b712839bb46ef89a29",
        "poses.jsonl": "ca72f1cd54b2cf576fb53125616338763986b711035463bc36b5c5f5cd9cf612",
        "sweep_estimated.csv": "09a3c5792254b17e9f082c38795f2d7b160fe6203a7f839b8aca4c7ee18fbccf",
        "calib.json": "a499357dfc8d60f7f8fcb35d93a18de2aad18a85ef0f9f7e4c633511b069df95",
        "sensitivity.json": "5abc6eb7b25ef6c1b389da8b765f20c5fbeffc367e9961411a48b3cbc79478b2",
        "manifest.json": "5db70562e01017846bb7e12fb04b6b866651d4c4b4078165c57b140ed74f6c95",
    },
    "replay": {
        "sweep.csv": "0788f6fe56642547910b71201de67c0ed92268c47bc74d68bfdb49793eec8e63",
        "frames.jsonl": "914b5ac9e0ee72a3580759fc83f19e31d9ca8f9f2805a2e7b598d653670de6d8",
        "manifest.json": "89104224eb61bcefca2b248e48c3bcb499530b0dfc15b80fc3c02f8224d1d183",
        "poses.jsonl": "dcaecb558e76597178da42369085bdf1ead9d6ee91a22668c1e1c13fd4e096b4",
        "episode.json": "afd32fdcc083769c31613b2c26aae9c2fb1e07a7bbbf022c19ca4b1d197ebb48",
    },
    "calibrate": {
        "calib.json": "dcbfc16a5d1225ede1c454480e48261148ec959a4192bc87929246732682a24e",
        "scatter.csv": "7465a08824e221d48ff2765560ac67baca2911faae704b8e407c76d64af86966",
        "sensitivity.json": "7dcd6547818ccebb9516803d2f2c6af434890f498c2ed83aec5899e953e2602c",
    },
}


def test_criterion_8_outputs_match_committed_digests(noisy_run, tmp_path):
    replay, calib = tmp_path / "replay", tmp_path / "calibrate"
    calib.mkdir()
    for argv in (
        ["simulate", "--seed", "3", "--occlusion", "0.3", "--out", str(replay)],
        ["estimate", "--frames", str(replay / "frames.jsonl"),
         "--out", str(replay / "poses.jsonl")],
        ["monitor", "--object", "chip", "--poses", str(replay / "poses.jsonl"),
         "--out", str(replay / "episode.json")],
        ["calibrate", "--data", str(noisy_run / "sweep_estimated.csv"), "--seed", "7",
         "--scatter-csv", str(calib / "scatter.csv"), "--out", str(calib / "calib.json")],
        ["sensitivity", "--calib", str(calib / "calib.json"),
         "--out", str(calib / "sensitivity.json")],
    ):
        assert main([*argv, "--quiet"]) == 0, argv[0]

    dirs = {"pipeline": noisy_run, "replay": replay, "calibrate": calib}
    mismatches = []
    for chain, digests in CRITERION_8_DIGESTS.items():
        for name, expected in digests.items():
            actual = hashlib.sha256((dirs[chain] / name).read_bytes()).hexdigest()
            if actual != expected:
                mismatches.append(f"{chain}/{name}: expected {expected}, got {actual}")
    count = sum(map(len, CRITERION_8_DIGESTS.values()))
    check(8, not mismatches,
          f"{count - len(mismatches)} of {count} files match their committed digests"
          + "".join(f"; {m}" for m in mismatches)
          + ("" if not mismatches else
             "; the digests are a contract for the OpenBLAS kernels of the CPU they were "
             "computed on (Haswell, DYNAMIC_ARCH), so another CPU may differ in the last "
             "digit of a float without a change to ringsense"))
