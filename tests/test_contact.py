import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsense.contact import (
    CONTROL_INTERVAL_S,
    OBJECT_PRESETS,
    ApproachTrajectory,
    ContactConfig,
    config_for_object,
    interpolate,
    mean_reference_pose,
    run_episode,
)
from ringsense.errors import ValidationFailure
from ringsense.geometry import (
    DeformationVector,
    RigidTransform,
    apply_delta,
)
from ringsense.pnp import PoseEstimate

REFERENCE = RigidTransform(np.eye(3), np.zeros(3))


def pose_at(dz: float) -> PoseEstimate:
    """Synthetic estimate whose |delta z| from REFERENCE is exactly dz."""
    pose = apply_delta(REFERENCE, DeformationVector(0.0, 0.0, dz, 0.0, 0.0, 0.0))
    return PoseEstimate(pose=pose, rms_reprojection_error=0.0,
                        iterations_used=0, converged=True)


def ramp_stream(slope: float, frames: int):
    return [pose_at(slope * f) for f in range(frames)]


def scan_oracle(values, threshold, debounce):
    """First frame completing ``debounce`` consecutive values >= threshold;
    a None (skipped frame) neither counts nor resets the count."""
    consecutive = 0
    for f, v in enumerate(values):
        if v is None:
            continue
        consecutive = consecutive + 1 if v >= threshold else 0
        if consecutive >= debounce:
            return f
    return None


def run_ramp(slope, config, reference_frames=0):
    traj = ApproachTrajectory((0.0,), (1.0,), config.total_frames)
    stream = ramp_stream(slope, config.total_frames + reference_frames)
    return run_episode(traj, config, iter(stream), reference=REFERENCE)


# --------------------------------------------------------------- presets

def test_object_presets_table():
    assert OBJECT_PRESETS == {
        "chip": (0.10, 30),
        "eggshell": (0.05, 20),
        "cone": (0.10, 20),
        "cookie": (0.05, 5),
        "balloon": (0.05, 3),
        "pencil": (0.02, 15),
        "paper": (0.01, 50),
        "paper_cup": (0.005, 10),
        "grape": (0.006, 10),
        "seaweed": (0.01, 150),
    }


def test_config_for_object():
    config = config_for_object("chip")
    assert config.threshold_mm == 0.10
    assert config.total_frames == 30
    assert CONTROL_INTERVAL_S == 0.02
    assert config_for_object("Paper cup").threshold_mm == 0.005
    with pytest.raises(ValidationFailure):
        config_for_object("anvil")


# ------------------------------------------------------------ interpolate

def test_interpolate_endpoints():
    traj = ApproachTrajectory((0.0, 1.0, -2.0), (1.0, 3.0, 2.0), 20)
    np.testing.assert_array_equal(interpolate(traj, 0), [0.0, 1.0, -2.0])
    np.testing.assert_array_equal(interpolate(traj, 20), [1.0, 3.0, 2.0])


def test_interpolate_chip_midpoint_is_mean():
    traj = ApproachTrajectory((0.2, -0.4), (0.8, 0.6), 30)
    np.testing.assert_allclose(interpolate(traj, 15), [0.5, 0.1], atol=1e-15)


def test_interpolate_out_of_range():
    traj = ApproachTrajectory((0.0,), (1.0,), 10)
    with pytest.raises(ValidationFailure, match=r"^frame 11 outside 0\.\.10$"):
        interpolate(traj, 11)
    with pytest.raises(ValidationFailure, match=r"^frame -1 outside 0\.\.10$"):
        interpolate(traj, -1)


# ---------------------------------------------------------------- trigger

def test_chip_ramp_triggers_at_frame_25():
    # 0.004 mm per frame against the chip threshold 0.10 -> frame 25.
    config = config_for_object("chip")
    result = run_ramp(0.004, config)
    assert result.event is not None
    assert result.event.frame_index == 25


def test_zero_deformation_never_triggers():
    config = config_for_object("eggshell")
    result = run_ramp(0.0, config)
    assert result.event is None
    assert len(result.delta_z_mm) == config.total_frames
    assert len(result.commands) == config.total_frames


def test_balloon_immediate_contact_fires_at_debounce_minus_one():
    for debounce in (1, 2, 3):
        config = config_for_object("balloon", debounce_frames=debounce)
        traj = ApproachTrajectory((0.0,), (1.0,), config.total_frames)
        stream = [pose_at(1.2 * config.threshold_mm)] * config.total_frames
        result = run_episode(traj, config, iter(stream), reference=REFERENCE)
        assert result.event is not None
        assert result.event.frame_index == debounce - 1


def test_trigger_matches_scan_oracle_for_all_presets():
    rng = np.random.default_rng(0)
    for name, (threshold, frames) in OBJECT_PRESETS.items():
        for debounce in (1, 2):
            config = config_for_object(name, debounce_frames=debounce)
            values = np.abs(rng.normal(0, threshold, frames))
            traj = ApproachTrajectory((0.0,), (1.0,), frames)
            stream = [pose_at(float(v)) for v in values]
            result = run_episode(traj, config, iter(stream), reference=REFERENCE)
            expected = scan_oracle(values, threshold, debounce)
            got = None if result.event is None else result.event.frame_index
            assert got == expected, f"{name} debounce={debounce}"


def test_threshold_monotonicity():
    rng = np.random.default_rng(1)
    values = np.cumsum(np.abs(rng.normal(0.002, 0.002, 60)))
    previous_frame = -1
    for threshold in (0.01, 0.02, 0.05, 0.1):
        frame = scan_oracle(values, threshold, 1)
        config = ContactConfig(threshold_mm=threshold, total_frames=60)
        traj = ApproachTrajectory((0.0,), (1.0,), 60)
        stream = [pose_at(float(v)) for v in values]
        result = run_episode(traj, config, iter(stream), reference=REFERENCE)
        got = None if result.event is None else result.event.frame_index
        assert got == frame
        if got is not None:
            assert got >= previous_frame
            previous_frame = got


def test_no_commands_after_stop():
    config = config_for_object("chip")
    result = run_ramp(0.004, config)
    assert result.event is not None
    assert all(frame < result.event.frame_index for frame, _ in result.commands)
    # The stopping frame itself issues no motion command.
    assert len(result.commands) == result.event.frame_index


def test_skipped_frames_preserve_debounce():
    config = ContactConfig(threshold_mm=0.05, total_frames=10, debounce_frames=3)
    traj = ApproachTrajectory((0.0,), (1.0,), 10)
    # above, above, skipped, above -> trigger on the frame after the gap
    stream = [pose_at(0.06), pose_at(0.06), None, pose_at(0.06)] + [pose_at(0.0)] * 6
    result = run_episode(traj, config, iter(stream), reference=REFERENCE)
    assert result.skipped_frames == (2,)
    assert result.event is not None
    assert result.event.frame_index == 3
    assert math.isnan(result.delta_z_mm[2])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    debounce=st.integers(1, 4),
    values=st.lists(st.one_of(st.none(), st.floats(0.0, 0.1)), min_size=1, max_size=40),
)
def test_monitor_matches_scan_oracle_with_skipped_frames(debounce, values):
    threshold = 0.05
    config = ContactConfig(threshold_mm=threshold, total_frames=len(values),
                           debounce_frames=debounce)
    traj = ApproachTrajectory((0.0,), (1.0,), len(values))
    stream = [None if v is None else pose_at(v) for v in values]
    result = run_episode(traj, config, iter(stream), reference=REFERENCE)

    expected = scan_oracle(values, threshold, debounce)
    got = None if result.event is None else result.event.frame_index
    assert got == expected
    if expected is not None:
        assert result.event.delta_z_mm == values[expected]
    # Frames read: up to and including the stop, or every frame without one.
    read = values[:len(values) if expected is None else expected + 1]
    assert len(result.delta_z_mm) == len(read)
    assert [math.isnan(v) for v in result.delta_z_mm] == [v is None for v in read]
    assert result.skipped_frames == tuple(f for f, v in enumerate(read) if v is None)
    # One command per frame before the stop, none on or after it.
    stop = len(values) if expected is None else expected
    assert [f for f, _ in result.commands] == list(range(stop))


def flipped_at(dz: float) -> PoseEstimate:
    """Estimate at dz turned 180 deg about x: its rotation relative to
    REFERENCE is outside the Euler operating range."""
    pose = RigidTransform(np.diag([1.0, -1.0, -1.0]), np.array([0.0, 0.0, dz]))
    return PoseEstimate(pose=pose, rms_reprojection_error=0.0, iterations_used=0,
                        converged=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    debounce=st.integers(1, 4),
    values=st.lists(st.one_of(st.none(), st.floats(0.0, 0.1)), min_size=1, max_size=40),
    flips=st.lists(st.booleans(), min_size=40, max_size=40),
)
def test_out_of_range_rotation_is_a_skipped_frame(debounce, values, flips):
    # A flipped frame (flips[f] and a value) is skipped as a None frame is:
    # the oracle sees None, and the debounce count neither grows nor resets.
    threshold = 0.05
    config = ContactConfig(threshold_mm=threshold, total_frames=len(values),
                           debounce_frames=debounce)
    traj = ApproachTrajectory((0.0,), (1.0,), len(values))
    stream = [None if v is None else flipped_at(v) if flip else pose_at(v)
              for v, flip in zip(values, flips)]
    result = run_episode(traj, config, iter(stream), reference=REFERENCE)

    seen = [None if flip else v for v, flip in zip(values, flips)]
    expected = scan_oracle(seen, threshold, debounce)
    assert (None if result.event is None else result.event.frame_index) == expected
    read = seen[:len(seen) if expected is None else expected + 1]
    assert [math.isnan(v) for v in result.delta_z_mm] == [v is None for v in read]
    assert result.skipped_frames == tuple(f for f, v in enumerate(read) if v is None)
    stop = len(values) if expected is None else expected
    assert [f for f, _ in result.commands] == list(range(stop))


def test_stream_ended():
    config = ContactConfig(threshold_mm=0.5, total_frames=10)
    traj = ApproachTrajectory((0.0,), (1.0,), 10)
    with pytest.raises(ValidationFailure, match=r"^stream ended at approach frame 3$"):
        run_episode(traj, config, iter([pose_at(0.0)] * 3), reference=REFERENCE)


def test_reference_captured_from_first_frames():
    config = ContactConfig(threshold_mm=0.05, total_frames=5)
    traj = ApproachTrajectory((0.0,), (1.0,), 5)
    # Reference window sits at dz = 0.2; approach frames return there, so
    # deltas relative to the captured reference stay ~0.
    stream = [pose_at(0.2)] * 5 + [pose_at(0.2)] * 5
    result = run_episode(traj, config, iter(stream), reference=None, reference_frames=5)
    assert result.event is None
    np.testing.assert_allclose(result.delta_z_mm, 0.0, atol=1e-12)


def test_mean_reference_pose_averages_translation():
    poses = [apply_delta(REFERENCE, DeformationVector(0, 0, z, 0, 0, 0)).translation
             for z in (0.1, 0.2, 0.3)]
    mean = mean_reference_pose(
        [RigidTransform(np.eye(3), t) for t in poses])
    assert mean.translation[2] == pytest.approx(0.2, abs=1e-12)


def test_mean_reference_pose_needs_a_pose():
    with pytest.raises(ValidationFailure, match="^need at least one pose to build a reference$"):
        mean_reference_pose([])


def test_trajectory_needs_a_frame():
    with pytest.raises(ValidationFailure, match="^total_frames must be >= 1$"):
        ApproachTrajectory((0.0,), (1.0,), 0)


def test_reference_window_of_skipped_frames_rejected():
    config = ContactConfig(threshold_mm=0.5, total_frames=10)
    traj = ApproachTrajectory((0.0,), (1.0,), 10)
    stream = [None] * 5 + [pose_at(0.0)] * 10
    with pytest.raises(ValidationFailure,
                       match="^no usable poses in the reference-capture window$"):
        run_episode(traj, config, iter(stream), reference_frames=5)


def test_trajectory_config_frame_mismatch_rejected():
    config = ContactConfig(threshold_mm=0.05, total_frames=10)
    traj = ApproachTrajectory((0.0,), (1.0,), 12)
    with pytest.raises(ValidationFailure):
        run_episode(traj, config, iter([pose_at(0.0)] * 20), reference=REFERENCE)


# ----------------------------------------------- noise-driven false triggers

def test_debounce_suppresses_noise_triggers(camera, layout, reference_pose):
    # Paper-cup threshold (0.005 mm) sits below the fiducial pose floor, so
    # a plain 1-frame rule false-triggers on a large fraction of no-contact
    # frames; requiring 3 consecutive frames drops the rate below 5%.
    from ringsense.pnp import estimate_pose
    from ringsense.simulator import project_layout
    from ringsense.geometry import delta_from_poses

    corrs0 = project_layout(camera, layout, reference_pose)
    img0 = corrs0.img
    rng = np.random.default_rng(2)
    dz = []
    for _ in range(1500):
        noisy = img0 + rng.normal(0, 0.25, img0.shape)
        est = estimate_pose(camera, replace(corrs0, img=noisy))
        dz.append(abs(delta_from_poses(reference_pose, est.pose).dl_z))

    threshold = OBJECT_PRESETS["paper_cup"][0]

    def trigger_rate(debounce):
        consecutive, triggers = 0, 0
        for v in dz:
            consecutive = consecutive + 1 if v >= threshold else 0
            if consecutive >= debounce:
                triggers += 1
                consecutive = 0
        return triggers / len(dz)

    rate1, rate3 = trigger_rate(1), trigger_rate(3)
    assert rate1 > 0.10
    assert rate3 < 0.05
    assert rate3 < rate1 / 5
