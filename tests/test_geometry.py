import math
from dataclasses import replace

import numpy as np
import pytest

from ringsense.errors import (
    EulerOutOfRange,
    NonPositiveDepth,
    ValidationFailure,
)
from ringsense.geometry import (
    DeformationVector,
    NormalMatrix6,
    PinholeCamera,
    RigidTransform,
    apply_delta,
    default_camera,
    delta_from_poses,
    euler_xyz_from_rotation,
    normal_matrix_from_unit_vector,
    project,
    rotation_from_euler_xyz,
)
from ringsense.geometry import _pinhole

from conftest import random_pose

CAM = PinholeCamera(fx=300, fy=300, cx=128, cy=96, image_width=256, image_height=192)


# ------------------------------------------------------------- projection

def test_project_optical_axis_hits_principal_point():
    uv = project(CAM, np.array([0.0, 0.0, 10.0]))
    np.testing.assert_allclose(uv, [128.0, 96.0])


def test_project_unit_offset():
    uv = project(CAM, np.array([1.0, 0.0, 10.0]))
    np.testing.assert_allclose(uv, [158.0, 96.0])


def test_project_matches_pinhole_formula_on_random_inputs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        fx, fy = rng.uniform(50, 500, 2)
        w, h = rng.uniform(100, 1000, 2)
        cx, cy = rng.uniform(0, w), rng.uniform(0, h)
        cam = PinholeCamera(fx=fx, fy=fy, cx=cx, cy=cy, image_width=w, image_height=h)
        x, y = rng.uniform(-5, 5, 2)
        z = rng.uniform(0.5, 50)
        uv = project(cam, np.array([x, y, z]))
        assert uv[0] == pytest.approx(fx * x / z + cx, rel=1e-12)
        assert uv[1] == pytest.approx(fy * y / z + cy, rel=1e-12)


def test_project_depth_scaling_invariance():
    rng = np.random.default_rng(1)
    for _ in range(500):
        p = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.1, 20)])
        lam = rng.uniform(0.01, 100)
        np.testing.assert_allclose(project(CAM, lam * p), project(CAM, p), rtol=1e-9, atol=1e-9)


def test_project_rejects_non_positive_depth():
    with pytest.raises(NonPositiveDepth):
        project(CAM, np.array([0.0, 0.0, 0.0]))
    with pytest.raises(NonPositiveDepth):
        project(CAM, np.array([1.0, 1.0, -2.0]))


@pytest.mark.parametrize("shape", [(9, 3), (4, 9, 3)])
def test_pinhole_rounds_as_the_per_component_formula(shape):
    # fx * x, then / z, then + cx: the broadcast expression keeps that order,
    # so (n, 3) and (B, n, 3) stacks match the scalar formula bit for bit.
    rng = np.random.default_rng(4)
    for _ in range(50):
        w, h = rng.uniform(100, 1000, 2)
        cam = PinholeCamera(fx=rng.uniform(50, 500), fy=rng.uniform(50, 500),
                            cx=rng.uniform(0, w), cy=rng.uniform(0, h),
                            image_width=w, image_height=h)
        pts = rng.uniform(-5, 5, shape)
        pts[..., 2] = rng.uniform(0.5, 50, shape[:-1])
        uv = _pinhole(cam, pts)
        assert uv.shape == shape[:-1] + (2,)
        x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
        assert uv[..., 0].tobytes() == (cam.fx * x / z + cam.cx).tobytes()
        assert uv[..., 1].tobytes() == (cam.fy * y / z + cam.cy).tobytes()


def test_camera_value_semantics_ignore_the_cached_pairs():
    cam = PinholeCamera(fx=300.0, fy=310.0, cx=128.0, cy=96.0, image_width=256, image_height=192)
    twin = PinholeCamera(**cam.to_dict())
    # Comparing the cached arrays would raise: their truth value is ambiguous.
    assert cam == twin and hash(cam) == hash(twin)
    assert cam._focal is not twin._focal
    assert cam.to_dict() == {"fx": 300.0, "fy": 310.0, "cx": 128.0, "cy": 96.0,
                             "image_width": 256, "image_height": 192}
    assert "_focal" not in repr(cam) and "_center" not in repr(cam)
    moved = replace(cam, fx=150.0, cy=90.0)
    assert moved != cam
    assert moved._focal.tolist() == [150.0, 310.0] and moved._center.tolist() == [128.0, 90.0]
    assert cam._focal.tolist() == [300.0, 310.0] and cam._center.tolist() == [128.0, 96.0]
    assert not (cam._focal.flags.writeable or cam._center.flags.writeable)


def test_default_camera_fov():
    cam = default_camera()
    assert cam.fx == pytest.approx(128.0 / math.tan(math.radians(60.0)))
    assert cam.cx == 128.0 and cam.cy == 96.0


def test_camera_validation():
    with pytest.raises(ValidationFailure):
        PinholeCamera(fx=-1, fy=300, cx=128, cy=96, image_width=256, image_height=192)
    with pytest.raises(ValidationFailure):
        PinholeCamera(fx=300, fy=300, cx=300, cy=96, image_width=256, image_height=192)


def test_rigid_transform_rejects_non_orthonormal():
    with pytest.raises(ValidationFailure):
        RigidTransform(np.eye(3) * 1.0001, np.zeros(3))
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValidationFailure):
        RigidTransform(reflection, np.zeros(3))


def test_rigid_transform_serialization_round_trip():
    rng = np.random.default_rng(6)
    t = random_pose(rng)
    out = RigidTransform.from_dict(t.to_dict())
    np.testing.assert_allclose(out.rotation, t.rotation)
    np.testing.assert_allclose(out.translation, t.translation)


# ------------------------------------------------------------ pose deltas

def test_delta_of_identical_poses_is_zero():
    rng = np.random.default_rng(7)
    pose = random_pose(rng)
    delta = delta_from_poses(pose, pose)
    np.testing.assert_allclose(delta.as_array(), np.zeros(6), atol=1e-12)


def test_delta_pure_z_translation_in_reference_frame():
    rng = np.random.default_rng(8)
    reference = random_pose(rng)
    current = RigidTransform(
        reference.rotation,
        reference.translation + reference.rotation @ np.array([0.0, 0.0, -0.1]),
    )
    delta = delta_from_poses(reference, current)
    np.testing.assert_allclose(
        delta.as_array(), [0, 0, -0.1, 0, 0, 0], atol=1e-12)


def test_delta_apply_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        reference = random_pose(rng)
        delta = DeformationVector.from_array(
            np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-0.5, 0.5, 3)]))
        recovered = delta_from_poses(reference, apply_delta(reference, delta))
        np.testing.assert_allclose(recovered.as_array(), delta.as_array(), atol=1e-9)


def test_apply_zero_delta_is_identity():
    rng = np.random.default_rng(10)
    reference = random_pose(rng)
    out = apply_delta(reference, DeformationVector(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    np.testing.assert_allclose(out.rotation, reference.rotation)
    np.testing.assert_allclose(out.translation, reference.translation)


def test_euler_extraction_rejects_out_of_range():
    big = rotation_from_euler_xyz(0.0, 0.0, 2.0)
    with pytest.raises(EulerOutOfRange):
        euler_xyz_from_rotation(big)


def test_deformation_vector_validation():
    with pytest.raises(EulerOutOfRange):
        DeformationVector(0, 0, 0, math.pi / 2, 0, 0)
    with pytest.raises(ValidationFailure):
        DeformationVector(math.nan, 0, 0, 0, 0, 0)


# ----------------------------------------------------------- normal matrix

def test_normal_matrix_z_axis():
    m = normal_matrix_from_unit_vector(np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(m.as_array(), [0, 0, 0, 0, 0, 1])


def test_normal_matrix_sign_flip_bit_equality():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        a = normal_matrix_from_unit_vector(n).as_array()
        b = normal_matrix_from_unit_vector(-n).as_array()
        assert np.array_equal(a, b)


def test_normal_matrix_x_axis_both_signs():
    a = normal_matrix_from_unit_vector(np.array([1.0, 0.0, 0.0]))
    b = normal_matrix_from_unit_vector(np.array([-1.0, 0.0, 0.0]))
    np.testing.assert_allclose(a.as_array(), [1, 0, 0, 0, 0, 0])
    assert np.array_equal(a.as_array(), b.as_array())


def test_normal_matrix_diagonal_unit_vector():
    n = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    m = normal_matrix_from_unit_vector(n)
    np.testing.assert_allclose(m.as_array(), [0.5, 0.5, 0, 0.5, 0, 0], atol=1e-15)


def test_normal_matrix_trace_and_idempotence():
    rng = np.random.default_rng(12)
    for _ in range(500):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        m = normal_matrix_from_unit_vector(n).as_matrix()
        assert abs(np.trace(m) - 1.0) < 1e-9
        assert np.max(np.abs(m @ m - m)) < 1e-9


def test_normal_matrix_rejects_non_unit():
    with pytest.raises(ValidationFailure, match=r"^normal must be unit length within 1e-6, "
                                                r"got \|n\|=1\.4142135623730951$"):
        normal_matrix_from_unit_vector(np.array([1.0, 1.0, 0.0]))
    # A NaN passes the unit-length test, |nan - 1| > 1e-6 being False.
    with pytest.raises(ValidationFailure, match="normal must be finite"):
        normal_matrix_from_unit_vector(np.array([np.nan, 0.0, 1.0]))


def test_normal_matrix_type_validates_trace():
    with pytest.raises(ValidationFailure):
        NormalMatrix6(0.5, 0, 0, 0.2, 0, 0.2)


def test_normal_matrix_type_validates_idempotence():
    # Trace 1, but diag(0.5, 0.5, 0) is not a projection.
    with pytest.raises(ValidationFailure, match="^normal matrix must be idempotent within 1e-9$"):
        NormalMatrix6(0.5, 0, 0, 0.5, 0, 0)
