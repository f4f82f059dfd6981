"""Rigid transforms, pinhole projection, pose deltas, and the symmetric
normal-matrix orientation encoding.

Conventions (used package-wide):
  - Lengths in millimeters, angles in radians.
  - A plate pose maps plate-frame points into the camera frame:
    ``p_cam = R @ p_plate + t``. The camera looks along +z; only points
    with z > 0 project.
  - Pose deltas are expressed in the *reference* frame: the translation
    delta is ``R_ref.T @ (t_cur - t_ref)`` and the rotation delta is the
    intrinsic X-Y-Z Euler decomposition of ``R_ref.T @ R_cur``
    (``R_rel = Rx(a) @ Ry(b) @ Rz(c)``). Serialized deltas carry the
    convention tag ``"XYZ-intrinsic"``.
  - Euler deltas are restricted to ``|angle| < pi/2``; the ring's physical
    deformation is far smaller, and the restriction keeps the
    decomposition unique and gimbal-lock free.

All types are immutable values and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import (
    EulerOutOfRange,
    NonPositiveDepth,
    ValidationFailure,
    check_keys,
    read_number,
)

EULER_CONVENTION = "XYZ-intrinsic"

_ORTHO_TOL = 1e-9
_ANGLE_LIMIT = math.pi / 2
_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


def _frozen_array(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    """The one constructor of a validated, read-only float array: a float64
    copy of ``values``, or ValidationFailure naming ``name`` for a shape other
    than ``shape`` or a non-finite entry."""
    a = np.asarray(values, dtype=np.float64)
    if a.shape != shape:
        raise ValidationFailure(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationFailure(f"{name} must be finite")
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) pose: 3x3 orthonormal rotation plus translation in mm."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        r = _frozen_array(self.rotation, (3, 3), "rotation")
        t = _frozen_array(self.translation, (3,), "translation")
        if np.linalg.norm(r.T @ r - _EYE3) >= _ORTHO_TOL:
            raise ValidationFailure("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) >= _ORTHO_TOL:
            raise ValidationFailure("rotation determinant is not +1 within 1e-9")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map plate-frame point(s), shape (3,) or (n, 3), into the camera frame."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    def to_dict(self) -> dict:
        return {
            "rotation": self.rotation.tolist(),
            "translation": self.translation.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RigidTransform":
        return cls([[read_number(v, "rotation entry") for v in row] for row in data["rotation"]],
                   [read_number(v, "translation entry") for v in data["translation"]])


def _proper_transform(rotation: np.ndarray, translation: np.ndarray) -> RigidTransform:
    """A RigidTransform whose rotation is proper by construction (an SVD
    polar factor or a Procrustes solution with its determinant fixed).

    Takes float64 arrays of shapes (3, 3) and (3,). Keeps the shape and
    finiteness checks and stores read-only copies, so the pose never aliases
    the caller's arrays; skips the orthonormality and determinant checks,
    which such a rotation passes to rounding.
    """
    pose = object.__new__(RigidTransform)
    object.__setattr__(pose, "rotation", _frozen_array(rotation, (3, 3), "rotation"))
    object.__setattr__(pose, "translation", _frozen_array(translation, (3,), "translation"))
    return pose


@dataclass(frozen=True)
class PinholeCamera:
    """Intrinsics of an ideal pinhole camera (pixels)."""

    fx: float
    fy: float
    cx: float
    cy: float
    image_width: float
    image_height: float

    def __post_init__(self) -> None:
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValidationFailure("focal lengths must be finite and positive")
        if not (0 <= self.cx <= self.image_width < math.inf
                and 0 <= self.cy <= self.image_height < math.inf):
            raise ValidationFailure("principal point must lie inside the image")
        # (fx, fy) and (cx, cy) as read-only arrays for ``_pinhole``. They are
        # not dataclass fields, so ==, hash, repr, to_dict and replace see
        # only the six intrinsics.
        object.__setattr__(self, "_focal", _frozen_array((self.fx, self.fy), (2,), "focal"))
        object.__setattr__(self, "_center", _frozen_array((self.cx, self.cy), (2,), "center"))

    def contains(self, uv: np.ndarray) -> np.ndarray:
        """Whether pixel(s) ``uv`` of shape (2,) or (n, 2) lie in the image, edges included."""
        uv = np.asarray(uv, dtype=np.float64)
        u, v = uv[..., 0], uv[..., 1]
        return (0.0 <= u) & (u <= self.image_width) & (0.0 <= v) & (v <= self.image_height)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PinholeCamera":
        """Inverse of ``to_dict``; every key is required and an unknown key is an error."""
        names = [f.name for f in fields(cls)]
        check_keys(data, names, "camera")
        return cls(**{name: read_number(data[name], name) for name in names})


def default_camera() -> PinholeCamera:
    """The sensor camera: 120 deg horizontal field of view, 256 x 192 px.

    fx = fy = (256/2) / tan(60 deg) ~= 73.9 px, principal point at the image
    centre (128, 96). Any other camera is a ``PinholeCamera`` (``--camera``).
    """
    f = 128.0 / math.tan(math.radians(120.0) / 2.0)
    return PinholeCamera(fx=f, fy=f, cx=128.0, cy=96.0, image_width=256.0, image_height=192.0)


@dataclass(frozen=True)
class DeformationVector:
    """Pose change relative to the no-contact reference.

    ``dl_*`` are translation deltas in mm expressed in the reference frame;
    ``dtheta_*`` are intrinsic X-Y-Z Euler angle deltas in rad.
    """

    dl_x: float
    dl_y: float
    dl_z: float
    dtheta_x: float
    dtheta_y: float
    dtheta_z: float

    def __post_init__(self) -> None:
        values = _frozen_array(self.as_array(), (6,), "deformation components")
        if (np.abs(values[3:]) >= _ANGLE_LIMIT).any():
            raise EulerOutOfRange(
                "euler deltas must satisfy |angle| < pi/2 (operating regime)"
            )

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.dl_x, self.dl_y, self.dl_z, self.dtheta_x, self.dtheta_y, self.dtheta_z]
        )

    @classmethod
    def from_array(cls, values) -> "DeformationVector":
        return cls(*_frozen_array(values, (6,), "deformation components").tolist())


@dataclass(frozen=True)
class NormalMatrix6:
    """Upper-triangular entries of M = n n^T for a unit normal n.

    The encoding is invariant to the sign of n and has unit trace; the
    reconstructed matrix is symmetric, idempotent, and rank 1.
    """

    m00: float
    m01: float
    m02: float
    m11: float
    m12: float
    m22: float

    def __post_init__(self) -> None:
        m = self.as_matrix()
        if abs(np.trace(m) - 1.0) >= 1e-9:
            raise ValidationFailure("normal matrix trace must be 1 within 1e-9")
        if np.max(np.abs(m @ m - m)) >= 1e-9:
            raise ValidationFailure("normal matrix must be idempotent within 1e-9")

    def as_array(self) -> np.ndarray:
        return np.array([self.m00, self.m01, self.m02, self.m11, self.m12, self.m22])

    def as_matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.m00, self.m01, self.m02],
                [self.m01, self.m11, self.m12],
                [self.m02, self.m12, self.m22],
            ]
        )


def _pinhole(camera: PinholeCamera, pts: np.ndarray) -> np.ndarray:
    """Pinhole projection of (..., 3) camera-frame points with z > 0 to (..., 2) pixels.

    Rounds as ``fx * x / z + cx`` per component: multiply, divide, then add."""
    return camera._focal * pts[..., :2] / pts[..., 2:] + camera._center


def project(camera: PinholeCamera, point_cam: np.ndarray) -> np.ndarray:
    """Project one camera-frame point (mm) to pixel coordinates.

    Raises:
        NonPositiveDepth: if the point is at or behind the camera (z <= 0).
    """
    return project_points(camera, np.asarray(point_cam, dtype=np.float64).reshape(1, 3))[0]


def project_points(camera: PinholeCamera, points_cam: np.ndarray) -> np.ndarray:
    """Vectorized projection of (n, 3) camera-frame points to (n, 2) pixels.

    Raises:
        NonPositiveDepth: if any point is at or behind the camera (z <= 0).
    """
    p = np.asarray(points_cam, dtype=np.float64)
    if np.count_nonzero(p[:, 2] <= 0):
        raise NonPositiveDepth("all point depths must be positive")
    return _pinhole(camera, p)


def rotation_from_euler_xyz(rx: float, ry: float, rz: float) -> np.ndarray:
    """Rotation matrix Rx(rx) @ Ry(ry) @ Rz(rz) (intrinsic X-Y-Z)."""
    cx, sx = math.cos(rx), math.sin(rx)
    cy, sy = math.cos(ry), math.sin(ry)
    cz, sz = math.cos(rz), math.sin(rz)
    rot_x = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    rot_y = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rot_z = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    return rot_x @ rot_y @ rot_z


def euler_xyz_from_rotation(rotation: np.ndarray) -> tuple[float, float, float]:
    """Recover (rx, ry, rz) with R = Rx Ry Rz, valid for |angles| < pi/2.

    Raises:
        EulerOutOfRange: if any extracted angle magnitude reaches pi/2.
    """
    r = np.asarray(rotation, dtype=np.float64)
    ry = math.asin(max(-1.0, min(1.0, r[0, 2])))
    rx = math.atan2(-r[1, 2], r[2, 2])
    rz = math.atan2(-r[0, 1], r[0, 0])
    if max(abs(rx), abs(ry), abs(rz)) >= _ANGLE_LIMIT:
        raise EulerOutOfRange("relative rotation outside the +-pi/2 operating range")
    return rx, ry, rz


def delta_from_poses(reference: RigidTransform, current: RigidTransform) -> DeformationVector:
    """Pose change of ``current`` relative to ``reference``.

    Translation delta in the reference frame; rotation delta as intrinsic
    X-Y-Z Euler angles of ``R_ref.T @ R_cur``.
    """
    dl = reference.rotation.T @ (current.translation - reference.translation)
    rel = reference.rotation.T @ current.rotation
    rx, ry, rz = euler_xyz_from_rotation(rel)
    return DeformationVector(dl[0], dl[1], dl[2], rx, ry, rz)


def apply_delta(reference: RigidTransform, delta: DeformationVector) -> RigidTransform:
    """Inverse of :func:`delta_from_poses`: the pose at ``delta`` from reference."""
    rel = rotation_from_euler_xyz(delta.dtheta_x, delta.dtheta_y, delta.dtheta_z)
    rotation = reference.rotation @ rel
    translation = reference.translation + reference.rotation @ np.array(
        [delta.dl_x, delta.dl_y, delta.dl_z]
    )
    return RigidTransform(rotation, translation)


def normal_matrix_from_unit_vector(n: np.ndarray) -> NormalMatrix6:
    """Six-entry encoding of M = n n^T; identical for n and -n.

    Raises:
        ValidationFailure: if n is not a finite 3-vector, or if ||n||
        differs from 1 by more than 1e-6.
    """
    v = _frozen_array(n, (3,), "normal")
    norm = math.sqrt(float(v[0]) ** 2 + float(v[1]) ** 2 + float(v[2]) ** 2)
    if abs(norm - 1.0) > 1e-6:
        raise ValidationFailure(f"normal must be unit length within 1e-6, got |n|={norm}")
    # Normalizing first keeps the unit-trace invariant tight; all entries are
    # products of two components, so negating n leaves them bit-identical.
    x, y, z = float(v[0]) / norm, float(v[1]) / norm, float(v[2]) / norm
    return NormalMatrix6(x * x, x * y, x * z, y * y, y * z, z * z)

