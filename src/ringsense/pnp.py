"""Plate pose estimation from multi-tag corner correspondences.

The pose ``T`` (plate frame -> camera frame) is the minimizer of the summed
squared reprojection error over all visible corners. It is computed in two
stages:

  1. A closed-form initialization in the style of EPnP: reference points are
     written as barycentric combinations of control points (3 control points
     for the planar case, which the tag plate always is; 4 otherwise), the
     camera-frame control points are recovered from the null space of the
     2n x 3k projection system, scale is fixed by matching inter-control-point
     distances, sign by positive-depth voting, and the rotation is recovered
     by orthogonal Procrustes.
  2. Levenberg-Marquardt refinement of the reprojection cost. The rotation is
     updated on the manifold: each accepted step composes a 3-parameter
     exponential-map increment onto the left of the current rotation, which
     avoids Euler singularities inside the solver.

Solvers are pure functions of their inputs; identical inputs give
bit-identical estimates. There is no outlier rejection: correspondences
carry known associations (simulated or id-decoded), so every entry enters
the cost. A robust front end would be the extension point for raw detector
input with association errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    BehindCamera,
    DegenerateConfiguration,
    NonPositiveDepth,
    TooFewTagsVisible,
    ValidationFailure,
)
from .geometry import PinholeCamera, RigidTransform, _pinhole

_PLANAR_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """All matched corners of one frame, as four aligned read-only arrays.

    Row ``i`` is corner ``corner_idx[i]`` of tag ``tag_ids[i]``, at plate-frame
    point ``ref[i]`` (mm) and observed at pixel ``img[i]``; shapes (n,),
    (n,), (n, 3) and (n, 2). Structural invariants (agreeing shapes, no
    duplicate (tag_id, corner) pairs, corner index 0..3, finite coordinates)
    are enforced here. Image-bound containment is the producer's contract
    (see the simulator); the solvers accept any finite pixel coordinates.
    """

    tag_ids: np.ndarray
    corner_idx: np.ndarray
    ref: np.ndarray
    img: np.ndarray

    def __post_init__(self) -> None:
        tag_ids = np.array(self.tag_ids, dtype=np.int64)
        corner_idx = np.array(self.corner_idx, dtype=np.int64)
        ref = np.array(self.ref, dtype=np.float64)
        img = np.array(self.img, dtype=np.float64)
        n = tag_ids.shape[0] if tag_ids.ndim == 1 else -1
        if (corner_idx.shape, ref.shape, img.shape) != ((n,), (n, 3), (n, 2)):
            raise ValidationFailure(
                "correspondence arrays must have shapes (n,), (n,), (n, 3), (n, 2); got "
                f"{tag_ids.shape}, {corner_idx.shape}, {ref.shape}, {img.shape}"
            )
        order = np.lexsort((corner_idx, tag_ids))
        if np.any((np.diff(tag_ids[order]) == 0) & (np.diff(corner_idx[order]) == 0)):
            raise ValidationFailure("duplicate (tag_id, corner_index) pair in correspondences")
        bad = (corner_idx < 0) | (corner_idx > 3)
        if np.any(bad):
            raise ValidationFailure(f"corner_index must be 0..3, got {corner_idx[np.argmax(bad)]}")
        if not (np.all(np.isfinite(ref)) and np.all(np.isfinite(img))):
            raise ValidationFailure("correspondence coordinates must be finite")
        for f, a in zip(fields(self), (tag_ids, corner_idx, ref, img)):
            a.setflags(write=False)
            object.__setattr__(self, f.name, a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CorrespondenceSet):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def __len__(self) -> int:
        return self.tag_ids.shape[0]

    @property
    def tag_count(self) -> int:
        return len(np.unique(self.tag_ids))


@dataclass(frozen=True)
class SolverConfig:
    """Levenberg-Marquardt knobs; defaults converge well below the noise
    floor on 140-corner problems."""

    max_iterations: int = 50
    cost_tolerance: float = 1e-10
    step_tolerance: float = 1e-12
    initial_damping: float = 1e-3
    damping_up: float = 10.0
    damping_down: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValidationFailure("max_iterations must be >= 1")
        if min(self.cost_tolerance, self.step_tolerance, self.initial_damping) <= 0:
            raise ValidationFailure("tolerances and initial damping must be positive")
        if not (self.damping_up > 1.0 > self.damping_down > 0.0):
            raise ValidationFailure("need damping_up > 1 > damping_down > 0")


@dataclass(frozen=True)
class PoseEstimate:
    """Solver output: pose plus convergence diagnostics.

    ``rms_reprojection_error`` is the per-coordinate RMS residual in px,
    sqrt(cost / 2n). ``cost_trace`` records the accepted-cost sequence,
    which is non-increasing by construction.
    """

    pose: RigidTransform
    rms_reprojection_error: float
    iterations_used: int
    converged: bool
    cost_trace: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.rms_reprojection_error < 0:
            raise ValidationFailure("rms reprojection error must be non-negative")

    def to_dict(self) -> dict:
        return {
            "pose": self.pose.to_dict(),
            "rms_reprojection_error": self.rms_reprojection_error,
            "iterations_used": self.iterations_used,
            "converged": self.converged,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PoseEstimate":
        """Inverse of ``to_dict``; ``converged`` must be a boolean."""
        if not isinstance(data["converged"], bool):
            raise ValidationFailure(f"converged must be true or false, got {data['converged']!r}")
        return cls(
            pose=RigidTransform.from_dict(data["pose"]),
            rms_reprojection_error=float(data["rms_reprojection_error"]),
            iterations_used=int(data["iterations_used"]),
            converged=data["converged"],
        )


def _so3_exp(phi: np.ndarray) -> np.ndarray:
    """Rodrigues rotation for a 3-vector increment."""
    angle = math.sqrt(float(phi[0]) ** 2 + float(phi[1]) ** 2 + float(phi[2]) ** 2)
    k = np.array(
        [
            [0.0, -phi[2], phi[1]],
            [phi[2], 0.0, -phi[0]],
            [-phi[1], phi[0], 0.0],
        ]
    )
    if angle < 1e-12:
        return np.eye(3) + k + 0.5 * (k @ k)
    a = math.sin(angle) / angle
    b = (1.0 - math.cos(angle)) / (angle * angle)
    return np.eye(3) + a * k + b * (k @ k)


def _orthonormalize(r: np.ndarray) -> np.ndarray:
    """Nearest proper rotation (polar decomposition via SVD)."""
    u, _, vt = np.linalg.svd(r)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def _residuals(camera, rotation, translation, ref, img):
    """Stacked residual vector (projected - observed), or None if any point
    lands at non-positive depth."""
    pts_cam = ref @ rotation.T + translation
    if np.any(pts_cam[:, 2] <= 0):
        return None
    return (_pinhole(camera, pts_cam) - img).ravel()


def _jacobian_block(camera, rotation, translation, ref):
    """Jacobian of all residuals w.r.t. the local twist [drho; dphi], (2n, 6)."""
    pts_cam = ref @ rotation.T + translation
    n = ref.shape[0]
    x, y, z = pts_cam[:, 0], pts_cam[:, 1], pts_cam[:, 2]
    if np.any(z <= 0):
        raise NonPositiveDepth("transformed point has non-positive depth")
    # d(uv)/d(p_cam)
    duv = np.zeros((n, 2, 3))
    duv[:, 0, 0] = camera.fx / z
    duv[:, 0, 2] = -camera.fx * x / (z * z)
    duv[:, 1, 1] = camera.fy / z
    duv[:, 1, 2] = -camera.fy * y / (z * z)
    # d(p_cam)/d(twist): identity for drho, -[R X]_x for dphi (left increment
    # applied to the rotation only, translation updated additively).
    rx = pts_cam - translation
    dp = np.zeros((n, 3, 6))
    dp[:, 0, 0] = dp[:, 1, 1] = dp[:, 2, 2] = 1.0
    dp[:, 0, 4] = rx[:, 2]
    dp[:, 0, 5] = -rx[:, 1]
    dp[:, 1, 3] = -rx[:, 2]
    dp[:, 1, 5] = rx[:, 0]
    dp[:, 2, 3] = rx[:, 1]
    dp[:, 2, 4] = -rx[:, 0]
    return np.einsum("nij,njk->nik", duv, dp).reshape(2 * n, 6)


def jacobian_reprojection(
    camera: PinholeCamera, point_ref: np.ndarray, pose: RigidTransform
) -> np.ndarray:
    """2x6 Jacobian of one corner's residual w.r.t. the local twist.

    Column order is [translation x, y, z, rotation x, y, z]; the rotation
    increment is the left-composed exponential map used by the refiner.
    Matches central finite differences to first order.
    """
    ref = np.asarray(point_ref, dtype=np.float64).reshape(1, 3)
    return _jacobian_block(camera, pose.rotation, pose.translation, ref)[:2]


def refine_lm(
    camera: PinholeCamera,
    corrs: CorrespondenceSet,
    init: RigidTransform,
    config: SolverConfig = SolverConfig(),
) -> PoseEstimate:
    """Minimize the reprojection cost from ``init`` by Levenberg-Marquardt.

    Accepted costs are non-increasing; convergence is declared when the
    relative cost decrease drops below ``cost_tolerance`` or the step norm
    below ``step_tolerance``. Hitting ``max_iterations`` returns the best
    pose so far with ``converged=False`` rather than raising.
    """
    ref, img = corrs.ref, corrs.img
    n = ref.shape[0]
    rotation = init.rotation.copy()
    translation = init.translation.copy()

    r = _residuals(camera, rotation, translation, ref, img)
    if r is None:
        raise NonPositiveDepth("initial pose places points behind the camera")
    cost = float(r @ r)
    trace = [cost]
    lam = config.initial_damping
    converged = False
    iterations = 0

    while iterations < config.max_iterations:
        iterations += 1
        jac = _jacobian_block(camera, rotation, translation, ref)
        h = jac.T @ jac
        g = jac.T @ r
        try:
            step = np.linalg.solve(h + lam * np.eye(6), -g)
        except np.linalg.LinAlgError:
            lam *= config.damping_up
            continue
        cand_rot = _so3_exp(step[3:]) @ rotation
        cand_t = translation + step[:3]
        cand_r = _residuals(camera, cand_rot, cand_t, ref, img)
        cand_cost = float(cand_r @ cand_r) if cand_r is not None else math.inf
        if cand_cost < cost:
            rel_decrease = (cost - cand_cost) / max(cost, 1e-300)
            rotation, translation, r, cost = cand_rot, cand_t, cand_r, cand_cost
            trace.append(cost)
            lam *= config.damping_down
            if rel_decrease < config.cost_tolerance or float(np.linalg.norm(step)) < config.step_tolerance:
                converged = True
                break
        else:
            lam *= config.damping_up
            if float(np.linalg.norm(step)) < config.step_tolerance:
                converged = True
                break

    pose = RigidTransform(_orthonormalize(rotation), translation)
    return PoseEstimate(
        pose=pose,
        rms_reprojection_error=math.sqrt(cost / (2 * n)),
        iterations_used=iterations,
        converged=converged,
        cost_trace=tuple(trace),
    )


def epnp_initialize(camera: PinholeCamera, corrs: CorrespondenceSet) -> RigidTransform:
    """Closed-form pose estimate from the correspondence set.

    Handles the planar case (always true for the tag plate) with three
    control points and a 9x9 null-space system; non-planar input uses four
    control points and the 12x12 system.

    Raises:
        DegenerateConfiguration: fewer than 4 points, or collinear points.
        BehindCamera: no sign choice places the points at positive depth.
    """
    ref, img = corrs.ref, corrs.img
    n = ref.shape[0]
    if n < 4:
        raise DegenerateConfiguration(f"need at least 4 points, got {n}")

    centroid = ref.mean(axis=0)
    centered = ref - centroid
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[1] <= 1e-9 * max(s[0], 1e-300):
        raise DegenerateConfiguration("reference points are collinear")
    planar = s[2] <= _PLANAR_TOL * s[0]

    if planar:
        # Control points: centroid plus the two in-plane principal directions.
        scale = s[:2] / math.sqrt(n)
        ctrl_world = np.vstack(
            [centroid, centroid + scale[0] * vt[0], centroid + scale[1] * vt[1]]
        )
        basis = np.column_stack([vt[0] * scale[0], vt[1] * scale[1]])  # (3, 2)
        coords, *_ = np.linalg.lstsq(basis, centered.T, rcond=None)
        alphas = np.column_stack([1.0 - coords.T.sum(axis=1), coords.T])  # (n, 3)
    else:
        scale = s / math.sqrt(n)
        ctrl_world = np.vstack([centroid + scale[i] * vt[i] for i in range(3)] + [centroid])
        system = np.vstack([ctrl_world.T, np.ones(4)])
        rhs = np.vstack([ref.T, np.ones(n)])
        alphas = np.linalg.solve(system, rhs).T  # (n, 4)

    k = ctrl_world.shape[0]
    m = np.zeros((2 * n, 3 * k))
    for j in range(k):
        a = alphas[:, j]
        m[0::2, 3 * j] = a * camera.fx
        m[0::2, 3 * j + 2] = a * (camera.cx - img[:, 0])
        m[1::2, 3 * j + 1] = a * camera.fy
        m[1::2, 3 * j + 2] = a * (camera.cy - img[:, 1])

    _, vecs = np.linalg.eigh(m.T @ m)
    ctrl_cam = vecs[:, 0].reshape(k, 3)

    # Fix scale by least-squares matching of inter-control-point distances.
    num = 0.0
    den = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            dc = float(np.linalg.norm(ctrl_cam[i] - ctrl_cam[j]))
            dw = float(np.linalg.norm(ctrl_world[i] - ctrl_world[j]))
            num += dc * dw
            den += dc * dc
    if den <= 0:
        raise DegenerateConfiguration("null-space control points collapsed to a point")
    ctrl_cam = ctrl_cam * (num / den)

    pts_cam = alphas @ ctrl_cam
    # Positive-depth voting resolves the eigenvector sign.
    if np.sum(pts_cam[:, 2] > 0) < np.sum(pts_cam[:, 2] < 0):
        pts_cam = -pts_cam
    if np.any(pts_cam[:, 2] <= 0):
        raise BehindCamera("no sign choice places all points at positive depth")

    # Orthogonal Procrustes: R, t minimizing ||pts_cam - (R ref + t)||.
    mu_w = ref.mean(axis=0)
    mu_c = pts_cam.mean(axis=0)
    h = (ref - mu_w).T @ (pts_cam - mu_c)
    uu, _, vvt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vvt.T @ uu.T))
    rotation = vvt.T @ np.diag([1.0, 1.0, d]) @ uu.T
    translation = mu_c - rotation @ mu_w
    return RigidTransform(_orthonormalize(rotation), translation)


def estimate_pose(
    camera: PinholeCamera,
    corrs: CorrespondenceSet,
    config: SolverConfig = SolverConfig(),
    allow_single_tag: bool = False,
    init: RigidTransform | None = None,
) -> PoseEstimate:
    """Full pipeline: EPnP initialization then LM refinement.

    Standard mode requires at least 2 tags (8 corners); pass
    ``allow_single_tag=True`` for the degraded 1-tag (4-corner) mode, which
    is solvable but jitter-prone. A given ``init`` pose (e.g. the previous
    frame's estimate) replaces the EPnP initialization; the tag and corner
    minimums apply either way.
    """
    min_tags = 1 if allow_single_tag else 2
    min_entries = 4 if allow_single_tag else 8
    if corrs.tag_count < min_tags or len(corrs) < min_entries:
        raise TooFewTagsVisible(
            f"{corrs.tag_count} tag(s) / {len(corrs)} corner(s); standard mode "
            f"needs >= 2 tags and 8 corners"
        )
    if init is None:
        init = epnp_initialize(camera, corrs)
    return refine_lm(camera, corrs, init, config)
