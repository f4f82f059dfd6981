"""Plate pose estimation from multi-tag corner correspondences.

The pose ``T`` (plate frame -> camera frame) is the minimizer of the summed
squared reprojection error over all visible corners. It is computed in two
stages:

  1. A closed-form initialization in the style of EPnP (Lepetit,
     Moreno-Noguer & Fua, IJCV 2009), in its planar form: the reference
     points must be coplanar, as every corner of the tag plate is, and are
     written as barycentric combinations of 3 control points in their
     plane; the camera-frame control points are recovered from the null
     space of the 2n x 9 projection system, scale is fixed by matching
     inter-control-point distances, sign by positive-depth voting, and the
     rotation is recovered by orthogonal Procrustes.
  2. Levenberg-Marquardt refinement of the reprojection cost. The rotation is
     updated on the manifold: each accepted step composes a 3-parameter
     exponential-map increment onto the left of the current rotation, which
     avoids Euler singularities inside the solver.

``estimate_poses`` stacks frames of equal corner count into chunks of up to
``CHUNK_FRAMES`` (B, n, ...) arrays, once, and runs both stages back to back
on each chunk; ``estimate_pose`` is ``estimate_poses`` of one frame. EPnP
solves a chunk of one frame with the same batched code. LM keeps a
per-frame loop for a chunk of one frame, where it is faster; that loop is
the reference the batched LM is tested against. A batched estimate matches
the per-frame one to rounding, not bit for bit.

LM runs with fixed module constants: at most ``_MAX_ITERATIONS`` (50)
iterations; convergence when an accepted step lowers the cost by a relative
``_COST_TOLERANCE`` (1e-10) or less, or the step norm falls below
``_STEP_TOLERANCE`` (1e-12); damping starts at ``_INITIAL_DAMPING`` (1e-3)
and is multiplied by ``_DAMPING_UP`` (10) after a rejected step and by
``_DAMPING_DOWN`` (1/3) after an accepted one.

LM also stops, converged, when the gradient of the cost at the current
pose is at the noise floor: ||J^T r||_inf <= ``_GRADIENT_TOLERANCE``
(1e-4; px^2/mm for the translation entries, px^2/rad for the rotation
ones), tested at the initial pose and after every accepted step, where J
and r are rebuilt anyway (Madsen, Nielsen & Tingleff, *Methods for
Non-Linear Least Squares Problems*, 2004). Without it, a frame whose cost no
longer falls in floating point spends up to a dozen rejected steps raising
the damping until the step norm test ends it. The pose the test stops at
lies within the Gauss-Newton step still ahead, ||(J^T J)^-1 J^T r|| <=
sqrt(6) * tolerance / lambda_min(J^T J), of the minimum. lambda_min grows
with the corner count and with the plate area the corners span: at the
reference pose that bound is 6e-8 (mm or rad) for all 140 corners, 1e-6 for
36, 1e-4 for the 8 corners of two tags and 5e-4 for the 4 of one. The noise
sigma does not enter it, since the gradient vanishes at the minimum whatever
the noise, but sigma scales the pose scatter: at sigma = 0.25 px the
largest per-axis pose standard deviation is 0.004 mm for 140 corners, 0.16
for 8 and 0.36 for 4, 600 or more times the bound.

``iterations_used`` counts damped solves, accepted and rejected steps
alike; the gradient test is not an iteration, so a frame whose initial pose
already passes it reports 0.

Solvers are pure functions of their inputs; identical inputs give
bit-identical estimates. The hidden state is two one-entry memos, both keyed
on the corner table that every unoccluded frame repeats. ``_epnp_reference``
keeps the EPnP terms that depend only on a chunk's reference points, from
the centroids and the SVD of the centered points to the barycentric
coordinates and control-point distances, so a stream of such frames
computes them once; a result from the memo is bit-identical to a cold
solve. ``_last_table`` keeps the ids, corner indices and reference points of
the last valid ``CorrespondenceSet``: a set whose table equals it shares
those read-only arrays and copies and checks only its pixels. There is no
outlier rejection: correspondences carry known associations (simulated or
id-decoded), so every entry enters the cost. A robust front end would be
the extension point for raw detector input with association errors.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    BehindCamera,
    DegenerateConfiguration,
    NonPositiveDepth,
    RingSenseError,
    TooFewTagsVisible,
    ValidationFailure,
    read_integer,
    read_number,
)
from .geometry import PinholeCamera, RigidTransform, _pinhole, _proper_transform

_PLANAR_TOL = 1e-7
# EPnP control-point pairs i < j, as (first, second) index arrays.
_CONTROL_PAIRS = np.triu_indices(3, 1)
# Frames solved together: bounds the stacked arrays, and so the memory, of one chunk.
CHUNK_FRAMES = 64
# Levenberg-Marquardt settings; they converge well below the noise floor on
# 140-corner problems. The loops read them at call time.
_MAX_ITERATIONS = 50
_COST_TOLERANCE = 1e-10
_STEP_TOLERANCE = 1e-12
# Gradient stop: ||J^T r||_inf at or below this (px^2/mm for the translation
# entries, px^2/rad for the rotation ones) is converged.
_GRADIENT_TOLERANCE = 1e-4
_INITIAL_DAMPING = 1e-3
_DAMPING_UP = 10.0
_DAMPING_DOWN = 1.0 / 3.0
_EYE6 = np.eye(6)
_EYE6.setflags(write=False)
_INT64 = np.iinfo(np.int64)  # tag ids and corner indices are int64 in every CorrespondenceSet
_TAG_ID_MESSAGES = ("tag ids must fit in int64, got {}", "tag ids must be integers, got {}")
# The (tag_ids, corner_idx, ref) of the last valid CorrespondenceSet: read-only
# copies that its constructor made, never an array a caller passed in.
_last_table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def _int64s(values, outside: str, fractional: str | None = None) -> np.ndarray:
    """``values`` as an int64 array, the caller's own when it already is one:
    the one integer rule of tag ids and corner indices. Integer-valued floats
    convert; a value that the conversion would change raises ``outside`` (an
    integer outside int64) or ``fractional`` (default ``outside``; anything
    else), formatted with the first such value."""
    array = np.asarray(values)
    if array.dtype == np.int64:
        return array
    for v in np.array(values, dtype=object).ravel().tolist():
        if not (isinstance(v, (int, np.integer)) or isinstance(v, float) and v.is_integer()):
            raise ValidationFailure((fractional or outside).format(v))
        if not _INT64.min <= v <= _INT64.max:
            raise ValidationFailure(outside.format(v))
    return np.asarray(values, dtype=np.int64)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` is ``b`` or has its dtype, shape and bytes."""
    return a is b or (a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes())


@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """All matched corners of one frame, as four aligned read-only arrays.

    Row ``i`` is corner ``corner_idx[i]`` of tag ``tag_ids[i]``, at plate-frame
    point ``ref[i]`` (mm) and observed at pixel ``img[i]``; shapes (n,),
    (n,), (n, 3) and (n, 2). Structural invariants (integer ids and corner
    indices that fit in int64, agreeing shapes, no duplicate (tag_id, corner)
    pairs, corner index 0..3, finite coordinates) are enforced here. Image-bound
    containment is the producer's contract (see the simulator); the solvers
    accept any finite pixel coordinates.

    A set shares memory with no array its caller made, only with other
    sets: when ``tag_ids``, ``corner_idx`` and ``ref`` are those of the last
    valid set (the same arrays, or the same dtype, shape and bytes), the set
    takes that set's arrays and copies and checks only ``img``.
    """

    tag_ids: np.ndarray
    corner_idx: np.ndarray
    ref: np.ndarray
    img: np.ndarray

    def __post_init__(self) -> None:
        global _last_table
        table = (_int64s(self.tag_ids, *_TAG_ID_MESSAGES),
                 _int64s(self.corner_idx, "corner_index must be 0..3, got {}"),
                 np.asarray(self.ref, dtype=np.float64))
        last = _last_table
        shared = last is not None and all(map(_same, table, last))
        tag_ids, corner_idx, ref = table = last if shared else tuple(np.array(a) for a in table)
        img = np.array(self.img, dtype=np.float64)
        n = tag_ids.shape[0] if tag_ids.ndim == 1 else -1
        if (corner_idx.shape, ref.shape, img.shape) != ((n,), (n, 3), (n, 2)):
            raise ValidationFailure(
                "correspondence arrays must have shapes (n,), (n,), (n, 3), (n, 2); got "
                f"{tag_ids.shape}, {corner_idx.shape}, {ref.shape}, {img.shape}"
            )
        if not shared:  # a shared table passed these checks when it was built
            order = np.lexsort((corner_idx, tag_ids))
            t, c = tag_ids[order], corner_idx[order]
            if ((t[1:] == t[:-1]) & (c[1:] == c[:-1])).any():
                raise ValidationFailure("duplicate (tag_id, corner_index) pair in correspondences")
            bad = (corner_idx < 0) | (corner_idx > 3)
            if bad.any():
                raise ValidationFailure(
                    f"corner_index must be 0..3, got {corner_idx[np.argmax(bad)]}")
        if not ((shared or np.isfinite(ref).all()) and np.isfinite(img).all()):
            raise ValidationFailure("correspondence coordinates must be finite")
        for f, a in zip(fields(self), (*table, img)):
            a.setflags(write=False)
            object.__setattr__(self, f.name, a)
        _last_table = table

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
        if not self.rms_reprojection_error >= 0:  # NaN fails too
            raise ValidationFailure(
                f"rms reprojection error must be non-negative, got {self.rms_reprojection_error}")
        if self.iterations_used < 0:
            raise ValidationFailure(
                f"iterations used must be non-negative, got {self.iterations_used}")

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
            rms_reprojection_error=read_number(data["rms_reprojection_error"],
                                               "rms_reprojection_error"),
            iterations_used=read_integer(data["iterations_used"], "iterations_used"),
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


def _so3_exp_many(phi: np.ndarray) -> np.ndarray:
    """``_so3_exp`` of each row of a (B, 3) stack of increments, (B, 3, 3)."""
    angle = np.sqrt((phi * phi).sum(axis=1))
    k = np.zeros((phi.shape[0], 3, 3))
    k[:, 0, 1], k[:, 0, 2] = -phi[:, 2], phi[:, 1]
    k[:, 1, 0], k[:, 1, 2] = phi[:, 2], -phi[:, 0]
    k[:, 2, 0], k[:, 2, 1] = -phi[:, 1], phi[:, 0]
    small = angle < 1e-12
    safe = np.where(small, 1.0, angle)
    a = np.where(small, 1.0, np.sin(safe) / safe)
    b = np.where(small, 0.5, (1.0 - np.cos(safe)) / (safe * safe))
    return np.eye(3) + a[:, None, None] * k + b[:, None, None] * (k @ k)


def _orthonormalize(r: np.ndarray) -> np.ndarray:
    """Nearest proper rotation of each (..., 3, 3) matrix (polar
    decomposition via SVD)."""
    u, _, vt = np.linalg.svd(r)
    u[..., 2] *= np.sign(np.linalg.det(u @ vt))[..., None]
    return u @ vt


def _residuals(camera, rotation, translation, ref, img):
    """Residuals (projected - observed) of each frame, shape (..., 2n), the
    camera-frame points ``ref @ R^T + t``, shape (..., n, 3), and whether
    each frame has no point at non-positive depth.

    Shapes: rotation (..., 3, 3), translation (..., 3), ref (..., n, 3),
    img (..., n, 2). The LM loops accept only a frame whose flag is set and
    keep its points, so every point set they pass to ``_jacobian_block``
    has positive depth.
    """
    pts_cam = ref @ np.swapaxes(rotation, -1, -2) + translation[..., None, :]
    ahead = ~np.any(pts_cam[..., 2] <= 0, axis=-1)
    r = _pinhole(camera, pts_cam) - img
    return r.reshape(r.shape[:-2] + (-1,)), pts_cam, ahead


def _jacobian_block(camera, pts_cam, translation):
    """Jacobian of each frame's residuals w.r.t. its local twist
    [drho; dphi], shape (..., 2n, 6), built from the camera-frame points
    ``pts_cam`` (..., n, 3) of the pose with translation (..., 3).

    Precondition, not checked here: every depth ``pts_cam[..., 2]`` is
    positive.
    """
    x, y, z = pts_cam[..., 0], pts_cam[..., 1], pts_cam[..., 2]
    # Chain rule d(uv)/d(p_cam) @ d(p_cam)/d(twist), written out entry by
    # entry. d(p_cam)/d(twist) is the identity for drho and -[R X]_x for
    # dphi (left increment applied to the rotation only, translation
    # updated additively).
    du_dx, du_dz = camera.fx / z, -camera.fx * x / (z * z)
    dv_dy, dv_dz = camera.fy / z, -camera.fy * y / (z * z)
    rx = pts_cam - translation[..., None, :]
    jac = np.zeros(z.shape + (2, 6))
    jac[..., 0, 0] = du_dx
    jac[..., 0, 2] = du_dz
    jac[..., 0, 3] = du_dz * rx[..., 1]
    jac[..., 0, 4] = du_dx * rx[..., 2] - du_dz * rx[..., 0]
    jac[..., 0, 5] = -du_dx * rx[..., 1]
    jac[..., 1, 1] = dv_dy
    jac[..., 1, 2] = dv_dz
    jac[..., 1, 3] = -dv_dy * rx[..., 2] + dv_dz * rx[..., 1]
    jac[..., 1, 4] = -dv_dz * rx[..., 0]
    jac[..., 1, 5] = dv_dy * rx[..., 0]
    return jac.reshape(z.shape[:-1] + (-1, 6))


def jacobian_reprojection(
    camera: PinholeCamera, point_ref: np.ndarray, pose: RigidTransform
) -> np.ndarray:
    """2x6 Jacobian of one corner's residual w.r.t. the local twist.

    Column order is [translation x, y, z, rotation x, y, z]; the rotation
    increment is the left-composed exponential map used by the refiner.
    Matches central finite differences to first order.

    Raises:
        NonPositiveDepth: the point is at or behind the camera under ``pose``.
    """
    pts_cam = pose.apply(np.asarray(point_ref, dtype=np.float64).reshape(1, 3))
    if pts_cam[0, 2] <= 0:
        raise NonPositiveDepth("transformed point has non-positive depth")
    return _jacobian_block(camera, pts_cam, pose.translation)[:2]


def _chunks(frames: Sequence[CorrespondenceSet]):
    """Frame indices grouped by corner count, in chunks of at most
    ``CHUNK_FRAMES``, each with its frames' stacked ``ref`` (B, n, 3) and
    ``img`` (B, n, 2); input order is kept within a chunk."""
    groups: dict[int, list[int]] = {}
    for i, corrs in enumerate(frames):
        groups.setdefault(len(corrs), []).append(i)
    for indices in groups.values():
        for start in range(0, len(indices), CHUNK_FRAMES):
            idx = indices[start:start + CHUNK_FRAMES]
            yield (idx, np.stack([frames[i].ref for i in idx]),
                   np.stack([frames[i].img for i in idx]))


def _estimate(rotation, translation, cost, n, iterations, converged, trace) -> PoseEstimate:
    return PoseEstimate(
        pose=_proper_transform(rotation, translation),
        rms_reprojection_error=math.sqrt(cost / (2 * n)),
        iterations_used=iterations,
        converged=converged,
        cost_trace=tuple(trace),
    )


def _refine_frame(camera, ref, img, rotation, translation) -> PoseEstimate:
    """Levenberg-Marquardt on one frame, ref (n, 3) and img (n, 2), from
    rotation (3, 3) and translation (3,); the reference for ``_refine_chunk``."""
    r, pts, ahead = _residuals(camera, rotation, translation, ref, img)
    if not ahead:
        raise NonPositiveDepth("initial pose places points behind the camera")
    cost = float(r @ r)
    trace = [cost]
    lam = _INITIAL_DAMPING
    converged = False
    iterations = 0
    h = None  # J^T J at the current pose; a rejected step keeps it

    while iterations < _MAX_ITERATIONS:
        if h is None:
            jac = _jacobian_block(camera, pts, translation)
            h = jac.T @ jac
            g = jac.T @ r
            if float(np.abs(g).max()) <= _GRADIENT_TOLERANCE:
                converged = True
                break
        iterations += 1
        try:
            step = np.linalg.solve(h + lam * _EYE6, -g)
        except np.linalg.LinAlgError:
            lam *= _DAMPING_UP
            continue
        cand_rot = _so3_exp(step[3:]) @ rotation
        cand_t = translation + step[:3]
        cand_r, cand_pts, ahead = _residuals(camera, cand_rot, cand_t, ref, img)
        cand_cost = float(cand_r @ cand_r) if ahead else math.inf
        if cand_cost < cost:
            rel_decrease = (cost - cand_cost) / max(cost, 1e-300)
            rotation, translation, r, pts, cost = cand_rot, cand_t, cand_r, cand_pts, cand_cost
            trace.append(cost)
            h = None
            lam *= _DAMPING_DOWN
            if rel_decrease < _COST_TOLERANCE or math.sqrt(step @ step) < _STEP_TOLERANCE:
                converged = True
                break
        else:
            lam *= _DAMPING_UP
            if math.sqrt(step @ step) < _STEP_TOLERANCE:
                converged = True
                break

    return _estimate(_orthonormalize(rotation), translation, cost, ref.shape[0],
                     iterations, converged, trace)


def _refine_chunk(camera, ref, img, rotation, translation) -> list[PoseEstimate]:
    """``_refine_frame`` on B frames at once: ref (B, n, 3), img (B, n, 2)
    and initial poses rotation (B, 3, 3), translation (B, 3).

    Every frame keeps its own damping, accept/reject decisions and cost
    trace. The frames share one iteration counter; a frame leaves the chunk
    when it converges or the counter reaches ``_MAX_ITERATIONS``, and its
    normal equations are rebuilt, and its gradient tested, only after it
    accepts a step. A frame that passes the gradient test leaves before the
    next solve, as ``_refine_frame`` stops before it.
    """
    b, n = ref.shape[:2]
    r, pts, ahead = _residuals(camera, rotation, translation, ref, img)
    if not ahead.all():
        raise NonPositiveDepth("initial pose places points behind the camera")
    cost = (r * r).sum(axis=1)
    traces = [[c] for c in cost.tolist()]
    lam = np.full(b, _INITIAL_DAMPING)
    ids = np.arange(b)  # input position of each row still in the chunk
    stale = np.ones(b, dtype=bool)  # rows whose pose moved since h, g were built
    done = np.zeros(b, dtype=bool)  # rows converged by their last step or gradient
    h, g = np.empty((b, 6, 6)), np.empty((b, 6))
    out: list[PoseEstimate | None] = [None] * b

    for iteration in range(_MAX_ITERATIONS + 1):  # the damped solves made so far
        last = iteration == _MAX_ITERATIONS
        rebuild = stale & ~done
        if not last and rebuild.any():
            jac = _jacobian_block(camera, pts[rebuild], translation[rebuild])
            jac_t = jac.swapaxes(1, 2)
            h[rebuild] = jac_t @ jac
            g[rebuild] = (jac_t @ r[rebuild][..., None])[..., 0]
            done |= rebuild & (np.abs(g).max(axis=1) <= _GRADIENT_TOLERANCE)
        leave = np.ones(len(ids), dtype=bool) if last else done
        if leave.any():
            for i, rot in zip(np.flatnonzero(leave).tolist(), _orthonormalize(rotation[leave])):
                out[ids[i]] = _estimate(rot, translation[i], float(cost[i]), n, iteration,
                                        bool(done[i]), traces[ids[i]])
            keep = ~leave
            if not keep.any():
                break
            ids, ref, img, rotation, translation, r, pts, cost, lam, stale, done, h, g = (
                a[keep] for a in (ids, ref, img, rotation, translation, r, pts, cost, lam, stale,
                                  done, h, g))
        step = np.linalg.solve(h + lam[:, None, None] * _EYE6, -g[..., None])[..., 0]
        cand_rot = _so3_exp_many(step[:, 3:]) @ rotation
        cand_t = translation + step[:, :3]
        cand_r, cand_pts, ahead = _residuals(camera, cand_rot, cand_t, ref, img)
        cand_cost = np.where(ahead, (cand_r * cand_r).sum(axis=1), np.inf)
        accept = cand_cost < cost
        rel_decrease = (cost - cand_cost) / np.maximum(cost, 1e-300)
        done = (np.linalg.norm(step, axis=1) < _STEP_TOLERANCE) | (
            accept & (rel_decrease < _COST_TOLERANCE))

        rotation = np.where(accept[:, None, None], cand_rot, rotation)
        translation = np.where(accept[:, None], cand_t, translation)
        r = np.where(accept[:, None], cand_r, r)
        pts = np.where(accept[:, None, None], cand_pts, pts)
        cost = np.where(accept, cand_cost, cost)
        lam = lam * np.where(accept, _DAMPING_DOWN, _DAMPING_UP)
        stale = accept
        for i in np.flatnonzero(accept).tolist():
            traces[ids[i]].append(float(cost[i]))
    return out


def refine_lm(camera: PinholeCamera, ref: np.ndarray, img: np.ndarray,
              rotation: np.ndarray, translation: np.ndarray) -> list[PoseEstimate]:
    """Minimize the reprojection cost of each of B frames of equal corner
    count, ref (B, n, 3) and img (B, n, 2), by Levenberg-Marquardt from its
    initial pose, rotation (B, 3, 3) and translation (B, 3); one estimate per
    frame, in input order.

    The settings and stopping tests are the module docstring's. Accepted
    costs are non-increasing; hitting ``_MAX_ITERATIONS`` returns the best
    pose so far with ``converged=False`` rather than raising. B > 1 runs the
    batched loop; B = 1 runs the per-frame loop, as does a batch whose damped
    system turns singular.

    Raises:
        NonPositiveDepth: an initial pose places points behind the camera.
    """
    if ref.shape[0] > 1:
        try:
            return _refine_chunk(camera, ref, img, rotation, translation)
        except np.linalg.LinAlgError:
            pass  # a singular damped system: the per-frame loop raises the damping instead
    return [_refine_frame(camera, *frame) for frame in zip(ref, img, rotation, translation)]


@functools.lru_cache(maxsize=1)
def _epnp_reference(data: bytes, shape: tuple[int, ...]):
    """The reference-side EPnP terms of a (B, n, 3) stack of plate-frame
    points, given as its float64 bytes and shape: the centroids (B, 3),
    centered points (B, n, 3), barycentric coordinates (B, n, 3) and
    distances between the 3 control points (B, 3), all read-only.

    They depend on the reference points alone, which are the same corner
    table in every unoccluded frame, so the last stack's terms are kept: a
    repeat costs a hash of the bytes, not an SVD. A degenerate stack raises
    on every call, since ``lru_cache`` does not keep exceptions.
    """
    ref = np.frombuffer(data).reshape(shape)
    n = shape[1]
    centroid = ref.mean(axis=1)
    centered = ref - centroid[:, None]
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if np.any(s[:, 1] <= 1e-9 * np.maximum(s[:, 0], 1e-300)):
        raise DegenerateConfiguration("reference points are collinear")
    if np.any(s[:, 2] > _PLANAR_TOL * s[:, 0]):
        raise DegenerateConfiguration("reference points are not coplanar")

    # Control points: the centroid plus one point along each of the two
    # in-plane principal axes. The axes are orthonormal, so the barycentric
    # coordinates are projections onto them.
    scale = s[:, :2] / math.sqrt(n)
    axes = vt[:, :2]  # (B, 2, 3)
    ctrl_world = np.concatenate([centroid[:, None], centroid[:, None] + scale[..., None] * axes],
                                axis=1)  # (B, 3, 3)
    coords = (centered @ axes.swapaxes(1, 2)) / scale[:, None]  # (B, n, 2)
    alphas = np.concatenate([1.0 - coords.sum(axis=2, keepdims=True), coords], axis=2)
    first, second = _CONTROL_PAIRS
    d = ctrl_world[:, first] - ctrl_world[:, second]
    dw = np.sqrt((d * d).sum(axis=2))
    terms = (centroid, centered, alphas, dw)
    for a in terms:
        a.setflags(write=False)
    return terms


def _epnp_chunk(camera, ref, img):
    """Closed-form pose of B frames at once, ref (B, n, 3) and img (B, n, 2):
    rotation (B, 3, 3) and translation (B, 3)."""
    b, n = ref.shape[:2]
    if n < 4:
        raise DegenerateConfiguration(f"need at least 4 points, got {n}")
    centroid, centered, alphas, dw = _epnp_reference(ref.tobytes(), ref.shape)

    m = np.zeros((b, n, 2, 9))
    m[:, :, 0, 0::3] = alphas * camera.fx
    m[:, :, 0, 2::3] = alphas * (camera.cx - img[..., 0:1])
    m[:, :, 1, 1::3] = alphas * camera.fy
    m[:, :, 1, 2::3] = alphas * (camera.cy - img[..., 1:2])
    m = m.reshape(b, 2 * n, 9)
    _, vecs = np.linalg.eigh(m.swapaxes(1, 2) @ m)
    ctrl_cam = vecs[:, :, 0].reshape(b, 3, 3)

    # Fix scale by least-squares matching of inter-control-point distances.
    first, second = _CONTROL_PAIRS
    d = ctrl_cam[:, first] - ctrl_cam[:, second]
    dc = np.sqrt((d * d).sum(axis=2))
    den = (dc * dc).sum(axis=1)
    if np.any(den <= 0):
        raise DegenerateConfiguration("null-space control points collapsed to a point")
    pts_cam = alphas @ (ctrl_cam * ((dc * dw).sum(axis=1) / den)[:, None, None])

    # Positive-depth voting resolves the eigenvector sign.
    z = pts_cam[..., 2]
    flip = (z > 0).sum(axis=1) < (z < 0).sum(axis=1)
    pts_cam = np.where(flip[:, None, None], -pts_cam, pts_cam)
    if np.any(pts_cam[..., 2] <= 0):
        raise BehindCamera("no sign choice places all points at positive depth")

    # Orthogonal Procrustes: R, t minimizing ||pts_cam - (R ref + t)||.
    mu_c = pts_cam.mean(axis=1)
    h = centered.swapaxes(1, 2) @ (pts_cam - mu_c[:, None])
    uu, _, vvt = np.linalg.svd(h)
    v, u_t = vvt.swapaxes(1, 2), uu.swapaxes(1, 2)
    v[..., 2] *= np.sign(np.linalg.det(v @ u_t))[:, None]
    rotation = v @ u_t
    return rotation, mu_c - (rotation @ centroid[..., None])[..., 0]


def epnp_initialize(camera: PinholeCamera, ref: np.ndarray,
                    img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form pose of each of B frames of equal corner count, ref
    (B, n, 3) and img (B, n, 2): rotation (B, 3, 3) and translation (B, 3).

    Every frame's reference points must be coplanar, as the tag plate's
    corners are; they are solved with three control points in that plane
    and a 9x9 null-space system.

    Raises:
        DegenerateConfiguration: fewer than 4 points, collinear or
        non-coplanar points, or coordinates so extreme that a decomposition
        does not converge.
        BehindCamera: no sign choice places the points at positive depth.
        ValidationFailure: the pose is not finite.
    """
    try:
        # Extreme but finite coordinates overflow on the way to the
        # decompositions; the failure is reported once, as the error.
        with np.errstate(over="ignore", invalid="ignore"):
            rotation, translation = _epnp_chunk(camera, ref, img)
    except np.linalg.LinAlgError as exc:
        raise DegenerateConfiguration(f"EPnP failed: {exc}") from None
    for name, values in (("rotation", rotation), ("translation", translation)):
        if not np.isfinite(values).all():
            raise ValidationFailure(f"{name} must be finite")
    return rotation, translation


def _check_visible(corrs: CorrespondenceSet, allow_single_tag: bool) -> None:
    """The tag gate. ``CorrespondenceSet`` holds at most 4 corners per tag
    (no duplicate (tag, corner) pair, corners 0..3), so 8 corners imply at
    least 2 tags and 4 at least 1: the corner minimum is the whole test."""
    mode, min_tags, min_entries = (("single-tag", 1, 4) if allow_single_tag
                                   else ("standard", 2, 8))
    if len(corrs) < min_entries:
        raise TooFewTagsVisible(
            f"{corrs.tag_count} tag(s) / {len(corrs)} corner(s); {mode} mode "
            f"needs >= {min_tags} tag(s) and {min_entries} corners"
        )


def estimate_pose(camera: PinholeCamera, corrs: CorrespondenceSet,
                  allow_single_tag: bool = False) -> PoseEstimate:
    """``estimate_poses`` of one frame: EPnP initialization then LM
    refinement.

    Standard mode requires at least 2 tags (8 corners); pass
    ``allow_single_tag=True`` for the degraded 1-tag (4-corner) mode, which
    is solvable but jitter-prone.
    """
    [estimate] = estimate_poses(camera, [corrs], allow_single_tag)
    return estimate


def estimate_poses(camera: PinholeCamera, frames: Sequence[CorrespondenceSet],
                   allow_single_tag: bool = False) -> list[PoseEstimate]:
    """The pose of every frame, in input order: the tag gate on every frame,
    then EPnP and LM back to back on each chunk's stacked arrays. Raises the
    error of the first frame, in input order, that the gate or a solve rejects.
    """
    try:
        for corrs in frames:
            _check_visible(corrs, allow_single_tag)
        out = {}
        for idx, ref, img in _chunks(frames):
            out.update(zip(idx, refine_lm(camera, ref, img, *epnp_initialize(camera, ref, img))))
        return [out[i] for i in range(len(frames))]
    except RingSenseError:
        if len(frames) == 1:
            raise
        # Chunks do not run in input order, and the tag gate runs ahead of
        # every solve: frame by frame, the first bad frame raises.
        return [estimate_pose(camera, corrs, allow_single_tag) for corrs in frames]
