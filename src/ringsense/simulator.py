"""Compliant-ring ground-truth oracle.

Models the ring as a linear 6-D compliance: an applied wrench maps to a
plate deformation through ``delta_L = C @ F``. Frames are synthesized by
deforming the reference pose, projecting all visible tag corners, and
perturbing them with i.i.d. Gaussian pixel noise; whole tags drop out with
a configurable occlusion probability.

Occlusion is a boolean mask over the layout's tags: only the unmasked
tags are projected, and no reduced layout is built. Their plate-frame
corners are rows of the corner table the layout computed once, so a frame
costs one table lookup per visible tag, one rigid transform of all visible
corners and one projection per visible tag.

A sweep works on sweep-level arrays first: the (B, 6) wrenches, then the
(B, 6) deformations as one product with the compliance and one limit check.
Each row holds at most one non-zero wrench component, so the product gives
the bytes :func:`deform` gives that wrench, signed zeros included. Then
each frame is drawn from its own pose (``apply_delta``) and RNG stream. A
sweep is returned as the two arrays plus its frames.

The default compliance is diagonal and reverse-engineered so that the
reference minimum-detectable-pose floor maps exactly onto the reference
minimum-detectable-wrench vector, which turns the sensitivity analysis
into an end-to-end closed-loop check. It is synthetic, not a measured
property of any physical ring.

Determinism: every frame derives its RNG from (seed, stream index) by
stable hashing, so identical inputs yield bit-identical datasets and
parallel generation with per-task simulators is safe. A sweep numbers its
streams itself, from its axis and its sample count, so a single-axis sweep
draws the frames of that axis's block of an all-axes run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ValidationFailure
from .geometry import (
    DeformationVector,
    PinholeCamera,
    RigidTransform,
    _frozen_array,
    apply_delta,
    project_points,
)
from .layout import TagLayout, _require_two_tags, corners_ref
from .pnp import CorrespondenceSet

# Reference sensitivity floor (mm, rad) and wrench floor (mN, mN*m) that the
# default compliance is constructed from: C_ii = floor_pose_i / floor_wrench_i.
_POSE_FLOOR = (0.0135, 0.0135, 0.0135, 0.0136, 0.0136, 0.0136)
_WRENCH_FLOOR = (4.30, 4.22, 9.93, 0.32, 0.13, 8.55)


@dataclass(frozen=True)
class Wrench:
    """Forces in mN and torques in mN*m (identically N*mm)."""

    fx: float
    fy: float
    fz: float
    tx: float
    ty: float
    tz: float

    def __post_init__(self) -> None:
        _frozen_array(self.as_array(), (6,), "wrench components")

    def as_array(self) -> np.ndarray:
        return np.array([self.fx, self.fy, self.fz, self.tx, self.ty, self.tz])

    @classmethod
    def from_array(cls, values) -> "Wrench":
        return cls(*_frozen_array(values, (6,), "wrench components").tolist())


@dataclass(frozen=True)
class ComplianceModel:
    """Linear map from wrench to deformation, with per-component limits.

    ``compliance`` rows are deformation components (mm then rad), columns
    wrench components (mN then mN*m). The map is exactly linear and
    superposable.
    """

    compliance: np.ndarray
    deformation_limit: np.ndarray

    def __post_init__(self) -> None:
        c = _frozen_array(self.compliance, (6, 6), "compliance")
        lim = _frozen_array(self.deformation_limit, (6,), "deformation_limit")
        if np.any(lim <= 0):
            raise ValidationFailure("deformation_limit must be 6 positive components")
        if np.max(np.abs(c - c.T)) >= 1e-9:
            raise ValidationFailure("compliance must be symmetric within 1e-9")
        if np.min(np.linalg.eigvalsh((c + c.T) / 2.0)) <= 0:
            raise ValidationFailure("compliance must be positive definite")
        object.__setattr__(self, "compliance", c)
        object.__setattr__(self, "deformation_limit", lim)


def default_compliance() -> ComplianceModel:
    """Diagonal compliance matched to the reference sensitivity vectors.

    Limits default to 1.0 mm per translation and 0.15 rad per rotation.
    """
    diag = np.array([p / w for p, w in zip(_POSE_FLOOR, _WRENCH_FLOOR)])
    return ComplianceModel(
        compliance=np.diag(diag),
        deformation_limit=np.array([1.0, 1.0, 1.0, 0.15, 0.15, 0.15]),
    )


@dataclass(frozen=True)
class NoiseModel:
    """Observation noise: corner jitter in px, per-tag dropout, RNG seed.

    Noise lives purely in image space; ground-truth poses are exact.
    """

    corner_sigma: float = 0.25
    occlusion_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.corner_sigma < np.inf:
            raise ValidationFailure("corner_sigma must be finite and non-negative")
        if not 0.0 <= self.occlusion_probability < 1.0:
            raise ValidationFailure("occlusion_probability must be in [0, 1)")


def derive_seed(seed: int, index: int | str) -> int:
    """Stable child seed for stream ``index`` (hash-based, order-free)."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def deform(model: ComplianceModel, wrench: Wrench) -> DeformationVector:
    """Deformation produced by ``wrench``: ``C @ F``.

    Raises:
        ValidationFailure: if any component exceeds its limit.
    """
    delta = model.compliance @ wrench.as_array()
    _check_limits(model, delta[None])
    return DeformationVector.from_array(delta)


def _check_limits(model: ComplianceModel, deltas: np.ndarray) -> None:
    """Raise ValidationFailure for the first row of the (B, 6)
    ``deltas`` with a component over its limit, naming its worst component."""
    over = (np.abs(deltas) > model.deformation_limit).any(axis=1)
    if over.any():
        delta = deltas[int(np.argmax(over))]
        worst = int(np.argmax(np.abs(delta) - model.deformation_limit))
        raise ValidationFailure(
            f"component {worst} deformation {delta[worst]:.6g} exceeds limit "
            f"{model.deformation_limit[worst]:.6g}"
        )


def default_reference_pose() -> RigidTransform:
    """No-contact plate pose: axis-aligned, 10 mm in front of the camera."""
    return RigidTransform(np.eye(3), np.array([0.0, 0.0, 10.0]))


def project_layout(
    camera: PinholeCamera,
    layout: TagLayout,
    pose: RigidTransform,
    visible: np.ndarray | None = None,
) -> CorrespondenceSet:
    """Exact projection of every corner of ``layout`` under ``pose``.

    ``visible``, a boolean mask over ``layout.tags``, keeps only the tags it
    marks. No noise and no image-bounds check; building block for the
    synthesizer and for closed-form test oracles.

    Raises:
        ValidationFailure: if ``visible`` does not hold one entry per tag,
        or naming the first tag with a corner at or behind the camera.
    """
    if visible is None:
        tags = layout.tags
    elif len(visible) != len(layout):
        raise ValidationFailure(
            f"visible mask has {len(visible)} entries for a layout of {len(layout)} tags")
    else:
        tags = [t for t, v in zip(layout.tags, visible) if v]
    ids = [t.tag_id for t in tags]
    # The empty arrays keep a frame without tags stackable.
    ref = np.concatenate([corners_ref(layout, i) for i in ids] or [np.empty((0, 3))])
    cams = ref.reshape(-1, 4, 3) @ pose.rotation.T + pose.translation
    behind = cams[..., 2] <= 0
    if behind.any():
        tag_id = ids[int(np.argmax(behind.any(axis=1)))]
        raise ValidationFailure(f"tag {tag_id} has corners behind the camera")
    # One project_points call per visible tag: the benchmark's traced test
    # asserts that per-frame call count.
    img = np.concatenate([project_points(camera, c) for c in cams] or [np.empty((0, 2))])
    return CorrespondenceSet(
        tag_ids=np.repeat(ids, 4),
        corner_idx=np.arange(4 * len(ids)) % 4,
        ref=ref,
        img=img,
    )


def _observe(
    camera: PinholeCamera, layout: TagLayout, pose: RigidTransform, noise: NoiseModel,
    rng: np.random.Generator,
) -> CorrespondenceSet:
    """The corners of ``layout`` a camera sees with the plate at ``pose``:
    occlusion mask first, then projection, then pixel noise. The mask and
    the noise are drawn from ``rng``, the frame's own stream."""
    visible = None
    if noise.occlusion_probability > 0:
        visible = rng.random(len(layout)) >= noise.occlusion_probability
        _require_two_tags(int(np.count_nonzero(visible)))

    exact = project_layout(camera, layout, pose, visible)
    img = exact.img
    if noise.corner_sigma > 0:
        img = img + rng.normal(0.0, noise.corner_sigma, size=img.shape)
    inside = camera.contains(img)
    if not inside.all():
        k = int(np.argmin(inside))
        raise ValidationFailure(
            f"tag {exact.tag_ids[k]} corner {exact.corner_idx[k]} at ({img[k, 0]:.6g}, {img[k, 1]:.6g}) "
            f"is outside the {camera.image_width:.6g}x{camera.image_height:.6g} image"
        )
    return CorrespondenceSet(exact.tag_ids, exact.corner_idx, exact.ref, img)


def synthesize_frame(
    camera: PinholeCamera,
    layout: TagLayout,
    reference_pose: RigidTransform,
    wrench: Wrench,
    compliance: ComplianceModel,
    noise: NoiseModel,
) -> tuple[CorrespondenceSet, RigidTransform]:
    """One observed frame plus its ground-truth pose.

    Occlusion is drawn first (whole tags), then corner noise for the
    surviving corners, so the failure mode with too few tags is decided
    before any noise is consumed.

    Raises:
        ValidationFailure: for a deformation over its limit or a corner
        behind the camera or outside the image.
        TooFewTagsVisible: if occlusion leaves fewer than two tags.
    """
    ground_truth = apply_delta(reference_pose, deform(compliance, wrench))
    rng = np.random.default_rng(noise.seed)
    return _observe(camera, layout, ground_truth, noise, rng), ground_truth


def axis_magnitudes(
    compliance: ComplianceModel, axis: int, count: int, span_fraction: float = 0.8
) -> np.ndarray:
    """Symmetric magnitude grid filling ``span_fraction`` of the linear range."""
    if not 0 < span_fraction <= 1:
        raise ValidationFailure("span_fraction must be in (0, 1]")
    if count < 0:
        raise ValidationFailure(f"sample count must be non-negative, got {count}")
    col = np.abs(compliance.compliance[:, axis])
    active = col > 0
    limit = np.min(compliance.deformation_limit[active] / col[active])
    return np.linspace(-span_fraction * limit, span_fraction * limit, count)


def sweep_dataset(
    axis: int,
    magnitudes,
    camera: PinholeCamera,
    layout: TagLayout,
    reference_pose: RigidTransform,
    compliance: ComplianceModel,
    noise: NoiseModel,
) -> tuple[np.ndarray, np.ndarray, list[CorrespondenceSet]]:
    """Single-axis sweep: one synthesized frame per magnitude, input order.

    Returns (wrenches, deformations, frames): the applied wrenches and the
    true deformations as (B, 6) arrays, and the B observed frames. The
    deformations are one product with the compliance and one limit check,
    bit for bit what :func:`deform` gives each wrench; each frame is then
    drawn as :func:`synthesize_frame` draws it. Frame i draws from stream
    ``axis * B + i`` of ``noise.seed``, B being the number of magnitudes: the
    sweeps of the six axes at one B draw disjoint streams, and repeated
    magnitudes share ground truth but draw distinct noise.

    Raises:
        ValidationFailure: for an axis outside 0..5, a non-finite
        magnitude, or the first magnitude over the limit (with
        :func:`deform`'s message, before any frame is drawn).
    """
    if not 0 <= axis <= 5:
        raise ValidationFailure(f"axis must be 0..5, got {axis}")
    wrenches = np.zeros((len(magnitudes), 6))
    wrenches[:, axis] = magnitudes
    if not np.isfinite(wrenches).all():
        raise ValidationFailure("wrench components must be finite")
    # Each row has at most one non-zero wrench component, so every sum of
    # the product is exact in any order: C @ F per row, signed zeros included.
    deformations = wrenches @ compliance.compliance.T
    _check_limits(compliance, deformations)
    frames = []
    for stream, delta in enumerate(deformations.tolist(), axis * len(magnitudes)):
        pose = apply_delta(reference_pose, DeformationVector(*delta))
        rng = np.random.default_rng(derive_seed(noise.seed, stream))
        frames.append(_observe(camera, layout, pose, noise, rng))
    return wrenches, deformations, frames
