"""Contact detection for delicate grasping.

``run_episode`` is the contact monitor. It reads the fingertip normal
deformation (|delta z| of the estimated plate pose relative to a
no-contact reference) once per frame while a joint-space approach
trajectory plays out by linear interpolation at a fixed 0.02 s control
interval. Contact is declared when |delta z| stays at or above the
threshold for ``debounce_frames`` consecutive frames; the approach stops
on that frame and no further motion commands are issued.

Debouncing defaults to 1 frame, matching a plain threshold rule. The
smallest preset thresholds sit below the fiducial pose floor, so a
single-frame rule is noise-fragile; raising ``debounce_frames`` trades
detection latency for false-trigger suppression.

The debounce count is a local of ``run_episode``; there is no separate
state machine. The pose stream is read lazily, one entry per frame, so a
generator that reads the sensor on demand is the streaming interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import EulerOutOfRange, ValidationFailure
from .geometry import (
    DeformationVector,
    RigidTransform,
    apply_delta,
    delta_from_poses,
)
from .pnp import PoseEstimate

# The one frame period (s): the control step, and the frames.jsonl timestamp step.
CONTROL_INTERVAL_S = 0.02

# Per-object grasp presets: (contact threshold mm, total approach frames).
OBJECT_PRESETS: dict[str, tuple[float, int]] = {
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

@dataclass(frozen=True)
class ContactConfig:
    threshold_mm: float
    total_frames: int
    debounce_frames: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.threshold_mm < np.inf:
            raise ValidationFailure("threshold_mm must be finite and positive")
        if self.total_frames < 1 or self.debounce_frames < 1:
            raise ValidationFailure("total_frames and debounce_frames must be >= 1")


def config_for_object(name: str, debounce_frames: int = 1) -> ContactConfig:
    """Preset configuration for a named object (see OBJECT_PRESETS)."""
    key = name.lower().replace(" ", "_")
    if key not in OBJECT_PRESETS:
        raise ValidationFailure(
            f"unknown object {name!r}; known: {', '.join(sorted(OBJECT_PRESETS))}"
        )
    threshold, frames = OBJECT_PRESETS[key]
    return ContactConfig(
        threshold_mm=threshold, total_frames=frames, debounce_frames=debounce_frames
    )


@dataclass(frozen=True)
class ApproachTrajectory:
    """Joint-space line from start to target over ``total_frames`` steps."""

    start_joints: tuple[float, ...]
    target_joints: tuple[float, ...]
    total_frames: int

    def __post_init__(self) -> None:
        if len(self.start_joints) != len(self.target_joints):
            raise ValidationFailure("start and target joints must have equal dimension")
        if not np.all(np.isfinite([*self.start_joints, *self.target_joints])):
            raise ValidationFailure("start and target joints must be finite")
        if self.total_frames < 1:
            raise ValidationFailure("total_frames must be >= 1")


def interpolate(traj: ApproachTrajectory, frame: int) -> np.ndarray:
    """Joint vector at ``frame``: start at 0, target at total_frames."""
    if not 0 <= frame <= traj.total_frames:
        raise ValidationFailure(f"frame {frame} outside 0..{traj.total_frames}")
    start = np.array(traj.start_joints)
    target = np.array(traj.target_joints)
    return start + (frame / traj.total_frames) * (target - start)


@dataclass(frozen=True)
class ContactEvent:
    frame_index: int
    delta_z_mm: float


@dataclass(frozen=True)
class EpisodeResult:
    """Outcome of one grasp approach.

    ``event`` is None when no contact was declared within the approach.
    ``commands`` logs (frame_index, joints) for every issued motion command;
    ``delta_z_mm`` holds one entry per approach frame (NaN for skipped).
    """

    event: ContactEvent | None
    delta_z_mm: tuple[float, ...]
    commands: tuple[tuple[int, tuple[float, ...]], ...]
    skipped_frames: tuple[int, ...]


def mean_reference_pose(poses: list[RigidTransform]) -> RigidTransform:
    """Average pose, computed as the mean delta from the first pose."""
    if not poses:
        raise ValidationFailure("need at least one pose to build a reference")
    anchor = poses[0]
    deltas = np.array([delta_from_poses(anchor, p).as_array() for p in poses])
    return apply_delta(anchor, DeformationVector.from_array(deltas.mean(axis=0)))


def run_episode(
    traj: ApproachTrajectory,
    config: ContactConfig,
    stream: Iterable[PoseEstimate | None],
    reference: RigidTransform | None = None,
    reference_frames: int = 5,
) -> EpisodeResult:
    """Play one approach episode against a pose stream.

    The stream yields one PoseEstimate per frame (None marks a frame whose
    estimation failed; such frames are logged and skipped without resetting
    the debounce counter). An approach frame whose rotation relative to the
    reference leaves the +-pi/2 Euler operating range is skipped the same
    way, so one bad estimate does not end the episode. When no ``reference``
    is given, the first ``reference_frames`` stream entries are consumed
    pre-approach and averaged into the no-contact reference.

    Each approach frame f reads the sensor first; if the monitor is still
    approaching, the command interpolate(traj, f + 1) is issued, so an
    immediate contact stops the hand before any motion.

    Raises:
        ValidationFailure: if the stream runs out before the episode finishes.
    """
    if traj.total_frames != config.total_frames:
        raise ValidationFailure(
            f"trajectory spans {traj.total_frames} frames but the config expects "
            f"{config.total_frames}"
        )
    it: Iterator[PoseEstimate | None] = iter(stream)
    if reference is None:
        captured = []
        for _ in range(reference_frames):
            try:
                pose = next(it)
            except StopIteration:
                raise ValidationFailure("stream ended during reference capture") from None
            if pose is not None:
                captured.append(pose.pose)
        if not captured:
            raise ValidationFailure("no usable poses in the reference-capture window")
        reference = mean_reference_pose(captured)

    # Frames at or above the threshold. A skipped frame keeps the count:
    # transient occlusion should not erase accumulated contact evidence.
    consecutive = 0
    event: ContactEvent | None = None
    series: list[float] = []
    commands: list[tuple[int, tuple[float, ...]]] = []
    skipped: list[int] = []

    for frame in range(config.total_frames):
        try:
            pose = next(it)
        except StopIteration:
            raise ValidationFailure(f"stream ended at approach frame {frame}") from None
        try:
            delta_z = None if pose is None else abs(delta_from_poses(reference, pose.pose).dl_z)
        except EulerOutOfRange:
            delta_z = None
        if delta_z is None:
            series.append(float("nan"))
            skipped.append(frame)
        else:
            series.append(delta_z)
            consecutive = consecutive + 1 if delta_z >= config.threshold_mm else 0
            if consecutive >= config.debounce_frames:
                event = ContactEvent(frame_index=frame, delta_z_mm=delta_z)
                break
        joints = interpolate(traj, frame + 1)
        commands.append((frame, tuple(float(j) for j in joints)))

    return EpisodeResult(
        event=event,
        delta_z_mm=tuple(series),
        commands=tuple(commands),
        skipped_frames=tuple(skipped),
    )
