"""Fiducial-based tactile sensing math on synthetic data.

Multi-tag pose estimation of a compliant-ring-mounted plate, calibration
of the deformation-to-wrench mapping, detectability analysis, and
threshold-based contact detection, validated end to end against a
built-in ring simulator.
"""

from .calibration import (
    AxisModel,
    CalibrationConfig,
    CalibrationReport,
    calibrate,
    evaluate,
    fit_axis,
)
from .contact import (
    OBJECT_PRESETS,
    ApproachTrajectory,
    ContactConfig,
    ContactEvent,
    EpisodeResult,
    config_for_object,
    interpolate,
    run_episode,
)
from .geometry import (
    EULER_CONVENTION,
    DeformationVector,
    NormalMatrix6,
    PinholeCamera,
    RigidTransform,
    apply_delta,
    default_camera,
    delta_from_poses,
    normal_matrix_from_unit_vector,
    project,
)
from .layout import TagLayout, TagPlacement, corners_ref, default_layout, visible_subset
from .pnp import (
    CorrespondenceSet,
    PoseEstimate,
    epnp_initialize,
    estimate_pose,
    estimate_poses,
    jacobian_reprojection,
    refine_lm,
)
from .sensitivity import (
    DetectionParams,
    SensitivityResult,
    analyze,
    min_rotation,
    min_translation,
    pose_floor,
    propagate_wrench_floor,
)
from .simulator import (
    ComplianceModel,
    NoiseModel,
    Wrench,
    default_compliance,
    default_reference_pose,
    deform,
    sweep_dataset,
    synthesize_frame,
)

__version__ = "0.1.0"

__all__ = [
    "AxisModel",
    "ApproachTrajectory",
    "CalibrationConfig",
    "CalibrationReport",
    "ComplianceModel",
    "ContactConfig",
    "ContactEvent",
    "CorrespondenceSet",
    "DeformationVector",
    "DetectionParams",
    "EULER_CONVENTION",
    "EpisodeResult",
    "NoiseModel",
    "NormalMatrix6",
    "OBJECT_PRESETS",
    "PinholeCamera",
    "PoseEstimate",
    "RigidTransform",
    "SensitivityResult",
    "TagLayout",
    "TagPlacement",
    "Wrench",
    "analyze",
    "apply_delta",
    "calibrate",
    "config_for_object",
    "corners_ref",
    "default_camera",
    "default_compliance",
    "default_layout",
    "default_reference_pose",
    "deform",
    "delta_from_poses",
    "epnp_initialize",
    "estimate_pose",
    "estimate_poses",
    "evaluate",
    "fit_axis",
    "interpolate",
    "jacobian_reprojection",
    "min_rotation",
    "min_translation",
    "normal_matrix_from_unit_vector",
    "pose_floor",
    "project",
    "propagate_wrench_floor",
    "refine_lm",
    "run_episode",
    "sweep_dataset",
    "synthesize_frame",
    "visible_subset",
]
