"""Fiducial-based sensitivity analysis.

From the sub-pixel localization accuracy of the corner detector, derives
the minimum detectable pose change of the plate and propagates it through
a calibrated linear deformation-to-wrench model to the minimum detectable
wrench:

    dl_min     = (w_tag / w_img) * d_R
    dtheta_min = theta / (2 r sin(theta / 2)) * d_R

The pose floor stacks the translation minimum on all three translation
axes and the rotation minimum on all three rotation axes. Torque units are
mN*m throughout, which is the same unit as N*mm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationReport
from .errors import NonlinearModel, NumericalFailure, ValidationFailure, check_keys, read_number
from .geometry import DeformationVector
from .simulator import Wrench


# The key of each DetectionParams field in a params file and in to_dict.
_FILE_KEYS = {"d_r": "d_r", "w_tag_mm": "w_tag", "w_img_px": "w_img", "r_px": "r",
              "theta_ref_rad": "theta_ref"}


@dataclass(frozen=True)
class DetectionParams:
    """Inputs of the sensitivity formulas.

    d_r: sub-pixel corner localization accuracy (px).
    w_tag / w_img: physical (mm) and observed (px) tag width.
    r: half-diagonal of the tag image patch (px).
    theta_ref: reference rotation angle (rad), in (0, pi).

    The pose floor they give must be usable downstream: the translation
    floor positive and finite, and the rotation floor positive and below
    pi/2, the bound of the Euler operating regime.
    """

    d_r: float = 0.25
    w_tag: float = 2.0
    w_img: float = 37.0
    r: float = 18.5
    theta_ref: float = math.pi / 12

    def __post_init__(self) -> None:
        if not all(0 < v < math.inf for v in (self.d_r, self.w_tag, self.w_img, self.r)):
            raise ValidationFailure("detection parameters must be finite and strictly positive")
        if not 0 < self.theta_ref < math.pi:
            raise ValidationFailure("theta_ref must lie in (0, pi)")
        dl, dth = min_translation(self), min_rotation(self)
        if not 0 < dl < math.inf:
            raise ValidationFailure(f"translation floor must be positive and finite, got {dl} mm")
        if not 0 < dth < math.pi / 2:
            raise ValidationFailure(f"rotation floor must lie in (0, pi/2) rad, got {dth}")

    def to_dict(self) -> dict:
        return {key: getattr(self, name) for key, name in _FILE_KEYS.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "DetectionParams":
        """Inverse of ``to_dict``; every key is optional (an absent one takes
        the field's default) and an unknown key is an error."""
        check_keys(data, _FILE_KEYS, "detection params")
        return cls(**{name: read_number(data[key], key) for key, name in _FILE_KEYS.items()
                      if key in data})


@dataclass(frozen=True)
class SensitivityResult:
    """Scalar minima plus their 6-vector pose and wrench floors."""

    delta_l_min: float
    delta_theta_min: float
    pose_floor: DeformationVector
    wrench_floor: Wrench

    def __post_init__(self) -> None:
        if self.delta_l_min <= 0 or self.delta_theta_min <= 0:
            raise ValidationFailure("sensitivity minima must be positive")
        floor = self.pose_floor.as_array()
        if np.any(floor[:3] != self.delta_l_min) or np.any(floor[3:] != self.delta_theta_min):
            raise ValidationFailure("pose floor must stack the scalar minima per axis group")
        if np.any(self.wrench_floor.as_array() <= 0):
            raise ValidationFailure("wrench floor components must be positive")


def min_translation(params: DetectionParams) -> float:
    """Minimum detectable translation (mm): a d_R-pixel shift scaled by the
    physical-to-image tag width ratio."""
    return params.w_tag / params.w_img * params.d_r


def min_rotation(params: DetectionParams) -> float:
    """Minimum detectable rotation (rad): d_R pixels of chord displacement
    at radius r, chord length 2 r sin(theta / 2)."""
    return params.theta_ref / (2.0 * params.r * math.sin(params.theta_ref / 2.0)) * params.d_r


def pose_floor(params: DetectionParams) -> DeformationVector:
    """Minimum detectable 6-DoF pose change (mm, mm, mm, rad, rad, rad)."""
    dl = min_translation(params)
    dth = min_rotation(params)
    return DeformationVector(dl, dl, dl, dth, dth, dth)


def propagate_wrench_floor(floor: DeformationVector, calibration: CalibrationReport) -> Wrench:
    """Minimum detectable wrench via the calibrated linear per-axis models.

    Each component is |slope| of the axis model times the pose-floor entry
    of the model's input component. Intercepts are excluded: a detection
    floor is a differential quantity.

    Raises:
        NonlinearModel: if any axis model is not degree 1.
        NumericalFailure: a component is not finite, as when a slope near
        1e308 overflows.
    """
    floor_values = floor.as_array()
    out = np.zeros(6)
    for axis in range(6):
        model = calibration.model_for_axis(axis)
        if model.degree != 1:
            raise NonlinearModel(
                f"axis {axis} model has degree {model.degree}; propagation needs degree 1"
            )
        out[axis] = abs(float(model.slope)) * float(floor_values[model.input_component])
        if not math.isfinite(out[axis]):
            raise NumericalFailure(f"wrench axis {axis}: |slope| x pose floor is not finite")
    return Wrench.from_array(out)


def analyze(params: DetectionParams, calibration: CalibrationReport) -> SensitivityResult:
    """Full analysis: scalar minima, pose floor, propagated wrench floor."""
    floor = pose_floor(params)
    return SensitivityResult(
        delta_l_min=min_translation(params),
        delta_theta_min=min_rotation(params),
        pose_floor=floor,
        wrench_floor=propagate_wrench_floor(floor, calibration),
    )
