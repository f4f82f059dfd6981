"""Fiducial-based sensitivity analysis.

From the sub-pixel localization accuracy of the corner detector, derives
the minimum detectable pose change of the plate and propagates it through
the calibrated linear deformation-to-wrench map to the minimum detectable
wrench:

    dl_min     = (w_tag / w_img) * d_R
    dtheta_min = theta / (2 r sin(theta / 2)) * d_R

The pose floor stacks the translation minimum on all three translation
axes and the rotation minimum on all three rotation axes. The wrench floor
of each axis is the root-sum-square over the deformation components,
sqrt(sum_j (k_ij * floor_j)^2), for the calibrated weights k_ij. Torque
units are mN*m throughout, which is the same unit as N*mm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationReport
from .errors import NumericalFailure, ValidationFailure, check_keys, read_number
from .geometry import DeformationVector, _ANGLE_LIMIT
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
        if not 0 < dth < _ANGLE_LIMIT:
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
    """Minimum detectable wrench via the calibrated linear map.

    Each component is the root-sum-square over deformation components of
    weight times floor entry, sqrt(sum_j (k_ij * floor_j)^2): the six floor
    entries are independent limits, one per pose component. For a diagonal
    K that is |slope| times the axis's own floor entry, and the small
    off-diagonal weights that pose noise leaves in a fit move it only to
    second order. Intercepts are excluded: a detection floor is a
    differential quantity.

    Raises:
        NumericalFailure: a component is not finite, as when a weight near
        1e308 overflows.
        ValidationFailure: a component is zero, as when an axis's six
        weights are all 0.
    """
    weights = np.array([m.weights for m in calibration.models])
    with np.errstate(over="ignore"):  # an overflow is reported below, naming the axis
        out = np.hypot.reduce(weights * floor.as_array(), axis=1)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise NumericalFailure(f"wrench axis {bad[0]}: weights x pose floor is not finite")
    if (out <= 0).any():
        raise ValidationFailure("wrench floor components must be positive")
    return Wrench.from_array(out)


def analyze(params: DetectionParams,
            calibration: CalibrationReport) -> tuple[DeformationVector, Wrench]:
    """(pose floor, wrench floor), each checked where it is computed."""
    floor = pose_floor(params)
    return floor, propagate_wrench_floor(floor, calibration)
