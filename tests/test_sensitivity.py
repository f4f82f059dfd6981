import math

import numpy as np
import pytest

from ringsense.calibration import AxisModel, CalibrationReport, calibrate
from ringsense.errors import NumericalFailure, ValidationFailure
from ringsense.geometry import DeformationVector
from ringsense.sensitivity import (
    DetectionParams,
    analyze,
    min_rotation,
    min_translation,
    pose_floor,
    propagate_wrench_floor,
)
from ringsense.simulator import Wrench, default_compliance, deform

REFERENCE_WRENCH_FLOOR = np.array([4.30, 4.22, 9.93, 0.32, 0.13, 8.55])


def weights_report(weights):
    """A report whose axis i has the weights of row i of ``weights``."""
    models = tuple(
        AxisModel(axis=i, weights=tuple(row), intercept=0.0, r2_train=1.0, rmse_train=0.0,
                  r2_test=1.0, rmse_test=0.0)
        for i, row in enumerate(np.asarray(weights, dtype=np.float64).tolist())
    )
    return CalibrationReport(models=models, split_fraction=0.8, split_seed=0,
                             sample_count=100)


def slope_report(slopes, input_components=None):
    """A report whose axis i weighs only component input_components[i]
    (i by default), by slopes[i]."""
    comps = input_components if input_components is not None else list(range(6))
    weights = np.zeros((6, 6))
    weights[range(6), comps] = slopes
    return weights_report(weights)


# ----------------------------------------------------------------- minima

def test_min_translation_reference_value():
    assert min_translation(DetectionParams()) == pytest.approx(0.0135, abs=1e-4)
    assert min_translation(DetectionParams()) == pytest.approx(2.0 / 37.0 * 0.25, rel=1e-12)


def test_min_translation_degenerate_and_scaling():
    base = DetectionParams()
    assert min_translation(DetectionParams(d_r=1e-12)) == pytest.approx(0.0, abs=1e-10)
    doubled = DetectionParams(w_img=2 * base.w_img)
    assert min_translation(doubled) == pytest.approx(min_translation(base) / 2, rel=1e-12)


def test_min_rotation_reference_value():
    assert min_rotation(DetectionParams()) == pytest.approx(0.0136, abs=1e-4)


def test_min_rotation_small_angle_limit():
    tiny = DetectionParams(theta_ref=1e-8)
    assert min_rotation(tiny) == pytest.approx(0.25 / 18.5, rel=1e-9)


def test_minima_scale_linearly_in_localization_accuracy():
    base = DetectionParams()
    for scale in (0.5, 2.0, 10.0):
        scaled = DetectionParams(d_r=base.d_r * scale)
        assert min_translation(scaled) == pytest.approx(scale * min_translation(base), rel=1e-12)
        assert min_rotation(scaled) == pytest.approx(scale * min_rotation(base), rel=1e-12)


def test_min_rotation_monotone_in_theta():
    previous = 0.0
    for theta in np.linspace(0.01, math.pi - 0.01, 50):
        value = min_rotation(DetectionParams(theta_ref=float(theta)))
        assert value > previous
        previous = value


def test_detection_params_validation():
    with pytest.raises(ValidationFailure):
        DetectionParams(d_r=0.0)
    with pytest.raises(ValidationFailure):
        DetectionParams(theta_ref=math.pi)
    # Each field is in range, but the pose floor they give is not usable.
    with pytest.raises(ValidationFailure, match="translation floor .* got inf"):
        DetectionParams(w_img=1e-308)
    with pytest.raises(ValidationFailure, match="translation floor .* got 0.0"):
        DetectionParams(d_r=5e-324)
    with pytest.raises(ValidationFailure, match="rotation floor"):
        DetectionParams(d_r=1e308)


# ------------------------------------------------------------- pose floor

def test_pose_floor_stacks_scalar_minima():
    params = DetectionParams()
    floor = pose_floor(params).as_array()
    np.testing.assert_array_equal(floor[:3], min_translation(params))
    np.testing.assert_array_equal(floor[3:], min_rotation(params))


# ------------------------------------------------------------ propagation

def test_identity_slopes_reproduce_pose_floor():
    params = DetectionParams()
    floor = pose_floor(params)
    wrench = propagate_wrench_floor(floor, slope_report(np.ones(6)))
    np.testing.assert_allclose(wrench.as_array(), floor.as_array(), rtol=1e-12)


def test_inverse_default_compliance_reproduces_reference_wrench_floor():
    compliance = default_compliance()
    slopes = 1.0 / np.diag(compliance.compliance)
    wrench = propagate_wrench_floor(pose_floor(DetectionParams()), slope_report(slopes))
    rel = np.abs(wrench.as_array() - REFERENCE_WRENCH_FLOOR) / REFERENCE_WRENCH_FLOOR
    assert np.max(rel) < 0.01


def test_propagation_uses_model_input_component():
    # A model fed by a rotation component must pick up the rotation floor.
    slopes = np.ones(6)
    report = slope_report(slopes, input_components=[3, 4, 5, 0, 1, 2])
    params = DetectionParams()
    wrench = propagate_wrench_floor(pose_floor(params), report).as_array()
    np.testing.assert_allclose(wrench[:3], min_rotation(params), rtol=1e-12)
    np.testing.assert_allclose(wrench[3:], min_translation(params), rtol=1e-12)


def test_propagation_overflow_names_the_axis():
    # A 67.6 mm translation floor times a slope of 1e308 overflows.
    slopes = np.ones(6)
    slopes[1] = 1e308
    with pytest.raises(NumericalFailure, match="wrench axis 1: "):
        propagate_wrench_floor(pose_floor(DetectionParams(w_tag=1e4)), slope_report(slopes))


def test_zero_weight_row_has_no_wrench_floor():
    # The report is valid, but axis 2 reads no deformation component.
    weights = np.eye(6)
    weights[2] = 0.0
    with pytest.raises(ValidationFailure, match="^wrench floor components must be positive$"):
        propagate_wrench_floor(pose_floor(DetectionParams()), weights_report(weights))


def test_propagation_is_the_root_sum_square_over_components():
    # A coupled axis: each weight's k_ij * floor_j adds in quadrature.
    rng = np.random.default_rng(5)
    weights = rng.normal(size=(6, 6)) * 100.0
    floor = pose_floor(DetectionParams())
    wrench = propagate_wrench_floor(floor, weights_report(weights)).as_array()
    for i in range(6):
        expected = math.sqrt(sum((k * f) ** 2 for k, f in zip(weights[i], floor.as_array())))
        assert wrench[i] == pytest.approx(expected, rel=1e-12)


def test_end_to_end_zero_noise_calibration_matches_analytic_floor():
    # Calibrate on exact simulator data, then check the propagated floor
    # against 1/C_ii * pose_floor per component.
    compliance = default_compliance()
    diag = np.diag(compliance.compliance)
    x, y = [], []
    for axis in range(6):
        limit = compliance.deformation_limit[axis] / diag[axis]
        for m in np.linspace(-0.7 * limit, 0.7 * limit, 40):
            wrench = Wrench.from_array(np.where(np.arange(6) == axis, m, 0.0))
            x.append(deform(compliance, wrench).as_array())
            y.append(wrench.as_array())
    report = calibrate(np.array(x), np.array(y), seed=21)
    _, wrench_floor = analyze(DetectionParams(), report)
    analytic = pose_floor(DetectionParams()).as_array() / diag
    np.testing.assert_allclose(wrench_floor.as_array(), analytic, rtol=1e-4)
    rel = np.abs(wrench_floor.as_array() - REFERENCE_WRENCH_FLOOR) / REFERENCE_WRENCH_FLOOR
    assert np.max(rel) < 0.01


def test_analyze_bundles_consistent_result():
    report = slope_report(1.0 / np.diag(default_compliance().compliance))
    floor, wrench_floor = analyze(DetectionParams(), report)
    assert floor.dl_x == min_translation(DetectionParams())
    assert floor.dtheta_x == min_rotation(DetectionParams())
    assert floor == pose_floor(DetectionParams())
    assert wrench_floor == propagate_wrench_floor(floor, report)
    assert wrench_floor.as_array().min() > 0
