import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringsense.calibration import (
    AxisModel,
    CalibrationConfig,
    calibrate,
    evaluate,
    fit_axis,
    split_indices,
)
from ringsense.errors import (
    NumericalFailure,
    RankDeficient,
    TooFewSamples,
    UncoveredAxis,
    ValidationFailure,
    ZeroVariance,
)
from ringsense.simulator import Wrench, default_compliance, deform


def make_samples(n, seed=0, noise=0.0, axes=range(6)):
    """(deformations, wrenches) of single-axis sweeps through the default
    compliance model."""
    model = default_compliance()
    rng = np.random.default_rng(seed)
    x, y = [], []
    diag = np.diag(model.compliance)
    for axis in axes:
        limit = model.deformation_limit[axis] / diag[axis]
        for m in np.linspace(-0.7 * limit, 0.7 * limit, n):
            wrench = Wrench.single_axis(axis, float(m))
            delta = deform(model, wrench).as_array()
            if noise:
                delta = delta + rng.normal(0, noise, 6)
            x.append(delta)
            y.append(wrench.as_array())
    return np.array(x), np.array(y)


# ------------------------------------------------------------------ split

def test_split_800_200():
    train, test = split_indices(1000, 0.8, seed=1)
    assert len(train) == 800 and len(test) == 200


def test_split_boundary_10_pairs():
    train, test = split_indices(10, 0.8, seed=1)
    assert len(train) == 8 and len(test) == 2


def test_split_deterministic():
    a_train, a_test = split_indices(40, 0.8, seed=7)
    b_train, b_test = split_indices(40, 0.8, seed=7)
    assert np.array_equal(a_train, b_train) and np.array_equal(a_test, b_test)


def test_split_exact_partition():
    n = 137
    train_idx, test_idx = split_indices(n, 0.8, seed=3)
    combined = sorted(list(train_idx) + list(test_idx))
    assert combined == list(range(n))


def test_split_too_few():
    with pytest.raises(TooFewSamples):
        split_indices(9, 0.8, seed=0)
    with pytest.raises(ValidationFailure):
        split_indices(10, 1.5, seed=0)


# --------------------------------------------------------------- fit_axis

def test_fit_exact_linear_recovers_inverse_compliance():
    compliance = default_compliance()
    x, y = make_samples(50)
    for axis in range(6):
        model = fit_axis(x, y, axis, degree=1)
        assert model.input_component == axis
        assert model.r2_train == pytest.approx(1.0, abs=1e-9)
        true_slope = 1.0 / compliance.compliance[axis, axis]
        assert model.slope == pytest.approx(true_slope, rel=1e-6)
        assert abs(model.coefficients[0]) < 1e-9 * abs(true_slope)


def test_fit_constant_input_rank_deficient():
    x = np.zeros((20, 6))
    y = np.zeros((20, 6))
    y[:, 0] = np.linspace(-10, 10, 20)
    with pytest.raises(RankDeficient):
        fit_axis(x, y, 0, degree=1)


def test_fit_too_few_samples():
    x, y = make_samples(50)
    with pytest.raises(TooFewSamples):
        fit_axis(x[:3], y[:3], 0, degree=3)


def test_cubic_data_prefers_degree_3():
    # A softening ring: each deformation gains a 0.75 x^3 term.
    x, y = make_samples(120, axes=[0])
    x = x + 0.75 * x**3
    train, test = split_indices(len(x), 0.8, seed=5)
    m1 = fit_axis(x[train], y[train], 0, degree=1)
    m3 = fit_axis(x[train], y[train], 0, degree=3)
    r2_1, _ = evaluate(m1, x[test], y[test])
    r2_3, _ = evaluate(m3, x[test], y[test])
    assert r2_3 > r2_1


def test_nested_fit_train_r2_ordering():
    rng = np.random.default_rng(8)
    x, y = make_samples(60, axes=[2])
    noisy = x + rng.normal(0, 1e-3, x.shape)
    m1 = fit_axis(noisy, y, 2, degree=1)
    m3 = fit_axis(noisy, y, 2, degree=3)
    assert m3.r2_train >= m1.r2_train


# --------------------------------------------------------------- evaluate

def test_evaluate_perfect_predictions():
    x, y = make_samples(40, axes=[1])
    model = fit_axis(x, y, 1, degree=1)
    r2, rmse = evaluate(model, x, y)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert rmse == pytest.approx(0.0, abs=1e-9)


def test_evaluate_mean_predictor_r2_zero():
    x, y = make_samples(40, axes=[0])
    target_mean = float(np.mean(y[:, 0]))
    model = AxisModel(axis=0, input_component=0, coefficients=(target_mean, 0.0),
                      degree=1, r2_train=0.0, rmse_train=1.0)
    r2, _ = evaluate(model, x, y)
    assert r2 == pytest.approx(0.0, abs=1e-12)


def test_evaluate_matches_two_pass_scalar_oracle():
    rng = np.random.default_rng(9)
    x, y = make_samples(30, axes=[4], noise=0.01, seed=2)
    model = AxisModel(axis=4, input_component=4,
                      coefficients=(rng.normal(), rng.normal()),
                      degree=1, r2_train=0.0, rmse_train=1.0)
    r2, rmse = evaluate(model, x, y)
    ys = [float(row[4]) for row in y]
    preds = [model.coefficients[0] + model.coefficients[1] * float(row[4]) for row in x]
    mean = sum(ys) / len(ys)
    ss_res = sum((y - p) ** 2 for y, p in zip(ys, preds))
    ss_tot = sum((y - mean) ** 2 for y in ys)
    assert r2 == pytest.approx(1 - ss_res / ss_tot, rel=1e-12)
    assert rmse == pytest.approx((ss_res / len(ys)) ** 0.5, rel=1e-12)
    # metric identity per call
    assert r2 + ss_res / ss_tot == pytest.approx(1.0, abs=1e-12)


def test_evaluate_zero_variance():
    x = np.zeros((10, 6))
    x[:, 0] = np.linspace(-1, 1, 10)
    y = np.zeros((10, 6))
    y[:, 0] = 5.0
    model = AxisModel(axis=0, input_component=0, coefficients=(0.0, 1.0),
                      degree=1, r2_train=0.0, rmse_train=1.0)
    with pytest.raises(ZeroVariance):
        evaluate(model, x, y)


def test_overflowing_sums_of_squares_are_numerical_failures():
    # One wrench of 1e308 overflows the sums of squares: the fit and the
    # evaluation raise, naming the axis, instead of returning NaN or -inf.
    x, y = make_samples(10)
    y[3, 2] = 1e308
    model = AxisModel(axis=2, input_component=2, coefficients=(0.0, 1.0),
                      degree=1, r2_train=1.0, rmse_train=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure, match="wrench axis 2: .* training data"):
            fit_axis(x, y, 2)
        with pytest.raises(NumericalFailure, match="wrench axis 2: .* test data"):
            evaluate(model, x, y)


# -------------------------------------------------------------- calibrate

def test_calibrate_noiseless_r2():
    report = calibrate(*make_samples(30), CalibrationConfig(seed=11))
    assert report.sample_count == 180
    for model in report.models:
        assert model.r2_test > 0.9999
        assert model.input_component == model.axis


def test_calibrate_noisy_r2_and_slopes():
    compliance = default_compliance()
    # Pose-estimate-scale noise on the deformation inputs.
    x, y = make_samples(50, noise=3e-3, seed=4)
    report = calibrate(x, y, CalibrationConfig(seed=12))
    for model in report.models:
        assert model.r2_test > 0.95
        true_slope = 1.0 / compliance.compliance[model.axis, model.axis]
        assert model.slope == pytest.approx(true_slope, rel=0.05)


def test_calibrate_missing_axis_reports_it():
    x, y = make_samples(40, axes=[0, 1, 2, 3, 5])
    with pytest.raises(UncoveredAxis, match="axis 4"):
        calibrate(x, y, CalibrationConfig())


shapes = st.lists(st.integers(0, 8), max_size=3).map(tuple)


@given(shapes, shapes)
def test_calibrate_rejects_shapes_other_than_two_n_by_6(x_shape, y_shape):
    if len(x_shape) == 2 and x_shape[1] == 6 and y_shape == x_shape:
        y_shape = (x_shape[0] + 1, 6)
    with pytest.raises(ValidationFailure, match=r"must both be \(n, 6\)"):
        calibrate(np.zeros(x_shape), np.zeros(y_shape), CalibrationConfig())


def test_report_round_trip():
    report = calibrate(*make_samples(20), CalibrationConfig(seed=13))
    from ringsense.calibration import CalibrationReport

    again = CalibrationReport.from_dict(report.to_dict())
    assert again == report


def test_axis_model_validation():
    with pytest.raises(ValidationFailure):
        AxisModel(axis=0, input_component=0, coefficients=(0.0, 1.0), degree=2,
                  r2_train=1.0, rmse_train=0.0)
    with pytest.raises(ValidationFailure):
        AxisModel(axis=0, input_component=0, coefficients=(0.0, 1.0, 2.0), degree=1,
                  r2_train=1.0, rmse_train=0.0)
    with pytest.raises(ValidationFailure):
        AxisModel(axis=0, input_component=0, coefficients=(0.0, 1.0), degree=1,
                  r2_train=1.0, rmse_train=0.0, r2_test=1.5, rmse_test=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationFailure, match="coefficients must be finite"):
            AxisModel(axis=0, input_component=0, coefficients=(0.0, bad), degree=1,
                      r2_train=1.0, rmse_train=0.0)
    for metric in ("r2_train", "rmse_train", "r2_test", "rmse_test"):
        for bad in (math.nan, -math.inf):
            with pytest.raises(ValidationFailure, match="r2 and rmse must be finite"):
                AxisModel(**{"axis": 0, "input_component": 0, "coefficients": (0.0, 1.0),
                             "degree": 1, "r2_train": 1.0, "rmse_train": 0.0, "r2_test": 1.0,
                             "rmse_test": 0.0, metric: bad})
