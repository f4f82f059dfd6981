import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringsense.calibration import (
    AxisModel,
    CalibrationReport,
    _r2_rmse,
    calibrate,
    split_indices,
)
from ringsense.errors import NumericalFailure, ValidationFailure
from ringsense.simulator import (
    ComplianceModel,
    Wrench,
    axis_magnitudes,
    default_compliance,
    deform,
)


def make_samples(n, seed=0, noise=0.0, axes=range(6), model=None):
    """(deformations, wrenches) of single-axis sweeps over 0.7 of each axis's
    linear range, through ``model`` (the default compliance if None)."""
    model = default_compliance() if model is None else model
    rng = np.random.default_rng(seed)
    x, y = [], []
    for axis in axes:
        for m in axis_magnitudes(model, axis, n, 0.7):
            wrench = Wrench.from_array(np.where(np.arange(6) == axis, m, 0.0))
            delta = deform(model, wrench).as_array()
            if noise:
                delta = delta + rng.normal(0, noise, 6)
            x.append(delta)
            y.append(wrench.as_array())
    return np.array(x), np.array(y)


def coupled_compliance(rho):
    """The default compliance with fx coupled to ty and fy to tx at
    correlation ``rho``: C04 = rho sqrt(C00 C44), C13 = -rho sqrt(C11 C33)."""
    base = default_compliance()
    c = base.compliance.copy()
    c[0, 4] = c[4, 0] = rho * math.sqrt(c[0, 0] * c[4, 4])
    c[1, 3] = c[3, 1] = -rho * math.sqrt(c[1, 1] * c[3, 3])
    return ComplianceModel(compliance=c, deformation_limit=base.deformation_limit)


def stiffness(report):
    """The fitted 6x6 map K, row i the weights of wrench axis i."""
    return np.array([m.weights for m in report.models])


# ------------------------------------------------------------------ split

def single_axis_wrenches(counts):
    """(sum(counts), 6) wrenches: counts[a] rows with only component a set,
    to 1, 2, ... in turn."""
    return np.concatenate([np.eye(6)[[axis] * m] * np.arange(1, m + 1)[:, None]
                           for axis, m in enumerate(counts)])


def test_split_800_200():
    train, test = split_indices(single_axis_wrenches([200] * 5 + [0]), 0.8, seed=1)
    assert len(train) == 800 and len(test) == 200


def test_split_boundary_10_pairs():
    train, test = split_indices(single_axis_wrenches([5, 5, 0, 0, 0, 0]), 0.8, seed=1)
    assert len(train) == 8 and len(test) == 2


def test_split_deterministic():
    y = single_axis_wrenches([7, 7, 7, 7, 6, 6])
    a_train, a_test = split_indices(y, 0.8, seed=7)
    b_train, b_test = split_indices(y, 0.8, seed=7)
    assert np.array_equal(a_train, b_train) and np.array_equal(a_test, b_test)


def test_split_exact_partition():
    y = single_axis_wrenches([23, 23, 23, 23, 23, 22])
    train_idx, test_idx = split_indices(y, 0.8, seed=3)
    combined = sorted(list(train_idx) + list(test_idx))
    assert combined == list(range(137))


def test_split_too_few():
    with pytest.raises(ValidationFailure, match="need at least 10 pairs to split, got 9"):
        split_indices(np.ones((9, 6)), 0.8, seed=0)
    with pytest.raises(ValidationFailure):
        split_indices(np.ones((10, 6)), 1.5, seed=0)


wrench_tables = st.integers(10, 60).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([0.0, 1.0, -1.0, 2.5, -40.0, 300.0]), min_size=6, max_size=6),
    min_size=n, max_size=n)).map(np.array)
fractions = st.floats(0.05, 0.95)
seeds = st.integers(0, 2**32 - 1)


def dominant_axis(row, scale):
    """First axis of the largest |y| / column scale (0 for a zero column)."""
    ratios = [abs(v) / s if s > 0 else 0.0 for v, s in zip(row, scale)]
    return ratios.index(max(ratios))


@given(wrench_tables, fractions, seeds)
def test_split_is_a_seeded_stratified_partition(y, fraction, seed):
    train, test = split_indices(y, fraction, seed)
    assert sorted(train.tolist() + test.tolist()) == list(range(len(y)))
    again = split_indices(y, fraction, seed)
    assert np.array_equal(again[0], train) and np.array_equal(again[1], test)
    scale = [max(abs(v) for v in column) for column in y.T.tolist()]
    groups = [dominant_axis(row, scale) for row in y.tolist()]
    order = np.random.default_rng(seed).permutation(len(y)).tolist()
    in_train = set(train.tolist())
    for axis in range(6):
        members = [i for i in order if groups[i] == axis]
        k = round(fraction * len(members))
        assert [i in in_train for i in members] == [True] * k + [False] * (len(members) - k)


@given(st.lists(st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1e-3, 1e3)),
                         min_size=3, max_size=12), min_size=6, max_size=6),
       st.floats(0.2, 0.8), seeds)
def test_split_excites_every_axis_of_a_single_axis_sweep(sweeps, fraction, seed):
    # Six single-axis sweeps of at least 3 non-zero samples each: every wrench
    # axis varies on both sides of the split.
    y = np.concatenate([np.eye(6)[[axis] * len(sweep)] * [[s * m] for s, m in sweep]
                        for axis, sweep in enumerate(sweeps)])
    for part in split_indices(y, fraction, seed):
        assert np.all(np.ptp(y[part], axis=0) > 0)


# ------------------------------------------------------------------- fit

def test_fit_exact_linear_recovers_inverse_compliance():
    compliance = default_compliance()
    report = calibrate(*make_samples(50))
    for model in report.models:
        assert model.r2_train == pytest.approx(1.0, abs=1e-9)
        true_slope = 1.0 / compliance.compliance[model.axis, model.axis]
        assert model.slope == pytest.approx(true_slope, rel=1e-6)
        assert abs(model.intercept) < 1e-9 * abs(true_slope)
    inverse = np.linalg.inv(compliance.compliance)
    np.testing.assert_allclose(stiffness(report), inverse, rtol=1e-6,
                               atol=1e-9 * np.max(np.abs(inverse)))


@pytest.mark.parametrize("rho", [0.1, 0.3, 0.6])
def test_calibrate_recovers_coupled_compliance(rho):
    # A coupled ring: each wrench axis needs two deformation components, and
    # the full map recovers K = C^-1 exactly from noiseless sweeps.
    model = coupled_compliance(rho)
    report = calibrate(*make_samples(30, model=model), seed=1)
    assert min(m.r2_test for m in report.models) >= 0.9999
    inverse = np.linalg.inv(model.compliance)
    assert np.max(np.abs(stiffness(report) - inverse)) <= 1e-6 * np.max(np.abs(inverse))


def test_fit_constant_input_rank_deficient():
    x, y = make_samples(20)
    x[:, 3] = 0.0
    with pytest.raises(NumericalFailure, match="^design matrix is rank deficient$"):
        calibrate(x, y)


def test_fit_too_few_samples():
    # Two samples per axis split 1/1: 6 training rows for 7 unknowns.
    x, y = make_samples(2)
    with pytest.raises(ValidationFailure, match=r"^the training split holds 6 of 12 samples "
                                                r"but the fit needs at least 8; change"):
        calibrate(x, y, split_fraction=0.5)


# --------------------------------------------------------------- metrics

def test_evaluate_perfect_predictions():
    report = calibrate(*make_samples(40))
    for model in report.models:
        assert model.r2_test == pytest.approx(1.0, abs=1e-12)
        assert model.rmse_test == pytest.approx(0.0, abs=1e-9)


def test_evaluate_mean_predictor_r2_zero():
    _, y = make_samples(40, axes=[0])
    target = y[:, 0]
    r2, _ = _r2_rmse(target, np.full(len(target), target.mean()), 0, "test")
    assert r2 == pytest.approx(0.0, abs=1e-12)


def test_evaluate_matches_two_pass_scalar_oracle():
    x, y = make_samples(30, noise=0.01, seed=2)
    report = calibrate(x, y, seed=9)
    _, test = split_indices(y, 0.8, seed=9)
    for model in report.models:
        ys = [float(y[i, model.axis]) for i in test]
        preds = [model.intercept + sum(w * float(v) for w, v in zip(model.weights, x[i]))
                 for i in test]
        mean = sum(ys) / len(ys)
        ss_res = sum((t - p) ** 2 for t, p in zip(ys, preds))
        ss_tot = sum((t - mean) ** 2 for t in ys)
        assert model.r2_test == pytest.approx(1 - ss_res / ss_tot, rel=1e-12)
        assert model.rmse_test == pytest.approx((ss_res / len(ys)) ** 0.5, rel=1e-12)
        # metric identity per call
        assert model.r2_test + ss_res / ss_tot == pytest.approx(1.0, abs=1e-12)


def test_evaluate_zero_variance():
    with pytest.raises(NumericalFailure, match="^wrench axis 0 has zero variance on the test "
                                               "data$"):
        _r2_rmse(np.full(10, 5.0), np.linspace(-1, 1, 10), 0, "test")


def test_overflowing_sums_of_squares_are_numerical_failures():
    # One wrench of 1e308 overflows the sums of squares: the metrics raise,
    # naming the axis and the side, instead of returning NaN or -inf.
    x, y = make_samples(10)
    y[3, 2] = 1e308
    train, _ = split_indices(y)
    side = "training" if 3 in train else "test"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure, match=f"wrench axis 2: .* {side} data"):
            calibrate(x, y)
        for side in ("training", "test"):
            with pytest.raises(NumericalFailure, match=f"wrench axis 2: .* {side} data"):
                _r2_rmse(y[:, 2], np.zeros(len(y)), 2, side)


# -------------------------------------------------------------- calibrate

def test_calibrate_noiseless_r2():
    compliance = default_compliance()
    report = calibrate(*make_samples(30), seed=11)
    assert report.sample_count == 180
    for model in report.models:
        assert model.r2_test > 0.9999
        # The axis's own deformation carries its wrench.
        contributions = np.abs(model.weights) * np.diag(compliance.compliance)
        assert int(np.argmax(contributions)) == model.axis


def test_calibrate_noisy_r2_and_slopes():
    compliance = default_compliance()
    # Pose-estimate-scale noise on the deformation inputs.
    x, y = make_samples(50, noise=3e-3, seed=4)
    report = calibrate(x, y, seed=12)
    for model in report.models:
        assert model.r2_test > 0.95
        true_slope = 1.0 / compliance.compliance[model.axis, model.axis]
        assert model.slope == pytest.approx(true_slope, rel=0.05)


def test_calibrate_missing_axis_reports_it():
    x, y = make_samples(40, axes=[0, 1, 2, 3, 5])
    with pytest.raises(ValidationFailure, match=r"^wrench axis 4 \(ty\) has no excitation$"):
        calibrate(x, y)


shapes = st.lists(st.integers(0, 8), max_size=3).map(tuple)


@given(shapes, shapes)
def test_calibrate_rejects_shapes_other_than_two_n_by_6(x_shape, y_shape):
    if len(x_shape) == 2 and x_shape[1] == 6 and y_shape == x_shape:
        y_shape = (x_shape[0] + 1, 6)
    with pytest.raises(ValidationFailure, match=r"must both be \(n, 6\)"):
        calibrate(np.zeros(x_shape), np.zeros(y_shape))


def test_report_round_trip():
    report = calibrate(*make_samples(20), seed=13)
    again = CalibrationReport.from_dict(report.to_dict())
    assert again == report


def test_report_lists_its_models_in_axis_order():
    report = calibrate(*make_samples(20), seed=13)
    assert [m.axis for m in report.models] == list(range(6))
    for models in (report.models[::-1], report.models[:5], report.models + report.models[:1]):
        with pytest.raises(ValidationFailure, match="^report must list one model per wrench "
                           "axis, in axis order 0..5$"):
            CalibrationReport(models=models, split_fraction=0.8, split_seed=13,
                              sample_count=report.sample_count)


def test_axis_model_validation():
    valid = {"axis": 0, "weights": (1.0, 0.0, 0.0, 0.0, 0.0, 0.0), "intercept": 0.0,
             "r2_train": 1.0, "rmse_train": 0.0, "r2_test": 1.0, "rmse_test": 0.0}
    AxisModel(**valid)
    for weights in ((1.0,) * 5, (1.0,) * 7):
        with pytest.raises(ValidationFailure, match="needs 6 weights"):
            AxisModel(**{**valid, "weights": weights})
    with pytest.raises(ValidationFailure, match="r2_test cannot exceed 1"):
        AxisModel(**{**valid, "r2_test": 1.5})
    with pytest.raises(ValidationFailure, match="axis must be 0..5"):
        AxisModel(**{**valid, "axis": 6})
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationFailure, match="weights and intercept must be finite"):
            AxisModel(**{**valid, "weights": (0.0, bad, 0.0, 0.0, 0.0, 0.0)})
        with pytest.raises(ValidationFailure, match="weights and intercept must be finite"):
            AxisModel(**{**valid, "intercept": bad})
    for metric in ("r2_train", "rmse_train", "r2_test", "rmse_test"):
        for bad in (math.nan, -math.inf):
            with pytest.raises(ValidationFailure, match="r2 and rmse must be finite"):
                AxisModel(**{**valid, metric: bad})
