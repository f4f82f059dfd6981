"""Per-axis deformation-to-wrench calibration.

Fits one 1-D polynomial model per wrench axis from synchronized
(deformation, wrench) samples: a seeded 80/20 shuffle split, a least-squares
fit on the training part, and R^2/RMSE metrics on the held-out part. A
sample set is two (n, 6) float arrays: deformations ``x`` (mm, then rad)
and wrenches ``y`` (mN, then mN*m), row i of each describing sample i. The
input pose component for each wrench axis is chosen by maximum absolute
Pearson correlation on the training data, which recovers the identity
pairing under diagonal compliance and adapts under coupling.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import (
    NumericalFailure,
    RankDeficient,
    TooFewSamples,
    UncoveredAxis,
    ValidationFailure,
    ZeroVariance,
    check_keys,
    read_integer,
    read_number,
)

_AXIS_NAMES = ("fx", "fy", "fz", "tx", "ty", "tz")


@dataclass(frozen=True)
class AxisModel:
    """Fitted map from one pose component to one wrench component.

    ``coefficients`` are polynomial coefficients in ascending degree,
    intercept first. Test metrics are None until evaluated on held-out data.
    """

    axis: int
    input_component: int
    coefficients: tuple[float, ...]
    degree: int
    r2_train: float
    rmse_train: float
    r2_test: float | None = None
    rmse_test: float | None = None

    def __post_init__(self) -> None:
        if self.degree not in (1, 3):
            raise ValidationFailure(f"degree must be 1 or 3, got {self.degree}")
        if len(self.coefficients) != self.degree + 1:
            raise ValidationFailure("coefficient count must be degree + 1")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValidationFailure(f"coefficients must be finite, got {list(self.coefficients)}")
        if not (0 <= self.axis <= 5 and 0 <= self.input_component <= 5):
            raise ValidationFailure("axis and input_component must be 0..5")
        metrics = [self.r2_train, self.rmse_train, self.r2_test, self.rmse_test]
        if not all(math.isfinite(m) for m in metrics if m is not None):
            raise ValidationFailure(f"r2 and rmse must be finite, got {metrics}")
        if self.rmse_train < 0 or (self.rmse_test is not None and self.rmse_test < 0):
            raise ValidationFailure("rmse must be non-negative")
        if self.r2_test is not None and self.r2_test > 1:
            raise ValidationFailure("r2_test cannot exceed 1")

    @property
    def slope(self) -> float:
        return self.coefficients[1]

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        y = np.zeros_like(x)
        for k, c in enumerate(self.coefficients):
            y = y + c * x**k
        return y

    @classmethod
    def from_dict(cls, data: dict) -> "AxisModel":
        """A model as ``CalibrationReport.to_dict`` writes it. Every key is
        required, an unknown key is an error, and the test metrics of a saved
        model are numbers: only ``fit_axis`` makes an unscored model."""
        check_keys(data, [f.name for f in fields(cls)], "axis model")
        return cls(
            axis=read_integer(data["axis"], "axis"),
            input_component=read_integer(data["input_component"], "input_component"),
            coefficients=tuple(read_number(c, "coefficient") for c in data["coefficients"]),
            degree=read_integer(data["degree"], "degree"),
            r2_train=read_number(data["r2_train"], "r2_train"),
            rmse_train=read_number(data["rmse_train"], "rmse_train"),
            r2_test=read_number(data["r2_test"], "r2_test"),
            rmse_test=read_number(data["rmse_test"], "rmse_test"),
        )


@dataclass(frozen=True)
class CalibrationReport:
    """Six fitted axis models plus the split protocol that produced them."""

    models: tuple[AxisModel, ...]
    split_fraction: float
    split_seed: int
    sample_count: int

    def __post_init__(self) -> None:
        if len(self.models) != 6:
            raise ValidationFailure("report must contain exactly 6 axis models")
        if sorted(m.axis for m in self.models) != list(range(6)):
            raise ValidationFailure("report must contain one model per wrench axis")
        if not 0 < self.split_fraction < 1:
            raise ValidationFailure(f"split_fraction must be in (0, 1), got {self.split_fraction}")

    def model_for_axis(self, axis: int) -> AxisModel:
        for m in self.models:
            if m.axis == axis:
                return m
        raise ValidationFailure(f"no model for axis {axis}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationReport":
        """Inverse of ``to_dict``; every key is required and an unknown key,
        at the top level or in a model, is an error."""
        check_keys(data, [f.name for f in fields(cls)], "calibration report")
        return cls(
            models=tuple(AxisModel.from_dict(m) for m in data["models"]),
            split_fraction=read_number(data["split_fraction"], "split_fraction"),
            split_seed=read_integer(data["split_seed"], "split_seed"),
            sample_count=read_integer(data["sample_count"], "sample_count"),
        )


def split_indices(n: int, fraction: float = 0.8, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) index arrays for a seeded shuffle-then-prefix split.

    Exact partition: sizes round(fraction * n) and the remainder, no overlap.
    """
    if not 0 < fraction < 1:
        raise ValidationFailure(f"fraction must be in (0, 1), got {fraction}")
    if n < 10:
        raise TooFewSamples(f"need at least 10 pairs to split, got {n}")
    if seed < 0:
        raise ValidationFailure(f"split seed must be a non-negative integer, got {seed}")
    order = np.random.default_rng(seed).permutation(n)
    n_train = round(fraction * n)
    return order[:n_train], order[n_train:]


def _select_input_component(x: np.ndarray, y_axis: np.ndarray) -> int:
    """Pose component with maximum |Pearson correlation| to the target axis."""
    scores = np.zeros(6)
    ys = y_axis - y_axis.mean()
    denom_y = float(np.sqrt(np.sum(ys**2)))
    for j in range(6):
        xs = x[:, j] - x[:, j].mean()
        denom_x = float(np.sqrt(np.sum(xs**2)))
        if denom_x > 0 and denom_y > 0:
            scores[j] = abs(float(np.sum(xs * ys)) / (denom_x * denom_y))
    return int(np.argmax(scores))


def _r2_rmse(target: np.ndarray, pred: np.ndarray, axis: int, data: str) -> tuple[float, float]:
    """(R^2, RMSE) of the predictions ``pred`` of wrench axis ``axis`` on the
    ``data`` samples: R^2 = 1 - SS_res / SS_tot about their mean, RMSE =
    sqrt(SS_res / n).

    Raises:
        ZeroVariance: the targets are constant.
        NumericalFailure: a sum of squares is not finite, as when values near
        1e308 overflow.
    """
    ss_res = float(np.sum((target - pred) ** 2))
    ss_tot = float(np.sum((target - target.mean()) ** 2))
    if ss_tot == 0.0:
        raise ZeroVariance(f"wrench axis {axis} has zero variance on the {data} data")
    if not (math.isfinite(ss_res) and math.isfinite(ss_tot)):
        raise NumericalFailure(
            f"wrench axis {axis}: a sum of squares on the {data} data is not finite")
    return 1.0 - ss_res / ss_tot, math.sqrt(ss_res / len(target))


def fit_axis(x: np.ndarray, y: np.ndarray, axis: int, degree: int = 1) -> AxisModel:
    """Least-squares polynomial fit for one wrench axis on training samples.

    The design matrix is solved by orthogonal decomposition (SVD-based
    lstsq), with an intercept in all fits.

    Raises:
        TooFewSamples: fewer than degree + 2 training samples.
        RankDeficient: the selected input column is constant.
        ZeroVariance, NumericalFailure: see ``_r2_rmse``.
    """
    if degree not in (1, 3):
        raise ValidationFailure(f"degree must be 1 or 3, got {degree}")
    if len(x) < degree + 2:
        raise TooFewSamples(f"need at least {degree + 2} samples for degree {degree}")
    target = y[:, axis]
    component = _select_input_component(x, target)
    inputs = x[:, component]
    if np.ptp(inputs) == 0.0:
        raise RankDeficient(f"pose component {component} is constant on the training data")
    design = np.column_stack([inputs**k for k in range(degree + 1)])
    coeffs, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < degree + 1:
        raise RankDeficient("design matrix is rank deficient")
    r2, rmse = _r2_rmse(target, design @ coeffs, axis, "training")
    return AxisModel(
        axis=axis,
        input_component=component,
        coefficients=tuple(float(c) for c in coeffs),
        degree=degree,
        r2_train=r2,
        rmse_train=rmse,
    )


def evaluate(model: AxisModel, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(R^2, RMSE) of ``model`` on held-out samples.

    R^2 = 1 - SS_res / SS_tot about the held-out mean; RMSE = sqrt(SS_res / n).

    Raises:
        TooFewSamples: fewer than 2 test samples.
        ZeroVariance, NumericalFailure: see ``_r2_rmse``.
    """
    if len(x) < 2:
        raise TooFewSamples(f"need at least 2 test samples, got {len(x)}")
    target = y[:, model.axis]
    return _r2_rmse(target, model.predict(x[:, model.input_component]), model.axis, "test")


def calibrate(x: np.ndarray, y: np.ndarray, *, degree: int = 1, split_fraction: float = 0.8,
              seed: int = 0) -> CalibrationReport:
    """Split once, then fit and evaluate all six axes on the same partition.

    ``x`` holds the deformations and ``y`` the wrenches, both (n, 6). The
    split keeps ``split_fraction`` of the samples for training, shuffled by
    ``seed`` (see :func:`split_indices`); every axis gets a polynomial of
    ``degree`` 1 or 3. The six per-axis fits are independent of each other
    and share only the immutable partition.

    Raises:
        ValidationFailure: if ``x`` and ``y`` are not both (n, 6).
        TooFewSamples: if the training side of the split holds fewer than
        degree + 2 samples (the fit) or the held-out side fewer than 2 (the
        evaluation).
        UncoveredAxis: if a wrench axis has no excitation in the data or in
        either side of the split.
    """
    if x.ndim != 2 or x.shape[1] != 6 or y.shape != x.shape:
        raise ValidationFailure(f"x and y must both be (n, 6), got {x.shape} and {y.shape}")
    for axis in range(6):
        if len(y) == 0 or np.ptp(y[:, axis]) == 0.0:
            raise UncoveredAxis(f"wrench axis {axis} ({_AXIS_NAMES[axis]}) has no excitation")
    train, test = split_indices(len(y), split_fraction, seed)
    for name, part, need, use in (("training", train, degree + 2, f"the degree-{degree} fit"),
                                  ("held-out", test, 2, "the evaluation")):
        if len(part) < need:
            raise TooFewSamples(
                f"the {name} split holds {len(part)} of {len(y)} samples but {use} needs "
                f"at least {need}; change the split fraction"
            )
    # A global split can starve an axis at small sample counts; fail with an
    # actionable message rather than an undefined R^2 downstream.
    for name, part in (("training", train), ("held-out", test)):
        for axis in range(6):
            if np.ptp(y[part, axis]) == 0.0:
                raise UncoveredAxis(
                    f"wrench axis {axis} ({_AXIS_NAMES[axis]}) has no excitation in the "
                    f"{name} split; increase the sample count or change the split seed"
                )
    models = []
    for axis in range(6):
        model = fit_axis(x[train], y[train], axis, degree)
        r2_test, rmse_test = evaluate(model, x[test], y[test])
        models.append(replace(model, r2_test=r2_test, rmse_test=rmse_test))
    return CalibrationReport(
        models=tuple(models),
        split_fraction=split_fraction,
        split_seed=seed,
        sample_count=len(y),
    )
