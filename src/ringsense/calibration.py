"""Linear deformation-to-wrench calibration.

Fits one linear map w = K x + b from synchronized (deformation, wrench)
samples: a seeded split stratified by dominant wrench axis, one
least-squares solve of all six wrench components on the training part, and
R^2/RMSE metrics per axis on both parts. A sample set is two (n, 6) float
arrays: deformations ``x`` (mm, then rad) and wrenches ``y`` (mN, then
mN*m), row i of each describing sample i. Every wrench axis sees all six
deformation components, so the map is exact for any linear compliance,
coupled or diagonal.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import (
    NumericalFailure,
    ValidationFailure,
    check_keys,
    read_integer,
    read_number,
)

_AXIS_NAMES = ("fx", "fy", "fz", "tx", "ty", "tz")


@dataclass(frozen=True)
class AxisModel:
    """Row ``axis`` of the fitted map: wrench component ``axis`` of a
    deformation x is ``x @ weights + intercept``, with its R^2 and RMSE on
    the training and the held-out samples."""

    axis: int
    weights: tuple[float, ...]
    intercept: float
    r2_train: float
    rmse_train: float
    r2_test: float
    rmse_test: float

    def __post_init__(self) -> None:
        if len(self.weights) != 6:
            raise ValidationFailure(f"an axis model needs 6 weights, got {len(self.weights)}")
        if not np.all(np.isfinite([*self.weights, self.intercept])):
            raise ValidationFailure(
                f"weights and intercept must be finite, got {list(self.weights)} "
                f"and {self.intercept}")
        if not 0 <= self.axis <= 5:
            raise ValidationFailure("axis must be 0..5")
        metrics = [self.r2_train, self.rmse_train, self.r2_test, self.rmse_test]
        if not all(math.isfinite(m) for m in metrics):
            raise ValidationFailure(f"r2 and rmse must be finite, got {metrics}")
        if self.rmse_train < 0 or self.rmse_test < 0:
            raise ValidationFailure("rmse must be non-negative")
        if self.r2_test > 1:
            raise ValidationFailure("r2_test cannot exceed 1")

    @property
    def slope(self) -> float:
        """The weight on the axis's own deformation component."""
        return self.weights[self.axis]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The wrench component of each row of the (n, 6) deformations ``x``."""
        return np.asarray(x, dtype=np.float64) @ np.array(self.weights) + self.intercept

    @classmethod
    def from_dict(cls, data: dict) -> "AxisModel":
        """A model as ``CalibrationReport.to_dict`` writes it. Every key is
        required and an unknown key is an error."""
        check_keys(data, [f.name for f in fields(cls)], "axis model")
        return cls(
            axis=read_integer(data["axis"], "axis"),
            weights=tuple(read_number(w, "weight") for w in data["weights"]),
            intercept=read_number(data["intercept"], "intercept"),
            r2_train=read_number(data["r2_train"], "r2_train"),
            rmse_train=read_number(data["rmse_train"], "rmse_train"),
            r2_test=read_number(data["r2_test"], "r2_test"),
            rmse_test=read_number(data["rmse_test"], "rmse_test"),
        )


@dataclass(frozen=True)
class CalibrationReport:
    """Six fitted axis models, ``models[i]`` that of wrench axis i, plus the
    split protocol that produced them."""

    models: tuple[AxisModel, ...]
    split_fraction: float
    split_seed: int
    sample_count: int

    def __post_init__(self) -> None:
        if [m.axis for m in self.models] != list(range(6)):
            raise ValidationFailure(
                "report must list one model per wrench axis, in axis order 0..5")
        if not 0 < self.split_fraction < 1:
            raise ValidationFailure(f"split_fraction must be in (0, 1), got {self.split_fraction}")

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


def split_indices(y: np.ndarray, fraction: float = 0.8,
                  seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) index arrays of the rows of the (n, 6) wrenches ``y``,
    split by a seeded shuffle stratified by dominant wrench axis.

    A row's dominant axis is the argmax of |y| scaled by each column's
    largest |y|; a tie goes to the lowest axis, so a zero wrench falls in
    group 0. Rows are taken in the order of one seeded permutation, and the
    first round(fraction * m) rows of each group of m train. The result is
    an exact partition of range(n), each side in permutation order.
    """
    if not 0 < fraction < 1:
        raise ValidationFailure(f"fraction must be in (0, 1), got {fraction}")
    if len(y) < 10:
        raise ValidationFailure(f"need at least 10 pairs to split, got {len(y)}")
    if seed < 0:
        raise ValidationFailure(f"split seed must be a non-negative integer, got {seed}")
    magnitude = np.abs(y)
    scale = magnitude.max(axis=0)
    dominant = np.argmax(magnitude / np.where(scale > 0, scale, 1.0), axis=1)
    order = np.random.default_rng(seed).permutation(len(y))
    in_train = np.zeros(len(y), dtype=bool)
    for axis in range(6):
        members = order[dominant[order] == axis]
        in_train[members[:round(fraction * len(members))]] = True
    return order[in_train[order]], order[~in_train[order]]


def _r2_rmse(target: np.ndarray, pred: np.ndarray, axis: int, data: str) -> tuple[float, float]:
    """(R^2, RMSE) of the predictions ``pred`` of wrench axis ``axis`` on the
    ``data`` samples: R^2 = 1 - SS_res / SS_tot about their mean, RMSE =
    sqrt(SS_res / n).

    Raises:
        NumericalFailure: the targets are constant, or a sum of squares is
        not finite, as when values near 1e308 overflow.
    """
    ss_res = float(np.sum((target - pred) ** 2))
    ss_tot = float(np.sum((target - target.mean()) ** 2))
    if ss_tot == 0.0:
        raise NumericalFailure(f"wrench axis {axis} has zero variance on the {data} data")
    if not (math.isfinite(ss_res) and math.isfinite(ss_tot)):
        raise NumericalFailure(
            f"wrench axis {axis}: a sum of squares on the {data} data is not finite")
    return 1.0 - ss_res / ss_tot, math.sqrt(ss_res / len(target))


def calibrate(x: np.ndarray, y: np.ndarray, *, split_fraction: float = 0.8,
              seed: int = 0) -> CalibrationReport:
    """Split once, fit w = K x + b by one least-squares solve on the training
    rows, and score every axis on both sides of the split.

    ``x`` holds the deformations and ``y`` the wrenches, both (n, 6). The
    split keeps ``split_fraction`` of each dominant-axis group for training,
    shuffled by ``seed`` (see :func:`split_indices`). The design is
    ``[x, 1]``, solved for all six wrench columns at once.

    Raises:
        ValidationFailure: if ``x`` and ``y`` are not both (n, 6), if the
        training side of the split holds fewer than 8 samples (7 unknowns
        plus one) or the held-out side fewer than 2, or if a wrench axis has
        no excitation in the data or in either side of the split.
        NumericalFailure: if the training design has rank below 7, or see
        ``_r2_rmse``.
    """
    if x.ndim != 2 or x.shape[1] != 6 or y.shape != x.shape:
        raise ValidationFailure(f"x and y must both be (n, 6), got {x.shape} and {y.shape}")
    for axis in range(6):
        if len(y) == 0 or np.ptp(y[:, axis]) == 0.0:
            raise ValidationFailure(f"wrench axis {axis} ({_AXIS_NAMES[axis]}) has no excitation")
    train, test = split_indices(y, split_fraction, seed)
    for name, part, need, use in (("training", train, 8, "the fit"),
                                  ("held-out", test, 2, "the evaluation")):
        if len(part) < need:
            raise ValidationFailure(
                f"the {name} split holds {len(part)} of {len(y)} samples but {use} needs "
                f"at least {need}; change the split fraction"
            )
    # The stratified split excites every axis of a sweep on both sides; data
    # from elsewhere can still starve one, and R^2 would be undefined.
    for name, part in (("training", train), ("held-out", test)):
        for axis in range(6):
            if np.ptp(y[part, axis]) == 0.0:
                raise ValidationFailure(
                    f"wrench axis {axis} ({_AXIS_NAMES[axis]}) has no excitation in the "
                    f"{name} split; increase the sample count or change the split seed"
                )
    design = np.column_stack([x, np.ones(len(x))])
    coeffs, _, rank, _ = np.linalg.lstsq(design[train], y[train], rcond=None)
    if rank < 7:
        raise NumericalFailure("design matrix is rank deficient")
    pred = design @ coeffs
    models = []
    for axis in range(6):
        r2_train, rmse_train = _r2_rmse(y[train, axis], pred[train, axis], axis, "training")
        r2_test, rmse_test = _r2_rmse(y[test, axis], pred[test, axis], axis, "test")
        models.append(AxisModel(
            axis=axis, weights=tuple(coeffs[:6, axis].tolist()), intercept=float(coeffs[6, axis]),
            r2_train=r2_train, rmse_train=rmse_train, r2_test=r2_test, rmse_test=rmse_test))
    return CalibrationReport(
        models=tuple(models),
        split_fraction=split_fraction,
        split_seed=seed,
        sample_count=len(y),
    )
