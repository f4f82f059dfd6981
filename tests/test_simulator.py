import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsense.cli import _run_sweeps
from ringsense.errors import TooFewTagsVisible, ValidationFailure

from ringsense.geometry import DeformationVector, apply_delta
from ringsense.layout import visible_subset
from ringsense.pnp import estimate_pose
from ringsense.simulator import (
    ComplianceModel,
    NoiseModel,
    Wrench,
    axis_magnitudes,
    default_compliance,
    default_reference_pose,
    deform,
    derive_seed,
    project_layout,
    sweep_dataset,
    synthesize_frame,
)

# deform's message for a deformation over its limit, any component and values.
_LIMIT_MESSAGE = r"^component [0-5] deformation \S+ exceeds limit \S+$"


def diagonal_model(diag, limits=None):
    return ComplianceModel(
        compliance=np.diag(diag),
        deformation_limit=np.array(limits if limits is not None else [1, 1, 1, 0.15, 0.15, 0.15]),
    )


# ----------------------------------------------------------------- deform

def test_deform_zero_wrench(compliance):
    delta = deform(compliance, Wrench(0, 0, 0, 0, 0, 0))
    np.testing.assert_allclose(delta.as_array(), np.zeros(6))


def test_deform_diagonal_z_axis():
    model = diagonal_model([0.001, 0.001, 0.0014, 0.01, 0.01, 0.01])
    delta = deform(model, Wrench(0, 0, 10.0, 0, 0, 0))
    assert delta.dl_z == pytest.approx(0.014, abs=1e-15)
    assert delta.dl_x == 0.0 and delta.dtheta_z == 0.0


def test_deform_matches_hand_rolled_matvec():
    rng = np.random.default_rng(0)
    base = rng.normal(size=(6, 6)) * 1e-3
    spd = base @ base.T + np.eye(6) * 1e-2
    model = ComplianceModel(compliance=spd, deformation_limit=np.full(6, 1e3))
    for _ in range(100):
        f = rng.uniform(-5, 5, 6)
        expected = [sum(spd[i][j] * f[j] for j in range(6)) for i in range(6)]
        got = deform(model, Wrench.from_array(f)).as_array()
        np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_deform_linearity(compliance):
    # Exact up to float rounding (the two evaluation orders differ by ulps).
    rng = np.random.default_rng(1)
    for _ in range(100):
        f = rng.uniform(-50, 50, 6) * np.array([1, 1, 1, 0.02, 0.01, 0.5])
        alpha = rng.uniform(-2, 2)
        a = deform(compliance, Wrench.from_array(alpha * f)).as_array()
        b = alpha * deform(compliance, Wrench.from_array(f)).as_array()
        np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-18)


def test_deform_superposition(compliance):
    rng = np.random.default_rng(2)
    for _ in range(100):
        f1 = rng.uniform(-20, 20, 6) * np.array([1, 1, 1, 0.02, 0.01, 0.5])
        f2 = rng.uniform(-20, 20, 6) * np.array([1, 1, 1, 0.02, 0.01, 0.5])
        combined = deform(compliance, Wrench.from_array(f1 + f2)).as_array()
        separate = (deform(compliance, Wrench.from_array(f1)).as_array()
                    + deform(compliance, Wrench.from_array(f2)).as_array())
        np.testing.assert_allclose(combined, separate, atol=1e-12)


def test_deform_limit_exceeded(compliance):
    with pytest.raises(ValidationFailure,
                       match=r"^component 0 deformation 3139\.53 exceeds limit 1$"):
        deform(compliance, Wrench(1e6, 0, 0, 0, 0, 0))


def test_compliance_validation():
    asym = np.eye(6)
    asym[0, 1] = 1e-3
    with pytest.raises(ValidationFailure):
        ComplianceModel(compliance=asym, deformation_limit=np.ones(6))
    with pytest.raises(ValidationFailure):
        ComplianceModel(compliance=-np.eye(6), deformation_limit=np.ones(6))
    # A NaN limit would switch its component's limit check off: |d| > nan is False.
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationFailure, match="deformation_limit must be finite"):
            ComplianceModel(compliance=np.eye(6), deformation_limit=np.r_[np.ones(5), bad])


def test_from_array_names_the_shape():
    with pytest.raises(ValidationFailure,
                       match=re.escape("wrench components must have shape (6,), got (5,)")):
        Wrench.from_array(np.zeros(5))
    with pytest.raises(ValidationFailure,
                       match=re.escape("deformation components must have shape (6,), got (7,)")):
        DeformationVector.from_array(np.zeros(7))


def test_default_compliance_matches_reference_floors(compliance):
    diag = np.diag(compliance.compliance)
    expected = [0.0135 / 4.30, 0.0135 / 4.22, 0.0135 / 9.93,
                0.0136 / 0.32, 0.0136 / 0.13, 0.0136 / 8.55]
    np.testing.assert_allclose(diag, expected, rtol=1e-12)


# ------------------------------------------------------------- synthesize

def test_synthesize_zero_wrench_zero_noise_closed_loop(camera, layout, reference_pose, compliance):
    corrs, truth = synthesize_frame(
        camera, layout, reference_pose, Wrench(0, 0, 0, 0, 0, 0), compliance,
        NoiseModel(corner_sigma=0.0, seed=0))
    np.testing.assert_allclose(truth.translation, reference_pose.translation)
    est = estimate_pose(camera, corrs)
    assert np.max(np.abs(est.pose.translation - reference_pose.translation)) < 1e-7
    assert np.max(np.abs(est.pose.rotation - reference_pose.rotation)) < 1e-7


def test_closed_loop_deformation_recovery(camera, layout, reference_pose, compliance):
    # 500 random in-envelope wrenches, zero noise: the estimated deformation
    # matches the commanded one within 1e-6 per component.
    from ringsense.geometry import delta_from_poses

    # Simultaneous excitation of all six axes: 0.4 of each limit keeps every
    # corner inside the image (single-axis sweeps can go further).
    rng = np.random.default_rng(7)
    limits = compliance.deformation_limit
    diag = np.diag(compliance.compliance)
    worst = 0.0
    for _ in range(500):
        wrench = Wrench.from_array(rng.uniform(-0.4, 0.4, 6) * limits / diag)
        corrs, _ = synthesize_frame(camera, layout, reference_pose, wrench,
                                    compliance, NoiseModel(corner_sigma=0.0, seed=0))
        est = estimate_pose(camera, corrs)
        recovered = delta_from_poses(reference_pose, est.pose).as_array()
        true = deform(compliance, wrench).as_array()
        worst = max(worst, float(np.max(np.abs(recovered - true))))
    assert worst < 1e-6


def test_synthesize_seeded_determinism(camera, layout, reference_pose, compliance):
    noise = NoiseModel(corner_sigma=0.25, occlusion_probability=0.2, seed=42)
    wrench = Wrench(10.0, -5.0, 20.0, 0.1, -0.05, 1.0)
    a, truth_a = synthesize_frame(camera, layout, reference_pose, wrench, compliance, noise)
    b, truth_b = synthesize_frame(camera, layout, reference_pose, wrench, compliance, noise)
    assert a == b
    np.testing.assert_array_equal(truth_a.translation, truth_b.translation)


def test_synthesize_occlusion_failure_fraction(camera, layout, reference_pose, compliance):
    # With per-tag dropout p, a frame fails when fewer than 2 of the 35 tags
    # survive: expected fraction p^35 + 35 p^34 (1 - p), checked within
    # 3 sigma of the binomial sampling error.
    p = 0.9
    trials = 1500
    expected = p**35 + 35 * p**34 * (1 - p)
    failures = 0
    for seed in range(trials):
        noise = NoiseModel(corner_sigma=0.0, occlusion_probability=p, seed=seed)
        try:
            synthesize_frame(camera, layout, reference_pose,
                             Wrench(0, 0, 0, 0, 0, 0), compliance, noise)
        except TooFewTagsVisible:
            failures += 1
    se = np.sqrt(expected * (1 - expected) / trials)
    assert abs(failures / trials - expected) < 3 * se


def test_synthesize_corner_out_of_image(camera, layout, reference_pose, compliance):
    from ringsense.geometry import PinholeCamera

    narrow = PinholeCamera(fx=camera.fx, fy=camera.fy, cx=32.0, cy=24.0,
                           image_width=64.0, image_height=48.0)
    with pytest.raises(ValidationFailure, match=r"^tag 0 corner 0 at \(5\.3957, -2\.6043\) "
                                                r"is outside the 64x48 image$"):
        synthesize_frame(narrow, layout, reference_pose,
                         Wrench(0, 0, 0, 0, 0, 0), compliance,
                         NoiseModel(corner_sigma=0.0, seed=0))


@pytest.mark.parametrize("size", [10, 34, 36, 50])
def test_project_layout_rejects_a_mask_of_the_wrong_length(camera, layout, reference_pose, size):
    with pytest.raises(ValidationFailure,
                       match=f"^visible mask has {size} entries for a layout of 35 tags$"):
        project_layout(camera, layout, reference_pose, np.ones(size, dtype=bool))


def _frame_through_visible_subset(camera, layout, reference_pose, wrench, compliance, noise):
    """Reference synthesizer: drop tags by building a reduced layout with
    visible_subset, then project it, with the same RNG draws in the same order."""
    rng = np.random.default_rng(noise.seed)
    truth = apply_delta(reference_pose, deform(compliance, wrench))
    visible = layout
    if noise.occlusion_probability > 0:
        drop = rng.random(len(layout)) < noise.occlusion_probability
        visible = visible_subset(layout, {t.tag_id for t, d in zip(layout.tags, drop) if d})
    exact = project_layout(camera, visible, truth)
    img = exact.img + rng.normal(0.0, noise.corner_sigma, size=exact.img.shape)
    return replace(exact, img=img)


@settings(max_examples=80, deadline=None)
@given(occlusion=st.floats(0.0, 0.5), seed=st.integers(0, 2**63 - 1),
       fractions=st.lists(st.floats(-0.4, 0.4), min_size=6, max_size=6))
def test_occlusion_mask_matches_visible_subset(camera, layout, reference_pose, compliance,
                                               occlusion, seed, fractions):
    # Within 0.4 of every limit at once, all corners stay inside the image.
    limits = compliance.deformation_limit / np.diag(compliance.compliance)
    wrench = Wrench.from_array(np.array(fractions) * limits)
    noise = NoiseModel(corner_sigma=0.25, occlusion_probability=occlusion, seed=seed)
    corrs, _ = synthesize_frame(camera, layout, reference_pose, wrench, compliance, noise)
    expected = _frame_through_visible_subset(camera, layout, reference_pose, wrench,
                                             compliance, noise)
    assert corrs == expected


def test_too_few_tags_message_matches_visible_subset(camera, layout, reference_pose,
                                                     compliance):
    p = 0.97
    seed = next(s for s in range(1000)
                if np.count_nonzero(np.random.default_rng(s).random(len(layout)) < p) == 34)
    noise = NoiseModel(corner_sigma=0.25, occlusion_probability=p, seed=seed)
    with pytest.raises(TooFewTagsVisible) as masked:
        synthesize_frame(camera, layout, reference_pose, Wrench(0, 0, 0, 0, 0, 0),
                         compliance, noise)
    with pytest.raises(TooFewTagsVisible) as subset:
        _frame_through_visible_subset(camera, layout, reference_pose,
                                      Wrench(0, 0, 0, 0, 0, 0), compliance, noise)
    assert str(masked.value) == str(subset.value)
    assert str(masked.value) == "only 1 tag(s) remain after masking; at least 2 required"


# ------------------------------------------------------------------ sweep

def test_sweep_monotone_dlz(camera, layout, reference_pose, compliance):
    wrenches, deformations, _ = sweep_dataset(2, [0.0, 5.0, 10.0], camera, layout,
                                              reference_pose, compliance,
                                              NoiseModel(corner_sigma=0.0, seed=0))
    dlz = deformations[:, 2]
    assert dlz[0] < dlz[1] < dlz[2]
    assert wrenches[:, 2].tolist() == [0.0, 5.0, 10.0]
    assert np.all(wrenches[:, 0] == 0.0) and np.all(wrenches[:, 4] == 0.0)


def test_sweep_paper_scale_sample_count(camera, layout, reference_pose, compliance):
    total = 0
    for axis in range(6):
        magnitudes = axis_magnitudes(compliance, axis, 170)
        total += len(magnitudes)
    assert total == 1020


def test_run_sweeps_paper_scale_returns_1020_frames(camera, layout, reference_pose, compliance):
    axes, magnitudes, wrenches, deformations, frames = _run_sweeps(
        camera, layout, reference_pose, compliance, 0.25, 0.0, 7, list(range(6)), 170, 0.8)
    assert len(axes) == 1020
    assert len(magnitudes) == 1020
    assert wrenches.shape == (1020, 6)
    assert deformations.shape == (1020, 6)
    assert len(frames) == 1020
    rows = np.arange(1020)
    off_axis = wrenches.copy()
    off_axis[rows, axes] = 0.0
    assert not off_axis.any()
    assert np.array_equal(wrenches[rows, axes], magnitudes)


def test_sweep_duplicate_magnitudes_share_truth_distinct_noise(
        camera, layout, reference_pose, compliance):
    _, deformations, frames = sweep_dataset(0, [5.0, 5.0], camera, layout, reference_pose,
                                            compliance, NoiseModel(corner_sigma=0.25, seed=3))
    assert np.array_equal(deformations[0], deformations[1])
    assert frames[0] != frames[1]


def _coupled(compliance, rho):
    """``compliance`` with the lateral-force/tilt coupling of a real ring:
    C[0, 4] = rho * sqrt(C[0, 0] C[4, 4]) and C[1, 3] = -rho * sqrt(C[1, 1] C[3, 3])."""
    c = compliance.compliance.copy()
    c[0, 4] = c[4, 0] = rho * np.sqrt(c[0, 0] * c[4, 4])
    c[1, 3] = c[3, 1] = -rho * np.sqrt(c[1, 1] * c[3, 3])
    return ComplianceModel(compliance=c, deformation_limit=compliance.deformation_limit)


def _per_frame_sweep(axis, magnitudes, camera, layout, reference_pose, compliance, noise):
    """What sweep_dataset returns, built one frame at a time through deform
    and synthesize_frame; frame i draws stream axis * len(magnitudes) + i."""
    wrenches, deformations, frames = [], [], []
    for i, m in enumerate(magnitudes):
        wrench = Wrench.from_array(np.where(np.arange(6) == axis, m, 0.0))
        frame_noise = replace(noise, seed=derive_seed(noise.seed, axis * len(magnitudes) + i))
        frames.append(synthesize_frame(camera, layout, reference_pose, wrench, compliance,
                                       frame_noise)[0])
        wrenches.append(wrench.as_array())
        deformations.append(deform(compliance, wrench).as_array())
    return np.reshape(wrenches, (-1, 6)), np.reshape(deformations, (-1, 6)), frames


@settings(max_examples=60, deadline=None, derandomize=True)
@given(axis=st.integers(0, 5), rho=st.sampled_from([0.0, 0.5]),
       pool=st.lists(st.sampled_from([0.0, -0.0, -0.8]) | st.floats(-0.8, 0.8), min_size=1,
                     max_size=3),
       picks=st.lists(st.integers(0, 2), min_size=1, max_size=6),
       over=st.none() | st.tuples(st.integers(0, 6), st.floats(1.01, 3.0), st.booleans()),
       sigma=st.floats(0.0, 1.0), occlusion=st.floats(0.0, 0.5),
       seed=st.integers(0, 2**63 - 1))
def test_sweep_matches_per_frame_synthesis_bit_for_bit(camera, layout, reference_pose,
                                                       compliance, axis, rho, pool, picks, over,
                                                       sigma, occlusion, seed):
    # Negative, repeated and signed-zero magnitudes: the batched deformation
    # product must give deform's bytes, and each frame synthesize_frame's.
    model = _coupled(compliance, rho)
    limit = axis_magnitudes(model, axis, 2, span_fraction=1.0)[-1]
    magnitudes = [pool[i % len(pool)] * limit for i in picks]
    noise = NoiseModel(corner_sigma=sigma, occlusion_probability=occlusion, seed=seed)

    def sweep():
        return sweep_dataset(axis, magnitudes, camera, layout, reference_pose, model, noise)

    if over is not None:
        position, factor, negative = over
        magnitude = (-factor if negative else factor) * limit
        magnitudes.insert(position, magnitude)
        with pytest.raises(ValidationFailure, match=_LIMIT_MESSAGE) as per_frame:
            deform(model, Wrench.from_array(np.where(np.arange(6) == axis, magnitude, 0.0)))
        with pytest.raises(ValidationFailure, match=f"^{re.escape(str(per_frame.value))}$"):
            sweep()
        return
    try:
        exp_w, exp_d, exp_frames = _per_frame_sweep(axis, magnitudes, camera, layout,
                                                    reference_pose, model, noise)
    except ValidationFailure as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            sweep()
        return
    wrenches, deformations, frames = sweep()
    assert wrenches.tobytes() == exp_w.tobytes()
    assert deformations.tobytes() == exp_d.tobytes()
    assert len(frames) == len(exp_frames)
    for got, exp in zip(frames, exp_frames):
        for name in ("tag_ids", "corner_idx", "ref", "img"):
            a, b = getattr(got, name), getattr(exp, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_axis_magnitudes_respect_limits(compliance):
    for axis in range(6):
        mags = axis_magnitudes(compliance, axis, 33, span_fraction=1.0)
        unit = np.arange(6) == axis
        for m in mags:
            deform(compliance, Wrench.from_array(np.where(unit, m, 0.0)))
        with pytest.raises(ValidationFailure, match=_LIMIT_MESSAGE):
            deform(compliance, Wrench.from_array(np.where(unit, mags[-1] * 1.05, 0.0)))


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert derive_seed(7, 0) != derive_seed(7, 1)
    assert derive_seed(7, "simulate") != derive_seed(8, "simulate")


def test_noise_model_validation():
    with pytest.raises(ValidationFailure):
        NoiseModel(corner_sigma=-0.1)
    with pytest.raises(ValidationFailure):
        NoiseModel(occlusion_probability=1.0)
