import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsense import pnp
from ringsense.errors import (
    DegenerateConfiguration,
    NonPositiveDepth,
    TooFewTagsVisible,
    ValidationFailure,
)
from ringsense.geometry import RigidTransform, rotation_from_euler_xyz
from ringsense.layout import default_layout, visible_subset
from ringsense.pnp import (
    CorrespondenceSet,
    epnp_initialize,
    estimate_pose,
    estimate_poses,
    jacobian_reprojection,
    refine_lm,
)
from ringsense.simulator import project_layout

from conftest import random_pose


def reprojection_rms(camera, corrs, pose):
    ref, img = corrs.ref, corrs.img
    pc = ref @ pose.rotation.T + pose.translation
    uv = np.stack(
        [camera.fx * pc[:, 0] / pc[:, 2] + camera.cx,
         camera.fy * pc[:, 1] / pc[:, 2] + camera.cy], axis=1)
    return float(np.sqrt(np.mean((uv - img) ** 2)))


def jitter(corrs, sigma, rng):
    return replace(corrs, img=corrs.img + rng.normal(0, sigma, (len(corrs), 2)))


def collinear_frame():
    # Eight tags' corner 0 on one line: passes the tag gate, not EPnP.
    i = np.arange(8)
    return CorrespondenceSet(
        tag_ids=i, corner_idx=np.zeros(8),
        ref=np.column_stack([i, np.zeros(8), np.zeros(8)]),
        img=np.column_stack([100.0 + 5.0 * i, np.full(8, 90.0)]))


def stacked(frames, poses=()):
    # The stacked ref (B, n, 3) and img (B, n, 2) of frames of one corner
    # count, then the rotation (B, 3, 3) and translation (B, 3) of any poses.
    arrays = (np.stack([c.ref for c in frames]), np.stack([c.img for c in frames]))
    if poses:
        arrays += (np.stack([p.rotation for p in poses]), np.stack([p.translation for p in poses]))
    return arrays


def same_estimate(a, b):
    return (a.pose.rotation.tobytes() == b.pose.rotation.tobytes()
            and a.pose.translation.tobytes() == b.pose.translation.tobytes()
            and a.rms_reprojection_error == b.rms_reprojection_error
            and a.iterations_used == b.iterations_used and a.converged == b.converged
            and a.cost_trace == b.cost_trace)


def rotation_angle(r):
    # atan2 form stays accurate for tiny angles where acos((tr-1)/2) saturates.
    skew = (r - r.T) / 2.0
    s = math.hypot(skew[2, 1], math.hypot(skew[0, 2], skew[1, 0]))
    c = (np.trace(r) - 1.0) / 2.0
    return math.atan2(s, c)


# ------------------------------------------------------------------- EPnP

def test_epnp_noise_free_round_trip(camera, layout):
    rng = np.random.default_rng(0)
    for _ in range(20):
        pose = random_pose(rng)
        corrs = project_layout(camera, layout, pose)
        est = estimate_pose(camera, corrs)
        assert np.max(np.abs(est.pose.translation - pose.translation)) < 1e-6
        assert rotation_angle(est.pose.rotation.T @ pose.rotation) < 1e-8


def test_epnp_collinear_points_degenerate(camera):
    with pytest.raises(DegenerateConfiguration):
        epnp_initialize(camera, *stacked([collinear_frame()]))


def test_epnp_too_few_points(camera):
    i = np.arange(3)
    corrs = CorrespondenceSet(
        tag_ids=np.zeros(3), corner_idx=i,
        ref=np.column_stack([i, i % 2, np.zeros(3)]),
        img=np.column_stack([np.full(3, 100.0), 90.0 + i]))
    with pytest.raises(DegenerateConfiguration):
        epnp_initialize(camera, *stacked([corrs]))


def test_epnp_only_rms_under_noise(camera, layout):
    # Monte-Carlo over the operating envelope at 0.25 px corner noise: the
    # closed-form initialization alone stays well under 2 px reprojection RMS.
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(500):
        pose = random_pose(rng)
        corrs = jitter(project_layout(camera, layout, pose), 0.25, rng)
        [rotation], [translation] = epnp_initialize(camera, *stacked([corrs]))
        worst = max(worst, reprojection_rms(camera, corrs, RigidTransform(rotation, translation)))
    assert worst < 2.0


def test_epnp_inconsistent_correspondences_behind_camera(camera):
    # Geometrically inconsistent image points leave the reconstructed cloud
    # straddling the camera plane for either sign choice.
    from ringsense.errors import BehindCamera

    rng = np.random.default_rng(0)
    n = 8
    ref = np.column_stack([rng.uniform(-8, 8, n), rng.uniform(-8, 8, n), np.zeros(n)])
    img = np.column_stack([rng.uniform(0, 256, n), rng.uniform(0, 192, n)])
    corrs = CorrespondenceSet(tag_ids=np.arange(n) // 4, corner_idx=np.arange(n) % 4,
                              ref=ref, img=img)
    with pytest.raises(BehindCamera):
        epnp_initialize(camera, *stacked([corrs]))


def test_epnp_handles_tilted_plane(camera, layout):
    # Coplanar reference points that do not lie in z = 0: re-expressing the
    # plate corners in a rotated-and-shifted frame S must shift the estimate
    # by exactly S^-1, to (R S^T, t - R S^T t_S).
    rng = np.random.default_rng(20)
    pose = random_pose(rng)
    corrs = project_layout(camera, layout, pose)
    s = RigidTransform(rotation_from_euler_xyz(0.4, -0.3, 0.2), np.array([1.0, -2.0, 3.0]))
    tilted = replace(corrs, ref=s.apply(corrs.ref))
    expected_rotation = pose.rotation @ s.rotation.T
    expected_translation = pose.translation - expected_rotation @ s.translation
    est = estimate_pose(camera, tilted)
    assert np.max(np.abs(est.pose.translation - expected_translation)) < 1e-6
    assert rotation_angle(est.pose.rotation.T @ expected_rotation) < 1e-8


def test_epnp_rejects_non_coplanar_points(camera, layout):
    # Cube corners are not coplanar: rejected alone and in a chunk of
    # 8-corner frames that mixes them with 2-tag plate frames. estimate_poses
    # raises for the first bad frame in input order, after a plate frame;
    # the collinear frame is checked first within a chunk, so its message
    # shows which frame raised.
    rng = np.random.default_rng(2)
    pts = np.array([[x, y, z] for x in (-2, 2) for y in (-2, 2) for z in (-2, 2)], float)
    cams = random_pose(rng).apply(pts)
    cube = CorrespondenceSet(
        tag_ids=np.arange(8) // 4, corner_idx=np.arange(8) % 4, ref=pts,
        img=np.stack([camera.fx * cams[:, 0] / cams[:, 2] + camera.cx,
                      camera.fy * cams[:, 1] / cams[:, 2] + camera.cy], axis=1))
    two_tags = visible_subset(layout, set(range(2, len(layout))))
    plates = [project_layout(camera, two_tags, random_pose(rng)) for _ in range(2)]
    with pytest.raises(DegenerateConfiguration, match="not coplanar"):
        epnp_initialize(camera, *stacked([cube]))
    with pytest.raises(DegenerateConfiguration, match="not coplanar"):
        epnp_initialize(camera, *stacked([plates[0], cube, plates[1]]))
    with pytest.raises(DegenerateConfiguration, match="not coplanar"):
        estimate_poses(camera, [plates[0], cube, plates[1], collinear_frame()])
    with pytest.raises(DegenerateConfiguration, match="collinear"):
        estimate_poses(camera, [plates[0], collinear_frame(), plates[1], cube])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.0, 1.0),
       occlusion=st.floats(0.0, 0.5), count=st.integers(1, 6))
def test_reference_memo_is_bit_identical_to_a_cold_solve(camera, layout, seed, sigma,
                                                          occlusion, count):
    # Frames alternate between two layouts of 35 tags, so a chunk can stack
    # both corner tables and consecutive solves change the memo's key. Each
    # solve runs twice, the second on a warm memo, and must equal a solve
    # after cache_clear() bit for bit, at B = 1 and batched.
    layouts = (layout, default_layout(grid_pitch=2.8, ring_radius=8.5))
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(count):
        tags = layouts[i % 2]
        hidden = np.flatnonzero(rng.random(len(tags)) < occlusion)[:-2]
        corrs = project_layout(camera, visible_subset(tags, set(hidden.tolist())),
                               random_pose(rng))
        frames.append(jitter(corrs, sigma, rng))

    def warm(solve):
        solve()
        return solve()

    def cold(solve):
        pnp._epnp_reference.cache_clear()
        return solve()

    for corrs in frames:
        assert same_estimate(warm(lambda: estimate_pose(camera, corrs)),
                             cold(lambda: estimate_pose(camera, corrs)))
    for got, want in zip(warm(lambda: estimate_poses(camera, frames)),
                         cold(lambda: estimate_poses(camera, frames))):
        assert same_estimate(got, want)


def test_reference_memo_returns_read_only_arrays(camera, layout, reference_pose):
    ref = np.stack([project_layout(camera, layout, reference_pose).ref] * 2)
    terms = pnp._epnp_reference(ref.tobytes(), ref.shape)
    assert len(terms) == 4
    for a in terms:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


def test_degenerate_reference_raises_on_every_call(camera, layout, reference_pose):
    # lru_cache keeps no exception, so a repeat re-runs the checks: on the
    # first call, a repeat, and after a good frame.
    pnp._epnp_reference.cache_clear()
    for good_first in (False, False, True):
        if good_first:
            epnp_initialize(camera, *stacked([project_layout(camera, layout, reference_pose)]))
        with pytest.raises(DegenerateConfiguration, match="collinear"):
            epnp_initialize(camera, *stacked([collinear_frame()]))


def test_repeated_corner_table_hits_the_reference_memo(camera, layout, reference_pose):
    # A structural guard, not a timing test: the second frame of one corner
    # table, with other pixels, reuses the first frame's reference terms.
    rng = np.random.default_rng(3)
    exact = project_layout(camera, layout, reference_pose)
    pnp._epnp_reference.cache_clear()
    estimate_pose(camera, jitter(exact, 0.25, rng))
    hits = pnp._epnp_reference.cache_info().hits
    estimate_pose(camera, jitter(exact, 0.25, rng))
    assert pnp._epnp_reference.cache_info().hits == hits + 1


# --------------------------------------------------------------- refine_lm

def test_refine_at_ground_truth_converges_immediately(camera, layout, reference_pose):
    corrs = project_layout(camera, layout, reference_pose)
    [est] = refine_lm(camera, *stacked([corrs], [reference_pose]))
    assert est.converged
    assert est.iterations_used <= 2
    assert est.rms_reprojection_error < 1e-9


def test_refine_recovers_from_perturbed_init(camera, layout):
    rng = np.random.default_rng(3)
    for _ in range(20):
        pose = random_pose(rng)
        corrs = project_layout(camera, layout, pose)
        init = RigidTransform(
            pose.rotation @ rotation_from_euler_xyz(0.05, -0.05, 0.05),
            pose.translation + np.array([0.5, -0.5, 0.5]),
        )
        [est] = refine_lm(camera, *stacked([corrs], [init]))
        assert est.converged
        assert np.max(np.abs(est.pose.translation - pose.translation)) < 1e-7
        assert rotation_angle(est.pose.rotation.T @ pose.rotation) < 1e-9


def test_refine_noise_rms_matches_dof_prediction(camera, layout, reference_pose):
    # With 2n residuals and 6 pose parameters, E[sum r^2] = sigma^2 (2n - 6),
    # so the per-coordinate RMS is sigma * sqrt((2n - 6) / 2n).
    rng = np.random.default_rng(4)
    sigma = 0.25
    corrs0 = project_layout(camera, layout, reference_pose)
    n = len(corrs0)
    rms = []
    for _ in range(1000):
        est = estimate_pose(camera, jitter(corrs0, sigma, rng))
        rms.append(est.rms_reprojection_error)
    expected = sigma * math.sqrt((2 * n - 6) / (2 * n))
    assert np.mean(rms) == pytest.approx(expected, rel=0.05)


def test_accepted_cost_trace_is_monotone(camera, layout):
    rng = np.random.default_rng(5)
    for _ in range(50):
        pose = random_pose(rng)
        corrs = jitter(project_layout(camera, layout, pose), 0.5, rng)
        est = estimate_pose(camera, corrs)
        trace = np.array(est.cost_trace)
        assert np.all(np.diff(trace) <= 0)


def test_refine_reports_non_convergence_instead_of_raising(camera, layout, reference_pose,
                                                           monkeypatch):
    corrs = project_layout(camera, layout, reference_pose)
    rng = np.random.default_rng(6)
    corrs = jitter(corrs, 0.25, rng)
    monkeypatch.setattr(pnp, "_MAX_ITERATIONS", 1)
    monkeypatch.setattr(pnp, "_COST_TOLERANCE", 1e-300)
    monkeypatch.setattr(pnp, "_STEP_TOLERANCE", 1e-300)
    far = RigidTransform(
        reference_pose.rotation @ rotation_from_euler_xyz(0.1, 0.1, 0.1),
        reference_pose.translation + np.array([0.8, -0.8, 0.8]),
    )
    [est] = refine_lm(camera, *stacked([corrs], [far]))
    assert not est.converged
    assert est.iterations_used == 1
    assert est.cost_trace[-1] <= est.cost_trace[0]


def test_rejected_step_reuses_the_jacobian(camera, layout, monkeypatch):
    # A rejected step leaves the pose unchanged, so the Jacobian is built
    # once at the initial pose and once after each accepted step at most.
    # The gradient stop ends most of these solves before any step is
    # rejected; without it they reach the rejecting regime.
    monkeypatch.setattr(pnp, "_GRADIENT_TOLERANCE", 0.0)
    calls = []

    def counted(*args):
        calls.append(1)
        return jacobian_block(*args)

    jacobian_block = pnp._jacobian_block
    monkeypatch.setattr(pnp, "_jacobian_block", counted)
    rng = np.random.default_rng(12)
    rejected = 0
    for _ in range(40):
        corrs = jitter(project_layout(camera, layout, random_pose(rng)), 0.25, rng)
        calls.clear()
        est = estimate_pose(camera, corrs)
        rejected += est.iterations_used - (len(est.cost_trace) - 1)
        assert len(calls) <= len(est.cost_trace)
    assert rejected > 0


def test_jacobian_is_built_only_at_positive_depth(camera, layout, reference_pose, monkeypatch):
    # _jacobian_block does not check depth; LM gives it only the points of
    # poses _residuals found ahead of the camera. Each frame holds the
    # pixels of a plate 0.05 mm behind the camera plane, solved from the
    # same plate 0.05 mm in front of it: on some frames LM tries cheaper
    # poses across the plane, in the per-frame (B = 1) and the batched loop.
    table = project_layout(camera, layout, reference_pose)
    ids, idx, corners = table.tag_ids, table.corner_idx, table.ref
    depths = []

    def jacobian_block(camera, pts_cam, translation):
        depths.append(pts_cam[..., 2].min())
        return pnp_jacobian_block(camera, pts_cam, translation)

    pnp_jacobian_block = pnp._jacobian_block
    monkeypatch.setattr(pnp, "_jacobian_block", jacobian_block)
    rng = np.random.default_rng(15)
    frames, inits = [], []
    for _ in range(40):
        rotation = rotation_from_euler_xyz(*rng.uniform(-0.02, 0.02, 3))
        xy = rng.uniform(-1.0, 1.0, 2)
        z = (corners @ rotation.T)[:, 2]
        pts = corners @ rotation.T + np.append(xy, -0.05 - z.max())
        img = np.column_stack([camera.fx * pts[:, 0] / pts[:, 2] + camera.cx,
                               camera.fy * pts[:, 1] / pts[:, 2] + camera.cy])
        frames.append(CorrespondenceSet(tag_ids=ids, corner_idx=idx, ref=corners, img=img))
        inits.append(RigidTransform(rotation, np.append(xy, 0.05 - z.min())))
    for corrs, init in zip(frames, inits):
        refine_lm(camera, *stacked([corrs], [init]))
    refine_lm(camera, *stacked(frames, inits))
    assert min(depths) > 0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.0, 1.0),
       occlusion=st.floats(0.0, 0.5))
def test_gradient_stop_matches_the_solve_without_it(camera, layout, seed, sigma, occlusion):
    # Stopping at ||J^T r||_inf <= _GRADIENT_TOLERANCE leaves the estimate
    # within the Gauss-Newton step still ahead of it, ||(J^T J)^-1 J^T r||
    # <= sqrt(6) * tolerance / lambda_min(J^T J), of where the loop without
    # it (tolerance -1: never met) ends; at the per-frame (B = 1) and the
    # batched loop. That is 6e-8 mm or rad for 140 corners, and at most
    # 1e-8 on most frames.
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(4):
        hidden = np.flatnonzero(rng.random(len(layout)) < occlusion)[:-2]
        corrs = project_layout(camera, visible_subset(layout, set(hidden.tolist())),
                               random_pose(rng))
        frames.append(jitter(corrs, sigma, rng))
    frames.append(frames[0])  # a chunk of two whatever the occlusion
    stopped = [estimate_pose(camera, corrs) for corrs in frames] + estimate_poses(camera, frames)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pnp, "_GRADIENT_TOLERANCE", -1.0)
        full = [estimate_pose(camera, corrs) for corrs in frames] + estimate_poses(camera, frames)
    for corrs, est, ref in zip(frames + frames, stopped, full):
        assert est.converged and ref.converged
        assert est.iterations_used <= ref.iterations_used
        jac = pnp._jacobian_block(camera, est.pose.apply(corrs.ref), est.pose.translation)
        bound = math.sqrt(6) * pnp._GRADIENT_TOLERANCE / np.linalg.eigvalsh(jac.T @ jac)[0]
        assert np.max(np.abs(est.pose.translation - ref.pose.translation)) <= bound
        assert rotation_angle(est.pose.rotation.T @ ref.pose.rotation) <= bound
        assert np.all(np.diff(est.cost_trace) <= 0)


def test_chunk_row_leaving_on_the_gradient_counts_as_per_frame(camera, layout, reference_pose,
                                                               monkeypatch):
    # With the cost and step tests switched off only the gradient test can
    # converge: a row of the batched loop that leaves on it reports the
    # iterations of the per-frame loop, and a frame whose initial pose
    # already passes it reports 0, since the test is not an iteration.
    monkeypatch.setattr(pnp, "_COST_TOLERANCE", 0.0)
    monkeypatch.setattr(pnp, "_STEP_TOLERANCE", 0.0)
    rng = np.random.default_rng(14)
    exact = project_layout(camera, layout, reference_pose)
    frames = [jitter(project_layout(camera, layout, random_pose(rng)), 0.25, rng)
              for _ in range(3)] + [exact]
    rotation, translation = epnp_initialize(camera, *stacked(frames[:3]))
    rotation = np.concatenate([rotation, reference_pose.rotation[None]])
    translation = np.concatenate([translation, reference_pose.translation[None]])
    batched = pnp._refine_chunk(camera, *stacked(frames), rotation, translation)
    for corrs, rot, t, est in zip(frames, rotation, translation, batched):
        ref = pnp._refine_frame(camera, corrs.ref, corrs.img, rot, t)
        assert est.converged and ref.converged
        assert est.iterations_used == ref.iterations_used
        assert len(est.cost_trace) == len(ref.cost_trace)
    assert batched[-1].iterations_used == 0
    assert min(est.iterations_used for est in batched[:3]) > 0


def test_singular_batch_falls_back_to_frame_by_frame(camera, layout, monkeypatch):
    # np.linalg.solve raises on an exactly singular system; the per-frame
    # loop answers that by raising the damping, so a chunk that hits it is
    # re-solved frame by frame.
    rng = np.random.default_rng(13)
    frames = [jitter(project_layout(camera, layout, random_pose(rng)), 0.25, rng)
              for _ in range(3)]
    ref, img = stacked(frames)
    rotation, translation = epnp_initialize(camera, ref, img)
    expected = [refine_lm(camera, *stacked([corrs]), rot[None], t[None])[0]
                for corrs, rot, t in zip(frames, rotation, translation)]
    solve = np.linalg.solve

    def singular_when_stacked(a, b):
        if a.ndim == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_when_stacked)
    for got, want in zip(refine_lm(camera, ref, img, rotation, translation), expected):
        assert np.array_equal(got.pose.rotation, want.pose.rotation)
        assert np.array_equal(got.pose.translation, want.pose.translation)
        assert got.cost_trace == want.cost_trace


# ------------------------------------------------------------ estimate_pose

def test_estimate_pose_solves_a_bad_frame_once(camera, monkeypatch):
    # A one-frame call raises from its only solve: falling back to a
    # frame-by-frame re-solve would run EPnP on the same frame twice.
    calls = []

    def counted(*args):
        calls.append(1)
        return epnp(*args)

    epnp = pnp.epnp_initialize
    monkeypatch.setattr(pnp, "epnp_initialize", counted)
    with pytest.raises(DegenerateConfiguration, match="collinear"):
        estimate_pose(camera, collinear_frame())
    assert len(calls) == 1


def test_estimate_pose_zero_noise_consistency(camera, layout):
    rng = np.random.default_rng(7)
    for _ in range(100):
        pose = random_pose(rng)
        corrs = project_layout(camera, layout, pose)
        est = estimate_pose(camera, corrs)
        assert est.converged
        assert np.max(np.abs(est.pose.translation - pose.translation)) < 1e-6
        assert rotation_angle(est.pose.rotation.T @ pose.rotation) < 1e-6


def test_estimate_pose_under_heavy_occlusion(camera, layout, reference_pose):
    # 20 of 35 tags hidden: error grows but stays within 3x of all-visible,
    # paired over the same noise seeds.
    rng_mask = np.random.default_rng(8)
    hidden = set(rng_mask.choice(35, size=20, replace=False).tolist())
    partial_layout = visible_subset(layout, hidden)
    err_full, err_part = [], []
    for trial in range(200):
        rng = np.random.default_rng(1000 + trial)
        pose = random_pose(rng)
        full = jitter(project_layout(camera, layout, pose), 0.25, rng)
        part = jitter(project_layout(camera, partial_layout, pose), 0.25, rng)
        est_full = estimate_pose(camera, full)
        est_part = estimate_pose(camera, part)
        assert est_part.converged
        err_full.append(np.linalg.norm(est_full.pose.translation - pose.translation))
        err_part.append(np.linalg.norm(est_part.pose.translation - pose.translation))
    assert np.mean(err_part) < 3.0 * np.mean(err_full)


def test_estimate_pose_standard_mode_minimums(camera, layout, reference_pose):
    corrs = project_layout(camera, layout, reference_pose)
    one_tag = CorrespondenceSet(tag_ids=corrs.tag_ids[:4], corner_idx=corrs.corner_idx[:4],
                                ref=corrs.ref[:4], img=corrs.img[:4])
    with pytest.raises(TooFewTagsVisible):
        estimate_pose(camera, one_tag)
    est = estimate_pose(camera, one_tag, allow_single_tag=True)
    assert np.max(np.abs(est.pose.translation - reference_pose.translation)) < 1e-6


def old_tag_gate(corrs, allow_single_tag):
    # The gate as it was, testing the tag count as well as the corner count.
    mode, min_tags, min_entries = (("single-tag", 1, 4) if allow_single_tag
                                   else ("standard", 2, 8))
    if corrs.tag_count < min_tags or len(corrs) < min_entries:
        return (f"{corrs.tag_count} tag(s) / {len(corrs)} corner(s); {mode} mode "
                f"needs >= {min_tags} tag(s) and {min_entries} corners")
    return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=14,
                      unique=True),
       allow_single_tag=st.booleans())
def test_corner_minimum_gates_as_the_tag_and_corner_minimums(pairs, allow_single_tag):
    # Any valid set of (tag, corner) pairs: the corner minimum alone accepts
    # and rejects what the tag and corner minimums together did, with the
    # same message.
    n = len(pairs)
    corrs = CorrespondenceSet(tag_ids=[t for t, _ in pairs], corner_idx=[c for _, c in pairs],
                              ref=np.zeros((n, 3)), img=np.zeros((n, 2)))
    expected = old_tag_gate(corrs, allow_single_tag)
    if expected is None:
        pnp._check_visible(corrs, allow_single_tag)
    else:
        with pytest.raises(TooFewTagsVisible) as exc:
            pnp._check_visible(corrs, allow_single_tag)
        assert str(exc.value) == expected


def test_estimate_pose_deterministic(camera, layout, reference_pose):
    rng = np.random.default_rng(9)
    corrs = jitter(project_layout(camera, layout, reference_pose), 0.25, rng)
    a = estimate_pose(camera, corrs)
    b = estimate_pose(camera, corrs)
    assert np.array_equal(a.pose.rotation, b.pose.rotation)
    assert np.array_equal(a.pose.translation, b.pose.translation)
    assert a.rms_reprojection_error == b.rms_reprojection_error
    assert a.cost_trace == b.cost_trace


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.0, 1.0),
       occlusion=st.floats(0.0, 0.5), count=st.integers(1, 150))
def test_batched_estimates_match_frame_by_frame(camera, layout, seed, sigma, occlusion, count):
    # Ragged corner counts and more than one chunk: every frame matches the
    # per-frame solver, and results come back in input order.
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(count):
        # At least two tags stay visible, as standard mode needs.
        hidden = np.flatnonzero(rng.random(len(layout)) < occlusion)[:-2]
        corrs = project_layout(camera, visible_subset(layout, set(hidden.tolist())),
                               random_pose(rng))
        frames.append(jitter(corrs, sigma, rng))
    batched = estimate_poses(camera, frames)
    assert len(batched) == count
    for corrs, est in zip(frames, batched):
        ref = estimate_pose(camera, corrs)
        assert est.converged == ref.converged
        assert np.max(np.abs(est.pose.translation - ref.pose.translation)) <= 1e-8
        assert np.max(np.abs(est.pose.rotation - ref.pose.rotation)) <= 1e-8
        assert np.all(np.diff(est.cost_trace) <= 0)


def test_noise_scaling_is_linear(camera, layout, reference_pose):
    # Empirical pose std grows linearly with corner noise sigma.
    corrs0 = project_layout(camera, layout, reference_pose)
    sigmas = [0.1, 0.25, 0.5]
    spreads = []
    for sigma in sigmas:
        rng = np.random.default_rng(10)
        translations = []
        for _ in range(150):
            est = estimate_pose(camera, jitter(corrs0, sigma, rng))
            translations.append(est.pose.translation)
        spreads.append(float(np.linalg.norm(np.std(translations, axis=0))))
    coeffs = np.polyfit(sigmas, spreads, 1)
    fit = np.polyval(coeffs, sigmas)
    ss_res = np.sum((np.array(spreads) - fit) ** 2)
    ss_tot = np.sum((np.array(spreads) - np.mean(spreads)) ** 2)
    assert 1.0 - ss_res / ss_tot > 0.98


def test_occlusion_robustness_ordering(camera, layout):
    # More visible tags never hurt: 35-tag error <= 9-tag <= 2-tag on average.
    grid_only = visible_subset(layout, set(range(9, 35)))
    two_tags = visible_subset(layout, set(range(2, 35)))
    errs = {"full": [], "grid": [], "two": []}
    for trial in range(100):
        rng = np.random.default_rng(2000 + trial)
        pose = random_pose(rng)
        for key, lay in (("full", layout), ("grid", grid_only), ("two", two_tags)):
            corrs = jitter(project_layout(camera, lay, pose), 0.25, rng)
            est = estimate_pose(camera, corrs)
            errs[key].append(np.linalg.norm(est.pose.translation - pose.translation))
    assert np.mean(errs["full"]) <= np.mean(errs["grid"]) <= np.mean(errs["two"])


# ---------------------------------------------------------------- jacobian

def test_jacobian_on_optical_axis(camera, reference_pose):
    jac = jacobian_reprojection(camera, np.zeros(3), reference_pose)
    z = reference_pose.translation[2]
    np.testing.assert_allclose(jac[:, 0], [camera.fx / z, 0.0], atol=1e-12)
    np.testing.assert_allclose(jac[:, 1], [0.0, camera.fy / z], atol=1e-12)


def test_jacobian_matches_central_finite_differences(camera):
    from ringsense.pnp import _so3_exp

    rng = np.random.default_rng(11)
    step = 1e-6
    for _ in range(100):
        pose = random_pose(rng)
        point = np.append(rng.uniform(-8, 8, 2), 0.0)
        jac = jacobian_reprojection(camera, point, pose)
        fd = np.zeros((2, 6))
        for k in range(6):
            twist = np.zeros(6)
            twist[k] = step
            plus = RigidTransform(_so3_exp(twist[3:]) @ pose.rotation,
                                  pose.translation + twist[:3])
            minus = RigidTransform(_so3_exp(-twist[3:]) @ pose.rotation,
                                   pose.translation - twist[:3])
            up = plus.apply(point)
            dn = minus.apply(point)
            uv_p = np.array([camera.fx * up[0] / up[2] + camera.cx,
                             camera.fy * up[1] / up[2] + camera.cy])
            uv_m = np.array([camera.fx * dn[0] / dn[2] + camera.cx,
                             camera.fy * dn[1] / dn[2] + camera.cy])
            fd[:, k] = (uv_p - uv_m) / (2 * step)
        assert np.max(np.abs(jac - fd)) < 1e-5


def test_jacobian_translation_block_halves_at_double_depth(camera):
    pose = RigidTransform(np.eye(3), np.array([0.0, 0.0, 10.0]))
    deep = RigidTransform(np.eye(3), np.array([0.0, 0.0, 20.0]))
    near = jacobian_reprojection(camera, np.zeros(3), pose)
    far = jacobian_reprojection(camera, np.zeros(3), deep)
    np.testing.assert_allclose(far[:, :3], near[:, :3] / 2.0, atol=1e-12)


def test_jacobian_rejects_non_positive_depth(camera):
    behind = RigidTransform(np.eye(3), np.array([0.0, 0.0, -5.0]))
    with pytest.raises(NonPositiveDepth):
        jacobian_reprojection(camera, np.zeros(3), behind)


# ------------------------------------------------------------- value types

def test_correspondence_set_rejects_duplicates():
    with pytest.raises(ValidationFailure):
        CorrespondenceSet(tag_ids=[0, 0], corner_idx=[0, 0], ref=np.zeros((2, 3)),
                          img=np.ones((2, 2)))
