import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsense.errors import TooFewTagsVisible, ValidationFailure
from ringsense.geometry import default_camera
from ringsense.layout import (
    TagLayout,
    TagPlacement,
    corners_ref,
    default_layout,
    visible_subset,
)
from ringsense.simulator import default_reference_pose, project_layout


def test_default_layout_counts(layout):
    assert len(layout) == 35
    pts = np.concatenate([corners_ref(layout, t.tag_id) for t in layout.tags])
    assert pts.shape == (140, 3)
    assert layout.tag_size == 2.0
    assert layout.border == 0.2


def test_default_layout_deterministic():
    a, b = default_layout(), default_layout()
    assert a == b


def test_no_footprint_overlap_pairwise_scan(layout):
    # O(n^2) oracle: every pair of centers farther apart than the footprint.
    centers = np.array([t.center for t in layout.tags])
    bound = layout.tag_size + 2 * layout.border
    n = len(centers)
    min_d = min(
        float(np.linalg.norm(centers[i] - centers[j]))
        for i in range(n)
        for j in range(i + 1, n)
    )
    assert min_d > bound


def test_layout_fits_in_22mm_disc(layout):
    pts = np.concatenate([corners_ref(layout, t.tag_id) for t in layout.tags])
    assert np.all(np.linalg.norm(pts[:, :2], axis=1) <= 11.0)
    assert np.all(pts[:, 2] == 0.0)


def test_corner_winding_counter_clockwise(layout):
    for tag in layout.tags:
        c = corners_ref(layout, tag.tag_id)
        for k in range(4):
            e1 = c[(k + 1) % 4] - c[k]
            e2 = c[(k + 2) % 4] - c[(k + 1) % 4]
            assert e1[0] * e2[1] - e1[1] * e2[0] > 0


def test_corners_centered_tag():
    layout = TagLayout(tags=(TagPlacement(0, (0.0, 0.0), 0.0), TagPlacement(1, (10.0, 0.0), 0.0)))
    c = corners_ref(layout, 0)
    np.testing.assert_allclose(
        c, [[-1, -1, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0]], atol=1e-15)


def test_corners_quarter_turn_is_cyclic_shift():
    base = TagLayout(tags=(TagPlacement(0, (0.0, 0.0), 0.0), TagPlacement(1, (10.0, 0.0), 0.0)))
    turned = TagLayout(
        tags=(TagPlacement(0, (0.0, 0.0), math.pi / 2), TagPlacement(1, (10.0, 0.0), 0.0)))
    a = corners_ref(base, 0)
    b = corners_ref(turned, 0)
    # Same point set, orders differ by one cyclic step.
    np.testing.assert_allclose(np.roll(a, -1, axis=0), b, atol=1e-12)


def test_corners_match_2d_rotation_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        cx, cy = rng.uniform(-10, 10, 2)
        yaw = rng.uniform(-math.pi, math.pi)
        size = rng.uniform(0.5, 4.0)
        layout = TagLayout(
            tags=(TagPlacement(0, (cx, cy), yaw), TagPlacement(1, (cx + 50, cy), 0.0)),
            tag_size=size,
        )
        got = corners_ref(layout, 0)
        rot = np.array([[math.cos(yaw), -math.sin(yaw)], [math.sin(yaw), math.cos(yaw)]])
        half = size / 2
        for k, (sx, sy) in enumerate([(-1, -1), (1, -1), (1, 1), (-1, 1)]):
            expected = rot @ np.array([sx * half, sy * half]) + np.array([cx, cy])
            np.testing.assert_allclose(got[k, :2], expected, atol=1e-12)
            assert got[k, 2] == 0.0


def test_unknown_tag_id(layout):
    with pytest.raises(ValidationFailure, match=r"^tag id 999 not in layout$"):
        corners_ref(layout, 999)


def test_duplicate_ids_rejected():
    with pytest.raises(ValidationFailure):
        TagLayout(tags=(TagPlacement(0, (0.0, 0.0), 0.0), TagPlacement(0, (10.0, 0.0), 0.0)))


@pytest.mark.parametrize("tag_id", [2**63, -2**63 - 1, 10**22])
def test_tag_ids_outside_int64_rejected(tag_id):
    # Every CorrespondenceSet holds tag ids as int64.
    with pytest.raises(ValidationFailure, match="int64"):
        TagLayout(tags=(TagPlacement(0, (0.0, 0.0), 0.0), TagPlacement(tag_id, (10.0, 0.0), 0.0)))
    TagLayout(tags=(TagPlacement(2**63 - 1, (0.0, 0.0), 0.0),
                    TagPlacement(-2**63, (10.0, 0.0), 0.0)))


def test_fractional_tag_id_rejected():
    # Every CorrespondenceSet would truncate 1.5 to tag 1.
    with pytest.raises(ValidationFailure, match=r"^tag ids must be integers, got 1\.5$"):
        TagLayout(tags=(TagPlacement(1.5, (0.0, 0.0), 0.0), TagPlacement(2, (10.0, 0.0), 0.0)))


def test_integer_valued_float_id_is_stored_as_an_int():
    # 1.0 is tag 1 in every CorrespondenceSet; written as 1.0, from_dict would reject it.
    layout = TagLayout(tags=(TagPlacement(1.0, (0.0, 0.0), 0.0),
                             TagPlacement(2, (5.0, 0.0), 0.0)))
    data = layout.to_dict()
    assert [type(t["id"]) for t in data["tags"]] == [int, int]
    assert TagLayout.from_dict(data) == layout


def test_overlap_rejected_names_pair():
    with pytest.raises(ValidationFailure, match=r"^tags 3 and 4 are 1 mm apart, "
                       r"within the 2\.4 mm footprint bound$"):
        TagLayout(tags=(
            TagPlacement(3, (0.0, 0.0), 0.0),
            TagPlacement(4, (1.0, 0.0), 0.0),
        ))


def test_crowded_ring_radius_rejected():
    # 26 ring tags cannot fit around the 3x3 grid at radius 6.
    with pytest.raises(ValidationFailure, match=r"^tags 0 and 17 are 1\.34816 mm apart, "
                       r"within the 2\.4 mm footprint bound$"):
        default_layout(ring_radius=6.0)


def test_visible_subset_empty_mask_unchanged(layout):
    assert visible_subset(layout, set()) == layout


def test_visible_subset_boundary():
    layout = default_layout()
    # 2 remaining tags is the multi-tag solve minimum and stays valid.
    two_left = visible_subset(layout, {t.tag_id for t in layout.tags[:33]})
    assert len(two_left) == 2
    with pytest.raises(TooFewTagsVisible):
        visible_subset(layout, {t.tag_id for t in layout.tags[:34]})


def test_visible_subset_masks_central_grid(layout):
    ring = visible_subset(layout, set(range(9)))
    assert len(ring) == 26
    pts = np.concatenate([corners_ref(ring, t.tag_id) for t in ring.tags])
    assert pts.shape == (104, 3)


def test_visible_subset_idempotent(layout):
    mask = {0, 5, 17, 30}
    once = visible_subset(layout, mask)
    twice = visible_subset(once, mask)
    assert once == twice


def test_layout_json_round_trip(layout):
    data = layout.to_dict()
    assert data["tag_size_mm"] == 2.0
    assert data["border_mm"] == 0.2
    assert len(data["tags"]) == 35
    assert TagLayout.from_dict(data) == layout


# ------------------------------------------------------------ corner table

def closed_form_corners(tag, tag_size):
    """Per-tag reference: the rotation and translation of the unit corners,
    evaluated as one (4, 2) expression for this tag alone."""
    half = tag_size / 2.0
    c, s = math.cos(tag.yaw), math.sin(tag.yaw)
    rot = np.array([[c, -s], [s, c]])
    signs = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    corners = np.zeros((4, 3))
    corners[:, :2] = signs * half @ rot.T + np.array(tag.center)
    return corners


# Centers 10 mm apart along x, jittered by at most 2 mm, never crowd a
# footprint of at most 4 + 2 * 0.5 = 5 mm.
@st.composite
def layouts(draw):
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n, unique=True))
    jitter = st.floats(-2.0, 2.0)
    tags = tuple(
        TagPlacement(tag_id, (10.0 * i + draw(jitter), draw(jitter)),
                     draw(st.floats(-2 * math.pi, 2 * math.pi)))
        for i, tag_id in enumerate(ids)
    )
    return TagLayout(tags=tags, tag_size=draw(st.floats(0.1, 4.0)),
                     border=draw(st.floats(0.0, 0.5)))


@settings(max_examples=200, deadline=None)
@given(layouts())
def test_corner_table_matches_closed_form_bit_for_bit(layout):
    for tag in layout.tags:
        expected = closed_form_corners(tag, layout.tag_size)
        assert corners_ref(layout, tag.tag_id).tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(layouts())
def test_corner_table_returns_independent_copies(layout):
    tag_id = layout.tags[0].tag_id
    expected = closed_form_corners(layout.tags[0], layout.tag_size)
    corners_ref(layout, tag_id)[:] = 99.0
    pts = np.concatenate([corners_ref(layout, t.tag_id) for t in layout.tags])
    pts[:] = -99.0
    assert corners_ref(layout, tag_id).tobytes() == expected.tobytes()
    table = project_layout(default_camera(), layout, default_reference_pose())
    assert table.ref[:4].tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(layouts(), st.floats(0.1, 4.0))
def test_layout_equality_hash_and_replace_see_only_the_fields(layout, tag_size):
    same = TagLayout(tags=layout.tags, tag_size=layout.tag_size, border=layout.border)
    assert same == layout
    assert hash(same) == hash(layout) == hash((layout.tags, layout.tag_size, layout.border))
    assert repr(layout) == (f"TagLayout(tags={layout.tags!r}, tag_size={layout.tag_size!r}, "
                            f"border={layout.border!r})")
    resized = replace(layout, tag_size=tag_size)
    assert (resized == layout) == (tag_size == layout.tag_size)
    for tag in layout.tags:
        expected = closed_form_corners(tag, tag_size)
        assert corners_ref(resized, tag.tag_id).tobytes() == expected.tobytes()
