"""Geometric model of the fiducial layout on the sensing plate.

The default layout carries 35 tags of 2 mm edge length with a 0.2 mm white
border: a 3x3 central grid (2.6 mm pitch) surrounded by a ring of 26 tags.
The ring is realized as two interleaved circles at ``ring_radius +- ring_spread``
(13 tags each, radially aligned yaw) so that every footprint clears the
non-overlap bound while all corners stay inside a 22 mm diameter disc.

Corners are enumerated counter-clockwise starting at the bottom-left of the
tag's local frame, matching common fiducial-detector conventions. All tags
are coplanar at z = 0 in the plate reference frame. Tag ids are opaque
integers; rendering and payload decoding are out of scope.

A :class:`TagLayout` computes its corner table, shape (n_tags, 4, 3), once
when it is built; :func:`corners_ref` reads one tag's row of that table
and does no trigonometry and no search over the tags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    TooFewTagsVisible,
    ValidationFailure,
    check_keys,
    read_integer,
    read_number,
)
from .pnp import _TAG_ID_MESSAGES, _int64s

_RING_COUNT = 26  # tags on the ring around the 3x3 grid of default_layout
# Local corner order: counter-clockwise from bottom-left, unit half-size.
_CORNER_SIGNS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


@dataclass(frozen=True)
class TagPlacement:
    """One tag: id, center in the plate plane (mm), in-plane yaw (rad)."""

    tag_id: int
    center: tuple[float, float]
    yaw: float


@dataclass(frozen=True)
class TagLayout:
    """A set of coplanar tags with shared edge length and border width."""

    tags: tuple[TagPlacement, ...]
    tag_size: float = 2.0
    border: float = 0.2

    def __post_init__(self) -> None:
        geometry = [self.tag_size, self.border, *(v for t in self.tags for v in (*t.center, t.yaw))]
        if not np.all(np.isfinite(geometry)):
            raise ValidationFailure("tag_size, border, tag centers and yaws must be finite")
        if self.tag_size <= 0 or self.border < 0:
            raise ValidationFailure("tag_size must be positive and border non-negative")
        ids = [t.tag_id for t in self.tags]
        _int64s(ids, *_TAG_ID_MESSAGES)  # every CorrespondenceSet holds them as int64
        if len(ids) != len(set(ids)):
            raise ValidationFailure("tag ids must be unique within a layout")
        self._check_overlap()
        # The corner table and the id -> row map are not dataclass fields, so
        # ==, hash, repr and to_dict see only the tags, tag_size and border.
        half = self.tag_size / 2.0
        corners = np.zeros((len(self.tags), 4, 3))
        for row, tag in enumerate(self.tags):
            c, s = math.cos(tag.yaw), math.sin(tag.yaw)
            rot = np.array([[c, -s], [s, c]])
            corners[row, :, :2] = _CORNER_SIGNS * half @ rot.T + np.array(tag.center)
        corners.setflags(write=False)
        object.__setattr__(self, "_corners", corners)
        object.__setattr__(self, "_rows", {tag_id: row for row, tag_id in enumerate(ids)})

    def _check_overlap(self) -> None:
        # Non-overlap bound: footprint squares of side tag_size + 2*border
        # cannot overlap if centers are farther apart than that side.
        bound = self.footprint
        centers = np.array([t.center for t in self.tags])
        for i in range(len(self.tags)):
            d = np.linalg.norm(centers[i + 1 :] - centers[i], axis=1)
            if d.size and np.min(d) <= bound:
                j = i + 1 + int(np.argmin(d))
                raise ValidationFailure(
                    f"tags {self.tags[i].tag_id} and {self.tags[j].tag_id} are "
                    f"{np.min(d):.6g} mm apart, within the {bound:.6g} mm footprint bound"
                )

    @property
    def footprint(self) -> float:
        return self.tag_size + 2.0 * self.border

    def __len__(self) -> int:
        return len(self.tags)

    def to_dict(self) -> dict:
        return {
            "tag_size_mm": self.tag_size,
            "border_mm": self.border,
            "tags": [
                {"id": t.tag_id, "center_mm": [t.center[0], t.center[1]], "yaw_rad": t.yaw}
                for t in self.tags
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TagLayout":
        """Inverse of ``to_dict``; every key is required and an unknown key,
        at the top level or in a tag, is an error."""
        check_keys(data, ("tag_size_mm", "border_mm", "tags"), "layout")
        tags = []
        for t in data["tags"]:
            check_keys(t, ("id", "center_mm", "yaw_rad"), "layout tag")
            if len(t["center_mm"]) != 2:
                raise ValidationFailure("center_mm must hold 2 numbers")
            tags.append(TagPlacement(
                tag_id=read_integer(t["id"], "id"),
                center=tuple(read_number(v, "center_mm") for v in t["center_mm"]),
                yaw=read_number(t["yaw_rad"], "yaw_rad"),
            ))
        return cls(tags=tuple(tags), tag_size=read_number(data["tag_size_mm"], "tag_size_mm"),
                   border=read_number(data["border_mm"], "border_mm"))


def default_layout(
    tag_size: float = 2.0,
    border: float = 0.2,
    grid_pitch: float = 2.6,
    ring_radius: float = 8.0,
    ring_spread: float = 1.0,
) -> TagLayout:
    """Deterministic 35-tag layout: 3x3 grid plus a 26-tag surrounding ring.

    Ring tags sit on two interleaved circles at ``ring_radius +- ring_spread``
    with radially aligned yaw. Raises ValidationFailure if the requested
    parameters crowd any pair of footprints.
    """
    tags: list[TagPlacement] = []
    for gy in (-grid_pitch, 0.0, grid_pitch):
        for gx in (-grid_pitch, 0.0, grid_pitch):
            tags.append(TagPlacement(len(tags), (gx, gy), 0.0))
    inner_count = _RING_COUNT // 2
    outer_count = _RING_COUNT - inner_count
    # The outer circle is turned half a step so that its tags interleave.
    for count, r, phase in ((inner_count, ring_radius - ring_spread, 0.0),
                            (outer_count, ring_radius + ring_spread, math.pi / outer_count)):
        for k in range(count):
            angle = 2.0 * math.pi * k / count + phase
            tags.append(TagPlacement(len(tags), (r * math.cos(angle), r * math.sin(angle)), angle))
    return TagLayout(tags=tuple(tags), tag_size=tag_size, border=border)


def corners_ref(layout: TagLayout, tag_id: int) -> np.ndarray:
    """Four plate-frame corners (mm) of one tag, shape (4, 3), z = 0.

    Counter-clockwise starting at the bottom-left corner of the tag's
    local frame, rotated by yaw and translated to the tag center. Returns a
    writable copy of the tag's row of the layout's corner table.
    """
    try:
        row = layout._rows[tag_id]
    except KeyError:
        raise ValidationFailure(f"tag id {tag_id} not in layout") from None
    return layout._corners[row].copy()


def _require_two_tags(remaining: int) -> None:
    """The multi-tag solve minimum after masking; the simulator's occlusion
    mask applies the same rule as :func:`visible_subset`."""
    if remaining < 2:
        raise TooFewTagsVisible(
            f"only {remaining} tag(s) remain after masking; at least 2 required"
        )


def visible_subset(layout: TagLayout, occlusion_mask: set[int]) -> TagLayout:
    """Layout with masked tags removed.

    Raises:
        TooFewTagsVisible: if fewer than 2 tags remain (the multi-tag
        solve minimum; single-tag operation is a documented degraded mode
        of the pose estimator, not of layouts).
    """
    remaining = tuple(t for t in layout.tags if t.tag_id not in occlusion_mask)
    _require_two_tags(len(remaining))
    return TagLayout(tags=remaining, tag_size=layout.tag_size, border=layout.border)
