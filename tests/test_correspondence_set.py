"""Property tests of the array-backed CorrespondenceSet and its JSONL row form."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ringsense import pnp
from ringsense.cli import _corrs_from_row, _frame_lines
from ringsense.errors import ValidationFailure
from ringsense.pnp import CorrespondenceSet

FIELDS = ("tag_ids", "corner_idx", "ref", "img")
finite = st.floats(allow_nan=False, allow_infinity=False)
# Zeros of both signs, subnormals and the ends of the float range, drawn often.
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, 1.7976931348623157e308]),
    finite)


@st.composite
def valid_arrays(draw, min_size=0, elements=finite):
    keys = sorted(draw(st.sets(st.tuples(st.integers(0, 10**6), st.integers(0, 3)),
                               min_size=min_size, max_size=24)))
    n = len(keys)
    return {
        "tag_ids": np.array([k[0] for k in keys], dtype=np.int64),
        "corner_idx": np.array([k[1] for k in keys], dtype=np.int64),
        "ref": draw(arrays(np.float64, (n, 3), elements=elements)),
        "img": draw(arrays(np.float64, (n, 2), elements=elements)),
    }


@settings(max_examples=200, deadline=None)
@given(valid_arrays(), st.integers(0, 10**6))
def test_row_round_trip(fields, frame):
    corrs = CorrespondenceSet(**fields)
    row = json.loads(next(_frame_lines([(frame, corrs)])))
    assert row["frame"] == frame
    assert _corrs_from_row(row) == corrs
    assert len(corrs) == len(fields["tag_ids"])
    assert corrs.tag_count == len(set(fields["tag_ids"].tolist()))


@settings(deadline=None)
@given(valid_arrays(min_size=1), st.data())
def test_duplicate_key_rejected(fields, data):
    i = data.draw(st.integers(0, len(fields["tag_ids"]) - 1))
    dup = {name: np.concatenate([a, a[i:i + 1]]) for name, a in fields.items()}
    with pytest.raises(ValidationFailure, match="duplicate"):
        CorrespondenceSet(**dup)


@settings(deadline=None)
@given(valid_arrays(min_size=1), st.data())
def test_corner_index_outside_0_to_3_rejected(fields, data):
    i = data.draw(st.integers(0, len(fields["tag_ids"]) - 1))
    bad = data.draw(st.one_of(st.integers(-2**62, -1), st.integers(4, 2**62)))
    fields["corner_idx"][i] = bad
    with pytest.raises(ValidationFailure, match="corner_index must be 0..3"):
        CorrespondenceSet(**fields)


@settings(deadline=None)
@given(valid_arrays(min_size=1), st.data())
def test_non_finite_coordinate_rejected(fields, data):
    name = data.draw(st.sampled_from(["ref", "img"]))
    a = fields[name]
    index = (data.draw(st.integers(0, a.shape[0] - 1)), data.draw(st.integers(0, a.shape[1] - 1)))
    a[index] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(ValidationFailure, match="finite"):
        CorrespondenceSet(**fields)


@settings(deadline=None)
@given(valid_arrays(min_size=1), st.sampled_from(FIELDS))
def test_mismatched_lengths_rejected(fields, name):
    fields[name] = fields[name][:-1]
    with pytest.raises(ValidationFailure, match="shapes"):
        CorrespondenceSet(**fields)


@settings(deadline=None)
@given(valid_arrays(min_size=1))
def test_arrays_are_read_only_copies(fields):
    corrs = CorrespondenceSet(**fields)
    for name in FIELDS:
        with pytest.raises(ValueError):
            getattr(corrs, name)[0] = 0
        assert not np.shares_memory(getattr(corrs, name), fields[name])
    with pytest.raises(dataclasses.FrozenInstanceError):
        corrs.img = np.zeros((len(corrs), 2))


@pytest.mark.parametrize("tag_ids, corner_idx, message", [
    ([1.7, 1.2], [0, 1], "tag ids must be integers, got 1.7"),
    ([1, 2], [0.9, 1.5], "corner_index must be 0..3, got 0.9"),
    (np.array([2**63, 1], dtype=np.uint64), [0, 1],
     "tag ids must fit in int64, got 9223372036854775808"),
    ([np.nan, 1.0], [0, 1], "tag ids must be integers, got nan"),
    (np.array([np.nan, 1.0]), [0, 1], "tag ids must be integers, got nan"),
], ids=["fractional_id", "fractional_corner", "uint64_2_63", "nan_id_list", "nan_id_array"])
def test_integers_the_int64_cast_would_change_rejected(tag_ids, corner_idx, message):
    # The cast truncates 1.7 and 0.9, wraps 2**63 to -2**63, and fails on a
    # NaN in a list or makes garbage of one in an array.
    with pytest.raises(ValidationFailure, match=f"^{re.escape(message)}$"):
        CorrespondenceSet(tag_ids=tag_ids, corner_idx=corner_idx, ref=np.zeros((2, 3)),
                          img=np.zeros((2, 2)))


def test_integer_valued_floats_convert():
    corrs = CorrespondenceSet(tag_ids=np.array([3.0, 3.0]), corner_idx=np.arange(2.0),
                              ref=np.zeros((2, 3)), img=np.zeros((2, 2)))
    assert corrs.tag_ids.dtype == corrs.corner_idx.dtype == np.int64
    assert corrs.tag_ids.tolist() == [3, 3] and corrs.corner_idx.tolist() == [0, 1]


def test_a_set_equals_no_other_type():
    corrs = CorrespondenceSet(tag_ids=[3, 3], corner_idx=[0, 1], ref=np.zeros((2, 3)),
                              img=np.zeros((2, 2)))
    assert corrs.__eq__(dataclasses.asdict(corrs)) is NotImplemented
    assert corrs != dataclasses.asdict(corrs)


def oracle_line(frame, corrs):
    """A frames.jsonl line as a dict row encoded by json, the writer's reference."""
    row = {
        "frame": frame,
        "timestamp_s": frame * 0.02,
        "entries": [
            {"tag_id": tag_id, "corner": corner, "ref_mm": ref, "img_px": img}
            for tag_id, corner, ref, img in zip(
                corrs.tag_ids.tolist(), corrs.corner_idx.tolist(),
                corrs.ref.tolist(), corrs.img.tolist())
        ],
    }
    return json.dumps(row, sort_keys=True) + "\n"


def _set(tag_ids, corner_idx, ref, img):
    return CorrespondenceSet(tag_ids=np.array(tag_ids, dtype=np.int64),
                             corner_idx=np.array(corner_idx, dtype=np.int64),
                             ref=np.array(ref, dtype=np.float64).reshape(-1, 3),
                             img=np.array(img, dtype=np.float64).reshape(-1, 2))


@st.composite
def frame_sequences(draw):
    """Frames in which each one after the first keeps the previous ids and
    reference points with new pixels, negates one reference coordinate (0.0
    becomes -0.0), shifts every corner index, is a new frame or is empty."""
    frames = [CorrespondenceSet(**draw(valid_arrays(elements=edge_floats)))]
    for _ in range(draw(st.integers(0, 8))):
        prev = frames[-1]
        n = len(prev)
        step = draw(st.sampled_from(["img", "ref", "corner", "new", "empty"]))
        if step == "new" or (n == 0 and step != "empty"):
            frames.append(CorrespondenceSet(**draw(valid_arrays(elements=edge_floats))))
        elif step == "empty":
            frames.append(_set([], [], [], []))
        else:
            ref, corner_idx = prev.ref.copy(), prev.corner_idx
            if step == "ref":
                i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, 2))
                ref[i, j] = -ref[i, j]
            elif step == "corner":
                corner_idx = (corner_idx + 1) % 4
            img = draw(arrays(np.float64, (n, 2), elements=edge_floats))
            frames.append(_set(prev.tag_ids, corner_idx, ref, img))
    return frames


@settings(max_examples=300, deadline=None)
@given(frame_sequences(), st.integers(0, 10**6))
@example([_set([10**6, 10**6], [0, 1], [[0.0, 5e-324, 1e308], [-1e308, 1.5, -0.0]],
               [[0.0, -0.0], [5e-324, -1e308]]),
          _set([10**6, 10**6], [0, 1], [[-0.0, 5e-324, 1e308], [-1e308, 1.5, -0.0]],
               [[-0.0, 0.0], [1e-310, 1e308]]),
          _set([10**6, 10**6], [1, 2], [[-0.0, 5e-324, 1e308], [-1e308, 1.5, -0.0]],
               [[1.0, 2.0], [3.0, 4.0]]),
          _set([], [], [], []),
          _set([0], [3], [[1.0, 2.0, 3.0]], [[0.5, -0.5]])], 0)
def test_frame_lines_match_json_dumps(frames, first):
    numbered = list(enumerate(frames, first))
    assert list(_frame_lines(numbered)) == [oracle_line(i, corrs) for i, corrs in numbered]


@st.composite
def next_inputs(draw, prev):
    """Constructor inputs after the valid set ``prev`` (None before the first
    one): a new table, or ``prev``'s table as its own arrays, as copies or as
    lists, with new pixels; then at most one defect."""
    source = "new" if prev is None else draw(st.sampled_from(["new", "same", "copy", "list"]))
    if source == "new":
        fields = draw(valid_arrays(elements=edge_floats))
    else:
        fields = {name: getattr(prev, name) for name in FIELDS[:3]}
        if source != "same":
            fields = {k: v.copy() if source == "copy" else v.tolist() for k, v in fields.items()}
        fields["img"] = draw(arrays(np.float64, (len(prev), 2), elements=edge_floats))
    n = len(fields["img"])
    defect = draw(st.sampled_from([None, None, "duplicate", "corner", "nan_ref", "nan_img",
                                   "short_img"]))
    if defect is None or n == 0:
        return fields
    i = draw(st.integers(0, n - 1))
    if defect == "duplicate":
        return {k: np.concatenate([np.asarray(v), np.asarray(v)[i:i + 1]])
                for k, v in fields.items()}
    if defect == "short_img":
        return {**fields, "img": fields["img"][:-1]}
    name, column, value = {"corner": ("corner_idx", None, draw(st.sampled_from([-1, 4]))),
                           "nan_ref": ("ref", 2, np.nan), "nan_img": ("img", 1, np.nan)}[defect]
    bad = np.array(fields[name])
    bad[(i,) if column is None else (i, column)] = value
    return {**fields, name: bad}


def _build(fields):
    """The dtype, shape and bytes of each array of the set built from
    ``fields``, or the type and message of its error; and the set."""
    try:
        corrs = CorrespondenceSet(**fields)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return (type(exc), str(exc)), None
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (getattr(corrs, f) for f in FIELDS)], corrs


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_table_memo_changes_no_outcome(data):
    inputs, outcomes, prev = [], [], None
    for _ in range(data.draw(st.integers(1, 8))):
        inputs.append(data.draw(next_inputs(prev)))
        outcome, corrs = _build(inputs[-1])
        outcomes.append(outcome)
        prev = corrs or prev
    cold = []
    for fields in inputs:
        pnp._last_table = None
        cold.append(_build(fields)[0])
    assert outcomes == cold


def test_equal_tables_share_arrays_but_never_pixels():
    table = ([4, 4, 9], [0, 1, 3], [[0.0, 1.0, 0.0], [2.0, -0.0, 0.0], [5e-324, 3.0, 0.0]])
    first = _set(*table, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    second = _set(*table, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.5]])
    third = CorrespondenceSet(second.tag_ids, second.corner_idx, second.ref, second.img)
    for name in FIELDS[:3]:
        assert getattr(second, name) is getattr(first, name)
        assert getattr(third, name) is getattr(first, name)
    assert not np.shares_memory(second.img, first.img)
    assert not np.shares_memory(third.img, second.img)
    # -0.0 equals 0.0 but has other bytes: a new table.
    flipped = _set(*table[:2], [[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [5e-324, 3.0, 0.0]],
                   second.img)
    assert flipped.ref is not first.ref and flipped.ref[1, 1].tobytes() == b"\0" * 8


@pytest.mark.parametrize("defect", ["nan_img", "duplicate"])
def test_a_set_that_fails_does_not_become_the_memo(defect):
    earlier = _set([1, 2], [0, 0], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]])
    table = ([7, 7, 8], [0, 1, 2]) if defect == "nan_img" else ([7, 7, 8], [0, 0, 2])
    ref = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    img = [[np.nan, 0.0], [1.0, 0.0], [2.0, 0.0]] if defect == "nan_img" else np.zeros((3, 2))
    message = "finite" if defect == "nan_img" else "duplicate"
    with pytest.raises(ValidationFailure, match=message):
        _set(*table, ref, img)
    assert all(a is getattr(earlier, f) for a, f in zip(pnp._last_table, FIELDS))
    if defect == "duplicate":
        with pytest.raises(ValidationFailure, match="duplicate"):
            _set(*table, ref, np.ones((3, 2)))
    else:
        again = _set(*table, ref, np.ones((3, 2)))
        assert again.tag_ids is not earlier.tag_ids
        assert pnp._last_table[0] is again.tag_ids

