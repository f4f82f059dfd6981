"""Property tests of the array-backed CorrespondenceSet and its JSONL row form."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ringsense.cli import _corrs_from_row, _corrs_to_row
from ringsense.errors import ValidationFailure
from ringsense.pnp import CorrespondenceSet

FIELDS = ("tag_ids", "corner_idx", "ref", "img")
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def valid_arrays(draw, min_size=0):
    keys = sorted(draw(st.sets(st.tuples(st.integers(0, 10**6), st.integers(0, 3)),
                               min_size=min_size, max_size=24)))
    n = len(keys)
    return {
        "tag_ids": np.array([k[0] for k in keys], dtype=np.int64),
        "corner_idx": np.array([k[1] for k in keys], dtype=np.int64),
        "ref": draw(arrays(np.float64, (n, 3), elements=finite)),
        "img": draw(arrays(np.float64, (n, 2), elements=finite)),
    }


@settings(max_examples=200, deadline=None)
@given(valid_arrays(), st.integers(0, 10**6))
def test_row_round_trip(fields, frame):
    corrs = CorrespondenceSet(**fields)
    row = json.loads(json.dumps(_corrs_to_row(frame, 0.02 * frame, corrs)))
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
