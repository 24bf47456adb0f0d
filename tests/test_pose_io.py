"""Interchange formats: the two-stream pose JSON and the CSV tables.

parse_stream must be total: any byte string either parses or raises one of
the package's typed errors, never a bare KeyError/TypeError from json
internals.  Writing must be byte-stable so identical runs produce identical
files.
"""

import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from stridelab import (
    JointId,
    MalformedDocument,
    MissingHeaderField,
    NonMonotonicFrames,
    NonPositiveDepth,
    Point2D,
    SkeletonSequence,
    StrideLabError,
    UnknownJoint,
)
from stridelab import pose_io


def _doc(frames, fps=30.0, **header):
    return json.dumps({"header": {"fps": fps, **header}, "frames": frames})


def test_minimal_2d_document():
    doc = _doc(
        [
            {
                "index": 0,
                "time_s": 0.0,
                "joints_2d": {
                    "Neck": {"x": 512.0, "y": 300.0, "confidence": 0.9},
                    "Left Hip": {"x": 500.0, "y": 600.0, "confidence": 0.8},
                    "Left Ankle": {"x": 498.0, "y": 900.0, "confidence": 0.7},
                },
            }
        ]
    )
    seq = pose_io.parse_stream(doc)
    assert seq.fps == 30.0
    assert seq.frames_3d is None
    frame = seq.frames_2d[0]
    assert set(frame.joints) == {JointId.NECK, JointId.LEFT_HIP, JointId.LEFT_ANKLE}
    assert frame.joints[JointId.NECK] == Point2D(512.0, 300.0, 0.9)


def test_missing_fps_is_typed():
    doc = json.dumps({"header": {}, "frames": []})
    with pytest.raises(MissingHeaderField):
        pose_io.parse_stream(doc)


def test_garbage_is_malformed():
    for bad in (b"", b"[1,2,3]", b'"hi"', b"{", b"\xff\xfe", b'{"frames": []}'):
        with pytest.raises((MalformedDocument, MissingHeaderField)):
            pose_io.parse_stream(bad)


def test_unknown_joint_name():
    doc = _doc(
        [{"index": 0, "time_s": 0.0, "joints_2d": {"Tail": {"x": 1.0, "y": 2.0}}}]
    )
    with pytest.raises(UnknownJoint):
        pose_io.parse_stream(doc)


def test_non_monotonic_index():
    doc = _doc(
        [
            {"index": 1, "time_s": 0.0, "joints_2d": {}},
            {"index": 0, "time_s": 0.1, "joints_2d": {}},
        ]
    )
    with pytest.raises(NonMonotonicFrames):
        pose_io.parse_stream(doc)


def test_non_monotonic_time():
    doc = _doc(
        [
            {"index": 0, "time_s": 0.5, "joints_2d": {}},
            {"index": 1, "time_s": 0.1, "joints_2d": {}},
        ]
    )
    with pytest.raises(NonMonotonicFrames):
        pose_io.parse_stream(doc)


def test_depth_must_be_positive():
    doc = _doc(
        [
            {
                "index": 0,
                "time_s": 0.0,
                "joints_3d": {"Head": {"x": 0.0, "y": 0.0, "z": -2.0}},
            }
        ]
    )
    with pytest.raises(NonPositiveDepth):
        pose_io.parse_stream(doc)


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**12), 10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
json_values = st.recursive(
    json_scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.text(max_size=8), kids, max_size=4),
    ),
    max_leaves=12,
)


@given(json_values)
@settings(max_examples=200)
@example({"header": {"fps": 30}, "frames": [{"index": 0}]})
@example({"header": {"fps": 30}, "frames": [{"index": 0, "time_s": 1e400}]})
@example({"header": {"fps": 30}, "frames": [{"index": 0, "time_s": 10**400}]})
@example({"header": {"fps": 30}, "frames": [{"index": 2**63, "time_s": 0.0}]})
def test_parsing_is_total(doc):
    """Arbitrary JSON either parses or raises a package error."""
    try:
        pose_io.parse_stream(json.dumps(doc))
    except StrideLabError:
        pass


@given(st.binary(max_size=64))
@settings(max_examples=100)
def test_parsing_raw_bytes_is_total(data):
    try:
        pose_io.parse_stream(data)
    except StrideLabError:
        pass


def _tiny_sequence():
    points = np.zeros((2, 21, 3))
    points[:, JointId.PELVIS.value] = (0.05, -0.2, 3.123456789)
    points[:, JointId.LEFT_ANKLE.value] = (0.11, 0.7, 3.0000001)
    mask_3d = np.zeros((2, 21), dtype=bool)
    mask_3d[:, [JointId.PELVIS.value, JointId.LEFT_ANKLE.value]] = True
    pixels = np.zeros((2, 21, 2))
    pixels[0, JointId.PELVIS.value] = (540.123, 960.75)
    conf = np.zeros((2, 21))
    conf[0, JointId.PELVIS.value] = 0.5
    return SkeletonSequence(
        fps=30.0,
        times=np.array([0.0, 1 / 30]),
        indices=np.array([0, 1]),
        points_3d=points,
        mask_3d=mask_3d,
        pixels_2d=pixels,
        confidence_2d=conf,
        mask_2d=conf > 0,
        subject_height_m=1.72,
        source="unit test",
    )


def test_round_trip_accuracy():
    seq = _tiny_sequence()
    back = pose_io.parse_stream(pose_io.write_stream(seq))
    assert back.fps == seq.fps
    assert back.subject_height_m == pytest.approx(1.72, abs=1e-9)
    assert back.source == "unit test"
    for fa, fb in zip(seq.frames_3d, back.frames_3d):
        assert fa.index == fb.index
        assert math.isclose(fa.time_s, fb.time_s, abs_tol=1e-9)
        assert set(fa.joints) == set(fb.joints)
        for j in fa.joints:
            for va, vb in zip(fa.joints[j], fb.joints[j]):
                assert abs(va - vb) <= 1e-9
    assert set(back.frames_2d[0].joints) == {JointId.PELVIS}
    assert back.frames_2d[1].joints == {}


def test_write_is_byte_stable():
    seq = _tiny_sequence()
    first = pose_io.write_stream(seq)
    assert first == pose_io.write_stream(seq)
    assert first == pose_io.write_stream(pose_io.parse_stream(first))
    assert first.endswith(b"\n")


def test_walker_stream_round_trip(clean_walk):
    seq, _ = clean_walk
    data = pose_io.write_stream(seq)
    back = pose_io.parse_stream(data)
    assert len(back) == len(seq)
    assert pose_io.write_stream(back) == data


coords = st.floats(-100, 100, allow_nan=False)


@given(x=coords, y=coords, z=st.floats(0.01, 500))
@settings(max_examples=80)
def test_round_trip_precision_bound(x, y, z):
    points = np.ones((1, 21, 3))
    points[0, JointId.HEAD.value] = (x, y, z)
    seq = SkeletonSequence(fps=25.0, times=[0.0], indices=[0],
                           points_3d=points, mask_3d=np.ones((1, 21), dtype=bool))
    p = pose_io.parse_stream(pose_io.write_stream(seq)).points_3d[0, JointId.HEAD.value]
    for a, b in zip((x, y, z), p):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


_round10 = np.vectorize(pose_io._round10, otypes=[np.float64])


@st.composite
def sparse_sequences(draw):
    """Sequences of up to four frames: each modality present or not, each
    joint present or not per frame (so frames may carry no joints), and
    confidences that include 0 and 1."""
    F = draw(st.integers(0, 4))
    indices = sorted(draw(st.sets(st.integers(-10**6, 10**6), min_size=F, max_size=F)))
    steps = draw(arrays(np.float64, F, elements=st.floats(1e-3, 10.0)))
    blocks = {}
    if draw(st.booleans()):
        points = draw(arrays(np.float64, (F, 21, 3), elements=st.floats(-1e3, 1e3)))
        points[..., 2] = draw(arrays(np.float64, (F, 21), elements=st.floats(1e-2, 1e2)))
        blocks.update(points_3d=points, mask_3d=draw(arrays(bool, (F, 21))))
    if draw(st.booleans()):
        blocks.update(
            pixels_2d=draw(arrays(np.float64, (F, 21, 2), elements=st.floats(-1e4, 1e4))),
            confidence_2d=draw(arrays(np.float64, (F, 21), elements=st.sampled_from(
                [0.0, 1.0]) | st.floats(0.0, 1.0))),
            mask_2d=draw(arrays(bool, (F, 21))),
        )
    return SkeletonSequence(fps=draw(st.floats(1.0, 240.0)), times=np.cumsum(steps),
                            indices=np.array(indices, dtype=np.int64),
                            subject_height_m=1.7, source="property", **blocks)


@given(sparse_sequences())
@settings(max_examples=60, deadline=None)
def test_sparse_round_trip(seq):
    """write_stream is the canonical form: parsing it writes the same bytes,
    and the parsed arrays are the originals rounded to 10 digits with the
    same masks.  A sequence without frames has nothing to write per
    modality, so it parses without blocks."""
    blob = pose_io.write_stream(seq)
    back = pose_io.parse_stream(blob)
    assert pose_io.write_stream(back) == blob
    assert np.array_equal(back.indices, seq.indices)
    assert np.array_equal(back.times, _round10(seq.times))
    for names in (("points_3d", "mask_3d"), ("pixels_2d", "confidence_2d", "mask_2d")):
        if getattr(seq, names[0]) is None or len(seq) == 0:
            assert getattr(back, names[0]) is None
            continue
        *values, mask = names
        assert np.array_equal(getattr(back, mask), getattr(seq, mask))
        for name in values:
            assert np.array_equal(getattr(back, name), _round10(getattr(seq, name)))


@given(sparse_sequences(), st.text(max_size=8))
@settings(max_examples=60, deadline=None)
def test_written_stream_is_the_json_encoders_text(seq, source):
    """write_stream formats the document itself; the json encoder with
    indent=1, the reference, writes the same bytes for that document."""
    blob = pose_io.write_stream(replace(seq, source=source))
    assert pose_io._json_bytes(json.loads(blob)) == blob


def test_rounding_pass_reaches_every_float():
    """Floats are rounded at any depth, numpy floats included; ints, bools,
    strings and None are kept; tuples become lists; the input is unchanged."""
    doc = {"a": 1 / 3, "n": 3, "ok": True, "s": "x", "none": None,
           "t": (np.float64(2 / 3), [{"deep": 1e-20 / 3}])}
    out = pose_io._rounded(doc)
    assert out == {"a": 0.3333333333, "n": 3, "ok": True, "s": "x", "none": None,
                   "t": [0.6666666667, [{"deep": 3.333333333e-21}]]}
    assert type(out["t"][0]) is float and out["ok"] is True
    assert doc["a"] == 1 / 3


def test_frames_without_joint_maps_are_kept():
    """Frames with neither joint map stay frames: they round-trip, and their
    times and indices are validated."""
    frames = [{"index": i, "time_s": 0.25 * i} for i in range(5)]
    blob = pose_io.write_stream(pose_io.parse_stream(_doc(frames)))
    seq = pose_io.parse_stream(blob)
    assert len(seq) == 5 and seq.points_3d is None and seq.pixels_2d is None
    assert json.loads(blob)["frames"] == frames
    assert pose_io.write_stream(seq) == blob
    negative = [{"index": i, "time_s": 0.25 * i - 1.0} for i in range(5)]
    with pytest.raises(MalformedDocument, match="timestamp -1"):
        pose_io.parse_stream(_doc(negative))
    with pytest.raises(NonMonotonicFrames):
        pose_io.parse_stream(_doc(frames[::-1]))


def test_gait_csv_round_trip():
    values = {
        "n_events": 9,
        "gait_speed_m_s": 1.2034,
        "cadence_steps_min": 110.2,
        "step_length_cm": 65.51,
        "step_time_s": 0.5445,
        "travel_m": 5.25,
    }
    buf = io.StringIO()
    pose_io.write_gait_csv(buf, [("walk-007", "synthetic", values)])
    rows = pose_io.read_gait_csv(io.StringIO(buf.getvalue()))
    assert rows == [
        {
            "walk_id": "walk-007",
            "source": "synthetic",
            "gait_speed_m_s": pytest.approx(1.2034),
            "cadence_steps_min": pytest.approx(110.2),
            "step_length_cm": pytest.approx(65.51),
            "step_time_s": pytest.approx(0.5445),
        }
    ]


def test_gait_csv_rejects_wrong_header():
    with pytest.raises(MalformedDocument):
        pose_io.read_gait_csv(io.StringIO("a,b,c\n1,2,3\n"))


def test_matched_csv_round_trip():
    records = [
        ("w1", "s1", "video", "gait_speed_m_s", 1.25),
        ("w1", "s1", "truth", "gait_speed_m_s", 1.24),
    ]
    buf = io.StringIO()
    pose_io.write_matched_csv(buf, records)
    back = pose_io.read_matched_csv(io.StringIO(buf.getvalue()))
    assert back == [
        ("w1", "s1", "video", "gait_speed_m_s", pytest.approx(1.25)),
        ("w1", "s1", "truth", "gait_speed_m_s", pytest.approx(1.24)),
    ]


def test_matched_csv_rejects_bad_value():
    with pytest.raises(MalformedDocument):
        pose_io.read_matched_csv(
            io.StringIO("walk_id,subject_id,method,parameter,value\nw,s,m,p,xyz\n")
        )


def test_truth_round_trip(clean_walk):
    _, truth = clean_walk
    doc = pose_io.read_truth(pose_io.write_truth(truth))
    assert doc["speed_m_s"] == pytest.approx(truth.speed_m_s, abs=1e-9)
    assert doc["cadence_steps_min"] == pytest.approx(truth.cadence_steps_min, abs=1e-9)
    assert doc["n_steps"] == truth.n_steps
    assert len(doc["schedule"]) == truth.n_steps
    feet = [st_["foot"] for st_ in doc["schedule"]]
    assert feet == ["right" if i % 2 == 0 else "left" for i in range(len(feet))]


def test_truth_requires_core_fields():
    with pytest.raises(MissingHeaderField):
        pose_io.read_truth(json.dumps({"speed_m_s": 1.0}))


def test_bool_is_not_a_number():
    doc = _doc(
        [{"index": 0, "time_s": 0.0, "joints_2d": {"Neck": {"x": True, "y": 2.0}}}]
    )
    with pytest.raises(MalformedDocument):
        pose_io.parse_stream(doc)
