"""Interchange formats: the two-stream pose JSON and the CSV tables.

parse_stream must be total: any byte string either parses or raises one of
the package's typed errors, never a bare KeyError/TypeError from json
internals.  Writing must be byte-stable so identical runs produce identical
files.
"""

import csv
import io
import json
import math
import tracemalloc
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
    WalkerSpec,
    generate,
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


@pytest.mark.parametrize("height", [-1.0, 0.0, -0.0])
def test_non_positive_height_is_malformed(height):
    with pytest.raises(MalformedDocument, match="subject_height_m"):
        pose_io.parse_stream(_doc([], subject_height_m=height))


def test_any_positive_height_round_trips():
    """The format takes any positive height, as docs/poses.schema.json says;
    only analyze narrows it to (0.5, 2.5) m."""
    seq = pose_io.parse_stream(_doc([], subject_height_m=3.0))
    assert seq.subject_height_m == 3.0
    back = pose_io.parse_stream(pose_io.write_stream(seq))
    assert back.subject_height_m == 3.0


def test_missing_fps_is_typed():
    doc = json.dumps({"header": {}, "frames": []})
    with pytest.raises(MissingHeaderField):
        pose_io.parse_stream(doc)


def test_garbage_is_malformed():
    for bad in (b"", b"[1,2,3]", b'"hi"', b"{", b"\xff\xfe", b'{"frames": []}'):
        with pytest.raises((MalformedDocument, MissingHeaderField)):
            pose_io.parse_stream(bad)


# Inputs json.loads rejects with something other than a JSONDecodeError.
_DEEP = {"array": b"[" * 100_000, "object": b'{"a": ' * 100_000,
         "header": b'{"header": ' + b"[" * 100_000,
         "long-int": b'{"header": {"fps": ' + b"1" * 5000 + b"}}"}


@pytest.mark.parametrize("read, what", [(pose_io.parse_stream, "document"),
                                        (pose_io.read_truth, "sidecar")],
                         ids=["parse_stream", "read_truth"])
@pytest.mark.parametrize("data", list(_DEEP.values()), ids=list(_DEEP))
def test_deep_nesting_and_long_integers_are_malformed(read, what, data):
    """json.loads raises RecursionError on deep nesting and a bare
    ValueError on an integer of more than 4300 digits; both readers map
    them to MalformedDocument, bytes or text alike."""
    for blob in (data, data.decode()):
        with pytest.raises(MalformedDocument, match=f"^{what} is not valid JSON"):
            read(blob)


@pytest.mark.parametrize("data, message", [
    (b"\xff", "is not valid UTF-8"),
    (b"{", "is not valid JSON"),
    (b"[1]", "top level must be an object"),
])
def test_load_json_object_names_what_it_reads(data, message):
    with pytest.raises(MalformedDocument, match=f"^sidecar {message}"):
        pose_io.load_json_object(data, "sidecar")


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


# -- frame-by-frame parsing ----------------------------------------------------

_ARRAYS = ("times", "indices", "points_3d", "mask_3d", "pixels_2d", "confidence_2d",
           "mask_2d")


def _outcome(data):
    """parse_stream's result as comparable values: the header and each
    array's dtype, shape and bytes, or the error's type and message."""
    try:
        seq = pose_io.parse_stream(data)
    except StrideLabError as exc:
        return type(exc), str(exc)
    arrays = [getattr(seq, name) for name in _ARRAYS]
    return (seq.fps, seq.subject_height_m, seq.source,
            *(a if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays))


def _unscanned(text, read_frame):
    raise pose_io._Unscanned


def _both_paths(data):
    """(outcome, whether the frame-by-frame scan gave it, outcome of the
    whole-document path alone)."""
    calls = []
    load = pose_io.load_json_object
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pose_io, "load_json_object", lambda *a: calls.append(a) or load(*a))
        streamed = _outcome(data)
        scanned = not calls
        mp.setattr(pose_io, "_scan", _unscanned)
        whole = _outcome(data)
    return streamed, scanned, whole


# Integer coordinates, an alias (mid_hip), a dropped name (nose), two names
# of one joint in one map (the last one counts), a frame without joint maps.
_HEADER = {"fps": 30, "subject_height_m": 1.7, "source": "corpus"}
_FRAMES = [
    {"index": 0, "time_s": 0,
     "joints_2d": {"Neck": {"x": 512, "y": 300, "confidence": 1},
                   "mid_hip": {"x": 500.5, "y": 600}, "nose": {"x": 1, "y": 2}},
     "joints_3d": {"Pelvis": {"x": 0, "y": 1, "z": 3},
                   "left_ankle": {"x": 0.1, "y": 0.9, "z": 3.5},
                   "Left Ankle": {"x": 0.2, "y": 0.8, "z": 2}}},
    {"index": 2, "time_s": 0.1, "joints_3d": {"RIGHT_ANKLE": {"x": -1, "y": 0, "z": 4}}},
    {"index": 5, "time_s": 0.25},
]
_DOC = {"header": _HEADER, "frames": _FRAMES}
_TEXT = json.dumps(_DOC, indent=1)
_H, _F = json.dumps(_HEADER), json.dumps(_FRAMES)  # as JSON text
_BAD_FRAMES = json.dumps([{"index": 0, "time_s": 0}, {"index": "one", "time_s": 1}])

# id -> (document, whether the frame-by-frame scan reads it)
_CORPUS = {
    "indented": (_TEXT, True),
    "indented-bytes": (_TEXT.encode(), True),
    "compact": (json.dumps(_DOC, separators=(",", ":")), True),
    "sort-keys": (json.dumps(_DOC, sort_keys=True), True),
    "extra-keys": (json.dumps({"version": [1, {"a": None}], **_DOC, "z": "x"}), True),
    "whitespace-around": (" \n\t" + _TEXT + "\r\n ", True),
    "frames-empty": (f'{{"header": {_H}, "frames": []}}', True),
    "frames-missing": (f'{{"header": {_H}}}', True),
    "header-missing": (f'{{"frames": {_F}}}', True),
    "repeated-header": (f'{{"header": {_H}, "frames": {_F}, "header": {{"fps": 60}}}}',
                        False),
    "repeated-frames": (f'{{"header": {_H}, "frames": [], "frames": {_F}}}', False),
    "repeated-other": (f'{{"a": 1, "header": {_H}, "frames": {_F}, "a": 2}}', False),
    "frames-zero": (f'{{"header": {_H}, "frames": 0}}', False),
    "frames-object": (f'{{"header": {_H}, "frames": {{}}}}', False),
    "empty-object": ("{}", False),
    "trailing-data": (_TEXT + " x", False),
    "trailing-comma": (f'{{"header": {_H}, "frames": {_F},}}', False),
    "trailing-frame-comma": (f'{{"header": {_H}, "frames": [{_F[1:-1]},]}}', False),
    "top-level-array": (f"[{_TEXT}]", False),
    "deep": ("[" * 100_000, False),
    "deep-frame": (f'{{"header": {_H}, "frames": [' + "[" * 100_000, False),
    "invalid-after-frames": (f'{{"frames": {_F}, "header": {_H}, "x": }}', False),
    "byte-order-mark": ("\ufeff" + _TEXT, False),
    "bad-frame": (f'{{"header": {_H}, "frames": {_BAD_FRAMES}}}', False),
    "bad-header": (f'{{"frames": {_F}, "header": {{"fps": "x"}}}}', True),
    "bad-header-then-bad-frame": (f'{{"header": {{"fps": "x"}}, "frames": {_BAD_FRAMES}}}',
                                  False),
    "bad-frame-then-bad-header": (f'{{"frames": {_BAD_FRAMES}, "header": {{"fps": "x"}}}}',
                                  False),
}


@pytest.mark.parametrize("data, scanned", list(_CORPUS.values()), ids=list(_CORPUS))
def test_frame_by_frame_parse_equals_the_whole_document_path(data, scanned):
    """Every document gives the result or error the whole-document path
    gives; those the scan does not read, and those with an error, take
    that path."""
    streamed, was_scanned, whole = _both_paths(data)
    assert streamed == whole
    assert was_scanned == scanned


def test_corpus_reads_what_it_says():
    """The corpus's own claims: aliases and integers are read, a dropped
    name is not, the last of two names of one joint counts, a header error
    wins over a frame error in either order, and a repeated key keeps its
    last value."""
    seq = pose_io.parse_stream(_TEXT)
    pelvis, ankle = JointId.PELVIS.value, JointId.LEFT_ANKLE.value
    assert seq.indices.tolist() == [0, 2, 5] and seq.times.tolist() == [0.0, 0.1, 0.25]
    assert seq.pixels_2d[0, pelvis].tolist() == [500.5, 600.0]
    assert seq.mask_2d[0].sum() == 2 and not seq.mask_2d[1:].any()
    assert seq.points_3d[0, ankle].tolist() == [0.2, 0.8, 2.0]
    for name in ("bad-header-then-bad-frame", "bad-frame-then-bad-header", "bad-header"):
        assert _outcome(_CORPUS[name][0]) == (MalformedDocument,
                                              "header.fps must be a number, got 'x'")
    assert _outcome(_CORPUS["bad-frame"][0]) == (MalformedDocument,
                                                 "frames[1].index must be an integer")
    assert pose_io.parse_stream(_CORPUS["repeated-header"][0]).fps == 60.0


@given(sparse_sequences(), st.sampled_from([None, 0, 1, 2, "\t"]),
       st.sampled_from([None, (",", ":"), (" , ", " : ")]), st.booleans(), st.booleans(),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_any_layout_of_a_written_walk_parses_to_the_same_arrays(
        seq, indent, separators, sort_keys, frames_first, as_bytes):
    """Re-serializing a written walk with another indent, separators or key
    order changes no parsed value, and the scan reads every layout."""
    blob = pose_io.write_stream(seq)
    doc = json.loads(blob)
    if frames_first:
        doc = {"frames": doc["frames"], "header": doc["header"]}
    text = json.dumps(doc, indent=indent, separators=separators, sort_keys=sort_keys)
    streamed, scanned, _ = _both_paths(text.encode() if as_bytes else text)
    assert scanned
    assert streamed == _outcome(blob)


@pytest.fixture(scope="module")
def long_walk():
    """A noisy 590-frame walk (60 fps, 12 m) and its written bytes."""
    seq, _ = generate(WalkerSpec(speed_m_s=1.2, cadence_steps_min=110.0, distance_m=12.0,
                                 fps=60.0, sigma3d_m=0.01, sigma2d_px=2.0, seed=3))
    assert len(seq) >= 590
    return seq, pose_io.write_stream(seq)


def test_parse_peak_memory_is_bounded_by_the_document(long_walk):
    """Frames are decoded one at a time, so the parse holds the decoded text
    and flat buffers of the values, never a tree of the whole document:
    its traced peak stays under twice the document's bytes on a long walk
    (the whole-document path peaks near four times)."""
    _, blob = long_walk
    tracemalloc.start()
    try:
        pose_io.parse_stream(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(blob)


def test_reader_hands_its_blocks_to_the_sequence(long_walk):
    """The reader builds each block in the sequence's dtype, with pixels and
    confidences as separate arrays, and the sequence keeps them without a
    second copy: on the 590-frame walk, building the sequence peaks at most
    0.8 MB traced (1.3 MB when the sequence copied them; its blocks and
    masks take 0.62 MB), and every array holds the written values bit for
    bit, read-only."""
    seq, blob = long_walk
    reader = pose_io._FrameReader()
    for rec in json.loads(blob)["frames"]:
        reader.read(rec)
    tracemalloc.start()
    try:
        parsed = reader.sequence(seq.fps, seq.subject_height_m, seq.source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.8e6
    written = np.vectorize(pose_io._round10, otypes=[float])
    for name in _ARRAYS:
        got, want = getattr(parsed, name), getattr(seq, name)
        if want.dtype.kind == "f":
            want = written(want)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert not got.flags.writeable
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("value, message", [
    (1, None),
    (-0.0, None),
    (True, "frames[0]: Head.x must be a number, got True"),
    (None, "frames[0]: Head.x must be a number, got None"),
    ("1", "frames[0]: Head.x must be a number, got '1'"),
    (math.nan, "frames[0]: Head.x must be finite, got nan"),
    (-math.inf, "frames[0]: Head.x must be finite, got -inf"),
    (10**400, "frames[0]: Head.x is too large for a float"),
])
@pytest.mark.parametrize("key", ["joints_2d", "joints_3d"])
def test_a_coordinate_that_is_not_a_float_takes_the_full_check(key, value, message):
    """A coordinate that is not a finite float is checked as any number is:
    an integer reads as its float, anything else names the joint and
    field.  A finite float, -0.0 too, is kept as it is."""
    record = {"x": value, "y": 2.0, "z": 3.0}
    data = _doc([{"index": 0, "time_s": 0.0, key: {"Head": record}}])
    if message is None:
        seq = pose_io.parse_stream(data)
        x = (seq.pixels_2d if key == "joints_2d" else seq.points_3d)[0, JointId.HEAD.value, 0]
        assert x == value and math.copysign(1.0, x) == math.copysign(1.0, value)
        return
    assert _outcome(data) == (MalformedDocument, message)


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
    """The table holds the header, then one row per walk: its id, its source
    and the four gait parameters at 10 significant digits."""
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
    head, row = csv.reader(io.StringIO(buf.getvalue()))
    assert tuple(head) == pose_io.GAIT_CSV_COLUMNS
    assert row[:2] == ["walk-007", "synthetic"]
    assert [float(cell) for cell in row[2:]] == [1.2034, 110.2, 65.51, 0.5445]


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


@pytest.mark.parametrize("cell", ["nan", "-inf", "Infinity"])
def test_matched_csv_rejects_a_non_finite_value(cell):
    """A NaN or infinite value fails the file, naming its line, instead of
    dropping its parameter from the agreement."""
    text = f"walk_id,subject_id,method,parameter,value\nw,s,m,p,1\nw,s,n,p,{cell}\n"
    with pytest.raises(MalformedDocument,
                       match=rf"^line 3: value is not a finite number: '{cell}'$"):
        pose_io.read_matched_csv(io.StringIO(text))


def test_matched_csv_rejects_a_repeated_row():
    """One row per (walk_id, method, parameter): a repeat, whatever its
    subject and value, names both lines."""
    text = ("walk_id,subject_id,method,parameter,value\n"
            "w,s,m,p,1\nw,s,n,p,1\nw,t,m,p,2\n")
    with pytest.raises(MalformedDocument, match="^line 4: .* repeats line 2$"):
        pose_io.read_matched_csv(io.StringIO(text))


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
