import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stridelab import (
    CameraModel,
    JointId,
    NonMonotonicFrames,
    NonPositiveDepth,
    OutOfRangeHeight,
    Point2D,
    Point3D,
    SkeletonSequence,
    UnknownJoint,
    canonical_joint,
    default_ratio_table,
    derive_anatomy,
    project,
)
from stridelab.errors import FrameCountMismatch, IncompleteRatioTable, InvalidRatio
from stridelab.skeleton import HEIGHT_CHAIN, PARENT, check_ratio_table


def test_joint_table_shape():
    assert len(JointId) == 21
    assert sorted(j.value for j in JointId) == list(range(21))
    # indices are topological: every child comes after its parent
    for child, parent in PARENT.items():
        if parent is not None:
            assert parent.value < child.value


def test_labels_round_trip():
    for j in JointId:
        assert canonical_joint(j.label) is j
        assert canonical_joint(j.name.lower()) is j
        assert canonical_joint(j.name) is j


def test_label_spelling():
    assert JointId.LEFT_ANKLE.label == "Left Ankle"
    assert JointId.LEFT_FOOT_TIP.label == "Left Foot Tip"
    assert JointId.MID_SPINE.label == "Mid Spine"


def test_unknown_joint_raises():
    with pytest.raises(UnknownJoint):
        canonical_joint("Coccyx")


def test_anatomy_scales_with_height():
    short = derive_anatomy(1.5)
    tall = derive_anatomy(1.8)
    for j in JointId:
        if j is JointId.PELVIS:
            continue
        assert tall.length(j) == pytest.approx(short.length(j) * 1.8 / 1.5)


def test_anatomy_height_bounds():
    derive_anatomy(0.51)
    derive_anatomy(2.49)
    for bad in (0.5, 2.5, 0.0, -1.0, 3.0):
        with pytest.raises(OutOfRangeHeight):
            derive_anatomy(bad)


def test_anatomy_requires_all_edges():
    table = default_ratio_table()
    del table[JointId.LEFT_HEEL]
    with pytest.raises(IncompleteRatioTable):
        derive_anatomy(1.7, table)


@pytest.mark.parametrize(
    "joint, value, named",
    [
        (JointId.LEFT_WRIST, 0.0, (JointId.LEFT_WRIST,)),
        (JointId.LEFT_WRIST, 1.0, (JointId.LEFT_WRIST,)),
        (JointId.LEFT_WRIST, -0.1, (JointId.LEFT_WRIST,)),
        (JointId.LEFT_WRIST, math.nan, (JointId.LEFT_WRIST,)),
        (JointId.LEFT_WRIST, math.inf, (JointId.LEFT_WRIST,)),
        (JointId.PELVIS, 0.1, (JointId.PELVIS,)),
        (JointId.LEFT_KNEE, 0.6, HEIGHT_CHAIN),    # chain sum above 1.1
        (JointId.LEFT_KNEE, 0.01, HEIGHT_CHAIN),   # chain sum below 0.9
    ],
    ids=["zero", "one", "negative", "nan", "inf", "pelvis", "chain-long", "chain-short"],
)
def test_ratio_rules_raise_typed_errors_naming_joints(joint, value, named):
    table = default_ratio_table()
    table[joint] = value
    for check in (check_ratio_table, lambda t: derive_anatomy(1.7, t)):
        with pytest.raises(InvalidRatio) as info:
            check(table)
        assert isinstance(info.value, ValueError)
        assert info.value.joints == named


@pytest.mark.parametrize("chain_sum, ok", [(0.9 - 1e-6, False), (0.9 + 1e-6, True),
                                            (1.1 - 1e-6, True), (1.1 + 1e-6, False)])
def test_height_chain_bound(chain_sum, ok):
    table = default_ratio_table()
    rest = sum(table[j] for j in HEIGHT_CHAIN if j is not JointId.LEFT_KNEE)
    table[JointId.LEFT_KNEE] = chain_sum - rest
    if ok:
        check_ratio_table(table)
    else:
        with pytest.raises(InvalidRatio, match="head-to-ankle"):
            check_ratio_table(table)


def test_missing_ratios_are_named():
    table = default_ratio_table()
    del table[JointId.LEFT_HEEL], table[JointId.RIGHT_HIP]
    with pytest.raises(IncompleteRatioTable, match="Left Heel, Right Hip"):
        check_ratio_table(table)


def test_default_camera_focal_is_diagonal():
    cam = CameraModel.default()
    assert cam.fx == pytest.approx(math.hypot(1080, 1920))
    assert cam.fx == cam.fy
    assert (cam.cx, cam.cy) == (540.0, 960.0)


def test_projection_of_optical_axis_hits_principal_point():
    cam = CameraModel.default()
    u, v = project(np.array([0.0, 0.0, 3.0]), cam)
    assert (u, v) == (cam.cx, cam.cy)


@given(
    x=st.floats(-2, 2),
    y=st.floats(-2, 2),
    z=st.floats(0.5, 10),
)
def test_projection_formula(x, y, z):
    cam = CameraModel.default()
    u, v = project(np.array([[x, y, z]]), cam)[0]
    assert u == pytest.approx(cam.fx * x / z + cam.cx)
    assert v == pytest.approx(cam.fy * y / z + cam.cy)


def _sequence(n_frames=1, **blocks):
    return SkeletonSequence(fps=30.0, times=np.arange(n_frames) / 30.0,
                            indices=np.arange(n_frames), **blocks)


def _head_3d(point):
    """A one-frame 3D block holding only the head, at point."""
    points = np.zeros((1, 21, 3))
    points[0, JointId.HEAD.value] = point
    mask = np.zeros((1, 21), dtype=bool)
    mask[0, JointId.HEAD.value] = True
    return {"points_3d": points, "mask_3d": mask}


def _head_2d(x, y, confidence=1.0):
    """A one-frame 2D block holding only the head."""
    pixels = np.zeros((1, 21, 2))
    pixels[0, JointId.HEAD.value] = (x, y)
    conf = np.zeros((1, 21))
    conf[0, JointId.HEAD.value] = confidence
    mask = np.zeros((1, 21), dtype=bool)
    mask[0, JointId.HEAD.value] = True
    return {"pixels_2d": pixels, "confidence_2d": conf, "mask_2d": mask}


def test_depth_must_be_positive():
    with pytest.raises(NonPositiveDepth):
        _sequence(**_head_3d((0.0, 0.0, 0.0)))
    with pytest.raises(NonPositiveDepth):
        _sequence(**_head_3d((0.0, 0.0, -1.0)))
    with pytest.raises(NonPositiveDepth):
        project(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), CameraModel.default())


def test_confidence_range_checked():
    for bad in (1.5, -0.1):
        with pytest.raises(ValueError):
            _sequence(**_head_2d(1.0, 2.0, bad))
    # A joint detected with confidence 0 is still a present joint.
    seq = _sequence(**_head_2d(1.0, 2.0, 0.0))
    assert seq.frames_2d[0].joints == {JointId.HEAD: Point2D(1.0, 2.0, 0.0)}


def test_sequence_needs_some_frames():
    with pytest.raises(ValueError):
        SkeletonSequence(fps=0.0, times=[], indices=[])
    with pytest.raises(ValueError):
        _sequence(points_3d=np.ones((1, 21, 3)))  # a block needs its mask
    with pytest.raises(ValueError):
        _sequence(points_3d=np.ones((1, 20, 3)), mask_3d=np.ones((1, 20), dtype=bool))
    # Frames without any joint block are a sequence of their own.
    seq = _sequence(3)
    assert len(seq) == 3 and seq.frames_3d is None and seq.frames_2d is None


def test_sequence_stream_indices_must_agree():
    with pytest.raises(FrameCountMismatch):
        SkeletonSequence(fps=30.0, times=[0.0, 0.1], indices=[0])
    with pytest.raises(FrameCountMismatch):
        _sequence(2, **_head_3d((0.0, 0.0, 3.0)))
    with pytest.raises(FrameCountMismatch):
        _sequence(2, points_3d=np.ones((2, 21, 3)), mask_3d=np.ones((1, 21), dtype=bool))


def test_sequence_frames_validated():
    """Times are non-negative and finite; indices integers; both strictly
    increase (NonMonotonicFrames, a ValueError)."""
    with pytest.raises(ValueError, match="timestamp"):
        SkeletonSequence(fps=30.0, times=[-0.1, 0.0], indices=[0, 1])
    with pytest.raises(ValueError):
        SkeletonSequence(fps=30.0, times=[0.0, np.nan], indices=[0, 1])
    with pytest.raises(ValueError):
        SkeletonSequence(fps=30.0, times=[0.0, 0.1], indices=[0.0, 1.0])
    for times, indices in (([0.0, 0.1], [1, 1]), ([0.1, 0.1], [0, 1]),
                           ([0.1, 0.0], [0, 1])):
        with pytest.raises(NonMonotonicFrames):
            SkeletonSequence(fps=30.0, times=times, indices=indices)
    assert issubclass(NonMonotonicFrames, ValueError)


def test_sequence_arrays_are_read_only_copies():
    block = _head_3d((0.5, 0.0, 3.0))
    seq = _sequence(**block)
    block["points_3d"][0, JointId.HEAD.value, 0] = 9.0
    assert seq.points_3d[0, JointId.HEAD.value, 0] == 0.5
    with pytest.raises(ValueError):
        seq.points_3d[0, 0, 0] = 1.0


def test_sequence_never_keeps_a_callers_arrays():
    """Arrays already of the stored dtype and shape are copied too: the
    sequence shares no memory with them and leaves them writeable."""
    blocks = {**_head_3d((0.5, 0.0, 3.0)), **_head_2d(1.0, 2.0, 0.5)}
    times, indices = np.zeros(1), np.zeros(1, dtype=np.int64)
    seq = SkeletonSequence(fps=30.0, times=times, indices=indices, **blocks)
    for name, given in (("times", times), ("indices", indices), *blocks.items()):
        assert not np.shares_memory(getattr(seq, name), given)
        assert given.flags.writeable
        assert not getattr(seq, name).flags.writeable


def test_sequence_duration(clean_walk):
    seq, _ = clean_walk
    n = len(seq)
    assert seq.duration_s == pytest.approx((n - 1) / seq.fps)


def test_ratio_table_is_fresh_copy():
    a = default_ratio_table()
    b = default_ratio_table()
    assert a == b and a is not b
    total = sum(a.values())
    assert 2.0 < total < 3.5  # arms + legs + trunk add to more than standing height


@pytest.mark.parametrize("height", [0.0, -1.0, math.nan, math.inf])
def test_sequence_rejects_a_bad_subject_height(height):
    """A height the parser would refuse is refused at construction, so the
    writer never emits a document its own parser rejects."""
    with pytest.raises(ValueError, match="subject_height_m"):
        _sequence(subject_height_m=height)
    assert _sequence(subject_height_m=3.0).subject_height_m == 3.0


def test_frames_reject_non_finite():
    with pytest.raises(ValueError):
        _sequence(**_head_3d((np.nan, 0.0, 1.0)))
    with pytest.raises(ValueError):
        _sequence(**_head_2d(np.inf, 0.0))
    with pytest.raises(ValueError):
        _sequence(**{**_head_2d(0.0, 0.0), "confidence_2d": np.full((1, 21), np.nan)})
    # Cells of absent joints are not data: they are stored as 0.
    points = np.full((1, 21, 3), np.nan)
    points[0, JointId.HEAD.value] = (0.0, 0.0, 2.0)
    seq = _sequence(points_3d=points, mask_3d=_head_3d((0.0, 0.0, 2.0))["mask_3d"])
    assert np.count_nonzero(seq.points_3d) == 1
    assert seq.frames_3d[0].joints == {JointId.HEAD: Point3D(0.0, 0.0, 2.0)}
