"""Synthetic walker: spec reconciliation, geometry, noise, determinism."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from stridelab import (
    CameraModel,
    InconsistentSpec,
    JointId,
    WalkerSpec,
    generate,
    inject_noise,
    pose_io,
)
from stridelab.kinematics import (
    CANONICAL_TREE,
    forward_kinematics,
    lengths_vector,
    so3_exp,
)


def test_third_parameter_is_derived():
    s = WalkerSpec(speed_m_s=1.42, step_length_m=0.6922)
    assert s.cadence_steps_min == pytest.approx(60 * 1.42 / 0.6922)
    s = WalkerSpec(speed_m_s=1.2, cadence_steps_min=120.0)
    assert s.step_length_m == pytest.approx(0.6)
    s = WalkerSpec(cadence_steps_min=100.0, step_length_m=0.66)
    assert s.speed_m_s == pytest.approx(1.1)


def test_consistent_triple_accepted():
    s = WalkerSpec(speed_m_s=1.2, cadence_steps_min=120.0, step_length_m=0.6)
    assert s.step_time_s == pytest.approx(0.5)


def test_inconsistent_triple_rejected():
    with pytest.raises(InconsistentSpec):
        WalkerSpec(speed_m_s=1.5, cadence_steps_min=120.0, step_length_m=0.6)


def test_single_parameter_rejected():
    with pytest.raises(InconsistentSpec):
        WalkerSpec(speed_m_s=1.2)
    with pytest.raises(InconsistentSpec):
        WalkerSpec()


def test_bounds_checked():
    with pytest.raises(ValueError):
        WalkerSpec(speed_m_s=1.2, cadence_steps_min=110.0, fps=5.0)
    with pytest.raises(ValueError):
        WalkerSpec(speed_m_s=1.2, cadence_steps_min=110.0, double_support=0.5)
    with pytest.raises(ValueError):
        WalkerSpec(speed_m_s=-1.0, cadence_steps_min=110.0)
    with pytest.raises(ValueError):
        WalkerSpec(speed_m_s=1.2, cadence_steps_min=110.0, dropout=1.5)


@pytest.mark.parametrize("field, value", [
    ("fps", math.inf), ("fps", math.nan), ("distance_m", 1e300),
    ("heading_deg", math.inf), ("start_x_m", math.nan), ("start_z_m", -math.inf),
    ("sigma2d_px", math.inf), ("subject_height_m", math.nan), ("seed", -1),
])
def test_spec_rejects_values_generate_cannot_use(field, value):
    """Non-finite numbers, a negative seed and walks past the frame cap fail
    at construction, naming the field; none of these values allocates."""
    with pytest.raises(ValueError, match=field.split("_")[0]):
        WalkerSpec(speed_m_s=1.2, cadence_steps_min=110.0, **{field: value})


@pytest.mark.parametrize("field, value", [
    ("start_x_m", 1e308), ("start_x_m", -1000.5), ("start_z_m", 1e4),
])
def test_spec_bounds_the_start_position(field, value):
    """A start farther than 1 km from the camera along x or z fails at
    construction, naming the field: at 1e308 m the projection of the walk
    would overflow."""
    with pytest.raises(ValueError, match=rf"^{field} must be within 1000 m"):
        WalkerSpec(speed_m_s=1.2, cadence_steps_min=110.0, **{field: value})
    edge = -1000.0 if value < 0 else 1000.0
    assert WalkerSpec(speed_m_s=1.2, cadence_steps_min=110.0, **{field: edge})


def test_spec_caps_steps_and_frames():
    """A step far shorter than a frame keeps the frame count small but
    would still list one schedule entry per step."""
    with pytest.raises(ValueError, match="steps"):
        WalkerSpec(speed_m_s=1.2, cadence_steps_min=1e12, distance_m=4.0)
    # 60 s at 30 fps is far inside both caps.
    assert WalkerSpec(speed_m_s=1.0, cadence_steps_min=100.0, distance_m=60.0)


def test_truth_matches_spec(clean_walk):
    _, truth = clean_walk
    assert truth.speed_m_s == pytest.approx(1.2)
    assert truth.cadence_steps_min == pytest.approx(110.0)
    assert truth.step_length_m == pytest.approx(60 * 1.2 / 110)
    assert truth.n_steps == max(2, round(6.0 / truth.step_length_m))
    assert truth.step_time_s * truth.cadence_steps_min == pytest.approx(60.0)


def test_schedule_is_evenly_spaced(clean_walk):
    _, truth = clean_walk
    t = [s.time_s for s in truth.schedule]
    assert np.allclose(np.diff(t), truth.step_time_s, atol=1e-12)
    x = [s.position_m for s in truth.schedule]
    assert np.allclose(np.diff(x), truth.step_length_m, atol=1e-12)


def test_truth_params_reproduce_positions(clean_walk):
    """The emitted ground-truth params must land on the emitted joints."""
    seq, truth = clean_walk
    X = forward_kinematics(
        CANONICAL_TREE, lengths_vector(truth.anatomy), truth.params
    )
    assert np.max(np.abs(X - seq.points_3d)) <= 1e-9


def test_ankle_gap_peaks_at_step_length(clean_walk):
    seq, truth = clean_walk
    la = seq.points_3d[:, JointId.LEFT_ANKLE.value]
    ra = seq.points_3d[:, JointId.RIGHT_ANKLE.value]
    heading = np.array(truth.heading)
    gap = np.abs((la - ra) @ heading)
    assert gap.max() == pytest.approx(truth.step_length_m, abs=1e-6)


def test_double_support_plateaus_are_exact(clean_walk):
    """During double support both ankles stand still, so the gap signal
    repeats bitwise; that exactness is what the detector's plateau handling
    keys on."""
    seq, truth = clean_walk
    la = seq.points_3d[:, JointId.LEFT_ANKLE.value]
    ra = seq.points_3d[:, JointId.RIGHT_ANKLE.value]
    gap = np.linalg.norm(la - ra, axis=1)
    best = gap.max()
    ties = np.sum(gap == best)
    assert ties >= 2


def test_projection_matches_camera_exactly(clean_walk):
    seq, _ = clean_walk
    cam = CameraModel.default()
    for f2, f3 in zip(seq.frames_2d[:10], seq.frames_3d[:10]):
        for j, p in f2.joints.items():
            x, y, z = f3.joints[j]
            assert p.x == cam.fx * x / z + cam.cx
            assert p.y == cam.fy * y / z + cam.cy


def test_generation_is_deterministic():
    spec = WalkerSpec(speed_m_s=1.0, cadence_steps_min=100.0, seed=5,
                      sigma3d_m=0.01, sigma2d_px=2.0, dropout=0.05)
    a, _ = generate(spec)
    b, _ = generate(spec)
    assert pose_io.write_stream(a) == pose_io.write_stream(b)


def test_seed_changes_noise():
    base = dict(speed_m_s=1.0, cadence_steps_min=100.0, sigma3d_m=0.01)
    a, _ = generate(WalkerSpec(seed=1, **base))
    b, _ = generate(WalkerSpec(seed=2, **base))
    assert pose_io.write_stream(a) != pose_io.write_stream(b)


def test_noise_magnitude(clean_walk):
    seq, _ = clean_walk
    noisy = inject_noise(seq, sigma3d_m=0.01, sigma2d_px=0.0, dropout=0.0, seed=9)
    rms = np.sqrt(np.mean((seq.points_3d - noisy.points_3d) ** 2))
    assert rms == pytest.approx(0.01, rel=0.05)


def test_dropout_removes_2d_joints_only(clean_walk):
    seq, _ = clean_walk
    out = inject_noise(seq, sigma3d_m=0.0, sigma2d_px=0.0, dropout=0.3, seed=4)
    assert out.mask_2d.sum() / seq.mask_2d.sum() == pytest.approx(0.7, abs=0.03)
    assert np.array_equal(out.mask_3d, seq.mask_3d)
    # A dropped joint is absent from the 2D records, a kept one unchanged.
    kept = out.frames_2d[0].joints
    assert set(kept) == {j for j in JointId if out.mask_2d[0, j.value]}
    assert all(p == seq.frames_2d[0].joints[j] for j, p in kept.items())


def test_heading_rotates_travel():
    spec = WalkerSpec(speed_m_s=1.2, cadence_steps_min=110.0, heading_deg=90.0,
                      distance_m=5.0)
    seq, truth = generate(spec)
    assert np.allclose(truth.heading, [1.0, 0.0, 0.0], atol=1e-12)
    d = seq.points_3d[-1, JointId.PELVIS.value] - seq.points_3d[0, JointId.PELVIS.value]
    assert abs(d[0]) > 3.0
    assert abs(d[2]) < 1e-9


def test_walking_toward_camera_keeps_depth_positive():
    spec = WalkerSpec(speed_m_s=1.3, cadence_steps_min=120.0, heading_deg=180.0,
                      distance_m=2.5, start_z_m=4.0)
    seq, _ = generate(spec)
    assert np.all(seq.points_3d[..., 2] > 0)


def test_pelvis_speed_is_constant(clean_walk):
    seq, truth = clean_walk
    heading = np.array(truth.heading)
    along = seq.points_3d[:, JointId.PELVIS.value] @ heading
    v = np.diff(along) * seq.fps
    assert np.allclose(v, truth.speed_m_s, atol=1e-9)


def test_short_distance_still_gives_two_steps():
    spec = WalkerSpec(speed_m_s=1.2, cadence_steps_min=110.0, distance_m=0.3)
    _, truth = generate(spec)
    assert truth.n_steps == 2


# sha256 of write_stream and write_truth for fixed walks.  The clean and
# noisy walks were recorded before the walker built its sequences as arrays:
# the clean walk pins the geometry and the projection, the noisy one the
# order of the noise draws (3D normals, then 2D normals, then dropout
# uniforms).  The rest were recorded while the walker still built each frame
# in a loop; they pin the edges of the spec: no and the longest double
# support, the slowest and a fast frame rate, a walk toward the camera and
# one off the optical axis.
_BASE = dict(speed_m_s=1.2, cadence_steps_min=110.0, distance_m=2.5)
GOLDEN = {
    "clean": (
        WalkerSpec(speed_m_s=1.2, cadence_steps_min=110.0, distance_m=2.5),
        "d537d34fab64644b269a6f337a7ea8380e432bbe6ab6eb3aa73e644eeb4be8db",
        "2cb3ef3ba0e6d4dad46e9643464ef7eb1a66df8f6557de6b60a4c08428bd4cb2",
    ),
    "noisy": (
        WalkerSpec(speed_m_s=1.1, cadence_steps_min=104.0, distance_m=2.5,
                   sigma3d_m=0.01, sigma2d_px=2.0, dropout=0.3, seed=11,
                   heading_deg=20.0),
        "8f588bb09f63bbb031305d54cb0e8119228dbac6dd7e4cde33dc61381fb44413",
        "6d473860e50cc6a2119b3317fb4c9dc925f8060db2d615e726f471f413d83e5f",
    ),
    "no-double-support": (
        WalkerSpec(double_support=0.0, **_BASE),
        "c4aca78a60a664a9185f3e179761a534c8951280ec4e028479fbbdf483f4b2f6",
        "8288ac04b6e5a6158f9fe79d814b2b94ae9cb7d93f0c601a6518272c35c5ffa4",
    ),
    "longest-double-support": (
        WalkerSpec(double_support=0.4, **_BASE),
        "b2fc23cd93e098ce9f84f95e37a7e5592311853847dcb735f3f36a4343ce71b2",
        "7b0188103e544d36cf563dee4e71b1c052d773e3f8681128314ea31a2fb523fe",
    ),
    "fps-10": (
        WalkerSpec(fps=10.0, **_BASE),
        "95ac88e8a531c5aa6d9c57cc8ba8bf2ab84e28055597da58c326a9eef21a94d3",
        "2cb3ef3ba0e6d4dad46e9643464ef7eb1a66df8f6557de6b60a4c08428bd4cb2",
    ),
    "fps-60": (
        WalkerSpec(fps=60.0, **_BASE),
        "33a889323266185ee4ace8ce9ee9453f4eadaa1bccd82de2b09554385d943934",
        "2cb3ef3ba0e6d4dad46e9643464ef7eb1a66df8f6557de6b60a4c08428bd4cb2",
    ),
    "toward-camera": (
        WalkerSpec(heading_deg=180.0, start_z_m=12.0, **_BASE),
        "fadc04d077006d070a568feb3e11294aa9b2dbba349ac598ac5171973036bc56",
        "12cc75cc242bcf5fbf93f1ef35b0516d2aecf1419a7ae249ce087d192ea88ced",
    ),
    "off-axis": (
        WalkerSpec(start_x_m=-1.5, **_BASE),
        "55f87fb1f5bc8f6870470ab35f9255ba2d8ebb5b037220a43ec1cea6022830a4",
        "2cb3ef3ba0e6d4dad46e9643464ef7eb1a66df8f6557de6b60a4c08428bd4cb2",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_written_walk_bytes_are_pinned(name):
    spec, poses_sha, truth_sha = GOLDEN[name]
    seq, truth = generate(spec)
    assert hashlib.sha256(pose_io.write_stream(seq)).hexdigest() == poses_sha
    assert hashlib.sha256(pose_io.write_truth(truth)).hexdigest() == truth_sha


def _frame_knee(hip, ankle, l1, l2, forward):
    """One frame's two-bone solve, with 1-D norms and dot products."""
    d = ankle - hip
    n = float(np.linalg.norm(d))
    dhat = d / n
    a = (l1 * l1 - l2 * l2 + n * n) / (2.0 * n)
    bend = forward - np.dot(forward, dhat) * dhat
    return hip + a * dhat + math.sqrt(l1 * l1 - a * a) * (bend / float(np.linalg.norm(bend)))


def _frame_by_frame(spec, seq, truth):
    """The joints of a noiseless walk built one frame at a time, with scalar
    rotations and solves: the reference the walker's whole-walk arrays must
    equal bit for bit.  The pelvis height is read from the first frame."""
    length = lengths_vector(truth.anatomy)
    bone = CANONICAL_TREE.rest_dirs * length[:, None]
    T, sl, ds = truth.step_time_s, truth.step_length_m, spec.double_support
    t1 = truth.schedule[0].time_s
    theta = math.radians(spec.heading_deg)
    yaw = np.array([[math.cos(theta), 0.0, math.sin(theta)], [0.0, 1.0, 0.0],
                    [-math.sin(theta), 0.0, math.cos(theta)]])
    heading = np.array(truth.heading)
    xhat, yhat = np.eye(3)[:2]
    lateral = np.cross(yhat, heading)
    origin = np.array([spec.start_x_m, 0.0, spec.start_z_m])
    h_pelvis = seq.points_3d[0, JointId.PELVIS.value, 1]
    clearance = 0.04 * spec.subject_height_m
    pos = np.zeros_like(seq.points_3d)
    for p, t in zip(pos, seq.times):
        along_pelvis = truth.speed_m_s * (t - t1) + 0.5 * sl
        p[0] = origin + heading * along_pelvis + yhat * h_pelvis
        for j in (1, 2, 3):  # spine, mid-spine, neck
            p[j] = p[j - 1] + yhat * length[j]
        phase = 2.0 * math.pi * (t - t1) / (2.0 * T)
        neck_rot = yaw @ so3_exp(np.array([0.03 * math.sin(phase), 0.0, 0.0]))
        p[4] = p[3] + neck_rot @ bone[4]
        for sign, sh in ((1.0, 5), (-1.0, 8)):  # shoulder, then elbow and wrist
            arm_rot = yaw @ so3_exp(0.25 * math.sin(phase) * sign * xhat)
            p[sh] = p[3] + neck_rot @ bone[sh]
            p[sh + 1] = p[sh] + arm_rot @ bone[sh + 1]
            p[sh + 2] = p[sh + 1] + arm_rot @ bone[sh + 2]
        for parity, hip in ((0, 11), (1, 16)):  # hip, knee, ankle, heel, foot tip
            p[hip] = p[0] + (2 * parity - 1.0) * length[hip] * lateral
            k_last = int(math.floor((t - (t1 + (parity - 1) * T)) / (2.0 * T))) * 2 + parity
            lift = t1 + k_last * T + ds * T
            along, height = k_last * sl, length[hip + 3]
            if t > lift:
                u = (t - lift) / ((1.0 - ds) * T)
                along += 2.0 * sl * (u - np.sin(2.0 * np.pi * u) / (2.0 * np.pi))
                height += clearance * (1.0 - math.cos(2.0 * math.pi * u)) / 2.0
            p[hip + 2] = origin + heading * along + yhat * height
            p[hip + 1] = _frame_knee(p[hip], p[hip + 2], length[hip + 1], length[hip + 2],
                                     heading)
            p[hip + 3] = p[hip + 2] - yhat * length[hip + 3]
            p[hip + 4] = p[hip + 2] + heading * length[hip + 4]
    return pos


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_whole_walk_tracks_equal_the_frame_by_frame_build(name):
    spec = dataclasses.replace(GOLDEN[name][0], sigma3d_m=0.0, sigma2d_px=0.0, dropout=0.0)
    seq, truth = generate(spec)
    assert np.array_equal(seq.points_3d, _frame_by_frame(spec, seq, truth))


def test_unreachable_step_is_refused():
    """A 3 m step at 60 steps/min is longer than the legs reach: generate
    refuses it, naming the step and the height, before building any frame."""
    spec = WalkerSpec(speed_m_s=3.0, cadence_steps_min=60.0)
    with pytest.raises(InconsistentSpec,
                       match=r"^step length 3\.0 m is not reachable at height 1\.72 m$"):
        generate(spec)
