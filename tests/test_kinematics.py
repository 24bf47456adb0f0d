"""Rotation algebra and the kinematic chain.

The key contract is the exp/log round trip and that fitting parameters to
positions inverts forward kinematics exactly (up to float error), because
the synthetic walker leans on that inversion for its ground-truth params.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stridelab import CANONICAL_TREE, JointId, derive_anatomy
from stridelab.kinematics import (
    PoseParams,
    fit_params_to_positions,
    forward_kinematics,
    hat,
    lengths_vector,
    so3_exp,
    so3_log,
)

small_vec = st.lists(
    st.floats(-2.0, 2.0, allow_nan=False), min_size=3, max_size=3
).map(np.array)


def test_hat_is_antisymmetric():
    w = np.array([1.0, -2.0, 0.5])
    H = hat(w)
    assert np.allclose(H, -H.T)
    v = np.array([0.3, 0.7, -1.1])
    assert np.allclose(H @ v, np.cross(w, v))


def test_exp_of_zero_is_identity():
    assert np.allclose(so3_exp(np.zeros(3)), np.eye(3))
    assert np.allclose(so3_log(np.eye(3)), np.zeros(3))


def test_exp_quarter_turn():
    R = so3_exp(np.array([0.0, 0.0, np.pi / 2]))
    assert np.allclose(R @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-12)


@given(small_vec)
def test_exp_gives_rotation_matrix(w):
    R = so3_exp(w)
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(R) == pytest.approx(1.0)


@given(small_vec)
@settings(max_examples=60)
def test_exp_log_round_trip(w):
    # keep away from the pi shell where log is not unique
    angle = np.linalg.norm(w)
    if angle > 3.0:
        w = w * (3.0 / angle)
    back = so3_log(so3_exp(w))
    assert np.allclose(back, w, atol=1e-9)


def test_log_near_pi():
    w = np.array([np.pi - 1e-7, 0.0, 0.0])
    back = so3_log(so3_exp(w))
    assert np.allclose(back, w, atol=1e-5)


def test_tree_layout():
    tree = CANONICAL_TREE
    assert tree.n_joints == 21
    assert len(tree.rotated_joints) == 14
    assert tree.params_per_frame == 45
    # leaves carry no rotation of their own
    for leaf in (JointId.HEAD, JointId.LEFT_WRIST, JointId.RIGHT_WRIST,
                 JointId.LEFT_HEEL, JointId.LEFT_FOOT_TIP,
                 JointId.RIGHT_HEEL, JointId.RIGHT_FOOT_TIP):
        assert leaf.value not in tree.rotated_joints


def _random_params(rng, n_frames):
    nr = len(CANONICAL_TREE.rotated_joints)
    return PoseParams(
        translations=rng.normal(0.0, 1.0, (n_frames, 3)) + [0, 0, 5],
        rotations=rng.normal(0.0, 0.4, (n_frames, nr, 3)),
    )


def test_fk_preserves_bone_lengths():
    anatomy = derive_anatomy(1.72)
    lengths = lengths_vector(anatomy)
    params = _random_params(np.random.default_rng(0), 4)
    X = forward_kinematics(CANONICAL_TREE, lengths, params)
    assert X.shape == (4, 21, 3)
    for child, parent in enumerate(CANONICAL_TREE.parents):
        if parent < 0:
            continue
        d = np.linalg.norm(X[:, child] - X[:, parent], axis=1)
        assert np.allclose(d, anatomy.length(JointId(child)), atol=1e-12)


def test_fit_inverts_fk():
    anatomy = derive_anatomy(1.65)
    lengths = lengths_vector(anatomy)
    rng = np.random.default_rng(7)
    params = _random_params(rng, 3)
    X = forward_kinematics(CANONICAL_TREE, lengths, params)
    fitted = fit_params_to_positions(CANONICAL_TREE, X)
    X2 = forward_kinematics(CANONICAL_TREE, lengths, fitted)
    assert np.max(np.abs(X2 - X)) < 1e-9


def test_fit_translation_matches_root():
    anatomy = derive_anatomy(1.72)
    lengths = lengths_vector(anatomy)
    params = _random_params(np.random.default_rng(3), 2)
    X = forward_kinematics(CANONICAL_TREE, lengths, params)
    fitted = fit_params_to_positions(CANONICAL_TREE, X)
    assert np.allclose(fitted.translations, X[:, JointId.PELVIS.value])


def test_params_shape_validation():
    with pytest.raises(ValueError):
        PoseParams(translations=np.zeros((2, 2)), rotations=np.zeros((2, 14, 3)))
    with pytest.raises(ValueError):
        PoseParams(translations=np.zeros((2, 3)), rotations=np.zeros((3, 14, 3)))


def _reference_fit(tree, positions, present):
    """Per-frame pose fit: one joint and one frame at a time, the plain
    statement of what fit_params_to_positions computes for all frames."""
    F = positions.shape[0]
    rotations = np.zeros((F, tree.n_rotations, 3, 3))
    for f in range(F):
        G = {}
        for j in tree.rotated_joints:
            p = tree.parents[j]
            Gp = np.eye(3) if p < 0 else G[p]
            us, vs = [], []
            if present[f, j]:
                for c in tree.children[j]:
                    v = positions[f, c] - positions[f, j]
                    nv = np.linalg.norm(v)
                    if present[f, c] and nv >= 1e-12:
                        us.append(tree.rest_dirs[c])
                        vs.append(Gp.T @ (v / nv))
            if not us:
                R = np.eye(3)
            elif len(us) == 1:
                u, v = us[0], vs[0]
                axis = np.cross(u, v)
                s2 = axis @ axis
                if s2 >= 1e-24:
                    K = hat(axis)
                    R = np.eye(3) + K + K @ K * ((1.0 - u @ v) / s2)
                elif u @ v > 0:
                    R = np.eye(3)
                else:
                    pick = np.eye(3)[np.argmin(np.abs(u))]
                    ortho = pick - u * (pick @ u)
                    R = so3_exp(np.pi * ortho / np.linalg.norm(ortho))
            else:
                U, _, Vt = np.linalg.svd(np.array(vs).T @ np.array(us))
                d = np.sign(np.linalg.det(U @ Vt))
                R = (U * [1.0, 1.0, d]) @ Vt
            G[j] = Gp @ R
            rotations[f, tree.rot_slot[j]] = R
    return rotations


def test_masked_fit_matches_per_frame_reference():
    tree = CANONICAL_TREE
    lengths = lengths_vector(derive_anatomy(1.72))
    rng = np.random.default_rng(5)
    F = 40
    X = forward_kinematics(tree, lengths, _random_params(rng, F))
    X += rng.normal(0.0, 0.02, X.shape)
    present = rng.random(X.shape[:2]) > 0.3
    present[:, JointId.PELVIS.value] = True
    pelvis, spine, mid = (JointId.PELVIS.value, JointId.SPINE.value,
                          JointId.MID_SPINE.value)
    # Frame 0: the pelvis sees only the spine, straight up (identity), and the
    # spine's single child points straight down (antiparallel).
    present[0] = True
    present[0, [JointId.LEFT_HIP.value, JointId.RIGHT_HIP.value]] = False
    X[0, spine] = X[0, pelvis] + [0.0, lengths[spine], 0.0]
    X[0, mid] = X[0, spine] - [0.0, lengths[mid], 0.0]
    # Frame 1: a zero-length bone; frame 2: an absent parent joint.
    present[1] = True
    X[1, JointId.LEFT_ELBOW.value] = X[1, JointId.LEFT_SHOULDER.value]
    present[2] = True
    present[2, JointId.NECK.value] = False

    # The random mask must leave some multi-child frames with one usable child.
    for j in (pelvis, JointId.NECK.value, JointId.LEFT_ANKLE.value):
        kids = list(tree.children[j])
        n_usable = (present[:, kids] & present[:, j, None]).sum(axis=1)
        assert np.any((n_usable == 1)[3:])

    want = _reference_fit(tree, X, present)
    fitted = fit_params_to_positions(tree, X, present)
    got = so3_exp(fitted.rotations)
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.array_equal(fitted.translations, X[:, pelvis])
    # The antiparallel spine is a half turn; the absent neck keeps identity.
    assert np.isclose(np.linalg.norm(fitted.rotations[0, tree.rot_slot[spine]]), np.pi)
    assert np.array_equal(fitted.rotations[2, tree.rot_slot[JointId.NECK.value]],
                          np.zeros(3))
