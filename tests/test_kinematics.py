"""Rotation algebra and the kinematic chain.

The key contract is that fitting parameters to positions inverts forward
kinematics exactly (up to float error), because the synthetic walker leans
on that inversion for its ground-truth params.  Poses hold rotation
matrices; the finite differences below turn them by small left-multiplied
increments exp(h e) R, the steps of the fit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stridelab import CANONICAL_TREE, JointId, derive_anatomy
from stridelab.kinematics import (
    KinematicTree,
    PoseParams,
    fit_params_to_positions,
    forward_kinematics,
    hat,
    lengths_vector,
    position_jacobian,
    position_jacobian_vjp,
    so3_exp,
    swing_axes,
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


def test_exp_quarter_turn():
    R = so3_exp(np.array([0.0, 0.0, np.pi / 2]))
    assert np.allclose(R @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-12)


@given(small_vec)
def test_exp_gives_rotation_matrix(w):
    R = so3_exp(w)
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(R) == pytest.approx(1.0)


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
        rotations=so3_exp(rng.normal(0.0, 0.4, (n_frames, nr, 3))),
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


def _identities(n_frames, nr=14):
    return np.broadcast_to(np.eye(3), (n_frames, nr, 3, 3))


def test_params_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        PoseParams(translations=np.zeros((2, 2)), rotations=_identities(2))
    with pytest.raises(ValueError, match="frame count"):
        PoseParams(translations=np.zeros((2, 3)), rotations=_identities(3))
    with pytest.raises(ValueError, match="shape"):
        PoseParams(translations=np.zeros((2, 3)), rotations=np.zeros((2, 14, 3)))


@pytest.mark.parametrize("bad", ["scaled", "skewed", "reflection", "nan"])
def test_params_reject_non_rotations(bad):
    """Bone lengths are exact only for rotations: a matrix that is not one is
    refused, here in the last slot of the last frame."""
    rotations = so3_exp(np.random.default_rng(3).normal(0.0, 0.5, (2, 14, 3)))
    R = rotations[-1, -1]
    rotations[-1, -1] = {
        "scaled": 1.001 * R,
        "skewed": R + 1e-8 * np.outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
        "reflection": -R,
        "nan": np.full((3, 3), np.nan),
    }[bad]
    with pytest.raises(ValueError, match="rotation matrices"):
        PoseParams(translations=np.zeros((2, 3)), rotations=rotations)


def _with_drift(R, drift):
    """R with its first column scaled so that |M^T M - I| is drift."""
    return R * np.array([math.sqrt(1.0 + drift), 1.0, 1.0])


@pytest.mark.parametrize("case, accepted", [
    ("drift 0.5e-9", True),
    ("drift 2e-9", False),
    ("reflection -I", False),
    ("reflection -R", False),
    ("+inf", False),
    ("-inf", False),
    ("huge", False),
])
def test_params_rotation_check_at_its_edges(case, accepted):
    """The check accepts a Frobenius drift |R^T R - I| up to 1e-9 and a
    positive determinant: a drift of half the bound passes, twice the bound
    fails, a reflection fails with no drift at all, and an infinite or
    overflowing entry fails with a ValueError, not a warning."""
    rotations = so3_exp(np.random.default_rng(5).normal(0.0, 0.5, (2, 14, 3)))
    R = rotations[0, 3]
    M = {
        "drift 0.5e-9": _with_drift(R, 0.5e-9),
        "drift 2e-9": _with_drift(R, 2e-9),
        "reflection -I": -np.eye(3),
        "reflection -R": -R,
        "+inf": np.where(np.eye(3, dtype=bool), R, np.inf),
        "-inf": np.where(np.eye(3, dtype=bool), -np.inf, R),
        "huge": R * 1e200,
    }[case]
    if case.startswith("drift"):
        drift = np.linalg.norm(M.T @ M - np.eye(3))
        assert drift == pytest.approx(float(case.split()[1]), rel=1e-5)
    if case == "reflection -I":
        assert np.array_equal(M.T @ M, np.eye(3))
    rotations[0, 3] = M
    if accepted:
        PoseParams(translations=np.zeros((2, 3)), rotations=rotations)
    else:
        with pytest.raises(ValueError, match="rotation matrices"):
            PoseParams(translations=np.zeros((2, 3)), rotations=rotations)


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
    assert np.max(np.abs(fitted.rotations - want)) < 1e-12
    assert np.array_equal(fitted.translations, X[:, pelvis])
    # The antiparallel spine is a half turn (trace 1 + 2 cos pi); the absent
    # neck keeps identity.
    assert np.isclose(np.trace(fitted.rotations[0, tree.rot_slot[spine]]), -1.0)
    assert np.array_equal(fitted.rotations[2, tree.rot_slot[JointId.NECK.value]],
                          np.eye(3))


def _branching_tree():
    """Seven joints: the root carries a chain and a leaf, and the chain's
    second joint has two children, one of them with a child of its own."""
    dirs = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.6, 0.8, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, -0.8, 0.6],
        [1.0, 0.0, 0.0],
    ])
    return KinematicTree(
        names=("root", "a", "b", "c", "d", "e", "leaf"),
        parents=(-1, 0, 1, 2, 2, 3, 0),
        rest_dirs=dirs,
    )


def _fd_position_jacobian(tree, lengths, params, axes, h=1e-6):
    """Central differences of forward_kinematics in the root translation,
    then per rotation slot s and axis i the turn R -> exp(h hat(a)) R about
    a = axes[:, s, :, i] in the parent's frame: (F, J, 3, 3 + 3 NR)."""
    F, P = params.n_frames, tree.params_per_frame
    out = np.empty((F, tree.n_joints, 3, P))
    for i in range(P):
        moved = []
        for sign in (1.0, -1.0):
            t = params.translations.copy()
            rot = params.rotations.copy()
            if i < 3:
                t[:, i] += sign * h
            else:
                s, a = divmod(i - 3, 3)
                rot[:, s] = so3_exp(sign * h * axes[:, s, :, a]) @ rot[:, s]
            moved.append(forward_kinematics(tree, lengths, PoseParams(t, rot)))
        out[..., i] = (moved[0] - moved[1]) / (2 * h)
    return out


def _fd_step_jacobian(tree, lengths, params, axes):
    """_fd_position_jacobian's columns placed as tree.step_layout places
    them, the axes it leaves out dropped: the finite-difference
    reference of position_jacobian(tree, X, G, axes)."""
    layout = tree.step_layout
    full = _fd_position_jacobian(tree, lengths, params, axes)
    out = np.empty(full.shape[:3] + (layout.params_per_frame,))
    out[..., layout.translation] = full[..., :3]
    for s, i in zip(*np.nonzero(layout.columns >= 0)):
        out[..., layout.columns[s, i]] = full[..., 3 + 3 * s + i]
    return out


@pytest.mark.parametrize("layout", ["increment", "axes"])
@pytest.mark.parametrize("which", ["canonical", "branching"])
def test_position_jacobian_matches_finite_differences(which, layout):
    """position_jacobian checked against forward_kinematics alone, for
    steps about the identity axes (left-multiplied increments, less the
    axes the layout leaves out) and about arbitrary parent-frame axes;
    also written into a buffer that held another pose's Jacobian for more
    frames, which must give the same result."""
    rng = np.random.default_rng(11)
    if which == "canonical":
        tree = CANONICAL_TREE
        lengths = lengths_vector(derive_anatomy(1.72))
    else:
        tree = _branching_tree()
        lengths = np.array([0.0, 0.5, 0.3, 0.25, 0.4, 0.2, 0.35])
    F = 3

    def some_axes(n_frames):
        shape = (n_frames, tree.n_rotations, 3, 3)
        if layout == "increment":
            return np.broadcast_to(np.eye(3), shape)
        return rng.normal(0.0, 1.0, shape)

    params = _swing_pose(tree, rng, F)
    X, G = forward_kinematics(tree, lengths, params, with_globals=True)
    axes = some_axes(F)
    got = position_jacobian(tree, X, G, axes)
    want = _fd_step_jacobian(tree, lengths, params, axes)
    assert got.shape == (F, tree.n_joints, 3, tree.step_layout.params_per_frame)
    assert np.abs(got - want).max() < 1e-7 * np.abs(want).max()

    other = _swing_pose(tree, rng, F + 2)
    X2, G2 = forward_kinematics(tree, lengths, other, with_globals=True)
    buffer = position_jacobian(tree, X2, G2, some_axes(F + 2))
    reused = position_jacobian(tree, X, G, axes, out=buffer[:F])
    assert np.shares_memory(reused, buffer)
    assert np.array_equal(reused, got)


def _increments_jacobian(tree, X, G):
    """The joint positions' Jacobian in the root translation and three
    increments per rotated joint, (F, J, 3, 3 + 3 NR), read exactly from
    position_jacobian_vjp on one unit residual per joint coordinate."""
    F, J, _ = X.shape
    out = np.empty((F, J, 3, tree.params_per_frame))
    for j in range(J):
        for c in range(3):
            r = np.zeros((F, J, 3))
            r[:, j, c] = 1.0
            out[:, j, c] = position_jacobian_vjp(tree, X, G, r)
    return out


def test_vjp_is_the_transposed_jacobian(step_tree):
    """position_jacobian_vjp is J^T r in increments, J by central
    differences, on every step tree (_increments_jacobian relies on it)."""
    tree, lengths = step_tree
    rng = np.random.default_rng(29)
    params = _swing_pose(tree, rng)
    X, G = forward_kinematics(tree, lengths, params, with_globals=True)
    r = rng.normal(0.0, 1.0, X.shape)
    identity = np.broadcast_to(np.eye(3), params.rotations.shape)
    want = np.einsum("fjcp,fjc->fp", _fd_position_jacobian(tree, lengths, params, identity), r)
    got = position_jacobian_vjp(tree, X, G, r)
    assert got.shape == (params.n_frames, tree.params_per_frame)
    assert np.abs(got - want).max() < 1e-7 * np.abs(want).max()


def _swing_pose(tree, rng, n_frames=3):
    return PoseParams(
        translations=rng.normal(0.0, 1.0, (n_frames, 3)),
        rotations=so3_exp(rng.normal(0.0, 0.6, (n_frames, tree.n_rotations, 3))),
    )


def test_swing_layout_sizes(step_tree):
    """A joint with one child has two step parameters, every other rotated
    joint three: 35 per frame on the skeleton instead of 45.  Each column
    of the layout is used once."""
    tree, _ = step_tree
    slots, bases = tree.swing_bases
    kids = [len(tree.children[j]) for j in tree.rotated_joints]
    assert sorted(slots) == [s for s, k in enumerate(kids) if k == 1]
    layout = tree.step_layout
    assert layout.params_per_frame == tree.params_per_frame - len(slots)
    if tree is CANONICAL_TREE:
        assert (len(slots), layout.params_per_frame) == (10, 35)
    used = np.concatenate([layout.translation, layout.columns[layout.columns >= 0]])
    assert np.array_equal(np.sort(used), np.arange(layout.params_per_frame))
    # Each basis is a rotation whose last column is the child's rest direction.
    assert np.allclose(bases.transpose(0, 2, 1) @ bases, np.eye(3), atol=1e-15)
    assert np.allclose(np.linalg.det(bases), 1.0)
    children = [tree.children[tree.rotated_joints[s]][0] for s in slots]
    assert np.array_equal(bases[..., 2], tree.rest_dirs[children])


def test_swing_layout_runs_in_limb_order():
    """On the skeleton the solver's columns run spine and arms (15), root
    translation and pelvis (6), legs (14).  The columns furthest apart
    that move a common joint are the spine's first and the pelvis's last,
    20 apart, so the normal matrix's bandwidth is 2 * 35 + 20 = 90."""
    tree = CANONICAL_TREE
    layout = tree.step_layout
    assert layout.bandwidth == 90
    assert np.array_equal(layout.translation, [15, 16, 17])

    def span(*joints):
        cols = layout.columns[[tree.rot_slot[j.value] for j in joints]]
        return cols[cols >= 0].min(), cols[cols >= 0].max()

    assert span(JointId.SPINE, JointId.MID_SPINE, JointId.NECK, JointId.LEFT_SHOULDER,
                JointId.LEFT_ELBOW, JointId.RIGHT_SHOULDER, JointId.RIGHT_ELBOW) == (0, 14)
    assert span(JointId.PELVIS) == (18, 20)
    assert span(JointId.LEFT_HIP, JointId.LEFT_KNEE, JointId.LEFT_ANKLE,
                JointId.RIGHT_HIP, JointId.RIGHT_KNEE, JointId.RIGHT_ANKLE) == (21, 34)


def test_swing_jacobian_matches_finite_differences(step_tree):
    """Each column of the solver's layout turns its joint about its axis:
    position_jacobian with swing_axes matches central differences of
    forward_kinematics under R -> exp(h axis) R."""
    tree, lengths = step_tree
    rng = np.random.default_rng(23)
    params = _swing_pose(tree, rng)
    X, G = forward_kinematics(tree, lengths, params, with_globals=True)
    axes = swing_axes(tree, params.rotations)
    got = position_jacobian(tree, X, G, axes)
    want = _fd_step_jacobian(tree, lengths, params, axes)
    assert np.abs(got - want).max() < 1e-7 * np.abs(want).max()


def test_swing_layout_keeps_the_jacobian_range(step_tree):
    """Dropping the bone axis of each one-child joint loses no direction the
    joints can move in: at random poses the swing Jacobian of every frame
    has the rank of the one in three increments per rotated joint, and
    that one's columns add nothing to its range.  The dropped axis is the
    bone's: turning about it leaves the child in place."""
    tree, lengths = step_tree
    slots, _ = tree.swing_bases
    children = [tree.children[tree.rotated_joints[s]][0] for s in slots]
    rng = np.random.default_rng(5)
    for _ in range(4):
        params = _swing_pose(tree, rng, n_frames=2)
        X, G = forward_kinematics(tree, lengths, params, with_globals=True)
        axes = swing_axes(tree, params.rotations)
        full = _increments_jacobian(tree, X, G)
        reduced = position_jacobian(tree, X, G, axes)
        # Every joint's motion about each slot's dropped (third) axis.
        per_slot = full[..., 3:].reshape(full.shape[:3] + (-1, 3))
        about_bone = np.einsum("fjcsk,fsk->fjcs", per_slot, axes[..., 2])
        assert np.abs(about_bone[:, children, :, slots]).max() < 1e-12
        for f in range(params.n_frames):
            a = reduced[f].reshape(-1, reduced.shape[-1])
            b = full[f].reshape(-1, full.shape[-1])
            rank = np.linalg.matrix_rank(b)
            assert np.linalg.matrix_rank(a) == rank
            assert np.linalg.matrix_rank(np.hstack([a, b])) == rank
