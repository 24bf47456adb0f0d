"""Rigid kinematic trees: rotation algebra, forward kinematics, pose fitting.

A pose is parameterized by one root translation plus a 3-parameter
exponential-map rotation for every joint that has children.  Bone lengths are
fixed, so forward kinematics maps (translation, rotations) to joint positions
exactly on the bone-length manifold.

The math here is generic over any rooted tree; the canonical 21-joint skeleton
is exposed as CANONICAL_TREE.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import skeleton
from .skeleton import JointId

_EPS_ANGLE = 1e-8


def hat(w: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrices, batched: (..., 3) -> (..., 3, 3)."""
    out = np.zeros(w.shape[:-1] + (3, 3), dtype=np.float64)
    x, y, z = w[..., 0], w[..., 1], w[..., 2]
    out[..., 0, 1] = -z
    out[..., 0, 2] = y
    out[..., 1, 0] = z
    out[..., 1, 2] = -x
    out[..., 2, 0] = -y
    out[..., 2, 1] = x
    return out


def so3_exp(w: np.ndarray) -> np.ndarray:
    """Exponential map, batched Rodrigues: (..., 3) -> (..., 3, 3)."""
    w = np.asarray(w, dtype=np.float64)
    theta2 = np.sum(w * w, axis=-1)
    theta = np.sqrt(theta2)
    small = theta < _EPS_ANGLE
    # sin(t)/t and (1-cos(t))/t^2 with Taylor fallbacks near zero.
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(small, 1.0 - theta2 / 6.0, np.sin(theta) / theta)
        b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(theta)) / theta2)
    K = hat(w)
    eye = np.broadcast_to(np.eye(3), K.shape)
    return eye + a[..., None, None] * K + b[..., None, None] * (K @ K)


def so3_left_jacobian(w: np.ndarray) -> np.ndarray:
    """Left Jacobian of SO(3): d exp([w + d]x) = exp([J_l(w) d]x) exp([w]x)."""
    w = np.asarray(w, dtype=np.float64)
    theta2 = np.sum(w * w, axis=-1)
    theta = np.sqrt(theta2)
    small = theta < _EPS_ANGLE
    with np.errstate(invalid="ignore", divide="ignore"):
        b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(theta)) / theta2)
        c = np.where(
            small, 1.0 / 6.0 - theta2 / 120.0, (theta - np.sin(theta)) / (theta2 * theta)
        )
    K = hat(w)
    eye = np.broadcast_to(np.eye(3), K.shape)
    return eye + b[..., None, None] * K + c[..., None, None] * (K @ K)


def so3_log(R: np.ndarray) -> np.ndarray:
    """Logarithm map, batched: (..., 3, 3) -> (..., 3) with |w| <= pi.

    Goes through a quaternion (Shepperd's branching) so angles near pi stay
    well conditioned.
    """
    R = np.asarray(R, dtype=np.float64)
    batch = R.shape[:-2]
    Rf = R.reshape((-1, 3, 3))
    n = Rf.shape[0]
    q = np.empty((n, 4), dtype=np.float64)  # (w, x, y, z)

    tr = np.trace(Rf, axis1=-2, axis2=-1)
    d0, d1, d2 = Rf[:, 0, 0], Rf[:, 1, 1], Rf[:, 2, 2]
    choice = np.where(
        tr > np.maximum(d0, np.maximum(d1, d2)),
        3,
        np.argmax(np.stack([d0, d1, d2], axis=1), axis=1),
    )

    m = choice == 3
    if np.any(m):
        s = np.sqrt(tr[m] + 1.0) * 2.0
        q[m, 0] = 0.25 * s
        q[m, 1] = (Rf[m, 2, 1] - Rf[m, 1, 2]) / s
        q[m, 2] = (Rf[m, 0, 2] - Rf[m, 2, 0]) / s
        q[m, 3] = (Rf[m, 1, 0] - Rf[m, 0, 1]) / s
    for axis, (i, j, k) in enumerate(((0, 1, 2), (1, 2, 0), (2, 0, 1))):
        m = choice == axis
        if not np.any(m):
            continue
        s = np.sqrt(1.0 + Rf[m, i, i] - Rf[m, j, j] - Rf[m, k, k]) * 2.0
        q[m, 0] = (Rf[m, k, j] - Rf[m, j, k]) / s
        q[m, 1 + i] = 0.25 * s
        q[m, 1 + j] = (Rf[m, j, i] + Rf[m, i, j]) / s
        q[m, 1 + k] = (Rf[m, k, i] + Rf[m, i, k]) / s

    # Normalize and keep the w >= 0 hemisphere so the angle lands in [0, pi].
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q[q[:, 0] < 0] *= -1.0

    vec_norm = np.linalg.norm(q[:, 1:], axis=1)
    angle = 2.0 * np.arctan2(vec_norm, q[:, 0])
    small = vec_norm < _EPS_ANGLE
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(small, 2.0 / np.clip(q[:, 0], _EPS_ANGLE, None), angle / vec_norm)
    w = q[:, 1:] * scale[:, None]
    return w.reshape(batch + (3,))


@dataclass(frozen=True, eq=False)
class KinematicTree:
    """A rooted tree of joints with unit rest directions per edge.

    parents[i] < i is required (index order doubles as evaluation order);
    parents[0] == -1 marks the root.  rest_dirs[i] is the direction of the
    edge parent(i) -> i in the parent's local frame at identity rotation.
    """

    names: tuple[str, ...]
    parents: tuple[int, ...]
    rest_dirs: np.ndarray

    def __post_init__(self) -> None:
        if self.parents[0] != -1 or any(
            not 0 <= p < i for i, p in enumerate(self.parents) if i > 0
        ):
            raise ValueError("parents must satisfy parents[0] == -1, parents[i] < i")
        norms = np.linalg.norm(self.rest_dirs[1:], axis=1)
        if not np.allclose(norms, 1.0, atol=1e-12):
            raise ValueError("rest directions must be unit vectors")

    @property
    def n_joints(self) -> int:
        return len(self.parents)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in self.parents]
        for i, p in enumerate(self.parents):
            if p >= 0:
                kids[p].append(i)
        return tuple(tuple(k) for k in kids)

    @cached_property
    def rotated_joints(self) -> tuple[int, ...]:
        """Joints carrying a rotation parameter: every non-leaf joint."""
        return tuple(j for j in range(self.n_joints) if self.children[j])

    @cached_property
    def rot_slot(self) -> tuple[int, ...]:
        slot = [-1] * self.n_joints
        for s, j in enumerate(self.rotated_joints):
            slot[j] = s
        return tuple(slot)

    @cached_property
    def descendants(self) -> tuple[tuple[int, ...], ...]:
        """Strict descendants of each joint (children, grandchildren, ...)."""
        desc: list[list[int]] = [[] for _ in self.parents]
        for i in range(self.n_joints - 1, -1, -1):
            for c in self.children[i]:
                desc[i].extend([c] + desc[c])
        return tuple(tuple(sorted(d)) for d in desc)

    @cached_property
    def rotation_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (rotated joint, strict descendant) pair as three int arrays:
        the joints, the descendants and the joints' rotation slots."""
        pairs = [(j, d) for j in self.rotated_joints for d in self.descendants[j]]
        joints = np.array([j for j, _ in pairs], dtype=np.intp)
        descendants = np.array([d for _, d in pairs], dtype=np.intp)
        slots = np.array([self.rot_slot[j] for j in joints], dtype=np.intp)
        return joints, descendants, slots

    @property
    def n_rotations(self) -> int:
        return len(self.rotated_joints)

    @property
    def params_per_frame(self) -> int:
        return 3 + 3 * self.n_rotations


def _canonical_rest_dirs() -> np.ndarray:
    up = (0.0, 1.0, 0.0)
    down = (0.0, -1.0, 0.0)
    fwd = (0.0, 0.0, 1.0)
    left = (-1.0, 0.0, 0.0)   # subject's left when facing +z
    right = (1.0, 0.0, 0.0)
    dirs = {
        JointId.SPINE: up,
        JointId.MID_SPINE: up,
        JointId.NECK: up,
        JointId.HEAD: up,
        JointId.LEFT_SHOULDER: left,
        JointId.LEFT_ELBOW: down,
        JointId.LEFT_WRIST: down,
        JointId.RIGHT_SHOULDER: right,
        JointId.RIGHT_ELBOW: down,
        JointId.RIGHT_WRIST: down,
        JointId.LEFT_HIP: left,
        JointId.LEFT_KNEE: down,
        JointId.LEFT_ANKLE: down,
        JointId.LEFT_HEEL: down,
        JointId.LEFT_FOOT_TIP: fwd,
        JointId.RIGHT_HIP: right,
        JointId.RIGHT_KNEE: down,
        JointId.RIGHT_ANKLE: down,
        JointId.RIGHT_HEEL: down,
        JointId.RIGHT_FOOT_TIP: fwd,
    }
    out = np.zeros((skeleton.N_JOINTS, 3))
    for j, d in dirs.items():
        out[j.value] = d
    return out


CANONICAL_TREE = KinematicTree(
    names=tuple(j.label for j in JointId),
    parents=tuple(
        -1 if skeleton.PARENT[j] is None else skeleton.PARENT[j].value  # type: ignore[union-attr]
        for j in JointId
    ),
    rest_dirs=_canonical_rest_dirs(),
)


def lengths_vector(anatomy: skeleton.AnatomyProfile) -> np.ndarray:
    """Bone lengths as a (21,) array indexed by child joint; root entry 0."""
    out = np.zeros(skeleton.N_JOINTS)
    for j in JointId:
        if j is not JointId.PELVIS:
            out[j.value] = anatomy.length(j)
    return out


@dataclass
class PoseParams:
    """Whole-sequence pose parameters.

    translations: (F, 3) root positions.
    rotations: (F, NR, 3) exponential-map vectors, one row per rotated joint
    in tree.rotated_joints order.
    """

    translations: np.ndarray
    rotations: np.ndarray

    def __post_init__(self) -> None:
        self.translations = np.asarray(self.translations, dtype=np.float64)
        self.rotations = np.asarray(self.rotations, dtype=np.float64)
        if self.translations.ndim != 2 or self.translations.shape[1] != 3:
            raise ValueError("translations must have shape (F, 3)")
        if self.rotations.ndim != 3 or self.rotations.shape[2] != 3:
            raise ValueError("rotations must have shape (F, NR, 3)")
        if self.rotations.shape[0] != self.translations.shape[0]:
            raise ValueError("translations and rotations disagree on frame count")

    @property
    def n_frames(self) -> int:
        return self.translations.shape[0]

    def as_vector(self) -> np.ndarray:
        F = self.n_frames
        per_frame = np.concatenate(
            [self.translations, self.rotations.reshape(F, -1)], axis=1
        )
        return per_frame.reshape(-1)

    @classmethod
    def from_vector(cls, vec: np.ndarray, n_rotations: int) -> "PoseParams":
        per = 3 + 3 * n_rotations
        vec = np.asarray(vec, dtype=np.float64)
        if vec.size % per:
            raise ValueError(f"vector length {vec.size} not a multiple of {per}")
        frames = vec.reshape(-1, per)
        return cls(
            translations=frames[:, :3].copy(),
            rotations=frames[:, 3:].reshape(-1, n_rotations, 3).copy(),
        )

    def copy(self) -> "PoseParams":
        return PoseParams(self.translations.copy(), self.rotations.copy())


def _fk_from_matrices(
    tree: KinematicTree,
    lengths: np.ndarray,
    translations: np.ndarray,
    rot_local: np.ndarray,
):
    """Joint positions (F, J, 3) and global rotations (F, J, 3, 3) from root
    translations and local rotations already given as matrices."""
    F = translations.shape[0]
    J = tree.n_joints
    X = np.empty((F, J, 3), dtype=np.float64)
    G = np.empty((F, J, 3, 3), dtype=np.float64)
    X[:, 0] = translations
    G[:, 0] = rot_local[:, tree.rot_slot[0]]
    for j in range(1, J):
        p = tree.parents[j]
        offset = tree.rest_dirs[j] * lengths[j]
        X[:, j] = X[:, p] + G[:, p] @ offset
        slot = tree.rot_slot[j]
        G[:, j] = G[:, p] @ rot_local[:, slot] if slot >= 0 else G[:, p]
    return X, G


def forward_kinematics(
    tree: KinematicTree,
    lengths: np.ndarray,
    params: PoseParams,
    with_globals: bool = False,
):
    """Joint positions (F, J, 3) for every frame; optionally the accumulated
    global rotations (F, J, 3, 3) as well."""
    X, G = _fk_from_matrices(
        tree, lengths, params.translations, so3_exp(params.rotations)
    )
    if with_globals:
        return X, G
    return X


def position_jacobian(
    tree: KinematicTree,
    X: np.ndarray,
    G: np.ndarray,
    rotations: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """d(position)/d(params) per frame: (F, J, 3, P) with P = 3 + 3 NR.

    With rotations given, derivatives are taken with respect to the
    exponential-map parameters themselves (each rotation block picks up the
    left Jacobian of its current vector).  With rotations=None the derivative
    is with respect to a left-multiplied increment at the current rotation,
    the linearization the solver steps in.

    Descendant d of rotated joint b moves with b's rotation as
    hat(X_b - X_d) M_b, M_b the global rotation of b's parent (the identity
    at the root).  All of these blocks, one per tree.rotation_pairs entry,
    are formed in one batch and scattered into their cells at once; every
    other cell is a translation identity or a structural zero.

    out, when given, must be a C-contiguous result of an earlier call for
    the same tree, or a leading frame slice of one.  Its identities and
    zeros are kept, its rotation blocks are rewritten in place, and it is
    returned.
    """
    F, J, _ = X.shape
    P = tree.params_per_frame
    if out is None:
        out = np.zeros((F, J, 3, P), dtype=np.float64)
        out[:, :, :, :3] = np.eye(3)
    joints, desc, slots = tree.rotation_pairs
    rotated = np.asarray(tree.rotated_joints)
    parents = np.asarray(tree.parents)[rotated]
    M = G[:, np.maximum(parents, 0)]               # (F, NR, 3, 3)
    M[:, parents < 0] = np.eye(3)
    if rotations is not None:
        M = M @ so3_left_jacobian(rotations)
    blocks = hat(X[:, joints] - X[:, desc]) @ M[:, slots]  # (F, pairs, 3, 3)
    # Flat cell of (descendant, row, 3 + 3 slot + column) within a frame.
    rc = np.arange(3)
    cells = (desc[:, None, None] * 3 + rc[:, None]) * P + 3 + 3 * slots[:, None, None] + rc
    out.reshape(F, -1)[:, cells.reshape(-1)] = blocks.reshape(F, -1)
    return out


def _antiparallel(u: np.ndarray) -> np.ndarray:
    """A rotation by pi taking unit vector u to -u, about an axis orthogonal to u."""
    pick = np.eye(3)[np.argmin(np.abs(u))]
    ortho = pick - u * np.dot(pick, u)
    ortho /= np.linalg.norm(ortho)
    return so3_exp(np.pi * ortho)


def _align_single(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Minimal rotations taking unit vectors u to unit vectors v, batched:
    (n, 3), (n, 3) -> (n, 3, 3)."""
    c = np.einsum("na,na->n", u, v)
    axis = np.cross(u, v)
    s2 = np.einsum("na,na->n", axis, axis)
    parallel = s2 < 1e-24
    K = hat(axis)
    scale = (1.0 - c) / np.where(parallel, 1.0, s2)
    R = np.eye(3) + K + (K @ K) * scale[:, None, None]
    R[parallel] = np.eye(3)
    for i in np.flatnonzero(parallel & (c <= 0)):
        R[i] = _antiparallel(u[i])
    return R


def _align_many(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Least-squares rotations with R us[k] ~ vs[n, k] (unit rows; a zero row
    drops its pair), via SVD, batched: (K, 3), (n, K, 3) -> (n, 3, 3)."""
    B = vs.transpose(0, 2, 1) @ us
    U, _, Vt = np.linalg.svd(B)
    U[..., 2] *= np.sign(np.linalg.det(U @ Vt))[:, None]
    return U @ Vt


def fit_params_to_positions(
    tree: KinematicTree,
    positions: np.ndarray,
    present: np.ndarray | None = None,
) -> PoseParams:
    """Closed-form pose from joint positions, all frames at once.

    Each rotated joint aligns its rest-pose child directions to the observed
    child directions (minimal rotation for one child, least-squares rotation
    for several).  When the observed positions are exactly realizable on the
    tree the result reproduces them exactly; otherwise it is a good starting
    point for refinement.  Joints marked absent contribute no alignment pairs,
    nor does a child closer than 1e-12 to its joint; a frame left with one
    usable pair takes the minimal rotation, and a frame with none keeps the
    identity local rotation.

    The root translation is taken from the observed root position, which must
    be present in every frame.
    """
    positions = np.asarray(positions, dtype=np.float64)
    F, J, _ = positions.shape
    if present is None:
        present = np.ones((F, J), dtype=bool)
    if not present[:, 0].all():
        raise ValueError("root position must be present in every frame")

    eye = np.broadcast_to(np.eye(3), (F, 3, 3))
    local = np.empty((F, tree.n_rotations, 3, 3), dtype=np.float64)
    G: dict[int, np.ndarray] = {}
    for j in tree.rotated_joints:
        p = tree.parents[j]
        Gp = eye if p < 0 else G[p]
        kids = list(tree.children[j])
        v = positions[:, kids] - positions[:, j, None]        # (F, K, 3)
        nv = np.linalg.norm(v, axis=2)
        usable = present[:, kids] & present[:, j, None] & (nv >= 1e-12)
        # Observed unit directions in the parent's frame; unusable rows are 0.
        vs = np.where(usable[..., None], v, 0.0) / np.where(usable, nv, 1.0)[..., None]
        vs = vs @ Gp
        us = tree.rest_dirs[kids]
        n_usable = usable.sum(axis=1)
        R = eye.copy()
        one = np.flatnonzero(n_usable == 1)
        if one.size:
            pick = usable[one].argmax(axis=1)
            R[one] = _align_single(us[pick], vs[one, pick])
        many = np.flatnonzero(n_usable >= 2)
        if many.size:
            R[many] = _align_many(us, vs[many])
        G[j] = Gp @ R
        local[:, tree.rot_slot[j]] = R
    return PoseParams(translations=positions[:, 0].copy(), rotations=so3_log(local))
