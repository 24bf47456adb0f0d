"""Rigid kinematic trees: rotation algebra, forward kinematics, pose fitting.

A pose is one root translation plus a local rotation matrix for every joint
that has children, relative to its parent's frame.  Bone lengths are fixed,
so forward kinematics maps (translation, rotations) to joint positions
exactly on the bone-length manifold.  The fit steps on these matrices by
left-multiplied increments exp(hat(d)) R, d in the parent's frame, and
nothing converts them to another rotation representation.

position_jacobian is the Jacobian in the fit's step (KinematicTree.step_layout);
position_jacobian_vjp forms J^T r in three increments per rotated joint, the
energy gradient's layout, and StepLayout.project takes it onto a step's axes.

The math here is generic over any rooted tree; the canonical 21-joint skeleton
is exposed as CANONICAL_TREE.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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
    # I + a K + b K^2, accumulated in place: the same sums in another order
    # (K's diagonal is zero), with no (..., 3, 3) temporaries beyond R and K.
    K = hat(w)
    R = K @ K
    R *= b[..., None, None]
    K *= a[..., None, None]
    R += K
    R.reshape(R.shape[:-2] + (9,))[..., ::4] += 1.0
    return R


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

    @cached_property
    def subtree_matrix(self) -> np.ndarray:
        """(NR, J): row s is 1 at the strict descendants of rotation slot s's
        joint and 0 elsewhere, so it sums a per-joint array over subtrees."""
        _, desc, slots = self.rotation_pairs
        out = np.zeros((self.n_rotations, self.n_joints))
        out[slots, desc] = 1.0
        return out

    @cached_property
    def swing_bases(self) -> tuple[np.ndarray, np.ndarray]:
        """The rotated joints with exactly one child, as their rotation slots
        and, per joint, an orthonormal basis (3, 3) of its own frame whose
        last column is the child's rest direction r.  The first two are
        perpendicular to r: u = r x e / |r x e|, e the coordinate axis along
        which r is smallest, then v = r x u.  Turning such a joint about its
        own bone leaves the child in place, and whatever it moves further
        down, the child's rotation can undo."""
        single = [j for j in self.rotated_joints if len(self.children[j]) == 1]
        r = self.rest_dirs[[self.children[j][0] for j in single]].reshape(-1, 3)
        u = np.cross(r, np.eye(3)[np.argmin(np.abs(r), axis=1)])
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        slots = np.array([self.rot_slot[j] for j in single], dtype=np.intp)
        return slots, np.stack((u, np.cross(r, u), r), axis=-1)

    def _limb_order(self, widths: np.ndarray) -> list[int | None]:
        """The step layout's column groups in frame order: None for the
        root translation, s for rotation slot s, whose kept axes number
        widths[s].  The root's leading child subtrees come first, then the
        translation and the root's rotation, then the other subtrees.  The
        translation and the root's rotation move every joint, so they couple
        with every column, and the split point is the prefix of the root's
        children that leaves the two sides closest in width: a column's
        distance to the root's columns, not its order within its side, sets
        the band."""
        subtrees = [[self.rot_slot[j] for j in (c, *self.descendants[c])
                     if self.rot_slot[j] >= 0] for c in self.children[0]]
        sums = np.cumsum([0] + [int(widths[sub].sum()) for sub in subtrees])
        split = int(np.argmin(np.maximum(sums, sums[-1] - sums)))
        head = [s for sub in subtrees[:split] for s in sub]
        tail = [s for sub in subtrees[split:] for s in sub]
        root = [self.rot_slot[0]] if self.rot_slot[0] >= 0 else []
        return [*head, None, *root, *tail]

    @cached_property
    def step_layout(self) -> "StepLayout":
        """The solver's per-frame step parameters: the root translation,
        then each rotated joint's turns about its step axes (swing_axes),
        of which a joint with one child keeps the first two and every other
        joint all three.  The columns run in limb order (_limb_order): on
        CANONICAL_TREE the spine and arms, then the translation and the
        pelvis, then the legs."""
        _, desc, slots = self.rotation_pairs
        keep = np.ones((self.n_rotations, 3), dtype=bool)
        keep[self.swing_bases[0], 2] = False
        widths = keep.sum(axis=1)
        P = 3 + int(widths.sum())
        columns = np.full(keep.shape, -1, dtype=np.intp)
        start = 0
        for s in self._limb_order(widths):
            if s is None:
                translation = np.arange(start, start + 3)
                start += 3
            else:
                columns[s, keep[s]] = np.arange(start, start + widths[s])
                start += widths[s]
        # moves[c, j] = 1 where column c moves joint j: the translation
        # moves every joint, an axis of a rotation its joint's strict
        # descendants.  Two columns of one frame couple where they move
        # a common joint, and the smoothness term couples frames two
        # apart, so the normal matrix's lower bandwidth is 2P plus the
        # largest distance between two coupled columns.
        moves = np.zeros((P, self.n_joints))
        moves[translation] = 1.0
        pair_columns = columns[slots]                     # (pairs, 3)
        hit = pair_columns >= 0
        moves[pair_columns[hit], np.broadcast_to(desc[:, None], hit.shape)[hit]] = 1.0
        a, b = np.nonzero(moves @ moves.T)
        bandwidth = 2 * P + int(np.abs(a - b).max())
        # The flat cell (descendant, row, column) within a frame of each
        # (pair, row, axis) block cell, and the cells the layout keeps.
        rows = desc[:, None, None] * 3 + np.arange(3)[:, None]
        cells = rows * P + pair_columns[:, None, :]
        kept = np.broadcast_to(keep[slots][:, None, :], cells.shape)
        return StepLayout(columns, translation, P, bandwidth,
                          np.flatnonzero(kept), cells[kept])

    @property
    def n_rotations(self) -> int:
        return len(self.rotated_joints)

    @property
    def params_per_frame(self) -> int:
        """The columns of position_jacobian_vjp and energy_gradient."""
        return 3 + 3 * self.n_rotations


class StepLayout(NamedTuple):
    """Step parameters per frame, params_per_frame of them: the root
    translation's three in columns translation, and columns[s, i] for axis
    i of rotation slot s (-1 where that axis is not a parameter).  Their
    normal matrix has lower bandwidth bandwidth (see
    KinematicTree.step_layout).  position_jacobian copies cell src[k] of
    its flattened (pair, row, axis) blocks to flat frame cell dst[k]."""

    columns: np.ndarray
    translation: np.ndarray
    params_per_frame: int
    bandwidth: int
    src: np.ndarray
    dst: np.ndarray

    def project(self, increments: np.ndarray, axes: np.ndarray) -> np.ndarray:
        """J^T r (F, params_per_frame) for steps about axes (F, NR, 3, 3),
        from position_jacobian_vjp's J^T r in increments (F, 3 + 3 NR):
        axis i of slot s takes the slot's entries along axes[:, s, :, i]."""
        F = increments.shape[0]
        out = np.empty((F, self.params_per_frame))
        out[:, self.translation] = increments[:, :3]
        # einsum takes about a third of the time on a contiguous operand.
        per_slot = np.ascontiguousarray(increments[:, 3:]).reshape(F, -1, 3)
        moment = np.einsum("fnij,fni->fnj", axes, per_slot)
        kept = self.columns >= 0
        out[:, self.columns[kept]] = moment[:, kept]
        return out


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
    rotations: (F, NR, 3, 3) local rotation matrices, one per rotated joint
    in tree.rotated_joints order, each relative to its parent's frame.

    Bone lengths are exact only for rotations, so every matrix must be one:
    |R^T R - I| <= 1e-9 (Frobenius) and det R > 0, or ValueError.
    """

    translations: np.ndarray
    rotations: np.ndarray

    def __post_init__(self) -> None:
        self.translations = np.asarray(self.translations, dtype=np.float64)
        self.rotations = np.asarray(self.rotations, dtype=np.float64)
        if self.translations.ndim != 2 or self.translations.shape[1] != 3:
            raise ValueError("translations must have shape (F, 3)")
        if self.rotations.ndim != 4 or self.rotations.shape[2:] != (3, 3):
            raise ValueError("rotations must have shape (F, NR, 3, 3)")
        if self.rotations.shape[0] != self.translations.shape[0]:
            raise ValueError("translations and rotations disagree on frame count")
        R = self.rotations
        # R^T R from a contiguous transpose, which matmul takes faster; a
        # non-finite or huge entry gives a drift that is not <= 1e-9, without
        # a warning.  Once the drift is within 1e-9, det R is 1 or -1 to
        # within about 1e-9, so the column triple product c0 . (c1 x c2)
        # gives its sign without an LU factorization.
        with np.errstate(invalid="ignore", over="ignore"):
            RtR = np.ascontiguousarray(R.swapaxes(-1, -2)) @ R
            drift = np.linalg.norm(RtR - np.eye(3), axis=(-2, -1))
        if not (np.all(drift <= 1e-9)
                and np.all(np.einsum("...i,...i->...", R[..., 0],
                                     _cross(R[..., 1], R[..., 2])) > 0)):
            raise ValueError("rotations must be rotation matrices")

    @property
    def n_frames(self) -> int:
        return self.translations.shape[0]


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
    X, G = _fk_from_matrices(tree, lengths, params.translations, params.rotations)
    if with_globals:
        return X, G
    return X


def position_jacobian(
    tree: KinematicTree,
    X: np.ndarray,
    G: np.ndarray,
    axes: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """d(position)/d(step) per frame: (F, J, 3, P), P per tree.step_layout
    (35 on CANONICAL_TREE, in limb order).

    Rotated joint b's step parameters turn it about axes given in its
    parent's frame: column i of axes[f, s] (F, NR, 3, 3) is the axis of
    slot s's i-th parameter, of which a joint with one child keeps two
    (swing_axes gives the solver's, perpendicular to the bone).

    Descendant d of b moves with b's axes as hat(X_b - X_d) M_b, M_b the
    global rotation of b's parent (the identity at the root) times the
    axes.  All of these blocks, one per tree.rotation_pairs entry, are
    formed in one batch, and the layout's kept cells are scattered at once;
    every other cell is a translation identity or a structural zero.

    out, when given, must be a C-contiguous result of an earlier call for
    the same tree, or a leading frame slice of one.  Its identities and
    zeros are kept, its rotation blocks are rewritten in place, and it is
    returned.
    """
    F, J, _ = X.shape
    layout = tree.step_layout
    if out is None:
        out = np.zeros((F, J, 3, layout.params_per_frame), dtype=np.float64)
        out[..., layout.translation] = np.eye(3)
    joints, desc, slots = tree.rotation_pairs
    rotated = np.asarray(tree.rotated_joints)
    parents = np.asarray(tree.parents)[rotated]
    M = G[:, np.maximum(parents, 0)]               # (F, NR, 3, 3)
    M[:, parents < 0] = np.eye(3)
    blocks = hat(X[:, joints] - X[:, desc]) @ (M @ axes)[:, slots]  # (F, pairs, 3, 3)
    out.reshape(F, -1)[:, layout.dst] = blocks.reshape(F, -1)[:, layout.src]
    return out


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Cross products over the last axis, a x b; on small batches a third
    of np.cross's time."""
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    np.subtract(a1 * b2, a2 * b1, out=out[..., 0])
    np.subtract(a2 * b0, a0 * b2, out=out[..., 1])
    np.subtract(a0 * b1, a1 * b0, out=out[..., 2])
    return out


def position_jacobian_vjp(
    tree: KinematicTree,
    X: np.ndarray,
    G: np.ndarray,
    r: np.ndarray,
) -> np.ndarray:
    """J^T r per frame, (F, tree.params_per_frame), for r (F, J, 3) a vector
    per joint and J the joint positions' Jacobian in the root translation
    and, per rotation slot, the increment d that turns R to exp(hat(d)) R,
    without forming J.

    The root translation moves every joint alike, so its three entries are
    the sum of r over the joints.  Rotated joint b moves descendant d by
    hat(X_b - X_d) M_b, M_b the global rotation of b's parent, so its three
    entries are M_b^T m_b with the moment m_b = sum over b's strict
    descendants d of (X_d - X_b) x r_d, that is
    sum X_d x r_d - X_b x sum r_d: two subtree sums, which one product with
    tree.subtree_matrix per frame forms.  Positions are taken relative to
    the root, which leaves every X_d - X_b alone and keeps the sums from
    cancelling at a large camera distance."""
    F = X.shape[0]
    rotated = np.asarray(tree.rotated_joints)
    parents = np.asarray(tree.parents)[rotated]
    rel = X - X[:, :1]
    both = np.empty(r.shape[:2] + (6,))  # r and rel x r, summed at once
    both[..., :3] = r
    _cross(rel, r, out=both[..., 3:])
    sums = tree.subtree_matrix @ both                             # (F, NR, 6)
    moment = sums[..., 3:] - _cross(rel[:, rotated], sums[..., :3])
    # M_b^T m_b: into the parent's frame (the root's is the global one).
    moved = parents >= 0
    moment[:, moved] = np.einsum("fnij,fni->fnj", G[:, parents[moved]], moment[:, moved])
    return np.concatenate((r.sum(axis=1), moment.reshape(F, -1)), axis=1)


def swing_axes(tree: KinematicTree, rot_local: np.ndarray) -> np.ndarray:
    """Parent-frame step axes (F, NR, 3, 3) of the solver's swing layout
    at local rotations rot_local (F, NR, 3, 3).

    A joint with one child gets R_j times its tree.swing_bases basis: two
    axes perpendicular to its bone, then the bone direction
    R_j rest_dirs[child] itself, which tree.step_layout leaves out.  Every
    other joint keeps the identity."""
    slots, bases = tree.swing_bases
    axes = np.empty(rot_local.shape)
    axes[...] = np.eye(3)
    axes[:, slots] = rot_local[:, slots] @ bases
    return axes


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
    return PoseParams(translations=positions[:, 0].copy(), rotations=local)
