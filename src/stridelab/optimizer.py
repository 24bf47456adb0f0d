"""Anatomically constrained sequence optimization.

Fits a fixed-bone-length kinematic skeleton to noisy per-frame 3D
detections by minimizing

    E = E_ik + w_smooth * E_smooth

where E_ik sums squared distances between model joints and detected 3D
joints and E_smooth sums squared second temporal differences of all model
joint positions.  The solver is scale-free (relative stopping tests,
Marquardt damping), so a weight on E_ik would only rescale E: w_smooth is
the one weight.  A stream's 2D joints, when it has them, are not read.
optimize returns the fitted walk as an OptimizedSequence: a
SkeletonSequence of the input's frames, validated as a parsed one is,
with every joint of every frame placed and the fit's diagnostics added.

The solver is damped Gauss-Newton over the whole sequence at once.  Only
frames at most two apart couple (through the second-difference smoothness
term), so the normal matrix is block-pentadiagonal.  Each frame has P step
parameters: three for the root translation, two for a joint with one child
(the swing directions perpendicular to its bone: turning it about the bone
leaves the child in place, and what it moves further down the child's
rotation can undo, so that direction adds nothing to the range of the
Jacobian) and three for every other rotated joint.  They run in limb order:
the columns of the root's leading subtrees, then the root translation and
rotation, which move every joint, then the other subtrees.  Columns of
different subtrees never couple, so the bandwidth is 2P plus the widest
distance between two columns of one frame that move a common joint
(KinematicTree.step_layout).  On CANONICAL_TREE that is P = 35 and
bandwidth 90: spine and arms, pelvis, legs.  A fresh step writes the matrix
straight into LAPACK lower band storage held column-major and solves by a
banded Cholesky factorization of that storage, in place (LAPACK's dpbtrf
and dpbtrs, called on scipy's compiled extension, which _lapack loads
without the scipy.linalg package).  The matrix is assembled in fixed-size
frame chunks, so no Jacobian or block array spans the walk: a solve holds
one band, reused across iterations, plus per-frame residuals, weights and
poses and one chunk's buffers.  Chunks belong to the assembly alone: the
right-hand side J^T r~ needs no Jacobian and is formed over the whole walk
in one pass (EnergyProblem._jtr).  A step is
accepted only when it strictly decreases the energy, otherwise the
damping is increased, the band assembled again at the same pose (the
failed attempt overwrote it with its factor) and the step recomputed.

Once the energy drops settle (an accepted drop at most half the one
before it), the next step is a reuse step: it solves with the factor
still in the band, in that factor's step axes, against the gradient at
the current pose, which kin.position_jacobian_vjp forms from subtree
sums without a Jacobian, in three increments per rotated joint, and
StepLayout.project takes onto the step axes.  That is the chord method
inside the damped loop; a reuse step that does not lower the energy is
retaken fresh.  The fit stops when a step changes the energy by at most a
set fraction of it (EnergyConfig.tolerance): a fresh step on that test
alone, a reuse step only when its drop is also at most half the one
before, so the chord iteration's contraction bounds the decrease still to
come by the same fraction.  It says why it stopped (STOP_REASONS).
PoseParams holds the local rotation matrices themselves; each step
left-multiplies them by the exponential of a small increment about the
step axes, so no rotation is ever expressed by a parameter vector with a
singularity to avoid.

The residuals are evaluated in one place, EnergyProblem._residuals: the
energy sums their weighted squares, and _weighted_residuals turns them
into r~ = dE/dX / 2, whose product J^T r~ with the position Jacobian is
both the gradient (times 2) and the right-hand side of every step, so the
three describe the same function.
"""

import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from typing import Mapping, NamedTuple, Optional

import numpy as np

from . import kinematics as kin
from .errors import DegenerateInput, FrameCountMismatch, MissingModality
from .kinematics import CANONICAL_TREE, KinematicTree, PoseParams
from .skeleton import AnatomyProfile, CameraModel, SkeletonSequence

# Marquardt damping: start, factor up on a rejected step, down on an accepted one, cap.
_INIT_DAMPING = 1e-3
_DAMPING_INCREASE = 5.0
_DAMPING_DECREASE = 3.0
_MAX_DAMPING = 1e14
# Frames per chunk of the Gauss-Newton normal-matrix assembly (_normal_blocks),
# the one walk-long computation whose per-frame buffers (Jacobians and
# blocks) are too large to hold for every frame at once; its right-hand side
# (_jtr) is formed over the whole walk.
_CHUNK_FRAMES = 32
# The smallest EnergyConfig.tolerance: below it the relative-decrease test
# sits under the rounding noise of the energy sum, so fits run to
# max_iterations.
_MIN_TOLERANCE = 1e-10
# The largest ratio of an accepted energy drop to the one before it at which
# the drops count as contracting: such a step hands its factor to the next
# step, and a reuse step with such a drop at most the tolerance stops the fit.
_CONTRACTION = 0.5

# Why EnergyProblem.solve stopped: an accepted fresh step, or a contracting
# reuse step, lowered the energy by at most the relative tolerance
# ("decrease"); a rejected fresh step left it flat to within that
# tolerance ("flat"); no damping up to _MAX_DAMPING gave an acceptable step
# ("damping_exhausted"); or max_iterations steps were taken
# ("iteration_cap").
STOP_REASONS = ("decrease", "flat", "damping_exhausted", "iteration_cap")
CONVERGED_REASONS = frozenset({"decrease", "flat"})

_LAPACK_MODULE = "scipy.linalg._flapack"


@functools.cache
def _lapack():
    """scipy's compiled LAPACK wrapper, scipy/linalg/_flapack, loaded alone.

    The solver needs only dpbtrf and dpbtrs, the routines behind
    scipy.linalg.cholesky_banded and cho_solve_banded.  After stridelab.cli
    is imported, importing the scipy.linalg package for them loads 301
    more modules, about 25 MB and 0.23 s; the scipy package and this
    extension load 16, about 3 MB and 14 ms.  That cut analyze's peak RSS
    on 12 walks from 71 to 48 MB on one worker and from 58 to 42 MB on two
    (2 vCPUs, scipy 1.17).  The module is registered under its own name, so
    a later import of scipy.linalg reuses it, and one that came first is
    reused here.  Raises ImportError naming the directories searched when
    scipy ships no such extension."""
    module = sys.modules.get(_LAPACK_MODULE)
    if module is not None:
        return module
    import scipy

    dirs = [os.path.join(d, "linalg") for d in scipy.__path__]
    for d in dirs:
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(d, "_flapack" + suffix)
            if os.path.isfile(path):
                loader = ExtensionFileLoader(_LAPACK_MODULE, path)
                spec = importlib.util.spec_from_file_location(
                    _LAPACK_MODULE, path, loader=loader)
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                sys.modules[_LAPACK_MODULE] = module
                return module
    raise ImportError(
        f"scipy's LAPACK extension _flapack not found in {', '.join(dirs)}",
        name=_LAPACK_MODULE,
    )


def _check_info(routine: str, info: int) -> None:
    """Raise as scipy does on a LAPACK routine's info code: LinAlgError for
    a leading minor that is not positive definite, ValueError for an
    illegal argument."""
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal {routine}")


@dataclass(frozen=True)
class EnergyConfig:
    """The smoothness weight, iteration cap and stopping tolerance of the fit.

    w_smooth weighs the squared second differences of the joint
    trajectories against the squared distances to the detected 3D joints,
    whose weight is 1: a second weight would only rescale the energy, which
    changes no fit (EnergyProblem.solve).  tolerance is a relative energy
    decrease in [_MIN_TOLERANCE, 1): the fit stops once an accepted step
    lowers the energy by at most tolerance times its value (a step that
    reuses an earlier factorization only when its drop is also at most
    half the drop before it), or a rejected step from a fresh factorization
    changes it by at most that much, and otherwise after max_iterations (at
    least 1) accepted steps of either kind (see EnergyProblem.solve) with
    converged=False.  w_smooth is finite and non-negative.  A field outside
    its range raises ValueError whose message starts with the field name.
    """

    w_smooth: float = 0.1
    max_iterations: int = 80
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if not math.isfinite(self.w_smooth):
            raise ValueError(f"w_smooth: must be finite, got {self.w_smooth}")
        if self.w_smooth < 0:
            raise ValueError(f"w_smooth: must be non-negative, got {self.w_smooth}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations: must be at least 1, got {self.max_iterations}")
        # 1 or more would stop after any first step.
        if not _MIN_TOLERANCE <= self.tolerance < 1.0:
            raise ValueError(f"tolerance: must be at least {_MIN_TOLERANCE:g} and below 1, "
                             f"got {self.tolerance}")


@dataclass(frozen=True, eq=False, kw_only=True)
class OptimizedSequence(SkeletonSequence):
    """The fitted walk: a SkeletonSequence with the fit's diagnostics.

    It has the input's fps, times, indices, subject_height_m and source,
    a 3D block holding every joint of every frame (mask_3d all true) and
    no 2D block, and it is validated like a parsed sequence: a fit that
    places a joint at z <= 0 raises NonPositiveDepth.  camera_distance_m
    is the root's distance from the camera per frame, energy_history the
    energy before the first step and after each accepted one (its last
    entry the final energy, split by term in energy_breakdown), and
    stop_reason says why the fit stopped (see STOP_REASONS)."""

    camera_distance_m: tuple[float, ...]
    energy_breakdown: Mapping[str, float]
    energy_history: tuple[float, ...]
    iterations: int
    stop_reason: str
    params: PoseParams = field(repr=False)

    # The fitted joints as per-frame records, under the name
    # perfbench/bench.py reads.
    frames = SkeletonSequence.frames_3d

    @property
    def converged(self) -> bool:
        """True when the fit stopped at a minimum: on a small relative
        decrease or a flat step, not at the iteration cap or with the
        damping exhausted."""
        return self.stop_reason in CONVERGED_REASONS


def _targets_3d(seq: SkeletonSequence):
    """The 3D targets (F, J, 3) and mask (F, J) of the fit, the only joints
    it reads: MissingModality when the sequence has no 3D joint at all,
    DegenerateInput naming the frames that have none."""
    if seq.points_3d is None or not seq.mask_3d.any():
        raise MissingModality(
            "the fit needs 3D joints: depth cannot be recovered from 2D joints alone"
        )
    empty = ~seq.mask_3d.any(axis=1)
    if empty.any():
        raise DegenerateInput(
            f"frame(s) {np.flatnonzero(empty).tolist()} carry no 3D joint"
        )
    return seq.points_3d, seq.mask_3d


class _Trial(NamedTuple):
    """A pose a step leads to: root translations, local rotations, joint
    positions, global rotations, the energy terms and their sum."""

    t: np.ndarray
    rot: np.ndarray
    X: np.ndarray
    G: np.ndarray
    terms: dict[str, float]
    energy: float


def _second_difference_gram(n_frames: int):
    """Diagonals 0, 1 and 2 of D^T D, D the (F-2) x F second-difference
    operator over frames (rows 1, -2, 1); all zero when F < 3."""
    coef = (1.0, -2.0, 1.0)
    rows = max(n_frames - 2, 0)
    diagonals = []
    for k in range(3):
        d = np.zeros(max(n_frames - k, 0))
        for a in range(3 - k):
            d[a:a + rows] += coef[a] * coef[a + k]
        diagonals.append(d)
    return tuple(diagonals)


class EnergyProblem:
    """The energy, its gradient, and the Gauss-Newton solver for one sequence.

    Generic over the kinematic tree so small synthetic trees can exercise the
    same code paths the 21-joint skeleton uses.
    """

    def __init__(
        self,
        tree: KinematicTree,
        lengths: np.ndarray,
        y3: np.ndarray,
        m3: np.ndarray,
        w_smooth: float,
    ) -> None:
        self.tree = tree
        self.lengths = np.asarray(lengths, dtype=np.float64)
        self.y3 = y3
        self.m3 = m3.astype(np.float64)
        self.w_smooth = w_smooth
        self.F = y3.shape[0]
        # Diagonals of D^T D, the frame coupling of the smoothness term's
        # Gauss-Newton blocks.
        self._m_diag = _second_difference_gram(self.F)

    # -- residuals and energy ---------------------------------------------

    def _residuals(self, X: np.ndarray):
        """Unweighted residuals at joint positions X: (r3, dd).

        r3 = X - y3 (F, J, 3); dd the second differences of X over frames
        (F - 2, J, 3), None when F < 3.  Masks and weights are applied by
        the callers."""
        dd = X[2:] - 2.0 * X[1:-1] + X[:-2] if self.F >= 3 else None
        return X - self.y3, dd

    def energy_terms(self, X: np.ndarray) -> dict[str, float]:
        """Weighted term values for joint positions X."""
        r3, dd = self._residuals(X)
        e_smooth = 0.0 if dd is None else float(np.sum(dd * dd))
        return {
            "ik": float(np.sum(self.m3[..., None] * r3 ** 2)),
            "smooth": self.w_smooth * e_smooth,
        }

    def energy_from_params(self, params: PoseParams) -> tuple[float, dict[str, float]]:
        terms = self.energy_terms(kin.forward_kinematics(self.tree, self.lengths, params))
        return sum(terms.values()), terms

    def _weighted_residuals(self, X: np.ndarray) -> np.ndarray:
        """r~ (F, J, 3) at joint positions X: half the energy's gradient with
        respect to the joint positions, dE/dX / 2.  The ik term gives
        m3 (X - y3) and the smoothness term w_smooth D^T dd, so J^T r~ is
        J^T W r for any position Jacobian J."""
        r3, dd = self._residuals(X)
        resid = self.m3[..., None] * r3
        if dd is not None:
            wdd = self.w_smooth * dd
            resid[2:] += wdd
            resid[1:-1] -= 2.0 * wdd
            resid[:-2] += wdd
        return resid

    def _jtr(self, X, G, resid, axes) -> np.ndarray:
        """J^T r~ (F, P) at joint positions X for the weighted residuals
        resid of _weighted_residuals, in the step layout about axes (see
        _normal_blocks).  No Jacobian or band is formed:
        kin.position_jacobian_vjp sums r~ over subtrees and the layout
        projects the sums onto the axes, over the whole walk in one call
        each.  Their buffers hold a few values per joint and frame, no more
        than the residuals do, so unlike the assembly's they need no
        chunks."""
        increments = kin.position_jacobian_vjp(self.tree, X, G, resid)
        return self.tree.step_layout.project(increments, axes)

    def gradient(self, params: PoseParams) -> np.ndarray:
        """Analytic dE/dstep at params, (F * P,) with P = tree.params_per_frame.

        Per frame the step is the root translation, then, per rotated joint,
        an increment d in its parent's frame that moves its rotation R to
        exp(hat(d)) R.  E is a weighted sum of squared residuals, so the
        gradient is 2 J^T W r = 2 J^T r~, J the joint positions' Jacobian in
        these steps (kin.position_jacobian_vjp)."""
        X, G = kin.forward_kinematics(self.tree, self.lengths, params, with_globals=True)
        resid = self._weighted_residuals(X)
        return 2 * kin.position_jacobian_vjp(self.tree, X, G, resid).reshape(-1)

    # -- Gauss-Newton solver ----------------------------------------------

    def _normal_blocks(self, X, G, axes, out=None):
        """J^T W J at joint positions X, with respect to the step parameters
        of tree.step_layout about axes (kin.position_jacobian; the solver's
        are kin.swing_axes, P = 35 per frame on CANONICAL_TREE).  Its
        right-hand side J^T W r is _jtr's.

        J^T W J is returned in LAPACK lower band storage, ab[i - j, j] = H[i, j]
        with the layout's bandwidth kd (90 on CANONICAL_TREE), shape
        (kd + 1, F * P).  ab is the transpose of a C-order (F * P, kd + 1)
        array, so it is column-major: block (f + k, f), element (a, b) sits
        in that array at [fP + b, kP + a - b], and each block is written as
        P contiguous runs.  The cells of a block two frames apart with
        a - b > kd - 2P lie outside the band; they are structurally zero,
        and are not written.  Cells past the matrix end and cells of the
        (zero) blocks three frames apart are zero.  With out given (a band
        this method returned before, for the same problem, possibly
        overwritten since by its Cholesky factor), the band is written into
        it: every cell is rewritten.

        The band is filled in chunks of _CHUNK_FRAMES frames.  Each chunk
        takes the position Jacobian of its frames and of the two that follow
        (the smoothness blocks (f + k, f), k = 1, 2, need them), forms its
        diagonal and off-diagonal blocks and writes them into its rows of
        the band.  The ik and smoothness terms of joint j in frame f weigh
        its three coordinates alike, W = w_row I with w_row = m3 +
        w_smooth (D^T D)_ff, so a diagonal block is the one product
        J^T (w_row J).  Beyond the band and per-frame weights,
        memory is bounded by one chunk's buffers, reused from chunk to
        chunk, whatever F is."""
        tree = self.tree
        layout = tree.step_layout
        F, P, J = self.F, layout.params_per_frame, tree.n_joints
        kd = layout.bandwidth
        m0, m1, m2 = self._m_diag

        # The per-joint weight of the diagonal blocks,
        # m3 + w_smooth * (D^T D)_ff, shaped to scale a Jacobian.
        w_row = (self.m3 + self.w_smooth * m0[:, None])[..., None, None]

        if out is None:
            ab = np.zeros((kd + 1, F * P), order="F")
        else:
            # out may hold a Cholesky factor.  With F >= 3 the smoothness
            # blocks rewrite every cell a factor can make nonzero (its fill
            # stays right of each row's first nonzero); with F < 3 none is
            # written, and the factor's off-diagonal cells must be cleared.
            ab = out
            if F < 3:
                ab.fill(0.0)
        band = ab.T.reshape(F, P, kd + 1)  # a view: ab is column-major
        item = band.itemsize
        # The cells (b, a), a >= b, of the k = 0 band view that hold a
        # diagonal block's lower triangle, and those, a - b <= kd - 2P, of a
        # k = 2 view that lie in the band: the view maps the others into
        # the next column's cells.
        lower = np.triu(np.ones((P, P), dtype=bool))
        in_band = np.tril(np.ones((P, P), dtype=bool), kd - 2 * P)

        def block_view(s, k, m):
            """Blocks (f + k, f), f = s .. s + m - 1, as an (m, P, P) view
            of the band whose (f, b, a) element is band[f, b, kP + a - b]."""
            return np.lib.stride_tricks.as_strided(
                band[s:, :, k * P:],
                shape=(m, P, P),
                strides=(band.strides[0], band.strides[1] - item, item),
            )

        # The first chunk's Jacobian is the largest (ahead - s never grows),
        # so each later chunk writes into a leading frame slice of it.
        n_max = min(_CHUNK_FRAMES, F)
        jac = None
        wjac = np.empty((n_max, J, 3, P))
        diag = np.empty((n_max, P, P))
        for s in range(0, F, _CHUNK_FRAMES):
            e = min(s + _CHUNK_FRAMES, F)
            n, ahead = e - s, min(e + 2, F)
            jac = kin.position_jacobian(
                tree, X[s:ahead], G[s:ahead], axes[s:ahead],
                out=None if jac is None else jac[:ahead - s],
            )                                          # (ahead - s, J, 3, P)
            flat = jac.reshape(ahead - s, -1, P)       # (ahead - s, 3J, P)
            flat_t = flat.transpose(0, 2, 1)

            wj = np.multiply(jac[:n], w_row[s:e], out=wjac[:n])
            d = np.matmul(flat_t[:n], wj.reshape(n, -1, P), out=diag[:n])
            # Element (f, b, a) of the k = 0 view is H[fP + a, fP + b], lower
            # for a >= b.
            np.copyto(block_view(s, 0, n), d.transpose(0, 2, 1), where=lower)

            # Smoothness couples frames f and f + k through (D^T D)_{f,f+k} times
            # flat[f]^T flat[f+k]; the weighted flat[f+k] goes into W J's
            # buffer, free once the diagonal blocks are formed (scaling the
            # strided product in the band measured slower).  A k = 1 block
            # lies wholly in the band; a k = 2 block is formed in the
            # diagonal blocks' buffer and its in-band cells copied.
            if F >= 3:
                for k, mk in ((1, m1), (2, m2)):
                    m = min(e, F - k) - s
                    if m <= 0:
                        continue
                    scaled = np.multiply(
                        flat[k:k + m],
                        (self.w_smooth * mk[s:s + m])[:, None, None],
                        out=wjac[:m].reshape(m, -1, P),
                    )
                    if k == 1:
                        np.matmul(flat_t[:m], scaled, out=block_view(s, k, m))
                    else:
                        np.matmul(flat_t[:m], scaled, out=diag[:m])
                        np.copyto(block_view(s, k, m), diag[:m], where=in_band)
        return ab

    @staticmethod
    def _damped_solve(ab, damping, rhs) -> np.ndarray:
        """Solve (H + diag(damping)) x = rhs, H in lower band storage ab
        (ab[0] is the diagonal).  ab, column-major, is damped and factored
        in place: it holds the Cholesky factor afterwards, which
        _factor_solve can solve with again, or, when this raises
        LinAlgError (the damped matrix is not numerically positive
        definite), a partial one."""
        # The same LAPACK calls as scipy.linalg.cholesky_banded(ab,
        # lower=True, overwrite_ab=True) and cho_solve_banded((ab, True),
        # rhs), so the steps are bit-identical; _lapack loads the extension
        # on the first solve, so a process that never fits (simulate, agree,
        # report) never loads it.
        ab[0] += damping
        _, info = _lapack().dpbtrf(ab, lower=1, overwrite_ab=1)
        _check_info("pbtrf", info)
        return EnergyProblem._factor_solve(ab, rhs)

    @staticmethod
    def _factor_solve(ab, rhs) -> np.ndarray:
        """Solve L L^T x = rhs, L the lower Cholesky factor in band storage
        that _damped_solve left in ab."""
        x, info = _lapack().dpbtrs(ab, rhs, lower=1)
        _check_info("pbtrs", info)
        return x

    def _trial(self, t, rot, axes, delta) -> Optional[_Trial]:
        """The pose after step delta (F * P,) on step axes axes from (t,
        rot), or None when delta is not finite."""
        if not np.all(np.isfinite(delta)):
            return None
        layout = self.tree.step_layout
        P = layout.params_per_frame
        # Each rotation's step coefficients per axis, with a zero appended
        # for the axes the layout leaves out (column -1), turn it about
        # axes @ coefficients.
        step = np.zeros((self.F, P + 1))
        step[:, :P] = delta.reshape(self.F, P)
        t_new = t + step[:, layout.translation]
        rot_new = kin.so3_exp((axes @ step[:, layout.columns, None])[..., 0]) @ rot
        X, G = kin._fk_from_matrices(self.tree, self.lengths, t_new, rot_new)
        terms = self.energy_terms(X)
        return _Trial(t_new, rot_new, X, G, terms, sum(terms.values()))

    def solve(self, init: PoseParams, cfg: EnergyConfig):
        """Damped Gauss-Newton from init.  Returns (params, info dict);
        info["joints"] holds the positions (F, J, 3) of the returned params.

        Steps are taken in tree.step_layout, about the step axes a fresh
        step builds for all rotated joints at once (kin.swing_axes); a step
        s maps back to each rotation as exp(axes s) R.

        A fresh step assembles the band at the current pose and factors it
        damped, in place.  A retry (a failed factorization, a non-finite or
        a rejected step) assembles the band again at the same pose before
        it adds the larger damping.

        Once the pose has settled, the factor is reused (the chord, or
        Shamanskii, method; Kelley, Iterative Methods for Linear and
        Nonlinear Equations, 1995, ch. 5): an accepted step whose energy
        drop contracts, at most _CONTRACTION (one half) times the previous
        accepted drop, and is still above tolerance * E, hands the factor it
        leaves in ab, with its step axes, to the next step.  That reuse step
        takes the gradient J^T r~ at the current pose in those axes and
        solves with the factor, with no
        assembly and no factorization.  It is kept only if it strictly
        lowers the energy, and then lowers the damping like any accepted
        step; otherwise it is retaken as a fresh step at the same pose.
        The first step never hands over, having no earlier drop, and
        info["iterations"] counts accepted steps of both kinds.

        The stopping tests are relative to the energy E, as in the
        Levenberg-Marquardt stopping tests of Madsen, Nielsen & Tingleff
        (2004): an accepted fresh step with E_k - E_k+1 <= tolerance * E_k
        stops as "decrease", a rejected fresh step with
        |E_new - E_k| <= tolerance * E_k as "flat".  An accepted reuse step
        stops as "decrease" when its drop is within the same bound and
        contracts as above.  The chord iteration converges q-linearly: while
        its drops keep contracting by a ratio q <= 1/2, the decrease still
        to come is at most drop * q / (1 - q) <= drop <= tolerance * E_k,
        the bound the fresh test gives, so the confirming fresh step (one
        assembly and one factorization) is not taken.  After a reuse step whose drop is
        that small but does not contract, the next step is fresh, and it
        decides.  info["stop_reason"] is one of STOP_REASONS.  At data
        weight 1 and a 3D joint in every frame (_targets_3d), each frame's
        translation diagonal is at least 1; the damping's relative floor
        covers a rotation with no observed descendant, whose diagonal is 0
        at w_smooth = 0."""
        tree = self.tree
        t, rot = init.translations, init.rotations

        X, G = kin._fk_from_matrices(tree, self.lengths, t, rot)
        terms = self.energy_terms(X)
        energy = sum(terms.values())
        history = [energy]
        lam = _INIT_DAMPING
        iterations = 0
        # One band, rewritten at every fresh step and factored in place by
        # each damped solve: freeing and reallocating it costs fresh zeroed
        # pages.
        ab = None
        # The step axes of the factor in ab while the next step reuses it.
        reuse_axes = None
        # The previous accepted energy drop; none before the first step.
        last_drop = 0.0

        for _ in range(cfg.max_iterations):
            # Relative to the energy, like the damping, so a rescaled
            # energy or a longer walk stops alike.
            floor = cfg.tolerance * energy
            resid = self._weighted_residuals(X)
            new = None
            if reuse_axes is not None:
                axes, reuse_axes = reuse_axes, None
                g = self._jtr(X, G, resid, axes).reshape(-1)
                new = self._trial(t, rot, axes, self._factor_solve(ab, -g))
                if new is not None and not new.energy < energy:
                    new = None
            fresh = new is None
            if fresh:
                axes = kin.swing_axes(tree, rot)
                ab = self._normal_blocks(X, G, axes, out=ab)
                d0 = ab[0]
                # Multiplicative (Marquardt) damping keeps steps invariant
                # under a rescaling of the energy; the relative floor guards
                # parameters with no residual influence.
                damp_base = np.maximum(d0, 1e-12 * d0.max())
                g = self._jtr(X, G, resid, axes).reshape(-1)

                # Kept when every damping up to the cap fails to give a step.
                stop_reason = "damping_exhausted"
                factored = False
                while lam <= _MAX_DAMPING:
                    if factored:
                        # The last attempt left its (possibly partial) factor
                        # in ab: assemble the band again at the same pose,
                        # which gives the same band.
                        self._normal_blocks(X, G, axes, out=ab)
                    factored = True
                    try:
                        new = self._trial(t, rot, axes,
                                          self._damped_solve(ab, lam * damp_base, -g))
                    except np.linalg.LinAlgError:
                        new = None
                    if new is not None:
                        if new.energy < energy:
                            break
                        if abs(new.energy - energy) <= floor:
                            # Flat to within tolerance (also at an energy of
                            # exactly 0): already at a minimum.
                            stop_reason = "flat"
                            iterations += 1
                            new = None
                            break
                        new = None
                    lam *= _DAMPING_INCREASE
                if new is None:
                    break

            drop = energy - new.energy
            t, rot, X, G, terms, energy = new
            history.append(energy)
            lam = max(lam / _DAMPING_DECREASE, 1e-12)
            iterations += 1
            contracting = drop <= _CONTRACTION * last_drop
            if drop <= floor and (fresh or contracting):
                stop_reason = "decrease"
                break
            if contracting:
                # Above the floor here: the step hands its factor over.
                reuse_axes = axes
            last_drop = drop
        else:
            stop_reason = "iteration_cap"

        params = PoseParams(translations=t, rotations=rot)
        info = {
            "joints": X,
            "terms": terms,
            "history": tuple(history),
            "iterations": iterations,
            "stop_reason": stop_reason,
        }
        return params, info


def _problem_for(seq: SkeletonSequence, anatomy: AnatomyProfile,
                 cfg: EnergyConfig) -> EnergyProblem:
    """The energy of seq, on its 3D joints alone (see _targets_3d)."""
    y3, m3 = _targets_3d(seq)
    return EnergyProblem(CANONICAL_TREE, kin.lengths_vector(anatomy), y3, m3,
                         w_smooth=cfg.w_smooth)


def _check_params(params: PoseParams, n_frames: int) -> None:
    if params.n_frames != n_frames:
        raise FrameCountMismatch(
            f"params cover {params.n_frames} frames, sequence has {n_frames}"
        )


def energy(
    params: PoseParams,
    seq: SkeletonSequence,
    anatomy: AnatomyProfile,
    cfg: EnergyConfig = EnergyConfig(),
) -> float:
    """Total energy of a candidate pose parameterization."""
    prob = _problem_for(seq, anatomy, cfg)
    _check_params(params, prob.F)
    total, _ = prob.energy_from_params(params)
    return total


def energy_breakdown(
    params: PoseParams,
    seq: SkeletonSequence,
    anatomy: AnatomyProfile,
    cfg: EnergyConfig = EnergyConfig(),
) -> dict[str, float]:
    """Weighted per-term energies: keys ik and smooth."""
    prob = _problem_for(seq, anatomy, cfg)
    _check_params(params, prob.F)
    _, terms = prob.energy_from_params(params)
    return terms


def energy_gradient(
    params: PoseParams,
    seq: SkeletonSequence,
    anatomy: AnatomyProfile,
    cfg: EnergyConfig = EnergyConfig(),
) -> np.ndarray:
    """Analytic gradient of the energy at params, (F * 45,) on the skeleton:
    per frame the root translation's three components, then three per
    rotated joint for the increment d (in its parent's frame) that turns its
    rotation R to exp(hat(d)) R.  See EnergyProblem.gradient."""
    prob = _problem_for(seq, anatomy, cfg)
    _check_params(params, prob.F)
    return prob.gradient(params)


def initial_params(seq: SkeletonSequence, anatomy: AnatomyProfile) -> PoseParams:
    """Initialization: root from detected pelvis, rotations from closed-form
    alignment of detected bone directions; a joint missing from a frame is
    interpolated.  Refuses the sequences optimize refuses (_targets_3d)."""
    y3, m3 = _targets_3d(seq)
    return _initial_params_from(y3, m3, anatomy)


def _initial_params_from(
    y3: np.ndarray,
    m3: np.ndarray,
    anatomy: AnatomyProfile,
) -> PoseParams:
    """initial_params on 3D targets y3 (F, J, 3) with mask m3 (F, J), which
    must mark at least one joint in every frame."""
    F, J, _ = y3.shape
    pos = y3.copy()
    obs = m3.astype(bool)

    frame_idx = np.arange(F, dtype=np.float64)
    root_obs = obs[:, 0]
    if not root_obs.any():
        # No pelvis anywhere: fall back to the centroid of each frame's 3D
        # joints, which every frame has.
        pos[:, 0] = (np.where(obs[..., None], pos, 0.0).sum(axis=1)
                     / obs.sum(axis=1)[:, None])
        root_obs = obs.any(axis=1)
    for axis in range(3):
        pos[:, 0, axis] = np.interp(
            frame_idx, frame_idx[root_obs], pos[root_obs, 0, axis]
        )
    obs[:, 0] = True

    tree = CANONICAL_TREE
    lengths = kin.lengths_vector(anatomy)
    for j in range(1, J):
        seen = obs[:, j]
        if seen.any():
            for axis in range(3):
                pos[:, j, axis] = np.interp(frame_idx, frame_idx[seen], pos[seen, j, axis])
        else:
            # Never observed: hang the joint off its parent in rest direction.
            p = tree.parents[j]
            pos[:, j] = pos[:, p] + tree.rest_dirs[j] * lengths[j]
    return kin.fit_params_to_positions(tree, pos)


def optimize(
    seq: SkeletonSequence,
    anatomy: AnatomyProfile,
    camera: Optional[CameraModel] = None,
    cfg: EnergyConfig = EnergyConfig(),
    init: Optional[PoseParams] = None,
) -> OptimizedSequence:
    """Fit the skeleton to a sequence's 3D joints; its 2D joints are not read.

    Returns the fitted walk as an OptimizedSequence, a SkeletonSequence of
    the input's frames; a fit that places a joint at z <= 0 raises
    NonPositiveDepth, as parsing such a joint does.  camera is accepted
    and ignored: the fit projects nothing, and perfbench/bench.py's
    analyze_walk still passes it.  Never raises on failure to converge:
    the best parameters found are returned with converged=False when the
    iteration cap is hit or the damping is exhausted first; stop_reason
    says which.
    """
    prob = _problem_for(seq, anatomy, cfg)
    if init is None:
        init = _initial_params_from(prob.y3, prob.m3, anatomy)
    _check_params(init, prob.F)
    params, info = prob.solve(init, cfg)
    X = info["joints"]
    distances = tuple(float(d) for d in np.linalg.norm(params.translations, axis=1))
    return OptimizedSequence(
        fps=seq.fps,
        times=seq.times,
        indices=seq.indices,
        points_3d=X,
        mask_3d=np.ones(X.shape[:2], dtype=bool),
        subject_height_m=seq.subject_height_m,
        source=seq.source,
        camera_distance_m=distances,
        energy_breakdown=dict(info["terms"]),
        energy_history=info["history"],
        iterations=info["iterations"],
        stop_reason=info["stop_reason"],
        params=params,
    )
