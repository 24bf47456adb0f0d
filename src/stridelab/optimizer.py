"""Anatomically constrained sequence optimization.

Fits a fixed-bone-length kinematic skeleton to noisy per-frame 3D (and,
when the stream has them, 2D) detections by minimizing

    E = w_ik * E_ik + w_proj * E_proj + w_smooth * E_smooth + w_depth * E_depth

where E_ik sums squared distances between model joints and detected 3D
joints, E_proj sums confidence-weighted squared pixel errors between
projected model joints and detected 2D joints, E_smooth sums squared second
temporal differences of all model joint positions, and E_depth sums squared
first temporal differences of the root depth.

The solver is damped Gauss-Newton over the whole sequence at once.  Only
frames at most two apart couple (through the second-difference smoothness
term), so the normal matrix is block-pentadiagonal with bandwidth 3P - 1, P
step parameters per frame: three for the root translation, two for a joint
with one child (the swing directions perpendicular to its bone: turning it
about the bone leaves the child in place, and what it moves further down
the child's rotation can undo, so that direction adds nothing to the range
of the Jacobian) and three for every other rotated joint.  On
CANONICAL_TREE that is P = 35 and bandwidth 104 (45 and 134 with three
parameters per joint).  Each iteration writes it once, straight into LAPACK
lower band storage held column-major, and each damped step is a banded
Cholesky solve that factors that storage in place.  The matrix is
assembled in fixed-size frame chunks, so no Jacobian or block array spans
the walk: a solve holds one band, reused across iterations, plus per-frame
residuals and weights and one chunk's buffers.  A step is accepted only
when it strictly decreases the energy, otherwise the damping is increased,
the band assembled again at the same pose (the failed attempt overwrote it
with its factor) and the step recomputed.  The fit stops when a step
changes the energy by at most a set fraction of it (EnergyConfig.tolerance),
and says why it stopped (STOP_REASONS).  Rotations advance by
left-multiplied increments about the step axes and are re-centred every
iteration, so the parameterization never sits near its angle-pi
singularity; PoseParams keeps three exponential-map parameters per rotated
joint.

The residuals are evaluated in one place, EnergyProblem._residuals: the
energy sums their weighted squares, and the Gauss-Newton step and the
gradient (2 J^T W r) both read them through _normal_blocks, so the three
describe the same function.
"""

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from . import kinematics as kin
from .errors import DegenerateInput, FrameCountMismatch, MissingModality
from .kinematics import CANONICAL_TREE, KinematicTree, PoseParams
from .skeleton import (
    AnatomyProfile,
    CameraModel,
    Point3D,
    SkeletonFrame3D,
    SkeletonSequence,
    frame_records,
)

_MIN_DEPTH = 1e-6
# Marquardt damping: start, factor up on a rejected step, down on an accepted one, cap.
_INIT_DAMPING = 1e-3
_DAMPING_INCREASE = 5.0
_DAMPING_DECREASE = 3.0
_MAX_DAMPING = 1e14
# Frames per chunk of the Gauss-Newton normal-matrix assembly (_normal_blocks).
_CHUNK_FRAMES = 32
# The smallest EnergyConfig.tolerance: below it the relative-decrease test
# sits under the rounding noise of the energy sum, so fits run to
# max_iterations.
_MIN_TOLERANCE = 1e-10

# Why EnergyProblem.solve stopped: an accepted step lowered the energy by at
# most the relative tolerance ("decrease"); a rejected step left it flat to
# within that tolerance, or no parameter moves any residual ("flat"); no
# damping up to _MAX_DAMPING gave an acceptable step ("damping_exhausted");
# or max_iterations steps were taken ("iteration_cap").
STOP_REASONS = ("decrease", "flat", "damping_exhausted", "iteration_cap")
CONVERGED_REASONS = frozenset({"decrease", "flat"})


@dataclass(frozen=True)
class EnergyConfig:
    """Energy weights, the iteration cap and the stopping tolerance of the fit.

    w_proj=None resolves to 1/fx^2 for the camera in use, which weighs squared
    pixel residuals like squared metric residuals at unit depth.  tolerance
    is a relative energy decrease in [_MIN_TOLERANCE, 1): the fit stops once
    an accepted step lowers the energy by at most tolerance times its value,
    or a rejected one changes it by at most that much, and otherwise after
    max_iterations (at least 1) steps with converged=False.  Weights are
    non-negative.  A field outside its range raises ValueError whose message
    starts with the field name.
    """

    w_ik: float = 1.0
    w_proj: Optional[float] = None
    w_smooth: float = 0.1
    w_depth: float = 0.1
    max_iterations: int = 80
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("w_ik", "w_proj", "w_smooth", "w_depth"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name}: must be non-negative, got {value}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations: must be at least 1, got {self.max_iterations}")
        # 1 or more would stop after any first step.
        if not _MIN_TOLERANCE <= self.tolerance < 1.0:
            raise ValueError(f"tolerance: must be at least {_MIN_TOLERANCE:g} and below 1, "
                             f"got {self.tolerance}")

    def resolved_w_proj(self, camera: CameraModel) -> float:
        return 1.0 / (camera.fx * camera.fx) if self.w_proj is None else self.w_proj


@dataclass(frozen=True, eq=False)
class OptimizedSequence:
    """Optimizer output: the fitted joint positions plus diagnostics.

    points_3d (F, J, 3) holds every joint of every frame; frame f is video
    frame indices[f] at times[f] seconds, as in the fitted sequence.
    stop_reason says why the fit stopped (see STOP_REASONS)."""

    points_3d: np.ndarray
    times: np.ndarray
    indices: np.ndarray
    fps: float
    camera_distance_m: tuple[float, ...]
    final_energy: float
    energy_breakdown: Mapping[str, float]
    energy_history: tuple[float, ...]
    iterations: int
    stop_reason: str
    params: PoseParams = field(repr=False)
    source: str = ""

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def converged(self) -> bool:
        """True when the fit stopped at a minimum: on a small relative
        decrease or a flat step, not at the iteration cap or with the
        damping exhausted."""
        return self.stop_reason in CONVERGED_REASONS

    @property
    def mask_3d(self) -> np.ndarray:
        """(F, J) presence mask: the fit places every joint."""
        return np.ones(self.points_3d.shape[:2], dtype=bool)

    @property
    def frames(self) -> tuple[SkeletonFrame3D, ...]:
        """The fitted positions as per-frame records, built on each access."""
        return frame_records(SkeletonFrame3D, Point3D, self.indices, self.times,
                             self.points_3d, self.mask_3d)


def _targets_3d(seq: SkeletonSequence):
    """The 3D targets (F, J, 3) and mask (F, J) of the fit; MissingModality
    when the sequence has no 3D joint at all."""
    if seq.points_3d is None or not seq.mask_3d.any():
        raise MissingModality(
            "the fit needs 3D joints: depth cannot be recovered from 2D joints alone"
        )
    return seq.points_3d, seq.mask_3d


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
        y2: np.ndarray,
        conf: np.ndarray,
        camera: CameraModel,
        w_ik: float,
        w_proj: float,
        w_smooth: float,
        w_depth: float,
    ) -> None:
        self.tree = tree
        self.lengths = np.asarray(lengths, dtype=np.float64)
        self.y3 = y3
        self.m3 = m3.astype(np.float64)
        self.y2 = y2
        self.conf = conf
        self._active = conf > 0  # joints with a 2D detection
        self.camera = camera
        self.w_ik = w_ik
        self.w_proj = w_proj
        self.w_smooth = w_smooth
        self.w_depth = w_depth
        self.F = y3.shape[0]
        # Diagonals of D^T D, the frame coupling of the smoothness term's
        # Gauss-Newton blocks.
        self._m_diag = _second_difference_gram(self.F)

    # -- residuals and energy ---------------------------------------------

    def _residuals(self, X: np.ndarray):
        """Unweighted residuals at joint positions X: (r3, z, du, dv, dd, dz).

        r3 = X - y3 (F, J, 3); z the depths the projection divides by, 1
        where a joint has no 2D detection (F, J); du, dv the pixel residuals
        (F, J); dd the second differences of X over frames (F - 2, J, 3),
        None when F < 3; dz the root-depth steps (F - 1,).  Masks,
        confidences and weights are applied by the callers."""
        cam = self.camera
        z = np.where(self._active, X[..., 2], 1.0)
        du = cam.fx * X[..., 0] / z + cam.cx - self.y2[..., 0]
        dv = cam.fy * X[..., 1] / z + cam.cy - self.y2[..., 1]
        dd = X[2:] - 2.0 * X[1:-1] + X[:-2] if self.F >= 3 else None
        return X - self.y3, z, du, dv, dd, np.diff(X[:, 0, 2])

    def energy_terms(self, X: np.ndarray) -> Optional[dict[str, float]]:
        """Weighted term values for joint positions X, or None when a joint
        sits at non-positive depth (the step is then rejected outright)."""
        if np.any(X[self._active][:, 2] < _MIN_DEPTH):
            return None
        r3, _, du, dv, dd, dz = self._residuals(X)
        e_smooth = 0.0 if dd is None else float(np.sum(dd * dd))
        return {
            "ik": self.w_ik * float(np.sum(self.m3[..., None] * r3 ** 2)),
            "proj": self.w_proj * float(np.sum(self.conf * (du * du + dv * dv))),
            "smooth": self.w_smooth * e_smooth,
            "depth": self.w_depth * float(np.sum(dz ** 2)),
        }

    def energy_from_params(self, params: PoseParams) -> tuple[float, dict[str, float]]:
        X = kin.forward_kinematics(self.tree, self.lengths, params)
        terms = self.energy_terms(X)
        if terms is None:
            return math.inf, {}
        return sum(terms.values()), terms

    def gradient(self, params: PoseParams) -> np.ndarray:
        """Analytic dE/dparams in PoseParams.as_vector() layout: (F * P,).

        E is a weighted sum of squared residuals, so dE/dparams = 2 J^T W r
        with J the residuals' Jacobian in the exponential-map parameters of
        params: the right-hand side of the Gauss-Newton step, taken at params
        itself instead of at a left-multiplied increment."""
        X, G = kin.forward_kinematics(self.tree, self.lengths, params, with_globals=True)
        _, jtr = self._normal_blocks(X, G, axes=kin.so3_left_jacobian(params.rotations))
        return 2 * jtr.reshape(-1)

    # -- Gauss-Newton solver ----------------------------------------------

    def _normal_blocks(self, X, G, axes=None, swing=False, out=None):
        """J^T W J and J^T W r at joint positions X, with respect to the step
        parameters that axes and swing give kin.position_jacobian:
        left-multiplied rotation increments by default (P = 45 per frame on
        CANONICAL_TREE), the exponential-map parameters with
        axes = so3_left_jacobian(rotations) (P = 45), or the solver's swing
        layout with kin.swing_axes and swing=True (P = 35).

        J^T W J is returned in LAPACK lower band storage, ab[i - j, j] = H[i, j]
        with bandwidth 3P - 1, shape (3P, F * P).  ab is the transpose of a
        C-order (F * P, 3P) array, so it is column-major: block (f + k, f),
        element (a, b) sits in that array at [fP + b, kP + a - b], and each
        block is written as P contiguous runs.  Cells past the matrix end and
        cells of the (zero) blocks three frames apart are zero.  With out
        given (a band this method returned before, for the same problem,
        possibly overwritten since by its Cholesky factor), the band is
        written into it: every cell is rewritten.

        The band is filled in chunks of _CHUNK_FRAMES frames.  Each chunk
        takes the position Jacobian of its frames and of the two that follow
        (the smoothness blocks (f + k, f), k = 1, 2, need them), forms its
        diagonal blocks, right-hand sides and off-diagonal blocks and writes
        them into its rows of the band.  The ik, smoothness and projection
        terms of joint j in frame f fold into one symmetric 3 x 3 weight,
        W = w_row I + w_proj conf dpi^T dpi (dpi the 2 x 3 projection
        Jacobian), so a diagonal block is the one product J^T (W J) and its
        right-hand side J^T r~ with r~ = resid + w_proj conf dpi^T (du, dv).
        Beyond the band and per-frame residuals, memory is bounded by one
        chunk's buffers, reused from chunk to chunk, whatever F is."""
        tree = self.tree
        F, P, J = self.F, tree.step_layouts[swing].params_per_frame, tree.n_joints
        cam = self.camera
        r3, z, du, dv, dd, dz = self._residuals(X)
        m0, m1, m2 = self._m_diag

        # The per-joint weight of the ik and smoothness diagonal blocks,
        # w_ik * m3 + w_smooth * (D^T D)_ff, and their residuals.
        w_row = self.w_ik * self.m3 + self.w_smooth * m0[:, None]  # (F, J)
        resid = self.w_ik * self.m3[..., None] * r3
        if dd is not None:
            w = np.zeros_like(X)
            w[2:] += dd
            w[1:-1] -= 2.0 * dd
            w[:-2] += dd
            resid += self.w_smooth * w
        # The projection's rows of dpi/dX for u, (fx/z, 0, cu), and for v,
        # (0, fy/z, cv), weighted by w_proj * conf.
        cw = self.w_proj * self.conf
        fu, fv = cam.fx / z, cam.fy / z
        cu, cv = -fu * X[..., 0] / z, -fv * X[..., 1] / z
        resid[..., 0] += cw * fu * du
        resid[..., 1] += cw * fv * dv
        resid[..., 2] += cw * (cu * du + cv * dv)
        weight = np.empty((F, J, 3, 3))
        weight[..., 0, 0] = w_row + cw * fu * fu
        weight[..., 1, 1] = w_row + cw * fv * fv
        weight[..., 2, 2] = w_row + cw * (cu * cu + cv * cv)
        weight[..., 0, 1] = weight[..., 1, 0] = 0.0
        weight[..., 0, 2] = weight[..., 2, 0] = cw * fu * cu
        weight[..., 1, 2] = weight[..., 2, 1] = cw * fv * cv
        dcount = np.zeros(F)  # root-depth steps each frame takes part in
        dcount[1:] += 1.0
        dcount[:-1] += 1.0

        if out is None:
            ab = np.zeros((3 * P, F * P), order="F")
        else:
            # out may hold a Cholesky factor, which fills in cells no write
            # below covers (the blocks three frames apart, and with F < 3
            # every off-diagonal block): clear it.
            ab = out
            ab.fill(0.0)
        band = ab.T.reshape(F, P, 3 * P)  # a view: ab is column-major
        jtr = np.empty((F, P))
        item = band.itemsize
        # The cells (b, a), a >= b, of the k = 0 band view that hold a
        # diagonal block's lower triangle.
        lower = np.triu(np.ones((P, P), dtype=bool))

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
                tree, X[s:ahead], G[s:ahead],
                axes=None if axes is None else axes[s:ahead],
                swing=swing,
                out=None if jac is None else jac[:ahead - s],
            )                                          # (ahead - s, J, 3, P)
            flat = jac.reshape(ahead - s, -1, P)       # (ahead - s, 3J, P)
            flat_t = flat.transpose(0, 2, 1)

            wj = np.matmul(weight[s:e], jac[:n], out=wjac[:n])
            d = np.matmul(flat_t[:n], wj.reshape(n, -1, P), out=diag[:n])
            jtr[s:e] = (flat_t[:n] @ resid[s:e].reshape(n, -1, 1))[..., 0]
            d[:, 2, 2] += self.w_depth * dcount[s:e]
            # Element (f, b, a) of the k = 0 view is H[fP + a, fP + b], lower
            # for a >= b.
            np.copyto(block_view(s, 0, n), d.transpose(0, 2, 1), where=lower)

            # Smoothness couples frames f and f + k through (D^T D)_{f,f+k} times
            # flat[f]^T flat[f+k]; the weighted flat[f+k] goes into W J's
            # buffer, free once the diagonal blocks are formed (scaling the
            # strided product in the band measured slower).
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
                    np.matmul(flat_t[:m], scaled, out=block_view(s, k, m))
        if F >= 2:
            gd = np.zeros(F)
            gd[1:] += dz
            gd[:-1] -= dz
            jtr[:, 2] += self.w_depth * gd
            # The root-depth coupling of frames f and f + 1.
            band[:-1, 2, P] -= self.w_depth
        return ab, jtr

    @staticmethod
    def _damped_solve(ab, damping, rhs) -> np.ndarray:
        """Solve (H + diag(damping)) x = rhs, H in lower band storage ab
        (ab[0] is the diagonal).  ab, column-major, is damped and factored
        in place: it holds the Cholesky factor afterwards, or, when this
        raises LinAlgError (the damped matrix is not numerically positive
        definite), a partial one."""
        # Imported here, the one place that factors, so that a process that
        # never fits (simulate, agree, report) never loads scipy.linalg.
        from scipy.linalg import cho_solve_banded, cholesky_banded

        ab[0] += damping
        chol = cholesky_banded(ab, lower=True, overwrite_ab=True, check_finite=False)
        return cho_solve_banded((chol, True), rhs, check_finite=False)

    def solve(self, init: PoseParams, cfg: EnergyConfig):
        """Damped Gauss-Newton from init.  Returns (params, info dict).

        Steps are taken in the swing layout: every iteration builds the step
        axes of all rotated joints at once (kin.swing_axes), so a joint with
        one child steps only in the two directions perpendicular to its
        bone, and the band has P = 35 parameters per frame and bandwidth
        3P - 1 = 104 on CANONICAL_TREE instead of 45 and 134.  A step s maps
        back to each rotation as exp(axes s) R.

        Each damped attempt factors the band in place, so a retry (a failed
        factorization, a non-finite or a rejected step) assembles the band
        again at the same pose before it adds the larger damping.

        The stopping tests are relative to the energy E, as in the
        Levenberg-Marquardt stopping tests of Madsen, Nielsen & Tingleff
        (2004): an accepted step with E_k - E_k+1 <= tolerance * E_k stops
        as "decrease", a rejected step with |E_new - E_k| <= tolerance * E_k
        as "flat".  info["stop_reason"] is one of STOP_REASONS."""
        tree = self.tree
        F = self.F
        layout = tree.step_layouts[True]
        P = layout.params_per_frame
        t = init.translations.copy()
        rot = kin.so3_exp(init.rotations)  # local rotation matrices, (F, NR, 3, 3)

        X, G = kin._fk_from_matrices(tree, self.lengths, t, rot)
        terms = self.energy_terms(X)
        if terms is None:
            raise DegenerateInput("initial pose projects a joint at non-positive depth")
        energy = sum(terms.values())
        history = [energy]
        lam = _INIT_DAMPING
        iterations = 0
        # One band, rewritten every iteration and factored in place by each
        # damped solve: freeing and reallocating it costs fresh zeroed pages.
        ab = None

        for _ in range(cfg.max_iterations):
            axes = kin.swing_axes(tree, rot)
            ab, jtr = self._normal_blocks(X, G, axes, swing=True, out=ab)
            g = jtr.reshape(-1)
            d0 = ab[0]
            if d0.max() == 0.0:
                # No parameter moves any residual: there is nothing to step.
                stop_reason = "flat"
                break
            # Multiplicative (Marquardt) damping keeps steps invariant under a
            # uniform rescaling of all four weights; the relative floor guards
            # parameters with no residual influence.
            damp_base = np.maximum(d0, 1e-12 * d0.max())

            # Kept when every damping up to the cap fails to give a step.
            stop_reason = "damping_exhausted"
            factored = False
            while lam <= _MAX_DAMPING:
                if factored:
                    # The last attempt left its (possibly partial) factor in
                    # ab: assemble the band again at the same pose, which
                    # gives the same band.
                    self._normal_blocks(X, G, axes, swing=True, out=ab)
                factored = True
                try:
                    delta = self._damped_solve(ab, lam * damp_base, -g)
                except np.linalg.LinAlgError:
                    lam *= _DAMPING_INCREASE
                    continue
                if not np.all(np.isfinite(delta)):
                    lam *= _DAMPING_INCREASE
                    continue
                # Each rotation's step coefficients per axis, with a zero
                # appended for the axes the layout leaves out (column -1),
                # turn it about axes @ coefficients.
                step = np.zeros((F, P + 1))
                step[:, :P] = delta.reshape(F, P)
                t_new = t + step[:, :3]
                inc = kin.so3_exp((axes @ step[:, layout.columns, None])[..., 0])
                rot_new = inc @ rot
                X_new, G_new = kin._fk_from_matrices(tree, self.lengths, t_new, rot_new)
                terms_new = self.energy_terms(X_new)
                if terms_new is not None:
                    energy_new = sum(terms_new.values())
                    # Relative to the energy, like the damping, so a uniform
                    # rescaling of the weights or a longer walk stops alike.
                    floor = cfg.tolerance * energy
                    if energy_new < energy:
                        stop_reason = "decrease" if energy - energy_new <= floor else None
                        t, rot = t_new, rot_new
                        X, G = X_new, G_new
                        energy, terms = energy_new, terms_new
                        history.append(energy)
                        lam = max(lam / _DAMPING_DECREASE, 1e-12)
                        iterations += 1
                        break
                    if abs(energy_new - energy) <= floor:
                        # Flat to within tolerance (also at an energy of
                        # exactly 0): already at a minimum.
                        stop_reason = "flat"
                        iterations += 1
                        break
                lam *= _DAMPING_INCREASE
            if stop_reason is not None:
                break
        else:
            stop_reason = "iteration_cap"

        params = PoseParams(translations=t, rotations=kin.so3_log(rot))
        info = {
            "energy": energy,
            "terms": terms,
            "history": tuple(history),
            "iterations": iterations,
            "stop_reason": stop_reason,
        }
        return params, info


def _problem_for(
    seq: SkeletonSequence,
    anatomy: AnatomyProfile,
    camera: CameraModel,
    cfg: EnergyConfig,
) -> EnergyProblem:
    """The energy of seq.  Without a 2D block the 2D targets carry zero
    confidence, so a 3D-only stream is fitted on its 3D term."""
    y3, m3 = _targets_3d(seq)
    if seq.pixels_2d is None:
        y2, conf = np.zeros(y3.shape[:2] + (2,)), np.zeros(m3.shape)
    else:
        y2, conf = seq.pixels_2d, seq.confidence_2d
    empty = ~(m3.any(axis=1) | (conf > 0).any(axis=1))
    if empty.any():
        raise DegenerateInput(
            f"frame(s) {np.flatnonzero(empty).tolist()} carry no joints in either stream"
        )
    return EnergyProblem(
        CANONICAL_TREE,
        kin.lengths_vector(anatomy),
        y3,
        m3,
        y2,
        conf,
        camera,
        w_ik=cfg.w_ik,
        w_proj=cfg.resolved_w_proj(camera),
        w_smooth=cfg.w_smooth,
        w_depth=cfg.w_depth,
    )


def _check_params(params: PoseParams, n_frames: int) -> None:
    if params.n_frames != n_frames:
        raise FrameCountMismatch(
            f"params cover {params.n_frames} frames, sequence has {n_frames}"
        )


def energy(
    params: PoseParams,
    seq: SkeletonSequence,
    anatomy: AnatomyProfile,
    camera: Optional[CameraModel] = None,
    cfg: EnergyConfig = EnergyConfig(),
) -> float:
    """Total energy of a candidate pose parameterization."""
    prob = _problem_for(seq, anatomy, camera or CameraModel.default(), cfg)
    _check_params(params, prob.F)
    total, _ = prob.energy_from_params(params)
    return total


def energy_breakdown(
    params: PoseParams,
    seq: SkeletonSequence,
    anatomy: AnatomyProfile,
    camera: Optional[CameraModel] = None,
    cfg: EnergyConfig = EnergyConfig(),
) -> dict[str, float]:
    """Weighted per-term energies: keys ik, proj, smooth, depth."""
    prob = _problem_for(seq, anatomy, camera or CameraModel.default(), cfg)
    _check_params(params, prob.F)
    _, terms = prob.energy_from_params(params)
    return terms


def energy_gradient(
    params: PoseParams,
    seq: SkeletonSequence,
    anatomy: AnatomyProfile,
    camera: Optional[CameraModel] = None,
    cfg: EnergyConfig = EnergyConfig(),
) -> np.ndarray:
    """Analytic gradient of the energy in PoseParams.as_vector() layout:
    2 J^T W r, J the weighted residuals' Jacobian in exponential-map
    parameters."""
    prob = _problem_for(seq, anatomy, camera or CameraModel.default(), cfg)
    _check_params(params, prob.F)
    return prob.gradient(params)


def initial_params(
    seq: SkeletonSequence,
    anatomy: AnatomyProfile,
    tree: KinematicTree = CANONICAL_TREE,
) -> PoseParams:
    """Initialization: root from detected pelvis, rotations from closed-form
    alignment of detected bone directions; gaps filled by interpolation."""
    y3, m3 = _targets_3d(seq)
    return _initial_params_from(y3, m3, anatomy, tree)


def _initial_params_from(
    y3: np.ndarray,
    m3: np.ndarray,
    anatomy: AnatomyProfile,
    tree: KinematicTree,
) -> PoseParams:
    """initial_params on 3D targets y3 (F, J, 3) with mask m3 (F, J), which
    must mark at least one joint."""
    F, J, _ = y3.shape
    pos = y3.copy()
    obs = m3.astype(bool)

    frame_idx = np.arange(F, dtype=np.float64)
    root_obs = obs[:, 0]
    if not root_obs.any():
        # No pelvis anywhere: fall back to the per-frame centroid of whatever
        # 3D joints exist, then interpolate the truly empty frames.
        counts = obs.sum(axis=1)
        root_obs = counts > 0
        with np.errstate(invalid="ignore"):
            pos[:, 0] = np.where(
                root_obs[:, None],
                np.nansum(np.where(obs[..., None], pos, np.nan), axis=1)
                / np.maximum(counts, 1)[:, None],
                0.0,
            )
    for axis in range(3):
        pos[:, 0, axis] = np.interp(
            frame_idx, frame_idx[root_obs], pos[root_obs, 0, axis]
        )
    obs[:, 0] = True

    lengths = kin.lengths_vector(anatomy) if tree is CANONICAL_TREE else None
    for j in range(1, J):
        seen = obs[:, j]
        if seen.any():
            for axis in range(3):
                pos[:, j, axis] = np.interp(frame_idx, frame_idx[seen], pos[seen, j, axis])
        else:
            # Never observed: hang the joint off its parent in rest direction.
            p = tree.parents[j]
            step = tree.rest_dirs[j] * (lengths[j] if lengths is not None else 0.0)
            pos[:, j] = pos[:, p] + step
    return kin.fit_params_to_positions(tree, pos)


def optimize(
    seq: SkeletonSequence,
    anatomy: AnatomyProfile,
    camera: Optional[CameraModel] = None,
    cfg: EnergyConfig = EnergyConfig(),
    init: Optional[PoseParams] = None,
) -> OptimizedSequence:
    """Fit the skeleton to a sequence with 3D joints and, when present, 2D
    joints.

    Never raises on failure to converge: the best parameters found are
    returned with converged=False when the iteration cap is hit or the
    damping is exhausted first; stop_reason says which.
    """
    camera = camera or CameraModel.default()
    prob = _problem_for(seq, anatomy, camera, cfg)
    if init is None:
        init = _initial_params_from(prob.y3, prob.m3, anatomy, CANONICAL_TREE)
    _check_params(init, prob.F)
    params, info = prob.solve(init, cfg)

    X = kin.forward_kinematics(CANONICAL_TREE, kin.lengths_vector(anatomy), params)
    distances = tuple(float(d) for d in np.linalg.norm(params.translations, axis=1))
    return OptimizedSequence(
        points_3d=X,
        times=seq.times,
        indices=seq.indices,
        fps=seq.fps,
        camera_distance_m=distances,
        final_energy=info["energy"],
        energy_breakdown=dict(info["terms"]),
        energy_history=info["history"],
        iterations=info["iterations"],
        stop_reason=info["stop_reason"],
        params=params,
        source=seq.source,
    )
