"""Synthetic walking sequences with exact ground truth.

The walker lays down a steady-state gait: the pelvis advances at constant
speed along the heading, each foot alternates between a stance phase (ground
position exactly constant) and a cycloidal swing that advances one stride
(two step lengths) with zero velocity at lift-off and touchdown.  Landings
happen every step time T; after each landing both feet stay planted for the
double-support fraction of T.

The sequence starts mid-swing before the first in-sequence landing and ends
mid-swing after the last one, so every landing is an interior maximum of the
inter-ankle distance signal, and the noiseless signal attains the configured
step length exactly during each double-support plateau.

All joint positions are generated through the same kinematic tree the
optimizer fits (legs via closed-form two-bone inverse kinematics, trunk rigid,
arms and head on phase-locked sinusoids), so the ground-truth pose parameters
reproduce the noiseless frames through forward kinematics exactly.

Each joint's track is built over all frames at once, as array expressions of
the frame times, and every frame rounds as one computed on its own would.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

import numpy as np

from . import kinematics as kin
from .errors import InconsistentSpec
from .kinematics import CANONICAL_TREE, PoseParams
from .skeleton import (
    N_JOINTS,
    PARENT,
    AnatomyProfile,
    CameraModel,
    JointId,
    SkeletonSequence,
    derive_anatomy,
    project,
)

_SPEED_TOL = 1e-9
_REACH_MARGIN = 0.98
# The most steps, and the most frames, one walk may have: a spec beyond
# either fails before generate allocates anything for it.
_MAX_FRAMES = 100_000
# The farthest start position, in metres along x and z, a walk may have: a
# walk stays where the camera projects it to finite pixels.
_MAX_START_M = 1000.0
# Parity (1 = right foot), then hip, knee, ankle, heel and foot tip.
_LEGS = (
    (0, JointId.LEFT_HIP, JointId.LEFT_KNEE, JointId.LEFT_ANKLE,
     JointId.LEFT_HEEL, JointId.LEFT_FOOT_TIP),
    (1, JointId.RIGHT_HIP, JointId.RIGHT_KNEE, JointId.RIGHT_ANKLE,
     JointId.RIGHT_HEEL, JointId.RIGHT_FOOT_TIP),
)


@dataclass(frozen=True)
class WalkerSpec:
    """Construction parameters for one synthetic walk.

    Exactly two of (speed_m_s, cadence_steps_min, step_length_m) may be given,
    in which case the third is derived; giving all three requires them to
    satisfy speed = step_length * cadence / 60 to within 1e-9.  Every
    number must be finite, the seed non-negative, start_x_m and start_z_m
    at most _MAX_START_M in magnitude, and the walk at most _MAX_FRAMES
    steps and frames long.

    sigma3d_m is the per-axis noise of the 3D joints.  sigma2d_px and
    dropout shape the 2D block the walk carries, and what `simulate`
    writes, only: the fit reads no 2D joint.
    """

    subject_height_m: float = 1.72
    speed_m_s: Optional[float] = None
    cadence_steps_min: Optional[float] = None
    step_length_m: Optional[float] = None
    distance_m: float = 4.0
    fps: float = 30.0
    double_support: float = 0.2
    sigma3d_m: float = 0.0
    sigma2d_px: float = 0.0
    dropout: float = 0.0
    seed: int = 0
    heading_deg: float = 0.0     # 0 walks away from the camera (+z), 180 toward
    start_x_m: float = 0.0
    start_z_m: float = 4.0

    def __post_init__(self) -> None:
        given = [
            v is not None
            for v in (self.speed_m_s, self.cadence_steps_min, self.step_length_m)
        ]
        if sum(given) < 2:
            raise InconsistentSpec(
                "need at least two of speed, cadence, step length"
            )
        if sum(given) == 3:
            implied = self.step_length_m * self.cadence_steps_min / 60.0  # type: ignore[operator]
            if abs(self.speed_m_s - implied) > _SPEED_TOL * max(1.0, abs(implied)):  # type: ignore[arg-type]
                raise InconsistentSpec(
                    f"speed {self.speed_m_s} != step length x cadence / 60 = {implied}"
                )
        else:
            if self.speed_m_s is None:
                object.__setattr__(
                    self,
                    "speed_m_s",
                    self.step_length_m * self.cadence_steps_min / 60.0,  # type: ignore[operator]
                )
            elif self.step_length_m is None:
                object.__setattr__(
                    self,
                    "step_length_m",
                    60.0 * self.speed_m_s / self.cadence_steps_min,  # type: ignore[operator]
                )
            else:
                object.__setattr__(
                    self,
                    "cadence_steps_min",
                    60.0 * self.speed_m_s / self.step_length_m,  # type: ignore[operator]
                )
        if not self.fps >= 10:
            raise ValueError(f"fps must be at least 10, got {self.fps}")
        if not 0.0 <= self.double_support <= 0.4:
            raise ValueError(
                f"double-support fraction {self.double_support} outside [0, 0.4]"
            )
        for name in ("speed_m_s", "cadence_steps_min", "step_length_m", "distance_m"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive, got {v}")
        if self.sigma3d_m < 0 or self.sigma2d_px < 0 or not 0 <= self.dropout <= 1:
            raise ValueError("noise levels must be non-negative, dropout in [0, 1]")
        for name in ("subject_height_m", "sigma3d_m", "sigma2d_px",
                     "heading_deg", "start_x_m", "start_z_m"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("start_x_m", "start_z_m"):
            if not abs(getattr(self, name)) <= _MAX_START_M:
                raise ValueError(f"{name} must be within {_MAX_START_M:g} m of the "
                                 f"camera, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # generate() lays down max(2, round(steps)) steps of step_time_s each.
        steps = self.distance_m / self.step_length_m
        frames = max(2.0, steps) * self.step_time_s * self.fps
        if not (steps <= _MAX_FRAMES and frames <= _MAX_FRAMES):
            raise ValueError(
                f"distance_m, the step and fps give {steps:.4g} steps over "
                f"{frames:.4g} frames; at most {_MAX_FRAMES} of each"
            )

    @property
    def step_time_s(self) -> float:
        return 60.0 / self.cadence_steps_min  # type: ignore[operator]


@dataclass(frozen=True)
class StepTruth:
    foot: str          # "left" or "right"
    time_s: float      # landing instant
    position_m: float  # contact point along the heading


@dataclass(frozen=True)
class GroundTruth:
    """Exact values the pipeline is later measured against."""

    speed_m_s: float
    cadence_steps_min: float
    step_length_m: float
    step_time_s: float
    n_steps: int
    duration_s: float
    heading: tuple[float, float, float]
    schedule: tuple[StepTruth, ...]
    anatomy: AnatomyProfile = field(repr=False)
    params: PoseParams = field(repr=False)
    spec: WalkerSpec = field(repr=False)


def _cycloid(u: np.ndarray) -> np.ndarray:
    """Monotone 0->1 with zero first derivative at both ends."""
    return u - np.sin(2.0 * np.pi * u) / (2.0 * np.pi)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (n, 3) with (n, 3) or (3,), as (n, 1).  Each
    row is a vector @ vector product, which numpy hands to BLAS ddot as it
    does a 1-D np.dot, so each rounds as one frame's dot product does."""
    return (a[:, None, :] @ b[..., None])[:, 0]


def _knee_point(hip, ankle, l1, l2, forward):
    """Two-bone inverse kinematics over all frames: (n, 3) hip and ankle
    tracks to the knee track, bending toward `forward`."""
    d = ankle - hip
    n = np.sqrt(_dots(d, d))
    dhat = d / n
    a = (l1 * l1 - l2 * l2 + n * n) / (2.0 * n)
    r2 = l1 * l1 - a * a
    if np.any(r2 <= 0):
        raise InconsistentSpec("leg cannot reach the requested foot position")
    bend = forward - _dots(dhat, forward) * dhat
    bn = np.sqrt(_dots(bend, bend))
    if np.any(bn < 1e-9):
        raise ValueError("degenerate knee bend direction")
    return hip + a * dhat + np.sqrt(r2) * (bend / bn)


def generate(spec: WalkerSpec, camera: Optional[CameraModel] = None,
             ratios: Optional[Mapping[JointId, float]] = None):
    """Synthesize one walk with bones scaled from `ratios` (default: shipped).

    Returns (sequence, truth): a SkeletonSequence with both blocks, every
    joint present (2D joints are exact pinhole projections of the 3D joints
    before any noise, with confidence 1), and the GroundTruth it was built
    from.  Identical inputs produce identical output.
    """
    if camera is None:
        camera = CameraModel.default()
    anatomy = derive_anatomy(spec.subject_height_m, ratios)
    tree = CANONICAL_TREE
    lengths = kin.lengths_vector(anatomy)

    sl = float(spec.step_length_m)       # type: ignore[arg-type]
    v = float(spec.speed_m_s)            # type: ignore[arg-type]
    T = spec.step_time_s
    ds = spec.double_support
    n_steps = max(2, round(spec.distance_m / sl))

    # Worst hip-to-ankle horizontal split.  During stance it peaks at
    # sl*(0.5+ds) right before lift-off; early in swing the cycloid lags the
    # pelvis, and the split bottoms out where the cycloid velocity matches
    # the pelvis velocity: 1 - cos(2*pi*u) = (1-ds)/2.
    u_star = math.acos((1.0 + ds) / 2.0) / (2.0 * math.pi)
    g_star = (
        2.0 * float(_cycloid(np.array(u_star)))
        - ds - 0.5 - u_star * (1.0 - ds)
    )
    max_split = sl * max(0.5 + ds, abs(g_star))
    # The pelvis rides as high as the shorter-reaching leg allows.
    h_pelvis = math.inf
    for _, hip_j, knee_j, ankle_j, heel_j, _ in _LEGS:
        w_hip, l1, l2, y_ankle = (anatomy.length(j) for j in (hip_j, knee_j, ankle_j, heel_j))
        vert2 = (_REACH_MARGIN * (l1 + l2)) ** 2 - max_split**2 - w_hip**2
        if vert2 <= 0:
            raise InconsistentSpec(
                f"step length {sl} m is not reachable at height {spec.subject_height_m} m"
            )
        h_pelvis = min(h_pelvis, y_ankle + math.sqrt(vert2))
    clearance = 0.04 * spec.subject_height_m

    theta = math.radians(spec.heading_deg)
    heading = np.array([math.sin(theta), 0.0, math.cos(theta)])
    xhat, yhat = np.eye(3)[:2]
    lateral = np.cross(yhat, heading)  # subject's right
    origin = np.array([spec.start_x_m, 0.0, spec.start_z_m])

    # Landing k (k = 1..n_steps) happens at t_k at along-track position k*sl.
    # Odd landings belong to the right foot.  The sequence starts and ends
    # mid-swing so each landing is an interior extremum of the ankle signal.
    t1 = 0.5 * (1.0 - ds) * T
    t_land = lambda k: t1 + (k - 1) * T
    t_end = t_land(n_steps) + ds * T + 0.5 * (1.0 - ds) * T
    n_frames = int(math.floor(t_end * spec.fps)) + 1
    times = np.arange(n_frames) / spec.fps

    # Trunk orientation: yaw aligning rest-pose forward (+z) to the heading.
    yaw = np.array(
        [
            [math.cos(theta), 0.0, math.sin(theta)],
            [0.0, 1.0, 0.0],
            [-math.sin(theta), 0.0, math.cos(theta)],
        ]
    )

    stride_T = 2.0 * T
    arm_amp = 0.25
    nod_amp = 0.03

    bone = {j: tree.rest_dirs[j.value] * lengths[j.value] for j in JointId}
    pos = np.empty((n_frames, N_JOINTS, 3))
    track = pos.swapaxes(0, 1)  # track[j.value]: joint j in every frame

    along_pelvis = v * (times - t1) + 0.5 * sl
    pelvis = origin + heading * along_pelvis[:, None] + yhat * h_pelvis
    track[JointId.PELVIS.value] = pelvis
    for j in (JointId.SPINE, JointId.MID_SPINE, JointId.NECK):  # upright trunk
        track[j.value] = track[PARENT[j].value] + yhat * lengths[j.value]
    neck = track[JointId.NECK.value]
    sway = np.sin(2.0 * math.pi * (times - t1) / stride_T)

    # Head and shoulders ride a small nod applied to the whole neck frame.
    still = np.zeros(n_frames)
    frame_rot = yaw @ kin.so3_exp(np.stack([nod_amp * sway, still, still], axis=1))
    track[JointId.HEAD.value] = neck + frame_rot @ bone[JointId.HEAD]
    for sign, sh, el, wr in (
        (1.0, JointId.LEFT_SHOULDER, JointId.LEFT_ELBOW, JointId.LEFT_WRIST),
        (-1.0, JointId.RIGHT_SHOULDER, JointId.RIGHT_ELBOW, JointId.RIGHT_WRIST),
    ):
        arm_rot = yaw @ kin.so3_exp((arm_amp * sway * sign)[:, None] * xhat)
        track[sh.value] = neck + frame_rot @ bone[sh]
        track[el.value] = track[sh.value] + arm_rot @ bone[el]
        track[wr.value] = track[el.value] + arm_rot @ bone[wr]

    for parity, hip_j, knee_j, ankle_j, heel_j, toe_j in _LEGS:
        side_sign = -1.0 if parity == 0 else 1.0  # left hip on subject's left
        hip = pelvis + side_sign * lengths[hip_j.value] * lateral
        # The foot stands where it last landed until it lifts off, then
        # swings a cycloid over one stride and rises by `clearance`.
        y_ankle = lengths[heel_j.value]
        k_last = np.floor((times - t_land(parity)) / (2.0 * T)).astype(np.int64) * 2 + parity
        lift = t_land(k_last + 1) + ds * T
        u = (times - lift) / ((1.0 - ds) * T)
        swinging = times > lift
        along = np.where(swinging, k_last * sl + 2.0 * sl * _cycloid(u), k_last * sl)
        rise = clearance * (1.0 - np.cos(2.0 * math.pi * u)) / 2.0
        height = np.where(swinging, y_ankle + rise, y_ankle)
        ankle = origin + heading * along[:, None] + yhat * height[:, None]
        track[hip_j.value] = hip
        track[ankle_j.value] = ankle
        track[knee_j.value] = _knee_point(hip, ankle, lengths[knee_j.value],
                                          lengths[ankle_j.value], heading)
        track[heel_j.value] = ankle - yhat * y_ankle
        track[toe_j.value] = ankle + heading * lengths[toe_j.value]

    params = kin.fit_params_to_positions(tree, pos)
    model = kin.forward_kinematics(tree, lengths, params)
    err = float(np.max(np.abs(model - pos)))
    if err > 1e-9:
        raise RuntimeError(f"walker pose fit drifted by {err} m")

    # Emit the constructed positions, not the reconstruction: planted-foot
    # frames then repeat bit-identical samples, so the distance signal's
    # double-support plateaus are exact ties rather than ulp-level wiggle.
    present = np.ones((n_frames, N_JOINTS), dtype=bool)
    seq = SkeletonSequence(
        fps=spec.fps,
        times=times,
        indices=np.arange(n_frames),
        points_3d=pos,
        mask_3d=present,
        pixels_2d=project(pos, camera),
        confidence_2d=np.ones((n_frames, N_JOINTS)),
        mask_2d=present,
        subject_height_m=spec.subject_height_m,
        source="synthetic",
    )
    if spec.sigma3d_m > 0 or spec.sigma2d_px > 0 or spec.dropout > 0:
        seq = inject_noise(
            seq,
            sigma3d_m=spec.sigma3d_m,
            sigma2d_px=spec.sigma2d_px,
            dropout=spec.dropout,
            seed=spec.seed,
        )

    schedule = tuple(
        StepTruth(
            foot="right" if k % 2 else "left",
            time_s=float(t_land(k)),
            position_m=float(k * sl),
        )
        for k in range(1, n_steps + 1)
    )
    truth = GroundTruth(
        speed_m_s=v,
        cadence_steps_min=float(spec.cadence_steps_min),  # type: ignore[arg-type]
        step_length_m=sl,
        step_time_s=T,
        n_steps=n_steps,
        duration_s=float(t_end),
        heading=tuple(float(h) for h in heading),  # type: ignore[assignment]
        schedule=schedule,
        anatomy=anatomy,
        params=params,
        spec=spec,
    )
    return seq, truth


def inject_noise(
    seq: SkeletonSequence,
    sigma3d_m: float = 0.0,
    sigma2d_px: float = 0.0,
    dropout: float = 0.0,
    seed: int = 0,
) -> SkeletonSequence:
    """Seeded isotropic Gaussian noise per joint per frame.

    3D joints are perturbed with sigma3d_m per axis, 2D joints with sigma2d_px
    per axis; dropout removes 2D joints independently with the given
    probability.  The same seed always produces the same byte-for-byte result.
    """
    rng = np.random.default_rng(seed)
    shape = (len(seq), N_JOINTS)
    changes = {}
    if seq.points_3d is not None:
        changes["points_3d"] = seq.points_3d + rng.normal(0.0, sigma3d_m, size=shape + (3,))
    if seq.pixels_2d is not None:
        changes["pixels_2d"] = seq.pixels_2d + rng.normal(0.0, sigma2d_px, size=shape + (2,))
        changes["mask_2d"] = seq.mask_2d & (rng.random(size=shape) >= dropout)
    return replace(seq, **changes)
