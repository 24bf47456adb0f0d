"""Canonical skeleton model: joint identities, kinematic tree, anatomy, camera.

The package works on a fixed 21-joint skeleton arranged as a rooted tree with
the pelvis at the root.  All other modules import joint identity and topology
from here; nothing else is allowed to invent joint names.

Coordinate conventions
----------------------
3D: camera frame, x right, y down, z depth away from the camera, units
    metres, z > 0 for every visible joint.  This is the convention the
    pinhole projection (`project`, `CameraModel`) assumes: v = fy*y/z + cy
    grows with y.
2D: image pixel frame, x right, y down, units pixels.

The walker builds its scenes y-up (the head at larger y than the ankles),
so in these coordinates a synthetic subject walks upside down and projects
upside down in the image.  Nothing in the fit (it matches 3D joints to a
model posed in the same camera frame, and projects nothing) or in the step
detector (invariant under rigid motions of the scene) refers to gravity,
so no result depends on it.
"""

import configparser
import enum
import math
from dataclasses import InitVar, dataclass, field
from importlib import resources
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .errors import (
    FrameCountMismatch,
    IncompleteRatioTable,
    InvalidRatio,
    NonMonotonicFrames,
    NonPositiveDepth,
    OutOfRangeHeight,
    UnknownJoint,
)


class JointId(enum.Enum):
    """The 21 canonical joints.  Values are stable column indices."""

    PELVIS = 0
    SPINE = 1
    MID_SPINE = 2
    NECK = 3
    HEAD = 4
    LEFT_SHOULDER = 5
    LEFT_ELBOW = 6
    LEFT_WRIST = 7
    RIGHT_SHOULDER = 8
    RIGHT_ELBOW = 9
    RIGHT_WRIST = 10
    LEFT_HIP = 11
    LEFT_KNEE = 12
    LEFT_ANKLE = 13
    LEFT_HEEL = 14
    LEFT_FOOT_TIP = 15
    RIGHT_HIP = 16
    RIGHT_KNEE = 17
    RIGHT_ANKLE = 18
    RIGHT_HEEL = 19
    RIGHT_FOOT_TIP = 20

    @property
    def label(self) -> str:
        """Human-readable name used in documents, e.g. 'Left Foot Tip'."""
        return self.name.replace("_", " ").title()


N_JOINTS = len(JointId)

# Parent of every joint; the pelvis is the root.
PARENT: dict[JointId, Optional[JointId]] = {
    JointId.PELVIS: None,
    JointId.SPINE: JointId.PELVIS,
    JointId.MID_SPINE: JointId.SPINE,
    JointId.NECK: JointId.MID_SPINE,
    JointId.HEAD: JointId.NECK,
    JointId.LEFT_SHOULDER: JointId.NECK,
    JointId.LEFT_ELBOW: JointId.LEFT_SHOULDER,
    JointId.LEFT_WRIST: JointId.LEFT_ELBOW,
    JointId.RIGHT_SHOULDER: JointId.NECK,
    JointId.RIGHT_ELBOW: JointId.RIGHT_SHOULDER,
    JointId.RIGHT_WRIST: JointId.RIGHT_ELBOW,
    JointId.LEFT_HIP: JointId.PELVIS,
    JointId.LEFT_KNEE: JointId.LEFT_HIP,
    JointId.LEFT_ANKLE: JointId.LEFT_KNEE,
    JointId.LEFT_HEEL: JointId.LEFT_ANKLE,
    JointId.LEFT_FOOT_TIP: JointId.LEFT_ANKLE,
    JointId.RIGHT_HIP: JointId.PELVIS,
    JointId.RIGHT_KNEE: JointId.RIGHT_HIP,
    JointId.RIGHT_ANKLE: JointId.RIGHT_KNEE,
    JointId.RIGHT_HEEL: JointId.RIGHT_ANKLE,
    JointId.RIGHT_FOOT_TIP: JointId.RIGHT_ANKLE,
}

# Head-to-ground chain used for the anatomy sanity bound (left side).
HEIGHT_CHAIN: tuple[JointId, ...] = (
    JointId.HEAD,
    JointId.NECK,
    JointId.MID_SPINE,
    JointId.SPINE,
    JointId.LEFT_HIP,
    JointId.LEFT_KNEE,
    JointId.LEFT_ANKLE,
)

_LABEL_TO_JOINT = {j.label: j for j in JointId}

# Aliases accepted at ingestion.  Detectors with richer joint sets (face and
# toe details) map onto the canonical 21 joints; None means the joint carries
# no anatomical meaning here and is deliberately dropped.
_ALIASES: dict[str, Optional[JointId]] = {
    "nose": None,
    "left eye": None,
    "right eye": None,
    "left ear": None,
    "right ear": None,
    "background": None,
    "mid hip": JointId.PELVIS,
    "hip center": JointId.PELVIS,
    "root": JointId.PELVIS,
    "left big toe": JointId.LEFT_FOOT_TIP,
    "right big toe": JointId.RIGHT_FOOT_TIP,
    "left toe": JointId.LEFT_FOOT_TIP,
    "right toe": JointId.RIGHT_FOOT_TIP,
    "left small toe": None,
    "right small toe": None,
}


def canonical_joint(name: str) -> Optional[JointId]:
    """Resolve a joint name to a JointId, or None for a deliberate drop.

    Raises UnknownJoint for names that are neither canonical nor aliased.
    Matching ignores case and treats underscores as spaces.
    """
    cleaned = " ".join(name.replace("_", " ").split())
    as_label = cleaned.title()
    if as_label in _LABEL_TO_JOINT:
        return _LABEL_TO_JOINT[as_label]
    lowered = cleaned.lower()
    if lowered in _ALIASES:
        return _ALIASES[lowered]
    raise UnknownJoint(f"unknown joint name: {name!r}")


class Point2D(NamedTuple):
    x: float
    y: float
    confidence: float = 1.0


class Point3D(NamedTuple):
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class SkeletonFrame:
    """One frame's present joints of one block, as built by
    SkeletonSequence.frames_3d (Point3D values) and frames_2d (Point2D
    values): a plain record, not validated (the sequence's arrays are)."""

    index: int
    time_s: float
    joints: Mapping[JointId, Point2D | Point3D]


def frame_records(point, indices, times, values, present):
    """Per-frame SkeletonFrame records of the present joints of (F, J, k)
    values, each joint a `point`."""
    return tuple(
        SkeletonFrame(index=i, time_s=t,
                      joints={_JOINTS[j]: point(*p) for j, p in enumerate(row) if seen[j]})
        for i, t, row, seen in zip(indices.tolist(), times.tolist(),
                                   values.tolist(), present.tolist())
    )


_JOINTS = tuple(JointId)  # in column order
_BLOCKS = (("points_3d", "mask_3d"), ("pixels_2d", "confidence_2d", "mask_2d"))
_COORDS = {"points_3d": (3,), "pixels_2d": (2,)}  # per joint


def _where(bad: np.ndarray, indices: np.ndarray) -> str:
    """'joint <label> in frame <index>' of the first True cell of bad, an
    (F, J, ...) array."""
    f, j = np.argwhere(bad)[0][:2]
    return f"joint {_JOINTS[j].label} in frame {indices[f]}"


@dataclass(frozen=True, eq=False)
class SkeletonSequence:
    """A clip's per-frame joints as arrays, plus stream metadata.

    Frame f is video frame indices[f] at times[f] seconds; both strictly
    increase and times are finite and non-negative.  Joint columns follow
    JointId values.  Each modality is an optional block:

    * 3D: points_3d (F, J, 3) metres, z > 0, with the presence mask
      mask_3d (F, J);
    * 2D: pixels_2d (F, J, 2) with confidence_2d (F, J) in [0, 1] and the
      presence mask mask_2d (F, J): a joint present with confidence 0 is
      still a detection.

    A sequence may carry neither block (frames without joints).
    subject_height_m, when given, is positive and finite (derive_anatomy
    narrows it to (0.5, 2.5) m).  The constructor validates and stores
    read-only copies; cells of absent joints read 0, confidences included.
    With _owned=True it keeps arrays already of the stored dtype instead of
    copying them: only for arrays built for the sequence that no one else
    holds (pose_io's frame reader passes them).  The fit's output,
    optimizer.OptimizedSequence, is a subclass, validated alike.
    """

    fps: float
    times: np.ndarray
    indices: np.ndarray
    points_3d: Optional[np.ndarray] = None
    mask_3d: Optional[np.ndarray] = None
    pixels_2d: Optional[np.ndarray] = None
    confidence_2d: Optional[np.ndarray] = None
    mask_2d: Optional[np.ndarray] = None
    subject_height_m: Optional[float] = None
    source: str = ""
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned: bool) -> None:
        if not (self.fps > 0 and math.isfinite(self.fps)):
            raise ValueError(f"fps must be positive and finite, got {self.fps}")
        height = self.subject_height_m
        if height is not None and not (height > 0 and math.isfinite(height)):
            raise ValueError(f"subject_height_m must be positive and finite, got {height}")
        if np.size(self.indices) and np.asarray(self.indices).dtype.kind not in "iu":
            raise ValueError("frame indices must be integers")
        copy = not _owned
        times = self._store("times", np.float64, copy=copy)
        if times.ndim != 1:
            raise ValueError(f"times must be one-dimensional, got shape {times.shape}")
        indices = self._store("indices", np.int64, times.shape, copy)
        bad = ~(np.isfinite(times) & (times >= 0))
        if bad.any():
            f = int(np.argmax(bad))
            raise ValueError(f"frame {indices[f]}: timestamp {times[f]} is not "
                             "finite and non-negative")
        rising = (np.diff(indices) > 0) & (np.diff(times) > 0)
        if not rising.all():
            f = int(np.argmin(rising))
            raise NonMonotonicFrames(
                f"frames must strictly increase: {indices[f]}@{times[f]} "
                f"then {indices[f + 1]}@{times[f + 1]}"
            )

        F = len(times)
        for names in _BLOCKS:
            given = [getattr(self, name) is not None for name in names]
            if not all(given):
                if any(given):
                    raise ValueError(f"{', '.join(names)} must be given together")
                continue
            present = self._store(names[-1], bool, (F, N_JOINTS), copy)
            for name in names[:-1]:
                values = self._store(name, np.float64,
                                     (F, N_JOINTS) + _COORDS.get(name, ()), copy)
                values[~present] = 0.0
                if not np.isfinite(values).all():
                    raise ValueError(
                        f"{name}: {_where(~np.isfinite(values), indices)} is not finite")
                values.flags.writeable = False
            present.flags.writeable = False
        if self.points_3d is not None:
            bad = self.mask_3d & (self.points_3d[..., 2] <= 0)
            if bad.any():
                raise NonPositiveDepth(f"3D {_where(bad, indices)}: depth "
                                       f"{self.points_3d[..., 2][bad][0]} is not positive")
        if self.confidence_2d is not None:
            bad = (self.confidence_2d < 0) | (self.confidence_2d > 1)
            if bad.any():
                raise ValueError(f"2D {_where(bad, indices)}: confidence "
                                 f"{self.confidence_2d[bad][0]} outside [0, 1]")
        times.flags.writeable = indices.flags.writeable = False

    def _store(self, name: str, dtype, shape: Optional[tuple] = None,
               copy: bool = True) -> np.ndarray:
        """Replace field `name` by a copy of the given dtype (with copy
        False, by the array itself when it has that dtype) and return it.
        A shape other than `shape` raises FrameCountMismatch when the frame
        count differs, ValueError otherwise."""
        arr = np.array(getattr(self, name), dtype=dtype, copy=copy or None)
        if shape is not None and arr.shape != shape:
            error = FrameCountMismatch if arr.shape[:1] != shape[:1] else ValueError
            raise error(f"{name} has shape {arr.shape}, the sequence needs {shape}")
        object.__setattr__(self, name, arr)
        return arr

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def duration_s(self) -> float:
        return float(self.times[-1] - self.times[0]) if len(self) > 1 else 0.0

    @property
    def frames_3d(self) -> Optional[tuple[SkeletonFrame, ...]]:
        """The 3D block as per-frame records of Point3D joints, built on
        each access; None without a 3D block.  A copy for readers that want
        records: the arrays are the representation."""
        if self.points_3d is None:
            return None
        return frame_records(Point3D, self.indices, self.times,
                             self.points_3d, self.mask_3d)

    @property
    def frames_2d(self) -> Optional[tuple[SkeletonFrame, ...]]:
        """The 2D block as per-frame records of Point2D joints (with their
        confidences), built on each access; None without a 2D block."""
        if self.pixels_2d is None:
            return None
        values = np.concatenate([self.pixels_2d, self.confidence_2d[..., None]], axis=2)
        return frame_records(Point2D, self.indices, self.times, values, self.mask_2d)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera without distortion.

    u = fx * x / z + cx,  v = fy * y / z + cy
    """

    fx: float
    fy: float
    cx: float
    cy: float
    image_width: int = 1080
    image_height: int = 1920

    def __post_init__(self) -> None:
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive: fx={self.fx} fy={self.fy}")
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image dimensions must be positive")
        if not (0 <= self.cx <= self.image_width and 0 <= self.cy <= self.image_height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside "
                f"{self.image_width}x{self.image_height} image"
            )

    @classmethod
    def default(
        cls,
        image_width: int = 1080,
        image_height: int = 1920,
        focal_px: Optional[float] = None,
        cx: Optional[float] = None,
        cy: Optional[float] = None,
    ) -> "CameraModel":
        """Camera with focal length defaulting to the image diagonal and the
        principal point defaulting to the image centre."""
        if focal_px is None:
            focal_px = math.hypot(image_width, image_height)
        return cls(
            fx=focal_px,
            fy=focal_px,
            cx=image_width / 2 if cx is None else cx,
            cy=image_height / 2 if cy is None else cy,
            image_width=image_width,
            image_height=image_height,
        )


def check_ratio_table(ratios: Mapping[JointId, float]) -> None:
    """The anatomy rules: a ratio (finite, in (0, 1)) for each of the 20 edges
    and none for the pelvis root; the HEIGHT_CHAIN ratios sum to [0.9, 1.1].

    Raises IncompleteRatioTable or InvalidRatio, naming the joints at fault.
    """
    if JointId.PELVIS in ratios:
        raise InvalidRatio("the pelvis is the root and has no edge ratio", (JointId.PELVIS,))
    missing = [j.label for j in JointId if j is not JointId.PELVIS and j not in ratios]
    if missing:
        raise IncompleteRatioTable(f"missing ratios for: {', '.join(missing)}")
    for j, r in ratios.items():
        if not 0.0 < r < 1.0:
            raise InvalidRatio(
                f"ratio for {j.label} must be strictly between 0 and 1, got {r}", (j,))
    chain = sum(ratios[j] for j in HEIGHT_CHAIN)
    if not 0.9 <= chain <= 1.1:
        raise InvalidRatio(
            f"head-to-ankle ratios sum to {chain:.3f}, outside [0.9, 1.1]", HEIGHT_CHAIN)


@dataclass(frozen=True)
class AnatomyProfile:
    """Fixed bone lengths for one subject: standing height times a ratio
    table keyed by child joint, which must pass check_ratio_table."""

    height_m: float
    ratios: Mapping[JointId, float] = field(repr=False)

    def __post_init__(self) -> None:
        check_ratio_table(self.ratios)

    def length(self, child: JointId) -> float:
        return self.ratios[child] * self.height_m


def packaged_defaults() -> configparser.ConfigParser:
    """The shipped ``defaults.ini`` (package data of ``stridelab.data``)."""
    parser = configparser.ConfigParser()
    with resources.files("stridelab.data").joinpath("defaults.ini").open() as fh:
        parser.read_file(fh)
    return parser


def default_ratio_table() -> dict[JointId, float]:
    """Bone-length-to-height ratios from the shipped defaults file."""
    table = {canonical_joint(key): float(raw)
             for key, raw in packaged_defaults()["anatomy.ratios"].items()}
    check_ratio_table(table)
    return table


def derive_anatomy(
    height_m: float,
    ratios: Optional[Mapping[JointId, float]] = None,
) -> AnatomyProfile:
    """Scale a ratio table (default: the shipped one) by standing height.

    Raises OutOfRangeHeight outside (0.5, 2.5) m.
    """
    if not (0.5 < height_m < 2.5):
        raise OutOfRangeHeight(f"height {height_m} m outside (0.5, 2.5)")
    return AnatomyProfile(height_m, default_ratio_table() if ratios is None else ratios)


def project(points: np.ndarray, camera: CameraModel) -> np.ndarray:
    """Pinhole-project camera-frame points (..., 3) to pixels (..., 2).

    Raises NonPositiveDepth if any point has z <= 0.
    """
    points = np.asarray(points, dtype=np.float64)
    z = points[..., 2]
    if not np.all(z > 0):
        raise NonPositiveDepth(f"cannot project a point at depth {z[~(z > 0)][0]}")
    u = camera.fx * points[..., 0] / z + camera.cx
    v = camera.fy * points[..., 1] / z + camera.cy
    return np.stack([u, v], axis=-1)
