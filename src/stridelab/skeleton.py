"""Canonical skeleton model: joint identities, kinematic tree, anatomy, camera.

The package works on a fixed 21-joint skeleton arranged as a rooted tree with
the pelvis at the root.  All other modules import joint identity and topology
from here; nothing else is allowed to invent joint names.

Coordinate conventions
----------------------
3D: camera-anchored frame, x right, y up, z depth away from the camera,
    units metres, z > 0 for every visible joint.
2D: image pixel frame, x right, y down, units pixels.
"""

import configparser
import enum
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import (
    FrameCountMismatch,
    IncompleteRatioTable,
    InvalidRatio,
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


def _check_finite(values, what: str) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{what} contains a non-finite value: {v!r}")


@dataclass(frozen=True)
class SkeletonFrame2D:
    """Detected joints for one video frame, in pixels.

    Joints a detector failed to find are simply absent from the mapping.
    """

    index: int
    time_s: float
    joints: Mapping[JointId, Point2D]

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError(f"frame {self.index}: negative timestamp {self.time_s}")
        for j, p in self.joints.items():
            _check_finite((p.x, p.y, p.confidence), f"2D joint {j.label}")
            if not 0.0 <= p.confidence <= 1.0:
                raise ValueError(
                    f"2D joint {j.label}: confidence {p.confidence} outside [0, 1]"
                )


@dataclass(frozen=True)
class SkeletonFrame3D:
    """Detected joints for one video frame, in metres (camera-anchored)."""

    index: int
    time_s: float
    joints: Mapping[JointId, Point3D]

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError(f"frame {self.index}: negative timestamp {self.time_s}")
        for j, p in self.joints.items():
            _check_finite((p.x, p.y, p.z), f"3D joint {j.label}")
            if p.z <= 0:
                raise NonPositiveDepth(
                    f"3D joint {j.label}: depth must be positive, got {p.z}"
                )


@dataclass(frozen=True)
class SkeletonSequence:
    """A clip's worth of 2D and/or 3D frames plus stream metadata.

    When both modalities are present they must cover identical frame indices.
    """

    fps: float
    frames_2d: Optional[tuple[SkeletonFrame2D, ...]] = None
    frames_3d: Optional[tuple[SkeletonFrame3D, ...]] = None
    subject_height_m: Optional[float] = None
    source: str = ""

    def __post_init__(self) -> None:
        if not (self.fps > 0 and math.isfinite(self.fps)):
            raise ValueError(f"fps must be positive and finite, got {self.fps}")
        if self.frames_2d is None and self.frames_3d is None:
            raise ValueError("sequence has neither 2D nor 3D frames")
        for frames in (self.frames_2d, self.frames_3d):
            if frames is None:
                continue
            for a, b in zip(frames, frames[1:]):
                if not (b.index > a.index and b.time_s > a.time_s):
                    raise ValueError(
                        f"frames must strictly increase: {a.index}@{a.time_s} "
                        f"then {b.index}@{b.time_s}"
                    )
        if self.frames_2d is not None and self.frames_3d is not None:
            idx2 = [f.index for f in self.frames_2d]
            idx3 = [f.index for f in self.frames_3d]
            if idx2 != idx3:
                raise FrameCountMismatch(
                    "2D and 3D streams cover different frame indices"
                )

    def __len__(self) -> int:
        frames = self.frames_3d if self.frames_3d is not None else self.frames_2d
        return len(frames)  # type: ignore[arg-type]

    @property
    def duration_s(self) -> float:
        frames = self.frames_3d if self.frames_3d is not None else self.frames_2d
        assert frames is not None
        return frames[-1].time_s - frames[0].time_s if len(frames) > 1 else 0.0


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


def project(frame: SkeletonFrame3D, camera: CameraModel) -> SkeletonFrame2D:
    """Pinhole-project a 3D frame to pixels; confidences are set to 1.

    Raises NonPositiveDepth if any joint has z <= 0.  (Frame validation
    normally prevents that, but projection is also used on raw arrays.)
    """
    joints: dict[JointId, Point2D] = {}
    for j, p in frame.joints.items():
        if p.z <= 0:
            raise NonPositiveDepth(f"joint {j.label}: z = {p.z}")
        u = camera.fx * p.x / p.z + camera.cx
        v = camera.fy * p.y / p.z + camera.cy
        joints[j] = Point2D(u, v, 1.0)
    return SkeletonFrame2D(index=frame.index, time_s=frame.time_s, joints=joints)
