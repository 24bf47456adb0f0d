"""Markerless gait analysis: pose streams in, spatiotemporal parameters out.

The pipeline runs in four stages, each usable on its own:

1. `skeleton` / `pose_io`: the array-native pose sequence (3D metres and,
   optionally, 2D pixels) and total parsers for its interchange format.
2. `optimizer`: fits a kinematic skeleton through every frame at once,
   balancing 3D agreement, reprojection, temporal smoothness and depth drift.
3. `events` / `report`: step detection on the inter-ankle distance signal and
   aggregation into speed, cadence, step length and step time.
   `analyze_sequence` runs stages 2 and 3 in one call.
4. `stats`: agreement tooling (ICC, Bland-Altman, bootstrap CIs) for method
   comparison studies.

`walker` synthesizes noisy walking sequences with exact ground truth for
validation, and `cli` exposes the whole pipeline as subcommands.
"""

from .errors import (
    AmbiguousWalkingDirection,
    ConfigError,
    DegenerateInput,
    DegenerateVariance,
    DuplicateMeasurement,
    FrameCountMismatch,
    IncompleteRatioTable,
    InconsistentSpec,
    InvalidRatio,
    LengthMismatch,
    MalformedDocument,
    MissingHeaderField,
    MissingJoint,
    MissingModality,
    NoStepsDetected,
    NonMonotonicFrames,
    NonPositiveDepth,
    OutOfRangeHeight,
    SignalTooShort,
    StrideLabError,
    TooFewPairs,
    TooFewSteps,
    UnknownJoint,
)
from .kinematics import (
    CANONICAL_TREE,
    KinematicTree,
    PoseParams,
    forward_kinematics,
    fit_params_to_positions,
)
from .skeleton import (
    AnatomyProfile,
    CameraModel,
    JointId,
    Point2D,
    Point3D,
    SkeletonFrame2D,
    SkeletonFrame3D,
    SkeletonSequence,
    canonical_joint,
    default_ratio_table,
    derive_anatomy,
    project,
)
from .optimizer import (
    EnergyConfig,
    OptimizedSequence,
    energy,
    energy_breakdown,
    energy_gradient,
    initial_params,
    optimize,
)
from .events import (
    DetectorConfig,
    StepDetection,
    StepEvent,
    cluster_honest_extrema,
    detect_steps,
    find_extrema_candidates,
)
from .report import GaitReport, compute_report
from .pipeline import WalkResult, analyze_sequence
from .walker import GroundTruth, WalkerSpec, generate, inject_noise
from .stats import (
    BlandAltman,
    MeasurementTable,
    ParameterAgreement,
    bland_altman,
    bootstrap_mean_diff_ci,
    classify_icc,
    compare_methods,
    icc,
    percentage_error,
)
from .config import RunConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "AmbiguousWalkingDirection",
    "AnatomyProfile",
    "BlandAltman",
    "CANONICAL_TREE",
    "CameraModel",
    "ConfigError",
    "DegenerateInput",
    "DegenerateVariance",
    "DetectorConfig",
    "DuplicateMeasurement",
    "EnergyConfig",
    "GaitReport",
    "GroundTruth",
    "FrameCountMismatch",
    "IncompleteRatioTable",
    "InconsistentSpec",
    "InvalidRatio",
    "JointId",
    "KinematicTree",
    "LengthMismatch",
    "MalformedDocument",
    "MeasurementTable",
    "MissingHeaderField",
    "MissingJoint",
    "MissingModality",
    "NoStepsDetected",
    "NonMonotonicFrames",
    "NonPositiveDepth",
    "OptimizedSequence",
    "OutOfRangeHeight",
    "ParameterAgreement",
    "Point2D",
    "Point3D",
    "PoseParams",
    "RunConfig",
    "SignalTooShort",
    "SkeletonFrame2D",
    "SkeletonFrame3D",
    "SkeletonSequence",
    "StepDetection",
    "StepEvent",
    "StrideLabError",
    "TooFewPairs",
    "TooFewSteps",
    "UnknownJoint",
    "WalkResult",
    "WalkerSpec",
    "analyze_sequence",
    "bland_altman",
    "bootstrap_mean_diff_ci",
    "canonical_joint",
    "classify_icc",
    "cluster_honest_extrema",
    "compare_methods",
    "compute_report",
    "default_ratio_table",
    "derive_anatomy",
    "detect_steps",
    "energy",
    "energy_breakdown",
    "energy_gradient",
    "find_extrema_candidates",
    "fit_params_to_positions",
    "forward_kinematics",
    "generate",
    "icc",
    "initial_params",
    "inject_noise",
    "load_config",
    "optimize",
    "percentage_error",
    "project",
]
