"""The analysis path in one call: a pose stream in, its gait report out."""

from typing import NamedTuple

from .config import RunConfig
from .errors import MissingHeaderField
from .events import detect_steps
from .optimizer import OptimizedSequence, optimize
from .report import GaitReport, compute_report
from .skeleton import SkeletonSequence, derive_anatomy


class WalkResult(NamedTuple):
    fitted: OptimizedSequence
    report: GaitReport


def analyze_sequence(seq: SkeletonSequence, cfg: RunConfig) -> WalkResult:
    """Fit the skeleton to seq, detect its steps and report its gait, each
    stage set by cfg; raises MissingHeaderField without a subject height."""
    if seq.subject_height_m is None:
        raise MissingHeaderField("header field 'subject_height_m' is required for analysis")
    anatomy = derive_anatomy(seq.subject_height_m, cfg.ratios)
    fitted = optimize(seq, anatomy, cfg=cfg.energy)
    return WalkResult(fitted, compute_report(detect_steps(fitted, cfg.detector)))
