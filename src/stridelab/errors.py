"""Typed errors raised across the package.

Every failure mode that callers are expected to handle gets its own class so
that CLI code and tests can match on type instead of message text.
"""


class StrideLabError(Exception):
    """Base class for all package errors."""


class ConfigError(StrideLabError):
    """Invalid or contradictory configuration; message names the key path."""


# -- skeleton / anatomy ------------------------------------------------------

class OutOfRangeHeight(StrideLabError):
    """Subject height outside the plausible (0.5 m, 2.5 m) interval."""


class IncompleteRatioTable(StrideLabError):
    """Anatomy ratio table is missing one or more skeleton edges."""


class InvalidRatio(StrideLabError, ValueError):
    """A ratio outside (0, 1) or for the pelvis root, or head-to-ankle ratios
    summing outside [0.9, 1.1]; ``joints`` names the edges at fault."""

    def __init__(self, message: str, joints=()):
        super().__init__(message)
        self.joints = tuple(joints)


class NonPositiveDepth(StrideLabError):
    """A 3D joint with z <= 0 cannot be projected."""


# -- pose stream parsing -----------------------------------------------------

class MalformedDocument(StrideLabError):
    """Input bytes are not a valid pose stream document."""


class UnknownJoint(StrideLabError):
    """A joint name that is neither canonical nor a known alias."""


class NonMonotonicFrames(StrideLabError, ValueError):
    """Frame indices or timestamps do not strictly increase."""


class MissingHeaderField(StrideLabError):
    """A required header field (e.g. fps) is absent."""


# -- optimizer ---------------------------------------------------------------

class MissingModality(StrideLabError):
    """A stream lacks the joints a stage needs: the fit and step detection
    need 3D joints, because depth cannot be recovered from 2D joints alone."""


class FrameCountMismatch(StrideLabError):
    """Arrays that must cover the same frames (a sequence's times, indices
    and joint blocks, or pose parameters and a sequence) differ in length."""


class DegenerateInput(StrideLabError):
    """A frame with no usable joint observations in either modality."""


# -- step detection ----------------------------------------------------------

class MissingJoint(StrideLabError):
    """A joint needed to build the step signal is absent from a frame."""


class SignalTooShort(StrideLabError):
    """Fewer than three samples; extrema are undefined."""


class NoStepsDetected(StrideLabError):
    """Fewer than two honest maxima in the step signal."""


class AmbiguousWalkingDirection(StrideLabError):
    """Root travel too short to define a walking direction."""


# -- gait parameters ---------------------------------------------------------

class TooFewSteps(StrideLabError):
    """Fewer than two step events; parameters are undefined."""


# -- synthetic walker --------------------------------------------------------

class InconsistentSpec(StrideLabError):
    """Walker spec violates speed = step length x cadence / 60, or asks for a
    step the legs cannot reach."""


# -- agreement statistics ----------------------------------------------------

class DegenerateVariance(StrideLabError):
    """ANOVA mean squares vanish; ICC is undefined on this table."""


class LengthMismatch(StrideLabError):
    """Paired arrays of unequal length."""


class TooFewPairs(StrideLabError):
    """Not enough paired observations for the requested statistic."""


class DuplicateMeasurement(StrideLabError):
    """Two records give one walk a value by the same method."""
