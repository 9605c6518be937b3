"""Exception types raised across the pipeline.

Everything user-facing derives from LithovidError so the CLI can map
"bad data" failures to one exit code; anything else escaping is treated
as an internal invariant violation.
"""


class LithovidError(Exception):
    """Base class for all expected pipeline failures."""


class ValidationError(LithovidError):
    """A domain object was constructed with inconsistent fields."""


# video-io
class EmptyVideo(LithovidError):
    pass


class TooSmall(LithovidError):
    pass


class CorruptManifest(LithovidError):
    pass


class MissingFrame(LithovidError):
    pass


class DimensionMismatch(LithovidError):
    pass


# phantom generator
class InvalidSpec(LithovidError):
    pass


# segmentation
class NotCalibrated(LithovidError):
    pass


class NoTruthAvailable(LithovidError):
    pass


# classification
class MissingClass(LithovidError):
    pass


class EmptyMaskSample(LithovidError):
    pass


class EmptyMask(LithovidError):
    pass


class NotTrained(LithovidError):
    pass


class MalformedRow(LithovidError):
    pass


class ScoreSumViolation(LithovidError):
    pass


class UnknownClass(LithovidError):
    pass


class MissingScore(LithovidError):
    pass


# decision
class EmptyList(LithovidError):
    pass


# evaluation
class NoPositives(LithovidError):
    pass


class EmptyGroup(LithovidError):
    pass
