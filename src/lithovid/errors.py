"""Exception types raised across the pipeline.

Everything user-facing derives from LithovidError so the CLI can map
"bad data" failures to one exit code; anything else escaping is treated
as an internal invariant violation. The readers of JSON and CSV input
files live here too, so what makes an input file bad is stated once.
"""

import csv
import json
from typing import Callable


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


# an input file is at fault: missing or a directory (OSError); not UTF-8, malformed or holding
# an integer past Python's digit limit (ValueError); nested too deep (RecursionError); or
# holding values of the wrong kind or range for what is built from it
BAD_INPUT = (OSError, ValueError, RecursionError, OverflowError, LookupError, TypeError,
             AttributeError, csv.Error, LithovidError)


def _read(path, error: type, what: str, parse: Callable):
    """parse(the UTF-8 file at path, open); a fault in the file, or in what parse makes of it,
    is raised as error("<what> <path>: <detail>")."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return parse(fh)
    except BAD_INPUT as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise error(f"{what} {path}: {detail}") from None


def read_json(path, error: type, what: str, build: Callable):
    """build(payload) of the JSON file at path, checked as _read checks it."""
    return _read(path, error, what, lambda fh: build(json.load(fh)))


def read_csv(path, error: type, what: str) -> list[list[str]]:
    """The rows of the CSV file at path, checked as _read checks it."""
    return _read(path, error, what, lambda fh: list(csv.reader(fh)))
