"""Exception types raised across the pipeline.

Everything user-facing derives from LithovidError so the CLI can map
"bad data" failures to one exit code; anything else escaping is treated
as an internal invariant violation. A subclass exists only where some
`except` clause names it, so that a caller can act on that one failure;
every other failure is a plain LithovidError, told apart by its message.
The readers of JSON and CSV input files live here too, so what makes an
input file bad is stated once.
"""

import csv
import json
from typing import Callable


class LithovidError(Exception):
    """Base class for all expected pipeline failures."""


class ValidationError(LithovidError):
    """A domain object was constructed with inconsistent fields."""


class CorruptManifest(LithovidError):
    """A manifest or PNM header is unreadable; caught by video_io._read_pnm and cli.cmd_run."""


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
