"""The one exception type of the pipeline, and the readers of its input files.

Every expected failure is a LithovidError, told apart by its message, so
the CLI can map "bad data" failures to one exit code; anything else
escaping is treated as an internal invariant violation. The readers of
JSON, CSV and other text input files live here too, so what makes an
input file bad is stated once.
"""

import csv
import json
from typing import Callable


class LithovidError(Exception):
    """An expected pipeline failure: bad input data or an inconsistent domain object."""


# an input file is at fault: missing or a directory (OSError); not UTF-8, malformed or holding
# an integer past Python's digit limit (ValueError); nested too deep (RecursionError); or
# holding values of the wrong kind or range for what is built from it
BAD_INPUT = (OSError, ValueError, RecursionError, OverflowError, LookupError, TypeError,
             AttributeError, csv.Error, LithovidError)


def _read(path, what: str, parse: Callable):
    """parse(the UTF-8 file at path, open); a fault in the file, or in what parse makes of it,
    is raised as LithovidError("<what> <path>: <detail>")."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return parse(fh)
    except BAD_INPUT as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise LithovidError(f"{what} {path}: {detail}") from None


def read_text(path, what: str, parse: Callable):
    """parse(the text of the file at path), checked as _read checks it."""
    return _read(path, what, lambda fh: parse(fh.read()))


def read_json(path, what: str, build: Callable):
    """build(payload) of the JSON file at path, checked as _read checks it."""
    return _read(path, what, lambda fh: build(json.load(fh)))


def json_fields(payload, *keys: str) -> list:
    """The values at keys of a JSON object that holds exactly those keys: a missing one is a
    KeyError (read as missing field '<key>'), any other a LithovidError naming it."""
    values = [payload[key] for key in keys]
    unknown = sorted(set(payload) - set(keys))
    if unknown:
        raise LithovidError(f"unknown field {', '.join(map(repr, unknown))}")
    return values


def json_number(value, what: str) -> float:
    """A JSON number as a float; anything else, a string or a bool included, is a TypeError
    naming what (type(), not isinstance: JSON true is a bool, and a bool is an int)."""
    if type(value) not in (int, float):
        raise TypeError(f"{what} must be a JSON number, got {value!r}")
    return float(value)


def read_csv(path, what: str) -> list[list[str]]:
    """The rows of the CSV file at path, checked as _read checks it."""
    return _read(path, what, lambda fh: list(csv.reader(fh)))
