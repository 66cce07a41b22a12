"""Exception types shared across the toolkit, and the checked reads of input documents."""

import json


class FairsepError(Exception):
    """Base class for all errors raised by fairsep."""


class SchemaError(FairsepError):
    """Schema document is malformed or inconsistent with the data."""


class ParseError(FairsepError):
    """CSV row could not be parsed; message carries the 1-based line number."""


class PredicateError(FairsepError):
    """A subgroup selection names a level that never occurs in its column."""


class AlignmentError(FairsepError):
    """Predictions vector does not align with the table rows."""


class DegenerateThresholdError(FairsepError):
    """No privilege cutoff exists that separates the requested top fraction."""


class ExtractionError(FairsepError):
    """Privilege-attribute extraction cannot proceed (degenerate learner, ...)."""


class EncodingError(FairsepError):
    """Feature matrix width or content does not match the fitted encoder."""


class ConfigError(FairsepError):
    """Run configuration is missing required fields or holds invalid values."""


def read_json(path, what: str, error=ConfigError) -> dict:
    """The JSON object at ``path``; malformed JSON, bad UTF-8 or a non-object raise ``error``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise error(f"{path}: {what} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: {what} must be a JSON object")
    return doc


def utf8_lines(path):
    """Each (number, text) of the file's lines, split at LF, CR or CRLF as text
    mode splits them; the first line that is not UTF-8 raises ``ParseError``."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh.read().splitlines(), 1):
            try:
                yield number, line.decode()
            except UnicodeDecodeError:
                raise ParseError(f"{path}:{number}: not UTF-8") from None


def config_number(doc: dict, key: str, default, convert=float):
    """``convert(doc[key])``, or of ``default`` when absent; what it refuses is a ConfigError.

    A boolean, a string or, with ``convert=int``, a fraction is refused, not
    parsed or rounded.
    """
    value = doc.get(key, default)
    want = "an integer" if convert is int else "a number"
    if isinstance(value, bool) or not isinstance(value, int if convert is int else (int, float)):
        raise ConfigError(f"config '{key}' must be {want}, got {value!r}")
    try:
        return convert(value)
    except OverflowError:
        raise ConfigError(f"config '{key}' must be {want}, got {value!r}") from None


def string_list(value, what: str, error=ConfigError) -> tuple[str, ...]:
    """``value`` as a tuple; anything but a JSON list of strings raises ``error``."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise error(f"{what} must be a list of strings, got {value!r}")
    return tuple(value)


def config_object(doc: dict, key: str) -> dict:
    """``doc[key]``, or {} when absent or null; anything but a JSON object is a ConfigError."""
    value = doc.get(key)
    if value is not None and not isinstance(value, dict):
        raise ConfigError(f"config '{key}' must be a JSON object, got {value!r}")
    return value or {}
