"""Exception types shared across the toolkit, and the checked reads of input documents."""

import json
import math
import numbers
import reprlib


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
    """The JSON object at ``path``, after any UTF-8 byte-order mark; malformed JSON, bad
    UTF-8 or a non-object raise ``error``."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise error(f"{path}: {what} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: {what} must be a JSON object")
    return doc


def json_text(doc: dict) -> str:
    """The text of every JSON artifact: sorted keys, two-space indent, no NaN or infinity."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def utf8_lines(path):
    """Each (number, text) of the file's lines, split at LF, CR or CRLF as text
    mode splits them; the first line that is not UTF-8 raises ``ParseError``."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh.read().splitlines(), 1):
            try:
                yield number, line.decode()
            except UnicodeDecodeError:
                raise ParseError(f"{path}:{number}: not UTF-8") from None


REQUIRED = object()  # the default of a key that must be present
_UNSET = object()  # no default here: the dataclass that reads the key holds it


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _finite(v) -> bool:
    return _real(v) and math.isfinite(v)  # an int beyond float raises OverflowError


def _integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _every(test):
    return lambda v: isinstance(v, (list, tuple)) and all(map(test, v))


def _p_grid(value) -> list[float]:
    """p values from a list of numbers, a comma list '1,2,5' or an inclusive range '1:20'."""
    if not isinstance(value, str):
        return [float(v) for v in value]
    if ":" not in value:
        return [float(v) for v in value.split(",") if v.strip()]
    lo, hi = map(int, value.split(":", 1))
    if lo < 1 or hi > 99:  # before the range is built
        raise ValueError(value)
    return [float(p) for p in range(lo, hi + 1)]


P_GRID = "a list of numbers, '1,2,5' or 'lo:hi' with 1 <= lo and hi <= 99"
# Each kind a document declares: the test its JSON values pass and how such a
# value is read (None: as written).  A kind is named by the phrase that its
# error message and the README use.
KINDS = {
    "a number": (_real, float),
    "a finite number": (_finite, float),
    "a finite number >= 0": (lambda v: _finite(v) and v >= 0, None),
    "a finite number > 0": (lambda v: _finite(v) and v > 0, None),
    "an integer": (_integer, None),
    "an integer >= 0": (lambda v: _integer(v) and v >= 0, None),
    "an integer >= 1": (lambda v: _integer(v) and v >= 1, None),
    "a boolean": (lambda v: isinstance(v, bool), None),
    "a string": (lambda v: isinstance(v, str), None),
    "a non-empty string": (lambda v: isinstance(v, str) and v != "", None),
    "an object": (lambda v: isinstance(v, dict), None),
    "an object of objects": (
        lambda v: isinstance(v, dict) and all(isinstance(x, dict) for x in v.values()), None),
    "a list of strings": (_every(lambda v: isinstance(v, str)), tuple),
    "a list of objects": (_every(lambda v: isinstance(v, dict)), None),
    "a list of finite numbers": (_every(_finite), None),
    "a list of [column, level] pairs": (
        _every(lambda v: type(v) is list and len(v) == 2
               and all(x is None or isinstance(x, str) for x in v)),
        lambda v: [tuple(pair) for pair in v]),
    P_GRID: (lambda v: isinstance(v, str) or _every(_real)(v), _p_grid),
}


def checked(doc: dict, declared: dict, owner: str, error=ConfigError) -> dict:
    """Each declared key of ``doc`` read as its kind: the one check of input documents.

    ``declared`` maps every key the document may hold to its kind, or to
    (kind, default).  An absent key takes its default, must be present if the
    default is ``REQUIRED``, and stays absent if there is none.  null counts
    as absent where the default is None.  A key not declared, or a value not
    of its kind, raises ``error`` naming the key.
    """
    unknown = sorted(set(doc) - set(declared))
    if unknown:
        raise error(f"unknown {owner}(s): {unknown}")
    out = {}
    for key, spec in declared.items():
        kind, default = spec if isinstance(spec, tuple) else (spec, _UNSET)
        if key not in doc or doc[key] is None is default:
            if default is REQUIRED:
                raise error(f"{owner} {key!r} must be {kind}, missing")
            if default is not _UNSET:
                out[key] = default
            continue
        test, read = KINDS[kind]
        try:
            if test(doc[key]):
                out[key] = doc[key] if read is None else read(doc[key])
                continue
        except (ValueError, OverflowError):  # a p grid text that is none; an int beyond float
            pass
        raise error(f"{owner} {key!r} must be {kind}, got {reprlib.repr(doc[key])}")
    return out
