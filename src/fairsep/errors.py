"""Exception types shared across the toolkit."""


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
