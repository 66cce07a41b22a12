"""Fairness audits and constrained training for tabular classification.

Alongside the familiar group-fairness notions (equal opportunity,
demographic parity, and its conditional variant), this package implements
socio-economic parity: a family of measures and training constraints that
judge a classifier on how it treats the *underprivileged* slice of each
demographic group — rows below a privilege cutoff — with extra weight on the
members who put in high effort.
"""

from .bundled import adult_schema_path, fixture_path, toy8_paths
from .dataset import (ColumnSpec, Design, FeatureEncoder, Schema, Table, Thresholds,
                      effort_threshold, encode_features, load_csv,
                      privilege_threshold, stratified_split, write_csv)
from .errors import (AlignmentError, ConfigError, DegenerateThresholdError,
                     EncodingError, ExtractionError, FairsepError, ParseError,
                     PredicateError, SchemaError)
from .groupstats import SubgroupFrame, mask, positive_scores, stats
from .learner import (BaseLearner, ExpGradHP, LearnerHP, MomentConstraint,
                      ReducedModel, compile_constraints,
                      exponentiated_gradient, fit_base, load_model, save_model)
from .notions import (EffortWeighting, GroupTerms, NotionConfig,
                      ViolationReport, violation)
from .privilege import (ImportanceTable, PSweepResult,
                        extract_privilege_attribute, permutation_importance,
                        select_p)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError", "BaseLearner", "ColumnSpec", "ConfigError",
    "DegenerateThresholdError", "Design", "EffortWeighting", "EncodingError",
    "ExpGradHP", "ExtractionError", "FairsepError", "FeatureEncoder",
    "GroupTerms", "ImportanceTable", "LearnerHP", "MomentConstraint",
    "NotionConfig", "PSweepResult", "ParseError",
    "PredicateError", "ReducedModel", "Schema", "SchemaError",
    "SubgroupFrame", "Table", "Thresholds", "ViolationReport",
    "adult_schema_path", "compile_constraints",
    "effort_threshold", "encode_features", "exponentiated_gradient",
    "extract_privilege_attribute", "fixture_path", "fit_base", "load_csv",
    "load_model", "mask", "permutation_importance", "positive_scores",
    "privilege_threshold", "save_model", "select_p",
    "stats", "stratified_split", "toy8_paths", "violation", "write_csv",
]
