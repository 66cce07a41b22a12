"""Fairness audits and constrained training for tabular classification.

Alongside the familiar group-fairness notions (equal opportunity,
demographic parity, and its conditional variant), this package implements
socio-economic parity: a family of measures and training constraints that
judge a classifier on how it treats the *underprivileged* slice of each
demographic group — rows below a privilege cutoff — with extra weight on the
members who put in high effort.
"""

from .dataset import Schema, load_csv
from .notions import NotionConfig, violation

__version__ = "0.1.0"

__all__ = ["NotionConfig", "Schema", "load_csv", "violation"]
