"""Subgroup row masks (integer-code matches) and confusion statistics (PPR / TPR / FPR)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Table
from .errors import AlignmentError, PredicateError


def mask(table: Table, selection: tuple = ()) -> np.ndarray:
    """Rows holding every ``(column, level)`` of the selection; ``()`` is all rows.

    Columns must be protected or categorical; a level that never occurs in a
    non-empty table raises ``PredicateError``.
    """
    out = np.ones(table.rows, dtype=bool)
    for column, level in selection:
        levels = table.levels(column)
        if level not in levels and table.rows > 0:
            raise PredicateError(f"value {level!r} never occurs in column {column!r}")
        out &= table.codes(column) == (levels.index(level) if level in levels else -1)
    return out


@dataclass
class SubgroupFrame:
    """Confusion counts and rates over a row subset.

    A rate with an empty denominator is None; in expected mode the counts are
    fractional (sums of scores).  ``positives`` is the number of rows with
    target 1.
    """

    n: int
    tp: float
    fp: float
    tn: float
    fn: float
    ppr: float | None
    tpr: float | None
    fpr: float | None
    positives: int = 0


def positive_scores(predictions: np.ndarray, table: Table, mode: str = "hard",
                    cutoff: float = 0.5) -> np.ndarray:
    """Validate a predictions vector and return each row's probability of a positive decision.

    Predictions are scores in [0,1] or 0/1 labels, one per table row.  ``hard``
    thresholds them at the cutoff (0/1 inputs pass through); ``expected``
    keeps them as-is, reading them as randomized decisions.
    """
    scores = np.asarray(predictions, dtype=np.float64)
    if scores.ndim != 1 or len(scores) != table.rows:
        raise AlignmentError(
            f"predictions length {scores.shape} does not match {table.rows} rows"
        )
    if not np.isfinite(scores).all():
        raise AlignmentError("predictions must be finite")
    if len(scores) and (scores.min() < 0.0 or scores.max() > 1.0):
        raise AlignmentError("predictions must lie in [0, 1]")
    if mode == "hard":
        if not 0.0 < cutoff < 1.0:
            raise ValueError(f"cutoff must lie in (0, 1), got {cutoff}")
        return (scores >= cutoff).astype(np.float64)
    if mode == "expected":
        return scores
    raise ValueError(f"unknown mode {mode!r}")


def stats(h: np.ndarray, target: np.ndarray, rows: np.ndarray | None = None) -> SubgroupFrame:
    """Confusion statistics of decisions ``h`` (from ``positive_scores``) against
    the target, over a boolean row mask or an ascending row index (default all)."""
    m = slice(None) if rows is None else rows
    y = target[m]
    hm = h[m]
    n = y.size
    if n == 0:
        return SubgroupFrame(0, 0.0, 0.0, 0.0, 0.0, None, None, None)
    pos = y == 1
    tp = float(np.sum(hm[pos]))
    fn = float(np.sum(1.0 - hm[pos]))
    fp = float(np.sum(hm[~pos]))
    tn = float(np.sum(1.0 - hm[~pos]))
    tpr = tp / (tp + fn) if pos.any() else None
    fpr = fp / (fp + tn) if (~pos).any() else None
    return SubgroupFrame(n, tp, fp, tn, fn, (tp + fp) / n, tpr, fpr,
                         positives=int(np.count_nonzero(pos)))
