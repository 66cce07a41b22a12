"""Subgroup row masks (integer-code matches) and confusion statistics (PPR / TPR / FPR)."""

from __future__ import annotations

from typing import NamedTuple

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


class SubgroupFrame(NamedTuple):
    """Confusion counts and rates over a row subset, in ``stats.csv`` column order.

    A rate with an empty denominator is None; in expected mode the counts are
    fractional (sums of scores).  ``positives`` is the number of rows with
    target 1.
    """

    n: int
    positives: int
    tp: float
    fp: float
    tn: float
    fn: float
    ppr: float | None
    tpr: float | None
    fpr: float | None


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


def tally(h: np.ndarray, target: np.ndarray, key: np.ndarray, size: int) -> list[SubgroupFrame]:
    """Confusion statistics of decisions ``h`` (from ``positive_scores``) against the
    target for each value 0..size-1 of the integer ``key``: three ``np.bincount`` over
    key * 2 + target, of the rows, of h and of 1 - h."""
    code = np.asarray(key, dtype=np.intp) * 2
    code += target
    count = np.bincount(code, minlength=2 * size).reshape(size, 2).tolist()
    hit = np.bincount(code, weights=h, minlength=2 * size).reshape(size, 2).tolist()
    miss = np.bincount(code, weights=1.0 - h, minlength=2 * size).reshape(size, 2).tolist()
    frames = []
    for (neg, pos), (fp, tp), (tn, fn) in zip(count, hit, miss):
        n = neg + pos
        frames.append(SubgroupFrame(n, pos, tp, fp, tn, fn, (tp + fp) / n if n else None,
                                    tp / (tp + fn) if pos else None,
                                    fp / (fp + tn) if neg else None))
    return frames


def stats(h: np.ndarray, target: np.ndarray, rows: np.ndarray | None = None) -> SubgroupFrame:
    """The ``tally`` of a boolean row mask or a row index (default all rows)."""
    key = np.zeros(target.size, dtype=np.intp)
    key[slice(None) if rows is None else rows] = 1
    return tally(h, target, key, 2)[1]
