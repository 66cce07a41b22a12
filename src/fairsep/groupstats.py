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
        if level not in table.levels(column) and table.rows > 0:
            raise PredicateError(f"value {level!r} never occurs in column {column!r}")
        out &= table.mask(column, level)
    return out


@dataclass
class SubgroupFrame:
    """Confusion counts and rates over a row subset.

    Rates with an empty denominator are None and listed in ``undefined``; in
    expected mode the counts are fractional (sums of scores).  ``positives``
    is the number of rows with target 1.
    """

    n: int
    tp: float
    fp: float
    tn: float
    fn: float
    ppr: float | None
    tpr: float | None
    fpr: float | None
    undefined: tuple[str, ...] = ()
    positives: int = 0


def as_scores(predictions: np.ndarray, table: Table) -> np.ndarray:
    """Validate and align a predictions vector (scores in [0,1] or 0/1 labels)."""
    arr = np.asarray(predictions, dtype=np.float64)
    if arr.ndim != 1 or len(arr) != table.rows:
        raise AlignmentError(
            f"predictions length {arr.shape} does not match {table.rows} rows"
        )
    if not np.isfinite(arr).all():
        raise AlignmentError("predictions must be finite")
    if len(arr) and (arr.min() < 0.0 or arr.max() > 1.0):
        raise AlignmentError("predictions must lie in [0, 1]")
    return arr


def positive_scores(predictions: np.ndarray, table: Table, mode: str = "hard",
                    cutoff: float = 0.5) -> np.ndarray:
    """Per-row probability of a positive decision under the chosen mode.

    ``hard`` thresholds scores at the cutoff (0/1 inputs pass through);
    ``expected`` keeps scores as-is, reading them as randomized decisions.
    """
    scores = as_scores(predictions, table)
    if mode == "hard":
        if not 0.0 < cutoff < 1.0:
            raise ValueError(f"cutoff must lie in (0, 1), got {cutoff}")
        return (scores >= cutoff).astype(np.float64)
    if mode == "expected":
        return scores
    raise ValueError(f"unknown mode {mode!r}")


def stats(table: Table, predictions: np.ndarray, rows: np.ndarray | None = None,
          cutoff: float = 0.5, mode: str = "hard") -> SubgroupFrame:
    """Confusion statistics over a boolean row mask or an ascending row index (default all)."""
    h = positive_scores(predictions, table, mode, cutoff)
    m = slice(None) if rows is None else rows
    y = table.target[m]
    hm = h[m]
    n = y.size
    if n == 0:
        return SubgroupFrame(0, 0.0, 0.0, 0.0, 0.0, None, None, None,
                             undefined=("ppr", "tpr", "fpr"))
    pos = y == 1
    tp = float(np.sum(hm[pos]))
    fn = float(np.sum(1.0 - hm[pos]))
    fp = float(np.sum(hm[~pos]))
    tn = float(np.sum(1.0 - hm[~pos]))
    tpr = tp / (tp + fn) if pos.any() else None
    fpr = fp / (fp + tn) if (~pos).any() else None
    undefined = tuple(name for name, rate in (("tpr", tpr), ("fpr", fpr)) if rate is None)
    return SubgroupFrame(n, tp, fp, tn, fn, (tp + fp) / n, tpr, fpr, undefined,
                         positives=int(np.count_nonzero(pos)))
