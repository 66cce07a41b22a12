"""Subgroup membership masks and confusion statistics (PPR / TPR / FPR)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CODED_KINDS, NUMERIC_KINDS, Table
from .errors import AlignmentError, PredicateError

MODES = ("hard", "expected")


@dataclass(frozen=True)
class Clause:
    """One atomic condition: equality on a string/target column, or a
    threshold (``>=`` / ``<``) on a numeric column."""

    column: str
    op: str  # "==", ">=", "<"
    value: object

    def evaluate(self, table: Table) -> np.ndarray:
        spec = table.schema[self.column]  # raises SchemaError on unknown column
        if self.op == "==" and spec.kind in CODED_KINDS:
            if str(self.value) not in table.levels(self.column) and table.rows > 0:
                raise PredicateError(
                    f"value {self.value!r} never occurs in column {self.column!r}"
                )
            return table.mask(self.column, str(self.value))
        col = table.column(self.column)
        if self.op == "==":
            if spec.kind == "target":
                if self.value not in (0, 1):
                    raise PredicateError(f"target equality needs 0/1, got {self.value!r}")
                return col == int(self.value)
            return col == float(self.value)
        if self.op in (">=", "<"):
            if spec.kind not in NUMERIC_KINDS:
                raise PredicateError(
                    f"threshold clause needs a numeric column, {self.column!r} is {spec.kind}"
                )
            t = float(self.value)
            return col >= t if self.op == ">=" else col < t
        raise PredicateError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class Predicate:
    """Conjunction of clauses; the empty predicate is all-true."""

    clauses: tuple[Clause, ...] = ()

    @classmethod
    def of(cls, *clauses: tuple) -> "Predicate":
        return cls(tuple(Clause(c, op, v) for c, op, v in clauses))

    def and_(self, column: str, op: str, value) -> "Predicate":
        return Predicate(self.clauses + (Clause(column, op, value),))


def mask(table: Table, pred: Predicate) -> np.ndarray:
    """Boolean row mask: true where every clause holds."""
    out = np.ones(table.rows, dtype=bool)
    for clause in pred.clauses:
        try:
            out &= clause.evaluate(table)
        except (KeyError, ValueError) as exc:
            raise PredicateError(str(exc))
    return out


@dataclass
class SubgroupFrame:
    """Confusion counts and rates over a row subset.

    Rates with an empty denominator are None and listed in ``undefined``; in
    expected mode the counts are fractional (sums of scores).  ``positives``,
    the number of rows with target 1, is not part of ``to_dict``.
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

    @property
    def empty(self) -> bool:
        return self.n == 0

    def to_dict(self) -> dict:
        return {
            "n": self.n, "tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn,
            "ppr": self.ppr, "tpr": self.tpr, "fpr": self.fpr,
        }


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


def stats(table: Table, predictions: np.ndarray, pred: Predicate | None = None,
          cutoff: float = 0.5, mode: str = "hard") -> SubgroupFrame:
    """Confusion statistics of the predictions over the rows matching ``pred``."""
    h = positive_scores(predictions, table, mode, cutoff)
    m = mask(table, pred) if pred is not None else np.ones(table.rows, dtype=bool)
    y = table.target[m]
    hm = h[m]
    n = int(m.sum())
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
