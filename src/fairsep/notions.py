"""Fairness violation measures: EP, DP, CDP, SEP, CSEP, and relaxed SEP.

Every measure compares subgroup decision rates against a baseline and reports
a per-group term decomposition:

* T1  parity of positive-decision rates (underprivileged subgroup vs. the
  population, or the whole group for EP/DP-style notions)
* T2  effort parity inside the underprivileged subgroup: the weighted
  negative-decision average of high-effort rows against the plain average of
  low-effort rows
* T3  privileged-group false-positive cap: negative-decision average of
  privileged ground-truth negatives against the weighted average of
  high-effort underprivileged ground-truth negatives

EP/DP/CDP and the relaxed measure populate T1 only.  The aggregate is the
worst (maximum) per-group total; a report passes when the aggregate stays
within the configured tolerance.

``cells`` is the one place that decides which rows and weights make up each
term of each cell; ``violation`` evaluates those terms and
``learner.compile_constraints`` turns the same terms into constraints.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import EFFORT_SCOPES, NUMERIC_KINDS, Table, Thresholds, cell_rows, resolve_thresholds
from .errors import ConfigError, config_number, config_object, string_list
from .groupstats import positive_scores

log = logging.getLogger(__name__)

NOTIONS = ("EP", "DP", "CDP", "SEP", "CSEP", "SEP_relaxed")
SEP_FAMILY = ("SEP", "CSEP", "SEP_relaxed")


@dataclass(frozen=True)
class EffortWeighting:
    """Weight >= 1 applied to high-effort underprivileged rows.

    ``unit`` weighs everyone at 1.  ``linear_capped`` ramps linearly from 1 at
    the effort threshold up to ``cap`` at the cell's maximum observed effort.
    """

    kind: str = "linear_capped"
    cap: float = 2.0

    def __post_init__(self):
        if self.kind not in ("unit", "linear_capped"):
            raise ConfigError(f"unknown effort weighting kind {self.kind!r}")
        if not self.cap >= 1.0:  # also false for NaN
            raise ConfigError(f"effort weighting cap must be >= 1, got {self.cap}")

    def weights(self, efforts: np.ndarray, threshold: float, cell_max: float) -> np.ndarray:
        """Row weights of one cell from its efforts; rows below the threshold weigh exactly 1."""
        out = np.ones(len(efforts), dtype=np.float64)
        if self.kind == "unit":
            return out
        high = efforts >= threshold
        if cell_max <= threshold:
            if high.any():
                log.warning("effort cell has no spread above threshold %s; "
                            "weights stay 1", threshold)
            return out
        ramp = (efforts[high] - threshold) / (cell_max - threshold)
        out[high] = 1.0 + np.minimum(ramp, self.cap - 1.0)
        return out


@dataclass
class NotionConfig:
    """Full parameterization of one fairness notion."""

    kind: str
    protected: str
    conditional: str | None = None
    privilege_column: str | None = None
    p: float = 5.0
    effort_column: str | None = None
    effort_scope: str | None = None
    weighting: EffortWeighting = field(default_factory=EffortWeighting)
    epsilon: float = 0.05
    t3_literal_b: bool = False
    groups: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in NOTIONS:
            raise ConfigError(f"unknown notion {self.kind!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ConfigError(f"epsilon must be a finite number >= 0, got {self.epsilon}")
        if not 0 < self.p < 100:
            raise ConfigError(f"p must lie in (0, 100), got {self.p}")
        if not isinstance(self.t3_literal_b, bool):
            raise ConfigError(f"t3_literal_b must be true or false, got {self.t3_literal_b!r}")
        if self.kind in ("CDP", "CSEP") and not self.conditional:
            raise ConfigError(f"{self.kind} needs a conditional column")
        if self.kind in SEP_FAMILY and not self.privilege_column:
            raise ConfigError(f"{self.kind} needs a privilege column")
        if self.kind in ("SEP", "CSEP") and not self.effort_column:
            raise ConfigError(f"{self.kind} needs an effort column")
        if self.kind == "CSEP" and self.conditional in (self.privilege_column, self.effort_column):
            raise ConfigError("CSEP conditional column must differ from the "
                              "privilege and effort columns")
        if self.effort_scope is None:
            self.effort_scope = "per_category_group" if self.kind == "CSEP" else "per_group"
        if self.effort_scope not in EFFORT_SCOPES:
            raise ConfigError(f"unknown effort scope {self.effort_scope!r}")
        if self.kind == "SEP" and self.effort_scope == "per_category_group":
            raise ConfigError("SEP has no conditional column; use global or per_group scope")

    @classmethod
    def from_dict(cls, doc: dict, schema=None) -> "NotionConfig":
        """Build from a JSON document, filling tagged columns from the schema."""
        doc = dict(doc)
        weighting = config_object(doc, "zeta") or config_object(doc, "weighting")
        weighting = EffortWeighting(kind=weighting.get("kind", "linear_capped"),
                                    cap=config_number(weighting, "cap", 2.0))
        if schema is not None:
            for key, spec in (("protected", schema.protected),
                              ("privilege_column", schema.tagged("privilege")),
                              ("effort_column", schema.tagged("effort"))):
                if not doc.get(key) and spec is not None:
                    doc[key] = spec.name
            for key, kinds in (("conditional", ("categorical",)),
                               ("privilege_column", NUMERIC_KINDS),
                               ("effort_column", NUMERIC_KINDS)):
                kind = next((c.kind for c in schema.columns if c.name == doc.get(key)), "absent")
                if doc.get(key) not in (None, "") and kind not in kinds:
                    raise ConfigError(f"notion '{key}' must name a column of kind "
                                      f"{' or '.join(kinds)}; {doc[key]!r} is {kind}")
        if "kind" not in doc:
            raise ConfigError("notion config needs a 'kind'")
        if not doc.get("protected"):
            raise ConfigError("notion config needs a protected column")
        return cls(
            kind=doc["kind"],
            protected=doc["protected"],
            conditional=doc.get("conditional"),
            privilege_column=doc.get("privilege_column"),
            p=config_number(doc, "p", 5.0),
            effort_column=doc.get("effort_column"),
            effort_scope=doc.get("effort_scope"),
            weighting=weighting,
            epsilon=config_number(doc, "epsilon", 0.05),
            t3_literal_b=doc.get("t3_literal_b", False),
            groups=(None if doc.get("groups") is None
                    else string_list(doc["groups"], "notion 'groups'") or None),
        )

    def resolve_thresholds(self, table: Table) -> Thresholds | None:
        if self.kind not in SEP_FAMILY:
            return None
        if self.kind == "SEP_relaxed":
            from .dataset import privilege_threshold
            return privilege_threshold(table, self.p, self.privilege_column)
        return resolve_thresholds(
            table, self.p, self.effort_scope,
            privilege_column=self.privilege_column,
            effort_column=self.effort_column,
            category_column=self.conditional if self.kind == "CSEP" else None,
        )


@dataclass
class GroupTerms:
    t1: float = 0.0
    t2: float = 0.0
    t3: float = 0.0
    denominators: dict = field(default_factory=dict)
    computed: tuple[str, ...] = ()

    @property
    def total(self) -> float:
        return self.t1 + self.t2 + self.t3

    def to_dict(self) -> dict:
        return {"T1": self.t1, "T2": self.t2, "T3": self.t3, "total": self.total,
                "denominators": self.denominators}


@dataclass
class ViolationReport:
    notion: str
    epsilon: float
    aggregate: float
    passed: bool
    groups: dict[str, GroupTerms]
    categories: dict[str, dict[str, GroupTerms]] | None = None
    weighted_mean: float | None = None
    skipped: list[str] = field(default_factory=list)
    mode: str = "hard"
    thresholds: Thresholds | None = None

    @property
    def partial(self) -> bool:
        return bool(self.skipped)

    def to_dict(self) -> dict:
        doc = {
            "notion": self.notion,
            "epsilon": self.epsilon,
            "aggregate": self.aggregate,
            "pass": self.passed,
            "groups": {s: t.to_dict() for s, t in self.groups.items()},
            "categories": (
                None if self.categories is None else
                {a: {s: t.to_dict() for s, t in by_group.items()}
                 for a, by_group in self.categories.items()}
            ),
            "skipped": list(self.skipped),
            "partial": self.partial,
            "mode": self.mode,
        }
        if self.weighted_mean is not None:
            doc["weighted_mean"] = self.weighted_mean
        if self.thresholds is not None:
            doc["thresholds"] = {
                "privilege_cutoff": self.thresholds.privilege_cutoff,
                "p": self.thresholds.p,
                "realized_fraction": self.thresholds.realized_fraction,
                "effort_scope": self.thresholds.effort_scope,
                "effort": {"|".join(k): v for k, v in sorted(self.thresholds.effort.items())},
                "fallbacks": list(self.thresholds.fallbacks),
            }
        return doc


# ---------------------------------------------------------------------------
# Cells and terms: the one definition the audit and the trainer share
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Side:
    """One side of a term: mean(v) = sum of (zeta *) v[rows], / ``norm``.

    ``rows`` is an ascending int64 row index; ``zeta`` holds those rows'
    effort weights.  ``norm`` is the row count or the weight sum; under the
    literal-B T3 variant it is the weight of a larger row set.
    """

    rows: np.ndarray
    norm: float
    zeta: np.ndarray | None = None

    def mean(self, v: np.ndarray) -> float:
        vals = v[self.rows]
        if self.zeta is not None:
            vals = self.zeta * vals
        return float(np.sum(vals)) / self.norm


@dataclass(frozen=True)
class Term:
    """|mean(left) - mean(right)|, taken over h for T1 and over 1 - h for T2, T3."""

    key: str
    left: Side
    right: Side

    def gap(self, v: np.ndarray) -> float:
        return abs(self.left.mean(v) - self.right.mean(v))


@dataclass
class Cell:
    """One (category, group) cell of a notion: its defined terms and why others are not.

    ``support`` weighs the cell's total in the CDP/CSEP weighted mean.
    """

    label: str
    key: tuple
    terms: list[Term] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    denominators: dict = field(default_factory=dict)
    support: int = 0


_T1_DENOMINATORS = {"EP": ("n_group", "n"), "DP": ("n_group", "n"),
                    "CDP": ("n_cell", "n_category"),
                    "SEP_relaxed": ("n_underprivileged",)}


def cells(table: Table, cfg: NotionConfig, thresholds: Thresholds | None = None):
    """Yield the notion's cells one at a time, by category, then by group.

    Each category's rows come from ``cell_rows`` of the conditional codes, so
    every row index is ascending and a cell's subsets are found within its
    category's rows only.  The SEP family needs ``thresholds``.
    """
    kind = cfg.kind
    levels = table.levels(cfg.protected)
    group_names = list(cfg.groups) if cfg.groups is not None else levels
    group_codes = table.codes(cfg.protected)
    if kind in SEP_FAMILY:
        privileged = table.column(cfg.privilege_column) >= thresholds.privilege_cutoff
        negative = table.target == 0
    if kind in ("CDP", "CSEP"):
        categories = table.levels(cfg.conditional)
        slices = zip(categories, cell_rows(table.codes(cfg.conditional), len(categories)))
    else:
        slices = [(None, np.flatnonzero(table.target == 1) if kind == "EP"
                   else np.arange(table.rows))]

    def build(a, s, base) -> Cell:
        # a function of its own, so the group's row index is freed before the yield
        key = (s,) if a is None else (a, s)
        label = f"{kind}/{s}" if a is None else f"{kind}/({a},{s})"
        rows = base[group_codes[base] == (levels.index(s) if s in levels else -1)]
        if not base.size:
            reason = "conditioning event empty"
        elif a is not None and not rows.size:
            reason = "empty cell"
        elif kind in ("SEP", "CSEP"):
            return _sep_cell(label, key, rows, base, privileged, negative, table, cfg,
                             thresholds.effort_at(key))
        else:
            left = rows[~privileged[rows]] if kind == "SEP_relaxed" else rows
            if left.size:
                return Cell(label, key, [Term("T1", Side(left, left.size), Side(base, base.size))],
                            denominators=dict(zip(_T1_DENOMINATORS[kind], (left.size, base.size))),
                            support=left.size)
            reason = ("no underprivileged rows" if kind == "SEP_relaxed"
                      else "no rows in conditioning event")
        return Cell(label, key, skipped=[f"{label}: {reason}"])

    for a, base in slices:
        for s in group_names:
            yield build(a, s, base)


def _sep_cell(label, key, rows, base, privileged, negative, table, cfg, threshold) -> Cell:
    """T1/T2/T3 of one SEP cell: ``rows`` is the group's part of the slice ``base``.

    T1 compares the underprivileged rows with the slice.  T2 compares their
    low-effort rows with the effort-weighted high-effort ones.  T3 compares
    the slice's privileged negatives with the weighted high-effort
    underprivileged negatives, normalized by B0 (or by B if ``t3_literal_b``).
    Every subset is a selection of ``rows`` or ``base``, never of the table.
    """
    under = ~privileged[rows]
    cell = Cell(label, key, denominators={"A": None, "B": None, "B0": None, "C": None},
                support=int(under.sum()))
    d = cell.denominators
    if not cell.support:
        cell.skipped.append(f"{label}: T1,T2,T3 skipped (no underprivileged rows)")
        return cell
    cell.terms.append(Term("T1", Side(rows[under], cell.support), Side(base, base.size)))

    efforts = table.column(cfg.effort_column)[rows]
    zeta = cfg.weighting.weights(efforts, threshold, float(np.max(efforts)))
    low = rows[under & (efforts < threshold)]
    high = under & (efforts >= threshold)
    high, zeta = rows[high], zeta[high]
    d["A"] = low.size
    if high.size:
        d["B"] = float(np.sum(zeta))
    if low.size and high.size:
        cell.terms.append(Term("T2", Side(low, d["A"]), Side(high, d["B"], zeta)))
    else:
        cell.skipped.append(f"{label}: T2 skipped (effort split leaves an empty side)")

    priv_neg = base[privileged[base] & negative[base]]
    high_neg = negative[high]
    d["C"] = priv_neg.size
    if high_neg.any():
        d["B0"] = float(np.sum(zeta[high_neg]))
    if priv_neg.size and high_neg.any():
        norm = d["B"] if cfg.t3_literal_b else d["B0"]
        cell.terms.append(Term("T3", Side(priv_neg, d["C"]),
                               Side(high[high_neg], norm, zeta[high_neg])))
    else:
        cell.skipped.append(f"{label}: T3 skipped (no privileged negatives or no "
                            f"high-effort underprivileged negatives)")
    return cell


def violation(table: Table, predictions, cfg: NotionConfig,
              mode: str = "hard", cutoff: float = 0.5,
              thresholds: Thresholds | None = None) -> ViolationReport:
    """Evaluate the configured notion: every cell's terms, then the worst total.

    CDP and CSEP report each (category, group) cell, a per-group summary
    (the group's worst cell total) and the support-weighted mean of the cell
    totals.
    """
    h = positive_scores(predictions, table, mode, cutoff)
    if cfg.kind not in SEP_FAMILY:
        thresholds = None
    elif thresholds is None:
        thresholds = cfg.resolve_thresholds(table)
    neg = 1.0 - h
    over = {"T1": h, "T2": neg, "T3": neg}
    conditional = cfg.kind in ("CDP", "CSEP")
    groups: dict[str, GroupTerms] = {}
    categories: dict[str, dict[str, GroupTerms]] | None = {} if conditional else None
    worst: dict[str, list[float]] = {}
    skipped: list[str] = []
    totals, supports = [], []
    for cell in cells(table, cfg, thresholds):
        terms = GroupTerms(
            **{t.key.lower(): t.gap(over[t.key]) for t in cell.terms},
            denominators=cell.denominators,
            computed=tuple(t.key for t in cell.terms))
        skipped.extend(cell.skipped)
        cell_totals = worst.setdefault(cell.key[-1], [])
        if terms.computed:
            totals.append(terms.total)
            supports.append(cell.support)
            cell_totals.append(terms.total)
        if conditional:
            categories.setdefault(cell.key[0], {})[cell.key[1]] = terms
        else:
            groups[cell.key[0]] = terms
    if conditional:
        groups = {s: GroupTerms(t1=max(v), computed=("T1",)) if v else GroupTerms()
                  for s, v in worst.items()}
    aggregate = max(totals) if totals else 0.0
    weighted_mean = None
    if conditional and totals and sum(supports) > 0:
        weighted_mean = float(np.dot(totals, supports) / sum(supports))
    if not totals:
        skipped.append("no cell produced a defined term; aggregate defaults to 0")
    return ViolationReport(
        notion=cfg.kind, epsilon=cfg.epsilon, aggregate=aggregate,
        passed=aggregate <= cfg.epsilon, groups=groups, categories=categories,
        weighted_mean=weighted_mean, skipped=skipped, mode=mode, thresholds=thresholds,
    )
