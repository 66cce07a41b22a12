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

``cells`` is the one place that decides what makes up each term of each cell: each side
is a set of (category, group, segment, target) codes; ``violation`` evaluates the terms
from per-code sums and ``learner.compile_constraints`` turns them into constraints.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import dataset
from .dataset import EFFORT_SCOPES, NUMERIC_KINDS, Table, Thresholds, cell_rows
from .errors import REQUIRED, ConfigError, checked
from .groupstats import positive_scores

log = logging.getLogger(__name__)

NOTIONS = ("EP", "DP", "CDP", "SEP", "CSEP", "SEP_relaxed")
SEP_FAMILY = ("SEP", "CSEP", "SEP_relaxed")
SEGMENTS = ("privileged", "under_high", "under_low")
# The keys of a notion block and of its 'zeta' object; a key declared without
# a default takes that of NotionConfig or EffortWeighting.
NOTION = {"kind": ("a string", REQUIRED), "protected": ("a string", None),
          "conditional": ("a string", None), "privilege_column": ("a string", None),
          "p": "a number", "effort_column": ("a string", None),
          "effort_scope": ("a string", None), "zeta": ("an object", None),
          "epsilon": "a number", "t3_literal_b": "a boolean",
          "groups": ("a list of strings", None)}
ZETA = {"kind": "a string", "cap": "a number"}


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

    def weights(self, efforts: np.ndarray, threshold: float, cell_max: float,
                cell: str = "effort cell") -> np.ndarray:
        """Weights of ``cell``'s high-effort rows (effort >= ``threshold``) from their efforts."""
        ones = np.ones(len(efforts), dtype=np.float64)
        if self.kind == "unit":
            return ones
        if cell_max <= threshold:
            if len(efforts):
                log.warning("%s has no spread above threshold %s; weights stay 1",
                            cell, threshold)
            return ones
        return 1.0 + np.minimum((efforts - threshold) / (cell_max - threshold), self.cap - 1.0)


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
        checked({k: v for k, v in vars(self).items() if k in NOTION}, NOTION, "notion key")
        if self.kind not in NOTIONS:
            raise ConfigError(f"unknown notion {self.kind!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ConfigError(f"epsilon must be a finite number >= 0, got {self.epsilon}")
        if not 0 < self.p < 100:
            raise ConfigError(f"p must lie in (0, 100), got {self.p}")
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
        doc = checked(doc, NOTION, "notion key")
        weighting = EffortWeighting(**checked(doc.pop("zeta") or {}, ZETA, "notion 'zeta' key"))
        if schema is not None:
            for key, spec in (("protected", schema.protected),
                              ("privilege_column", schema.tagged("privilege")),
                              ("effort_column", schema.tagged("effort"))):
                if not doc.get(key) and spec is not None:
                    doc[key] = spec.name
            for key, kinds in (("protected", ("protected",)), ("conditional", ("categorical",)),
                               ("privilege_column", NUMERIC_KINDS),
                               ("effort_column", NUMERIC_KINDS)):
                kind = next((c.kind for c in schema.columns if c.name == doc.get(key)), "absent")
                if doc.get(key) not in (None, "") and kind not in kinds:
                    raise ConfigError(f"notion '{key}' must name a column of kind "
                                      f"{' or '.join(kinds)}; {doc[key]!r} is {kind}")
        if not doc["protected"]:
            raise ConfigError("notion config needs a protected column")
        groups = doc.pop("groups") or None
        return cls(**doc, weighting=weighting, groups=groups)

    def resolve_thresholds(self, table: Table) -> Thresholds | None:
        """The one record of the privilege cutoff and, but for SEP_relaxed, the effort
        thresholds; the one place that joins them."""
        if self.kind not in SEP_FAMILY:
            return None
        priv = dataset.privilege_threshold(table, self.p, self.privilege_column)
        if self.kind == "SEP_relaxed":
            return priv
        eff = dataset.effort_threshold(table, self.effort_scope, self.effort_column,
                                       self.conditional if self.kind == "CSEP" else None)
        return replace(eff, privilege_cutoff=priv.privilege_cutoff, p=priv.p,
                       realized_fraction=priv.realized_fraction)


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
            doc["thresholds"] = dict(asdict(self.thresholds), effort={
                "|".join(k): v for k, v in sorted(self.thresholds.effort.items())})
        return doc


# ---------------------------------------------------------------------------
# Cells and terms: the one definition the audit and the trainer share
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Side:
    """One side of a term: the sum of v (of zeta * v if ``zeta``) over its ``codes``, / ``norm``,
    the codes' row count or zeta sum (literal-B T3 divides by a larger sum)."""

    codes: np.ndarray
    norm: float
    zeta: bool = False

    def mean(self, sums: tuple[np.ndarray, np.ndarray]) -> float:  # per-code v, zeta * v
        return float(sums[self.zeta][self.codes].sum()) / self.norm


@dataclass(frozen=True)
class Term:
    """|mean(left) - mean(right)|, taken over h for T1 and over 1 - h for T2, T3."""

    key: str
    left: Side
    right: Side

    def gap(self, sums: tuple[np.ndarray, np.ndarray]) -> float:
        return abs(self.left.mean(sums) - self.right.mean(sums))


@dataclass
class Cell:
    """One (category, group) cell of a notion: its defined terms, why others are not,
    and the ``support`` that weighs its total in the CDP/CSEP weighted mean."""

    label: str
    key: tuple
    terms: list[Term] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    denominators: dict = field(default_factory=dict)
    support: int = 0


@dataclass(eq=False)
class CodeTable:
    """Each row's ``code`` (``segment_codes`` code * 2 + target) and effort weight ``zeta``
    (0 outside high-effort underprivileged rows), each code's row ``counts``, the rows
    in ``order`` of code, and the notion's ``cells``, whose sides are sets of codes."""

    code: np.ndarray
    zeta: np.ndarray
    counts: np.ndarray
    order: np.ndarray
    cells: list[Cell] = field(default_factory=list)

    def sum(self, v: np.ndarray) -> np.ndarray:
        """The per-code sums of v, each added pairwise as ``np.sum`` adds."""
        held, out = self.counts > 0, np.zeros(self.counts.size)
        out[held] = np.add.reduceat(v[self.order], (np.cumsum(self.counts) - self.counts)[held])
        return out


_T1_DENOMINATORS = {"EP": ("n_group", "n"), "DP": ("n_group", "n"),
                    "CDP": ("n_cell", "n_category"), "SEP_relaxed": ("n_underprivileged",)}


def segment_codes(table: Table, cfg: NotionConfig, thresholds: Thresholds | None):
    """Each row's code over (category, group, segment), and the count of codes of cells.

    The code is ``(category * groups + group) * segments + segment``, with
    categories for CDP and CSEP only.  The SEP family's ``SEGMENTS`` are
    privileged (privilege >= the cutoff), else high effort iff effort >= the
    row's cell ``thresholds.effort_at``, else low.  SEP_relaxed resolves no
    effort thresholds; stats.csv passes it the per-group mean efforts, so it
    splits at its group's mean effort.  Other notions have one segment, and
    EP's rows with y = 0 take the count.
    """
    names, conditional = table.levels(cfg.protected), cfg.kind in ("CDP", "CSEP")
    categories = table.levels(cfg.conditional) if conditional else [None]
    key = table.codes(cfg.protected) + (
        table.codes(cfg.conditional) * len(names) if conditional else 0)
    size = len(categories) * len(names)
    if cfg.kind not in SEP_FAMILY:
        return (np.where(table.target == 1, key, size) if cfg.kind == "EP" else key), size
    at = [thresholds.effort_at((a, g)) for a in categories for g in names if thresholds.effort]
    high = bool(at) and table.column(cfg.effort_column) >= np.array(at)[key]
    privileged = table.column(cfg.privilege_column) >= thresholds.privilege_cutoff
    return key * 3 + np.where(privileged, 0, 2 - high), 3 * size


def cells(table: Table, cfg: NotionConfig, thresholds: Thresholds | None = None) -> CodeTable:
    """The notion's code table, with its cells by category, then by group: each side spans
    a run of a cell's codes (its ``segment_codes`` segments by target) or its category's,
    or for T3 the category's privileged negatives.  The SEP family needs ``thresholds``."""
    kind, levels = cfg.kind, table.levels(cfg.protected)
    categories = table.levels(cfg.conditional) if kind in ("CDP", "CSEP") else [None]
    groups = cfg.groups if cfg.groups is not None else levels
    code, size = segment_codes(table, cfg, thresholds)
    code = code * 2 + table.target  # the last two codes hold the rows of no cell
    found = CodeTable(code, np.zeros(table.rows), np.bincount(code, minlength=2 * size + 2),
                      np.concatenate(cell_rows(code, 2 * size + 2)))
    counts, bounds = found.counts, np.cumsum(np.r_[0, found.counts])  # code c's in order
    width = 2 * size // len(categories)  # codes per category
    span = width // len(levels)  # codes per cell

    def name(a, s) -> tuple[tuple, str]:
        return ((s,), f"{kind}/{s}") if a is None else ((a, s), f"{kind}/({a},{s})")

    if kind in ("SEP", "CSEP"):  # weigh each cell's high-effort underprivileged rows at once
        efforts = table.column(cfg.effort_column)
        for c, (a, s) in enumerate(itertools.product(categories, levels)):
            rows = found.order[bounds[6 * c]:bounds[6 * c + 6]]  # the cell's rows
            high = found.order[bounds[6 * c + 2]:bounds[6 * c + 4]]  # its high-effort ones
            if high.size and s in groups:
                (key, label), top = name(a, s), float(np.max(efforts[rows]))
                found.zeta[high] = cfg.weighting.weights(efforts[high], thresholds.effort_at(key),
                                                         top, cell=label)
    weights = found.sum(found.zeta)

    def count(codes) -> int:
        return int(counts[codes].sum())

    def build(a, s, own) -> Cell:
        key, label = name(a, s)
        codes = own[span * levels.index(s):][:span] if s in levels else own[:0]
        left = codes[2:] if kind in SEP_FAMILY else codes
        n_left, n_base = count(left), count(own)
        if not n_base:
            reason = "conditioning event empty"
        elif a is not None and not count(codes):
            reason = "empty cell"
        elif n_left:
            cell = Cell(label, key, [Term("T1", Side(left, n_left), Side(own, n_base))],
                        denominators=dict(zip(_T1_DENOMINATORS.get(kind, ()), (n_left, n_base))),
                        support=n_left)
            if kind in ("SEP", "CSEP"):
                _sep_terms(cell, codes, own[0::6], count, weights, cfg.t3_literal_b)
            return cell
        elif kind in ("SEP", "CSEP"):
            return Cell(label, key, denominators=dict.fromkeys(("A", "B", "B0", "C")),
                        skipped=[f"{label}: T1,T2,T3 skipped (no underprivileged rows)"])
        else:
            reason = ("no underprivileged rows" if kind == "SEP_relaxed"
                      else "no rows in conditioning event")
        return Cell(label, key, skipped=[f"{label}: {reason}"])

    every = np.arange(counts.size)
    for i, a in enumerate(categories):
        found.cells.extend(build(a, s, every[i * width:(i + 1) * width]) for s in groups)
    return found


def _sep_terms(cell: Cell, codes, priv_neg, count, weights, literal_b: bool) -> None:
    """Add T2 and T3 to an SEP cell from its privileged, high- and low-effort ``codes``:
    T2 compares the low-effort rows with the effort-weighted high-effort ones, T3 the
    category's privileged negatives ``priv_neg`` with the weighted high-effort
    negatives, normalized by B0 (or by B if ``literal_b``)."""
    high, low = codes[2:4], codes[4:6]  # each segment's negatives, then its positives
    n_low, n_high, n_high_neg, n_priv = count(low), count(high), count(high[:1]), count(priv_neg)
    b = float(weights[high].sum()) if n_high else None
    b0 = float(weights[high[0]]) if n_high_neg else None
    cell.denominators = {"A": n_low, "B": b, "B0": b0, "C": n_priv}
    if n_low and n_high:
        cell.terms.append(Term("T2", Side(low, n_low), Side(high, b, True)))
    else:
        cell.skipped.append(f"{cell.label}: T2 skipped (effort split leaves an empty side)")
    if n_priv and n_high_neg:
        cell.terms.append(Term("T3", Side(priv_neg, n_priv),
                               Side(high[:1], b if literal_b else b0, True)))
    else:
        cell.skipped.append(f"{cell.label}: T3 skipped (no privileged negatives or no "
                            f"high-effort underprivileged negatives)")


def violation(table: Table, predictions, cfg: NotionConfig,
              mode: str = "hard", cutoff: float = 0.5) -> ViolationReport:
    """Evaluate the configured notion: every cell's terms, then the worst total.

    CDP and CSEP report each (category, group) cell, a per-group summary
    (the group's worst cell total) and the support-weighted mean of the cell
    totals.
    """
    h = positive_scores(predictions, table, mode, cutoff)
    thresholds = cfg.resolve_thresholds(table)
    found = cells(table, cfg, thresholds)
    over = {"T1": (found.sum(h), None)}
    if cfg.kind in ("SEP", "CSEP"):  # T2 and T3 read 1 - h, and zeta * (1 - h)
        over["T2"] = over["T3"] = (found.sum(1.0 - h), found.sum(found.zeta * (1.0 - h)))
    conditional = cfg.kind in ("CDP", "CSEP")
    groups: dict[str, GroupTerms] = {}
    categories: dict[str, dict[str, GroupTerms]] | None = {} if conditional else None
    worst: dict[str, list[float]] = {}
    skipped, totals, supports = [], [], []
    for cell in found.cells:
        terms = GroupTerms(**{t.key.lower(): t.gap(over[t.key]) for t in cell.terms},
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
    weighted_mean = (float(np.dot(totals, supports) / sum(supports))
                     if conditional and sum(supports) > 0 else None)
    if not totals:
        skipped.append("no cell produced a defined term; aggregate defaults to 0")
    return ViolationReport(
        notion=cfg.kind, epsilon=cfg.epsilon, aggregate=aggregate,
        passed=aggregate <= cfg.epsilon, groups=groups, categories=categories,
        weighted_mean=weighted_mean, skipped=skipped, mode=mode, thresholds=thresholds,
    )
