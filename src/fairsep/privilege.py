"""Automated privilege discovery: proxy-attribute extraction and p selection.

``extract_privilege_attribute`` fits a classifier on one demographic group
only and ranks the numeric columns by permutation importance on a held-out
slice of that group — the column the group's own outcome model leans on
hardest is the candidate socio-economic proxy.

``select_p`` sweeps privileged-tail sizes: for each percentage p it computes
the ground-truth positive-rate ratio between demographic groups inside the
top-p% slice of the proxy column and reports the smallest p where the ratio
clears the four-fifths rule.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import (NUMERIC_KINDS, Design, FeatureEncoder, Table, as_design, cell_rows,
                      privilege_threshold)
from .errors import ConfigError, DegenerateThresholdError, ExtractionError, SchemaError
from .learner import BaseLearner, LearnerHP, fit_base

log = logging.getLogger(__name__)

HOLDOUT_FRACTION = 0.25  # of the group's rows of each outcome, held out for the importance


@dataclass
class ImportanceTable:
    """Permutation-importance ranking of candidate privilege proxies."""

    group: str
    repeats: int
    seed: int
    holdout_fraction: float
    baseline_accuracy: float
    rows: list[dict]  # attribute, importance, sd — sorted by the ranking rule
    chosen: str = ""
    tie_flagged: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def permutation_importance(
    learner: BaseLearner,
    X: Design | np.ndarray,
    y: np.ndarray,
    feature_groups: dict[str, list[int]],
    repeats: int,
    rng: np.random.Generator,
) -> dict[str, tuple[float, float]]:
    """Mean accuracy drop (and sd) per source column over shared shuffles.

    One permutation is drawn per repeat and applied to every candidate, so
    identical columns receive bitwise-identical importance.  The groups'
    columns must be numeric; each permutation replaces them in a copy of the
    numeric block only.
    """
    X = as_design(X)
    base_acc = float(np.mean(learner.predict(X) == y))
    drops: dict[str, list[float]] = {name: [] for name in feature_groups}
    for _ in range(repeats):
        perm = rng.permutation(len(y))
        for name, cols in feature_groups.items():
            acc = float(np.mean(learner.predict(X.permuted(cols, perm)) == y))
            drops[name].append(base_acc - acc)
    out = {}
    for name, vals in drops.items():
        arr = np.asarray(vals)
        sd = float(np.std(arr, ddof=1)) if len(arr) > 1 else 0.0
        out[name] = (float(np.mean(arr)), sd)
    return out


def extract_privilege_attribute(
    table: Table,
    group: str,
    hp: LearnerHP | None = None,
    repeats: int = 10,
    seed: int = 0,
) -> ImportanceTable:
    """Rank the ordinal and numerical columns by their pull on the group's outcome model.

    A learner is fitted on the group's rows alone; importance is measured on a
    held-out ``HOLDOUT_FRACTION`` of those rows, stratified by outcome.  Ties at the
    top are broken by the larger importance-minus-one-sd, then lexicographically,
    and the result is flagged.
    """
    prot = table.schema.protected
    if prot is None:
        raise SchemaError("privilege extraction needs a protected column")
    if repeats < 3:
        raise ConfigError(f"repeats must be >= 3, got {repeats}")
    levels = table.levels(prot.name)
    in_group = table.codes(prot.name) == (levels.index(group) if group in levels else -1)
    if not in_group.any():
        raise ExtractionError(f"group {group!r} has no rows")

    candidates = [c.name for c in table.schema.columns if c.kind in NUMERIC_KINDS]
    if len(candidates) < 2:
        raise ExtractionError(
            f"need >= 2 ordinal/numerical candidate columns, found {len(candidates)}"
        )

    rng = np.random.default_rng(seed)
    y = table.target
    idx_g = np.flatnonzero(in_group)
    holdout = np.zeros(table.rows, dtype=bool)
    for label in (0, 1):
        idx = idx_g[y[idx_g] == label]
        rng.shuffle(idx)
        n_ho = int(round(len(idx) * HOLDOUT_FRACTION))
        holdout[idx[:n_ho]] = True
    train = in_group & ~holdout
    if not holdout.any() or not train.any():
        raise ExtractionError(f"group {group!r} too small to hold out a slice")

    encoder = FeatureEncoder.fit(table, train)
    X_train, y_train = encoder.transform(table, train), y[train]
    X_ho, y_ho = encoder.transform(table, holdout), y[holdout]
    del table, y  # the fit and the permutations read only the encoded slices
    learner = fit_base(X_train, y_train, None, hp or LearnerHP())
    preds = learner.predict(X_ho)
    if len(set(preds.tolist())) < 2:
        raise ExtractionError(
            "degenerate learner: constant predictions on the held-out slice"
        )
    baseline = float(np.mean(preds == y_ho))

    feature_groups = {
        name: [j for j, (src, _) in enumerate(encoder.feature_map) if src == name]
        for name in candidates
    }
    scores = permutation_importance(learner, X_ho, y_ho, feature_groups,
                                    repeats, rng)

    # rank: importance desc, then importance-minus-sd desc, then name asc
    ordered = sorted(scores, key=lambda n: (-scores[n][0], -(scores[n][0] - scores[n][1]), n))
    top_imp = scores[ordered[0]][0]
    tied = [n for n in ordered if scores[n][0] == top_imp]
    tie_flagged = len(tied) > 1
    if tie_flagged:
        log.warning("importance tie at the top between %s; broken by "
                    "importance-minus-sd, then name", tied)
    rows = [{"attribute": n, "importance": scores[n][0], "sd": scores[n][1]}
            for n in ordered]
    return ImportanceTable(
        group=group, repeats=repeats, seed=seed,
        holdout_fraction=HOLDOUT_FRACTION, baseline_accuracy=baseline,
        rows=rows, chosen=ordered[0], tie_flagged=tie_flagged,
    )


# ---------------------------------------------------------------------------
# p-sweep
# ---------------------------------------------------------------------------

@dataclass
class PSweepResult:
    """Per-p ground-truth positive-rate ratios inside the top-p% slice."""

    column: str
    ratio_rule: float
    advantaged: str
    grid: list[float]
    entries: list[dict] = field(default_factory=list)
    satisfying: list[float] = field(default_factory=list)
    selected: float | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def select_p(
    table: Table,
    column: str | None = None,
    grid: list[float] | None = None,
    ratio_rule: float = 0.8,
    advantaged: str | None = None,
) -> PSweepResult:
    """Smallest p whose top-p% slice passes the positive-rate ratio rule.

    The ratio is disadvantaged-over-advantaged ground-truth positive rate; the
    advantaged group defaults to the one with the higher overall rate.  With
    more than two groups the worst (smallest) ratio decides.
    """
    if grid is None:
        grid = [float(p) for p in range(1, 21)]
    grid = [float(p) for p in grid]
    if not grid:
        raise ConfigError("p grid is empty")
    if sorted(grid) != grid or len(set(grid)) != len(grid):
        raise ConfigError("p grid must be strictly ascending")
    outside = [p for p in grid if not 0 < p < 100]
    if outside:
        raise ConfigError(f"p grid values must lie in (0, 100), got {outside[0]:g}")
    if not (math.isfinite(ratio_rule) and ratio_rule > 0):
        raise ConfigError(f"ratio rule must be a finite number > 0, got {ratio_rule}")
    prot = table.schema.protected
    if prot is None:
        raise SchemaError("p selection needs a protected column")
    column = table.schema.tagged_name("privilege", column)
    if table.schema[column].kind not in NUMERIC_KINDS:
        raise ConfigError(f"column {column!r} is not ordinal/numerical")
    if not table.rows:
        raise DegenerateThresholdError("empty table")

    y, x, names = table.target, table.column(column), table.levels(prot.name)
    ranked = {}  # per group: its values ascending, and its positives from each position on
    for g, rows in zip(names, cell_rows(table.codes(prot.name), len(names))):
        rows = rows[np.argsort(x[rows])]
        ranked[g] = (x[rows], np.cumsum(y[rows][::-1])[::-1])
    overall = {g: int(pos[0]) / len(pos) for g, (_, pos) in ranked.items()}
    if advantaged is None:
        advantaged = min(names, key=lambda g: (-overall[g], g))
    elif advantaged not in names:
        raise ConfigError(f"advantaged group {advantaged!r} not present")
    others = [g for g in names if g != advantaged]
    result = PSweepResult(column=column, ratio_rule=ratio_rule,
                          advantaged=advantaged, grid=grid)
    for p in grid:
        entry: dict = {"p": p, "tau": None, "realized_fraction": None,
                       "ppr": {}, "ratio": None, "defined": False, "note": ""}
        try:
            thr = privilege_threshold(table, p, column)
        except DegenerateThresholdError as exc:
            entry["note"] = f"no cutoff: {exc}"
            result.entries.append(entry)
            continue
        entry["tau"] = thr.privilege_cutoff
        entry["realized_fraction"] = thr.realized_fraction
        first = {g: int(np.searchsorted(xs, thr.privilege_cutoff)) for g, (xs, _) in ranked.items()}
        missing = [g for g in names if first[g] == len(ranked[g][0])]
        if missing:
            entry["note"] = f"top slice missing group(s) {missing}"
            result.entries.append(entry)
            continue
        ppr = {g: int(pos[first[g]]) / (len(pos) - first[g]) for g, (_, pos) in ranked.items()}
        entry["ppr"] = ppr
        if ppr[advantaged] == 0.0:
            entry["note"] = "advantaged group has zero positive rate in slice"
            result.entries.append(entry)
            continue
        entry["ratio"] = min(ppr[g] / ppr[advantaged] for g in others)
        entry["defined"] = True
        result.entries.append(entry)

    result.satisfying = [e["p"] for e in result.entries
                         if e["defined"] and e["ratio"] >= ratio_rule]
    if result.satisfying:
        result.selected = result.satisfying[0]
    else:
        result.note = "no p satisfies rule"
    return result
