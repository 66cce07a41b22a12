"""Privilege-proxy extraction and privileged-fraction (p) selection."""

import random

import numpy as np
import pytest

from fairsep import Schema
from fairsep.dataset import Table
from fairsep.errors import ConfigError, ExtractionError
from fairsep.learner import BaseLearner
from fairsep.privilege import extract_privilege_attribute, permutation_importance, select_p
from conftest import rows_to_table
from synth import privilege_driven_table

EXTRA_SCHEMA = Schema.from_dict({
    "columns": [
        {"name": "group", "kind": "protected"},
        {"name": "xp", "kind": "numerical", "tags": ["privilege"]},
        {"name": "noise", "kind": "numerical"},
        {"name": "xe", "kind": "numerical", "tags": ["effort"]},
        {"name": "cat", "kind": "categorical"},
        {"name": "y", "kind": "target"},
    ]
})


def signal_table(n=240, seed=0):
    """Outcome driven by xp alone; noise and xe are independent."""
    rng = random.Random(seed)
    cols = {"group": [], "xp": [], "noise": [], "xe": [], "cat": [], "y": []}
    for i in range(n):
        xp = rng.randrange(10) * 1000
        cols["group"].append(("F", "M")[i % 2])
        cols["xp"].append(float(xp))
        cols["noise"].append(float(rng.randint(0, 100)))
        cols["xe"].append(float(rng.randint(20, 60)))
        cols["cat"].append(rng.choice("AB"))
        cols["y"].append(1 if xp >= 5000 else 0)
    return Table(EXTRA_SCHEMA, {
        "group": np.array(cols["group"], dtype=object),
        "xp": np.array(cols["xp"]),
        "noise": np.array(cols["noise"]),
        "xe": np.array(cols["xe"]),
        "cat": np.array(cols["cat"], dtype=object),
        "y": np.array(cols["y"], dtype=np.int64),
    })


# ---------------------------------------------------------------------------
# Permutation importance
# ---------------------------------------------------------------------------

def test_zero_weight_column_has_exactly_zero_importance():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(80, 2))
    y = (X[:, 0] > 0).astype(np.int64)
    learner = BaseLearner(weights=np.array([3.0, 0.0]), intercept=0.0)
    scores = permutation_importance(learner, X, y,
                                    {"used": [0], "unused": [1]},
                                    repeats=5, rng=np.random.default_rng(1))
    assert scores["unused"] == (0.0, 0.0)
    assert scores["used"][0] > 0.1


def test_identical_columns_get_bitwise_identical_importance():
    rng = np.random.default_rng(2)
    col = rng.normal(size=60)
    X = np.stack([col, col], axis=1)
    y = (col > 0).astype(np.int64)
    learner = BaseLearner(weights=np.array([1.5, 1.5]), intercept=0.0)
    scores = permutation_importance(learner, X, y, {"a": [0], "b": [1]},
                                    repeats=6, rng=np.random.default_rng(3))
    assert scores["a"] == scores["b"]


def test_importance_uses_shared_permutations_for_determinism():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 2))
    y = (X[:, 0] + 0.2 * X[:, 1] > 0).astype(np.int64)
    learner = BaseLearner(weights=np.array([1.0, 0.3]), intercept=0.0)
    a = permutation_importance(learner, X, y, {"x0": [0], "x1": [1]},
                               repeats=4, rng=np.random.default_rng(7))
    b = permutation_importance(learner, X, y, {"x0": [0], "x1": [1]},
                               repeats=4, rng=np.random.default_rng(7))
    assert a == b


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def test_extraction_finds_the_outcome_driving_column():
    table = signal_table()
    for group in ("F", "M"):
        result = extract_privilege_attribute(table, group, repeats=5, seed=0)
        assert result.chosen == "xp"
        assert result.rows[0]["attribute"] == "xp"
        assert result.rows[0]["importance"] > 0.2
        by_name = {r["attribute"]: r for r in result.rows}
        assert by_name["noise"]["importance"] <= 0.05
        assert set(by_name) == {"xp", "noise", "xe"}


def test_extraction_is_stable_across_seeds():
    table = privilege_driven_table(n=600, seed=11)
    for seed in range(5):
        result = extract_privilege_attribute(table, "F", repeats=5, seed=seed)
        assert result.chosen == "xp"


def test_extraction_is_deterministic_per_seed():
    table = signal_table(seed=3)
    a = extract_privilege_attribute(table, "F", repeats=5, seed=42)
    b = extract_privilege_attribute(table, "F", repeats=5, seed=42)
    assert a.rows == b.rows
    assert a.baseline_accuracy == b.baseline_accuracy
    assert a.chosen == b.chosen


def test_duplicated_column_ties_are_flagged(caplog):
    rng = random.Random(5)
    schema = Schema.from_dict({"columns": [
        {"name": "group", "kind": "protected"},
        {"name": "a", "kind": "numerical"},
        {"name": "b", "kind": "numerical"},
        {"name": "y", "kind": "target"},
    ]})
    vals = [float(rng.randrange(10)) for _ in range(120)]
    table = Table(schema, {
        "group": np.array([("F", "M")[i % 2] for i in range(120)], dtype=object),
        "a": np.array(vals),
        "b": np.array(vals),
        "y": np.array([1 if v >= 5 else 0 for v in vals], dtype=np.int64),
    })
    with caplog.at_level("WARNING"):
        result = extract_privilege_attribute(table, "F", repeats=5, seed=0)
    assert result.tie_flagged
    assert result.chosen == "a"  # exact tie broken lexicographically
    assert result.rows[0]["importance"] == result.rows[1]["importance"]
    assert any("tie" in m for m in caplog.messages)


def test_extraction_argument_validation():
    table = signal_table()
    with pytest.raises(ConfigError, match="repeats"):
        extract_privilege_attribute(table, "F", repeats=2)
    with pytest.raises(ExtractionError, match="no rows"):
        extract_privilege_attribute(table, "X")
    with pytest.raises(ExtractionError, match=">= 2 ordinal/numerical candidate columns, found 1"):
        extract_privilege_attribute(table.project({"group", "xp", "cat"}), "F")


def test_extraction_degenerate_group_outcomes():
    rows = []
    rng = random.Random(6)
    for i in range(80):
        g = ("F", "M")[i % 2]
        rows.append({"group": g, "xp": float(rng.randrange(10) * 1000),
                     "xe": float(rng.randint(20, 60)), "cat": "A",
                     "y": 0 if g == "F" else rng.randint(0, 1)})
    table = rows_to_table(rows)
    with pytest.raises(ExtractionError, match="degenerate learner"):
        extract_privilege_attribute(table, "F", repeats=5)


def test_extraction_group_too_small():
    rows = [
        {"group": "F", "xp": 1.0, "xe": 1.0, "cat": "A", "y": 0},
        {"group": "F", "xp": 2.0, "xe": 2.0, "cat": "A", "y": 1},
        {"group": "M", "xp": 3.0, "xe": 3.0, "cat": "A", "y": 0},
        {"group": "M", "xp": 4.0, "xe": 4.0, "cat": "A", "y": 1},
    ]
    with pytest.raises(ExtractionError, match="too small"):
        extract_privilege_attribute(rows_to_table(rows), "F", repeats=3)


def test_importance_table_serialization():
    table = signal_table()
    doc = extract_privilege_attribute(table, "F", repeats=4, seed=1).to_dict()
    assert set(doc) == {"group", "repeats", "seed", "holdout_fraction",
                        "baseline_accuracy", "rows", "chosen", "tie_flagged"}
    assert doc["group"] == "F" and doc["repeats"] == 4
    assert all(set(r) == {"attribute", "importance", "sd"} for r in doc["rows"])


# ---------------------------------------------------------------------------
# p selection
# ---------------------------------------------------------------------------

def rank_table(n, y_of, seed=None):
    """Distinct privilege ranks 1..n, groups alternating F/M."""
    rows = []
    for i in range(1, n + 1):
        g = "F" if i % 2 else "M"
        rows.append({"group": g, "xp": float(i), "xe": 10.0, "cat": "A",
                     "y": y_of(i, g)})
    return rows_to_table(rows)


def test_select_p_equal_rates_pass_everywhere():
    t = rank_table(200, lambda i, g: 1 if i > 100 else 0)
    res = select_p(t)
    defined = [e["p"] for e in res.entries if e["defined"]]
    assert res.satisfying == defined
    assert res.selected == min(defined)
    for e in res.entries:
        if e["defined"]:
            assert e["ratio"] == 1.0


def test_select_p_satisfying_set_matches_inline_recount():
    table = privilege_driven_table(n=800, seed=11)
    res = select_p(table)
    xp = table.column("xp")
    y = table.target
    groups = table.column("group")
    adv = res.advantaged
    expected_satisfying = []
    for e in res.entries:
        if e["tau"] is None:
            continue
        top = xp >= e["tau"]
        rates = {}
        ok = True
        for g in ("F", "M"):
            cell = top & (groups == g)
            if not cell.any():
                ok = False
                break
            rates[g] = float(np.mean(y[cell]))
        if not ok or rates[adv] == 0.0:
            continue
        other = "F" if adv == "M" else "M"
        if rates[other] / rates[adv] >= 0.8:
            expected_satisfying.append(e["p"])
    assert res.satisfying == expected_satisfying
    if expected_satisfying:
        assert res.selected == expected_satisfying[0]


def test_select_p_monotone_transform_invariance():
    table = privilege_driven_table(n=600, seed=12)
    res = select_p(table)
    squared = Table(table.schema, {
        name: (table.column(name) ** 2 if name == "xp"
               else table.column(name).copy())
        for name in ("group", "xp", "xe", "cat", "y")
    })
    res2 = select_p(squared)
    assert res2.satisfying == res.satisfying
    assert res2.selected == res.selected
    assert res2.advantaged == res.advantaged
    for a, b in zip(res.entries, res2.entries):
        assert a["p"] == b["p"]
        assert a["defined"] == b["defined"]
        assert a["realized_fraction"] == b["realized_fraction"]
        assert a["ratio"] == b["ratio"]
        assert a["ppr"] == b["ppr"]


def test_select_p_advantaged_defaults_and_override():
    # M has the higher overall ground-truth rate
    t = rank_table(100, lambda i, g: 1 if (g == "M" and i > 20) else 0)
    res = select_p(t, grid=[20.0, 50.0])
    assert res.advantaged == "M"
    forced = select_p(t, grid=[20.0, 50.0], advantaged="F")
    assert forced.advantaged == "F"
    with pytest.raises(ConfigError, match="not present"):
        select_p(t, advantaged="X")
    # exact overall tie: broken by name, smallest first
    tie = rank_table(100, lambda i, g: 1 if i > 50 else 0)
    assert select_p(tie, grid=[50.0]).advantaged == "F"


def test_select_p_zero_advantaged_rate_is_undefined():
    t = rank_table(100, lambda i, g: 1 if i <= 10 else 0)  # top slices all 0
    res = select_p(t, grid=[10.0, 20.0])
    assert res.selected is None
    assert res.note == "no p satisfies rule"
    assert all(not e["defined"] for e in res.entries)
    assert any("zero positive rate" in e["note"] for e in res.entries)


def test_select_p_degenerate_grid_points_are_noted(toy8):
    # only 25% of rows clear the top capital level, so every p in 1..20
    # fails to produce a cutoff
    res = select_p(toy8)
    assert res.column == "cap"
    assert all(e["tau"] is None for e in res.entries)
    assert all("no cutoff" in e["note"] for e in res.entries)
    assert res.selected is None
    assert res.note == "no p satisfies rule"


def test_select_p_grid_validation():
    t = rank_table(40, lambda i, g: i % 2)
    with pytest.raises(ConfigError, match="empty"):
        select_p(t, grid=[])
    with pytest.raises(ConfigError, match="ascending"):
        select_p(t, grid=[10.0, 5.0])
    with pytest.raises(ConfigError, match="ascending"):
        select_p(t, grid=[5.0, 5.0, 10.0])
    for grid in ([0.0, 5.0], [5.0, 100.0], [5.0, float("nan")]):
        with pytest.raises(ConfigError, match=r"must lie in \(0, 100\)"):
            select_p(t, grid=grid)


def test_select_p_missing_group_in_slice_is_noted():
    # the single top row belongs to one group only
    t = rank_table(100, lambda i, g: 1 if i > 50 else 0)
    res = select_p(t, grid=[1.0, 4.0])
    first = res.entries[0]
    assert not first["defined"]
    assert "missing group" in first["note"]
    assert res.entries[1]["defined"]


SWEEP_SCHEMA = Schema.from_dict({"columns": [
    {"name": "group", "kind": "protected"},
    {"name": "xp", "kind": "numerical", "tags": ["privilege"]},
    {"name": "y", "kind": "target"},
]})


def test_select_p_counts_match_per_p_slicing():
    # select_p counts each group's top slice from one sort of the group; every entry
    # must equal the per-p boolean slicing of the rows, bit for bit, on tables with
    # few distinct values (ties at the cutoff), groups held below a cutoff and
    # advantaged slices without a positive
    rng = np.random.default_rng(2024)
    seen = {"tie": 0, "missing": 0, "zero": 0, "defined": 0}
    for _ in range(300):
        n = int(rng.integers(12, 160))
        names = ["F", "M", "X"][:int(rng.integers(2, 4))]
        groups = np.array(names * n)[:n]
        rng.shuffle(groups)
        x = rng.integers(0, int(rng.integers(2, 12)), n).astype(float)
        if rng.random() < 0.3:  # one group below the top values
            x[groups == names[-1]] = x.min()
        y = (rng.random(n) < rng.random()).astype(np.int64)
        if rng.random() < 0.3:  # no positive at the top
            y[x >= np.median(x)] = 0
        table = Table(SWEEP_SCHEMA, {"group": groups.astype(object), "xp": x, "y": y})
        res = select_p(table, grid=[float(p) for p in range(5, 100, 5)])
        for e in res.entries:
            if e["tau"] is None:
                continue
            seen["tie"] += int(np.count_nonzero(x == e["tau"]) > 1)
            top = {g: y[(groups == g) & (x >= e["tau"])] for g in names}
            if any(not rows.size for rows in top.values()):
                assert "missing group" in e["note"] and e["ppr"] == {}, e
                seen["missing"] += 1
                continue
            ppr = {g: float(np.mean(rows)) for g, rows in top.items()}
            assert e["ppr"] == ppr, (e, ppr)
            if ppr[res.advantaged] == 0.0:
                assert "zero positive rate" in e["note"] and e["ratio"] is None, e
                seen["zero"] += 1
                continue
            assert e["ratio"] == min(ppr[g] / ppr[res.advantaged]
                                     for g in names if g != res.advantaged), e
            seen["defined"] += 1
    assert all(seen.values()), seen


def test_select_p_result_serialization():
    t = rank_table(100, lambda i, g: 1 if i > 50 else 0)
    doc = select_p(t, grid=[10.0, 20.0]).to_dict()
    assert set(doc) == {"column", "ratio_rule", "advantaged", "grid",
                        "entries", "satisfying", "selected", "note"}
    assert doc["grid"] == [10.0, 20.0]
