"""Violation measures: frozen 8-row values, structural laws, and
equivalence against the independent brute-force reimplementation."""

import json
import random

import numpy as np
import pytest

from fairsep import (
    ConfigError,
    DegenerateThresholdError,
    EffortWeighting,
    NotionConfig,
    compile_constraints,
    violation,
)
from fairsep.dataset import effort_threshold
from fairsep.notions import segment_codes
from conftest import rows_to_table, scores_of
from oracles import brute_violation
from synth import random_rows

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # seeded fallback below
    given = None

# Fixed prediction vector paired with the 8-row fixture; every constant
# below was produced by the brute-force implementation in oracles.py.
HPRED = np.array([1, 0, 1, 0, 0, 1, 0, 1], dtype=np.float64)

ONE_SIXTH_GAP = 0.16666666666666669  # |4/8 - 1/3| in float64


def cfg_for(kind, **kw):
    """Config against the bundled 8-row fixture's column names."""
    base = dict(kind=kind, protected="sex", privilege_column="cap",
                effort_column="hours", p=25.0)
    if kind in ("CDP", "CSEP"):
        base["conditional"] = "occ"
    base.update(kw)
    return NotionConfig(**base)


def syn_cfg(kind, **kw):
    """Config against the generated tables' column names."""
    base = dict(kind=kind, protected="group", privilege_column="xp",
                effort_column="xe", p=25.0)
    if kind in ("CDP", "CSEP"):
        base["conditional"] = "cat"
    base.update(kw)
    return NotionConfig(**base)


# ---------------------------------------------------------------------------
# Frozen values on the bundled 8-row fixture
# ---------------------------------------------------------------------------

def test_ep_frozen_values(toy8):
    rep = violation(toy8, HPRED, cfg_for("EP"))
    assert rep.aggregate == 0.5
    assert rep.groups["F"].t1 == 0.5
    assert rep.groups["M"].t1 == 0.5
    assert rep.groups["F"].computed == ("T1",)
    assert not rep.passed
    assert not rep.partial


def test_dp_frozen_values(toy8):
    rep = violation(toy8, HPRED, cfg_for("DP"))
    assert rep.aggregate == 0.0
    assert rep.groups["F"].t1 == 0.0 and rep.groups["M"].t1 == 0.0
    assert rep.passed


def test_cdp_frozen_values(toy8):
    rep = violation(toy8, HPRED, cfg_for("CDP"))
    assert rep.aggregate == 0.0
    assert rep.passed
    for a in ("A", "B"):
        for s in ("F", "M"):
            cell = rep.categories[a][s]
            assert cell.t1 == 0.0
            assert cell.computed == ("T1",)
    assert rep.weighted_mean == 0.0


def test_sep_frozen_values(toy8):
    rep = violation(toy8, HPRED, cfg_for("SEP", weighting=EffortWeighting("unit")))
    assert rep.aggregate == 2.166666666666667
    assert not rep.passed

    f = rep.groups["F"]
    assert (f.t1, f.t2, f.t3) == (ONE_SIXTH_GAP, 1.0, 1.0)
    assert f.computed == ("T1", "T2", "T3")
    assert f.denominators == {"A": 1, "B": 2.0, "B0": 2.0, "C": 1}
    assert f.total == 2.166666666666667

    m = rep.groups["M"]
    assert (m.t1, m.t2, m.t3) == (ONE_SIXTH_GAP, 1.0, 0.0)
    assert m.denominators == {"A": 2, "B": 1.0, "B0": 1.0, "C": 1}

    th = rep.thresholds
    assert th.privilege_cutoff == 10000.0
    assert th.realized_fraction == 0.25
    assert th.effort == {("F",): 40.0, ("M",): 45.0}


def test_sep_linear_capped_frozen_values(toy8):
    rep = violation(toy8, HPRED, cfg_for("SEP"))  # default linear_capped cap=2
    assert rep.aggregate == 2.166666666666667
    assert rep.groups["F"].denominators == {"A": 1, "B": 3.0, "B0": 3.0, "C": 1}
    assert rep.groups["M"].denominators == {"A": 2, "B": 2.0, "B0": 2.0, "C": 1}


def test_csep_frozen_values(toy8):
    rep = violation(toy8, HPRED, cfg_for("CSEP", weighting=EffortWeighting("unit")))
    assert rep.aggregate == 2.0
    assert not rep.passed
    assert rep.partial  # several cells have one-sided effort splits

    af = rep.categories["A"]["F"]
    assert (af.t1, af.t2, af.t3) == (0.0, 1.0, 1.0)
    assert af.computed == ("T1", "T2", "T3")
    assert af.denominators == {"A": 1, "B": 1.0, "B0": 1.0, "C": 1}

    am = rep.categories["A"]["M"]
    assert am.t1 == 0.5
    assert am.computed == ("T1",)
    assert am.denominators == {"A": 1, "B": None, "B0": None, "C": 1}

    bf = rep.categories["B"]["F"]
    assert bf.t1 == 0.5
    assert bf.computed == ("T1",)
    assert bf.denominators == {"A": 0, "B": 1.0, "B0": 1.0, "C": 0}

    bm = rep.categories["B"]["M"]
    assert (bm.t1, bm.t2) == (0.0, 1.0)
    assert bm.computed == ("T1", "T2")
    assert bm.denominators == {"A": 1, "B": 1.0, "B0": 1.0, "C": 0}

    # support-weighted mean over computed cells, weighted by underprivileged
    # cell sizes 2/1/1/2
    assert rep.weighted_mean == (2 * 2.0 + 1 * 0.5 + 1 * 0.5 + 2 * 1.0) / 6

    assert rep.thresholds.effort == {
        ("A", "F"): 40.0, ("A", "M"): 50.0, ("B", "F"): 40.0, ("B", "M"): 40.0,
    }


def test_sep_relaxed_frozen_values(toy8):
    rep = violation(toy8, HPRED, cfg_for("SEP_relaxed"))
    assert rep.aggregate == ONE_SIXTH_GAP
    assert rep.groups["F"].t1 == ONE_SIXTH_GAP
    assert rep.groups["M"].t1 == ONE_SIXTH_GAP
    assert rep.groups["F"].computed == ("T1",)
    assert not rep.passed  # 0.1667 > 0.05


def test_expected_mode_frozen_dp(toy8):
    scores = np.array([0.5, 0.25, 1.0, 0.0, 0.75, 0.5, 0.25, 0.0])
    rep = violation(toy8, scores, cfg_for("DP"), mode="expected")
    assert rep.groups["F"].t1 == 0.03125
    assert rep.groups["M"].t1 == 0.03125
    assert rep.aggregate == 0.03125
    assert rep.passed
    assert rep.mode == "expected"


# ---------------------------------------------------------------------------
# Exact structural laws
# ---------------------------------------------------------------------------

def _random_cases(n_tables, seed, mode="hard"):
    rng = random.Random(seed)
    for _ in range(n_tables):
        rows = random_rows(rng, mode=mode)
        yield rows, rows_to_table(rows), scores_of(rows)


def test_constant_predictors_are_exactly_fair():
    checked = 0
    for rows, table, _ in _random_cases(50, seed=101):
        for value in (0.0, 1.0):
            h = np.full(len(rows), value)
            for kind in ("DP", "CDP", "SEP", "CSEP", "SEP_relaxed"):
                try:
                    rep = violation(table, h, syn_cfg(kind))
                except DegenerateThresholdError:
                    continue
                assert rep.aggregate == 0.0, f"{kind} h={value}"
                checked += 1
    assert checked > 300


def test_perfect_predictor_is_exactly_fair_for_ep():
    for rows, table, _ in _random_cases(50, seed=102):
        h = table.target.astype(np.float64)
        rep = violation(table, h, syn_cfg("EP"))
        assert rep.aggregate == 0.0


def test_relaxed_never_exceeds_full_measure():
    compared = 0
    for rows, table, h in _random_cases(120, seed=103):
        try:
            full = violation(table, h, syn_cfg("SEP"))
        except DegenerateThresholdError:
            continue
        relaxed = violation(table, h, syn_cfg("SEP_relaxed"))
        assert relaxed.aggregate <= full.aggregate
        for s in ("F", "M"):
            if relaxed.groups[s].computed:
                assert relaxed.groups[s].t1 == full.groups[s].t1
        compared += 1
    assert compared >= 60


def test_single_category_cdp_collapses_to_dp():
    for rows, table, h in _random_cases(40, seed=104):
        for r in rows:
            r["cat"] = "A"
        table = rows_to_table(rows)
        dp = violation(table, h, syn_cfg("DP"))
        cdp = violation(table, h, syn_cfg("CDP", conditional="cat"))
        assert cdp.aggregate == dp.aggregate
        for s in ("F", "M"):
            assert cdp.categories["A"][s].t1 == dp.groups[s].t1


def test_single_category_csep_collapses_to_sep():
    collapsed = 0
    for rows, table, h in _random_cases(60, seed=105):
        for r in rows:
            r["cat"] = "A"
        table = rows_to_table(rows)
        try:
            sep = violation(table, h, syn_cfg("SEP", effort_scope="per_group"))
        except DegenerateThresholdError:
            continue
        csep = violation(table, h, syn_cfg("CSEP", conditional="cat"))
        assert csep.aggregate == sep.aggregate
        for s in ("F", "M"):
            a, b = csep.categories["A"][s], sep.groups[s]
            assert (a.t1, a.t2, a.t3) == (b.t1, b.t2, b.t3)
            assert a.computed == b.computed
            assert a.denominators == b.denominators
        collapsed += 1
    assert collapsed >= 30


def _close(a, b):
    """Equal, or both numbers within 1e-12 of each other."""
    return a == b or (None not in (a, b) and abs(a - b) <= 1e-12)


def test_row_permutation_invariance():
    # counts, the A and C denominators, hard-mode T1 and each compiled constraint's
    # names, codes and plain codes' coefficients are exact in any row order; what
    # sums zeta or expected scores in row order (B, B0 and the weighted codes'
    # coefficients -1/B or -1/B0, T2, T3, expected-mode T1, values) may move in its
    # last bits
    rng = random.Random(106)
    compared = 0
    for mode in ("hard", "expected"):
        for rows, table, h in _random_cases(25, seed=107 if mode == "hard" else 109, mode=mode):
            order = list(range(len(rows)))
            rng.shuffle(order)
            shuffled = rows_to_table([rows[i] for i in order])
            h2 = h[order]
            for kind in ("EP", "DP", "CDP", "SEP", "CSEP", "SEP_relaxed"):
                for weighting, literal in (("unit", False), ("linear_capped", False),
                                           ("linear_capped", True)):
                    cfg = syn_cfg(kind, weighting=EffortWeighting(weighting),
                                  t3_literal_b=literal)
                    try:
                        a = violation(table, h, cfg, mode=mode)
                    except DegenerateThresholdError:
                        continue
                    b = violation(shuffled, h2, cfg, mode=mode)
                    assert _close(a.aggregate, b.aggregate), kind
                    assert _close(a.weighted_mean, b.weighted_mean), kind
                    assert a.skipped == b.skipped, kind
                    # every cell, not only the worst, sees the same rows in any row order
                    ta, tb = _cell_terms(a), _cell_terms(b)
                    assert ta.keys() == tb.keys(), kind
                    for cell, (t1, t2, t3, dens, computed) in ta.items():
                        t1b, t2b, t3b, densb, computedb = tb[cell]
                        assert computed == computedb and dens.keys() == densb.keys()
                        assert t1 == t1b if mode == "hard" else _close(t1, t1b), (kind, cell)
                        assert _close(t2, t2b) and _close(t3, t3b), (kind, cell)
                        for key, value in dens.items():
                            assert (value == densb[key] if key not in ("B", "B0")
                                    else _close(value, densb[key])), (kind, cell, key)
                    ca, cb = compile_constraints(table, cfg), compile_constraints(shuffled, cfg)
                    assert [c.name for c in ca] == [c.name for c in cb], kind
                    for c, c2 in zip(ca, cb):
                        np.testing.assert_array_equal(c.codes, c2.codes)
                        plain = c.codes < c.table.counts.size
                        np.testing.assert_array_equal(c.coef[plain], c2.coef[plain])
                        np.testing.assert_allclose(c.coef, c2.coef, rtol=1e-12, atol=0)
                        assert _close(c.offset, c2.offset) and c.slack == c2.slack
                        assert _close(c.value(h), c2.value(h2)), c.name
                    compared += 1
    assert compared >= 500


def _cell_terms(report):
    """Each cell's T1/T2/T3, denominators and computed terms, by category and group."""
    by_category = report.categories or {None: report.groups}
    return {(a, g): (t.t1, t.t2, t.t3, t.denominators, t.computed)
            for a, by_group in by_category.items() for g, t in by_group.items()}


def test_monotone_privilege_transform_leaves_sep_unchanged():
    # squaring a nonnegative column preserves ranks, so the privileged set,
    # and with it every term, is identical
    for rows, table, h in _random_cases(30, seed=108):
        transformed = [dict(r, xp=r["xp"] ** 2) for r in rows]
        t2 = rows_to_table(transformed)
        for kind in ("SEP", "CSEP", "SEP_relaxed"):
            try:
                a = violation(table, h, syn_cfg(kind))
            except DegenerateThresholdError:
                with pytest.raises(DegenerateThresholdError):
                    violation(t2, h, syn_cfg(kind))
                continue
            b = violation(t2, h, syn_cfg(kind))
            assert a.aggregate == b.aggregate


# ---------------------------------------------------------------------------
# Effort weighting
# ---------------------------------------------------------------------------

def test_weight_bounds_and_ramp():
    w = EffortWeighting("linear_capped", cap=2.0)
    efforts = np.array([50.0, 70.0, 90.0])
    out = w.weights(efforts, threshold=50.0, cell_max=90.0)
    assert out[0] == 1.0               # at the threshold the ramp starts at 1
    assert out[1] == 1.5               # halfway up
    assert out[2] == 2.0               # cap reached at the cell max
    assert (out >= 1.0).all() and (out <= 2.0).all()


def test_weight_cap_binds_early():
    w = EffortWeighting("linear_capped", cap=1.25)
    efforts = np.array([50.0, 60.0, 70.0, 90.0])
    out = w.weights(efforts, threshold=50.0, cell_max=90.0)
    np.testing.assert_array_equal(out, [1.0, 1.25, 1.25, 1.25])


def test_unit_weighting_is_all_ones():
    w = EffortWeighting("unit")
    out = w.weights(np.array([1.0, 99.0]), threshold=5.0, cell_max=99.0)
    np.testing.assert_array_equal(out, [1.0, 1.0])


def test_degenerate_ramp_warns_and_stays_unit(caplog):
    w = EffortWeighting("linear_capped")
    efforts = np.array([10.0, 50.0, 50.0])
    with caplog.at_level("WARNING"):
        out = w.weights(efforts, threshold=50.0, cell_max=50.0)
    np.testing.assert_array_equal(out, [1.0, 1.0, 1.0])
    assert any("no spread" in m for m in caplog.messages)


def test_degenerate_ramp_warning_respects_cell_mask(caplog):
    w = EffortWeighting("linear_capped")
    efforts = np.array([10.0, 50.0, 80.0])
    cell = np.array([True, False, False])  # the affected cell has no high rows
    with caplog.at_level("WARNING"):
        out = w.weights(efforts[cell & (efforts >= 50.0)], threshold=50.0, cell_max=40.0)
    np.testing.assert_array_equal(out, np.zeros(0))
    assert not any("no spread" in m for m in caplog.messages)


def test_degenerate_ramp_warning_names_its_cell(caplog):
    # every effort is 40, so in each group the high-effort rows reach no higher than
    # the threshold, 40: both cells warn with one threshold, each naming its cell
    rows = [{"group": g, "xp": 10000 if i == 0 else 0, "xe": 40, "cat": "A", "y": i % 2,
             "h": 1.0} for g in ("F", "M") for i in range(4)]
    with caplog.at_level("WARNING"):
        violation(rows_to_table(rows), scores_of(rows), syn_cfg("SEP"))
    assert [m for m in caplog.messages if "no spread" in m] == [
        f"SEP/{g} has no spread above threshold 40.0; weights stay 1" for g in ("F", "M")]


def test_weighting_validation():
    with pytest.raises(ConfigError, match="unknown effort weighting"):
        EffortWeighting("quadratic")
    with pytest.raises(ConfigError, match="cap must be"):
        EffortWeighting("linear_capped", cap=0.5)
    with pytest.raises(ConfigError, match="cap must be"):
        EffortWeighting("linear_capped", cap=float("nan"))


def test_t3_denominator_flag_switches_normalization():
    # one privileged negative predicted positive (so its term is 0), one
    # high-effort negative at weight 1 predicted negative; strict
    # normalization divides by the negatives' weight (1), the literal flag
    # divides by all high-effort weight (2)
    rows = [
        {"group": "F", "xp": 0,    "xe": 10, "cat": "A", "y": 0, "h": 1.0},
        {"group": "F", "xp": 0,    "xe": 60, "cat": "A", "y": 0, "h": 0.0},
        {"group": "F", "xp": 0,    "xe": 60, "cat": "A", "y": 1, "h": 1.0},
        {"group": "F", "xp": 9000, "xe": 40, "cat": "A", "y": 0, "h": 1.0},
        {"group": "M", "xp": 0,    "xe": 10, "cat": "A", "y": 0, "h": 1.0},
        {"group": "M", "xp": 0,    "xe": 60, "cat": "A", "y": 0, "h": 0.0},
    ]
    table, h = rows_to_table(rows), scores_of(rows)
    unit = EffortWeighting("unit")
    strict = violation(table, h, syn_cfg("SEP", weighting=unit, p=25.0))
    literal = violation(table, h, syn_cfg("SEP", weighting=unit, p=25.0,
                                          t3_literal_b=True))
    assert strict.groups["F"].t3 == 1.0
    assert literal.groups["F"].t3 == 0.5
    assert strict.groups["F"].denominators["B"] == 2.0
    assert strict.groups["F"].denominators["B0"] == 1.0
    # cross-check both against the brute-force implementation
    assert brute_violation(rows, "SEP", p=25.0)["groups"]["F"]["t3"] == 1.0
    assert brute_violation(rows, "SEP", p=25.0, literal_b=True)["groups"]["F"]["t3"] == 0.5


# ---------------------------------------------------------------------------
# Configuration and report structure
# ---------------------------------------------------------------------------

def test_notion_config_validation():
    with pytest.raises(ConfigError, match="unknown notion"):
        NotionConfig(kind="EO", protected="sex")
    with pytest.raises(ConfigError, match="conditional"):
        NotionConfig(kind="CDP", protected="sex")
    with pytest.raises(ConfigError, match="privilege"):
        NotionConfig(kind="SEP", protected="sex", effort_column="hours")
    with pytest.raises(ConfigError, match="effort"):
        NotionConfig(kind="SEP", protected="sex", privilege_column="cap")
    with pytest.raises(ConfigError, match="must differ"):
        NotionConfig(kind="CSEP", protected="sex", conditional="cap",
                     privilege_column="cap", effort_column="hours")
    with pytest.raises(ConfigError, match="epsilon"):
        NotionConfig(kind="DP", protected="sex", epsilon=-0.1)
    for p in (0.0, 100.0, 150.0, -1.0, float("nan")):
        with pytest.raises(ConfigError, match=r"p must lie in \(0, 100\)"):
            NotionConfig(kind="DP", protected="sex", p=p)
    with pytest.raises(ConfigError, match="scope"):
        NotionConfig(kind="SEP", protected="sex", privilege_column="cap",
                     effort_column="hours", effort_scope="per_category_group")


def test_notion_config_default_scopes():
    sep = syn_cfg("SEP")
    assert sep.effort_scope == "per_group"
    csep = syn_cfg("CSEP")
    assert csep.effort_scope == "per_category_group"


def test_notion_config_from_dict_with_schema(toy8):
    cfg = NotionConfig.from_dict(
        {"kind": "CSEP", "conditional": "occ", "p": 25,
         "zeta": {"kind": "unit"}},
        schema=toy8.schema,
    )
    assert cfg.protected == "sex"
    assert cfg.privilege_column == "cap"
    assert cfg.effort_column == "hours"
    assert cfg.weighting.kind == "unit"
    assert cfg.p == 25.0
    with pytest.raises(ConfigError, match="'kind'"):
        NotionConfig.from_dict({"protected": "sex"})
    with pytest.raises(ConfigError, match="protected"):
        NotionConfig.from_dict({"kind": "DP"})


def test_groups_override_restricts_evaluation(toy8):
    rep = violation(toy8, HPRED, cfg_for("SEP", groups=("F",),
                                         weighting=EffortWeighting("unit")))
    assert list(rep.groups) == ["F"]
    assert rep.aggregate == 2.166666666666667


def test_empty_conditioning_event_yields_partial_zero():
    rows = [
        {"group": "F", "xp": 0, "xe": 10, "cat": "A", "y": 0, "h": 1.0},
        {"group": "M", "xp": 5, "xe": 20, "cat": "B", "y": 0, "h": 0.0},
    ]
    table = rows_to_table(rows)
    rep = violation(table, scores_of(rows), syn_cfg("EP"))
    assert rep.aggregate == 0.0
    assert rep.partial
    assert any("no cell produced a defined term" in s for s in rep.skipped)
    assert rep.groups["F"].computed == ()


def test_report_serializes_to_json(toy8):
    rep = violation(toy8, HPRED, cfg_for("CSEP"))
    doc = rep.to_dict()
    assert set(doc) >= {"notion", "epsilon", "aggregate", "pass", "groups",
                        "categories", "skipped", "partial", "mode"}
    assert doc["notion"] == "CSEP"
    assert set(doc["categories"]["A"]["F"]) == {"T1", "T2", "T3", "total",
                                                "denominators"}
    assert doc["thresholds"]["privilege_cutoff"] == 10000.0
    assert "A|F" in doc["thresholds"]["effort"]
    json.dumps(doc)  # must be serializable as-is

    flat = violation(toy8, HPRED, cfg_for("DP")).to_dict()
    assert flat["categories"] is None
    json.dumps(flat)


# ---------------------------------------------------------------------------
# Equivalence with the brute-force implementation
# ---------------------------------------------------------------------------

CELL_KEYS = {"EP": None, "DP": None, "CDP": "cells", "SEP": None,
             "CSEP": "cells", "SEP_relaxed": None}


def _assert_matches_oracle(rows, table, h, kind, mode, tol=1e-12, **cfg_kw):
    oracle_kw = {}
    if cfg_kw.get("weighting") is not None:
        oracle_kw["kind"] = cfg_kw["weighting"].kind
        oracle_kw["cap"] = cfg_kw["weighting"].cap
    if cfg_kw.get("t3_literal_b"):
        oracle_kw["literal_b"] = True
    o_rows = [dict(r) for r in rows]
    if mode == "hard":
        for r in o_rows:
            r["h"] = 1.0 if r["h"] >= 0.5 else 0.0
    expected = brute_violation(o_rows, kind, p=25.0, **oracle_kw)
    try:
        rep = violation(table, h, syn_cfg(kind, **cfg_kw), mode=mode)
    except DegenerateThresholdError:
        assert expected["degenerate"], f"{kind}: only the candidate saw a degenerate cutoff"
        return False
    assert not expected["degenerate"], f"{kind}: only the brute force saw a degenerate cutoff"
    assert abs(rep.aggregate - expected["aggregate"]) <= tol, kind
    assert 0.0 <= rep.aggregate <= 3.0
    if CELL_KEYS[kind] == "cells":
        for (a, s), cell in expected["cells"].items():
            got = rep.categories[a][s]
            for attr, key in (("t1", "t1"), ("t2", "t2"), ("t3", "t3")):
                assert abs(getattr(got, attr) - cell[key]) <= tol, (kind, a, s, attr)
                assert 0.0 <= getattr(got, attr) <= 1.0 + tol
            assert set(got.computed) == cell["computed"], (kind, a, s)
    else:
        for s, cell in expected["groups"].items():
            got = rep.groups[s]
            for attr in ("t1", "t2", "t3"):
                assert abs(getattr(got, attr) - cell[attr]) <= tol, (kind, s, attr)
                assert 0.0 <= getattr(got, attr) <= 1.0 + tol
            assert set(got.computed) == cell["computed"], (kind, s)
    return True


def test_matches_brute_force_on_random_tables():
    rng = random.Random(2024)
    evaluated = 0
    for i in range(60):
        mode = "hard" if i % 2 == 0 else "expected"
        rows = random_rows(rng, mode=mode)
        table, h = rows_to_table(rows), scores_of(rows)
        weighting = (EffortWeighting("unit") if i % 3 == 0 else
                     EffortWeighting("linear_capped", cap=1.5 if i % 3 == 1 else 2.0))
        literal = i % 5 == 0
        for kind in ("EP", "DP", "CDP", "SEP", "CSEP", "SEP_relaxed"):
            if _assert_matches_oracle(rows, table, h, kind, mode,
                                      weighting=weighting, t3_literal_b=literal):
                evaluated += 1
    assert evaluated >= 200


# ---------------------------------------------------------------------------
# The segment code: one privileged / high / low split of every row
# ---------------------------------------------------------------------------

SEGMENT_CASES = [("SEP", "global"), ("SEP", "per_group"), ("CSEP", "global"),
                 ("CSEP", "per_group"), ("CSEP", "per_category_group"),
                 ("SEP_relaxed", None), ("SEP_relaxed", "group means")]


def check_segment_codes_match_the_per_row_rule(seed: int) -> None:
    rng = random.Random(seed)
    rows = random_rows(rng)
    rows.append(dict(rows[-1], cat="D"))  # a one-row category, so one cell falls back
    table = rows_to_table(rows)
    kind, scope = SEGMENT_CASES[seed % len(SEGMENT_CASES)]
    cfg = syn_cfg(kind, p=rng.choice([10.0, 25.0, 50.0]),
                  effort_scope=None if kind == "SEP_relaxed" else scope)
    try:
        thresholds = cfg.resolve_thresholds(table)
    except DegenerateThresholdError:
        return
    if scope == "group means":  # the effort split stats.csv gives SEP_relaxed
        cutoff = thresholds.privilege_cutoff
        thresholds = effort_threshold(table, "per_group", "xe")
        thresholds.privilege_cutoff = cutoff
    if scope == "per_category_group":
        assert any("'D'" in f for f in thresholds.fallbacks), thresholds.fallbacks
    code, count = segment_codes(table, cfg, thresholds)
    groups = table.levels("group")
    cats = table.levels("cat") if kind == "CSEP" else [None]
    assert count == 3 * len(cats) * len(groups)
    expected = []
    for r in rows:
        a = r["cat"] if kind == "CSEP" else None
        if r["xp"] >= thresholds.privilege_cutoff:
            segment = 0
        elif thresholds.effort and r["xe"] >= thresholds.effort_at((a, r["group"])):
            segment = 1
        else:
            segment = 2
        expected.append((cats.index(a) * len(groups) + groups.index(r["group"])) * 3 + segment)
    assert code.tolist() == expected


if given is not None:
    test_segment_codes_match_the_per_row_rule = settings(
        max_examples=200, deadline=None, derandomize=True, database=None)(
        given(st.integers(0, 2**32 - 1))(check_segment_codes_match_the_per_row_rule))
else:
    test_segment_codes_match_the_per_row_rule = pytest.mark.parametrize(
        "seed", range(200))(check_segment_codes_match_the_per_row_rule)
