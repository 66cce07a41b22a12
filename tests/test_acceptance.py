"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Criteria that need the census income dataset skip with download
instructions when ``data/adult.csv`` is absent; everything else runs on
bundled or generated data.
"""

from __future__ import annotations

import json
import random
import time
import warnings

import numpy as np

from fairsep.bundled import toy8_paths
from fairsep.cli import main as cli_main
from fairsep.dataset import (
    DegenerateThresholdError,
    effort_threshold,
    privilege_threshold,
    stratified_split,
)
from fairsep.learner import (
    ExpGradHP,
    LearnerHP,
    encode_features,
    exponentiated_gradient,
    fit_base,
)
from fairsep.notions import NOTIONS, EffortWeighting, NotionConfig, violation
from fairsep.privilege import extract_privilege_attribute, select_p

from conftest import load_adult_or_skip, rows_to_table, scores_of
from oracles import brute_violation
from synth import planted_dp_table, privilege_driven_table, random_rows

TOY8_DATA, TOY8_SCHEMA = (str(p) for p in toy8_paths())


def syn_cfg(kind: str, **kw) -> NotionConfig:
    base = dict(kind=kind, protected="group", privilege_column="xp",
                effort_column="xe", p=25.0)
    if kind in ("CDP", "CSEP"):
        base["conditional"] = "cat"
    base.update(kw)
    return NotionConfig(**base)


# ---------------------------------------------------------------------------
# criterion 1 — census ground-truth disparity is reproduced from data alone
# ---------------------------------------------------------------------------


def test_criterion_01_adult_ground_truth_ppr_ratio():
    t0 = time.monotonic()
    table = load_adult_or_skip()
    y = table.target
    sex = table.column("sex")
    ppr_female = float(y[sex == "Female"].mean())
    ppr_male = float(y[sex == "Male"].mean())
    ratio = ppr_female / ppr_male
    elapsed = time.monotonic() - t0
    assert abs(ratio - 0.36) <= 0.02, f"female/male positive-rate ratio {ratio:.4f}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 2 — every notion matches an independent brute-force oracle
# ---------------------------------------------------------------------------


def _matches_oracle(rows, kind, mode, weighting, literal_b, tol=1e-12) -> bool:
    """True when compared; False when both sides saw a degenerate cutoff."""
    oracle_kw = {"kind": weighting.kind, "cap": weighting.cap,
                 "literal_b": literal_b}
    o_rows = [dict(r) for r in rows]
    if mode == "hard":
        for r in o_rows:
            r["h"] = 1.0 if r["h"] >= 0.5 else 0.0
    expected = brute_violation(o_rows, kind, p=25.0, **oracle_kw)
    table, h = rows_to_table(rows), scores_of(rows)
    cfg = syn_cfg(kind, weighting=weighting, t3_literal_b=literal_b)
    try:
        rep = violation(table, h, cfg, mode=mode)
    except DegenerateThresholdError:
        assert expected["degenerate"], f"{kind}: only the candidate degenerated"
        return False
    assert not expected["degenerate"], f"{kind}: only the oracle degenerated"
    assert abs(rep.aggregate - expected["aggregate"]) <= tol, kind
    if kind in ("CDP", "CSEP"):
        for (a, s), cell in expected["cells"].items():
            got = rep.categories[a][s]
            for attr in ("t1", "t2", "t3"):
                assert abs(getattr(got, attr) - cell[attr]) <= tol, (kind, a, s, attr)
            assert set(got.computed) == cell["computed"], (kind, a, s)
    else:
        for s, cell in expected["groups"].items():
            got = rep.groups[s]
            for attr in ("t1", "t2", "t3"):
                assert abs(getattr(got, attr) - cell[attr]) <= tol, (kind, s, attr)
            assert set(got.computed) == cell["computed"], (kind, s)
    return True


def test_criterion_02_oracle_equivalence_on_200_random_tables():
    rng = random.Random(20240817)
    full_tables = 0
    attempts = 0
    while full_tables < 200:
        attempts += 1
        assert attempts <= 800, "random generator starves the comparison loop"
        mode = "hard" if attempts % 2 == 0 else "expected"
        rows = random_rows(rng, mode=mode)
        weighting = (EffortWeighting("unit") if attempts % 3 == 0 else
                     EffortWeighting("linear_capped", cap=1.5 + (attempts % 2)))
        literal_b = attempts % 5 == 0
        compared = [
            _matches_oracle(rows, kind, mode, weighting, literal_b)
            for kind in NOTIONS
        ]
        if all(compared):
            full_tables += 1


# ---------------------------------------------------------------------------
# criterion 3 — trivial predictors score exactly zero; relaxed never exceeds
# the full notion
# ---------------------------------------------------------------------------


def test_criterion_03_trivial_predictors_and_relaxed_bound():
    rng = random.Random(33)

    constant_checked = 0
    for _ in range(40):
        rows = random_rows(rng, mode="hard")
        table = rows_to_table(rows)
        for const in (0.0, 1.0):
            h = np.full(table.rows, const)
            for kind in ("DP", "CDP", "SEP", "CSEP", "SEP_relaxed"):
                try:
                    rep = violation(table, h, syn_cfg(kind))
                except DegenerateThresholdError:
                    continue
                assert rep.aggregate == 0.0, (kind, const)
                assert rep.passed
                constant_checked += 1
    assert constant_checked >= 150

    for _ in range(40):
        rows = random_rows(rng, mode="hard")
        table = rows_to_table(rows)
        h = table.target.astype(np.float64)
        rep = violation(table, h, syn_cfg("EP"))
        assert rep.aggregate == 0.0

    pairs = 0
    attempts = 0
    while pairs < 1000:
        attempts += 1
        assert attempts <= 4000, "too many degenerate draws"
        rows = random_rows(rng, mode="hard" if attempts % 2 else "expected")
        table, h = rows_to_table(rows), scores_of(rows)
        mode = "hard" if attempts % 2 else "expected"
        try:
            full = violation(table, h, syn_cfg("SEP"), mode=mode)
            relaxed = violation(table, h, syn_cfg("SEP_relaxed"), mode=mode)
        except DegenerateThresholdError:
            continue
        assert relaxed.aggregate <= full.aggregate + 1e-12
        pairs += 1


# ---------------------------------------------------------------------------
# criterion 4 — one-category conditional notions collapse to their
# unconditional counterparts exactly
# ---------------------------------------------------------------------------


def test_criterion_04_single_category_collapses_exactly():
    rng = random.Random(44)
    csep_compared = 0
    for _ in range(50):
        rows = random_rows(rng, mode="hard")
        for r in rows:
            r["cat"] = "only"
        table, h = rows_to_table(rows), scores_of(rows)

        flat = violation(table, h, syn_cfg("DP"))
        cond = violation(table, h, syn_cfg("CDP"))
        assert cond.aggregate == flat.aggregate
        for g, terms in flat.groups.items():
            got = cond.categories["only"][g]
            assert (got.t1, got.t2, got.t3) == (terms.t1, terms.t2, terms.t3)
            assert got.computed == terms.computed

        try:
            flat_sep = violation(table, h, syn_cfg("SEP"))
            cond_sep = violation(table, h, syn_cfg("CSEP"))
        except DegenerateThresholdError:
            continue
        assert cond_sep.aggregate == flat_sep.aggregate
        for g, terms in flat_sep.groups.items():
            got = cond_sep.categories["only"][g]
            assert (got.t1, got.t2, got.t3) == (terms.t1, terms.t2, terms.t3)
            assert got.computed == terms.computed
            assert got.denominators == terms.denominators
        csep_compared += 1
    assert csep_compared >= 25


# ---------------------------------------------------------------------------
# criteria 5–7 — constrained training on the census dataset
# ---------------------------------------------------------------------------

ADULT_BASE = {"epochs": 300}


def _split_adult(table, seed=42):
    train_mask, test_mask = stratified_split(table, 0.3, seed)
    train_t, test_t = table.take(train_mask), table.take(test_mask)
    X_train, encoder = encode_features(train_t)
    return train_t, test_t, X_train, encoder


def _train_adult(table, notion: dict, max_iter=30, eps_train=0.02):
    train_t, test_t, X_train, encoder = _split_adult(table)
    cfg = NotionConfig.from_dict(dict(notion), table.schema)
    hp = ExpGradHP(max_iter=max_iter, eps_train=eps_train,
                   base=LearnerHP(**ADULT_BASE))
    model = exponentiated_gradient(train_t, cfg, hp,
                                   features=X_train, encoder=encoder)
    scores = model.predict_scores(encoder.transform(test_t))
    return test_t, (scores >= 0.5).astype(np.float64)


def test_criterion_05_dp_training_closes_the_gap_on_adult():
    table = load_adult_or_skip()
    t0 = time.monotonic()
    train_t, test_t, X_train, encoder = _split_adult(table)
    y_test = test_t.target.astype(np.float64)

    base = fit_base(X_train, train_t.target.astype(np.float64), None,
                    LearnerHP(**ADULT_BASE))
    base_h = (base.predict_proba(encoder.transform(test_t)) >= 0.5)
    base_acc = float((base_h == y_test).mean())

    test_t2, h = _train_adult(table, {"kind": "DP"})
    sex = test_t2.column("sex")
    gap = abs(float(h[sex == "Male"].mean()) - float(h[sex == "Female"].mean()))
    acc = float((h == y_test).mean())
    elapsed = time.monotonic() - t0

    assert gap <= 0.05, f"held-out positive-rate gap {gap:.4f}"
    assert acc >= base_acc - 0.03, f"accuracy {acc:.4f} vs baseline {base_acc:.4f}"
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_06_cdp_training_keeps_tpr_high_on_adult():
    table = load_adult_or_skip()
    test_t, h = _train_adult(table, {"kind": "CDP", "conditional": "occupation"})
    sex = test_t.column("sex")
    y = test_t.target
    ppr = {}
    for g in ("Female", "Male"):
        in_g = sex == g
        tpr = float(h[in_g & (y == 1)].mean())
        ppr[g] = float(h[in_g].mean())
        assert tpr >= 0.80, f"{g} true-positive rate {tpr:.4f}"
    gap = abs(ppr["Male"] - ppr["Female"])
    assert gap <= 0.06, f"positive-rate gap {gap:.4f}"


def test_criterion_07_csep_training_rewards_high_effort_on_adult():
    table = load_adult_or_skip()
    notion = {"kind": "CSEP", "conditional": "occupation", "p": 5.0}
    test_t, h_csep = _train_adult(table, notion)
    test_cdp, h_cdp = _train_adult(table, {"kind": "CDP",
                                           "conditional": "occupation"})
    assert test_cdp.rows == test_t.rows  # same split seed, same held-out rows

    sex = test_t.column("sex")
    y = test_t.target
    xp = test_t.column("capital-gain")
    xe = test_t.column("hours-per-week")
    tau = privilege_threshold(test_t, 5.0, "capital-gain").privilege_cutoff
    eff = effort_threshold(test_t, "per_group", "hours-per-week")
    high_effort_under = np.zeros(test_t.rows, dtype=bool)
    for g in ("Female", "Male"):
        in_g = sex == g
        high_effort_under |= in_g & (xp < tau) & (xe >= eff.effort_at((g,)))

    seg_f = high_effort_under & (sex == "Female")
    uplift = float(h_csep[seg_f].mean()) - float(h_cdp[seg_f].mean())
    assert uplift >= 0.10, f"high-effort underprivileged female uplift {uplift:.4f}"

    priv_f_neg = (sex == "Female") & (xp >= tau) & (y == 0)
    fpr_csep = float(h_csep[priv_f_neg].mean())
    fpr_cdp = float(h_cdp[priv_f_neg].mean())
    assert fpr_csep < fpr_cdp, (
        f"privileged-female false-positive rate {fpr_csep:.4f} "
        f"did not drop below {fpr_cdp:.4f}"
    )

    seg_m = high_effort_under & (sex == "Male")
    ratio = float(h_csep[seg_f].mean()) / float(h_csep[seg_m].mean())
    assert ratio >= 1.2, f"high-effort underprivileged F/M ratio {ratio:.4f}"


# ---------------------------------------------------------------------------
# criterion 8 — synthetic end-to-end: constrained training removes a planted
# privilege disparity
# ---------------------------------------------------------------------------


def test_criterion_08_synthetic_end_to_end_under_60s():
    t0 = time.monotonic()
    table = privilege_driven_table(n=1200, seed=11)
    train_mask, test_mask = stratified_split(table, 0.3, 42)
    train_t, test_t = table.take(train_mask), table.take(test_mask)
    X_train, encoder = encode_features(train_t)
    X_test = encoder.transform(test_t)
    relaxed = NotionConfig.from_dict({"kind": "SEP_relaxed", "p": 35.0},
                                     table.schema)

    base = fit_base(X_train, train_t.target.astype(np.float64), None,
                    LearnerHP(epochs=200))
    before = violation(test_t, base.predict_proba(X_test), relaxed)
    assert before.aggregate >= 0.2, f"unconstrained aggregate {before.aggregate:.4f}"

    sep = NotionConfig.from_dict({"kind": "SEP", "p": 35.0}, table.schema)
    hp = ExpGradHP(max_iter=30, eps_train=0.01, base=LearnerHP(epochs=200))
    model = exponentiated_gradient(train_t, sep, hp,
                                   features=X_train, encoder=encoder)
    after = violation(test_t, model.predict_scores(X_test), relaxed)
    elapsed = time.monotonic() - t0
    assert after.aggregate <= 0.05, f"constrained aggregate {after.aggregate:.4f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 9 — automated privilege extraction picks capital gain
# ---------------------------------------------------------------------------


def test_criterion_09_extraction_ranks_capital_gain_first_on_adult():
    table = load_adult_or_skip()
    for seed in range(5):
        result = extract_privilege_attribute(table, "Male", repeats=5, seed=seed)
        ranked = [row["attribute"] for row in result.rows]
        if ranked[0] == "capital-gain":
            continue
        # Non-fatal when it lands second within overlapping error bars.
        assert ranked[1] == "capital-gain", f"seed {seed}: ranked {ranked}"
        first, second = result.rows[0], result.rows[1]
        assert second["importance"] + second["sd"] >= first["importance"] - first["sd"], (
            f"seed {seed}: capital-gain second without overlapping error bars"
        )
        warnings.warn(
            f"seed {seed}: capital-gain ranked second, within error bars of "
            f"{first['attribute']}"
        )


# ---------------------------------------------------------------------------
# criterion 10 — the privileged-share sweep admits p = 5 on the census data
# ---------------------------------------------------------------------------


def test_criterion_10_p_sweep_on_adult_admits_five_percent():
    table = load_adult_or_skip()
    result = select_p(table, grid=[float(p) for p in range(1, 21)])
    assert result.satisfying, "no p satisfied the 80% rule"
    # one grid step of boundary tolerance on either side of 5
    assert any(abs(p - 5.0) <= 1.0 for p in result.satisfying), (
        f"satisfying region {result.satisfying} misses p=5"
    )


# ---------------------------------------------------------------------------
# criterion 11 — reruns with identical config produce byte-identical outputs
# ---------------------------------------------------------------------------


def _run_cli(argv):
    code = cli_main(argv)
    assert code in (0, 1), f"command failed: {argv}"


def _dir_bytes(path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_criterion_11_reruns_are_byte_identical(tmp_path):
    preds = tmp_path / "preds.csv"
    preds.write_text(
        "prediction\n" + "\n".join(repr(float(v)) for v in (1, 0, 1, 0, 0, 1, 0, 1)) + "\n",
        encoding="utf-8",
    )

    planted = planted_dp_table(n=300, seed=7)
    data_csv = tmp_path / "planted.csv"
    with data_csv.open("w", encoding="utf-8", newline="") as fh:
        fh.write("group,x1,x2,y\n")
        for i in range(planted.rows):
            fh.write(
                f"{planted.column('group')[i]},{float(planted.column('x1')[i])!r},"
                f"{float(planted.column('x2')[i])!r},{int(planted.target[i])}\n"
            )
    schema_json = tmp_path / "planted.json"
    schema_json.write_text(json.dumps({
        "columns": [
            {"name": "group", "kind": "protected"},
            {"name": "x1", "kind": "numerical"},
            {"name": "x2", "kind": "numerical"},
            {"name": "y", "kind": "target"},
        ]
    }), encoding="utf-8")

    priv = privilege_driven_table(n=400, seed=11)
    priv_csv = tmp_path / "priv.csv"
    with priv_csv.open("w", encoding="utf-8", newline="") as fh:
        fh.write("group,xp,xe,cat,y\n")
        for i in range(priv.rows):
            fh.write(
                f"{priv.column('group')[i]},{float(priv.column('xp')[i])!r},"
                f"{float(priv.column('xe')[i])!r},{priv.column('cat')[i]},"
                f"{int(priv.target[i])}\n"
            )
    priv_schema = tmp_path / "priv.json"
    priv_schema.write_text(json.dumps({
        "columns": [
            {"name": "group", "kind": "protected"},
            {"name": "xp", "kind": "numerical", "tags": ["privilege"]},
            {"name": "xe", "kind": "numerical", "tags": ["effort"]},
            {"name": "cat", "kind": "categorical"},
            {"name": "y", "kind": "target"},
        ]
    }), encoding="utf-8")

    out = tmp_path / "out"
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "train": {"max_iter": 6, "eps_train": 0.05},
        "learner": {"epochs": 100},
    }), encoding="utf-8")

    commands = [
        ["audit", "--data", TOY8_DATA, "--schema", TOY8_SCHEMA,
         "--out", str(out / "audit"), "--predictions", str(preds),
         "--notion", "CSEP", "--p", "25", "--conditional", "occ"],
        ["report", "--out", str(out / "audit")],
        ["train", "--config", str(train_cfg), "--data", str(data_csv),
         "--schema", str(schema_json), "--out", str(out / "train"),
         "--notion", "DP", "--seed", "3"],
        ["sweep-p", "--data", str(priv_csv), "--schema", str(priv_schema),
         "--out", str(out / "sweep"), "--grid", "10:40"],
        ["extract-privilege", "--data", str(priv_csv), "--schema",
         str(priv_schema), "--out", str(out / "extract"), "--group", "M",
         "--repeats", "3", "--seed", "0"],
    ]

    for argv in commands:
        _run_cli(argv)
    first = {sub.name: _dir_bytes(sub) for sub in sorted(out.iterdir())}
    for argv in commands:
        _run_cli(argv)
    second = {sub.name: _dir_bytes(sub) for sub in sorted(out.iterdir())}

    assert set(first) == {"audit", "train", "sweep", "extract"}
    for sub, files in first.items():
        assert second[sub].keys() == files.keys(), sub
        for name, blob in files.items():
            assert second[sub][name] == blob, f"{sub}/{name} changed across reruns"
