"""Base learner, constraint compilation, and the constrained trainer."""

import gc
import json
import logging
import random
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from fairsep import NotionConfig, Schema, load_csv, violation
from fairsep.dataset import ColumnSpec, FeatureEncoder, Table, encode_features
from fairsep.errors import ConfigError, DegenerateThresholdError, EncodingError, json_text
from fairsep.learner import (
    Constraints,
    ExpGradHP,
    LearnerHP,
    compile_constraints,
    exponentiated_gradient,
    fit_base,
    load_model,
)
from fairsep.privilege import permutation_importance
import fairsep.cli
import fairsep.learner as learner
import fairsep.privilege as privilege
from fairsep.notions import CodeTable, EffortWeighting
from conftest import adultgen_files, rows_to_table, scores_of
from synth import planted_dp_table, random_rows

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # seeded fallback below
    given = None

HPRED = np.array([1, 0, 1, 0, 0, 1, 0, 1], dtype=np.float64)


def dp_cfg(protected="group", **kw):
    return NotionConfig(kind="DP", protected=protected, **kw)


# ---------------------------------------------------------------------------
# Base learner
# ---------------------------------------------------------------------------

def test_fit_base_separates_trivial_data():
    X = np.array([[-1.0], [-0.5], [0.5], [1.0]])
    y = np.array([0, 0, 1, 1])
    model = fit_base(X, y)
    np.testing.assert_array_equal(model.predict(X), y)
    proba = model.predict_proba(X)
    assert (proba > 0.0).all() and (proba < 1.0).all()
    assert proba[0] < proba[1] < proba[2] < proba[3]


def test_fit_base_constant_labels():
    X = np.array([[0.1], [0.2], [0.3], [0.4]])
    for label in (0, 1):
        model = fit_base(X, np.full(4, label))
        np.testing.assert_array_equal(model.predict(X), np.full(4, label))


def test_fit_base_is_deterministic():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(np.int64)
    a = fit_base(X, y)
    b = fit_base(X, y)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.intercept == b.intercept
    assert a.final_loss == b.final_loss


def test_fit_base_negative_costs_prefer_positive_decisions():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 2))
    y = np.zeros(30)
    model = fit_base(X, y, costs=np.full(30, -1.0))
    np.testing.assert_array_equal(model.predict(X), np.ones(30, dtype=np.int64))
    flipped = fit_base(X, np.ones(30), costs=np.full(30, 1.0))
    np.testing.assert_array_equal(flipped.predict(X), np.zeros(30, dtype=np.int64))


def test_fit_base_cost_magnitude_breaks_conflicts():
    # one feature value appears with both cost signs; the heavier side wins
    X = np.array([[1.0], [1.0], [1.0]])
    model = fit_base(X, np.zeros(3), costs=np.array([-5.0, 1.0, 1.0]))
    assert model.predict(X).tolist() == [1, 1, 1]
    model = fit_base(X, np.zeros(3), costs=np.array([-1.0, 2.5, 2.5]))
    assert model.predict(X).tolist() == [0, 0, 0]


def test_fit_base_epoch_cap_warns_and_keeps_best(caplog):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 4))
    y = (X @ np.array([1.0, -2.0, 0.5, 0.0]) > 0).astype(np.int64)
    with caplog.at_level(logging.WARNING):
        model = fit_base(X, y, hp=LearnerHP(epochs=3, tol=0.0))
    assert not model.converged
    assert model.epochs_run == 3
    assert any("epoch cap" in m for m in caplog.messages)


def test_fit_base_rejects_non_finite_features():
    X = np.array([[1.0], [np.inf]])
    with pytest.raises(ValueError, match="finite"):
        fit_base(X, np.array([0, 1]))


def test_fit_base_rejects_non_finite_costs():
    X = np.array([[0.0], [1.0], [2.0]])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="costs must be finite"):
            fit_base(X, np.array([0, 1, 1]), np.array([0.1, bad, -0.1]))


def test_learner_hp_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown learner option"):
        LearnerHP.from_dict({"epochs": 10, "momentum": 0.9})
    hp = LearnerHP.from_dict({"epochs": 10, "l2": 0.01})
    assert hp.epochs == 10 and hp.l2 == 0.01


def test_decision_function_width_mismatch():
    model = fit_base(np.array([[0.0], [1.0]]), np.array([0, 1]))
    with pytest.raises(EncodingError, match="width"):
        model.predict_proba(np.zeros((2, 3)))


def test_probabilities_stay_strictly_inside_unit_interval():
    X = np.array([[1e6], [-1e6]])
    model = fit_base(X, np.array([1, 0]), hp=LearnerHP(epochs=50))
    proba = model.predict_proba(X)
    assert (proba > 0.0).all() and (proba < 1.0).all()


def _regularised_gradient(model, X, costs, l2):
    """Gradient of the fit's own objective at the model's weights."""
    z = (costs < 0).astype(np.float64)
    p = np.abs(costs) / np.sum(np.abs(costs))
    X1 = np.hstack([X, np.ones((len(X), 1))])
    q = 1.0 / (1.0 + np.exp(-(X1 @ np.append(model.weights, model.intercept))))
    grad = X1.T @ (p * (q - z))
    grad[:-1] += l2 * model.weights
    return grad


def test_fit_base_reaches_the_optimum_with_mixed_costs():
    rng = np.random.default_rng(20)
    X = rng.normal(size=(2000, 20))
    costs = rng.normal(size=2000) + 0.3 * X[:, 0]
    hp = LearnerHP()
    model = fit_base(X, np.zeros(2000), costs, hp)
    assert model.converged
    assert np.linalg.norm(_regularised_gradient(model, X, costs, hp.l2)) <= 1e-8


def test_fit_base_survives_collinear_separable_data_without_l2():
    # three one-hot columns sum to the intercept column, and the first
    # column alone separates the labels: H is singular and the optimum is
    # at infinity
    levels = np.arange(60) % 3
    onehot = np.eye(3)[levels]
    X = np.hstack([onehot, onehot[:, :1] * 2.0])
    y = (levels == 0).astype(np.int64)
    model = fit_base(X, y, hp=LearnerHP(l2=0.0))
    assert np.isfinite(model.weights).all() and np.isfinite(model.intercept)
    assert np.isfinite(model.final_loss)
    np.testing.assert_array_equal(model.predict(X), y)


@pytest.mark.parametrize("l2", [1e-4, 1e-8, 1e-12, 1e-16])
def test_fit_base_solve_matches_a_least_squares_step_on_collinear_one_hots(monkeypatch, l2):
    # every level of each categorical is a column, so each block of one-hots
    # sums to the intercept: only l2 keeps H nonsingular.  The split of the
    # weights along those null directions is not identified at tiny l2, so
    # compare the loss and the scores, not the weights
    table, fit_rows = _coded_design_table()
    encoder = FeatureEncoder.fit(table, fit_rows, include_protected=True)
    X = encoder.transform(table, fit_rows)
    y = table.target[fit_rows].astype(np.float64)
    costs = np.random.default_rng(5).normal(size=len(y))
    fits = [fit_base(X, y, c, LearnerHP(l2=l2)) for c in (None, costs)]
    with monkeypatch.context() as m:
        m.setattr(learner.np.linalg, "solve",
                  lambda a, b: np.linalg.lstsq(a, b, rcond=None)[0])
        refs = [fit_base(X, y, c, LearnerHP(l2=l2)) for c in (None, costs)]
    for fit, ref in zip(fits, refs):
        assert fit.converged
        assert fit.final_loss == pytest.approx(ref.final_loss, rel=1e-9, abs=0)
        np.testing.assert_allclose(fit.predict_proba(X), ref.predict_proba(X), rtol=0, atol=1e-9)


def test_fit_base_damps_newton_steps_on_heavy_tailed_features():
    # undamped Newton overshoots on some of these and its loss blows up
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(5, 60)), int(rng.integers(1, 6))
        X = rng.standard_cauchy(size=(n, d)) * rng.choice([1, 10, 100])
        costs = rng.normal(size=n) * rng.choice([1, 100], size=n) + 3 * rng.normal()
        model = fit_base(X, np.zeros(n), costs, LearnerHP(epochs=60))
        assert model.converged, seed
        assert model.final_loss <= np.log(2.0), seed


def test_fit_base_converges_in_a_few_newton_steps():
    table = planted_dp_table(n=600, seed=7)
    X, _ = encode_features(table)
    model = fit_base(X, table.target.astype(np.float64))
    assert model.converged
    assert model.epochs_run <= 20


def _coded_design_table(n=400, seed=3):
    """Rows whose encoding has every coded-design special case: a numeric
    column constant on the first half (the fit rows), a categorical with a
    level only the second half holds, and one with a single level there."""
    rng = np.random.default_rng(seed)
    fit_rows = np.arange(n) < n // 2
    schema = Schema(tuple(ColumnSpec(name, kind) for name, kind in (
        ("group", "protected"), ("x", "numerical"), ("flat", "numerical"),
        ("job", "categorical"), ("one", "categorical"), ("edu", "ordinal"),
        ("area", "categorical"), ("y", "target"))))
    job = rng.choice(list("ABCD"), n).astype(object)
    job[~fit_rows & (rng.random(n) < 0.3)] = "unseen"
    table = Table(schema, {
        "group": rng.choice(["F", "M"], n).astype(object),
        "x": rng.normal(size=n),
        "flat": np.where(fit_rows, 7.0, rng.normal(size=n)),
        "job": job,
        "one": np.where(fit_rows, "only", "other").astype(object),
        "edu": rng.integers(1, 16, n).astype(np.float64),
        "area": rng.choice(["n", "s", "e"], n).astype(object),
        "y": rng.integers(0, 2, n),
    })
    return table, fit_rows


def _assert_close(actual, expected, rel=1e-12):
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max(initial=0.0) <= rel * np.abs(expected).max(initial=0.0)


def test_coded_design_matches_its_dense_reference():
    table, fit_rows = _coded_design_table()
    encoder = FeatureEncoder.fit(table, fit_rows, include_protected=True)
    assert ("flat", None) in encoder.feature_map and "one" not in encoder.levels
    assert ("job", "unseen") not in encoder.feature_map
    X = encoder.transform(table)
    dense = X.dense()
    unseen = table.column("job") == "unseen"
    assert unseen.any()
    jobs = [j for j, (name, _) in enumerate(encoder.feature_map) if name == "job"]
    np.testing.assert_array_equal(dense[np.ix_(unseen, jobs)], 0.0)
    assert dense.shape == X.shape == (table.rows, encoder.width)

    rng = np.random.default_rng(0)
    w, r, s = rng.normal(size=encoder.width), rng.normal(size=table.rows), rng.random(table.rows)
    _assert_close(X.matvec(w), dense @ w)
    _assert_close(X.rmatvec(r), dense.T @ r)
    _assert_close(X.gram(s), dense.T @ (dense * s[:, None]))

    y = table.target.astype(np.float64)
    for costs in (None, rng.normal(size=table.rows)):
        coded, plain = fit_base(X, y, costs), fit_base(dense, y, costs)
        assert coded.epochs_run == plain.epochs_run
        assert np.abs(np.append(coded.weights - plain.weights,
                                coded.intercept - plain.intercept)).max() <= 1e-10

    groups = {name: [encoder.feature_map.index((name, None))] for name in ("x", "flat", "edu")}
    learner = fit_base(X, y)
    assert permutation_importance(learner, X, y, groups, 4, np.random.default_rng(5)) == \
        permutation_importance(learner, dense, y, groups, 4, np.random.default_rng(5))
    with pytest.raises(EncodingError, match="only numeric columns"):
        permutation_importance(learner, X, y, {"job": jobs}, 2, np.random.default_rng(5))


def _categorical_table(codes: np.ndarray) -> Table:
    """Categoricals c0, c1, ... whose row i has level f"{codes[i, j]:03d}", plus x and y."""
    n, k = codes.shape
    names = [f"c{j}" for j in range(k)]
    schema = Schema(tuple(ColumnSpec(name, "categorical") for name in names)
                    + (ColumnSpec("x", "numerical"), ColumnSpec("y", "target")))
    rng = np.random.default_rng(k)
    columns = {name: np.array([f"{c:03d}" for c in codes[:, j]], dtype=object)
               for j, name in enumerate(names)}
    return Table(schema, dict(columns, x=rng.normal(size=n), y=rng.integers(0, 2, n)))


def _radix_collision_rows(levels: int, k: int) -> np.ndarray:
    """The zero tuple and the tuple whose base-(levels + 1) digits spell 2**64.

    Their mixed-radix keys (radix levels + 1 per column, the unseen code
    included) differ by exactly 2**64, so they would meet in a wrapped int64.
    """
    value, digits = 2 ** 64, []
    for _ in range(k):
        value, digit = divmod(value, levels + 1)
        digits.append(digit)
    assert value == 0 and max(digits) < levels
    return np.array([[0] * k, digits[::-1]])


def _tuple_case(case: str):
    """(table, fit rows, transformed rows, expected distinct tuples or None)."""
    i = np.arange(120)[:, None]
    if case == "every row its own tuple":
        codes = np.hstack([i // 12, i % 12])
        return _categorical_table(codes), None, np.ones(120, bool), 120
    if case == "one tuple":
        codes = np.hstack([i % 3, i % 4])
        return _categorical_table(codes), None, (codes == [1, 2]).all(axis=1), 1
    if case == "levels unseen at fit":
        codes = np.hstack([i % 4, i % 5])
        fit = np.arange(120) < 60
        codes[~fit] += [[4, 0], [0, 5], [4, 5]] * 20  # unseen in c0, c1 or both
        return _categorical_table(codes), fit, np.ones(120, bool), None
    if case == "no rows":
        return _categorical_table(np.hstack([i % 3, i % 4])), None, np.zeros(120, bool), 0
    # 8 columns of 300 levels: the radix product 301**8 passes 2**63
    i = np.arange(300)[:, None]
    codes = np.vstack([(7 * i + 13 * np.arange(8)) % 300, _radix_collision_rows(300, 8)])
    return _categorical_table(codes), None, np.ones(302, bool), 302


@pytest.mark.parametrize("case", ["every row its own tuple", "one tuple", "levels unseen at fit",
                                  "no rows", "radix past 2**63"])
def test_tuple_coded_design_matches_its_dense_reference(case):
    table, fit_rows, rows, tuples = _tuple_case(case)
    encoder = FeatureEncoder.fit(table, fit_rows)
    X = encoder.transform(table, rows)
    # the encoder's columns decoded from the table's values, without the design
    dense = np.column_stack([
        (table.column(name)[rows] - encoder.means[name]) / encoder.sds[name] if level is None
        else (table.column(name)[rows] == level).astype(np.float64)
        for name, level in encoder.feature_map])
    assert X.shape == dense.shape and len(X.coded) == len(table.schema.columns) - 2
    if tuples is not None:
        assert X.tuples == tuples
    if case == "levels unseen at fit":  # rows 62, 65, ... have both levels unseen
        assert 0 < X.tuples < table.rows and not dense[62::3, :-1].any()
    rng = np.random.default_rng(1)
    w, r, s = rng.normal(size=X.shape[1]), rng.normal(size=len(dense)), rng.random(len(dense))
    _assert_close(X.dense(), dense)
    _assert_close(X.matvec(w), dense @ w)
    _assert_close(X.rmatvec(r), dense.T @ r)
    _assert_close(X.gram(s), dense.T @ (dense * s[:, None]))

    x = encoder.feature_map.index(("x", None))
    perm = rng.permutation(len(dense))
    shuffled = X.permuted([x], perm)
    assert shuffled.combo is X.combo
    dense[:, x] = dense[perm, x]
    _assert_close(shuffled.matvec(w), dense @ w)


def test_learner_hp_refuses_the_former_learners_keys():
    # learning_rate and seed of the former gradient-descent learner are unknown options
    with pytest.raises(ConfigError,
                       match=r"unknown learner option\(s\): \['learning_rate', 'seed'\]"):
        LearnerHP.from_dict({"epochs": 10, "learning_rate": 0.5, "seed": 3})
    with pytest.raises(ConfigError, match="unknown learner option"):
        LearnerHP.from_dict({"seed": 3, "momentum": 0.9})


@pytest.mark.parametrize("kw", [
    {"epochs": 0}, {"epochs": 2.5}, {"epochs": True}, {"l2": -1e-4},
    {"l2": float("nan")}, {"tol": float("inf")}, {"tol": "0"},
])
def test_learner_hp_rejects_out_of_range_values(kw):
    with pytest.raises(ConfigError, match="learner option"):
        LearnerHP(**kw)


# ---------------------------------------------------------------------------
# Moment constraints
# ---------------------------------------------------------------------------

def test_moment_constraint_value_and_violation():
    # codes 0 and 1 are plain, 2 and 3 their zeta-weighted sums; rows 0 and 1 hold
    # codes 0 and 1, and row 1 weighs 2; "demo" reads codes 0, 1 and 3 with an offset,
    # "other" codes 1 and 2
    table = CodeTable(np.array([0, 1]), np.array([0.0, 2.0]), np.array([1, 1]),
                      np.array([0, 1]))
    system = Constraints(["demo", "other"], table, np.array([0, 0, 0, 1, 1]),
                         np.array([0, 1, 3, 1, 2]), np.array([1.0, -1.0, 0.5, 2.0, 4.0]),
                         np.array([0.1, 0.0]))
    scores = np.array([0.5, 0.2])  # per-code sums 0.5, 0.2, then 0.0, 0.4
    assert len(system) == 2
    assert system.values(scores) == pytest.approx([0.6, 0.4])
    np.testing.assert_array_equal(system.per_code(np.array([1.0, 10.0])), [1.0, 19.0, 40.0, 0.5])


def test_compile_counts_dp_ep_cdp(toy8):
    dp = compile_constraints(toy8, dp_cfg(protected="sex"))
    assert len(dp) == 4  # two groups x (+,-)
    ep = compile_constraints(toy8, NotionConfig(kind="EP", protected="sex"))
    assert len(ep) == 4
    cdp = compile_constraints(
        toy8, NotionConfig(kind="CDP", protected="sex", conditional="occ"))
    assert len(cdp) == 8  # 2 categories x 2 groups x (+,-)
    assert {name.rsplit("/", 1)[1] for name in dp.names} == {"+", "-"}


def test_compile_counts_sep_family(toy8):
    sep = compile_constraints(
        toy8, NotionConfig(kind="SEP", protected="sex", privilege_column="cap",
                           effort_column="hours", p=25.0,
                           weighting=EffortWeighting("unit")))
    # per group: parity pair + effort + false-positive cap
    assert len(sep) == 8
    relaxed = compile_constraints(
        toy8, NotionConfig(kind="SEP_relaxed", protected="sex",
                           privilege_column="cap", p=25.0))
    assert len(relaxed) == 4
    csep = compile_constraints(
        toy8, NotionConfig(kind="CSEP", protected="sex", conditional="occ",
                           privilege_column="cap", effort_column="hours",
                           p=25.0, weighting=EffortWeighting("unit")))
    # (A,F): all four; (A,M) and (B,F): parity only; (B,M): no FP cap
    assert len(csep) == 11
    names = csep.names
    assert "CSEP/(A,F)/effort" in names
    assert "CSEP/(A,F)/fpr_cap" in names
    assert "CSEP/(B,M)/effort" in names
    assert not any(n.startswith("CSEP/(A,M)/effort") for n in names)


def test_sep_constraint_weights_match_hand_built_masks(toy8):
    cfg = NotionConfig(kind="SEP", protected="sex", privilege_column="cap",
                       effort_column="hours", p=25.0,
                       weighting=EffortWeighting("unit"))
    system = compile_constraints(toy8, cfg)
    code, zeta, size = system.table.code, system.table.zeta, system.table.counts.size

    def dense(name):
        # each row's weight: its code's plain coefficient plus zeta times its weighted one,
        # read as the per-code costs of a multiplier of 1 on that constraint alone
        per_code = system.per_code(np.eye(len(system))[system.names.index(name)])
        return per_code[:size][code] + zeta * per_code[size:][code]

    sex = toy8.column("sex")
    privileged = toy8.column("cap") >= 10000.0
    hours = toy8.column("hours")
    under_f = (sex == "F") & ~privileged
    all_rows = np.ones(8)

    parity = under_f / under_f.sum() - all_rows / 8.0
    np.testing.assert_array_equal(dense("SEP/F/parity/+"), parity)
    np.testing.assert_array_equal(dense("SEP/F/parity/-"), -parity)

    low = under_f & (hours < 40.0)
    high = under_f & (hours >= 40.0)
    effort = low / low.sum() - high / high.sum()
    np.testing.assert_array_equal(dense("SEP/F/effort"), effort)

    priv_neg = privileged & (toy8.target == 0)
    high_neg = high & (toy8.target == 0)
    cap = priv_neg / priv_neg.sum() - high_neg / high_neg.sum()
    np.testing.assert_array_equal(dense("SEP/F/fpr_cap"), cap)


def _adultgen_table(directory, rows=12000):
    data = adultgen_files(directory, rows=rows)
    return load_csv(data["data"], Schema.from_json(data["schema"]))


def test_compile_memory_scales_with_non_zeros_not_constraints(tmp_path):
    # CSEP x native-country has about twice the constraints of CSEP x occupation, and
    # each constraint keeps only the codes its term reads, at most a category's 12
    # (2 groups x 3 segments x 2 targets), so both peak at about the memory of the
    # row-sized code table; a dense constraint-by-row form peaks in proportion to the
    # constraint count
    table = _adultgen_table(tmp_path)
    systems, peaks = {}, {}
    for conditional in ("occupation", "native-country"):
        cfg = NotionConfig.from_dict({"kind": "CSEP", "conditional": conditional},
                                     table.schema)
        tracemalloc.start()
        try:
            systems[conditional] = compile_constraints(table, cfg)
            peaks[conditional] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["native-country"] <= 1.25 * peaks["occupation"], peaks
    occ, nat = systems["occupation"], systems["native-country"]
    assert len(nat) >= 1.6 * len(occ)
    for system in (occ, nat):
        per_constraint = np.bincount(system.index, minlength=len(system))
        assert max(per_constraint) <= 12
        assert sum(per_constraint) <= 12 * len(system) < table.rows / 4


def test_training_memory_stays_below_the_dense_feature_matrix(tmp_path):
    # the coded design holds the one-hot columns as level codes, and the fit
    # makes no n x (d+1) copy, so training never allocates what the dense
    # feature matrix alone would take
    table = _adultgen_table(tmp_path)
    cfg = NotionConfig.from_dict({"kind": "CSEP", "conditional": "occupation"}, table.schema)
    X, encoder = encode_features(table)
    n, d = X.shape
    hp = ExpGradHP(max_iter=3, base=LearnerHP(epochs=100))
    tracemalloc.start()
    try:
        model = exponentiated_gradient(table, cfg, hp, features=X, encoder=encoder)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model.members) == 3 and all(m.converged for m in model.members)
    assert peak < n * d * 8, (peak, n * d * 8)


def test_train_fits_hold_neither_the_loaded_table_nor_a_copy_of_the_constraints(tmp_path,
                                                                               monkeypatch):
    # the fits read the split tables, the design and the record compile_constraints
    # returned: at every best response the table load_csv returned is gone, the trainer
    # holds that record, and none of its arrays is a copy of the record's stacked index,
    # codes or coefficients
    data = adultgen_files(tmp_path / "data")
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"train": {"max_iter": 3}, "learner": {"epochs": 100}}))
    loaded, compiled, fits = [], [], []

    def load(*args, **kwargs):
        table = load_csv(*args, **kwargs)
        loaded.append(weakref.ref(table))
        return table

    def compile_(*args, **kwargs):
        compiled.append(compile_constraints(*args, **kwargs))
        return compiled[-1]

    def fit(*args, **kwargs):
        held = list(sys._getframe(1).f_locals.values())  # the trainer's names
        record = compiled[-1]
        fits.append([ref() is None for ref in loaded] + [any(v is record for v in held)] + [
            not any(isinstance(v, np.ndarray) and v is not own and np.array_equal(v, own)
                    for v in held)
            for own in (record.index, record.codes, record.coef)])
        return fit_base(*args, **kwargs)

    monkeypatch.setattr(fairsep.cli, "load_csv", load)
    monkeypatch.setattr(learner, "compile_constraints", compile_)
    monkeypatch.setattr(learner, "fit_base", fit)
    assert fairsep.cli.main(["train", "--config", str(config), "--data", data["data"],
                             "--schema", data["schema"], "--notion", "CSEP",
                             "--conditional", "occupation", "--out", str(tmp_path / "run")]) == 0
    assert len(loaded) == 1 and len(compiled) == 1 and len(fits) == 3
    assert len(compiled[0]) > 50
    assert all(all(dead) for dead in fits), fits


def _watch_fits(monkeypatch):
    """Weak references to each table cli's load_csv returns and cli's encode_features
    reads, the table columns each compile_constraints reads, and at each fit (of the
    learner or of privilege extraction) whether every table so far is gone."""
    tables, compiled, fits = [], [], []

    def keep(fn, first_argument):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            tables.append(weakref.ref(args[0] if first_argument else out))
            return out
        return call

    def compile_(table, *args, **kwargs):
        compiled.append(sorted(c.name for c in table.schema.columns))
        return compile_constraints(table, *args, **kwargs)

    def fit(*args, **kwargs):
        fits.append([ref() is None for ref in tables])
        return fit_base(*args, **kwargs)

    monkeypatch.setattr(fairsep.cli, "load_csv", keep(load_csv, False))
    monkeypatch.setattr(fairsep.cli, "encode_features", keep(fairsep.cli.encode_features, True))
    monkeypatch.setattr(learner, "compile_constraints", compile_)
    monkeypatch.setattr(learner, "fit_base", fit)
    monkeypatch.setattr(privilege, "fit_base", fit)
    return tables, compiled, fits


# From CPython 3.11 a call passes its argument references to the callee's frame, so a
# table made in the call's argument list dies when the callee drops its own name.
PASSES_ARGUMENTS = pytest.mark.skipif(sys.version_info < (3, 11),
                                      reason="the caller holds its arguments until the call returns")


@PASSES_ARGUMENTS
def test_extract_privilege_drops_the_loaded_table_before_its_fit(tmp_path, monkeypatch):
    data = adultgen_files(tmp_path / "data", rows=3000)
    tables, _, fits = _watch_fits(monkeypatch)
    assert fairsep.cli.main(["extract-privilege", "--data", data["data"], "--schema",
                             data["schema"], "--group", "Male", "--repeats", "3",
                             "--out", str(tmp_path / "extract")]) == 0
    assert len(tables) == 1 and fits == [[True]]


def test_train_fits_see_only_the_columns_the_constraints_read(tmp_path, monkeypatch):
    # the split table that encode_features read, all columns wide, is gone at every fit
    data = adultgen_files(tmp_path / "data", rows=3000)
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"train": {"max_iter": 3}, "learner": {"epochs": 100}}))
    tables, compiled, fits = _watch_fits(monkeypatch)
    assert fairsep.cli.main(["train", "--config", str(config), "--data", data["data"],
                             "--schema", data["schema"], "--notion", "CSEP", "--conditional",
                             "occupation", "--out", str(tmp_path / "run")]) == 0
    assert len(tables) == 2 and len(fits) == 3 and all(all(dead) for dead in fits), fits
    assert compiled == [["capital-gain", "hours-per-week", "income", "occupation", "sex"]]


@pytest.fixture(scope="module")
def seed11_table(tmp_path_factory):
    """The seed-11 48,842-row table as loaded, and its predictions."""
    data = adultgen_files(tmp_path_factory.mktemp("seed11_table"))
    table = load_csv(data["data"], Schema.from_json(data["schema"]))
    scores = np.loadtxt(data["predictions"], skiprows=1)
    assert scores.shape == (table.rows,)
    return table, scores


@pytest.fixture(scope="module")
def seed11_commands(tmp_path_factory):
    """The argv of each modeling command on the seed-11 48,842-row table, with the
    benchmark's train config; the train has run once, so the model exists."""
    root = tmp_path_factory.mktemp("seed11")
    data = adultgen_files(root / "data")
    config = root / "train.json"
    config.write_text(json.dumps({"seed": 42, "test_fraction": 0.3, "learner": {"epochs": 100},
                                  "train": {"max_iter": 3, "eta": 2.0, "eps_train": 0.02}}))
    common = ["--data", data["data"], "--schema", data["schema"]]
    csep = ["--notion", "CSEP", "--conditional", "occupation"]
    commands = {
        "extract-privilege": ["extract-privilege", *common, "--group", "Male", "--repeats", "10",
                              "--out", str(root / "extract")],
        "train": ["train", "--config", str(config), *common, *csep, "--out", str(root / "train")],
        "audit --model": ["audit", *common, *csep, "--model", str(root / "train" / "model.json"),
                          "--out", str(root / "audit")],
    }
    assert fairsep.cli.main(commands["train"]) == 0
    return commands


@pytest.mark.parametrize("command, bound", [
    pytest.param("extract-privilege", 6.2, marks=PASSES_ARGUMENTS),
    ("train", 11.0),
    ("audit --model", 7.6),
])
def test_modeling_commands_peak_below_their_bounds(seed11_commands, command, bound):
    # each modeling command holds each row-sized array once, and only while a later stage
    # reads it: its traced peak (MiB) after one untraced run of it
    fairsep.cli.main(seed11_commands[command])  # numpy's first calls allocate for good
    gc.collect()
    tracemalloc.start()
    try:
        fairsep.cli.main(seed11_commands[command])
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak


def test_sep_constraint_values_equal_measured_terms(toy8):
    # at any fixed score vector the compiled constraint values reproduce the
    # audit terms exactly (unit weighting keeps every sum integer-based)
    cfg = NotionConfig(kind="SEP", protected="sex", privilege_column="cap",
                       effort_column="hours", p=25.0,
                       weighting=EffortWeighting("unit"))
    system = compile_constraints(toy8, cfg)
    by_name = dict(zip(system.names, system.values(HPRED)))
    rep = violation(toy8, HPRED, cfg)
    for s in ("F", "M"):
        pair = max(by_name[f"SEP/{s}/parity/+"], by_name[f"SEP/{s}/parity/-"])
        assert pair == rep.groups[s].t1
        assert abs(by_name[f"SEP/{s}/effort"]) == rep.groups[s].t2
        assert abs(by_name[f"SEP/{s}/fpr_cap"]) == rep.groups[s].t3

    # every notion x weighting x T3 normalization on the oracle's random
    # tables: each compiled term reproduces its audit term, and nothing else
    # is compiled
    rng = random.Random(2025)
    compared = 0
    for i in range(40):
        mode = "hard" if i % 2 == 0 else "expected"
        rows = random_rows(rng, mode=mode)
        table, scores = rows_to_table(rows), scores_of(rows)
        h = (scores >= 0.5).astype(np.float64) if mode == "hard" else scores
        for kind in ("EP", "DP", "CDP", "SEP", "CSEP", "SEP_relaxed"):
            for weighting in ("unit", "linear_capped"):
                for literal in (False, True):
                    cfg = NotionConfig(
                        kind=kind, protected="group", privilege_column="xp",
                        effort_column="xe", p=25.0,
                        conditional="cat" if kind in ("CDP", "CSEP") else None,
                        weighting=EffortWeighting(weighting), t3_literal_b=literal)
                    try:
                        rep = violation(table, scores, cfg, mode=mode)
                    except DegenerateThresholdError:
                        continue
                    compared += _assert_constraints_match_report(
                        compile_constraints(table, cfg), rep, h)
    assert compared >= 2000


def _assert_constraints_match_report(constraints, rep, h):
    values = dict(zip(constraints.names, constraints.values(h)))
    if rep.categories is None:
        cells = [(f"{rep.notion}/{s}", t) for s, t in rep.groups.items()]
    else:
        cells = [(f"{rep.notion}/({a},{s})", t)
                 for a, by_group in rep.categories.items()
                 for s, t in by_group.items()]
    parity = "/parity" if rep.notion in ("SEP", "CSEP") else ""
    expected = set()
    for label, terms in cells:
        for key in terms.computed:
            if key == "T1":
                names = [f"{label}{parity}/+", f"{label}{parity}/-"]
                got = max(values[n] for n in names)
            else:
                names = [f"{label}/{'effort' if key == 'T2' else 'fpr_cap'}"]
                got = abs(values[names[0]])
            assert abs(got - getattr(terms, key.lower())) <= 1e-12, (names, rep.mode)
            expected.update(names)
    assert expected == set(values)
    return len(expected)


@pytest.mark.parametrize("conditional", [None, "native-country"])
@pytest.mark.parametrize("mode", ["hard", "expected"])
def test_compiled_values_equal_audit_terms_at_adult_scale(seed11_table, conditional, mode):
    # on 48,842 rows, where the order of a sum can show, each compiled value still
    # reproduces its audit term (SEP, or CSEP x native-country; linear_capped zeta)
    table, scores = seed11_table
    notion = {"kind": "SEP"} if conditional is None else {"kind": "CSEP",
                                                          "conditional": conditional}
    cfg = NotionConfig.from_dict(notion, table.schema)
    rep = violation(table, scores, cfg, mode=mode)
    h = (scores >= 0.5).astype(np.float64) if mode == "hard" else scores
    assert _assert_constraints_match_report(compile_constraints(table, cfg), rep, h) >= (
        8 if conditional is None else 200)


def test_compile_drops_empty_cells_with_log(caplog):
    rows = [
        {"group": "F", "xp": 0, "xe": 10, "cat": "A", "y": 1},
        {"group": "F", "xp": 0, "xe": 20, "cat": "A", "y": 0},
        {"group": "M", "xp": 0, "xe": 30, "cat": "B", "y": 1},
        {"group": "M", "xp": 9, "xe": 40, "cat": "B", "y": 0},
    ]
    t = rows_to_table(rows)
    cfg = NotionConfig(kind="CDP", protected="group", conditional="cat")
    with caplog.at_level(logging.INFO):
        out = compile_constraints(t, cfg)
    assert len(out) == 4  # (A,M) and (B,F) are empty
    assert any("empty cell" in m for m in caplog.messages)


def test_compile_ep_requires_positives():
    rows = [
        {"group": "F", "xp": 0, "xe": 10, "cat": "A", "y": 0},
        {"group": "M", "xp": 0, "xe": 20, "cat": "A", "y": 0},
    ]
    table, cfg = rows_to_table(rows), NotionConfig(kind="EP", protected="group")
    out = compile_constraints(table, cfg)
    assert len(out) == 0
    assert out.index.dtype == out.codes.dtype == np.int64 and out.coef.size == 0
    assert len(exponentiated_gradient(table, cfg).members) == 1  # the plain fit


# ---------------------------------------------------------------------------
# Exponentiated-gradient trainer
# ---------------------------------------------------------------------------

def test_expgrad_hp_parsing():
    hp = ExpGradHP.from_dict({"max_iter": 12, "eta": 1.5,
                              "base": {"epochs": 99}})
    assert hp.max_iter == 12 and hp.eta == 1.5
    assert hp.base.epochs == 99
    with pytest.raises(ConfigError, match="unknown training option"):
        ExpGradHP.from_dict({"iterations": 5})
    with pytest.raises(ConfigError, match="unknown learner option"):
        ExpGradHP.from_dict({"base": {"alpha": 1}})
    assert hp.to_dict()["base"]["epochs"] == 99


def test_unconstrained_training_equals_plain_fit():
    table = planted_dp_table(n=200, seed=3)
    X, enc = encode_features(table)
    direct = fit_base(X, table.target.astype(np.float64))
    model = exponentiated_gradient(table, None)
    assert len(model.members) == 1
    assert model.mixture_weights.tolist() == [1.0]
    np.testing.assert_array_equal(model.members[0].weights, direct.weights)
    assert model.members[0].intercept == direct.intercept
    np.testing.assert_array_equal(model.predict_scores(X), direct.predict_proba(X))
    assert model.max_violation == 0.0


def test_mixture_scores_are_convex_combination():
    table = planted_dp_table(n=150, seed=4)
    model = exponentiated_gradient(table, dp_cfg(),
                                   hp=ExpGradHP(max_iter=6, base=LearnerHP(epochs=80)))
    X = model.encoder.transform(table)
    member_scores = np.stack([m.predict_proba(X) for m in model.members])
    expected = model.mixture_weights @ member_scores
    np.testing.assert_allclose(model.predict_scores(X), expected, rtol=0, atol=1e-15)
    assert (model.predict_scores(X) <= member_scores.max(axis=0) + 1e-15).all()
    assert (model.predict_scores(X) >= member_scores.min(axis=0) - 1e-15).all()
    assert model.mixture_weights.sum() == pytest.approx(1.0)


def test_constraint_values_are_linear_in_the_mixture():
    table = planted_dp_table(n=150, seed=5)
    constraints = compile_constraints(table, dp_cfg())
    model = exponentiated_gradient(table, dp_cfg(),
                                   hp=ExpGradHP(max_iter=5, base=LearnerHP(epochs=80)))
    X = model.encoder.transform(table)
    mix = model.predict_scores(X)
    direct = constraints.values(mix)
    combined = sum(w * constraints.values(m.predict_proba(X))
                   for w, m in zip(model.mixture_weights, model.members))
    assert np.all(np.abs(direct - combined) <= 1e-12)


def test_planted_disparity_is_reduced_by_training():
    table = planted_dp_table(n=600, seed=7)
    cfg = dp_cfg(epsilon=0.05)

    unconstrained = exponentiated_gradient(table, None)
    X = unconstrained.encoder.transform(table)
    before = violation(table, unconstrained.predict_scores(X), cfg,
                       mode="expected")
    assert before.aggregate >= 0.2

    model = exponentiated_gradient(table, cfg, hp=ExpGradHP(eps_train=0.02))
    Xc = model.encoder.transform(table)
    after = violation(table, model.predict_scores(Xc), cfg, mode="expected")
    assert after.aggregate <= 0.04  # training slack plus tolerance
    assert after.aggregate < before.aggregate


def test_trainer_is_deterministic():
    table = planted_dp_table(n=200, seed=9)
    hp = ExpGradHP(max_iter=8, base=LearnerHP(epochs=60))
    a = exponentiated_gradient(table, dp_cfg(), hp=hp)
    b = exponentiated_gradient(table, dp_cfg(), hp=hp)
    assert a.trajectory == b.trajectory
    np.testing.assert_array_equal(a.mixture_weights, b.mixture_weights)
    for ma, mb in zip(a.members, b.members):
        np.testing.assert_array_equal(ma.weights, mb.weights)
    assert a.max_violation == b.max_violation


def test_trajectory_records_every_iteration():
    table = planted_dp_table(n=150, seed=10)
    hp = ExpGradHP(max_iter=7, base=LearnerHP(epochs=60))
    model = exponentiated_gradient(table, dp_cfg(), hp=hp)
    assert 1 <= len(model.trajectory) <= 7
    for i, entry in enumerate(model.trajectory, start=1):
        assert entry["iter"] == i
        assert set(entry) == {"iter", "member_max_violation",
                              "mixture_max_violation", "member_error",
                              "mixture_error", "lambda"}
        assert len(entry["lambda"]) == len(model.constraint_names)
    assert 0 <= model.best_iterate < len(model.members)


def test_model_json_round_trip(tmp_path):
    table = planted_dp_table(n=120, seed=11)
    hp = ExpGradHP(max_iter=4, base=LearnerHP(epochs=50))
    model = exponentiated_gradient(table, dp_cfg(), hp=hp)
    path = tmp_path / "model.json"
    path.write_text(json_text(model.to_dict()), encoding="utf-8")
    loaded = load_model(path)
    X = model.encoder.transform(table)
    X2 = loaded.encoder.transform(table)
    np.testing.assert_array_equal(X.dense(), X2.dense())
    np.testing.assert_array_equal(model.predict_scores(X), loaded.predict_scores(X2))
    assert loaded.constraint_names == model.constraint_names
    assert loaded.hp == model.hp
    assert loaded.notion == {"kind": "DP", "protected": "group"}
    # serialized form is itself stable
    (tmp_path / "again.json").write_text(json_text(loaded.to_dict()), encoding="utf-8")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_infeasible_targets_stop_early_with_warning(caplog, monkeypatch):
    # a constraint no score vector can satisfy: mean(h) <= -1 effectively
    table = planted_dp_table(n=60, seed=13)
    n = table.rows
    every_row = CodeTable(np.zeros(n, np.int64), np.zeros(n), np.array([n]), np.arange(n))
    impossible = Constraints(["impossible"], every_row, np.array([0]), np.array([0]),
                             np.array([1.0 / n]), np.array([1.0]))
    monkeypatch.setattr(learner, "compile_constraints", lambda table, cfg: impossible)
    hp = ExpGradHP(max_iter=40, patience=5, base=LearnerHP(epochs=40))
    with caplog.at_level(logging.WARNING):
        model = exponentiated_gradient(table, dp_cfg(), hp=hp)
    assert model.early_stopped
    assert len(model.members) < 40
    assert any("no feasibility progress" in m for m in caplog.messages)
    assert model.max_violation > 0


def test_sep_constrained_training_runs_on_random_table():
    rng = random.Random(77)
    rows = random_rows(rng, n=32)
    table = rows_to_table(rows)
    cfg = NotionConfig(kind="SEP", protected="group", privilege_column="xp",
                       effort_column="xe", p=25.0,
                       weighting=EffortWeighting("unit"))
    hp = ExpGradHP(max_iter=6, base=LearnerHP(epochs=60))
    model = exponentiated_gradient(table, cfg, hp=hp)
    assert model.constraint_names  # SEP compiled to a nonempty system
    X = model.encoder.transform(table)
    scores = model.predict_scores(X)
    assert scores.shape == (32,)
    assert (scores >= 0).all() and (scores <= 1).all()
