"""Schema, table, CSV, threshold, encoder, and split behavior."""

import random

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # seeded fallback below
    given = None

from fairsep import NotionConfig, Schema, load_csv
from fairsep.dataset import (
    ColumnSpec,
    FeatureEncoder,
    Table,
    cell_rows,
    effort_threshold,
    encode_features,
    privilege_threshold,
    stratified_split,
)
from fairsep.errors import DegenerateThresholdError, ParseError, SchemaError
from conftest import ROW_SCHEMA, rows_to_table
from synth import random_rows


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

def _cols(*specs):
    return tuple(ColumnSpec(**s) for s in specs)


def test_schema_requires_exactly_one_target():
    with pytest.raises(SchemaError, match="exactly one target"):
        Schema(_cols({"name": "a", "kind": "numerical"}))
    with pytest.raises(SchemaError, match="exactly one target"):
        Schema(_cols({"name": "a", "kind": "target"}, {"name": "b", "kind": "target"}))


def test_schema_rejects_duplicate_names():
    with pytest.raises(SchemaError, match="duplicate"):
        Schema(_cols({"name": "a", "kind": "numerical"},
                     {"name": "a", "kind": "categorical"},
                     {"name": "y", "kind": "target"}))


def test_column_spec_rejects_unknown_kind_and_tag():
    with pytest.raises(SchemaError, match="unknown kind"):
        ColumnSpec("a", "float")
    with pytest.raises(SchemaError, match="unknown tag"):
        ColumnSpec("a", "numerical", tags=("wealth",))


def test_tags_require_numeric_columns():
    with pytest.raises(SchemaError, match="requires an ordinal or numerical"):
        ColumnSpec("a", "categorical", tags=("privilege",))
    # ordinal and numerical are both acceptable carriers
    ColumnSpec("a", "ordinal", tags=("effort",))
    ColumnSpec("a", "numerical", tags=("privilege",))


def test_positive_label_is_target_only():
    with pytest.raises(SchemaError, match="target-only"):
        ColumnSpec("a", "numerical", positive_label="yes")


def test_schema_lookup_and_tag_uniqueness():
    schema = ROW_SCHEMA
    assert schema["xp"].kind == "numerical"
    with pytest.raises(SchemaError, match="no column"):
        schema["nope"]
    assert schema.tagged("privilege").name == "xp"
    assert schema.tagged("effort").name == "xe"
    dup = Schema(_cols({"name": "a", "kind": "numerical", "tags": ("effort",)},
                       {"name": "b", "kind": "numerical", "tags": ("effort",)},
                       {"name": "y", "kind": "target"}))
    with pytest.raises(SchemaError, match="more than one"):
        dup.tagged("effort")


def test_schema_from_dict_requires_columns_key():
    with pytest.raises(SchemaError, match="'columns'"):
        Schema.from_dict({})


# ---------------------------------------------------------------------------
# Table construction
# ---------------------------------------------------------------------------

def _mini_rows(ys=(0, 1, 0, 1)):
    return [
        {"group": "F", "xp": 0.0, "xe": 10.0, "cat": "A", "y": ys[0]},
        {"group": "F", "xp": 1.0, "xe": 20.0, "cat": "A", "y": ys[1]},
        {"group": "M", "xp": 2.0, "xe": 30.0, "cat": "B", "y": ys[2]},
        {"group": "M", "xp": 3.0, "xe": 40.0, "cat": "B", "y": ys[3]},
    ]


def test_table_rejects_non_binary_target():
    rows = _mini_rows()
    rows[0]["y"] = 2
    with pytest.raises(SchemaError, match="outside"):
        rows_to_table(rows)


def test_table_rejects_single_level_protected():
    rows = _mini_rows()
    for r in rows:
        r["group"] = "F"
    with pytest.raises(SchemaError, match="fewer than 2"):
        rows_to_table(rows)


def test_table_rejects_ragged_and_missing_columns():
    cols = {
        "group": np.array(["F", "M"], dtype=object),
        "xp": np.array([1.0, 2.0, 3.0]),
        "xe": np.array([1.0, 2.0]),
        "cat": np.array(["A", "B"], dtype=object),
        "y": np.array([0, 1]),
    }
    with pytest.raises(SchemaError, match="ragged"):
        Table(ROW_SCHEMA, cols)
    cols["xp"] = np.array([1.0, 2.0])
    del cols["cat"]
    with pytest.raises(SchemaError, match="declared but not supplied"):
        Table(ROW_SCHEMA, cols)


def test_table_columns_are_immutable():
    t = rows_to_table(_mini_rows())
    with pytest.raises(ValueError):
        t.column("xp")[0] = 99.0


def test_table_take_with_mask_and_indices():
    t = rows_to_table(_mini_rows())
    picked = t.take(np.array([True, False, True, True]))
    assert picked.rows == 3
    assert list(picked.column("group")) == ["F", "M", "M"]
    again = picked.take(np.array([2, 0]))
    assert list(again.column("xe")) == [40.0, 10.0]
    with pytest.raises(SchemaError, match="no column"):
        t.column("absent")


def test_table_take_of_a_mask_equals_take_of_its_index():
    rng = np.random.default_rng(4)
    t = rows_to_table(random_rows(random.Random(4), 60))
    for mask in (rng.random(t.rows) < 0.3, np.zeros(t.rows, bool), t.column("cat") == "A"):
        by_mask, by_index = t.take(mask), t.take(np.flatnonzero(mask))
        assert by_mask.rows == by_index.rows == int(mask.sum())
        for spec in t.schema.columns:
            np.testing.assert_array_equal(by_mask.column(spec.name), by_index.column(spec.name))
            if spec.kind in ("protected", "categorical"):
                assert by_mask.levels(spec.name) == by_index.levels(spec.name)
                np.testing.assert_array_equal(by_mask.codes(spec.name), by_index.codes(spec.name))


def test_encoder_transform_of_a_mask_equals_transform_of_the_taken_rows():
    t = rows_to_table(random_rows(random.Random(6), 80))
    mask = np.random.default_rng(6).random(t.rows) < 0.5
    enc = FeatureEncoder.fit(t, train_mask=~mask, include_protected=True)
    assert enc == FeatureEncoder.fit(t.take(~mask), include_protected=True)
    masked, taken = enc.transform(t, mask), enc.transform(t.take(mask))
    assert masked.shape == taken.shape
    np.testing.assert_array_equal(masked.dense(), taken.dense())
    np.testing.assert_array_equal(masked.combo, taken.combo)
    for (codes, cols), (codes_b, cols_b) in zip(masked.coded, taken.coded, strict=True):
        np.testing.assert_array_equal(codes, codes_b)
        np.testing.assert_array_equal(cols, cols_b)


def test_table_levels_sorted():
    t = rows_to_table(_mini_rows())
    assert t.levels("group") == ["F", "M"]
    assert t.levels("cat") == ["A", "B"]


# ---------------------------------------------------------------------------
# CSV loading / writing
# ---------------------------------------------------------------------------

def test_load_csv_toy8_shape(toy8):
    assert toy8.rows == 8
    assert toy8.dropped_rows == 0
    assert list(toy8.levels("sex")) == ["F", "M"]
    assert toy8.target.sum() == 2


def test_load_csv_drops_missing_marker_rows(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(
        "group,xp,xe,cat,y\n"
        "F,1,10,A,0\n"
        "M,?,20,B,1\n"
        "F,3,30,?,0\n"
        "M,4,40,B,1\n"
    )
    t = load_csv(p, ROW_SCHEMA)
    assert t.rows == 2
    assert t.dropped_rows == 2
    assert list(t.column("xp")) == [1.0, 4.0]
    assert list(t.column("group")) == ["F", "M"]


def test_load_csv_field_count_error_names_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("group,xp,xe,cat,y\nF,1,10,A,0\nM,2,20,B\n")
    with pytest.raises(ParseError, match=r"d\.csv:3"):
        load_csv(p, ROW_SCHEMA)


def test_load_csv_non_numeric_error(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("group,xp,xe,cat,y\nF,one,10,A,0\nM,2,20,B,1\n")
    with pytest.raises(ParseError, match="not a number"):
        load_csv(p, ROW_SCHEMA)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", " NaN ", "1e999"])
def test_load_csv_rejects_non_finite_numbers(tmp_path, bad):
    p = tmp_path / "d.csv"
    p.write_text(f"group,xp,xe,cat,y\nF,1,10,A,0\nM,2,{bad},B,1\nF,3,{bad},A,0\n")
    with pytest.raises(ParseError, match=rf"d\.csv:3: column 'xe': not a finite number: '{bad.strip()}'"):
        load_csv(p, ROW_SCHEMA)


def test_load_csv_ignores_non_finite_numbers_in_dropped_rows(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("group,xp,xe,cat,y\nF,1,10,A,0\nM,nan,20,?,1\nM,4,40,B,1\n")
    t = load_csv(p, ROW_SCHEMA)
    assert t.rows == 2 and t.dropped_rows == 1


def test_load_csv_header_must_cover_schema(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("group,xp,cat,y\nF,1,A,0\n")
    with pytest.raises(SchemaError, match="absent from header"):
        load_csv(p, ROW_SCHEMA)


def test_load_csv_ignores_extra_file_columns(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(
        "junk,group,xp,xe,cat,y\n"
        "zzz,F,1,10,A,0\n"
        "zzz,M,2,20,B,1\n"
    )
    t = load_csv(p, ROW_SCHEMA)
    assert t.rows == 2
    with pytest.raises(SchemaError):
        t.column("junk")


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    with pytest.raises(ParseError, match="empty file"):
        load_csv(p, ROW_SCHEMA)


def test_target_binarization_with_positive_label(tmp_path):
    schema = Schema(_cols(
        {"name": "group", "kind": "protected"},
        {"name": "income", "kind": "target", "positive_label": ">50K"},
    ))
    p = tmp_path / "d.csv"
    p.write_text("group,income\nF,>50K\nM,<=50K\nF,other\nM,>50K\n")
    t = load_csv(p, schema)
    assert list(t.target) == [1, 0, 0, 1]


def test_target_without_positive_label_must_be_binary(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("group,xp,xe,cat,y\nF,1,10,A,2\nM,2,20,B,1\n")
    with pytest.raises(ParseError, match="not 0/1"):
        load_csv(p, ROW_SCHEMA)


# ---------------------------------------------------------------------------
# Privilege threshold
# ---------------------------------------------------------------------------

def _xp_table(values, groups=None):
    n = len(values)
    groups = groups or ["F" if i % 2 else "M" for i in range(n)]
    rows = [{"group": groups[i], "xp": float(values[i]), "xe": 10.0 * (i % 3),
             "cat": "A", "y": i % 2} for i in range(n)]
    return rows_to_table(rows)


def test_privilege_threshold_rank_column():
    # values 1..100 at p=10: the top-decile cutoff is 91 and the realized
    # privileged fraction is exactly 10%.
    t = _xp_table(list(range(1, 101)))
    th = privilege_threshold(t, 10.0)
    assert th.privilege_cutoff == 91.0
    assert th.realized_fraction == 0.1
    assert th.p == 10.0


def test_privilege_threshold_reaches_exact_boundary():
    # 5 of 100 rows at the top value: p=5 admits them, p=4 has no cutoff.
    t = _xp_table([1.0] * 95 + [5.0] * 5)
    th = privilege_threshold(t, 5.0)
    assert th.privilege_cutoff == 5.0
    assert th.realized_fraction == 0.05
    with pytest.raises(DegenerateThresholdError, match="no observed cutoff"):
        privilege_threshold(t, 4.0)


def test_privilege_threshold_ties_land_below_p():
    # 8 distinct values, p=30: {x >= 7} has 2/8 = 25% — the smallest tail
    # not exceeding 30% — so the realized fraction sits strictly below p.
    t = _xp_table(list(range(1, 9)))
    th = privilege_threshold(t, 30.0)
    assert th.privilege_cutoff == 7.0
    assert th.realized_fraction == 0.25


def test_privilege_threshold_constant_column():
    t = _xp_table([3.0] * 10)
    with pytest.raises(DegenerateThresholdError, match="constant"):
        privilege_threshold(t, 10.0)


def test_privilege_threshold_p_bounds():
    t = _xp_table(list(range(1, 9)))
    for bad in (0.0, 100.0, -3.0, 250.0):
        with pytest.raises(ValueError, match="p must lie"):
            privilege_threshold(t, bad)


def test_privilege_threshold_named_column_override():
    t = _xp_table(list(range(1, 9)))
    th = privilege_threshold(t, 30.0, column="xe")
    assert th.privilege_cutoff == 20.0  # xe cycles 0/10/20; top value holds <=30%


def test_privilege_threshold_toy8(toy8):
    th = privilege_threshold(toy8, 25.0)
    assert th.privilege_cutoff == 10000.0
    assert th.realized_fraction == 0.25
    # the two capital holders are 25% of rows, so p=20 is unattainable
    with pytest.raises(DegenerateThresholdError):
        privilege_threshold(toy8, 20.0)


# ---------------------------------------------------------------------------
# Effort thresholds
# ---------------------------------------------------------------------------

def test_effort_threshold_toy8_global(toy8):
    th = effort_threshold(toy8, "global")
    assert th.effort == {(): 42.5}
    assert th.effort_at(("A", "F")) == 42.5


def test_effort_threshold_toy8_per_group(toy8):
    th = effort_threshold(toy8, "per_group")
    assert th.effort == {("F",): 40.0, ("M",): 45.0}
    # scope-trimmed lookup: a category-refined key resolves to the group cell
    assert th.effort_at(("A", "F")) == 40.0
    assert th.effort_at(("M",)) == 45.0


def test_effort_threshold_toy8_per_category_group(toy8):
    th = effort_threshold(toy8, "per_category_group", category_column="occ")
    assert th.effort == {
        ("A", "F"): 40.0, ("A", "M"): 50.0,
        ("B", "F"): 40.0, ("B", "M"): 40.0,
    }
    assert th.fallbacks == []


def test_effort_threshold_small_cells_inherit_parent_mean():
    rows = [
        {"group": "F", "xp": 0.0, "xe": 10.0, "cat": "A", "y": 0},
        {"group": "F", "xp": 0.0, "xe": 20.0, "cat": "A", "y": 1},
        {"group": "F", "xp": 0.0, "xe": 30.0, "cat": "B", "y": 0},
        {"group": "M", "xp": 0.0, "xe": 100.0, "cat": "A", "y": 1},
    ]
    t = rows_to_table(rows)
    th = effort_threshold(t, "per_group")
    assert th.effort[("F",)] == 20.0
    assert th.effort[("M",)] == 40.0  # one row -> global mean (10+20+30+100)/4
    assert any("'M'" in f for f in th.fallbacks)

    fine = effort_threshold(t, "per_category_group", category_column="cat")
    # (B, F) and (A, M) hold one row each; each inherits its group mean,
    # where M's own group mean already fell back to the global mean.
    assert fine.effort[("A", "F")] == 15.0
    assert fine.effort[("B", "F")] == 20.0
    assert fine.effort[("A", "M")] == 40.0
    assert fine.effort[("B", "M")] == 40.0
    assert len(fine.fallbacks) >= 3


def test_effort_threshold_scope_and_column_errors(toy8):
    with pytest.raises(ValueError, match="unknown effort scope"):
        effort_threshold(toy8, "per_row")
    with pytest.raises(SchemaError, match="category column"):
        effort_threshold(toy8, "per_category_group")


def test_resolve_thresholds_combines_both(toy8):
    th = NotionConfig.from_dict({"kind": "SEP", "p": 25}, toy8.schema).resolve_thresholds(toy8)
    assert th.privilege_cutoff == 10000.0
    assert th.realized_fraction == 0.25
    assert th.p == 25.0
    assert th.effort == {("F",): 40.0, ("M",): 45.0}
    assert th.effort_scope == "per_group"


# ---------------------------------------------------------------------------
# Feature encoding
# ---------------------------------------------------------------------------

def test_encoder_one_hot_and_standardization():
    t = rows_to_table(_mini_rows())
    design, enc = encode_features(t)
    X = design.dense()
    # xp/xe standardized, cat one-hot over sorted levels; protected excluded
    assert enc.feature_map == [("xp", None), ("xe", None), ("cat", "A"), ("cat", "B")]
    assert X.shape == (4, 4)
    xp = t.column("xp")
    np.testing.assert_allclose(X[:, 0], (xp - xp.mean()) / xp.std())
    np.testing.assert_array_equal(X[:, 2], [1.0, 1.0, 0.0, 0.0])
    np.testing.assert_array_equal(X[:, 2] + X[:, 3], np.ones(4))


def test_encoder_include_protected_adds_group_indicators():
    t = rows_to_table(_mini_rows())
    X, enc = encode_features(t, include_protected=True)
    assert ("group", "F") in enc.feature_map
    assert ("group", "M") in enc.feature_map
    assert X.shape[1] == enc.width == 6


def test_encoder_constant_numeric_encodes_zeros(caplog):
    rows = _mini_rows()
    for r in rows:
        r["xp"] = 7.0
    t = rows_to_table(rows)
    with caplog.at_level("WARNING"):
        X, enc = encode_features(t)
    assert enc.sds["xp"] == 1.0
    np.testing.assert_array_equal(X.dense()[:, 0], np.zeros(4))
    assert any("constant" in m for m in caplog.messages)


def test_encoder_drops_single_level_categorical_on_train_split(caplog):
    rows = _mini_rows()
    t = rows_to_table(rows)
    train = np.array([True, True, False, False])  # only cat=A rows
    with caplog.at_level("WARNING"):
        enc = FeatureEncoder.fit(t, train_mask=train)
    assert all(name != "cat" for name, _ in enc.feature_map)
    assert any("dropped" in m for m in caplog.messages)


def test_encoder_statistics_come_from_train_mask_only():
    t = rows_to_table(_mini_rows())
    train = np.array([True, True, True, False])
    enc = FeatureEncoder.fit(t, train_mask=train)
    xp_train = t.column("xp")[:3]
    assert enc.means["xp"] == pytest.approx(xp_train.mean())
    X_test = enc.transform(t, mask=~train)
    expected = (t.column("xp")[3] - xp_train.mean()) / xp_train.std()
    assert X_test.dense()[0, 0] == pytest.approx(expected)


def test_encoder_unseen_level_encodes_all_zeros():
    t = rows_to_table(_mini_rows())
    enc = FeatureEncoder.fit(t)
    extra = _mini_rows()
    for r in extra:
        r["cat"] = "C"
    t2 = rows_to_table(extra)
    X2 = enc.transform(t2)
    np.testing.assert_array_equal(X2.dense()[:, 2:], np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# Stratified split
# ---------------------------------------------------------------------------

def test_stratified_split_partition_and_cell_counts():
    rng = np.random.default_rng(3)
    n = 200
    rows = [{"group": ("F", "M")[i % 2], "xp": float(rng.integers(0, 5)),
             "xe": float(rng.integers(0, 5)), "cat": "A",
             "y": int(rng.integers(0, 2))} for i in range(n)]
    t = rows_to_table(rows)
    train, test = stratified_split(t, 0.25, seed=0)
    assert not (train & test).any()
    assert (train | test).all()
    groups = t.column("group")
    for g in ("F", "M"):
        for yv in (0, 1):
            cell = (groups == g) & (t.target == yv)
            want = int(round(cell.sum() * 0.25))
            assert (cell & test).sum() == want


def test_stratified_split_deterministic_and_seed_sensitive():
    t = rows_to_table(_mini_rows() * 10)
    a_train, a_test = stratified_split(t, 0.3, seed=5)
    b_train, b_test = stratified_split(t, 0.3, seed=5)
    np.testing.assert_array_equal(a_train, b_train)
    np.testing.assert_array_equal(a_test, b_test)
    c_train, _ = stratified_split(t, 0.3, seed=6)
    assert not np.array_equal(a_train, c_train)


def test_stratified_split_fraction_bounds():
    t = rows_to_table(_mini_rows())
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="test_fraction"):
            stratified_split(t, bad, seed=0)


# ---------------------------------------------------------------------------
# Cell index
# ---------------------------------------------------------------------------

def check_cell_rows_match_flatnonzero(seed: int) -> None:
    rng = np.random.default_rng(seed)
    size = int(rng.choice([1, 2, 3, 17, 255, 256, 65535, 65536]))
    used = rng.integers(0, size, size=int(rng.integers(1, 6)))  # most values no row uses
    key = rng.choice(np.append(used, size - 1), size=int(rng.choice([0, 1, 2, 50, 300])))
    key = key.astype([np.int32, np.int64, np.uint16][int(rng.integers(3))])
    parts = cell_rows(key, size)
    assert len(parts) == size
    assert sum(part.size for part in parts) == key.size  # so every other part is empty
    for k in set(key.tolist()) | {0, size - 1}:
        np.testing.assert_array_equal(parts[k], np.flatnonzero(key == k))


if given is not None:
    test_cell_rows_match_flatnonzero = settings(
        max_examples=200, deadline=None, derandomize=True, database=None)(
        given(st.integers(0, 2**32 - 1))(check_cell_rows_match_flatnonzero))
else:
    test_cell_rows_match_flatnonzero = pytest.mark.parametrize(
        "seed", range(200))(check_cell_rows_match_flatnonzero)


@pytest.mark.parametrize("size", [255, 256, 65535, 65536])
def test_cell_rows_across_the_narrowed_dtype_boundaries(size):
    # 255 and 65535 narrow to uint8 and uint16, 256 and 65536 to the next type
    key = np.array([size - 1, 0, size - 1, size // 2, 0, size - 1], np.int64)
    parts = cell_rows(key, size)
    assert len(parts) == size
    assert [k for k, part in enumerate(parts) if part.size] == [0, size // 2, size - 1]
    for k in (0, size // 2, size - 1):
        np.testing.assert_array_equal(parts[k], np.flatnonzero(key == k))


def test_cell_rows_of_no_rows():
    assert cell_rows(np.zeros(0, np.int32), 0) == []
    assert [part.size for part in cell_rows(np.zeros(0, np.int32), 3)] == [0, 0, 0]
