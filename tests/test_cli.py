"""End-to-end tests for the command line interface.

Every test drives ``fairsep.cli.main`` in-process with a throwaway output
directory, then inspects exit codes, printed lines, and the artifact files
byte by byte.  No network, no subprocesses.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import random
from pathlib import Path

import numpy as np
import pytest

import fairsep.cli
from fairsep.bundled import toy8_paths
from fairsep.cli import _resolve_predictions, _write_json, main
from fairsep.dataset import Schema, load_csv
from fairsep.errors import ParseError
from fairsep.learner import ExpGradHP, ReducedModel, save_model

from conftest import rows_to_table
from synth import planted_dp_table, privilege_driven_table, random_rows

TOY8_DATA, TOY8_SCHEMA = (str(p) for p in toy8_paths())

# Hard predictions used throughout the audit tests (same vector as the
# notion-level tests, so the frozen aggregate values carry over).
HPRED = [1, 0, 1, 0, 0, 1, 0, 1]

SEP_UNIT_AGGREGATE = 2.166666666666667


def write_predictions(path: Path, values) -> str:
    lines = ["prediction"] + [repr(float(v)) for v in values]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _csv_cell(spec, value):
    if spec.kind in ("numerical", "ordinal"):
        return repr(float(value))
    if spec.kind == "target":
        return int(value)
    return value


def write_table_csv(path: Path, table) -> str:
    specs = table.schema.columns
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([c.name for c in specs])
        for i in range(table.rows):
            writer.writerow([_csv_cell(c, table.column(c.name)[i]) for c in specs])
    return str(path)


def schema_doc_for(table) -> dict:
    cols = []
    for col in table.schema.columns:
        entry = {"name": col.name, "kind": col.kind}
        if col.tags:
            entry["tags"] = list(col.tags)
        if col.positive_label is not None:
            entry["positive_label"] = col.positive_label
        cols.append(entry)
    return {"columns": cols}


def write_schema_json(path: Path, table) -> str:
    path.write_text(json.dumps(schema_doc_for(table), indent=2) + "\n", encoding="utf-8")
    return str(path)


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def audit_argv(out: Path, preds: str, *extra: str) -> list[str]:
    return [
        "audit",
        "--data",
        TOY8_DATA,
        "--schema",
        TOY8_SCHEMA,
        "--out",
        str(out),
        "--predictions",
        preds,
        *extra,
    ]


# ---------------------------------------------------------------------------
# audit: exit codes, printed line, artifact contents
# ---------------------------------------------------------------------------


def test_audit_sep_fails_at_default_epsilon(tmp_path, capsys):
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    out = tmp_path / "run"
    code = main(audit_argv(out, preds, "--notion", "SEP", "--p", "25"))
    assert code == 1
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("SEP aggregate=")
    assert "pass=False" in line

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["notion"] == "SEP"
    assert report["aggregate"] == SEP_UNIT_AGGREGATE
    assert report["pass"] is False
    assert report["predictions_source"] == f"file:{preds}"
    assert report["data"] == TOY8_DATA


def test_audit_sep_passes_with_loose_epsilon(tmp_path, capsys):
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    out = tmp_path / "run"
    code = main(
        audit_argv(out, preds, "--notion", "SEP", "--p", "25", "--epsilon", "3.0")
    )
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert "pass=True" in line
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["epsilon"] == 3.0
    assert report["pass"] is True
    assert report["aggregate"] == SEP_UNIT_AGGREGATE


def test_audit_writes_expected_artifacts(tmp_path):
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    out = tmp_path / "run"
    main(audit_argv(out, preds, "--notion", "SEP", "--p", "25"))

    for name in ("report.json", "stats.csv", "effort_bins.csv", "manifest.json"):
        assert (out / name).is_file(), name

    with (out / "stats.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "scope",
        "category",
        "group",
        "n",
        "positives",
        "tp",
        "fp",
        "tn",
        "fn",
        "ppr",
        "tpr",
        "fpr",
    ]
    scopes = {r[0] for r in rows[1:]}
    assert "overall" in scopes
    assert "group" in scopes
    assert "segment" in scopes  # privileged / under-threshold slices

    with (out / "effort_bins.csv").open(encoding="utf-8", newline="") as fh:
        bins = list(csv.reader(fh))
    assert bins[0] == ["group", "privileged", "bin", "lo", "hi", "n", "ppr"]
    assert len(bins) > 1


def test_stats_rows_build_each_subgroup_mask_once(tmp_path, monkeypatch):
    # one mask per group row and none per category_group row: those rows are
    # the parts of one cell_rows sort of (category, group) per _stats_rows
    import fairsep.cli as cli
    import fairsep.groupstats as groupstats

    masks, sorts, tables = [], [], []
    real_mask, real_rows, real_stats_rows = groupstats.mask, cli.cell_rows, cli._stats_rows

    def counted(table, pred):
        masks.append(pred)
        return real_mask(table, pred)

    def counted_rows(key, size):
        sorts.append(size)
        return real_rows(key, size)

    def counted_stats_rows(table, *args):
        tables.append(table)
        return real_stats_rows(table, *args)

    monkeypatch.setattr(groupstats, "mask", counted)
    monkeypatch.setattr(cli, "subgroup_mask", counted)
    monkeypatch.setattr(cli, "cell_rows", counted_rows)
    monkeypatch.setattr(cli, "_stats_rows", counted_stats_rows)
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    out = tmp_path / "run"
    assert main(audit_argv(out, preds, "--notion", "CDP", "--conditional", "occ")) in (0, 1)
    with (out / "stats.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    groups = [r for r in rows if r["scope"] == "group"]
    cells = [r for r in rows if r["scope"] == "category_group"]
    assert masks == [(("sex", r["group"]),) for r in groups] == [(("sex", "F"),), (("sex", "M"),)]
    assert len(tables) == 1 and sorts == [len(cells)] == [4]
    assert [r["positives"] for r in groups] == ["1", "1"]


def brute_stats_row(rows, decisions):
    """n, positives, tp, fp, tn, fn, ppr, tpr, fpr of a row subset, counted one by one."""
    n = len(rows)
    pos = [d for r, d in zip(rows, decisions) if r["y"] == 1]
    neg = [d for r, d in zip(rows, decisions) if r["y"] == 0]
    tp, fp = float(sum(pos)), float(sum(neg))
    fn, tn = float(sum(1.0 - d for d in pos)), float(sum(1.0 - d for d in neg))
    return [n, len(pos), tp, fp, tn, fn, (tp + fp) / n if n else None,
            tp / (tp + fn) if pos else None, fp / (fp + tn) if neg else None]


@pytest.mark.parametrize("mode", ["hard", "expected"])
def test_stats_rows_match_a_brute_force_recount(tmp_path, mode):
    rng = random.Random(47 if mode == "hard" else 48)
    for i in range(15):
        rows = random_rows(rng, mode=mode)
        table = rows_to_table(rows)
        root = tmp_path / f"t{i}"
        root.mkdir()
        out = root / "run"
        code = main(["audit", "--data", write_table_csv(root / "t.csv", table),
                     "--schema", write_schema_json(root / "t.json", table),
                     "--predictions", write_predictions(root / "p.csv", [r["h"] for r in rows]),
                     "--notion", "CDP", "--conditional", "cat", "--mode", mode,
                     "--out", str(out)])
        assert code in (0, 1)
        decisions = [(r["h"] >= 0.5) * 1.0 if mode == "hard" else r["h"] for r in rows]
        want = {("overall", "", ""): brute_stats_row(rows, decisions)}
        for g in sorted({r["group"] for r in rows}):
            picked = [j for j, r in enumerate(rows) if r["group"] == g]
            want[("group", "", g)] = brute_stats_row([rows[j] for j in picked],
                                                     [decisions[j] for j in picked])
            for a in sorted({r["cat"] for r in rows}):
                picked = [j for j, r in enumerate(rows) if r["group"] == g and r["cat"] == a]
                want[("category_group", a, g)] = brute_stats_row(
                    [rows[j] for j in picked], [decisions[j] for j in picked])
        with (out / "stats.csv").open(encoding="utf-8", newline="") as fh:
            got = {(r["scope"], r["category"], r["group"]):
                   [int(r["n"]), int(r["positives"])] +
                   [float(r[k]) if r[k] else None
                    for k in ("tp", "fp", "tn", "fn", "ppr", "tpr", "fpr")]
                   for r in csv.DictReader(fh) if r["scope"] != "ratio"}
        assert set(got) == set(want), i
        for key, values in want.items():
            if mode == "hard":
                assert got[key] == values, (i, key)
            else:
                assert got[key][:2] == values[:2], (i, key)
                assert [v is None for v in got[key]] == [v is None for v in values], (i, key)
                np.testing.assert_allclose([v for v in got[key][2:] if v is not None],
                                           [v for v in values[2:] if v is not None],
                                           rtol=0, atol=1e-12, err_msg=f"{i} {key}")


@pytest.mark.parametrize("hours", [{}, {"20": "9.7", "40": "30", "60": "39.04"}])
def test_effort_bins_match_a_brute_force_recount(tmp_path, hours):
    # with 9.7 .. 39.04, lo + span * 5 / 5 rounds below the maximum effort
    lines = Path(TOY8_DATA).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    records = [dict(zip(header, line.split(","))) for line in lines[1:]]
    for r in records:
        r["hours"] = hours.get(r["hours"], r["hours"])
    data = tmp_path / "toy8.csv"
    data.write_text("\n".join([lines[0]] + [",".join(r[k] for k in header) for r in records])
                    + "\n", encoding="utf-8")
    out = tmp_path / "run"
    assert main(["audit", "--data", str(data), "--schema", TOY8_SCHEMA, "--notion", "SEP",
                 "--p", "25", "--predictions", "ground_truth", "--out", str(out)]) in (0, 1)
    cutoff = json.loads((out / "report.json").read_text(encoding="utf-8"))["thresholds"][
        "privilege_cutoff"]
    efforts = [float(r["hours"]) for r in records]
    lo, hi = min(efforts), max(efforts)
    edges = [lo + (hi - lo) * i / 5 for i in range(5)] + [hi]
    want = []
    for b in range(5):
        for g in sorted({r["sex"] for r in records}):
            for flag in (1, 0):
                ys = [int(r["y"]) for r, e in zip(records, efforts)
                      if r["sex"] == g and (float(r["cap"]) >= cutoff) == flag
                      and edges[b] <= e and (e < edges[b + 1] or b == 4 and e <= hi)]
                want.append([g, flag, edges[b], edges[b + 1], len(ys),
                             sum(ys) / len(ys) if ys else None])
    with (out / "effort_bins.csv").open(encoding="utf-8", newline="") as fh:
        got = [[r["group"], int(r["privileged"]), float(r["lo"]), float(r["hi"]), int(r["n"]),
                float(r["ppr"]) if r["ppr"] else None] for r in csv.DictReader(fh)]
    assert got == want
    assert sum(row[4] for row in got) == len(records)


def test_audit_manifest_hashes_match_files(tmp_path):
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    out = tmp_path / "run"
    main(audit_argv(out, preds, "--notion", "DP"))
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    entries = manifest["entries"]
    assert set(entries) == {"report.json", "stats.csv"}
    for name, entry in entries.items():
        assert entry["sha256"] == sha256_of(out / name)
        assert entry["command"].startswith("fairsep audit ")


def test_audit_rerun_is_byte_identical(tmp_path):
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    out = tmp_path / "run"
    argv = audit_argv(out, preds, "--notion", "SEP", "--p", "25")
    main(argv)
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    main(argv)
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second

    # A second directory yields the same artifact bytes (the manifest embeds
    # the command line, so only the data artifacts are compared).
    other = tmp_path / "other"
    main(audit_argv(other, preds, "--notion", "SEP", "--p", "25"))
    for name in ("report.json", "stats.csv", "effort_bins.csv"):
        assert (other / name).read_bytes() == first[name]


def test_audit_ground_truth_predictions(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "audit",
            "--data",
            TOY8_DATA,
            "--schema",
            TOY8_SCHEMA,
            "--out",
            str(out),
            "--predictions",
            "ground_truth",
            "--notion",
            "EP",
        ]
    )
    # Predicting the label itself satisfies equalized-positive-rate-on-
    # positives exactly.
    assert code == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["aggregate"] == 0.0
    assert report["predictions_source"] == "ground_truth"


def test_audit_config_file_with_flag_override(tmp_path):
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    out = tmp_path / "run"
    cfg = {
        "data": TOY8_DATA,
        "schema": TOY8_SCHEMA,
        "out": str(out),
        "predictions": preds,
        "notion": {"kind": "SEP", "p": 25, "epsilon": 0.05},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    assert main(["audit", "--config", str(cfg_path)]) == 1
    # Flags override config values.
    assert main(["audit", "--config", str(cfg_path), "--epsilon", "3.0"]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["epsilon"] == 3.0


def test_audit_csep_reports_categories(tmp_path):
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    out = tmp_path / "run"
    code = main(
        audit_argv(
            out, preds, "--notion", "CSEP", "--p", "25", "--conditional", "occ"
        )
    )
    assert code == 1
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["aggregate"] == 2.0
    assert report["categories"]
    assert report["weighted_mean"] == pytest.approx((2 * 2.0 + 0.5 + 0.5 + 2 * 1.0) / 6)


# ---------------------------------------------------------------------------
# audit: failure modes and exit codes
# ---------------------------------------------------------------------------


def test_missing_data_is_usage_error(tmp_path):
    assert main(["audit", "--schema", TOY8_SCHEMA, "--out", str(tmp_path)]) == 2


def test_missing_notion_kind_is_usage_error(tmp_path):
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    assert main(audit_argv(tmp_path / "run", preds)) == 2


def test_missing_predictions_is_usage_error(tmp_path):
    assert (
        main(
            [
                "audit",
                "--data",
                TOY8_DATA,
                "--schema",
                TOY8_SCHEMA,
                "--out",
                str(tmp_path / "run"),
                "--notion",
                "DP",
            ]
        )
        == 2
    )


def test_nonexistent_data_file_is_usage_error(tmp_path):
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    code = main(
        [
            "audit",
            "--data",
            str(tmp_path / "missing.csv"),
            "--schema",
            TOY8_SCHEMA,
            "--out",
            str(tmp_path / "run"),
            "--predictions",
            preds,
            "--notion",
            "DP",
        ]
    )
    assert code == 2


def test_degenerate_privilege_cutoff_is_runtime_error(tmp_path):
    # At p=5 the 5th percentile of toy8 capital is the column minimum, so no
    # group can fall strictly below it: a data problem, not a usage problem.
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    code = main(audit_argv(tmp_path / "run", preds, "--notion", "SEP", "--p", "5"))
    assert code == 3


def test_wrong_length_predictions_is_runtime_error(tmp_path):
    preds = write_predictions(tmp_path / "preds.csv", HPRED[:5])
    code = main(audit_argv(tmp_path / "run", preds, "--notion", "DP"))
    assert code == 3


def test_nan_predictions_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "preds.csv"
    path.write_text("prediction\n" + "\n".join(["1.0"] * 7 + ["nan"]) + "\n",
                    encoding="utf-8")
    code = main(audit_argv(tmp_path / "run", str(path), "--notion", "SEP", "--p", "25"))
    assert code == 3
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_data_is_runtime_error(tmp_path, capsys, bad):
    lines = Path(TOY8_DATA).read_text(encoding="utf-8").splitlines()
    lines[4] = lines[4].replace(",40,", f",{bad},")  # hours on line 5
    data = tmp_path / "toy8.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    code = main(["audit", "--data", str(data), "--schema", TOY8_SCHEMA, "--out",
                 str(tmp_path / "run"), "--predictions", preds, "--notion", "SEP", "--p", "25"])
    assert code == 3
    assert f"toy8.csv:5: column 'hours': not a finite number: '{bad}'" in capsys.readouterr().err


def toy8_with_age(tmp_path: Path) -> tuple[str, str]:
    """toy8 plus an ordinal ``age`` column that carries no tag."""
    lines = Path(TOY8_DATA).read_text(encoding="utf-8").splitlines()
    data = tmp_path / "toy8age.csv"
    data.write_text("\n".join([lines[0] + ",age"] + [f"{line},{30 + i}" for i, line
                                                      in enumerate(lines[1:])]) + "\n",
                    encoding="utf-8")
    doc = json.loads(Path(TOY8_SCHEMA).read_text(encoding="utf-8"))
    doc["columns"].append({"name": "age", "kind": "ordinal"})
    schema = tmp_path / "toy8age.json"
    schema.write_text(json.dumps(doc), encoding="utf-8")
    return str(data), str(schema)


@pytest.mark.parametrize("argv", [
    ["audit", "--notion", "SEP", "--p", "150"],
    ["audit", "--notion", "SEP", "--p", "0"],
    ["audit", "--notion", "DP", "--cutoff", "1.5"],
    ["train", "--notion", "DP", "--test-fraction", "1.5"],
    ["sweep-p", "--grid", "0:5"],
    ["sweep-p", "--grid", "1.5:3"],
    ["sweep-p", "--grid", "a,b"],
    ["sweep-p", "--grid", "1:100"],
])
def test_out_of_range_flags_are_usage_errors(tmp_path, capsys, caplog, argv):
    preds = ["--predictions", write_predictions(tmp_path / "preds.csv", HPRED)]
    code = main(argv + ["--data", TOY8_DATA, "--schema", TOY8_SCHEMA,
                        "--out", str(tmp_path / "run")] + (preds if argv[0] == "audit" else []))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert "unhandled error" not in caplog.text


@pytest.mark.parametrize("config", [
    {"learner": {"l2": float("nan")}},
    {"learner": {"l2": -1}},
    {"learner": {"tol": float("inf")}},
    {"learner": {"epochs": 0}},
    {"learner": {"epochs": 2.5}},
    {"learner": {"epochs": True}},
    {"train": {"max_iter": 0}},
    {"train": {"patience": "3"}},
    {"train": {"eta": "x"}},
    {"train": {"eta": 0}},
    {"train": {"lambda_bound": float("inf")}},
    {"train": {"eps_train": float("nan")}},
    {"notion": {"epsilon": "x"}},
    {"notion": {"p": "x"}},
    {"notion": {"zeta": 5}},
    {"notion": {"zeta": {"cap": "x"}}},
    {"notion": {"zeta": {"kind": "linear_capped", "cap": float("nan")}}},
    {"notion": 5},
    {"learner": 5},
    {"train": 5},
    {"train": {"base": 5}},
    {"seed": "x"},
    {"seed": 2.5},
    {"seed": True},
    {"train": {"include_protected": "no"}},
    {"notion": {"epsilon": True}},
    {"notion": {"p": "5"}},
    {"notion": {"zeta": {"cap": True}}},
    {"notion": {"t3_literal_b": "no"}},
    {"cutoff": "0.5"},
    {"test_fraction": "0.3"},
    {"train": {"test_fraction": "0.3"}},
])
def test_bad_trainer_hyperparameters_are_usage_errors(tmp_path, capsys, caplog, config):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg_path), "--data", TOY8_DATA,
                 "--schema", TOY8_SCHEMA, "--notion", "DP", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert "unhandled error" not in caplog.text
    assert not (out / "model.json").exists()


@pytest.mark.parametrize("argv", [
    ["audit", "--notion", "DP", "--epsilon", "nan"],
    ["audit", "--notion", "SEP", "--p", "25", "--epsilon", "inf"],
    ["sweep-p", "--ratio-rule", "nan"],
    ["sweep-p", "--ratio-rule", "inf"],
])
def test_non_finite_tolerances_are_usage_errors(tmp_path, capsys, caplog, argv):
    preds = ["--predictions", write_predictions(tmp_path / "preds.csv", HPRED)]
    out = tmp_path / "run"
    code = main(argv + ["--data", TOY8_DATA, "--schema", TOY8_SCHEMA, "--out", str(out)]
                + (preds if argv[0] == "audit" else []))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert "unhandled error" not in caplog.text
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv, config, columns", [
    (["sweep-p"], {"ratio_rule": "x"}, None),
    (["extract-privilege", "--group", "M"], {"repeats": "x"}, None),
    (["audit", "--notion", "DP"], {}, [{"kind": "target"}]),
    (["audit", "--notion", "DP"], {}, [5]),
    (["extract-privilege", "--group", "M"], {"repeats": 3.5}, None),
    (["audit", "--notion", "DP"], {"notion": {"groups": 5}}, None),
    (["audit", "--notion", "DP"], {"notion": {"groups": "FM"}}, None),
    (["audit", "--notion", "DP"], {}, [{"name": "cap", "kind": "numerical", "tags": 5}]),
    (["sweep-p"], {"ratio_rule": True}, None),
    (["audit", "--notion", "DP"], {"notion": {"epsilon": True}}, None),
    (["audit", "--notion", "SEP", "--p", "25"], {"notion": {"t3_literal_b": "no"}}, None),
    (["audit", "--notion", "SEP"], {"notion": {"p": "25"}}, None),
    (["audit", "--notion", "DP"], {"cutoff": "0.5"}, None),
    (["sweep-p"], {"grid": [True, "5"]}, None),
    (["sweep-p"], {"grid": ["5"]}, None),
])
def test_wrong_type_config_and_schema_values_are_usage_errors(tmp_path, capsys, caplog,
                                                              argv, config, columns):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    schema = TOY8_SCHEMA
    if columns is not None:
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"columns": columns}), encoding="utf-8")
    out = tmp_path / "run"
    preds = ["--predictions", "ground_truth"] if argv[0] == "audit" else []
    code = main(argv + ["--config", str(cfg_path), "--data", TOY8_DATA,
                        "--schema", str(schema), "--out", str(out)] + preds)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert "unhandled error" not in caplog.text
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("key, value", [
    ("positive_label", 1),
    ("positive_label", True),
    ("missing_marker", 5),
    ("missing_marker", None),
    ("delimiter", 5),
    ("delimiter", ""),
    ("delimiter", ",;"),
])
def test_wrong_type_schema_keys_are_usage_errors_naming_the_key(tmp_path, capsys, caplog,
                                                                key, value):
    doc = json.loads(Path(TOY8_SCHEMA).read_text(encoding="utf-8"))
    (doc["columns"][-1] if key == "positive_label" else doc)[key] = value
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "run"
    code = main(["audit", "--notion", "DP", "--data", TOY8_DATA, "--schema", str(schema),
                 "--out", str(out), "--predictions", "ground_truth"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and f"'{key}'" in err, err
    assert "unhandled error" not in caplog.text
    assert not out.exists() or not any(out.iterdir())


def test_schema_keys_of_the_documented_types_are_read(tmp_path):
    doc = json.loads(Path(TOY8_SCHEMA).read_text(encoding="utf-8"))
    doc["columns"][-1]["positive_label"] = "1"
    schema = Schema.from_dict(dict(doc, missing_marker="NA", delimiter=","))
    assert (schema.target.positive_label, schema.missing_marker) == ("1", "NA")
    assert load_csv(TOY8_DATA, schema).target.tolist() == [0, 0, 1, 0, 1, 0, 0, 0]


@pytest.mark.parametrize("which", ["--schema", "--config"])
def test_malformed_json_is_a_usage_error(tmp_path, capsys, caplog, which):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    argv = audit_argv(tmp_path / "run", "ground_truth", "--notion", "DP")
    argv = argv + [which, str(bad)] if which == "--config" else [
        str(bad) if a == TOY8_SCHEMA else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: {which[2:]} is not valid JSON" in err, err
    assert "unhandled error" not in caplog.text



@pytest.mark.parametrize("content, fault", [("{", "is not valid JSON"),
                                            ("[]", "must be a JSON object")])
@pytest.mark.parametrize("what", ["model", "report", "manifest"])
def test_malformed_json_artifact_is_a_usage_error(tmp_path, capsys, caplog, what, content, fault):
    """A model, report or manifest file holding malformed JSON, or no object, exits 2 naming it."""
    out = tmp_path / "run"
    main(audit_argv(out, "ground_truth", "--notion", "DP"))
    bad = tmp_path / "bad.json" if what == "model" else out / f"{what}.json"
    bad.write_text(content, encoding="utf-8")
    argv = {"model": ["audit", "--data", TOY8_DATA, "--schema", TOY8_SCHEMA, "--notion", "DP",
                      "--model", str(bad), "--out", str(tmp_path / "check")],
            "report": ["report", "--out", str(out)],
            "manifest": audit_argv(out, "ground_truth", "--notion", "DP")}[what]
    capsys.readouterr()
    assert main(argv) == 2
    assert f"{bad}: {what} {fault}" in capsys.readouterr().err
    assert "unhandled error" not in caplog.text


MEMBER = {"weights": [0.5], "intercept": 0.0, "converged": True, "epochs_run": 3,
          "final_loss": 0.25}
ENCODER = {"feature_map": [["cap", None]], "levels": {}, "means": {"cap": 0.0},
           "sds": {"cap": 1.0}, "include_protected": False}


@pytest.mark.parametrize("doc, key", [
    ({}, "'hp'"),
    ({"hp": []}, "'hp'"),
    ({"hp": {}, "mixture_weights": []}, "'members'"),
    ({"hp": {}, "members": [{}]}, "'mixture_weights'"),
    ({"hp": {}, "members": [{"intercept": 0.0}], "mixture_weights": [1.0]}, "'weights'"),
    ({"hp": {}, "members": [{"weights": [1, "a"], "intercept": 0.0}], "mixture_weights": [1.0]},
     "'weights'"),
    ({"hp": {}, "members": [{"weights": [1.0]}], "mixture_weights": [1.0]}, "'intercept'"),
    ({"hp": {}, "members": [{"weights": [], "intercept": True}], "mixture_weights": [1.0]},
     "'intercept'"),
    *[({"hp": {}, "members": [dict(MEMBER, **member)], "mixture_weights": [1.0]}, f"'{key}'")
      for member, key in [({"converged": "yes"}, "converged"),
                          ({"epochs_run": "x"}, "epochs_run"),
                          ({"epochs_run": 2.5}, "epochs_run"),
                          ({"final_loss": None}, "final_loss")]],
    *[({"hp": {}, "members": [MEMBER], "mixture_weights": [1.0], "encoder": encoder}, f"'{key}'")
      for encoder, key in [([], "encoder"),
                           ({}, "feature_map"),
                           (dict(ENCODER, feature_map=[["cap"]]), "feature_map"),
                           (dict(ENCODER, levels=[]), "levels"),
                           (dict(ENCODER, means=5), "means"),
                           (dict(ENCODER, sds=None), "sds"),
                           (dict(ENCODER, include_protected="no"), "include_protected")]],
])
def test_model_missing_or_mistyped_key_is_a_usage_error(tmp_path, capsys, caplog, doc, key):
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["audit", "--data", TOY8_DATA, "--schema", TOY8_SCHEMA, "--notion", "DP",
                 "--model", str(bad), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and key in err, err
    assert "unhandled error" not in caplog.text


@pytest.mark.parametrize("notion, key", [
    ({"kind": "CDP", "conditional": ["occ"]}, "'conditional'"),
    ({"kind": "SEP_relaxed", "effort_column": "occ", "p": 30}, "'effort_column'"),
    ({"kind": "DP", "groups": ["Z"]}, "'groups'"),
    ({"kind": "SEP_relaxed", "privilege_column": "occ", "p": 30}, "'privilege_column'"),
    ({"kind": "SEP", "privilege_column": 5, "p": 30}, "'privilege_column'"),
    ({"kind": "CDP", "conditional": "nope"}, "'conditional'"),
    ({"kind": "DP", "protected": "occ"}, "'protected'"),
    ({"kind": "DP", "protected": "cap"}, "'protected'"),
    ({"kind": "DP", "protected": ["sex"]}, "'protected'"),
])
def test_notion_column_keys_are_checked_when_read(tmp_path, capsys, caplog, notion, key):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"notion": notion}), encoding="utf-8")
    out = tmp_path / "run"
    code = main(audit_argv(out, "ground_truth", "--config", str(cfg_path)))
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and key in err, err
    assert "unhandled error" not in caplog.text
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("key", ["data", "schema", "predictions", "model", "out"])
def test_path_keys_must_be_strings(tmp_path, capsys, caplog, key):
    cfg = {"data": TOY8_DATA, "schema": TOY8_SCHEMA, "out": str(tmp_path / "run"),
           "notion": {"kind": "DP"}, key: 7}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code = main(["audit", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and f"'{key}'" in err, err
    assert "unhandled error" not in caplog.text
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("line, field, code, message", [
    (5, ",40,", ",4x0,", "toy8.csv:5: column 'hours': not a number: '4x0'"),
    (3, ",60,", ",inf,", "toy8.csv:3: column 'hours': not a finite number: 'inf'"),
    (1, ",occ,", ",job,", "schema columns absent from header: ['occ']"),
])
def test_audit_checks_the_columns_it_does_not_read(tmp_path, capsys, line, field, code, message):
    lines = Path(TOY8_DATA).read_text(encoding="utf-8").splitlines()
    lines[line - 1] = lines[line - 1].replace(field, code)
    data = tmp_path / "toy8.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["audit", "--data", str(data), "--schema", TOY8_SCHEMA, "--notion", "DP",
               "--predictions", "ground_truth", "--out", str(tmp_path / "run")])
    assert rc == (2 if line == 1 else 3)
    assert message in capsys.readouterr().err


def test_commands_code_only_the_columns_they_read(tmp_path, monkeypatch):
    held = []

    def spy(*args, **kwargs):
        table = load_csv(*args, **kwargs)
        held.append([c.name for c in table.schema.columns])
        return table
    monkeypatch.setattr(fairsep.cli, "load_csv", spy)
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"hp": {}, "members": [MEMBER], "mixture_weights": [1.0],
                                 "encoder": ENCODER}), encoding="utf-8")
    for argv in (audit_argv(tmp_path / "dp", "ground_truth", "--notion", "DP"),
                 audit_argv(tmp_path / "cdp", "ground_truth", "--notion", "CDP",
                            "--conditional", "occ"),
                 ["audit", "--data", TOY8_DATA, "--schema", TOY8_SCHEMA, "--notion", "DP",
                  "--model", str(model), "--out", str(tmp_path / "model")],
                 ["sweep-p", "--data", TOY8_DATA, "--schema", TOY8_SCHEMA, "--grid", "30",
                  "--out", str(tmp_path / "sweep")]):
        assert main(argv) in (0, 1)
    everything = ["sex", "cap", "hours", "occ", "y"]
    assert held == [["sex", "cap", "hours", "y"], everything, everything,
                    ["sex", "cap", "hours", "y"]]


def test_json_artifacts_refuse_non_finite_numbers(tmp_path):
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            _write_json(tmp_path / "report.json", {"aggregate": value})
        model = ReducedModel(members=[], mixture_weights=np.zeros(0), hp=ExpGradHP(),
                             max_violation=value)
        with pytest.raises(ValueError):
            save_model(model, tmp_path / "model.json")


@pytest.mark.parametrize("notion", ["CDP", "CSEP"])
def test_numeric_conditional_is_usage_error(tmp_path, capsys, caplog, notion):
    data, schema = toy8_with_age(tmp_path)
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    code = main(["audit", "--data", data, "--schema", schema, "--predictions", preds,
                 "--notion", notion, "--conditional", "age", "--p", "25",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "'age' is ordinal" in capsys.readouterr().err
    assert "unhandled error" not in caplog.text
    assert not (tmp_path / "run" / "stats.csv").exists()


def test_non_numeric_prediction_is_a_parse_error(tmp_path, capsys, caplog):
    path = tmp_path / "preds.csv"
    path.write_text("prediction\n1.0\n\nabc\n" + "0.0\n" * 6, encoding="utf-8")
    code = main(audit_argv(tmp_path / "run", str(path), "--notion", "DP"))
    assert code == 3
    assert "preds.csv:4: not a number: 'abc'" in capsys.readouterr().err
    assert "unhandled error" not in caplog.text


def test_predictions_file_takes_the_spellings_float_takes(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("prediction\n1_0\n\n\uff11\uff12\n infinity \n-NaN\n", encoding="utf-8")
    values, source = _resolve_predictions({"predictions": str(path)}, None)
    assert source == f"file:{path}"
    assert values[:3].tolist() == [10.0, 12.0, float("inf")] and np.isnan(values[3])
    for bad in ("0x10", "1,5", "1.5d0"):
        path.write_text(f"prediction\n0.5\n\n{bad}\n0.25\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"preds.csv:4: not a number: '{bad}'$"):
            _resolve_predictions({"predictions": str(path)}, None)


def test_unreadable_csv_record_is_a_parse_error(tmp_path, capsys, caplog):
    lines = Path(TOY8_DATA).read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3].replace(",B,", "," + "x" * (csv.field_size_limit() + 1) + ",")
    data = tmp_path / "toy8.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    code = main(["audit", "--data", str(data), "--schema", TOY8_SCHEMA, "--out",
                 str(tmp_path / "run"), "--predictions", preds, "--notion", "DP"])
    assert code == 3
    assert "toy8.csv:4: field larger than field limit" in capsys.readouterr().err
    assert "unhandled error" not in caplog.text


@pytest.mark.parametrize("notion", [
    {"kind": "CSEP", "conditional": "cat"},
    {"kind": "SEP", "effort_scope": "global"},
])
def test_segment_rows_use_the_audit_effort_split(tmp_path, notion):
    # with unit weighting the audit's summed A / B per group count exactly
    # the underprivileged low / high effort rows of the segment stats
    rng = random.Random(31)
    checked = 0
    for i in range(12):
        rows = random_rows(rng, n=40)
        table = rows_to_table(rows)
        root = tmp_path / f"t{i}"
        root.mkdir()
        config = root / "config.json"
        config.write_text(json.dumps({"notion": dict(
            notion, p=25, zeta={"kind": "unit"})}), encoding="utf-8")
        out = root / "run"
        code = main(["audit", "--config", str(config),
                     "--data", write_table_csv(root / "t.csv", table),
                     "--schema", write_schema_json(root / "t.json", table),
                     "--predictions", "ground_truth", "--out", str(out)])
        if code == 3:  # degenerate privilege cutoff on this draw
            continue
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        cells = (list(report["groups"].items()) if report["categories"] is None
                 else [(g, t) for by_group in report["categories"].values()
                       for g, t in by_group.items()])
        with (out / "stats.csv").open(encoding="utf-8", newline="") as fh:
            segments = {(r["category"], r["group"]): int(r["n"])
                        for r in csv.DictReader(fh) if r["scope"] == "segment"}
        for g in ("F", "M"):
            low = sum(t["denominators"].get("A") or 0 for s, t in cells if s == g)
            high = sum(t["denominators"].get("B") or 0 for s, t in cells if s == g)
            assert segments[("under_low", g)] == low, (i, g)
            assert segments[("under_high", g)] == high, (i, g)
        checked += 1
    assert checked >= 6


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def planted_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted")
    table = planted_dp_table(n=400, seed=7)
    data = write_table_csv(root / "planted.csv", table)
    schema = write_schema_json(root / "planted.json", table)
    return data, schema


def test_train_dp_writes_model_and_reports(planted_csv, tmp_path, capsys):
    data, schema = planted_csv
    out = tmp_path / "fit"
    cfg = {
        "train": {"max_iter": 12, "eps_train": 0.05},
        "learner": {"epochs": 150, "seed": 0},
    }
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code = main(
        [
            "train",
            "--config",
            str(cfg_path),
            "--data",
            data,
            "--schema",
            schema,
            "--out",
            str(out),
            "--notion",
            "DP",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("trained DP:")

    for name in ("model.json", "trajectory.csv", "report.json", "stats.csv"):
        assert (out / name).is_file(), name

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["notion"] == "DP"
    assert report["split"]["test_fraction"] == 0.3
    assert report["split"]["seed"] == 3
    training = report["training"]
    assert training["iterations"] <= 12
    assert isinstance(training["max_violation"], float)
    assert isinstance(training["early_stopped"], bool)

    with (out / "trajectory.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "iter",
        "member_max_violation",
        "mixture_max_violation",
        "member_error",
        "mixture_error",
        "lambda_max",
        "fit_steps",
        "fit_converged",
        "fit_loss",
    ]
    assert len(rows) == training["iterations"] + 1

    model = json.loads((out / "model.json").read_text(encoding="utf-8"))
    assert model["notion"] == {"kind": "DP", "protected": "group"}
    assert len(model["members"]) == training["iterations"]


def test_trajectory_reports_each_best_response_fit(planted_csv, tmp_path):
    data, schema = planted_csv
    out = tmp_path / "fit"
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({"train": {"max_iter": 6}, "learner": {"epochs": 3}}),
                        encoding="utf-8")
    assert main(["train", "--config", str(cfg_path), "--data", data, "--schema", schema,
                 "--out", str(out), "--notion", "DP"]) == 0
    with (out / "trajectory.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    members = json.loads((out / "model.json").read_text(encoding="utf-8"))["members"]
    assert len(rows) == len(members) >= 1
    for row, member in zip(rows, members):
        assert int(row["fit_steps"]) == member["epochs_run"]
        assert 1 <= int(row["fit_steps"]) <= 3
        assert row["fit_converged"] == str(member["converged"])
        assert float(row["fit_loss"]) == member["final_loss"]
    # a three-step cap leaves at least one fit unconverged, and the file says so
    assert "False" in {row["fit_converged"] for row in rows}


def test_trained_model_feeds_audit(planted_csv, tmp_path):
    data, schema = planted_csv
    out = tmp_path / "fit"
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(
        json.dumps({"train": {"max_iter": 12, "eps_train": 0.05}, "learner": {"epochs": 150}}),
        encoding="utf-8",
    )
    assert (
        main(
            [
                "train",
                "--config",
                str(cfg_path),
                "--data",
                data,
                "--schema",
                schema,
                "--out",
                str(out),
                "--notion",
                "DP",
            ]
        )
        == 0
    )

    audit_out = tmp_path / "check"
    code = main(
        [
            "audit",
            "--data",
            data,
            "--schema",
            schema,
            "--out",
            str(audit_out),
            "--model",
            str(out / "model.json"),
            "--notion",
            "DP",
            "--epsilon",
            "0.1",
        ]
    )
    assert code in (0, 1)
    report = json.loads((audit_out / "report.json").read_text(encoding="utf-8"))
    assert report["predictions_source"] == f"model:{out / 'model.json'}"
    # The constrained model keeps the planted disparity well under the raw
    # 0.6 gap of the generating process.
    assert report["aggregate"] < 0.3


# ---------------------------------------------------------------------------
# extract-privilege
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def privilege_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("privilege")
    table = privilege_driven_table(n=500, seed=11)
    data = write_table_csv(root / "priv.csv", table)
    schema = write_schema_json(root / "priv.json", table)
    return data, schema


def test_extract_privilege_outputs(privilege_csv, tmp_path, capsys):
    data, schema = privilege_csv
    out = tmp_path / "imp"
    code = main(
        [
            "extract-privilege",
            "--data",
            data,
            "--schema",
            schema,
            "--out",
            str(out),
            "--group",
            "M",
            "--repeats",
            "3",
            "--seed",
            "0",
        ]
    )
    assert code == 0
    assert "chosen privilege proxy:" in capsys.readouterr().out

    doc = json.loads((out / "importance.json").read_text(encoding="utf-8"))
    assert doc["chosen"] == "xp"
    with (out / "importance.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rank", "attribute", "importance", "sd", "chosen"]
    assert rows[1][1] == "xp"
    assert rows[1][4] == "True"


def test_extract_privilege_requires_group(privilege_csv, tmp_path):
    data, schema = privilege_csv
    code = main(
        ["extract-privilege", "--data", data, "--schema", schema, "--out", str(tmp_path / "x")]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# sweep-p
# ---------------------------------------------------------------------------


def test_sweep_p_range_grid(privilege_csv, tmp_path, capsys):
    data, schema = privilege_csv
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep-p",
            "--data",
            data,
            "--schema",
            schema,
            "--out",
            str(out),
            "--column",
            "xp",
            "--grid",
            "5:50",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    doc = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    assert doc["grid"] == list(range(5, 51))
    if doc["selected"] is not None:
        assert "selected p=" in printed
    else:
        assert "no p satisfies rule" in printed
    with (out / "sweep.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["p", "tau", "realized_fraction"]
    assert "ppr_F" in rows[0] and "ppr_M" in rows[0]
    assert len(rows) == 1 + len(doc["grid"])


def test_sweep_p_comma_grid(privilege_csv, tmp_path):
    data, schema = privilege_csv
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep-p",
            "--data",
            data,
            "--schema",
            schema,
            "--out",
            str(out),
            "--column",
            "xp",
            "--grid",
            "10,20,30",
            "--ratio-rule",
            "0.8",
        ]
    )
    assert code == 0
    doc = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    assert doc["grid"] == [10, 20, 30]
    assert len(doc["entries"]) == 3


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_requires_audit_artifacts(tmp_path):
    assert main(["report", "--out", str(tmp_path / "nothing")]) == 2


def test_report_renders_charts_after_csep_audit(tmp_path, capsys):
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    out = tmp_path / "run"
    main(
        audit_argv(
            out, preds, "--notion", "CSEP", "--p", "25", "--conditional", "occ"
        )
    )
    capsys.readouterr()
    code = main(["report", "--out", str(out)])
    assert code == 0
    assert "report written:" in capsys.readouterr().out

    for name in (
        "ppr_by_category.svg",
        "subgroup_panels.svg",
        "ppr_ratio_by_effort.svg",
    ):
        body = (out / name).read_text(encoding="utf-8")
        assert body.startswith("<svg "), name
        assert body.rstrip().endswith("</svg>"), name

    summary = (out / "summary.md").read_text(encoding="utf-8")
    assert summary.startswith("# CSEP report")
    assert "| group |" in summary or "| category |" in summary

    # Rendering is deterministic.
    first = {n: (out / n).read_bytes() for n in ("summary.md", "ppr_by_category.svg")}
    main(["report", "--out", str(out)])
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_report_skips_category_chart_without_categories(tmp_path, capsys):
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    out = tmp_path / "run"
    main(audit_argv(out, preds, "--notion", "DP"))
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    assert (out / "summary.md").is_file()
    assert not (out / "ppr_by_category.svg").exists()
    assert not (out / "ppr_ratio_by_effort.svg").exists()
    assert "skipped" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# manifest accumulation across commands
# ---------------------------------------------------------------------------


def test_manifest_merges_across_commands(privilege_csv, tmp_path):
    data, schema = privilege_csv
    out = tmp_path / "run"
    main(
        [
            "sweep-p",
            "--data",
            data,
            "--schema",
            schema,
            "--out",
            str(out),
            "--column",
            "xp",
            "--grid",
            "10,20",
        ]
    )
    preds_table = load_csv(data, Schema.from_json(schema))
    preds = write_predictions(
        tmp_path / "preds.csv", [float(v) for v in preds_table.target]
    )
    main(
        [
            "audit",
            "--data",
            data,
            "--schema",
            schema,
            "--out",
            str(out),
            "--predictions",
            preds,
            "--notion",
            "DP",
        ]
    )
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    names = set(manifest["entries"])
    assert {"sweep.json", "sweep.csv", "report.json", "stats.csv"} <= names
    assert manifest["entries"]["sweep.json"]["command"].startswith("fairsep sweep-p ")
    assert manifest["entries"]["report.json"]["command"].startswith("fairsep audit ")


# ---------------------------------------------------------------------------
# ingest-adult
# ---------------------------------------------------------------------------

RAW_ROWS = [
    "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, "
    "Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K",
    "50, Self-emp-not-inc, 83311, Bachelors, 13, Married-civ-spouse, "
    "Exec-managerial, Husband, White, Male, 0, 0, 13, United-States, <=50K.",
    "38, Private, 215646, HS-grad, 9, Divorced, Handlers-cleaners, "
    "Not-in-family, White, Female, 0, 0, 45, United-States, >50K.",
    "28, Private, 338409, 11th, 7, Married-civ-spouse, Prof-specialty, "
    "Wife, Black, Female, 0, 0, 40, Cuba, >50K",
]


def test_ingest_adult_normalizes_raw_files(tmp_path, capsys, caplog):
    raw = tmp_path / "adult.data"
    raw.write_text(
        "|1x3 Cross validator\n"
        + RAW_ROWS[0]
        + "\n"
        + RAW_ROWS[1]
        + "\n"
        + "garbled,row\n"
        + RAW_ROWS[2]
        + "\n\n"
        + RAW_ROWS[3]
        + "\n",
        encoding="utf-8",
    )
    out_csv = tmp_path / "adult.csv"
    with caplog.at_level(logging.WARNING):
        code = main(["ingest-adult", "--raw", str(raw), "--out", str(out_csv)])
    assert code == 0
    assert "wrote 4 rows" in capsys.readouterr().out
    assert any("malformed" in r.message for r in caplog.records)

    with out_csv.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "age",
        "workclass",
        "education-num",
        "marital-status",
        "occupation",
        "relationship",
        "race",
        "sex",
        "capital-gain",
        "capital-loss",
        "hours-per-week",
        "native-country",
        "income",
    ]
    assert len(rows) == 5
    # Trailing periods on test-file labels are stripped; fields are trimmed.
    assert [r[-1] for r in rows[1:]] == ["<=50K", "<=50K", ">50K", ">50K"]
    assert rows[1][0] == "39"
    assert rows[1][7] == "Male"
