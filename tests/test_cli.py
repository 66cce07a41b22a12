"""End-to-end tests for the command line interface.

Every test drives ``fairsep.cli.main`` in-process with a throwaway output
directory, then inspects exit codes, printed lines, and the artifact files
byte by byte.  No network, no subprocesses.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import importlib
import json
import logging
import random
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

import fairsep.cli
from fairsep.bundled import toy8_paths
from fairsep.cli import _resolve_predictions, main
from fairsep.dataset import ColumnSpec, Schema, Table, load_csv, stratified_split
from fairsep.errors import REQUIRED, ParseError, json_text
from fairsep.learner import ExpGradHP, LearnerHP, ReducedModel
from fairsep.notions import EffortWeighting, NotionConfig, cells

from conftest import rows_to_table
from oracles import brute_violation
from synth import planted_dp_table, privilege_driven_table, random_rows

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # seeded fallback below
    given = None

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
    # the one tally of (category, group) per _stats_rows
    import fairsep.cli as cli
    import fairsep.groupstats as groupstats

    masks, passes, tables = [], [], []
    real_mask, real_tally, real_stats_rows = groupstats.mask, cli.tally, cli._stats_rows

    def counted(table, pred):
        masks.append(pred)
        return real_mask(table, pred)

    def counted_tally(h, target, key, size):
        passes.append(size)
        return real_tally(h, target, key, size)

    def counted_stats_rows(table, *args):
        tables.append(table)
        return real_stats_rows(table, *args)

    monkeypatch.setattr(groupstats, "mask", counted)
    monkeypatch.setattr(cli, "subgroup_mask", counted)
    monkeypatch.setattr(cli, "tally", counted_tally)
    monkeypatch.setattr(cli, "_stats_rows", counted_stats_rows)
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    out = tmp_path / "run"
    assert main(audit_argv(out, preds, "--notion", "CDP", "--conditional", "occ")) in (0, 1)
    with (out / "stats.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    groups = [r for r in rows if r["scope"] == "group"]
    cells = [r for r in rows if r["scope"] == "category_group"]
    assert masks == [(("sex", r["group"]),) for r in groups] == [(("sex", "F"),), (("sex", "M"),)]
    assert len(tables) == 1 and passes == [len(cells)] == [4]
    assert [r["positives"] for r in groups] == ["1", "1"]


@pytest.mark.parametrize("command", [
    ["--notion", "CDP", "--conditional", "occ"],
    ["--notion", "DP"],
    ["--notion", "CSEP", "--conditional", "occ", "--p", "25"],
    ["train", "--notion", "DP"],
])
def test_each_command_thresholds_its_predictions_at_most_twice(tmp_path, monkeypatch, command):
    # once inside violation and once for every stats.csv row, not once per row
    import fairsep.cli as cli
    import fairsep.groupstats as groupstats
    import fairsep.notions as notions

    calls = []
    real = groupstats.positive_scores

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (groupstats, notions, cli):
        monkeypatch.setattr(module, "positive_scores", counted)
    out = tmp_path / "run"
    if command[0] == "train":
        argv = ["train", "--data", TOY8_DATA, "--schema", TOY8_SCHEMA, "--out", str(out),
                "--test-fraction", "0.5", *command[1:]]
    else:
        argv = audit_argv(out, write_predictions(tmp_path / "preds.csv", HPRED), *command)
    assert main(argv) in (0, 1)
    assert (out / "stats.csv").exists()
    assert 1 <= len(calls) <= 2


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


@pytest.mark.parametrize("config, flags", [
    ({}, ["--predictions", "ground_truth", "--model", "model.json"]),
    ({"predictions": "ground_truth"}, ["--model", "model.json"]),
    ({"model": "model.json"}, ["--predictions", "preds.csv"]),
])
def test_two_prediction_sources_are_a_usage_error(tmp_path, capsys, caplog, config, flags):
    # refused before any file is read: data, model and predictions do not exist
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "run"
    code = main(["audit", "--config", str(cfg_path), "--data", str(tmp_path / "absent.csv"),
                 "--schema", TOY8_SCHEMA, "--notion", "DP", "--out", str(out)] + flags)
    err = capsys.readouterr().err
    assert code == 2 and "'predictions'" in err and "'model'" in err, err
    assert "absent.csv" not in err and "unhandled error" not in caplog.text
    assert not out.exists()


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


@pytest.mark.parametrize("flag", ["--data", "--predictions", "--schema", "--config", "--model",
                                  "--out"])
def test_a_path_of_the_wrong_kind_is_a_usage_error_naming_it(tmp_path, capsys, caplog, flag):
    # a directory where a file is read, or an existing file where the output directory goes
    bad = tmp_path / "bad"
    bad.write_text("", encoding="utf-8") if flag == "--out" else bad.mkdir()
    args = {"--data": TOY8_DATA, "--schema": TOY8_SCHEMA, "--out": str(tmp_path / "run"),
            "--predictions": "ground_truth", flag: str(bad)}
    if flag == "--model":  # audit refuses predictions and a model together
        del args["--predictions"]
    code = main(["audit", "--notion", "DP"] + [v for item in args.items() for v in item])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and str(bad) in err, err
    assert "unhandled error" not in caplog.text


def test_degenerate_privilege_cutoff_is_runtime_error(tmp_path):
    # At p=5 the 5th percentile of toy8 capital is the column minimum, so no
    # group can fall strictly below it: a data problem, not a usage problem.
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    code = main(audit_argv(tmp_path / "run", preds, "--notion", "SEP", "--p", "5"))
    assert code == 3


@pytest.mark.parametrize("command", [["audit", "--notion", "EP"], ["audit", "--notion", "DP"],
                                     ["audit", "--notion", "CDP", "--conditional", "occ"],
                                     ["audit", "--notion", "SEP", "--p", "25"],
                                     ["audit", "--notion", "CSEP", "--conditional", "occ"],
                                     ["audit", "--notion", "SEP_relaxed"],
                                     ["train", "--notion", "DP"],
                                     ["sweep-p", "--grid", "30"]])
def test_a_table_with_no_rows_is_a_runtime_error(tmp_path, capsys, caplog, command):
    # every notion refuses toy8's header line alone before it divides by a count,
    # and train refuses it before its split logs warnings about the empty columns
    data = tmp_path / "empty.csv"
    data.write_text(Path(TOY8_DATA).read_text(encoding="utf-8").splitlines()[0] + "\n",
                    encoding="utf-8")
    preds = ["--predictions", "ground_truth"] if command[0] == "audit" else []
    code = main(command + preds + ["--data", str(data), "--schema", TOY8_SCHEMA,
                                   "--out", str(tmp_path / "run")])
    assert code == 3 and capsys.readouterr().err.endswith("error: empty table\n")
    assert "unhandled error" not in caplog.text and not (tmp_path / "run").exists()
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []


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
    {"seed": -1},
    {"learner": {"learning_rate": 0.5}},
    {"learner": {"seed": 3}},
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


@pytest.mark.parametrize("config, key", [
    ({"train": {"base": {"epochs": 5}}, "learner": {"epochs": 20}}, "base"),
    ({"train": {"base": {"epochs": 5}}}, "base"),
    ({"train": {"test_fraction": 0.5}, "test_fraction": 0.25}, "test_fraction"),
    ({"train": {"test_fraction": 0.5}}, "test_fraction"),
])
def test_trainer_options_have_one_spelling(tmp_path, capsys, caplog, config, key):
    """The base learner's options live in 'learner' and the held-out share in the top-level
    'test_fraction'; the train block holding either is a usage error naming the key."""
    path = tmp_path / "train.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["train", "--config", str(path), "--data", TOY8_DATA, "--schema", TOY8_SCHEMA,
                 "--notion", "DP", "--out", str(tmp_path / "run")])
    _refused(capsys, caplog, code, key)
    assert not (tmp_path / "run").exists()


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
                           (dict(ENCODER, include_protected="no"), "include_protected"),
                           (dict(ENCODER, means={"cap": "x"}), "means"),
                           (dict(ENCODER, means={}), "means"),
                           (dict(ENCODER, means={"cap": float("nan")}), "means"),
                           (dict(ENCODER, sds={"cap": "1"}), "sds"),
                           (dict(ENCODER, sds={"cap": 0.0}), "sds"),
                           (dict(ENCODER, sds={"cap": float("inf")}), "sds"),
                           (dict(ENCODER, feature_map=[["occ", "A"], ["occ", "B"]],
                                 levels={"occ": [1, 2]}), "levels"),
                           (dict(ENCODER, feature_map=[["occ", "A"], ["occ", "B"]],
                                 levels={"occ": ["B", "A"]}), "levels"),
                           (dict(ENCODER, feature_map=[["occ", "A"], ["occ", "B"]],
                                 levels={}), "levels")]],
    ({"hp": {}, "members": [dict(MEMBER, weights=[float("nan")])], "mixture_weights": [1.0]},
     "'weights'"),
    ({"hp": {}, "members": [dict(MEMBER, intercept=float("-inf"))], "mixture_weights": [1.0]},
     "'intercept'"),
])
def test_model_missing_or_mistyped_key_is_a_usage_error(tmp_path, capsys, caplog, doc, key):
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["audit", "--data", TOY8_DATA, "--schema", TOY8_SCHEMA, "--notion", "DP",
                 "--model", str(bad), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and key in err, err
    assert "unhandled error" not in caplog.text


@pytest.mark.parametrize("encoder", [
    dict(ENCODER, feature_map=[["occ", None]], means={"occ": 0.0}, sds={"occ": 1.0}),
    dict(ENCODER, feature_map=[["cap", None], ["y", None]], means={"cap": 0.0, "y": 0.0},
         sds={"cap": 1.0, "y": 1.0}),
    dict(ENCODER, feature_map=[["hours", "20"], ["hours", "40"]], levels={"hours": ["20", "40"]}),
])
def test_model_feature_map_must_name_columns_of_its_kind(tmp_path, capsys, caplog, encoder):
    # the column kinds are known only once the table is loaded
    model = tmp_path / "model.json"
    member = dict(MEMBER, weights=[0.5] * len(encoder["feature_map"]))
    model.write_text(json.dumps({"hp": {}, "members": [member], "mixture_weights": [1.0],
                                 "encoder": encoder}), encoding="utf-8")
    code = main(["audit", "--data", TOY8_DATA, "--schema", TOY8_SCHEMA, "--notion", "DP",
                 "--model", str(model), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    name = encoder["feature_map"][-1][0]
    assert code == 2 and "'feature_map'" in err and repr(name) in err, err
    assert "unhandled error" not in caplog.text


def test_model_without_an_encoder_is_a_usage_error(tmp_path, capsys, caplog):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"hp": {}, "members": [MEMBER], "mixture_weights": [1.0]}),
                     encoding="utf-8")
    code = main(["audit", "--data", TOY8_DATA, "--schema", TOY8_SCHEMA, "--notion", "DP",
                 "--model", str(model), "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"error: {model}: model carries no feature encoder" in capsys.readouterr().err
    assert "unhandled error" not in caplog.text
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("fraction, side", [("0.9", "training"), ("0.1", "test")])
def test_a_split_with_an_empty_side_is_a_runtime_error(tmp_path, capsys, caplog, fraction, side):
    # toy8's four (group, target) strata hold two rows each: 0.9 draws both of each
    # into the test split, 0.1 draws none; refused before encoding warns or a fit runs
    out = tmp_path / "run"
    code = main(["train", "--data", TOY8_DATA, "--schema", TOY8_SCHEMA, "--notion", "DP",
                 "--test-fraction", fraction, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3 and "test_fraction" in err and f"{side} split" in err, err
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert not out.exists()


@pytest.mark.parametrize("argv, config, code, words", [
    (["sweep-p"], {"column": ["cap"]}, 2, "'column'"),
    (["sweep-p", "--column", "occ"], {}, 2, "'occ' is not ordinal/numerical"),
    (["sweep-p", "--column", "sex"], {}, 2, "'sex' is not ordinal/numerical"),
    (["sweep-p", "--column", "y"], {}, 2, "'y' is not ordinal/numerical"),
    (["extract-privilege"], {"group": ["M"]}, 2, "'group'"),
    (["extract-privilege", "--group", "X"], {}, 3, "group 'X' has no rows"),
])
def test_sweep_column_and_extract_group_are_checked(tmp_path, capsys, caplog,
                                                    argv, config, code, words):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "run"
    assert main(argv + ["--config", str(cfg_path), "--data", TOY8_DATA,
                        "--schema", TOY8_SCHEMA, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and words in err, err
    assert "unhandled error" not in caplog.text
    assert not out.exists() or not any(out.iterdir())


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
    ({"kind": "DP", "groups": ["F", "F"]}, "'groups'"),
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

    def spy(path, schema, columns=None):
        table, full = load_csv(path, schema, columns), load_csv(path, schema)
        held.append([c.name for c in table.schema.columns])
        assert (table.rows, table.dropped_rows) == (full.rows, full.dropped_rows)
        for name in held[-1]:
            assert table.column(name).tolist() == full.column(name).tolist()
        return table
    monkeypatch.setattr(fairsep.cli, "load_csv", spy)
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"hp": {}, "members": [MEMBER], "mixture_weights": [1.0],
                                 "encoder": ENCODER}), encoding="utf-8")
    for argv in (audit_argv(tmp_path / "dp", "ground_truth", "--notion", "DP"),
                 audit_argv(tmp_path / "cdp", "ground_truth", "--notion", "CDP",
                            "--conditional", "occ"),
                 audit_argv(tmp_path / "sep", "ground_truth", "--notion", "SEP", "--p", "30"),
                 ["audit", "--data", TOY8_DATA, "--schema", TOY8_SCHEMA, "--notion", "DP",
                  "--model", str(model), "--out", str(tmp_path / "model")],
                 ["sweep-p", "--data", TOY8_DATA, "--schema", TOY8_SCHEMA, "--grid", "30",
                  "--out", str(tmp_path / "sweep")],
                 ["sweep-p", "--data", TOY8_DATA, "--schema", TOY8_SCHEMA, "--grid", "30",
                  "--column", "hours", "--out", str(tmp_path / "sweep-hours")]):
        assert main(argv) in (0, 1)
    everything = ["sex", "cap", "hours", "occ", "y"]
    assert held == [["sex", "y"], ["sex", "occ", "y"], ["sex", "cap", "hours", "y"],
                    everything, ["sex", "cap", "y"], ["sex", "hours", "y"]]


def test_json_artifacts_refuse_non_finite_numbers():
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            json_text({"aggregate": value})
        model = ReducedModel(members=[], mixture_weights=np.zeros(0), hp=ExpGradHP(),
                             max_violation=value)
        with pytest.raises(ValueError):
            json_text(model.to_dict())


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


@pytest.mark.parametrize("target, newline, line", [
    ("predictions", "\n", 4), ("predictions", "\r", 4), ("data", "\n", 3),
    ("data", "\r\n", 5)])
def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, caplog, target, newline, line):
    # the bad byte's physical line, from the plain reader, csv.reader and the predictions reader
    if target == "data":
        lines = Path(TOY8_DATA).read_bytes().splitlines()
        lines[line - 1] = lines[line - 1].replace(b",A,", b",\xe9,").replace(b",B,", b",\xe9,")
        path = tmp_path / "toy8.csv"
        data, preds = str(path), "ground_truth"
    else:
        lines = [b"prediction", b"0.5", b"", b"\xff0.25"] + [b"0.0"] * 5
        path = tmp_path / "preds.csv"
        data, preds = TOY8_DATA, str(path)
    path.write_bytes(newline.encode().join(lines) + newline.encode())
    code = main(["audit", "--data", data, "--schema", TOY8_SCHEMA, "--notion", "DP",
                 "--predictions", preds, "--out", str(tmp_path / "run")])
    assert code == 3
    assert f"{path.name}:{line}: not UTF-8" in capsys.readouterr().err
    assert "unhandled error" not in caplog.text


PREDICTION_LINES = ["0.5", " 0.25 ", "1", "-0.0", "1e-3", "+.5", "nan", "-NaN", " infinity ",
                    "1e400", "", " ", "\t", "\x0b", "prediction", " prediction ", "1_0",
                    "\uff11\uff12", "\u2003 0.5", "0.5\x85", "0x10", "1,5", "0.5,", "1 2", "1.5d0",
                    "abc", "#1", '"0.5"', "0.5\x00", "\ufeff0.5", "\udcff"]


def reference_predictions(path: Path) -> np.ndarray:
    """One physical line at a time, after a byte-order mark at the file's start: the first
    that is not UTF-8, or that is not blank, not ``prediction`` and not a number to
    ``float``, raises."""
    pieces = re.split(rb"\r\n|\r|\n", path.read_bytes().removeprefix(b"\xef\xbb\xbf"))
    scores = []
    for number, raw in enumerate(pieces[:-1] if pieces[-1] == b"" else pieces, 1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise ParseError(f"{path}:{number}: not UTF-8") from None
        if line and line != "prediction":
            try:
                scores.append(float(line))
            except ValueError:
                raise ParseError(f"{path}:{number}: not a number: {line!r}") from None
    return np.array(scores, np.float64)


def assert_predictions_match_reference(path: Path) -> None:
    """The predictions reader against ``float`` line by line: the same bits, or the same error."""
    def outcome(reader):
        try:
            values = reader(path)
        except ParseError as exc:
            return "ParseError", str(exc)
        return values.dtype.str, values.shape, values.tobytes()
    got = outcome(lambda p: _resolve_predictions({"predictions": str(p)}, None)[0])
    assert got == outcome(reference_predictions)


def check_predictions_reader_matches_float_per_line(seed: int) -> None:
    rng = random.Random(seed)
    newline = rng.choice(["\n", "\r\n", "\r", "mixed"])
    rare = rng.choice([0.0, 0.05, 0.5])
    lines = ["prediction"] * rng.choice([0, 1, 1, 1, 2])
    for _ in range(rng.choice([0, 1, rng.randint(2, 30)])):
        lines.append(rng.choice(PREDICTION_LINES[4:] if rng.random() < rare
                                else PREDICTION_LINES[:4]))
    ends = [rng.choice(["\n", "\r\n", "\r"]) if newline == "mixed" else newline for _ in lines]
    text = "".join(map(str.__add__, lines, ends))
    if rng.random() < 0.2:
        text = text.rstrip("\r\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "preds.csv"
        path.write_bytes(("\ufeff" if rng.random() < 0.1 else "").encode()
                         + text.encode("utf-8", "surrogateescape"))
        assert_predictions_match_reference(path)


@pytest.mark.parametrize("text", [
    "prediction\n1,5\n", "1,5\n", "prediction\n", "prediction", "", "\n\n",
    "prediction\n0.5\n \n0.25\n", "prediction\n0.5\n\n\t\n0.25",
    "prediction\nprediction\n0.5\n", "0.5\nprediction\n0.25\n", "prediction\r0.5\r0.25\r",
    "prediction\r\n0.5\r\n", "\ufeffprediction\n0.5\n", "prediction\n\ufeff0.5\n",
    "prediction\n1_0\n", "prediction\n\uff11\uff12\n", "prediction\n0.5\n\udcff\n",
    "prediction\nabc\n\udcff\n", "prediction\n0.5\n1e400\n-1e400\n"])
def test_predictions_reader_matches_float_per_line_on_edge_files(tmp_path, text):
    path = tmp_path / "preds.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))  # '\udcff' is the byte 0xff
    assert_predictions_match_reference(path)


@pytest.mark.parametrize("reader", ["plain", "csv"])
def test_a_byte_order_mark_is_not_part_of_the_first_name_or_value(tmp_path, monkeypatch,
                                                                  reader):
    # the same paths hold the plain files, then the same files after a UTF-8 BOM: the
    # data, the predictions, the schema and a config that holds the notion
    if reader == "csv":
        monkeypatch.setattr(fairsep.dataset, "_read_plain", lambda *args: None)
    data, preds = tmp_path / "toy8.csv", tmp_path / "preds.csv"
    schema, config = tmp_path / "toy8.schema.json", tmp_path / "audit.json"
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        data.write_bytes(bom + Path(TOY8_DATA).read_bytes())
        schema.write_bytes(bom + Path(TOY8_SCHEMA).read_bytes())
        config.write_bytes(bom + json.dumps({"notion": {"kind": "SEP", "p": 25}}).encode())
        for header in ("prediction\n", ""):
            preds.write_bytes(bom + (header + "\n".join(map(str, HPRED)) + "\n").encode())
            out = tmp_path / f"run{len(outputs)}"
            assert main(["audit", "--config", str(config), "--data", str(data), "--schema",
                         str(schema), "--predictions", str(preds), "--out", str(out)]) == 1
            outputs.append([(out / name).read_bytes() for name in ("report.json", "stats.csv")])
    assert outputs[1:] == outputs[:1] * 3


if given is not None:
    test_predictions_reader_matches_float_per_line = settings(
        max_examples=300, deadline=None, derandomize=True, database=None)(
        given(st.integers(0, 2**32 - 1))(check_predictions_reader_matches_float_per_line))
else:
    test_predictions_reader_matches_float_per_line = pytest.mark.parametrize(
        "seed", range(300))(check_predictions_reader_matches_float_per_line)


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


def test_segment_rows_sum_the_csep_cells_over_categories(tmp_path):
    # linear_capped weighting makes B a weight sum, so the high-effort rows are
    # counted through each cell's support: its underprivileged rows
    table = privilege_driven_table(n=600)
    data = write_table_csv(tmp_path / "t.csv", table)
    schema = write_schema_json(tmp_path / "t.json", table)
    notion = {"kind": "CSEP", "conditional": "cat", "p": 25}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"notion": notion}), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["audit", "--config", str(config), "--data", data, "--schema", schema,
                 "--predictions", "ground_truth", "--out", str(out)]) in (0, 1)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    with (out / "stats.csv").open(encoding="utf-8", newline="") as fh:
        segments = {(r["category"], r["group"]): int(r["n"])
                    for r in csv.DictReader(fh) if r["scope"] == "segment"}
    loaded = load_csv(data, Schema.from_json(schema))
    cfg = NotionConfig.from_dict(notion, loaded.schema)
    support = {}
    for cell in cells(loaded, cfg, cfg.resolve_thresholds(loaded)).cells:
        support[cell.key[1]] = support.get(cell.key[1], 0) + cell.support
    for g in ("F", "M"):
        low = sum(by_group[g]["denominators"]["A"] or 0
                  for by_group in report["categories"].values())
        assert segments[("under_low", g)] == low > 0, g
        assert segments[("under_high", g)] + low == support[g] > low, g


# ---------------------------------------------------------------------------
# contract: a run config with one leaf replaced or deleted
# ---------------------------------------------------------------------------

CONTRACT_NOTION = {"kind": "SEP", "p": 25, "epsilon": 0.05, "effort_scope": "per_group",
                   "zeta": {"kind": "linear_capped", "cap": 1.5}, "t3_literal_b": False}
CONTRACT_SCORES = [0.9, 0.2, 0.7, 0.4, 0.1, 0.6, 0.3, 0.8]
DELETE = object()


def _leaf_paths(doc, prefix=()):
    """The path of each value in a JSON document that is neither an object nor a list."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        if isinstance(value, (dict, list)):
            yield from _leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


def _with_leaf(doc: dict, path: tuple, value) -> dict:
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _oracle_aggregate(doc: dict, report: dict) -> float:
    """The brute-force aggregate of the reported notion on the table as the run loaded it."""
    table = load_csv(doc["data"], Schema.from_json(doc["schema"]))
    scores = [float(line) for line in Path(doc["predictions"]).read_text().split()[1:]]
    if doc.get("mode", "hard") == "hard":
        scores = [float(v >= doc.get("cutoff", 0.5)) for v in scores]
    rows = [{"group": g, "xp": xp, "xe": xe, "cat": a, "y": y, "h": h} for g, xp, xe, a, y, h in
            zip(table.column("sex"), table.column("cap"), table.column("hours"),
                table.column("occ"), table.target, scores)]
    zeta = doc["notion"].get("zeta", {})
    thresholds = report.get("thresholds") or {}
    return brute_violation(rows, report["notion"], p=thresholds.get("p"),
                           scope=thresholds.get("effort_scope"),
                           kind=zeta.get("kind", "linear_capped"), cap=zeta.get("cap", 2.0),
                           literal_b=doc["notion"].get("t3_literal_b", False),
                           epsilon=report["epsilon"])["aggregate"]


def test_one_changed_config_leaf_keeps_the_exit_code_contract(tmp_path, caplog):
    rng = random.Random(5)
    a_dir, a_file = tmp_path / "a_dir", tmp_path / "a_file.txt"
    a_dir.mkdir()
    a_file.write_text("prediction\n1\n", encoding="utf-8")
    base = {"data": TOY8_DATA, "schema": TOY8_SCHEMA, "mode": "expected", "cutoff": 0.5,
            "predictions": write_predictions(tmp_path / "preds.csv", CONTRACT_SCORES),
            "notion": CONTRACT_NOTION}
    probes = [(("out",), str(a_dir)), (("out",), str(a_file))]
    for path in _leaf_paths(base):
        if path[0] in ("data", "schema", "predictions"):
            probes += [(path, str(a_dir)), (path, str(a_file)), (path, TOY8_DATA)]
        wrong = rng.sample([True, 7, 2.5, "x", [1], {"a": 1}, None], 3)
        probes += [(path, v) for v in wrong + [float("nan"), "", DELETE]]
    codes, aggregates = [], set()
    for i, (path, value) in enumerate(probes):
        doc = _with_leaf(dict(base, out=str(tmp_path / f"run{i}")), path, value)
        config = tmp_path / f"config{i}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        caplog.clear()
        code = main(["audit", "--config", str(config)])
        codes.append(code)
        assert code in (0, 1, 2, 3), (path, value, code)
        assert "unhandled error" not in caplog.text, (path, value)
        if code in (0, 1):
            report = json.loads((Path(doc["out"]) / "report.json").read_text(encoding="utf-8"))
            assert code == (0 if report["pass"] else 1), (path, value)
            assert abs(report["aggregate"] - _oracle_aggregate(doc, report)) <= 1e-12, \
                (path, value)
            aggregates.add(report["aggregate"])
    # some probes run, with aggregates that tell the leaves apart; others are refused
    assert len(aggregates) >= 3 and 2 in codes


LEAF_VALUES = [True, 7, 2.5, "x", [1], {"a": 1}, None, float("nan"), "", DELETE]


def test_one_changed_schema_leaf_keeps_the_exit_code_contract(tmp_path, caplog):
    # the notion names its columns, so a run does not need the schema's tags
    schema = json.loads(Path(TOY8_SCHEMA).read_text(encoding="utf-8"))
    base = {"data": TOY8_DATA, "mode": "expected",
            "predictions": write_predictions(tmp_path / "preds.csv", CONTRACT_SCORES),
            "notion": dict(CONTRACT_NOTION, privilege_column="cap", effort_column="hours")}
    ran = 0
    for i, path in enumerate(_leaf_paths(schema)):
        for j, value in enumerate(LEAF_VALUES):
            probe = tmp_path / f"schema{i}_{j}.json"
            probe.write_text(json.dumps(_with_leaf(schema, path, value)), encoding="utf-8")
            doc = dict(base, schema=str(probe), out=str(tmp_path / f"run{i}_{j}"))
            config = tmp_path / "config.json"
            config.write_text(json.dumps(doc), encoding="utf-8")
            caplog.clear()
            code = main(["audit", "--config", str(config)])
            assert code in (0, 1, 2, 3), (path, value, code)
            assert "unhandled error" not in caplog.text, (path, value)
            if code in (0, 1):
                report = json.loads((Path(doc["out"]) / "report.json").read_text("utf-8"))
                assert abs(report["aggregate"] - _oracle_aggregate(doc, report)) <= 1e-12, \
                    (path, value)
                ran += 1
    assert ran >= 2  # deleting a tag the notion does not need


def test_one_changed_model_leaf_keeps_the_exit_code_contract(tmp_path, caplog):
    table = planted_dp_table(n=200, seed=7)
    data = write_table_csv(tmp_path / "planted.csv", table)
    schema = write_schema_json(tmp_path / "planted.json", table)
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"train": {"max_iter": 2}, "learner": {"epochs": 20}}),
                      encoding="utf-8")
    assert main(["train", "--config", str(config), "--data", data, "--schema", schema,
                 "--notion", "DP", "--out", str(tmp_path / "fit")]) == 0
    model = json.loads((tmp_path / "fit" / "model.json").read_text(encoding="utf-8"))
    codes = set()
    for i, path in enumerate(_leaf_paths(model)):
        for j, value in enumerate(LEAF_VALUES):
            probe = tmp_path / "model.json"
            probe.write_text(json.dumps(_with_leaf(model, path, value)), encoding="utf-8")
            caplog.clear()
            code = main(["audit", "--data", data, "--schema", schema, "--notion", "DP",
                         "--model", str(probe), "--out", str(tmp_path / f"run{i}_{j}")])
            assert code in (0, 1, 2, 3), (path, value, code)
            assert "unhandled error" not in caplog.text, (path, value)
            codes.add(code)
    assert {0, 2} <= codes or {1, 2} <= codes


def _refused(capsys, caplog, code: int, key: str) -> None:
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and repr(key) in err, err
    assert "unhandled error" not in caplog.text


@pytest.mark.parametrize("config, key", [
    ({"ouput": "elsewhere"}, "ouput"),
    ({"notion": {"kind": "DP", "bogus": 1}}, "bogus"),
    ({"notion": {"kind": "SEP", "p": 25, "epsilom": 0.5}}, "epsilom"),
    ({"notion": {"kind": "SEP", "p": 25, "zeta": {"kind": "unit", "caps": 3}}}, "caps"),
    ({"notion": {"kind": "SEP", "p": 25, "weighting": {"kind": "unit"}}}, "weighting"),
])
def test_unknown_config_keys_are_usage_errors_naming_them(tmp_path, monkeypatch, capsys,
                                                          caplog, config, key):
    monkeypatch.chdir(tmp_path)  # where an ignored 'out' would write
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(config, predictions="ground_truth")), encoding="utf-8")
    code = main(["audit", "--config", str(path), "--data", TOY8_DATA, "--schema", TOY8_SCHEMA])
    _refused(capsys, caplog, code, key)
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize("change, key", [
    (lambda doc: doc.update(delimeter=";"), "delimeter"),
    (lambda doc: doc["columns"][1].update(tag=["privilege"]), "tag"),
])
def test_unknown_schema_keys_are_usage_errors_naming_them(tmp_path, capsys, caplog, change, key):
    doc = json.loads(Path(TOY8_SCHEMA).read_text(encoding="utf-8"))
    change(doc)
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["audit", "--notion", "DP", "--data", TOY8_DATA, "--schema", str(schema),
                 "--predictions", "ground_truth", "--out", str(tmp_path / "run")])
    _refused(capsys, caplog, code, key)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("doc, key", [
    ({"hp": {}, "members": [MEMBER], "mixture_weights": [1.0], "encoder": ENCODER, "extra": 1},
     "extra"),
    ({"hp": {}, "members": [dict(MEMBER, bias=0.0)], "mixture_weights": [1.0],
      "encoder": ENCODER}, "bias"),
    ({"hp": {}, "members": [MEMBER], "mixture_weights": [1.0],
      "encoder": dict(ENCODER, scale=2)}, "scale"),
    *[({"hp": {}, "members": [MEMBER], "mixture_weights": [1.0], "encoder": ENCODER,
        key: value}, key)
      for key, value in [("best_iterate", "x"), ("best_iterate", None), ("max_violation", "x"),
                         ("max_violation", float("nan")), ("early_stopped", "x"),
                         ("constraints", "ab"), ("constraints", [1]), ("trajectory", 5),
                         ("notion", [1])]],
])
def test_model_unknown_or_mistyped_optional_keys_are_usage_errors(tmp_path, capsys, caplog,
                                                                  doc, key):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["audit", "--data", TOY8_DATA, "--schema", TOY8_SCHEMA, "--notion", "DP",
                 "--model", str(model), "--out", str(tmp_path / "run")])
    _refused(capsys, caplog, code, key)


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("argv", [
    ["audit", "--notion", "DP", "--predictions", "ground_truth"],
    ["train", "--notion", "DP", "--test-fraction", "0.5"],
    ["extract-privilege", "--group", "M", "--repeats", "3"],
    ["sweep-p", "--grid", "30"],
    ["report"],
])
def test_an_empty_out_is_a_usage_error(tmp_path, monkeypatch, capsys, caplog, argv, via):
    monkeypatch.chdir(tmp_path)  # Path("") is the working directory
    assert main(audit_argv(Path("."), "ground_truth", "--notion", "DP")) in (0, 1)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"out": ""}), encoding="utf-8")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    paths = [] if argv[0] == "report" else ["--data", TOY8_DATA, "--schema", TOY8_SCHEMA]
    capsys.readouterr()
    code = main(argv + paths + (["--out", ""] if via == "flag" else ["--config", str(config)]))
    _refused(capsys, caplog, code, "out")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def _declared_rows(declared: dict, owner=None, prefix: str = ""):
    """[key, kind, default] for each declared key; a bare kind takes ``owner``'s field default."""
    defaults = {f.name: f.default if f.default_factory is dataclasses.MISSING
                else f.default_factory() for f in (dataclasses.fields(owner) if owner else ())}
    for key, spec in declared.items():
        kind, default = spec if isinstance(spec, tuple) else (spec, defaults[key])
        yield [prefix + key, kind, "required" if default is REQUIRED else json.dumps(default)]


def test_readme_tables_list_every_declared_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Input documents", 1)[1].split("### Exit codes", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    expected = [
        *_declared_rows(fairsep.cli.CONFIG),
        *_declared_rows(fairsep.cli.TRAIN, ExpGradHP, "train."),
        *_declared_rows(fairsep.learner.LEARNER, LearnerHP, "learner."),
        *_declared_rows(fairsep.notions.NOTION, NotionConfig),
        *_declared_rows(fairsep.notions.ZETA, EffortWeighting, "zeta."),
        *_declared_rows(fairsep.dataset.SCHEMA, Schema),
        *_declared_rows(fairsep.dataset.COLUMN, ColumnSpec, "columns[]."),
        *_declared_rows(fairsep.learner.MODEL, ReducedModel),
        *_declared_rows(fairsep.learner.MEMBER, prefix="members[]."),
        *_declared_rows(fairsep.learner.ENCODER, prefix="encoder."),
        *_declared_rows(fairsep.cli.REPORT),
        *_declared_rows(fairsep.cli.TERMS, prefix="groups.*."),
    ]
    assert rows == expected


def test_package_exports_exactly_what_the_readme_python_api_imports():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1].split("\n## ", 1)[0]
    imports = {module: [name.strip() for name in names.split(",")]
               for module, names in re.findall(r"^from (fairsep\S*) import (.+)$", section, re.M)}
    assert sorted(fairsep.__all__) == sorted(imports.pop("fairsep"))
    for name in fairsep.__all__:
        assert getattr(fairsep, name).__module__.startswith("fairsep."), name
    for module, names in imports.items():  # the other imports of the example resolve too
        assert all(hasattr(importlib.import_module(module), name) for name in names), module


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
        "learner": {"epochs": 150},
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


def test_extract_privilege_checks_group_before_reading_data(tmp_path, capsys):
    # the missing --group is named before --data, here a file that does not exist, is read
    code = main(["extract-privilege", "--data", str(tmp_path / "absent.csv"),
                 "--schema", TOY8_SCHEMA, "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2 and "--group" in err and "absent.csv" not in err, err


@pytest.mark.parametrize("learner, code, words", [({"epochs": 0}, 2, "'epochs'"),
                                                   ({"epochs": 1}, 0, "epoch cap 1")])
def test_extract_privilege_fits_with_the_learner_block(privilege_csv, tmp_path, capsys, caplog,
                                                       learner, code, words):
    # the block is checked before --data is read: epochs 0 names 'epochs', not absent.csv
    data, schema = privilege_csv
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"learner": learner}), encoding="utf-8")
    out = tmp_path / "imp"
    got = main(["extract-privilege", "--config", str(cfg_path), "--data",
                data if code == 0 else str(tmp_path / "absent.csv"), "--schema", schema,
                "--group", "M", "--repeats", "3", "--out", str(out)])
    err = capsys.readouterr().err
    assert got == code and words in (err if code else caplog.text), (err, caplog.text)
    assert "absent.csv" not in err and (out / "importance.json").exists() == (code == 0)


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


def test_sweep_p_json_list_grid(privilege_csv, tmp_path):
    data, schema = privilege_csv
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"grid": [1, 2, 5]}), encoding="utf-8")
    out = tmp_path / "sweep"
    assert main(["sweep-p", "--config", str(cfg_path), "--data", data, "--schema", schema,
                 "--column", "xp", "--out", str(out)]) == 0
    doc = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    assert doc["grid"] == [1.0, 2.0, 5.0]
    assert [e["p"] for e in doc["entries"]] == [1.0, 2.0, 5.0]


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


def test_report_after_an_audit_of_another_notion_keeps_no_earlier_chart(tmp_path):
    # the SEP run's effort bins and segment chart must not outlive a later DP report
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    out = tmp_path / "run"
    assert main(audit_argv(out, preds, "--notion", "SEP", "--p", "25")) == 1
    assert main(["report", "--out", str(out)]) == 0
    assert (out / "subgroup_panels.svg").is_file() and (out / "ppr_ratio_by_effort.svg").is_file()
    assert main(audit_argv(out, preds, "--notion", "DP")) in (0, 1)
    assert main(["report", "--out", str(out)]) == 0
    summary = (out / "summary.md").read_text(encoding="utf-8")
    assert summary.startswith("# DP report")
    assert summary.split("## Charts\n\n", 1)[1].splitlines() == [
        "- ppr_by_category.svg skipped: no category-level stats",
        "- subgroup_panels.svg skipped: no segment stats",
        "- ppr_ratio_by_effort.svg skipped: not an SEP-family notion"]
    on_disk = {p.name for p in out.iterdir()}
    assert not on_disk & {"ppr_by_category.svg", "subgroup_panels.svg", "ppr_ratio_by_effort.svg"}
    entries = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["entries"]
    assert set(entries) == on_disk - {"manifest.json"}
    for name, entry in entries.items():
        assert entry["sha256"] == hashlib.sha256((out / name).read_bytes()).hexdigest(), name


def test_relaxed_audit_without_an_effort_column_has_no_segments_or_bins(tmp_path, capsys):
    schema = json.loads(Path(TOY8_SCHEMA).read_text(encoding="utf-8"))
    del next(c for c in schema["columns"] if c["name"] == "hours")["tags"]  # no effort column
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema), encoding="utf-8")
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    out = tmp_path / "run"
    assert main(["audit", "--data", TOY8_DATA, "--schema", str(schema_path), "--out", str(out),
                 "--predictions", preds, "--notion", "SEP_relaxed", "--p", "25"]) in (0, 1)
    with (out / "stats.csv").open(encoding="utf-8", newline="") as fh:
        scopes = {row["scope"] for row in csv.DictReader(fh)}
    assert scopes == {"overall", "group", "ratio"}
    assert (out / "effort_bins.csv").read_text(encoding="utf-8") == ",".join(
        fairsep.cli.BINS_HEADER) + "\n"
    assert main(["report", "--out", str(out)]) == 0
    summary = (out / "summary.md").read_text(encoding="utf-8")
    assert "- ppr_ratio_by_effort.svg skipped: need two groups and bins" in summary
    assert not (out / "ppr_ratio_by_effort.svg").exists()


def test_audit_of_another_notion_removes_the_earlier_effort_bins(tmp_path):
    # an SEP run's effort_bins.csv is not the DP run's: neither the directory nor the
    # manifest may keep it
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    out = tmp_path / "run"
    assert main(audit_argv(out, preds, "--notion", "SEP", "--p", "25")) == 1
    assert (out / "effort_bins.csv").is_file()
    assert main(audit_argv(out, preds, "--notion", "DP")) in (0, 1)
    entries = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["entries"]
    assert not (out / "effort_bins.csv").exists() and "effort_bins.csv" not in entries
    assert set(entries) == {p.name for p in out.iterdir()} - {"manifest.json"}


def test_main_builds_its_parser_once_per_process(tmp_path, capsys):
    # main may run many commands in one process; a usage error still exits 2 each time
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    for argv in (["audit", "--no-such-flag"], ["no-such-command"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert main(audit_argv(tmp_path / "run", preds, "--notion", "DP")) in (0, 1)
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert fairsep.cli._parser() is fairsep.cli._parser()
    assert fairsep.cli._parser.cache_info().misses == 1
    assert fairsep.cli.build_parser() is not fairsep.cli._parser()  # still a fresh parser


REPORT_TERMS = {"F": {"T1": 0.25, "T2": 0.125, "T3": 0.0, "total": 0.375, "denominators": {}},
                "M": {"T1": 0.5, "T2": 0.0, "T3": 0.0625, "total": 0.5625, "denominators": {}}}
REPORT_DOC = {"notion": "CSEP", "epsilon": 0.05, "aggregate": 0.5625, "pass": False,
              "groups": REPORT_TERMS, "categories": None, "skipped": ["c/M/T2"],
              "partial": True, "mode": "hard", "predictions_source": "ground_truth",
              "data": "data.csv"}
# group F ranks low (1/4 positive), M high (3/4); category c<&>d holds fewer positives
# than b, and its F rate is empty
REPORT_STATS = [
    ["overall", "", "", "8", "4", "", "", "", "", "0.5", "", ""],
    ["group", "", "F", "4", "1", "", "", "", "", "0.25", "", ""],
    ["group", "", "M", "4", "3", "", "", "", "", "0.75", "", ""],
    ["category_group", "b", "F", "2", "1", "", "", "", "", "0.5", "", ""],
    ["category_group", "b", "M", "2", "2", "", "", "", "", "1.0", "", ""],
    ["category_group", "c<&>d", "F", "0", "0", "", "", "", "", "", "", ""],
    ["category_group", "c<&>d", "M", "3", "1", "", "", "", "", "0.3333333333333333", "", ""],
    ["segment", "privileged", "F", "1", "1", "", "", "", "", "1.0", "", ""],
    ["segment", "under_low", "M", "2", "1", "", "", "", "", "0.6666666666666666", "", ""],
    ["ratio", "", "F/M", "", "", "", "", "", "", "0.3333333333333333", "", ""],
]
# the repeated (bin 0, privileged, M) row wins; bin 1 has an empty F rate (unprivileged)
# and a high-group rate of 0 (privileged), so neither curve has a point there
REPORT_BINS = [
    ["F", "0", "[0,1)", "0", "1", "2", "0.2"], ["M", "0", "[0,1)", "0", "1", "2", "0.4"],
    ["F", "1", "[0,1)", "0", "1", "2", "0.3"], ["M", "1", "[0,1)", "0", "1", "2", "0.6"],
    ["M", "1", "[0,1)", "0", "1", "2", "0.3"],
    ["F", "0", "[1,2)", "1", "2", "0", ""], ["M", "0", "[1,2)", "1", "2", "2", "0.5"],
    ["F", "1", "[1,2)", "1", "2", "2", "0.5"], ["M", "1", "[1,2)", "1", "2", "2", "0"],
    ["F", "0", "[2,3]", "2", "3", "2", "0.4"], ["M", "0", "[2,3]", "2", "3", "2", "0.8"],
    ["F", "1", "[2,3]", "2", "3", "2", "0.9"], ["M", "1", "[2,3]", "2", "3", "2", "0.6"],
]


def _report_dir(tmp_path: Path, stats_rows, bin_rows=None, doc=REPORT_DOC) -> Path:
    out = tmp_path / "artifacts"
    out.mkdir()
    (out / "report.json").write_text(json_text(doc), encoding="utf-8")
    with open(out / "stats.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([fairsep.cli.STATS_HEADER, *stats_rows])
    if bin_rows is not None:
        with open(out / "effort_bins.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [("group", "privileged", "bin", "lo", "hi", "n", "ppr"), *bin_rows])
    return out


def _svg_texts(svg: str, attrs: str) -> list[str]:
    """The character data of every text element whose attributes contain ``attrs``."""
    return re.findall(rf'<text [^>]*{re.escape(attrs)}[^>]*>([^<]*)</text>', svg)


def test_report_draws_the_ratio_of_low_to_high_group_rates_per_bin(tmp_path):
    out = _report_dir(tmp_path, REPORT_STATS, REPORT_BINS)
    assert main(["report", "--out", str(out)]) == 0
    svg = (out / "ppr_ratio_by_effort.svg").read_text(encoding="utf-8")
    assert _svg_texts(svg, 'text-anchor="middle" font-size="9"') == ["[0,1)", "[1,2)", "[2,3]"]
    assert _svg_texts(svg, 'font-size="11" ') == ["underprivileged F/M", "privileged F/M"]
    ymax = float(_svg_texts(svg, 'text-anchor="end"')[-1])  # the top gridline's label
    left, top, plot_w, plot_h = 60, 40, 450, 250
    curves = {}
    for cx, cy, color in re.findall(r'<circle cx="([^"]+)" cy="([^"]+)" r="3" fill="([^"]+)"/>',
                                    svg):
        bin_index = round((float(cx) - left) / (plot_w / 2))
        ratio = ymax * (top + plot_h - float(cy)) / plot_h
        curves.setdefault(color, []).append((bin_index, ratio))
    under, priv = curves.values()
    assert [b for b, _ in under] == [0, 2] and [b for b, _ in priv] == [0, 2]  # bin 1 is a gap
    assert [r for _, r in under] == pytest.approx([0.5, 0.5], abs=1e-3)
    assert [r for _, r in priv] == pytest.approx([1.0, 1.5], abs=1e-3)
    lines = re.findall(r'<polyline points="([^"]+)"', svg)
    assert [len(p.split()) for p in lines] == [2, 2]  # each curve joins its two points


def test_report_draws_escaped_category_labels_and_bar_values(tmp_path):
    out = _report_dir(tmp_path, REPORT_STATS, REPORT_BINS)
    assert main(["report", "--out", str(out)]) == 0
    bars = (out / "ppr_by_category.svg").read_text(encoding="utf-8")
    assert "c<&>d" not in bars
    # categories ascend by positives (c<&>d: 1, b: 3); the empty F rate draws no bar
    assert _svg_texts(bars, 'font-size="10" ' + fairsep.charts.FONT + ' fill="#333333"') == [
        "c&lt;&amp;&gt;d", "b"]
    assert _svg_texts(bars, 'font-size="8" ') == ["0.333", "0.5", "1"]
    assert bars.count("<rect ") == 1 + 3 + 2  # background, bars, legend
    panels = (out / "subgroup_panels.svg").read_text(encoding="utf-8")
    assert _svg_texts(panels, 'font-size="10" ') == ["privileged", "underprivileged, low effort"]
    assert _svg_texts(panels, 'font-size="8" ') == ["1", "0.667"]


def test_report_summary_lists_the_report_and_each_chart(tmp_path):
    out = _report_dir(tmp_path, REPORT_STATS, REPORT_BINS)
    assert main(["report", "--out", str(out)]) == 0
    assert (out / "summary.md").read_text(encoding="utf-8") == "\n".join([
        "# CSEP report", "", "- aggregate: 0.5625", "- epsilon: 0.05", "- pass: False",
        "- mode: hard", "- partial: true (1 skipped terms)", "", "## Groups", "",
        "| group | T1 | T2 | T3 | total |", "|---|---|---|---|---|",
        "| F | 0.250000 | 0.125000 | 0.000000 | 0.375000 |",
        "| M | 0.500000 | 0.000000 | 0.062500 | 0.562500 |", "", "## Skipped terms", "",
        "- c/M/T2", "", "## Charts", "", "- ppr_by_category.svg", "- subgroup_panels.svg",
        "- ppr_ratio_by_effort.svg", ""])


@pytest.mark.parametrize("stats_rows, bin_rows, notes", [
    (REPORT_STATS[:3], None, ["ppr_by_category.svg skipped: no category-level stats",
                              "subgroup_panels.svg skipped: no segment stats",
                              "ppr_ratio_by_effort.svg skipped: no effort_bins.csv"]),
    (REPORT_STATS[:2] + REPORT_STATS[3:], REPORT_BINS,
     ["ppr_ratio_by_effort.svg skipped: need two groups and bins"]),
    (REPORT_STATS, [], ["ppr_ratio_by_effort.svg skipped: need two groups and bins"]),
], ids=["groups-only", "one-group", "no-bins"])
def test_report_summary_notes_each_skipped_chart(tmp_path, capsys, stats_rows, bin_rows, notes):
    out = _report_dir(tmp_path, stats_rows, bin_rows)
    assert main(["report", "--out", str(out)]) == 0
    summary = (out / "summary.md").read_text(encoding="utf-8")
    listed = summary.split("## Charts\n\n", 1)[1].splitlines()
    assert listed[len(listed) - len(notes):] == [f"- {note}" for note in notes]
    for note in notes:
        assert not (out / note.split()[0]).exists()
    assert capsys.readouterr().out.strip() == (
        f"report written: {len(listed) - len(notes) + 1} file(s), {len(notes)} chart(s) skipped")


@pytest.mark.parametrize("change, key", [
    (lambda doc: doc["groups"]["F"].update(T1="x"), "T1"),
    (lambda doc: doc["groups"]["M"].pop("total"), "total"),
    (lambda doc: doc["groups"].update(F="x"), "groups"),
    (lambda doc: doc.update(notion=5), "notion"),
    (lambda doc: doc.pop("aggregate"), "aggregate"),
    (lambda doc: doc.update(aggregates=0.5), "aggregates"),
], ids=["T1", "no-total", "group", "notion", "no-aggregate", "unknown"])
def test_report_json_that_breaks_its_declaration_is_a_usage_error(tmp_path, capsys, caplog,
                                                                  change, key):
    doc = json.loads(json.dumps(REPORT_DOC))
    change(doc)
    out = _report_dir(tmp_path, REPORT_STATS, REPORT_BINS, doc)
    _refused(capsys, caplog, main(["report", "--out", str(out)]), key)
    assert not (out / "summary.md").exists()


@pytest.mark.parametrize("name, line, change", [
    ("stats.csv", 3, lambda text: text.replace(b"group,,F,4,", b"group,,F,abc,")),
    ("stats.csv", 5, lambda text: text.replace(b"b,F,2,1,,,,,0.5", b"b,F,2,1,,,,,nan")),
    ("stats.csv", 4, lambda text: text.replace(b"group,,M,4,3,,,,,0.75,,", b"group,,M")),
    ("stats.csv", 1, lambda text: text.replace(b",ppr,", b",rate,")),
    ("stats.csv", 6, lambda text: text.replace(b"b,M", b"b\xff,M")),
    ("effort_bins.csv", 2, lambda text: text.replace(b"0.2", b"abc")),
    ("effort_bins.csv", 1, lambda text: text.replace(b"privileged", b"priv")),
    ("effort_bins.csv", 3, lambda text: text.replace(b"0.4", b"\xe9", 1)),
], ids=["n", "nan", "short", "no-ppr", "utf8", "bins-ppr", "bins-no-privileged", "bins-utf8"])
def test_report_names_the_line_of_a_malformed_artifact_csv(tmp_path, capsys, caplog,
                                                           name, line, change):
    """A missing column, a short record, a value that is not a number of its kind or a
    byte that is not UTF-8 in stats.csv or effort_bins.csv is a runtime error (exit 3)."""
    out = _report_dir(tmp_path, REPORT_STATS, REPORT_BINS)
    (out / name).write_bytes(change((out / name).read_bytes()))
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {out / name}:{line}: ")
    assert "unhandled error" not in caplog.text
    assert not (out / "summary.md").exists()


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


def files_of(out: Path) -> dict:
    """Each file's bytes; first asserting that the manifest lists exactly the other
    files, each with the sha256 of its bytes."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    entries = json.loads(files.pop("manifest.json"))["entries"]
    assert {name: e["sha256"] for name, e in entries.items()} == {
        name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    return files


def test_a_failed_train_leaves_the_directory_as_it_was(tmp_path, capsys):
    # xp = 1 on four rows of each side of train's split: 2.9% of the 140 training rows
    # but 6.7% of the 60 held-out ones, so the held-out audit finds no 5% cutoff
    rng = random.Random(3)
    n = 200
    schema = Schema.from_dict({"columns": [
        {"name": "group", "kind": "protected"},
        {"name": "xp", "kind": "numerical", "tags": ["privilege"]},
        {"name": "xe", "kind": "numerical", "tags": ["effort"]},
        {"name": "y", "kind": "target"}]})
    cols = {"group": np.array([("F", "M")[i % 2] for i in range(n)], dtype=object),
            "xp": np.zeros(n), "xe": np.array([float(rng.randint(20, 60)) for _ in range(n)]),
            "y": np.array([int(rng.random() < 0.4) for _ in range(n)], dtype=np.int64)}
    train, test = stratified_split(Table(schema, cols), 0.3, 42)
    xp = np.zeros(n)
    xp[np.flatnonzero(train)[:4]] = xp[np.flatnonzero(test)[:4]] = 1.0
    table = Table(schema, dict(cols, xp=xp))
    argv = ["train", "--data", write_table_csv(tmp_path / "data.csv", table),
            "--schema", write_schema_json(tmp_path / "schema.json", table),
            "--out", str(tmp_path / "run")]
    assert main(argv + ["--notion", "DP"]) == 0
    before = files_of(tmp_path / "run")
    assert main(argv + ["--notion", "SEP"]) == 3
    assert "no observed cutoff reaches a top fraction <= 5.0%" in capsys.readouterr().err
    assert files_of(tmp_path / "run") == before


def test_audit_removes_an_earlier_reports_outputs(tmp_path):
    # the SEP report's summary and charts do not describe the DP audit that follows
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    out = tmp_path / "run"
    assert main(audit_argv(out, preds, "--notion", "SEP", "--p", "25")) == 1
    assert main(["report", "--out", str(out)]) == 0
    assert {"summary.md", "subgroup_panels.svg", "ppr_ratio_by_effort.svg"} <= set(files_of(out))
    assert main(audit_argv(out, preds, "--notion", "DP")) in (0, 1)
    assert set(files_of(out)) == {"report.json", "stats.csv"}


@pytest.mark.parametrize("entries", [[1], 1])
def test_a_malformed_manifest_exits_2_before_any_write(tmp_path, capsys, caplog, entries):
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    out = tmp_path / "run"
    main(audit_argv(out, preds, "--notion", "DP"))
    (out / "manifest.json").write_text(json.dumps({"entries": entries}), encoding="utf-8")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(audit_argv(out, preds, "--notion", "SEP", "--p", "25")) == 2
    assert (f"{out / 'manifest.json'}: manifest key 'entries' must be an object of objects"
            in capsys.readouterr().err)
    assert "unhandled error" not in caplog.text
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def tree_of(out: Path) -> dict:
    """Every path under ``out``, dotfiles included: a file's bytes, or None for a directory."""
    return {p.relative_to(out): p.read_bytes() if p.is_file() else None for p in out.rglob("*")}


def test_a_directory_named_as_an_output_exits_2_before_any_write(tmp_path, capsys, caplog):
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    out = tmp_path / "run"
    assert main(audit_argv(out, preds, "--notion", "DP")) in (0, 1)
    (out / "stats.csv").unlink()
    (out / "stats.csv").mkdir()
    before = tree_of(out)
    capsys.readouterr()
    assert main(audit_argv(out, preds, "--notion", "SEP", "--p", "25")) == 2
    assert f"{out / 'stats.csv'}: is a directory" in capsys.readouterr().err
    assert "unhandled error" not in caplog.text
    assert tree_of(out) == before


def test_a_failed_write_leaves_the_directory_as_it_was(tmp_path, capsys, monkeypatch):
    preds = write_predictions(tmp_path / "preds.csv", HPRED)
    out = tmp_path / "run"
    assert main(audit_argv(out, preds, "--notion", "DP")) in (0, 1)
    before = tree_of(out)
    write_bytes, calls = Path.write_bytes, []

    def second_write_fails(path, data):
        calls.append(path)
        if len(calls) == 2:
            raise OSError(28, "No space left on device", str(path))
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", second_write_fails)
    capsys.readouterr()
    assert main(audit_argv(out, preds, "--notion", "SEP", "--p", "25")) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert len(calls) == 2
    assert tree_of(out) == before  # no temporary file either


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


INGESTED_TWO_ROWS = (
    "age,workclass,education-num,marital-status,occupation,relationship,race,sex,"
    "capital-gain,capital-loss,hours-per-week,native-country,income\n"
    "50,Self-emp-not-inc,13,Married-civ-spouse,Exec-managerial,Husband,White,Male,"
    "0,0,13,United-States,<=50K\n"
    "38,Private,9,Divorced,Handlers-cleaners,Not-in-family,White,Female,"
    "0,0,45,United-States,>50K\n")


@pytest.mark.parametrize("fault", ["not UTF-8", "missing"])
def test_ingest_adult_reads_every_raw_file_before_it_writes(tmp_path, capsys, caplog, fault):
    good, bad, out_csv = tmp_path / "good.data", tmp_path / "bad.data", tmp_path / "adult.csv"
    good.write_text(RAW_ROWS[1] + "\n" + RAW_ROWS[2] + "\n", encoding="utf-8")
    assert main(["ingest-adult", "--raw", str(good), "--out", str(out_csv)]) == 0
    assert out_csv.read_bytes() == INGESTED_TWO_ROWS.encode("utf-8")
    if fault == "not UTF-8":
        bad.write_bytes(RAW_ROWS[0].encode("utf-8") + b"\n\xff\xfe, Private\n")
    capsys.readouterr()
    code = main(["ingest-adult", "--raw", str(bad), "--raw", str(good), "--out", str(out_csv)])
    err = capsys.readouterr().err
    if fault == "not UTF-8":
        assert code == 3 and f"{bad}:2: not UTF-8" in err, err
    else:
        assert code == 2 and str(bad) in err, err
    assert "unhandled error" not in caplog.text
    assert out_csv.read_bytes() == INGESTED_TWO_ROWS.encode("utf-8")
