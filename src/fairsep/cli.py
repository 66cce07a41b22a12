"""Command-line pipeline: audit, train, extract-privilege, sweep-p, report.

One JSON config file plus flag overrides (flags win) fully determines a run;
identical config, inputs, and seed reproduce byte-identical outputs.  Every
command builds all of its artifacts first, then ``_emit`` writes them to the
output directory and records them in a manifest (path, content hash,
producing command), so a failed command leaves the directory as it was.

Exit codes: 0 success, 1 audit aggregate above epsilon, 2 usage or config
error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import functools
import hashlib
import io
import itertools
import logging
import shlex
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import charts
from .dataset import (Schema, Table, effort_threshold, encode_features, load_csv,
                      stratified_split)
from .errors import (P_GRID, REQUIRED, ConfigError, FairsepError, ParseError, SchemaError,
                     checked, json_text, read_json, utf8_lines)
from .groupstats import mask as subgroup_mask, positive_scores, stats, tally
from .learner import EXPGRAD, ExpGradHP, LearnerHP, exponentiated_gradient, load_model
from .notions import SEGMENTS, SEP_FAMILY, NotionConfig, segment_codes, violation
from .privilege import extract_privilege_attribute, select_p

log = logging.getLogger(__name__)

STATS_HEADER = ("scope", "category", "group", "n", "positives",
                "tp", "fp", "tn", "fn", "ppr", "tpr", "fpr")
BINS_HEADER = ("group", "privileged", "bin", "lo", "hi", "n", "ppr")
BIN_COUNT = 5
TRAJECTORY_HEADER = ("iter", "member_max_violation", "mixture_max_violation", "member_error",
                     "mixture_error", "lambda_max", "fit_steps", "fit_converged", "fit_loss")
# Every top-level key of a run config: its kind and its default.  One config
# file serves every command, so a key that any command reads is known to all.
CONFIG = {
    "data": ("a non-empty string", None), "schema": ("a non-empty string", None),
    "predictions": ("a non-empty string", None), "model": ("a non-empty string", None),
    "out": ("a non-empty string", "."), "seed": ("an integer >= 0", 42),
    "mode": ("a string", "hard"), "cutoff": ("a number", 0.5),
    "test_fraction": ("a number", 0.3), "group": ("a string", None),
    "repeats": ("an integer", 10), "ratio_rule": ("a number", 0.8),
    "column": ("a string", None), "advantaged": ("a string", None), "grid": (P_GRID, None),
    "notion": ("an object", None), "train": ("an object", None), "learner": ("an object", None),
}
# the train block: the trainer's options but the base learner's, which the top-level
# 'learner' block holds, plus one that only the train command reads
TRAIN = dict({k: v for k, v in EXPGRAD.items() if k != "base"},
             include_protected=("a boolean", False))
# Every key of report.json that audit or train writes, and of each 'groups' entry.
REPORT = {"notion": ("a string", REQUIRED), "epsilon": ("a finite number", REQUIRED),
          "aggregate": ("a finite number", REQUIRED), "pass": ("a boolean", REQUIRED),
          "groups": ("an object of objects", REQUIRED), "categories": ("an object", None),
          "weighted_mean": ("a finite number", None), "skipped": ("a list of strings", REQUIRED),
          "partial": ("a boolean", REQUIRED), "mode": ("a string", REQUIRED),
          "thresholds": ("an object", None), "predictions_source": ("a string", REQUIRED),
          "data": ("a string", None), "split": ("an object", None),
          "training": ("an object", None)}
TERMS = {"T1": ("a finite number", REQUIRED), "T2": ("a finite number", REQUIRED),
         "T3": ("a finite number", REQUIRED), "total": ("a finite number", REQUIRED),
         "denominators": ("an object", REQUIRED)}
MANIFEST = {"entries": ("an object of objects", {})}


# ---------------------------------------------------------------------------
# the output directory
# ---------------------------------------------------------------------------

def _csv_text(header, rows) -> str:
    """The CSV of ``rows`` under ``header``: None as an empty cell, a float as its repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(args, cfg: dict, files: dict) -> None:
    """Write a command's ``files`` to ``--out`` and record them in its manifest.

    ``files`` maps each name the command owns to its content: a dict is written
    as JSON, a (header, rows) pair as CSV and a str as text; None deletes an
    earlier run's copy.  Before any write, the manifest is checked and no name may
    be a directory.  All files and the manifest go to ``.<name>.tmp`` first (all
    deleted if one write fails), then are renamed into place.  Each entry holds
    the sha256 of the bytes written; the manifest names only files on disk.
    """
    out_dir = Path(cfg["out"])
    path = out_dir / "manifest.json"
    doc = read_json(path, "manifest") if path.exists() else {}
    entries = checked(doc, MANIFEST, f"{path}: manifest key")["entries"]
    entries = {name: e for name, e in entries.items() if (out_dir / name).exists()}
    if dirs := [name for name in files if (out_dir / name).is_dir()]:
        raise IsADirectoryError(f"{out_dir / dirs[0]}: is a directory")
    command = "fairsep " + shlex.join(args._argv)
    blobs = {}
    for name, content in files.items():
        if content is None:
            entries.pop(name, None)
            continue
        if isinstance(content, dict):
            content = json_text(content)
        elif not isinstance(content, str):
            content = _csv_text(*content)
        blobs[name] = content.encode("utf-8")
        entries[name] = {"sha256": hashlib.sha256(blobs[name]).hexdigest(), "command": command}
    blobs["manifest.json"] = json_text({"entries": entries}).encode("utf-8")
    out_dir.mkdir(parents=True, exist_ok=True)
    temps = []
    try:
        for name, data in blobs.items():
            temps.append(out_dir / f".{name}.tmp")
            temps[-1].write_bytes(data)
    except OSError:
        for temp in temps:
            if temp.is_file():
                temp.unlink()
        raise
    for name, temp in zip(blobs, temps):
        temp.replace(out_dir / name)
    for name in files.keys() - blobs.keys():
        (out_dir / name).unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _merged_config(args) -> dict:
    """The run config with the flags on top (flags win), every top-level key checked."""
    doc = read_json(args.config, "config") if getattr(args, "config", None) else {}
    for key in CONFIG:
        if key != "notion" and getattr(args, key, None) is not None:  # --notion is its kind
            doc[key] = getattr(args, key)
    cfg = checked(doc, CONFIG, "config key")
    notion = cfg["notion"] = dict(cfg["notion"] or {})
    for key, flag in (("kind", "notion"), ("p", "p"), ("epsilon", "epsilon"),
                      ("conditional", "conditional")):
        if getattr(args, flag, None) not in (None, ""):
            notion[key] = getattr(args, flag)
    return cfg


def _fraction(key: str, value: float) -> float:
    if not 0 < value < 1:
        raise ConfigError(f"config key {key!r} must lie in (0, 1), got {value}")
    return value


def _run_options(cfg: dict) -> tuple[str, float]:
    """The decision mode and the hard-decision cutoff, checked."""
    if cfg["mode"] not in ("hard", "expected"):
        raise ConfigError(f"config key 'mode' must be 'hard' or 'expected', got {cfg['mode']!r}")
    return cfg["mode"], _fraction("cutoff", cfg["cutoff"])


def _schema(cfg: dict) -> Schema:
    for key in ("data", "schema"):
        if cfg[key] is None:
            raise ConfigError(f"missing required input: --{key} (or config '{key}')")
    return Schema.from_json(cfg["schema"])


def _notion_columns(schema, ncfg: NotionConfig) -> set:
    """The columns besides the target that an audit of ``ncfg``, or its constraints, read."""
    return {schema.protected.name, ncfg.protected, ncfg.conditional} | (
        {ncfg.privilege_column, ncfg.effort_column} if ncfg.kind in SEP_FAMILY else set())


def _check_groups(ncfg: NotionConfig, table: Table) -> None:
    unknown = sorted(set(ncfg.groups or ()) - set(table.levels(ncfg.protected)))
    if unknown:
        raise ConfigError(f"notion 'groups' names no level of {ncfg.protected!r}: {unknown}")


def _resolve_predictions(cfg: dict, table: Table) -> tuple[np.ndarray, str]:
    """The scores to audit and their source.  A predictions file's lines, blank and
    ``prediction`` ones skipped, go through numpy's C reader, which takes a subset of
    what ``float`` takes; unless it reads one column without error or warning, the
    exact fallback reads each line with ``float`` and names the first bad one.  A
    UTF-8 byte-order mark at the start of the file is not part of its first line."""
    spec = cfg["predictions"]
    if spec == "ground_truth":
        return table.target.astype(np.float64), "ground_truth"
    if spec:
        with open(spec, "rb") as fh:
            header = fh.readline().removeprefix(codecs.BOM_UTF8).strip() == b"prediction"
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = np.loadtxt(spec, np.float64, delimiter=",", comments=None,
                                    encoding="utf-8-sig", ndmin=2, skiprows=int(header))
            if values.shape[1] == 1:
                return values[:, 0], f"file:{spec}"
        except (ValueError, Warning):
            pass
        scores = []
        for number, line in utf8_lines(spec):
            line = (line.removeprefix("\ufeff") if number == 1 else line).strip()
            if line and line != "prediction":
                try:
                    scores.append(float(line))
                except ValueError:
                    raise ParseError(f"{spec}:{number}: not a number: {line!r}") from None
        return np.array(scores, np.float64), f"file:{spec}"
    if cfg["model"]:
        model = load_model(cfg["model"])
        if model.encoder is None:
            raise ConfigError(f"{cfg['model']}: model carries no feature encoder")
        X = model.encoder.transform(table)
        return model.predict_scores(X), f"model:{cfg['model']}"
    raise ConfigError("audit needs 'predictions' (ground_truth or a CSV path) "
                      "or a 'model' path")


# ---------------------------------------------------------------------------
# stats tables
# ---------------------------------------------------------------------------

def _stats_rows(table: Table, h: np.ndarray, ncfg: NotionConfig) -> list[list]:
    y, names = table.target, table.levels(ncfg.protected)
    rows = [["overall", "", "", *stats(h, y)]]
    groups = {g: stats(h, y, subgroup_mask(table, ((ncfg.protected, g),))) for g in names}
    rows += [["group", "", g, *frame] for g, frame in groups.items()]
    if ncfg.conditional:
        categories = table.levels(ncfg.conditional)
        key = table.codes(ncfg.conditional) * len(names) + table.codes(ncfg.protected)
        rows += [["category_group", a, g, *frame] for (a, g), frame in zip(
            itertools.product(categories, names), tally(h, y, key, len(categories) * len(names)))]
    for g1, g2 in itertools.permutations(names, 2):
        ppr1, ppr2 = groups[g1].ppr, groups[g2].ppr
        ratio = ppr1 / ppr2 if ppr1 is not None and ppr2 else None
        rows.append(["ratio", "", f"{g1}/{g2}", None, None, None, None,
                     None, None, ratio, None, None])
    return rows


def _sep_extra_rows(table: Table, h: np.ndarray, ncfg: NotionConfig, thresholds):
    """Descriptive privileged/effort segment stats + equal-width effort bins.

    Segments are the ``tally`` of (group, segment), the audit's ``segment_codes``
    summed over categories; SEP_relaxed splits at the per-group mean effort.  Bins
    are the tally of (bin, group, privileged); the last is closed at the maximum effort.
    """
    if ncfg.effort_column is None:
        return [], []
    names = table.levels(ncfg.protected)
    if ncfg.kind == "SEP_relaxed":
        thresholds = replace(effort_threshold(table, "per_group", ncfg.effort_column),
                             privilege_cutoff=thresholds.privilege_cutoff)
    code = segment_codes(table, ncfg, thresholds)[0] % (3 * len(names))  # group * 3 + segment
    segments = [["segment", name, g, f.n, f.positives, None, None, None, None, f.ppr, None, None]
                for (g, name), f in zip(itertools.product(names, SEGMENTS),
                                        tally(h, table.target, code, 3 * len(names)))]
    xe = table.column(ncfg.effort_column)
    lo, hi = float(np.min(xe)), float(np.max(xe))
    span = (hi - lo) or 1.0
    edges = [lo + span * i / BIN_COUNT for i in range(BIN_COUNT)] + [hi if hi > lo else lo + 1.0]
    in_bin = np.searchsorted(edges[1:-1], xe, side="right")
    frames = tally(h, table.target, (in_bin * len(names) + code // 3) * 2 + (code % 3 > 0),
                   2 * BIN_COUNT * len(names))
    bins = []
    for (b, g, flag), f in zip(itertools.product(range(BIN_COUNT), names, (1, 0)), frames):
        label = f"[{edges[b]:g},{edges[b + 1]:g}{')' if b < BIN_COUNT - 1 else ']'}"
        bins.append([g, flag, label, edges[b], edges[b + 1], f.n, f.ppr])
    return segments, bins


def _audit(table: Table, predictions, ncfg: NotionConfig, mode: str, cutoff: float,
           **about) -> tuple:
    """The audit report of ``predictions`` and its files: report.json (with ``about``),
    stats.csv and, for the SEP family only, effort_bins.csv.  What report writes is
    mapped to None, since it was drawn from an earlier run."""
    report = violation(table, predictions, ncfg, mode=mode, cutoff=cutoff)
    h = positive_scores(predictions, table, mode, cutoff)
    rows, bins = _stats_rows(table, h, ncfg), None
    if ncfg.kind in SEP_FAMILY:
        segments, bin_rows = _sep_extra_rows(table, h, ncfg, report.thresholds)
        rows, bins = rows + segments, (BINS_HEADER, bin_rows)
    return report, {"report.json": dict(report.to_dict(), **about),
                    "stats.csv": (STATS_HEADER, rows), "effort_bins.csv": bins,
                    "ppr_by_category.svg": None, "subgroup_panels.svg": None,
                    "ppr_ratio_by_effort.svg": None, "summary.md": None}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_audit(args) -> int:
    cfg = _merged_config(args)
    if cfg["predictions"] and cfg["model"]:
        raise ConfigError("config keys 'predictions' and 'model' are both set; give one")
    mode, cutoff = _run_options(cfg)
    schema = _schema(cfg)
    ncfg = NotionConfig.from_dict(cfg["notion"], schema)
    # scores from a file or the target need only the notion's columns; a model needs all
    table = load_csv(cfg["data"], schema,
                     _notion_columns(schema, ncfg) if cfg["predictions"] else None)
    _check_groups(ncfg, table)
    predictions, source = _resolve_predictions(cfg, table)
    report, files = _audit(table, predictions, ncfg, mode, cutoff,
                           predictions_source=source, data=cfg["data"])
    _emit(args, cfg, files)
    print(f"{ncfg.kind} aggregate={report.aggregate:.6f} epsilon={report.epsilon} "
          f"pass={report.passed}" + (" (partial)" if report.partial else ""))
    return 0 if report.passed else 1


def cmd_train(args) -> int:
    cfg = _merged_config(args)
    mode, cutoff = _run_options(cfg)
    train = checked(cfg["train"] or {}, TRAIN, "training option")
    include_protected = train.pop("include_protected")
    test_fraction = _fraction("test_fraction", cfg["test_fraction"])
    hp = ExpGradHP.from_dict(dict(train, base=cfg["learner"]))
    schema = _schema(cfg)
    ncfg = NotionConfig.from_dict(cfg["notion"], schema)
    table = load_csv(cfg["data"], schema)
    _check_groups(ncfg, table)
    seed = cfg["seed"]

    train_mask, test_mask = stratified_split(table, test_fraction, seed)
    for side, rows in (("training", train_mask), ("test", test_mask)):
        if not rows.any():
            raise FairsepError(f"test_fraction {test_fraction} leaves the {side} split empty")
    train_table, test_table = table.take(train_mask), table.take(test_mask)
    del table  # the fits read only the split tables
    X_train, encoder = encode_features(train_table,
                                       include_protected=include_protected)
    train_table = train_table.project(_notion_columns(schema, ncfg))  # what the constraints read
    model = exponentiated_gradient(train_table, ncfg, hp,
                                   features=X_train, encoder=encoder)
    traj_rows = [[t["iter"], t["member_max_violation"], t["mixture_max_violation"],
                  t["member_error"], t["mixture_error"],
                  max(t["lambda"]) if t["lambda"] else 0.0,
                  member.epochs_run, member.converged, member.final_loss]
                 for t, member in zip(model.trajectory, model.members)]

    scores = model.predict_scores(encoder.transform(test_table))
    report, files = _audit(
        test_table, scores, ncfg, mode, cutoff, predictions_source="model:model.json",
        split={"test_fraction": test_fraction, "seed": seed,
               "train_rows": int(train_mask.sum()), "test_rows": int(test_mask.sum())},
        training={"max_violation": model.max_violation, "best_iterate": model.best_iterate,
                  "iterations": len(model.members), "early_stopped": model.early_stopped})
    files["model.json"], files["trajectory.csv"] = model.to_dict(), (TRAJECTORY_HEADER, traj_rows)
    _emit(args, cfg, files)
    flag = " EARLY-STOP" if model.early_stopped else ""
    print(f"trained {ncfg.kind}: iters={len(model.members)} "
          f"train_violation={model.max_violation:.6f} "
          f"heldout_aggregate={report.aggregate:.6f}{flag}")
    return 0


def cmd_extract_privilege(args) -> int:
    cfg = _merged_config(args)
    if not cfg["group"]:
        raise ConfigError("extract-privilege needs --group")
    hp = LearnerHP.from_dict(cfg["learner"] or {})
    # no name holds the table, so that extraction can drop it before its fit
    result = extract_privilege_attribute(load_csv(cfg["data"], _schema(cfg)), cfg["group"],
                                         hp, repeats=cfg["repeats"], seed=cfg["seed"])
    rows = [[i + 1, r["attribute"], r["importance"], r["sd"],
             r["attribute"] == result.chosen]
            for i, r in enumerate(result.rows)]
    _emit(args, cfg, {"importance.json": result.to_dict(), "importance.csv": (
        ("rank", "attribute", "importance", "sd", "chosen"), rows)})
    flag = " (tie broken)" if result.tie_flagged else ""
    print(f"chosen privilege proxy: {result.chosen}{flag}")
    return 0


def cmd_sweep_p(args) -> int:
    cfg = _merged_config(args)
    schema = _schema(cfg)
    column = cfg["column"] or getattr(schema.tagged("privilege"), "name", None)
    table = load_csv(cfg["data"], schema, {schema.protected and schema.protected.name, column})
    result = select_p(table, column=cfg["column"], grid=cfg["grid"],
                      ratio_rule=cfg["ratio_rule"], advantaged=cfg["advantaged"])
    names = table.levels(table.schema.protected.name)
    header = ["p", "tau", "realized_fraction"] + [f"ppr_{g}" for g in names] + \
             ["ratio", "defined", "note"]
    rows = [[e["p"], e["tau"], e["realized_fraction"]] + [e["ppr"].get(g) for g in names]
            + [e["ratio"], e["defined"], e["note"]] for e in result.entries]
    _emit(args, cfg, {"sweep.json": result.to_dict(), "sweep.csv": (header, rows)})
    if result.selected is not None:
        print(f"selected p={result.selected:g} "
              f"(satisfying: {[f'{v:g}' for v in result.satisfying]})")
    else:
        print("no p satisfies rule")
    return 0


def _finite(text: str) -> float:
    if not np.isfinite(value := float(text)):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# The columns report reads, each with its reader; an empty number is None.
STATS_COLUMNS = {"scope": str, "category": str, "group": str, "n": int, "positives": int,
                 "ppr": _finite}
BINS_COLUMNS = {"group": str, "privileged": str, "bin": str, "ppr": _finite}


def _read_artifact(path: Path, columns: dict) -> list[dict]:
    """The ``columns`` of each record of a CSV that audit or train wrote.  A missing
    column, a record not as wide as the header, a value its reader refuses or bytes
    that are not UTF-8 raise ``ParseError`` naming the line."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if missing := [key for key in columns if key not in header]:
                raise ValueError(f"missing column(s) {missing}")
            for record in filter(None, reader):  # a blank line holds no record
                if len(record) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(record)}")
                cells = dict(zip(header, record))
                rows.append({key: read(cells[key]) if cells[key] or read is str else None
                             for key, read in columns.items()})
        except UnicodeDecodeError:
            for _ in utf8_lines(path):  # raises, naming the line of the first bad byte
                pass
            raise
        except (ValueError, csv.Error) as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    return rows


def _category_chart(rows: list[dict], notion: str) -> str:
    """Each group's rate per category; categories ascend by their positives."""
    positives: dict[str, int] = {}
    for r in rows:
        positives[r["category"]] = positives.get(r["category"], 0) + (r["positives"] or 0)
    series = [(g, {r["category"]: r["ppr"] for r in rows if r["group"] == g})
              for g in sorted({r["group"] for r in rows})]
    return charts.grouped_bars_by_category(
        sorted(positives, key=lambda c: (positives[c], c)), series,
        title=f"positive rate by {notion} category and group")


def _segment_chart(rows: list[dict]) -> str:
    """One panel per segment that has rows: each group's rate in it."""
    titles = {"privileged": "privileged", "under_high": "underprivileged, high effort",
              "under_low": "underprivileged, low effort"}
    panels = [(titles[seg], values) for seg in SEGMENTS
              if (values := {r["group"]: r["ppr"] for r in rows if r["category"] == seg})]
    return charts.subgroup_panels(panels, sorted({r["group"] for r in rows}),
                                  title="positive rate by privilege/effort segment")


def _ratio_chart(bins: list[dict], low: str, high: str) -> str:
    """Per privileged flag, the ``low`` over the ``high`` group's rate in each bin, None
    where either is empty or the high one is 0; a repeated row replaces the earlier."""
    ppr = {(r["bin"], r["privileged"], r["group"]): r["ppr"] for r in bins
           if r["ppr"] is not None}
    labels = list(dict.fromkeys(r["bin"] for r in bins))
    curves = [(f"{name} {low}/{high}",
               [ppr[b, flag, low] / ppr[b, flag, high]
                if ppr.get((b, flag, high)) and (b, flag, low) in ppr else None for b in labels])
              for flag, name in (("0", "underprivileged"), ("1", "privileged"))]
    return charts.ppr_ratio_by_effort(labels, curves, title="positive-rate ratio by effort bin")


def cmd_report(args) -> int:
    cfg = _merged_config(args)
    out_dir = Path(cfg["out"])
    for path in (out_dir / "report.json", out_dir / "stats.csv"):
        if not path.exists():
            raise ConfigError(f"{path}: not found; run audit or train first")
    report = checked(read_json(out_dir / "report.json", "report"), REPORT, "report key")
    for group, terms in report["groups"].items():
        checked(terms, TERMS, f"report groups[{group!r}] key")
    scopes: dict[str, list[dict]] = {}
    for row in _read_artifact(out_dir / "stats.csv", STATS_COLUMNS):
        scopes.setdefault(row["scope"], []).append(row)
    # only an SEP-family audit writes effort_bins.csv; one of another notion may sit beside
    sep, bins_path = report["notion"] in SEP_FAMILY, out_dir / "effort_bins.csv"
    bins = _read_artifact(bins_path, BINS_COLUMNS) if sep and bins_path.exists() else None
    ranked = [r["group"] for r in sorted(scopes.get("group", []), key=lambda r: (
        (r["positives"] or 0) / r["n"] if r["n"] else 0.0, r["group"]))]
    cat_rows, seg_rows = scopes.get("category_group"), scopes.get("segment")
    files: dict[str, str | None] = {}
    notes: list[str] = []
    for name, svg, reason in [
        ("ppr_by_category.svg", cat_rows and _category_chart(cat_rows, report["notion"]),
         "no category-level stats"),
        ("subgroup_panels.svg", seg_rows and _segment_chart(seg_rows), "no segment stats"),
        ("ppr_ratio_by_effort.svg", bins and len(ranked) >= 2 and
         _ratio_chart(bins, ranked[0], ranked[-1]),
         "need two groups and bins" if bins is not None else
         "no effort_bins.csv" if sep else "not an SEP-family notion"),
    ]:
        files[name] = svg or None  # a skipped chart of an earlier report would outlive it
        if not svg:
            notes.append(f"{name} skipped: {reason}")

    lines = [f"# {report['notion']} report", ""] + [
        f"- {key}: {report[key]}" for key in ("aggregate", "epsilon", "pass", "mode")]
    if report["partial"]:
        lines.append(f"- partial: true ({len(report['skipped'])} skipped terms)")
    lines += ["", "## Groups", "", "| group | T1 | T2 | T3 | total |", "|---|---|---|---|---|"]
    lines += [f"| {g} | {terms['T1']:.6f} | {terms['T2']:.6f} | {terms['T3']:.6f} "
              f"| {terms['total']:.6f} |" for g, terms in sorted(report["groups"].items())]
    if report["skipped"]:
        lines += ["", "## Skipped terms", ""] + [f"- {s}" for s in report["skipped"]]
    lines += ["", "## Charts", ""] + [f"- {name}" for name, svg in files.items() if svg]
    lines += [f"- {note}" for note in notes] + [""]
    files["summary.md"] = "\n".join(lines)
    _emit(args, cfg, files)
    print(f"report written: {len(files) - len(notes)} file(s), {len(notes)} chart(s) skipped")
    return 0


# Raw census column order; the ingested CSV keeps the subset the bundled
# schema declares (education and the sampling weight are redundant).
ADULT_RAW_FIELDS = (
    "age", "workclass", "fnlwgt", "education", "education-num",
    "marital-status", "occupation", "relationship", "race", "sex",
    "capital-gain", "capital-loss", "hours-per-week", "native-country",
    "income",
)
ADULT_KEEP = tuple(n for n in ADULT_RAW_FIELDS if n not in ("fnlwgt", "education"))


def cmd_ingest_adult(args) -> int:
    """Read every raw file, then write the output once, so a bad raw file changes nothing."""
    out_path = Path(args.out or "data/adult.csv")
    rows, skipped = [], 0
    for raw in args.raw:
        lines = [line for _, line in utf8_lines(raw)]  # raises naming a line that is not UTF-8
        for row in csv.reader(lines, skipinitialspace=True):
            if not row or row[0].startswith("|"):
                continue
            if len(row) != len(ADULT_RAW_FIELDS):
                skipped += 1
                continue
            record = {k: v.strip() for k, v in zip(ADULT_RAW_FIELDS, row)}
            record["income"] = record["income"].rstrip(".")
            rows.append([record[k] for k in ADULT_KEEP])
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(_csv_text(ADULT_KEEP, rows), encoding="utf-8", newline="")
    if skipped:
        log.warning("ingest: skipped %d malformed line(s)", skipped)
    print(f"wrote {len(rows)} rows to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="run config JSON; flags override its keys")
    sp.add_argument("--data", help="input CSV path")
    sp.add_argument("--schema", help="schema JSON path")
    sp.add_argument("--out", help="output directory (default: current)")
    sp.add_argument("--seed", type=int, help="random seed (default 42)")


def _add_notion(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--notion", choices=("EP", "DP", "CDP", "SEP", "CSEP",
                                         "SEP_relaxed"))
    sp.add_argument("--p", type=float, help="privileged tail size in percent")
    sp.add_argument("--epsilon", type=float, help="audit tolerance")
    sp.add_argument("--conditional", help="conditioning column for CDP/CSEP")
    sp.add_argument("--mode", choices=("hard", "expected"),
                    help="decision mode for score predictions (default hard)")
    sp.add_argument("--cutoff", type=float, help="hard-decision cutoff (default 0.5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairsep",
        description="Fairness audits and constrained training for tabular "
                    "classifiers, including socio-economic parity notions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("audit", help="evaluate a notion on predictions or a model")
    _add_common(sp)
    _add_notion(sp)
    sp.add_argument("--predictions", help="'ground_truth' or a CSV of scores")
    sp.add_argument("--model", help="trained model JSON")
    sp.set_defaults(func=cmd_audit)

    sp = sub.add_parser("train", help="train a constrained classifier")
    _add_common(sp)
    _add_notion(sp)
    sp.add_argument("--test-fraction", type=float, dest="test_fraction")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("extract-privilege",
                        help="rank candidate privilege proxies by importance")
    _add_common(sp)
    sp.add_argument("--group", help="non-protected group label to model")
    sp.add_argument("--repeats", type=int, help="permutation repeats (default 10)")
    sp.set_defaults(func=cmd_extract_privilege)

    sp = sub.add_parser("sweep-p", help="sweep privileged tail sizes (80% rule)")
    _add_common(sp)
    sp.add_argument("--grid", help="comma list '1,2,5' or range '1:20'")
    sp.add_argument("--ratio-rule", type=float, dest="ratio_rule")
    sp.add_argument("--column", help="privilege column (default: tagged)")
    sp.add_argument("--advantaged", help="override the advantaged group")
    sp.set_defaults(func=cmd_sweep_p)

    sp = sub.add_parser("report", help="render charts + summary from audit artifacts")
    sp.add_argument("--config", help="run config JSON; flags override its keys")
    sp.add_argument("--out", help="directory holding report.json/stats.csv")
    sp.set_defaults(func=cmd_report)

    sp = sub.add_parser("ingest-adult",
                        help="merge raw census files (adult.data/adult.test) "
                             "into one CSV")
    sp.add_argument("--raw", action="append", required=True,
                    help="raw file; repeat for multiple")
    sp.add_argument("--out", help="output CSV path (default data/adult.csv)")
    sp.set_defaults(func=cmd_ingest_adult)
    return parser


_parser = functools.cache(build_parser)  # built once per process: building costs ~20 parses


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parser().parse_args(argv)
    args._argv = argv
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ConfigError, SchemaError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError) as exc:  # a path error names its path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FairsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # keep the exit-code contract for unexpected faults
        log.exception("unhandled error")
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
