"""Command-line pipeline: audit, train, extract-privilege, sweep-p, report.

One JSON config file plus flag overrides (flags win) fully determines a run;
identical config, inputs, and seed reproduce byte-identical outputs.  Every
command writes its artifacts to the output directory and records them in a
manifest (path, content hash, producing command).

Exit codes: 0 success, 1 audit aggregate above epsilon, 2 usage or config
error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import logging
import shlex
import sys
from pathlib import Path

import numpy as np

from . import charts
from .dataset import (Schema, Table, cell_rows, effort_threshold, encode_features,
                      load_csv, stratified_split)
from .errors import (ConfigError, FairsepError, ParseError, SchemaError, config_number,
                     config_object, read_json)
from .groupstats import mask as subgroup_mask, positive_scores, stats
from .learner import ExpGradHP, exponentiated_gradient, load_model, save_model
from .notions import SEP_FAMILY, NotionConfig, violation
from .privilege import extract_privilege_attribute, select_p

log = logging.getLogger(__name__)

STATS_HEADER = ("scope", "category", "group", "n", "positives",
                "tp", "fp", "tn", "fn", "ppr", "tpr", "fpr")
BIN_COUNT = 5
SEGMENTS = ("privileged", "under_high", "under_low")


# ---------------------------------------------------------------------------
# small IO helpers
# ---------------------------------------------------------------------------

def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _update_manifest(out_dir: Path, files: list[Path], command: str) -> None:
    manifest_path = out_dir / "manifest.json"
    doc = read_json(manifest_path, "manifest") if manifest_path.exists() else {"entries": {}}
    entries = doc.setdefault("entries", {})
    for path in files:
        entries[path.name] = {"sha256": _sha256(path), "command": command}
    _write_json(manifest_path, doc)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _merged_config(args) -> dict:
    cfg: dict = {}
    if getattr(args, "config", None):
        cfg = read_json(args.config, "config")
    for key in ("data", "schema", "out", "seed", "mode", "cutoff",
                "predictions", "model", "group", "repeats", "ratio_rule",
                "test_fraction", "column", "advantaged", "grid"):
        v = getattr(args, key.replace("-", "_"), None)
        if v is not None:
            cfg[key] = v
    notion = cfg["notion"] = config_object(cfg, "notion")
    if getattr(args, "notion", None):
        notion["kind"] = args.notion
    if getattr(args, "p", None) is not None:
        notion["p"] = args.p
    if getattr(args, "epsilon", None) is not None:
        notion["epsilon"] = args.epsilon
    if getattr(args, "conditional", None):
        notion["conditional"] = args.conditional
    for key in ("data", "schema", "predictions", "model", "out"):
        if key in cfg and not isinstance(cfg[key], str):
            raise ConfigError(f"config '{key}' must be a path string, got {cfg[key]!r}")
    return cfg


def _parse_grid(text) -> list[float] | None:
    """A p grid from a list of numbers, a comma list '1,2,5' or an integer range '1:20'."""
    if text is None or isinstance(text, list):
        return text and [config_number({"grid": v}, "grid", None) for v in text]
    try:
        if ":" not in text:
            return [float(v) for v in text.split(",") if v.strip()]
        lo, hi = map(int, text.split(":", 1))
    except (TypeError, ValueError):
        raise ConfigError(f"p grid must be numbers, as '1,2,5' or '1:20', got {text!r}") from None
    if lo < 1 or hi > 99:  # before the range is built
        raise ConfigError(f"p grid values must lie in (0, 100), got {text!r}")
    return [float(p) for p in range(lo, hi + 1)]


def _run_options(cfg: dict) -> tuple[str, float, float]:
    """The decision mode, the hard-decision cutoff and the held-out fraction, checked."""
    mode = cfg.get("mode", "hard")
    if mode not in ("hard", "expected"):
        raise ConfigError(f"mode must be 'hard' or 'expected', got {mode!r}")
    cutoff = config_number(cfg, "cutoff", 0.5)
    test_fraction = config_number(cfg, "test_fraction",
                                  config_object(cfg, "train").get("test_fraction", 0.3))
    for key, value in (("cutoff", cutoff), ("test_fraction", test_fraction)):
        if not 0 < value < 1:
            raise ConfigError(f"{key} must lie in (0, 1), got {value}")
    return mode, cutoff, test_fraction


def _schema(cfg: dict) -> Schema:
    for key in ("data", "schema"):
        if not cfg.get(key):
            raise ConfigError(f"missing required input: --{key} (or config '{key}')")
    return Schema.from_json(cfg["schema"])


def _check_groups(ncfg: NotionConfig, table: Table) -> None:
    unknown = sorted(set(ncfg.groups or ()) - set(table.levels(ncfg.protected)))
    if unknown:
        raise ConfigError(f"notion 'groups' names no level of {ncfg.protected!r}: {unknown}")


def _resolve_predictions(cfg: dict, table: Table) -> tuple[np.ndarray, str]:
    spec = cfg.get("predictions")
    if spec == "ground_truth":
        return table.target.astype(np.float64), "ground_truth"
    if spec:
        with open(spec, "r", encoding="utf-8") as fh:
            lines = [line for line in map(str.strip, fh) if line and line != "prediction"]
        try:
            return np.array(lines, dtype=np.float64), f"file:{spec}"
        except ValueError:  # numpy parses as float() does; name the first line it refuses
            with open(spec, "r", encoding="utf-8") as fh:
                for number, line in enumerate(map(str.strip, fh), 1):
                    if line and line != "prediction":
                        try:
                            float(line)
                        except ValueError:
                            raise ParseError(f"{spec}:{number}: not a number: {line!r}") from None
            raise
    if cfg.get("model"):
        model = load_model(cfg["model"])
        if model.encoder is None:
            raise ConfigError(f"{cfg['model']}: model carries no feature encoder")
        X = model.encoder.transform(table)
        return model.predict_scores(X), f"model:{cfg['model']}"
    raise ConfigError("audit needs 'predictions' (ground_truth or a CSV path) "
                      "or a 'model' path")


def _command_string(args) -> str:
    argv = getattr(args, "_argv", [])
    return "fairsep " + " ".join(shlex.quote(a) for a in argv)


# ---------------------------------------------------------------------------
# stats tables
# ---------------------------------------------------------------------------

def _stats_row(scope, category, group, table, predictions, rows, cutoff, mode):
    frame = stats(table, predictions, rows, cutoff=cutoff, mode=mode)
    return [scope, category, group, frame.n, frame.positives, frame.tp, frame.fp,
            frame.tn, frame.fn, frame.ppr, frame.tpr, frame.fpr]


def _stats_rows(table: Table, predictions, ncfg: NotionConfig,
                cutoff: float, mode: str) -> list[list]:
    rows = [_stats_row("overall", "", "", table, predictions, None, cutoff, mode)]
    names = table.levels(ncfg.protected)
    group_ppr: dict[str, float | None] = {}
    for g in names:
        row = _stats_row("group", "", g, table, predictions,
                         subgroup_mask(table, ((ncfg.protected, g),)), cutoff, mode)
        rows.append(row)
        group_ppr[g] = row[9]
    if ncfg.conditional:
        categories = table.levels(ncfg.conditional)
        key = table.codes(ncfg.conditional) * len(names) + table.codes(ncfg.protected)
        for (a, g), cell in zip(itertools.product(categories, names),
                                cell_rows(key, len(categories) * len(names))):
            rows.append(_stats_row("category_group", a, g, table, predictions, cell,
                                   cutoff, mode))
    for g1, g2 in itertools.permutations(names, 2):
        ppr1, ppr2 = group_ppr[g1], group_ppr[g2]
        ratio = ppr1 / ppr2 if ppr1 is not None and ppr2 else None
        rows.append(["ratio", "", f"{g1}/{g2}", None, None, None, None,
                     None, None, ratio, None, None])
    return rows


def _sep_extra_rows(table: Table, h: np.ndarray, ncfg: NotionConfig, thresholds):
    """Descriptive privileged/effort segment stats + equal-width effort bins.

    The high/low effort split is the audit's own, from a per-code array of
    cell effort thresholds.  SEP_relaxed resolves no effort thresholds, so it
    splits at the per-group mean.  Segments are the parts of one ``cell_rows``
    of (group, segment), bins of one of (bin, group, privileged).  The last
    bin is closed at the maximum effort.
    """
    if ncfg.effort_column is None:
        return [], []
    names, groups = table.levels(ncfg.protected), table.codes(ncfg.protected)
    privileged = table.column(ncfg.privilege_column) >= thresholds.privilege_cutoff
    y = table.target
    xe = table.column(ncfg.effort_column)
    if ncfg.kind == "SEP_relaxed":
        thresholds = effort_threshold(table, "per_group", ncfg.effort_column)
    cats = table.levels(ncfg.conditional) if ncfg.kind == "CSEP" else [None]
    per_code = np.array([[thresholds.effort_at((a, g)) for g in names] for a in cats])
    cat_codes = table.codes(ncfg.conditional) if ncfg.kind == "CSEP" else 0
    high = xe >= per_code[cat_codes, groups]
    segment = np.where(privileged, 0, 2 - high)  # each row's index into SEGMENTS
    cells = cell_rows(groups * 3 + segment, 3 * len(names))
    segments = []
    for (g, name), cell in zip(itertools.product(names, SEGMENTS), cells):
        ppr = float(np.mean(h[cell])) if cell.size else None
        segments.append(["segment", name, g, cell.size, int(np.count_nonzero(y[cell] == 1)),
                         None, None, None, None, ppr, None, None])
    lo, hi = float(np.min(xe)), float(np.max(xe))
    span = (hi - lo) or 1.0
    edges = [lo + span * i / BIN_COUNT for i in range(BIN_COUNT)] + [hi if hi > lo else lo + 1.0]
    in_bin = np.searchsorted(edges[1:-1], xe, side="right")
    cells = cell_rows((in_bin * len(names) + groups) * 2 + ~privileged, 2 * BIN_COUNT * len(names))
    bins = []
    for (b, g, flag), cell in zip(itertools.product(range(BIN_COUNT), names, (1, 0)), cells):
        label = f"[{edges[b]:g},{edges[b + 1]:g}{')' if b < BIN_COUNT - 1 else ']'}"
        bins.append([g, flag, label, edges[b], edges[b + 1], cell.size,
                     float(np.mean(h[cell])) if cell.size else None])
    return segments, bins


def _write_stats(out_dir: Path, table: Table, predictions, ncfg: NotionConfig,
                 report, cutoff: float, mode: str) -> list[Path]:
    """Write stats.csv (plus effort_bins.csv for the SEP family); return their paths."""
    h = positive_scores(predictions, table, mode, cutoff)
    rows = _stats_rows(table, predictions, ncfg, cutoff, mode)
    written = [out_dir / "stats.csv"]
    if ncfg.kind in SEP_FAMILY:
        thresholds = report.thresholds or ncfg.resolve_thresholds(table)
        segments, bins = _sep_extra_rows(table, h, ncfg, thresholds)
        rows.extend(segments)
        _write_csv(out_dir / "effort_bins.csv",
                   ("group", "privileged", "bin", "lo", "hi", "n", "ppr"), bins)
        written.append(out_dir / "effort_bins.csv")
    _write_csv(out_dir / "stats.csv", STATS_HEADER, rows)
    return written


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_audit(args) -> int:
    cfg = _merged_config(args)
    mode, cutoff, _ = _run_options(cfg)
    schema = _schema(cfg)
    ncfg = NotionConfig.from_dict(cfg["notion"], schema)
    # scores from a file or the target need only the notion's coded columns; a model needs all
    coded = {schema.protected.name, ncfg.protected, ncfg.conditional}
    table = load_csv(cfg["data"], schema, coded if cfg.get("predictions") else None)
    _check_groups(ncfg, table)
    predictions, source = _resolve_predictions(cfg, table)
    report = violation(table, predictions, ncfg, mode=mode, cutoff=cutoff)

    out_dir = Path(cfg.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = report.to_dict()
    doc["predictions_source"] = source
    doc["data"] = str(cfg["data"])
    _write_json(out_dir / "report.json", doc)

    written = [out_dir / "report.json"]
    written += _write_stats(out_dir, table, predictions, ncfg, report, cutoff, mode)
    _update_manifest(out_dir, written, _command_string(args))
    print(f"{ncfg.kind} aggregate={report.aggregate:.6f} epsilon={report.epsilon} "
          f"pass={report.passed}" + (" (partial)" if report.partial else ""))
    return 0 if report.passed else 1


def cmd_train(args) -> int:
    cfg = _merged_config(args)
    mode, cutoff, test_fraction = _run_options(cfg)
    train_opts = dict(config_object(cfg, "train"))
    train_opts.pop("test_fraction", None)
    include_protected = train_opts.pop("include_protected", False)
    if not isinstance(include_protected, bool):
        raise ConfigError(f"config 'train.include_protected' must be true or false, "
                          f"got {include_protected!r}")
    train_opts.setdefault("base", dict(config_object(cfg, "learner")))
    hp = ExpGradHP.from_dict(train_opts)
    schema = _schema(cfg)
    ncfg = NotionConfig.from_dict(cfg["notion"], schema)
    table = load_csv(cfg["data"], schema)
    _check_groups(ncfg, table)
    seed = config_number(cfg, "seed", 42, int)

    train_mask, test_mask = stratified_split(table, test_fraction, seed)
    train_table = table.take(train_mask)
    test_table = table.take(test_mask)
    X_train, encoder = encode_features(train_table,
                                       include_protected=include_protected)
    model = exponentiated_gradient(train_table, ncfg, hp,
                                   features=X_train, encoder=encoder)

    out_dir = Path(cfg.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(model, out_dir / "model.json")
    traj_rows = [[t["iter"], t["member_max_violation"], t["mixture_max_violation"],
                  t["member_error"], t["mixture_error"],
                  max(t["lambda"]) if t["lambda"] else 0.0,
                  member.epochs_run, member.converged, member.final_loss]
                 for t, member in zip(model.trajectory, model.members)]
    _write_csv(out_dir / "trajectory.csv",
               ("iter", "member_max_violation", "mixture_max_violation",
                "member_error", "mixture_error", "lambda_max",
                "fit_steps", "fit_converged", "fit_loss"), traj_rows)

    X_test = encoder.transform(test_table)
    scores = model.predict_scores(X_test)
    report = violation(test_table, scores, ncfg, mode=mode, cutoff=cutoff)
    doc = report.to_dict()
    doc["predictions_source"] = "model:model.json"
    doc["split"] = {"test_fraction": test_fraction, "seed": seed,
                    "train_rows": int(train_mask.sum()),
                    "test_rows": int(test_mask.sum())}
    doc["training"] = {"max_violation": model.max_violation,
                       "best_iterate": model.best_iterate,
                       "iterations": len(model.members),
                       "early_stopped": model.early_stopped}
    _write_json(out_dir / "report.json", doc)
    written = [out_dir / "model.json", out_dir / "trajectory.csv", out_dir / "report.json"]
    written += _write_stats(out_dir, test_table, scores, ncfg, report, cutoff, mode)
    _update_manifest(out_dir, written, _command_string(args))
    flag = " EARLY-STOP" if model.early_stopped else ""
    print(f"trained {ncfg.kind}: iters={len(model.members)} "
          f"train_violation={model.max_violation:.6f} "
          f"heldout_aggregate={report.aggregate:.6f}{flag}")
    return 0


def cmd_extract_privilege(args) -> int:
    cfg = _merged_config(args)
    table = load_csv(cfg["data"], _schema(cfg))
    group = cfg.get("group")
    if not group:
        raise ConfigError("extract-privilege needs --group")
    result = extract_privilege_attribute(
        table, group,
        repeats=config_number(cfg, "repeats", 10, int),
        seed=config_number(cfg, "seed", 42, int),
    )
    out_dir = Path(cfg.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "importance.json", result.to_dict())
    rows = [[i + 1, r["attribute"], r["importance"], r["sd"],
             r["attribute"] == result.chosen]
            for i, r in enumerate(result.rows)]
    _write_csv(out_dir / "importance.csv",
               ("rank", "attribute", "importance", "sd", "chosen"), rows)
    _update_manifest(out_dir, [out_dir / "importance.json",
                               out_dir / "importance.csv"], _command_string(args))
    flag = " (tie broken)" if result.tie_flagged else ""
    print(f"chosen privilege proxy: {result.chosen}{flag}")
    return 0


def cmd_sweep_p(args) -> int:
    cfg = _merged_config(args)
    schema = _schema(cfg)
    protected = schema.protected and schema.protected.name
    table = load_csv(cfg["data"], schema, {protected, cfg.get("column")})
    result = select_p(
        table,
        column=cfg.get("column"),
        grid=_parse_grid(cfg.get("grid")),
        ratio_rule=config_number(cfg, "ratio_rule", 0.8),
        advantaged=cfg.get("advantaged"),
    )
    out_dir = Path(cfg.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "sweep.json", result.to_dict())
    names = table.levels(table.schema.protected.name)
    header = ["p", "tau", "realized_fraction"] + [f"ppr_{g}" for g in names] + \
             ["ratio", "defined", "note"]
    rows = []
    for e in result.entries:
        rows.append([e["p"], e["tau"], e["realized_fraction"]]
                    + [e["ppr"].get(g) for g in names]
                    + [e["ratio"], e["defined"], e["note"]])
    _write_csv(out_dir / "sweep.csv", header, rows)
    _update_manifest(out_dir, [out_dir / "sweep.json", out_dir / "sweep.csv"],
                     _command_string(args))
    if result.selected is not None:
        print(f"selected p={result.selected:g} "
              f"(satisfying: {[f'{v:g}' for v in result.satisfying]})")
    else:
        print("no p satisfies rule")
    return 0


def _read_stats(path: Path) -> list[dict]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for raw in csv.DictReader(fh):
            row = dict(raw)
            for key in ("n", "positives"):
                row[key] = int(row[key]) if row.get(key) else None
            for key in ("tp", "fp", "tn", "fn", "ppr", "tpr", "fpr"):
                row[key] = float(row[key]) if row.get(key) else None
            rows.append(row)
    return rows


def cmd_report(args) -> int:
    cfg = _merged_config(args)
    out_dir = Path(cfg.get("out", "."))
    report_path = out_dir / "report.json"
    stats_path = out_dir / "stats.csv"
    for path in (report_path, stats_path):
        if not path.exists():
            raise ConfigError(f"{path}: not found; run audit or train first")
    report = read_json(report_path, "report")
    rows = _read_stats(stats_path)

    written: list[Path] = []
    notes: list[str] = []

    cat_rows = [r for r in rows if r["scope"] == "category_group"]
    if cat_rows:
        pos_by_cat: dict[str, int] = {}
        for r in cat_rows:
            pos_by_cat[r["category"]] = pos_by_cat.get(r["category"], 0) + (r["positives"] or 0)
        categories = sorted(pos_by_cat, key=lambda c: (pos_by_cat[c], c))
        group_names = sorted({r["group"] for r in cat_rows})
        series = [(g, {r["category"]: r["ppr"] for r in cat_rows if r["group"] == g})
                  for g in group_names]
        svg = charts.grouped_bars_by_category(
            categories, series,
            title=f"positive rate by {report.get('notion', '')} category and group",
            ylabel="positive rate")
        _write_text(out_dir / "ppr_by_category.svg", svg)
        written.append(out_dir / "ppr_by_category.svg")
    else:
        notes.append("ppr_by_category.svg skipped: no category-level stats")

    seg_rows = [r for r in rows if r["scope"] == "segment"]
    if seg_rows:
        group_names = sorted({r["group"] for r in seg_rows})
        panel_titles = {"privileged": "privileged",
                        "under_high": "underprivileged, high effort",
                        "under_low": "underprivileged, low effort"}
        panels = []
        for seg in SEGMENTS:
            values = {r["group"]: r["ppr"] for r in seg_rows if r["category"] == seg}
            if values:
                panels.append((panel_titles[seg], values))
        svg = charts.subgroup_panels(panels, group_names,
                                     title="positive rate by privilege/effort segment")
        _write_text(out_dir / "subgroup_panels.svg", svg)
        written.append(out_dir / "subgroup_panels.svg")
    else:
        notes.append("subgroup_panels.svg skipped: no segment stats")

    bins_path = out_dir / "effort_bins.csv"
    if bins_path.exists():
        with open(bins_path, "r", encoding="utf-8", newline="") as fh:
            bin_rows = list(csv.DictReader(fh))
        group_rows = [r for r in rows if r["scope"] == "group"]
        ranked = sorted(group_rows,
                        key=lambda r: ((r["positives"] or 0) / r["n"] if r["n"] else 0.0,
                                       r["group"]))
        if len(ranked) >= 2 and bin_rows:
            low_g, high_g = ranked[0]["group"], ranked[-1]["group"]
            labels = list(dict.fromkeys(r["bin"] for r in bin_rows))
            curves = []
            for priv_flag, label in (("0", "underprivileged"), ("1", "privileged")):
                vals: list[float | None] = []
                for b in labels:
                    ppr = {}
                    for r in bin_rows:
                        if r["bin"] == b and r["privileged"] == priv_flag and r["ppr"]:
                            ppr[r["group"]] = float(r["ppr"])
                    if ppr.get(high_g) and ppr.get(low_g) is not None:
                        vals.append(ppr[low_g] / ppr[high_g])
                    else:
                        vals.append(None)
                curves.append((f"{label} {low_g}/{high_g}", vals))
            svg = charts.ppr_ratio_by_effort(labels, curves,
                                             title="positive-rate ratio by effort bin")
            _write_text(out_dir / "ppr_ratio_by_effort.svg", svg)
            written.append(out_dir / "ppr_ratio_by_effort.svg")
        else:
            notes.append("ppr_ratio_by_effort.svg skipped: need two groups and bins")
    else:
        notes.append("ppr_ratio_by_effort.svg skipped: no effort_bins.csv")

    lines = [f"# {report.get('notion', 'audit')} report", ""]
    lines.append(f"- aggregate: {report.get('aggregate')}")
    lines.append(f"- epsilon: {report.get('epsilon')}")
    lines.append(f"- pass: {report.get('pass')}")
    lines.append(f"- mode: {report.get('mode')}")
    if report.get("partial"):
        lines.append(f"- partial: true ({len(report.get('skipped', []))} skipped terms)")
    lines.append("")
    lines.append("## Groups")
    lines.append("")
    lines.append("| group | T1 | T2 | T3 | total |")
    lines.append("|---|---|---|---|---|")
    for g, terms in sorted((report.get("groups") or {}).items()):
        lines.append(f"| {g} | {terms['T1']:.6f} | {terms['T2']:.6f} "
                     f"| {terms['T3']:.6f} | {terms['total']:.6f} |")
    skipped = report.get("skipped") or []
    if skipped:
        lines.append("")
        lines.append("## Skipped terms")
        lines.append("")
        for s in skipped:
            lines.append(f"- {s}")
    lines.append("")
    lines.append("## Charts")
    lines.append("")
    for path in written:
        lines.append(f"- {path.name}")
    for note in notes:
        lines.append(f"- {note}")
    lines.append("")
    _write_text(out_dir / "summary.md", "\n".join(lines))
    written.append(out_dir / "summary.md")
    _update_manifest(out_dir, written, _command_string(args))
    print(f"report written: {len(written)} file(s), {len(notes)} chart(s) skipped")
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
    out_path = Path(args.out or "data/adult.csv")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    kept, skipped = 0, 0
    with open(out_path, "w", encoding="utf-8", newline="") as out_fh:
        writer = csv.writer(out_fh, lineterminator="\n")
        writer.writerow(ADULT_KEEP)
        for raw in args.raw:
            with open(raw, "r", encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh, skipinitialspace=True)
                for row in reader:
                    if not row or row[0].startswith("|"):
                        continue
                    if len(row) != len(ADULT_RAW_FIELDS):
                        skipped += 1
                        continue
                    record = {k: v.strip() for k, v in zip(ADULT_RAW_FIELDS, row)}
                    record["income"] = record["income"].rstrip(".")
                    writer.writerow([record[k] for k in ADULT_KEEP])
                    kept += 1
    if skipped:
        log.warning("ingest: skipped %d malformed line(s)", skipped)
    print(f"wrote {kept} rows to {out_path}")
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


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ConfigError, SchemaError, FileNotFoundError) as exc:
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
