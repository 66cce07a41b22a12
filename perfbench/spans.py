"""In-memory span tracer that wraps the package's public functions from outside.

Each wrapped name records a span (name, start, end, parent) per call and,
optionally, counts read from the value the call returns.  Spans stay in
memory; ``summarize`` turns them into per-layer times and counts.  Nothing in
the package is edited: the wrappers replace module-level names (and class
attributes) at the places the CLI and the layers look them up, and
``uninstall`` puts the originals back.

A span name is ``<layer>.<stage>``; the layer is the package module the work
belongs to (``dataset``, ``groupstats``, ``notions``, ``learner``,
``privilege``, ``charts``, ``cli``).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

LAYERS = ("dataset", "groupstats", "notions", "learner", "privilege",
          "charts", "cli")


def _table_counts(table):
    return {"rows_read": table.rows + table.dropped_rows,
            "rows_dropped": table.dropped_rows}


def _report_counts(report):
    if report.categories is not None:
        cells = sum(len(by_group) for by_group in report.categories.values())
    else:
        cells = len(report.groups)
    return {"cells": cells, "skipped_terms": len(report.skipped)}


def _fit_counts(learner):
    return {"epochs": learner.epochs_run, "converged": int(learner.converged)}


def _model_counts(model):
    return {"rounds": len(model.members), "train_violation": model.max_violation}


def _fallback_counts(thresholds):
    return {"threshold_fallbacks": len(thresholds.fallbacks)}


def _svg_counts(svg):
    return {"svg_bytes": len(svg)}


def wrap_points(fairsep):
    """(owner, attribute, span name, counter) for every traced call site.

    Owners are the modules or classes whose namespace the caller looks the
    name up in, so each call is seen once.
    """
    cli, dataset, groupstats, notions, learner, privilege, charts = (
        fairsep.cli, fairsep.dataset, fairsep.groupstats, fairsep.notions,
        fairsep.learner, fairsep.privilege, fairsep.charts)
    return [
        (cli, "main", "cli.main", None),
        (cli, "load_csv", "dataset.load_csv", _table_counts),
        (notions.NotionConfig, "resolve_thresholds", "dataset.resolve_thresholds", None),
        (dataset, "privilege_threshold", "dataset.privilege_threshold", None),
        (privilege, "privilege_threshold", "dataset.privilege_threshold", None),
        (dataset, "effort_threshold", "dataset.effort_threshold", _fallback_counts),
        (cli, "effort_threshold", "dataset.effort_threshold", _fallback_counts),
        (cli, "encode_features", "dataset.encode", None),
        (dataset.FeatureEncoder, "fit", "dataset.encode", None),
        (dataset.FeatureEncoder, "transform", "dataset.encode", None),
        (cli, "stratified_split", "dataset.split", None),
        (dataset.Table, "take", "dataset.split", None),
        (cli, "subgroup_mask", "groupstats.mask", None),
        (groupstats, "mask", "groupstats.mask", None),
        (cli, "stats", "groupstats.stats", None),
        (cli, "violation", "notions.violation", _report_counts),
        (learner, "compile_constraints", "learner.compile_constraints",
         lambda cons: {"constraints": len(cons)}),
        (learner, "fit_base", "learner.fit_base", _fit_counts),
        (privilege, "fit_base", "learner.fit_base", _fit_counts),
        (cli, "exponentiated_gradient", "learner.expgrad", _model_counts),
        (learner.ReducedModel, "predict_scores", "learner.predict", None),
        (learner.BaseLearner, "predict_proba", "learner.predict", None),
        (learner.BaseLearner, "predict", "learner.predict", None),
        (cli, "extract_privilege_attribute", "privilege.extract", None),
        (privilege, "permutation_importance", "privilege.permutation_importance", None),
        (cli, "select_p", "privilege.select_p",
         lambda res: {"sweep_points": len(res.entries)}),
        (charts, "grouped_bars_by_category", "charts.render", _svg_counts),
        (charts, "subgroup_panels", "charts.render", _svg_counts),
        (charts, "ppr_ratio_by_effort", "charts.render", _svg_counts),
    ]


class Tracer:
    """Records spans as ``[name, start, end, parent_index, counts]`` lists."""

    def __init__(self, points):
        self.points = points
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, counter in self.points:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name, counter))
            else:
                patched = self._wrap(raw, name, counter)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def summarize(spans: list[list]) -> dict:
    """Inclusive time per stage, self time per stage and layer, and counts.

    A stage's inclusive time sums only its outermost spans, so a stage that
    calls itself (``predict_scores`` -> ``predict_proba``) is not counted
    twice.  Self time is a span's duration minus its direct children's.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stage_s: dict[str, float] = defaultdict(float)
    stage_self: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, parent, info) in enumerate(spans):
        dur = end - start
        own = dur - child_time[i]
        stage_self[name] += own
        layer_self[name.split(".", 1)[0]] += own
        calls[name] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            stage_s[name] += dur
        for key, value in (info or {}).items():
            counts[f"{name}.{key}"] += value
        if name == "learner.predict" and parent >= 0 and \
                spans[parent][0] == "privilege.permutation_importance":
            counts["privilege.permutation.predicts"] += 1
    return {"stage_s": dict(stage_s), "stage_self_s": dict(stage_self),
            "calls": dict(calls), "counts": dict(counts),
            "layer_self_s": layer_self}
