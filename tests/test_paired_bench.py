"""tools/paired_bench.py: pair order, per-pair ratios and medians, from a stub runner."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def stub_stdout(rows_per_s: float, failed: int = 0, peak_rss_mb: float = 50.0) -> str:
    result = {"correct": not failed, "attempted": 10, "failed": failed, "metrics": {
        "rows_per_s": {"value": rows_per_s, "unit": "rows/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}}
    return ("workload audit-wide: why\n"
            "machine: nproc=2 python=3.11.7 numpy=2.4.6 blas_threads=1 seed=7 rows=100 "
            "kept=98 seconds=1 trace=0\n"
            "metric rows_per_s = 1 rows/s\n" + json.dumps(result) + "\n")


def test_pairs_alternate_their_order_and_summarize_by_pair_and_median():
    tool = _load_tool()
    calls = []
    speed = {"parent": {61: 100.0, 62: 200.0, 63: 300.0},
             "change": {61: 110.0, 62: 260.0, 63: 330.0}}

    def run(side, workload, seed):
        calls.append((side, workload, seed))
        return stub_stdout(speed[side][seed], failed=int(side == "change" and seed == 62))
    runs, machine = tool.paired(run, "audit-wide", [61, 62, 63])
    assert calls == [("parent", "audit-wide", 61), ("change", "audit-wide", 61),
                     ("change", "audit-wide", 62), ("parent", "audit-wide", 62),
                     ("parent", "audit-wide", 63), ("change", "audit-wide", 63)]
    assert machine == "nproc=2 python=3.11.7 numpy=2.4.6 blas_threads=1 rows=100"
    assert [(r["pair"], r["seed"], r["first"]) for r in runs["change"]] == \
        [(0, 61, "parent"), (1, 62, "change"), (2, 63, "parent")]
    assert [r["result"]["metrics"]["rows_per_s"]["value"] for r in runs["parent"]] == \
        [100.0, 200.0, 300.0]
    lines = tool.summary("audit-wide", runs)
    assert lines[:3] == [
        "audit-wide pair 0 seed 61 first parent: rows_per_s=1.1000 peak_rss_mb=1.0000 failed=0/0",
        "audit-wide pair 1 seed 62 first change: rows_per_s=1.3000 peak_rss_mb=1.0000 failed=0/1",
        "audit-wide pair 2 seed 63 first parent: rows_per_s=1.1000 peak_rss_mb=1.0000 failed=0/0"]
    # medians per side are 200 and 260; the median pair ratio is 1.1, not 260 / 200
    assert lines[3] == "audit-wide median rows_per_s: parent 200 change 260 pair ratio 1.1000"
    assert lines[4] == "audit-wide median peak_rss_mb: parent 50 change 50 pair ratio 1.0000"


def test_summary_counts_the_pairs_the_change_wins_by_each_metrics_direction():
    tool = _load_tool()
    canned = {"parent": [(100.0, 50.0), (200.0, 52.0), (300.0, 51.0), (400.0, 53.0)],
              "change": [(110.0, 49.0), (190.0, 52.0), (330.0, 50.0), (440.0, 54.0)]}
    runs, _ = tool.paired(lambda side, workload, seed: stub_stdout(
        canned[side][seed][0], peak_rss_mb=canned[side][seed][1]), "audit-wide", [0, 1, 2, 3])
    lines = tool.summary("audit-wide", runs, {"rows_per_s": "higher", "peak_rss_mb": "lower"})
    # rows_per_s is higher on pairs 0, 2 and 3; peak_rss_mb lower on 0 and 2, equal on 1;
    # parent quartiles by linear interpolation: 175 and 325, 50.75 and 52.25
    assert lines[-2:] == [
        "audit-wide rows_per_s: parent quartiles 175 325 (spread 150); "
        "change better on 3 of 4 pairs, equal on 0",
        "audit-wide peak_rss_mb: parent quartiles 50.75 52.25 (spread 1.5); "
        "change better on 2 of 4 pairs, equal on 1"]
    assert tool.summary("audit-wide", runs)[-1] == \
        "audit-wide peak_rss_mb: parent quartiles 50.75 52.25 (spread 1.5)"
    assert tool.quartiles([7.0]) == (7.0, 7.0)


def test_seed_lists():
    tool = _load_tool()
    assert tool.seed_list("61-64") == [61, 62, 63, 64]
    assert tool.seed_list("5,9") == [5, 9]
