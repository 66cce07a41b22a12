"""Fast self-test of the benchmark on a tiny table (about half a minute).

    python3 perfbench/selftest.py

For every workload, in untraced and traced mode, it runs ``run.py`` on a
4,000-row table for one second and checks that the run exits 0, that every
end-to-end metric (and, traced, every per-layer metric) is printed by name
with its unit, that the last line is the result object with exactly the
metrics BENCHMARK.json names, and that no command failed
(``failed_ops_ratio`` is 0).  It also checks that the benchmark refuses to
run, without printing a result, in a directory that holds only the
benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROWS = 4000
SEED = 7


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--rows", str(ROWS)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit code {done.returncode}: {done.stderr[-500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        errors.append(f"{where}: {result['failed']} of {result['attempted']} "
                      f"commands failed")
    if not any(line.startswith("metric failed_ops_ratio = 0 ") for line in lines):
        errors.append(f"{where}: failed_ops_ratio is not printed as 0")
    printed = spec["end_to_end"] + (spec["per_layer"] if trace else [])
    for metric in printed:
        prefix = f"metric {metric['name']} = "
        line = next((ln for ln in lines if ln.startswith(prefix)), None)
        if line is None or f" {metric['unit']}" not in line[len(prefix):]:
            errors.append(f"{where}: {metric['name']} not printed with its unit")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        errors.append(f"{where}: result metrics differ from BENCHMARK.json")
    for metric in wanted:
        if got.get(metric["name"], {}).get("unit") != metric["unit"]:
            errors.append(f"{where}: {metric['name']} has the wrong unit")
    return errors


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and perfbench/: the run must fail without a result."""
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench" / path.name)
    done = run(bare, "discover", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return ["bare directory: the benchmark ran without the program"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: checked", flush=True)
    for err in errors:
        print(f"FAIL {err}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
