"""Paired benchmark runs of a parent and a change checkout, for a BENCH_<n>.json.

    python3 tools/paired_bench.py --parent DIR --change DIR --workload audit-wide \
        --seeds 61-66 [--out BENCH_16.json --what TEXT]

For each seed, runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, T being the ``run_seconds`` of the change's
``BENCHMARK.json``: the parent first on even pairs, the change first on odd
ones, so that both sides see the same drift of a shared machine.  It prints each
pair's change/parent ratio of every end-to-end metric, then the median of each
metric on each side and the median ratio, then each metric's parent quartiles and
on how many pairs the change is better (and equal), by the ``better`` direction
that the change's ``BENCHMARK.json`` gives the metric.  ``--out`` writes a
JSON file with ``what``, ``command``, ``machine``, ``runs`` (the change's) and
``parent_runs``, each a list per workload of ``{"pair", "seed", "first",
"result"}``; an existing file keeps its other workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

COMMAND = ("python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds} "
           "--trace 0")
SIDES = ("parent", "change")


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    """The stdout of one benchmark run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    return subprocess.run(argv, cwd=checkout, check=True, capture_output=True, text=True).stdout


def parse(stdout: str) -> tuple[dict, str]:
    """A run's result line, and its machine line without the per-run fields."""
    lines = stdout.strip().splitlines()
    machine = next(line for line in lines if line.startswith("machine: "))
    fields = [f for f in machine.removeprefix("machine: ").split()
              if f.split("=")[0] not in ("seed", "kept", "seconds", "trace")]
    return json.loads(lines[-1]), " ".join(fields)


def paired(run, workload: str, seeds: list[int]) -> tuple[dict, str]:
    """Each side's runs of ``workload``, one pair per seed in alternating order,
    and the machine line; ``run(side, workload, seed)`` returns a run's stdout."""
    runs, machine = {side: [] for side in SIDES}, ""
    for pair, seed in enumerate(seeds):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result, machine = parse(run(side, workload, seed))
            runs[side].append({"pair": pair, "seed": seed, "first": order[0], "result": result})
    return runs, machine


def value(run: dict, metric: str) -> float:
    return run["result"]["metrics"][metric]["value"]


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles, interpolated linearly as numpy's percentile does."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(workload: str, runs: dict, better: dict | None = None) -> list[str]:
    """One line per pair with its change/parent ratios, then each metric's medians,
    then its parent quartiles and, if ``better`` maps it to 'higher' or 'lower', the
    number of pairs on which the change is better and equal."""
    metrics = list(runs["change"][0]["result"]["metrics"]) if runs["change"] else []
    lines = []
    for parent, change in zip(runs["parent"], runs["change"]):
        ratios = " ".join(f"{m}={value(change, m) / value(parent, m):.4f}" for m in metrics)
        failed = (parent["result"]["failed"], change["result"]["failed"])
        lines.append(f"{workload} pair {change['pair']} seed {change['seed']} "
                     f"first {change['first']}: {ratios} failed={failed[0]}/{failed[1]}")
    for m in metrics:
        medians = [statistics.median(value(r, m) for r in runs[side]) for side in SIDES]
        ratio = statistics.median(value(c, m) / value(p, m)
                                  for p, c in zip(runs["parent"], runs["change"]))
        lines.append(f"{workload} median {m}: parent {medians[0]:.6g} change {medians[1]:.6g} "
                     f"pair ratio {ratio:.4f}")
    for m in metrics:
        q1, q3 = quartiles([value(r, m) for r in runs["parent"]])
        line = f"{workload} {m}: parent quartiles {q1:.6g} {q3:.6g} (spread {q3 - q1:.6g})"
        if (better or {}).get(m) in ("higher", "lower"):
            sign = 1 if better[m] == "higher" else -1
            gains = [sign * (value(c, m) - value(p, m))
                     for p, c in zip(runs["parent"], runs["change"])]
            line += (f"; change better on {sum(g > 0 for g in gains)} of {len(gains)} pairs, "
                     f"equal on {gains.count(0)}")
        lines.append(line)
    return lines


def seed_list(text: str) -> list[int]:
    """Seeds from '61-66' or '61,63,65'."""
    if "-" in text:
        lo, hi = map(int, text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True, help="'61-66' or '61,63,65'")
    ap.add_argument("--out", type=Path, help="BENCH json to write or add this workload to")
    ap.add_argument("--what", help="the 'what' text of a new --out file")
    args = ap.parse_args()
    checkouts = {"parent": args.parent, "change": args.change}
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench.get("end_to_end", [])}

    def run(side, workload, seed):
        return run_benchmark(checkouts[side], workload, seed, seconds)
    runs, machine = paired(run, args.workload, args.seeds)
    print("\n".join(summary(args.workload, runs, better)))
    if args.out:
        doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {
            "what": args.what or "", "command": COMMAND.format(seconds=f"{seconds:g}"),
            "machine": machine, "runs": {}, "parent_runs": {}}
        doc["runs"][args.workload] = runs["change"]
        doc["parent_runs"][args.workload] = runs["parent"]
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
