"""Hash every artifact of the benchmark's command lists, to compare two checkouts.

    python3 tools/artifact_hashes.py --seed 1 [--rows 48842] [--checkout DIR] > hashes.json

Generates the ``perfbench/adultgen.py`` table for ``--seed``/``--rows``, then
runs the ``audit-wide``, ``train`` and ``discover`` command lists of
``perfbench/run.py`` (``WORKLOADS``) once each with ``fairsep.cli.main`` from
``DIR/src`` (default: this checkout), and prints one JSON object: the exit
code of every command and the sha256 of every file each command's output
directory holds.  All paths are relative to a fresh temporary directory, so the
output depends only on the code, the seed and the row count.  Run it on two
checkouts, or under two ``PYTHONHASHSEED`` values, and compare the output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import logging
import os
import sys
import tempfile
from pathlib import Path


def artifact_hashes(checkout: Path, seed: int, rows: int) -> dict:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  checkout / "perfbench" / "run.py")
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)  # pins BLAS to one thread, as the benchmark runs
    import fairsep.cli as cli
    if Path(cli.__file__).resolve().parent != (checkout / "src" / "fairsep").resolve():
        sys.exit(f"imported fairsep from {cli.__file__}, not from {checkout / 'src'}")

    logging.basicConfig(level=logging.INFO, handlers=[logging.NullHandler()])
    doc = {"seed": seed, "rows": rows, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        data = run.adultgen.generate(seed, Path("data"), rows=rows)
        for name, commands in sorted(run.WORKLOADS.items()):
            results = doc["workloads"][name] = []
            for cmd in commands(data, Path("out") / name):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(cmd.argv)
                files = sorted(p for p in cmd.out.rglob("*") if p.is_file())
                results.append({"command": cmd.id, "exit": code, "artifacts": {
                    str(p.relative_to(cmd.out)): hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in files}})
        os.chdir(checkout)  # out of the directory before it is removed
    return doc


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rows", type=int, default=48_842)
    ap.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="root of the fairsep checkout to run (default: this one)")
    args = ap.parse_args()
    doc = artifact_hashes(args.checkout.resolve(), args.seed, args.rows)
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
