"""Each command's traced memory peak in one benchmark workload, run in process.

    python3 tools/command_peaks.py --workload discover --seed 11 [--rows 48842] [--checkout DIR]

Generates the ``perfbench/adultgen.py`` table for ``--seed``/``--rows`` in a
fresh temporary directory, builds the ``--workload`` command list of
``perfbench/run.py`` (``WORKLOADS``), and runs it with ``fairsep.cli.main``
from ``DIR/src`` (default: this checkout), as ``tools/artifact_hashes.py``
does.  The list runs once untraced, as numpy's first calls allocate for good;
then each command runs alone under ``tracemalloc``, in list order, and one
line per command gives its exit code, its peak in MiB and its id.  The peak
counts what Python and numpy allocate, not the process's resident size.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import tempfile
import tracemalloc
from pathlib import Path

from artifact_hashes import load_benchmark


def command_peaks(checkout: Path, workload: str, seed: int, rows: int) -> list[tuple]:
    """(command id, exit code, traced peak in MiB) of each command of ``workload``."""
    run, cli = load_benchmark(checkout)
    if workload not in run.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(run.WORKLOADS)}")
    with tempfile.TemporaryDirectory() as tmp:
        data = run.adultgen.generate(seed, Path(tmp) / "data", rows=rows)
        commands = run.WORKLOADS[workload](data, Path(tmp) / "out")
        with contextlib.redirect_stdout(io.StringIO()):
            for cmd in commands:
                cli.main(cmd.argv)
            out = []
            for cmd in commands:
                gc.collect()
                tracemalloc.start()
                try:
                    code = cli.main(cmd.argv)
                    out.append((cmd.id, code, tracemalloc.get_traced_memory()[1] / 2**20))
                finally:
                    tracemalloc.stop()
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rows", type=int, default=48_842)
    ap.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="root of the fairsep checkout to run (default: this one)")
    args = ap.parse_args()
    for command, code, peak in command_peaks(args.checkout.resolve(), args.workload, args.seed,
                                             args.rows):
        print(f"exit {code}  {peak:6.2f} MiB  {command}")


if __name__ == "__main__":
    main()
