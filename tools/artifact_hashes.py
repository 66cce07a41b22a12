"""Hash every artifact of the benchmark's command lists, to compare two checkouts.

    python3 tools/artifact_hashes.py --seed 1 [--rows 48842] [--checkout DIR] [--keep KEPT] > h.json
    python3 tools/artifact_hashes.py --compare KEPT_A KEPT_B

Generates the ``perfbench/adultgen.py`` table for ``--seed``/``--rows``, then
runs the ``audit-wide``, ``train`` and ``discover`` command lists of
``perfbench/run.py`` (``WORKLOADS``) once each with ``fairsep.cli.main`` from
``DIR/src`` (default: this checkout), and prints one JSON object: the exit
code of every command and the sha256 of every file each command's output
directory holds.  All paths are relative to a fresh temporary directory, so the
output depends only on the code, the seed and the row count.  Run it on two
checkouts, or under two ``PYTHONHASHSEED`` values, and compare the output.
After each command it also checks that the directory's ``manifest.json`` lists
exactly the other files there, each with its sha256; it names every directory
where that fails on stderr and exits 1 after printing the hashes.

``--keep KEPT`` runs in the new directory KEPT instead and leaves the inputs
and artifacts there.  ``--compare`` reads two such directories and, for every
file that differs, prints how far it moved: the largest absolute and relative
difference between the numbers at the same position (JSON leaves, CSV cells,
any number in the text), or the lines that differ when the text around the
numbers does.  It exits 1 when any file differs or exists on one side only,
and 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import importlib.util
import io
import json
import logging
import os
import re
import sys
import tempfile
from pathlib import Path

NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")  # not in a word


def load_benchmark(checkout: Path):
    """``perfbench/run.py`` and ``fairsep.cli`` of ``checkout``, set up as the benchmark runs."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  checkout / "perfbench" / "run.py")
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)  # pins BLAS to one thread, as the benchmark runs
    import fairsep.cli as cli
    if Path(cli.__file__).resolve().parent != (checkout / "src" / "fairsep").resolve():
        sys.exit(f"imported fairsep from {cli.__file__}, not from {checkout / 'src'}")
    logging.basicConfig(level=logging.INFO, handlers=[logging.NullHandler()])
    return run, cli


def manifest_fault(out_dir: Path, hashes: dict) -> str | None:
    """Why the manifest of ``out_dir``, whose files have the sha256 ``hashes``, does not
    list exactly the other files with theirs; None when it does or there is no file."""
    hashes = dict(hashes)
    if hashes and hashes.pop("manifest.json", None) is None:
        return f"{out_dir}: files but no manifest.json"
    if not hashes:
        return None
    try:
        entries = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["entries"]
        listed = {name: entry["sha256"] for name, entry in entries.items()}
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        return f"{out_dir}: manifest.json is malformed: {exc!r}"
    differ = sorted(n for n in listed.keys() | hashes.keys() if listed.get(n) != hashes.get(n))
    return f"{out_dir}: manifest.json disagrees with the files {differ}" if differ else None


def artifact_hashes(checkout: Path, seed: int, rows: int,
                    keep: Path | None = None) -> tuple[dict, list[str]]:
    """The hashes document, and each output directory whose manifest does not hold."""
    run, cli = load_benchmark(checkout)
    doc, faults = {"seed": seed, "rows": rows, "workloads": {}}, []
    if keep is not None:
        keep.mkdir(parents=True)  # a new directory, so no earlier file is hashed
    with contextlib.nullcontext(keep) if keep else tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        data = run.adultgen.generate(seed, Path("data"), rows=rows)
        for name, commands in sorted(run.WORKLOADS.items()):
            results = doc["workloads"][name] = []
            for cmd in commands(data, Path("out") / name):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(cmd.argv)
                files = sorted(p for p in cmd.out.rglob("*") if p.is_file())
                artifacts = {str(p.relative_to(cmd.out)): hashlib.sha256(p.read_bytes()).hexdigest()
                             for p in files}
                results.append({"command": cmd.id, "exit": code, "artifacts": artifacts})
                if fault := manifest_fault(cmd.out, artifacts):
                    faults.append(f"after {cmd.id}: {fault}")
        os.chdir(checkout)  # out of the directory before it is removed
    return doc, faults


def drift(old: str, new: str) -> str:
    """How far the numbers of ``new`` moved from ``old``, or the lines that differ besides."""
    if NUMBER.split(old) != NUMBER.split(new):
        lines = difflib.unified_diff(old.splitlines(), new.splitlines(), lineterm="", n=0)
        return "text differs:\n" + "\n".join(list(lines)[2:])
    pairs = [(float(a), float(b)) for a, b in zip(NUMBER.findall(old), NUMBER.findall(new))
             if a != b]
    moved = max(abs(a - b) for a, b in pairs)
    rel = max(abs(a - b) / max(abs(a), abs(b)) for a, b in pairs)
    return f"{len(pairs)} numbers differ, max abs {moved:.3g}, max rel {rel:.3g}"


def compare(old_root: Path, new_root: Path) -> list[str]:
    """One line per file that differs between two ``--keep`` directories."""
    names = {p.relative_to(root) for root in (old_root, new_root)
             for p in root.rglob("*") if p.is_file()}
    out = []
    for name in sorted(names):
        old, new = old_root / name, new_root / name
        if not (old.is_file() and new.is_file()):
            out.append(f"{name}: only in {old_root if old.is_file() else new_root}")
        elif old.read_bytes() != new.read_bytes():
            texts = (path.read_text(encoding="utf-8") for path in (old, new))
            out.append(f"{name}: {drift(*texts)}")
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--rows", type=int, default=48_842)
    ap.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="root of the fairsep checkout to run (default: this one)")
    ap.add_argument("--keep", type=Path, help="new directory to run in and leave the artifacts")
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("KEPT_A", "KEPT_B"),
                    help="print how far each differing file of two --keep directories moved")
    args = ap.parse_args()
    if args.compare:
        lines = compare(*args.compare)
        print("\n".join(lines) or "no file differs")
        sys.exit(1 if lines else 0)
    if args.seed is None:
        ap.error("--seed is required unless --compare is given")
    keep = args.keep.resolve() if args.keep else None
    doc, faults = artifact_hashes(args.checkout.resolve(), args.seed, args.rows, keep)
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    if faults:
        sys.exit("\n".join(faults))


if __name__ == "__main__":
    main()
