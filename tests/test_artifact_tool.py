"""tools/artifact_hashes.py: how far two kept artifact trees moved, and manifest checks."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_hashes.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("artifact_hashes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_compare_reports_number_drift_and_text_changes(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    files = {
        "same.csv": ("a,1.5\n", "a,1.5\n"),
        "model.json": ('{"w": [1.0, -2e-05], "n": 3}\n', '{"w": [1.25, -2.5e-05], "n": 3}\n'),
        "stats.csv": ("group,ppr\nF,0.5\n", "group,ppr\nM,0.5\n"),
        "manifest.json": ('{"sha256": "3a5f"}\n', '{"sha256": "4a5f"}\n'),
    }
    for name, (a, b) in files.items():
        for root, text in ((old, a), (new, b)):
            (root / "out").mkdir(parents=True, exist_ok=True)
            (root / "out" / name).write_text(text, encoding="utf-8")
    (new / "out" / "extra.md").write_text("x\n", encoding="utf-8")
    tool = _load_tool()
    lines = "\n".join(tool.compare(old, new))
    assert "same.csv" not in lines
    assert "out/model.json: 2 numbers differ, max abs 0.25, max rel 0.2\n" in lines
    assert "out/stats.csv: text differs:\n@@ -2 +2 @@\n-F,0.5\n+M,0.5" in lines
    assert '-{"sha256": "3a5f"}\n+{"sha256": "4a5f"}' in lines  # a digest is text, not a number
    assert f"out/extra.md: only in {new}" in lines
    assert tool.compare(old, old) == []


def test_compare_exits_1_when_any_file_differs_or_is_missing(tmp_path, monkeypatch, capsys):
    tool = _load_tool()
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        root.mkdir()
        (root / "stats.csv").write_text("a,1\n", encoding="utf-8")

    def exit_code(a, b):
        monkeypatch.setattr("sys.argv", ["artifact_hashes.py", "--compare", str(a), str(b)])
        with pytest.raises(SystemExit) as stop:
            tool.main()
        return stop.value.code

    assert exit_code(old, new) == 0
    assert capsys.readouterr().out == "no file differs\n"
    (new / "extra.md").write_text("x\n", encoding="utf-8")
    assert exit_code(old, new) == 1
    (new / "extra.md").unlink()
    (new / "stats.csv").write_text("a,2\n", encoding="utf-8")
    assert exit_code(old, new) == 1
    assert "stats.csv: 1 numbers differ" in capsys.readouterr().out


def test_each_output_directory_must_hold_what_its_manifest_lists(tmp_path, monkeypatch, capsys):
    tool = _load_tool()
    out = tmp_path / "out"
    out.mkdir()
    (out / "stats.csv").write_text("a,1\n", encoding="utf-8")
    digest = hashlib.sha256(b"a,1\n").hexdigest()

    def fault(entries):
        (out / "manifest.json").write_text(json.dumps({"entries": entries}), encoding="utf-8")
        return tool.manifest_fault(out, {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                         for p in out.iterdir()})

    assert tool.manifest_fault(tmp_path / "none", {}) is None
    assert fault({"stats.csv": {"sha256": digest}}) is None
    for entries in ({}, {"stats.csv": {"sha256": "0" * 64}},
                    {"stats.csv": {"sha256": digest}, "gone.md": {"sha256": digest}}):
        assert fault(entries).startswith(f"{out}: manifest.json disagrees with the files")
    assert "is malformed" in fault([1])
    (out / "manifest.json").unlink()
    assert tool.manifest_fault(out, {"stats.csv": digest}) == f"{out}: files but no manifest.json"

    # the hashes still print; the run then exits 1, naming each directory that failed
    monkeypatch.setattr(tool, "artifact_hashes",
                        lambda *args: ({"seed": 1}, [f"after audit: {out}: no manifest.json"]))
    monkeypatch.setattr("sys.argv", ["artifact_hashes.py", "--seed", "1"])
    with pytest.raises(SystemExit) as stop:
        tool.main()
    assert stop.value.code == f"after audit: {out}: no manifest.json"
    assert json.loads(capsys.readouterr().out) == {"seed": 1}
