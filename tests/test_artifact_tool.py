"""tools/artifact_hashes.py: how far two kept artifact trees moved."""

import importlib.util
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
