"""tools/artifact_hashes.py: how far two kept artifact trees moved."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_hashes.py"


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
    spec = importlib.util.spec_from_file_location("artifact_hashes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    lines = "\n".join(tool.compare(old, new))
    assert "same.csv" not in lines
    assert "out/model.json: 2 numbers differ, max abs 0.25, max rel 0.2\n" in lines
    assert "out/stats.csv: text differs:\n@@ -2 +2 @@\n-F,0.5\n+M,0.5" in lines
    assert '-{"sha256": "3a5f"}\n+{"sha256": "4a5f"}' in lines  # a digest is text, not a number
    assert f"out/extra.md: only in {new}" in lines
    assert tool.compare(old, old) == []
