"""tools/command_peaks.py: each benchmark command's traced peak, run in process."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "command_peaks.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          timeout=300)


def test_prints_each_command_of_the_workload_with_its_peak():
    done = run_tool("--workload", "discover", "--seed", "11", "--rows", "1500")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split("MiB  ")[1] for line in lines] == ["extract-privilege", "sweep-p"]
    for line in lines:
        code, peak = re.fullmatch(r"exit (\d+) +([\d.]+) MiB  .+", line).groups()
        assert code == "0" and 0 < float(peak) < 50, line


def test_an_unknown_workload_names_the_choices():
    done = run_tool("--workload", "nope", "--seed", "1", "--rows", "1500")
    assert done.returncode == 1 and "unknown workload 'nope'" in done.stderr
    assert "'discover'" in done.stderr
