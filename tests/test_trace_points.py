"""The benchmark's span tracer wraps package names where callers look them up.

``perfbench/spans.py`` replaces ``owner.__dict__[attr]`` for every traced
call site; a refactor that moves or renames one of those names would make a
traced benchmark run fail, and one that stops calling it through that name
makes its span read zero, so each one is checked here.
"""

import importlib.util
import json
from pathlib import Path

import fairsep
import fairsep.charts
import fairsep.cli
import fairsep.privilege

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_where_it_is_wrapped():
    points = load_perfbench("spans").wrap_points(fairsep)
    assert points
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in points if attr not in owner.__dict__]
    assert missing == []


def test_every_traced_name_is_reached(tmp_path):
    spans = load_perfbench("spans")
    # each point under its own span name, so points sharing a stage are told apart
    points = [(owner, attr, f"{owner.__name__}.{attr}", None)
              for owner, attr, _, _ in spans.wrap_points(fairsep)]
    data = load_perfbench("adultgen").generate(5, tmp_path / "data", rows=1500)
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"train": {"max_iter": 2}, "learner": {"epochs": 20}}),
                      encoding="utf-8")
    common = ["--data", data["data"], "--schema", data["schema"]]
    scores = ["--predictions", data["predictions"]]
    out = {name: str(tmp_path / name) for name in
           ("csep", "relaxed", "train", "model", "extract", "sweep")}
    commands = [
        ["audit", *common, *scores, "--notion", "CSEP", "--conditional", "occupation",
         "--out", out["csep"]],
        ["report", "--out", out["csep"]],
        ["audit", *common, *scores, "--notion", "SEP_relaxed", "--out", out["relaxed"]],
        ["train", "--config", str(config), *common, "--notion", "DP", "--out", out["train"]],
        ["audit", *common, "--model", str(tmp_path / "train" / "model.json"),
         "--notion", "DP", "--out", out["model"]],
        ["extract-privilege", *common, "--group", "Male", "--repeats", "3",
         "--out", out["extract"]],
        ["sweep-p", *common, "--grid", "1:5", "--out", out["sweep"]],
    ]
    tracer = spans.Tracer(points)
    tracer.install()
    try:
        codes = [fairsep.cli.main(argv) for argv in commands]
    finally:
        tracer.uninstall()
    assert set(codes) <= {0, 1}  # an audit exits 1 when its aggregate is above epsilon
    reached = {span[0] for span in tracer.spans}
    # ``stats`` takes a row mask, so groupstats itself calls ``mask`` nowhere: every
    # subgroup mask is counted at ``cli.subgroup_mask`` and this one point reads zero.
    assert [name for _, _, name, _ in points if name not in reached] == \
        ["fairsep.groupstats.mask"]
