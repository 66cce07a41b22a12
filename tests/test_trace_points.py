"""The benchmark's span tracer wraps package names where callers look them up.

``perfbench/spans.py`` replaces ``owner.__dict__[attr]`` for every traced
call site; a refactor that moves or renames one of those names would make a
traced benchmark run fail, so each one is checked here.
"""

import importlib.util
from pathlib import Path

import fairsep
import fairsep.charts
import fairsep.cli
import fairsep.privilege

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_is_defined_where_it_is_wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    points = spans.wrap_points(fairsep)
    assert points
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in points if attr not in owner.__dict__]
    assert missing == []
