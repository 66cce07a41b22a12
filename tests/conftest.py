import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fairsep import Schema, load_csv
from fairsep.dataset import Table
from fairsep.bundled import adult_schema_path, toy8_paths

# Generic schema for in-memory metric tests: group / privilege / effort /
# category / target — matches the row dicts the brute-force oracle consumes.
ROW_SCHEMA = Schema.from_dict({
    "columns": [
        {"name": "group", "kind": "protected"},
        {"name": "xp", "kind": "numerical", "tags": ["privilege"]},
        {"name": "xe", "kind": "numerical", "tags": ["effort"]},
        {"name": "cat", "kind": "categorical"},
        {"name": "y", "kind": "target"},
    ]
})


def rows_to_table(rows) -> Table:
    return Table(ROW_SCHEMA, {
        "group": np.array([r["group"] for r in rows], dtype=object),
        "xp": np.array([r["xp"] for r in rows], dtype=np.float64),
        "xe": np.array([r["xe"] for r in rows], dtype=np.float64),
        "cat": np.array([r["cat"] for r in rows], dtype=object),
        "y": np.array([r["y"] for r in rows], dtype=np.int64),
    })


def adultgen_files(directory: Path, seed: int = 11, **kw) -> dict:
    """The benchmark's Adult-shaped CSV and schema, 48,842 rows unless ``rows`` says
    otherwise, written to ``directory``."""
    spec = importlib.util.spec_from_file_location(
        "adultgen", Path(__file__).resolve().parent.parent / "perfbench" / "adultgen.py")
    adultgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(adultgen)
    return adultgen.generate(seed, directory, **kw)


def scores_of(rows) -> np.ndarray:
    return np.array([r["h"] for r in rows], dtype=np.float64)


@pytest.fixture(scope="session")
def toy8() -> Table:
    csv_path, schema_path = toy8_paths()
    return load_csv(csv_path, Schema.from_json(schema_path))


def load_adult_or_skip() -> Table:
    """The census file is not redistributable here; fetch it per the README."""
    import pathlib
    path = pathlib.Path(__file__).resolve().parent.parent / "data" / "adult.csv"
    if not path.exists():
        pytest.skip(
            "data/adult.csv not present — download the census income dataset "
            "and run `fairsep ingest-adult` as described in the README"
        )
    return load_csv(path, Schema.from_json(adult_schema_path()))
