"""Columnar ingest and integer-coded categoricals against row-by-row references.

``load_csv`` reads the file in chunks and parses each distinct raw string once
per file; ``reference_load`` below reads it one row and one field at a time, the
way the loader's contract is written, and names each error by the physical line
its row starts on.  Both must give the same table, or the same error, on every
input.  The split and the privilege cutoff are checked the same way against
string-keyed and brute-force references.
"""

from __future__ import annotations

import csv
import gc
import importlib.util
import math
import os
import random
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import fairsep
import fairsep.dataset as dataset
from fairsep import (DegenerateThresholdError, FairsepError, ParseError, Schema,
                     SchemaError, Table, load_csv, privilege_threshold, stratified_split)
from conftest import ROW_SCHEMA
from oracles import brute_privilege_cutoff

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # seeded fallback below
    given = None

NUMERIC = ("numerical", "ordinal")
CODED = ("protected", "categorical")


def reference_load(path, schema: Schema) -> Table:
    """One row and one field at a time: strip, drop on the missing marker,
    parse, and raise on the first faulty field in file order."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"{path}: empty file, header required")
        idx = {c.name: header.index(c.name) for c in schema.columns}
        raw: dict[str, list] = {c.name: [] for c in schema.columns}
        dropped, before = 0, reader.line_num
        for row in reader:
            lineno, before = before + 1, reader.line_num
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            values = {name: row[i].strip() for name, i in idx.items()}
            if schema.missing_marker in values.values():
                dropped += 1
                continue
            for spec in schema.columns:
                v = values[spec.name]
                where = f"{path}:{lineno}: column {spec.name!r}"
                if spec.kind in NUMERIC:
                    try:
                        x = float(v)
                    except ValueError:
                        raise ParseError(f"{where}: not a number: {v!r}")
                    if not math.isfinite(x):
                        raise ParseError(f"{where}: not a finite number: {v!r}")
                    raw[spec.name].append(x)
                elif spec.kind == "target":
                    if spec.positive_label is not None:
                        raw[spec.name].append(int(v == spec.positive_label))
                    elif v in ("0", "1"):
                        raw[spec.name].append(int(v))
                    else:
                        raise ParseError(
                            f"{path}:{lineno}: target {spec.name!r} value {v!r} is not 0/1 "
                            f"and the schema names no positive_label")
                else:
                    raw[spec.name].append(v)
    cols = {name: np.asarray(vals, dtype=object) for name, vals in raw.items()}
    return Table(schema, cols, dropped_rows=dropped)


def outcome(loader, path, schema):
    """What a loader made of the file: the table's content, or its error."""
    try:
        t = loader(path, schema)
    except (FairsepError, csv.Error, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)
    return (t.rows, t.dropped_rows,
            {c.name: t.column(c.name).tolist() for c in t.schema.columns},
            {c.name: t.levels(c.name) for c in t.schema.columns if c.kind in CODED})


def schema_for(positive_label, delimiter=","):
    return Schema.from_dict({"columns": [
        {"name": "g", "kind": "protected"},
        {"name": "x", "kind": "numerical", "tags": ["privilege"]},
        {"name": "o", "kind": "ordinal", "tags": ["effort"]},
        {"name": "c", "kind": "categorical"},
        {"name": "y", "kind": "target", "positive_label": positive_label},
    ], "delimiter": delimiter})


POOLS = {
    "g": ["F", " M ", "A B", "A|B", "x,y", "?"],
    "x": ["0", " 1.5 ", "10000", "-3", "1e3", "0", "0", " ? ", "nan", "inf", "abc"],
    "o": ["40", "20 ", " 60", "40", "?", "-inf"],
    "c": ["a", " a", "b", "c d", "q,r", "ghost", "? ", "a\nb"],
    "junk": ["zzz", "", " 1 ", "?", "a\nb"],
}
RARE = {"nan", "inf", "-inf", "abc", "2"}  # each file draws how often these occur


def random_csv(rng: random.Random, path: Path) -> Schema:
    """A small CSV with padding, quoting, blank lines, missing markers and,
    now and then, a malformed field or row."""
    positive_label = rng.choice([None, ">50K"])
    y_pool = [">50K", "<=50K", " >50K ", "?"] if positive_label else ["0", "1", " 1 ", " ?", "2"]
    pools = dict(POOLS, y=y_pool)
    names = list(pools)
    rng.shuffle(names)
    rare = rng.choice([0.0, 0.03, 0.3])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for _ in range(rng.randint(0, 30)):
            if rng.random() < 0.1:
                fh.write("\n")
            row = []
            for name in names:
                v = rng.choice(pools[name])
                while v in RARE and rng.random() > rare:
                    v = rng.choice(pools[name])
                row.append(v)
            if rng.random() < 0.01:
                row = row[:-1]
            writer.writerow(row)
    return schema_for(positive_label)


def check_loader_matches_reference(seed: int) -> None:
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        schema = random_csv(rng, path)
        with mock.patch.object(dataset, "CHUNK_ROWS", rng.randint(1, 9)):
            got = outcome(load_csv, path, schema)
        assert got == outcome(reference_load, path, schema)


if given is not None:
    test_load_csv_matches_row_reference = settings(
        max_examples=300, deadline=None, derandomize=True, database=None)(
        given(st.integers(0, 2**32 - 1))(check_loader_matches_reference))
else:
    test_load_csv_matches_row_reference = pytest.mark.parametrize(
        "seed", range(300))(check_loader_matches_reference)


PLAIN_POOLS = {
    "g": ["F", " M ", "A B", "?", "Married-civ-spouse", "Married-civ-spouse ", "\u00e9t\u00e9"],
    "x": ["0", " 1.5 ", "10000", "-3", "1e3", " ? ", "nan", "abc", "12345678", "123456789"],
    "o": ["40", "20 ", " 60", "?", "-inf", "4.0000000000000001", "4.0000000000000002"],
    "c": ["a", " a", "", "c d", "abcdefgh", "abcdefg", "abcdefgh1", "abcdefgh2", "? ", "\u65e5"],
    "junk": ["zzz", "", " 1 ", "?", "Outlying-US(Guam-USVI-etc)"],
}


def random_plain_csv(rng: random.Random, path: Path) -> Schema:
    """A small delimited file without quoting, and now and then one defect
    that makes it irregular or not plain: a blank line, a short or long row,
    a CRLF, a NUL, invalid UTF-8, a quote or a field over the csv limit."""
    positive_label = rng.choice([None, ">50K"])
    y_pool = [">50K", "<=50K", " >50K ", "?"] if positive_label else ["0", "1", " 1 ", " ?", "2"]
    pools = dict(PLAIN_POOLS, y=y_pool)
    names = list(pools)
    rng.shuffle(names)
    delim = rng.choice([",", ";", "\t"])
    lines = [names] + [[rng.choice(pools[name]) for name in names]
                       for _ in range(rng.choice([0, 1] + [rng.randint(2, 40)] * 4))]
    lines = [delim.join(line).encode() for line in lines]
    defect = rng.choice(["none"] * 6 + ["blank", "short", "long", "crlf", "nul", "utf8",
                                        "quote", "huge"])
    at = rng.randint(1, len(lines))
    if defect == "blank":
        lines.insert(at, b"")
    elif defect in ("short", "long") and at < len(lines):
        lines[at] = (lines[at].rsplit(delim.encode(), 1)[0] if defect == "short"
                     else lines[at] + delim.encode() + b"x")
    elif defect in ("nul", "utf8", "quote") and at < len(lines):
        lines[at] = lines[at] + {"nul": b"\0", "utf8": b"\xff", "quote": b'"'}[defect]
    elif defect == "huge":  # in the header now and then
        at = rng.randrange(len(lines))
        lines[at] = b"h" * (csv.field_size_limit() + 1) + lines[at]
    elif defect == "crlf":
        lines[at - 1] += b"\r"
    path.write_bytes(b"\n".join(lines) + (b"\n" if rng.random() < 0.8 else b""))
    return schema_for(positive_label, delim)


def check_plain_loader_matches_csv_path(seed: int) -> None:
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        schema = random_plain_csv(rng, path)
        with mock.patch.object(dataset, "CHUNK_BYTES", rng.choice([1, 7, 8, 9, 64, 1 << 19])):
            got = outcome(load_csv, path, schema)
        with mock.patch.object(dataset, "_read_plain", return_value=None):
            assert got == outcome(load_csv, path, schema)
        want = outcome(reference_load, path, schema)
        # the reference neither turns csv.Error into ParseError nor reads on
        # past its first fault to a field over the csv limit
        if want[0] != "Error" and "field limit" not in str(got[1]):
            assert got == want


if given is not None:
    test_plain_load_matches_csv_path_and_reference = settings(
        max_examples=300, deadline=None, derandomize=True, database=None)(
        given(st.integers(0, 2**32 - 1))(check_plain_loader_matches_csv_path))
else:
    test_plain_load_matches_csv_path_and_reference = pytest.mark.parametrize(
        "seed", range(300))(check_plain_loader_matches_csv_path)


def test_random_plain_csvs_reach_both_readers():
    # the plain generator must give files each reader takes, tables and errors
    readers, kinds = set(), set()
    plain = dataset._read_plain
    for seed in range(200):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            schema = random_plain_csv(random.Random(seed), path)
            readers.add(plain(path, schema) is None)
            got = outcome(load_csv, path, schema)
        kinds.add(got[0] if isinstance(got[0], str) else "table")
    assert readers == {True, False}
    assert {"table", "ParseError", "UnicodeDecodeError"} <= kinds


def test_plain_file_is_read_without_csv_reader(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("g,x,o,c,y\nF,1,2,a,0\nM,2,3,b,1\n", encoding="utf-8")
    with mock.patch.object(dataset.csv, "reader", side_effect=AssertionError("csv.reader")):
        t = load_csv(p, schema_for(None))
    assert t.rows == 2 and t.levels("c") == ["a", "b"] and t.column("x").tolist() == [1.0, 2.0]
    wide = "\u00e9" * (csv.field_size_limit() // 2 + 1)  # over the limit in bytes only
    for text in ('g,x,o,c,y\nF,1,2,"a",0\nM,2,3,b,1\n',
                 f"g,x,o,c,y\nF,1,2,{wide},0\nM,2,3,{wide},1\n"):
        p.write_text(text, encoding="utf-8")
        with mock.patch.object(dataset.csv, "reader", wraps=csv.reader) as reader:
            assert load_csv(p, schema_for(None)).levels("c") in (["a", "b"], [wide])
        assert reader.called  # csv reads a quoted file, and one with a line over its limit


@pytest.mark.parametrize("seed", range(50))
def test_plain_load_is_exact_when_every_field_shares_a_bucket(seed):
    # a zero mix puts all of a column's fields in one bucket, in file order,
    # so only the word comparison tells neighbouring strings apart
    with mock.patch.object(dataset, "_MIX", np.uint64(0)):
        check_plain_loader_matches_csv_path(seed)


@pytest.mark.parametrize("zero_mix", [False, True])
def test_alternating_fields_keep_their_codes_across_blocks(tmp_path, zero_mix):
    # neighbours that differ in every row, in the first word (c) or only in
    # the third (g), over blocks of about a hundred rows
    long = ["Married-civ-spouse", "Married-civ-spousf", "Married-civ-spouse-absent"]
    p = tmp_path / "alt.csv"
    p.write_text("g,x,o,c,y\n" + "".join(f"{long[i % 3]},{i % 5},{i % 2},{'AB'[i % 2]},{i % 2}\n"
                                         for i in range(3000)), encoding="utf-8")
    schema = schema_for(None)
    mix = np.uint64(0) if zero_mix else dataset._MIX
    with mock.patch.object(dataset, "_MIX", mix), mock.patch.object(dataset, "CHUNK_BYTES", 4096):
        assert dataset._read_plain(p, schema) is not None
        got = outcome(load_csv, p, schema)
    with mock.patch.object(dataset, "_read_plain", return_value=None):
        assert got == outcome(load_csv, p, schema)
    assert got[2]["c"] == ["A", "B"] * 1500 and got[2]["g"] == long * 1000


def adultgen_files(directory: Path, seed: int = 11) -> dict:
    """The benchmark's 48,842-row Adult-shaped CSV and schema, written to ``directory``."""
    spec = importlib.util.spec_from_file_location(
        "adultgen", Path(__file__).resolve().parent.parent / "perfbench" / "adultgen.py")
    adultgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(adultgen)
    return adultgen.generate(seed, directory)


def test_plain_and_csv_paths_agree_on_the_adult_shaped_table(tmp_path):
    data = adultgen_files(tmp_path)
    schema = Schema.from_json(data["schema"])
    assert os.path.getsize(data["data"]) > 4 * dataset.CHUNK_BYTES  # several blocks
    assert dataset._read_plain(Path(data["data"]), schema) is not None
    got = outcome(load_csv, data["data"], schema)
    with mock.patch.object(dataset, "_read_plain", return_value=None):
        assert got == outcome(load_csv, data["data"], schema)
    assert got[0] + got[1] == 48_842


def test_plain_load_peaks_below_twice_the_file(tmp_path):
    # the plain reader holds one block's bytes and scans at a time, so the
    # peak is the table and its codes, not a whole-file copy of each scan
    data = adultgen_files(tmp_path)
    schema = Schema.from_json(data["schema"])
    tracemalloc.start()
    try:
        table = load_csv(data["data"], schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.rows + table.dropped_rows == 48_842
    assert peak <= 2.0 * os.path.getsize(data["data"]), peak / os.path.getsize(data["data"])


@pytest.mark.parametrize("quote", ["", '"'])
def test_header_naming_a_schema_column_twice_is_a_schema_error(tmp_path, quote):
    # a quote in the header sends the file to csv.reader; both readers share the check
    p = tmp_path / "d.csv"
    p.write_text(f"g,x,o,{quote}c{quote},y,c\nF,1,2,a,0,b\nM,2,3,b,1,a\n", encoding="utf-8")
    with mock.patch.object(dataset.csv, "reader", wraps=csv.reader) as reader:
        with pytest.raises(SchemaError, match=r"named more than once in header: \['c'\]"):
            load_csv(p, schema_for(None))
    assert reader.called == bool(quote)


def test_random_csvs_reach_both_tables_and_errors():
    # the generator must exercise both sides of the comparison above
    kinds = set()
    for seed in range(200):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            schema = random_csv(random.Random(seed), path)
            got = outcome(reference_load, path, schema)
        kinds.add(got[1].split(": ", 1)[-1][:12] if isinstance(got[0], str) else "table")
    assert "table" in kinds and len(kinds) >= 4


def test_load_csv_edge_cases_match_reference(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(
        "junk, g ,x,o,c,y\n"
        "1, F ,  1.5 ,40,\"a,b\", >50K \n"
        "\n"
        "2,M,?,20,ghost,<=50K\n"         # 'ghost' occurs only in a dropped row
        "3,?,2,20,a,>50K\n"
        "4,M,3,?,a,x\n"
        "5,F,4,60,?,<=50K\n"
        "6,M,5,60,a, ? \n"
        "\n"
        "7,\"M\",6,40, a ,other\n",
        encoding="utf-8")
    schema = schema_for(">50K")
    for chunk in (1, 2, 3, 4096):
        with mock.patch.object(dataset, "CHUNK_ROWS", chunk):
            assert outcome(load_csv, p, schema) == outcome(reference_load, p, schema)
    t = load_csv(p, schema)
    assert t.rows == 2 and t.dropped_rows == 5
    assert t.levels("c") == ["a", "a,b"]
    assert t.levels("g") == ["F", "M"]
    assert t.column("x").tolist() == [1.5, 6.0]
    assert t.target.tolist() == [1, 0]


def test_load_csv_binary_target_without_positive_label(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("g,x,o,c,y\nF,1,2,a, 1\nM,2,3,b,0 \n", encoding="utf-8")
    schema = schema_for(None)
    assert outcome(load_csv, p, schema) == outcome(reference_load, p, schema)
    assert load_csv(p, schema).target.tolist() == [1, 0]


def test_load_csv_reports_the_first_faulty_line_across_chunks(tmp_path):
    p = tmp_path / "d.csv"
    lines = ["g,x,o,c,y"] + [f"F,{i},1,a,0" for i in range(10)]
    lines[5] = "M,1,1,a, ? "        # missing marker once stripped: dropped
    lines[7] = "M,1,inf,a,0"        # non-finite on line 8
    lines[9] = "M,1,1,a,2"          # bad target on line 10
    lines.append("M,1,1")           # short row on line 12
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for chunk in (1, 3, 8, 4096):
        with mock.patch.object(dataset, "CHUNK_ROWS", chunk):
            with pytest.raises(ParseError, match=r"d\.csv:8: column 'o': not a finite number"):
                load_csv(p, schema_for(None))


def test_load_csv_reports_physical_lines_after_multi_line_fields(tmp_path):
    p = tmp_path / "d.csv"
    head = 'g,x,o,c,y\nF,1,2,"a\nb",0\n\nM,2,3,b,1\n'   # record 1 spans lines 2-3
    for body, want in (("M,x,3,b,1\n", r"d\.csv:6: column 'x': not a number: 'x'"),
                       ('F,"1\n2",3,b,1\n', r"d\.csv:6: column 'x': not a number: '1\\n2'"),
                       ("M,2,3\n", r"d\.csv:6: expected 5 fields, got 3"),
                       ('M,2,3,"c\n\nd",1\nF,2,?,b\n', r"d\.csv:9: expected 5 fields, got 4")):
        p.write_text(head + body, encoding="utf-8")
        for chunk in (1, 2, 1024):
            with mock.patch.object(dataset, "CHUNK_ROWS", chunk):
                with pytest.raises(ParseError, match=want):
                    load_csv(p, schema_for(None))
                assert outcome(load_csv, p, schema_for(None)) == outcome(reference_load, p,
                                                                        schema_for(None))


def test_load_csv_parses_each_distinct_raw_string_once_per_file(tmp_path):
    p = tmp_path / "d.csv"
    rng = random.Random(3)
    pools = [["F", " M ", "M", "A B"], ["0", " 1.5 ", "1.5", "1e3"], ["40", "20 ", " 60"],
             ["a", " a", "b", "a\nb", "q,r"], ["0", "1", " 1 "]]
    rows = [[rng.choice(pool) for pool in pools] for _ in range(200)]
    with open(p, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([list("gxocy")] + rows)
    distinct = {name: len({r[j] for r in rows}) for j, name in enumerate("gxocy")}
    assert max(distinct.values()) < len(rows) / 4
    schema = schema_for(None)
    for chunk in (1, 3, 1024):
        calls = []

        def counted(spec, value, levels, parse=dataset._parse_field):
            calls.append(spec.name)
            return parse(spec, value, levels)

        with mock.patch.object(dataset, "CHUNK_ROWS", chunk), \
                mock.patch.object(dataset, "_parse_field", counted):
            assert load_csv(p, schema).rows == len(rows)
        assert {name: calls.count(name) for name in distinct} == distinct


def test_load_csv_leaves_the_collector_as_it_found_it(tmp_path):
    good, bad, huge = tmp_path / "good.csv", tmp_path / "bad.csv", tmp_path / "huge.csv"
    good.write_text("g,x,o,c,y\nF,1,2,a,0\nM,2,3,b,1\n", encoding="utf-8")
    bad.write_text("g,x,o,c,y\nF,1,2,a,0\nM,x,3,b,1\n", encoding="utf-8")
    huge.write_text("g,x,o,c,y\nF,1,2," + "a" * (csv.field_size_limit() + 1) + ",0\n",
                    encoding="utf-8")
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            assert load_csv(good, schema_for(None)).rows == 2
            assert gc.isenabled() is enabled
            with pytest.raises(ParseError):
                load_csv(bad, schema_for(None))
            assert gc.isenabled() is enabled
            with pytest.raises((csv.Error, FairsepError)):  # raised inside the read loop
                load_csv(huge, schema_for(None))
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_load_csv_reports_unreadable_records_with_their_line(tmp_path):
    p = tmp_path / "d.csv"
    huge = "a" * (csv.field_size_limit() + 1)  # 131,073 characters by default
    cases = ((f"g,x,o,c,y\nF,1,2,a,0\n\nM,2,3,{huge},1\n", 4),
             (f"g,x,o,{huge},y\n", 1),
             (f"g,x,o,c,y\nM,2,3\nF,x,2,a,0\nM,2,3,{huge},1\n", 4))  # ahead of other faults
    for text, line in cases:
        p.write_text(text, encoding="utf-8")
        want = rf"d\.csv:{line}: field larger than field limit"
        for chunk in (1, 2, 1024):
            with mock.patch.object(dataset, "CHUNK_ROWS", chunk):
                with pytest.raises(ParseError, match=want):
                    load_csv(p, schema_for(None))


def test_header_only_file_gives_an_empty_table(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("g,x,o,c,y\n\n", encoding="utf-8")
    t = load_csv(p, schema_for(None))
    assert t.rows == 0 and t.levels("c") == [] and t.column("c").tolist() == []


@pytest.mark.parametrize("marker, dropped", [
    ("?", 3), (" ?", 0), (" ", 0), ("NA", 1), ("\u00e9", 1), ("", 1), ("1,", 0)])
def test_projected_load_drops_the_rows_a_full_load_drops(tmp_path, marker, dropped):
    # the marker inside a value, padded, in a column outside the schema, in
    # the kept column g, and in c, which the projection leaves uncoded
    p = tmp_path / "d.csv"
    p.write_text("junk,g,x,o,c,y\n?,F,1,2,a?b,0\n1,M,2,3, ? ,1\n2,F,3,4,?,0\n3,M,4,5, NA,1\n"
                 "4,F,5,6,\u00e9,0\n5,M,6,7,,1\n6,?,7,8,a,0\n7,F,8,9,\u00e9t\u00e9,1\n",
                 encoding="utf-8")
    schema = replace(schema_for(None), missing_marker=marker)
    full = outcome(load_csv, p, schema)
    with mock.patch.object(dataset.csv, "reader", side_effect=AssertionError("csv.reader")):
        got = outcome(partial(load_csv, columns={"g"}), p, schema)
    assert got[:2] == full[:2] == (8 - dropped, dropped)
    assert got[2] == {k: v for k, v in full[2].items() if k != "c"}
    assert got[3] == {"g": full[3]["g"]}


PROJECTION_MARKERS = ["?", "NA", "\u00e9", "x,y", " ", " ?", ""]


def check_projected_load_matches_full_load(seed: int) -> None:
    """A load of some coded columns equals the full load without the others,
    from either reader, with each '?' of a reference file rewritten as the
    marker alone, padded or inside a value."""
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        schema = rng.choice([random_plain_csv, random_csv])(rng, path)
        marker = rng.choice(PROJECTION_MARKERS)
        schema = replace(schema, missing_marker=marker)
        if marker and schema.delimiter not in marker:
            first, *rest = path.read_bytes().split(b"?")
            subs = [marker, f" {marker} ", f"a{marker}b"]
            path.write_bytes(first + b"".join(rng.choice(subs).encode() + r for r in rest))
        coded = [c.name for c in schema.columns if c.kind in CODED]
        columns = set(rng.sample(coded, rng.randint(0, len(coded))))
        held = [c.name for c in schema.columns if c.kind not in CODED or c.name in columns]
        for patch in ({"wraps": dataset._read_plain}, {"return_value": None}):
            with mock.patch.object(dataset, "_read_plain", **patch):
                full = outcome(load_csv, path, schema)
                got = outcome(partial(load_csv, columns=columns), path, schema)
            if isinstance(full[0], str):
                # only a held protected column is checked for two levels
                assert got == full or ("g" not in columns and "fewer than 2" in full[1])
                continue
            assert got == (full[0], full[1], {k: full[2][k] for k in held},
                           {k: full[3][k] for k in held if k in full[3]})
            assert full[1] == 0 or marker not in (" ", " ?")


if given is not None:
    test_projected_load_matches_full_load = settings(
        max_examples=300, deadline=None, derandomize=True, database=None)(
        given(st.integers(0, 2**32 - 1))(check_projected_load_matches_full_load))
else:
    test_projected_load_matches_full_load = pytest.mark.parametrize(
        "seed", range(300))(check_projected_load_matches_full_load)


# ---------------------------------------------------------------------------
# Table codes and levels
# ---------------------------------------------------------------------------

def _table(groups, cats, levels=None):
    n = len(groups)
    return Table(ROW_SCHEMA, {"group": groups, "xp": np.arange(n, dtype=float),
                              "xe": np.ones(n), "cat": cats, "y": np.zeros(n, int)},
                 levels=levels)


def test_categoricals_are_stored_as_codes_and_decoded_on_demand():
    t = _table(np.array(["M", "F", "M"], dtype=object), ["b", "a", "b"])
    assert t.levels("group") == ["F", "M"]
    assert t.codes("group").dtype == np.int32
    assert t.codes("group").tolist() == [1, 0, 1]
    assert t.column("cat").tolist() == ["b", "a", "b"]
    assert t.mask("cat", "b").tolist() == [True, False, True]
    assert not t.mask("cat", "absent").any()
    for name in ("xp", "y"):  # numeric and target columns are not coded
        for read in (t.levels, t.codes, lambda n: t.mask(n, 1.0)):
            with pytest.raises(SchemaError, match="protected or categorical"):
                read(name)


def test_coded_columns_are_sorted_and_compacted():
    t = _table(np.array([0, 2, 0]), ["a", "a", "a"], levels={"group": ["M", "unused", "F"]})
    assert t.levels("group") == ["F", "M"]
    assert t.column("group").tolist() == ["M", "F", "M"]


def test_take_compacts_levels_to_the_rows_kept():
    t = _table(np.array(["F", "M", "M", "F"], dtype=object), ["a", "b", "c", "b"])
    picked = t.take(np.array([True, True, False, True]))
    assert picked.levels("cat") == ["a", "b"]
    assert picked.column("cat").tolist() == ["a", "b", "b"]
    assert picked.codes("cat").tolist() == [0, 1, 1]
    assert picked.take(np.array([1, 2])).levels("cat") == ["b"]


# ---------------------------------------------------------------------------
# Split and privilege cutoff against references
# ---------------------------------------------------------------------------

def reference_split(table, test_fraction, seed):
    """Strata keyed by the "group|target" string, visited in string order."""
    prot = table.schema.protected
    keys = np.asarray([f"{g}|{t}" for g, t in zip(table.column(prot.name), table.target)],
                      dtype=object)
    rng = np.random.default_rng(seed)
    test = np.zeros(table.rows, dtype=bool)
    for key in sorted(set(keys)):
        idx = np.flatnonzero(keys == key)
        rng.shuffle(idx)
        test[idx[:int(round(len(idx) * test_fraction))]] = True
    return ~test, test


def test_stratified_split_matches_string_key_reference():
    # "A B|0" < "A|0" < "A|0|1" < "A|1" as strings, unlike (group, target) order
    rng = np.random.default_rng(5)
    groups = rng.choice(["A", "A B", "A|0", "B"], size=200).astype(object)
    y = rng.integers(0, 2, size=200)
    t = Table(ROW_SCHEMA, {"group": groups, "xp": np.zeros(200), "xe": np.zeros(200),
                           "cat": ["a"] * 200, "y": y})
    for seed in range(5):
        for got, want in zip(stratified_split(t, 0.3, seed), reference_split(t, 0.3, seed)):
            np.testing.assert_array_equal(got, want)


def test_privilege_threshold_matches_brute_force_under_heavy_ties():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        xp = rng.choice([0.0, 0.0, 0.0, 1.0, 2.5, 7.0], size=n)[:n]
        xp = np.where(rng.random(n) < 0.2, rng.integers(0, 4, n).astype(float), xp)
        t = Table(ROW_SCHEMA, {"group": ["F", "M"] * (n // 2) + ["F"] * (n % 2),
                               "xp": xp, "xe": np.zeros(n), "cat": ["a"] * n,
                               "y": np.zeros(n, int)})
        p = float(rng.choice([1, 5, 10, 25, 33.3, 50, 75, 99]))
        want = brute_privilege_cutoff(xp.tolist(), p)
        try:
            th = privilege_threshold(t, p)
        except DegenerateThresholdError:
            assert want is None
            continue
        assert (th.privilege_cutoff, th.realized_fraction) == want


# ---------------------------------------------------------------------------
# Runtime dependencies
# ---------------------------------------------------------------------------

def test_cli_audit_imports_only_numpy_among_heavy_modules(tmp_path):
    script = textwrap.dedent("""
        import sys
        from fairsep.bundled import toy8_paths
        from fairsep.cli import main
        data, schema = toy8_paths()
        rc = main(["audit", "--data", str(data), "--schema", str(schema), "--notion", "SEP",
                   "--p", "25", "--predictions", "ground_truth", "--out", sys.argv[1]])
        heavy = sorted(m for m in sys.modules
                       if m.split(".")[0] in ("scipy", "pandas", "pyarrow"))
        print(rc, heavy)
    """)
    src = str(Path(fairsep.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "run")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    rc, heavy = done.stdout.strip().splitlines()[-1].split(" ", 1)
    assert rc in ("0", "1") and heavy == "[]"


def test_importing_the_cli_leaves_out_the_network_modules():
    # every fresh interpreter pays for what `import fairsep.cli` pulls in
    src = str(Path(fairsep.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    script = ("import sys, fairsep.cli\n"
              "print(sorted({'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
