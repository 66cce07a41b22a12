"""Typed tabular ingestion, feature encoding, and privilege/effort thresholds.

A Table is an immutable columnar dataset described by a Schema.  Column kinds:

* ``protected``   categorical column naming demographic groups (>= 2 levels)
* ``categorical`` unordered string column
* ``ordinal``     numeric column with a meaningful order
* ``numerical``   numeric column
* ``target``      binary outcome, stored as 0/1

``privilege`` and ``effort`` are tags layered on a numerical or ordinal
column; they mark the columns the socio-economic notions read.

``FeatureEncoder`` turns a Table into a ``Design``: a standardized numeric
block, each row's index into the distinct tuples of its categorical level
codes, and each categorical's code per tuple; never the mostly-zero one-hot
matrix.  Its products X @ w, X^T r and X^T diag(s) X take the numeric block's
product plus one gather or ``np.bincount`` per row (one per numeric column
more for the Gram matrix), and do all their categorical work over the tuples.
"""

from __future__ import annotations

import csv
import gc
import itertools
import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import partial, reduce
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import (REQUIRED, DegenerateThresholdError, EncodingError, ParseError, SchemaError,
                     checked, read_json, utf8_lines)

log = logging.getLogger(__name__)

KINDS = ("protected", "categorical", "ordinal", "numerical", "target")
TAGS = ("privilege", "effort")
NUMERIC_KINDS = ("ordinal", "numerical")
CODED_KINDS = ("protected", "categorical")
CHUNK_ROWS = 1024
CHUNK_BYTES = 1 << 19
# masks keeping the low 0..8 bytes of a little-endian uint64 word
_WORD_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so invertible mod 2**64; mixes a field's words
# a word's bytes are all ASCII digits iff (w & _HIGH) | ((w + _SIXES) & _HIGH) >> 4 == _THREES
_ZEROS, _HIGH, _SIXES, _THREES = (np.uint64(0x0101010101010101 * b) for b in (0x30, 0xF0, 6, 0x33))

# Effort scopes, ordered from coarse to fine; a cell with fewer than
# MIN_CELL_ROWS rows inherits the mean of its parent scope.
EFFORT_SCOPES = ("global", "per_group", "per_category_group")
MIN_CELL_ROWS = 2
# The keys of a schema document and of each of its columns; a key declared
# without a default takes that of Schema or ColumnSpec.
SCHEMA = {"columns": ("a list of objects", REQUIRED), "missing_marker": "a string",
          "delimiter": "a string"}
COLUMN = {"name": ("a string", REQUIRED), "kind": ("a string", REQUIRED),
          "tags": "a list of strings", "positive_label": ("a string", None)}


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    tags: tuple[str, ...] = ()
    positive_label: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")
        for tag in self.tags:
            if tag not in TAGS:
                raise SchemaError(f"column {self.name!r}: unknown tag {tag!r}")
            if self.kind not in NUMERIC_KINDS:
                raise SchemaError(
                    f"column {self.name!r}: tag {tag!r} requires an ordinal or "
                    f"numerical column, got kind {self.kind!r}"
                )
        if self.positive_label is not None and self.kind != "target":
            raise SchemaError(f"column {self.name!r}: positive_label is a target-only field")


@dataclass(frozen=True)
class Schema:
    columns: tuple[ColumnSpec, ...]
    missing_marker: str = "?"
    delimiter: str = ","

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in schema")
        targets = [c for c in self.columns if c.kind == "target"]
        if len(targets) != 1:
            raise SchemaError(f"schema needs exactly one target column, found {len(targets)}")

    def __getitem__(self, name: str) -> ColumnSpec:
        for c in self.columns:
            if c.name == name:
                return c
        raise SchemaError(f"no column {name!r} in schema")

    @property
    def target(self) -> ColumnSpec:
        return next(c for c in self.columns if c.kind == "target")

    @property
    def protected(self) -> ColumnSpec | None:
        return next((c for c in self.columns if c.kind == "protected"), None)

    def tagged(self, tag: str) -> ColumnSpec | None:
        hits = [c for c in self.columns if tag in c.tags]
        if len(hits) > 1:
            raise SchemaError(f"tag {tag!r} appears on more than one column")
        return hits[0] if hits else None

    def tagged_name(self, tag: str, column: str | None = None) -> str:
        """``column``, or else the name of the column tagged ``tag``."""
        if column is None and (spec := self.tagged(tag)) is None:
            raise SchemaError(f"no column tagged {tag!r} and none named")
        return spec.name if column is None else column

    @classmethod
    def from_dict(cls, doc: dict) -> "Schema":
        doc = checked(doc, SCHEMA, "schema key", SchemaError)
        if len(doc.get("delimiter", ",")) != 1:
            raise SchemaError(f"schema 'delimiter' must be one character, got {doc['delimiter']!r}")
        columns = tuple(ColumnSpec(**checked(raw, COLUMN, "schema column key", SchemaError))
                        for raw in doc.pop("columns"))
        return cls(columns, **doc)

    @classmethod
    def from_json(cls, path: str | Path) -> "Schema":
        return cls.from_dict(read_json(path, "schema", SchemaError))


class Table:
    """Immutable columnar dataset; numeric columns are float64, target is int64.

    Protected and categorical columns are stored as sorted levels plus an
    int32 code per row (``column`` decodes them).  They are supplied as values,
    or as int codes into ``levels[name]``, whose entries need be neither sorted
    nor all in use (int32 codes into sorted levels all in use are kept, not copied).
    """

    def __init__(self, schema: Schema, columns: dict[str, np.ndarray], dropped_rows: int = 0,
                 levels: dict[str, list] | None = None):
        self.schema = schema
        self._columns = {}
        self._levels: dict[str, list] = {}
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        self.rows = lengths.pop() if lengths else 0
        self.dropped_rows = dropped_rows
        for spec in schema.columns:
            if spec.name not in columns:
                raise SchemaError(f"column {spec.name!r} declared but not supplied")
            arr = columns[spec.name]
            if spec.kind in NUMERIC_KINDS:
                arr = np.asarray(arr, dtype=np.float64)
            elif spec.kind == "target":
                arr = np.asarray(arr, dtype=np.int64)
            else:
                lv, arr = (_compact(levels[spec.name], arr) if levels and spec.name in levels else
                           np.unique(np.asarray(arr, dtype=object), return_inverse=True))
                self._levels[spec.name], arr = list(lv), np.asarray(arr, np.int32)
            arr.setflags(write=False)
            self._columns[spec.name] = arr
        if self.rows and not np.isin(self.target, (0, 1)).all():
            raise SchemaError("target column holds values outside {0, 1}")
        prot = self.schema.protected
        if prot is not None and self.rows and len(self._levels[prot.name]) < 2:
            raise SchemaError(f"protected column {prot.name!r} has fewer than 2 distinct values")

    def column(self, name: str) -> np.ndarray:
        try:
            arr = self._columns[name]
        except KeyError:
            raise SchemaError(f"no column {name!r} in table")
        return np.asarray(self._levels[name], dtype=object)[arr] if name in self._levels else arr

    @property
    def target(self) -> np.ndarray:
        return self._columns[self.schema.target.name]

    def levels(self, name: str) -> list:
        """Sorted distinct values of a protected or categorical column."""
        return list(self._coded(name))

    def codes(self, name: str) -> np.ndarray:
        """Each row's index into ``levels(name)``."""
        self._coded(name)
        return self._columns[name]

    def mask(self, name: str, value) -> np.ndarray:
        """Rows whose protected or categorical ``name`` column holds ``value``."""
        levels = self._coded(name)
        return self._columns[name] == (levels.index(value) if value in levels else -1)

    def _coded(self, name: str) -> list:
        if name not in self._levels:
            raise SchemaError(f"column {name!r} is {self.schema[name].kind}; levels, "
                              f"codes and masks need a protected or categorical column")
        return self._levels[name]

    def take(self, index: np.ndarray) -> "Table":
        """New Table of the rows a boolean mask or index array selects; categorical
        levels shrink to the values those rows hold."""
        index = _row_index(index)  # one mask scan, not one per column
        cols = {name: arr[index] for name, arr in self._columns.items()}
        return Table(self.schema, cols, dropped_rows=0, levels=self._levels)

    def project(self, columns) -> "Table":
        """The same rows with only the named columns and the target, sharing their arrays."""
        schema = _projected(self.schema, columns)
        return Table(schema, {c.name: self._columns[c.name] for c in schema.columns},
                     self.dropped_rows, self._levels)


def _row_index(rows) -> np.ndarray | slice:
    """The index of the rows a boolean mask or an index selects; None selects every row."""
    if rows is None:
        return slice(None)
    return np.flatnonzero(rows) if np.asarray(rows).dtype == bool else rows


def _projected(schema: Schema, columns) -> Schema:
    """``schema`` narrowed to the named columns (None: all of them) and the target."""
    return replace(schema, columns=tuple(c for c in schema.columns if columns is None
                                         or c.kind == "target" or c.name in columns))


def _compact(levels: list, codes: np.ndarray, counts=None) -> tuple[list, np.ndarray]:
    """The levels some code with a ``counts`` above 0 (default: each) points at, sorted,
    and the codes renumbered to them: ``codes`` itself when they already are."""
    kept = sorted(np.flatnonzero(np.bincount(codes, counts, len(levels))), key=levels.__getitem__)
    if np.array_equal(kept, np.arange(len(levels))):
        return levels, codes
    renumber = np.zeros(len(levels), dtype=np.int32)
    renumber[kept] = np.arange(len(kept))
    return [levels[i] for i in kept], renumber[codes]


def load_csv(path: str | Path, schema: Schema, columns=None) -> Table:
    """Read a delimited file into a Table.

    Only the schema's columns are kept.  Rows holding the missing marker in any
    schema column are dropped and counted.  Fields are stripped of surrounding
    whitespace before use.  Target values are binarized: raw values equal to
    ``positive_label`` map to 1, everything else to 0; without a
    ``positive_label`` the raw values must already be 0/1.  Numeric values
    must be finite.  A plain file (UTF-8 without quote, CR or NUL bytes, and
    ``len(header)`` fields on every line) is read ``CHUNK_BYTES`` at a time by
    numpy byte scans, any other by ``csv.reader``, ``CHUNK_ROWS`` records at a
    time.  Each field is coded by its raw string; each column's distinct raw
    strings are parsed once per file.  The first faulty kept row or short/long
    row raises ``ParseError`` naming the physical line the row starts on; a
    record the ``csv`` module cannot read, or a line that is not UTF-8, raises
    it first, naming the line.  ``columns`` (default: all) names the columns to
    keep, of any kind, and the target is always kept; the Table's schema lists
    only what it holds.  Every schema column is still checked: its missing
    markers drop rows, and an unkept numeric column is parsed, not stored.  A
    load holds at its peak one block's scans plus the held columns' kept codes.
    """
    path = Path(path)
    held = (projected := _projected(schema, columns)).columns
    fold = _read_plain(path, schema, _Fold(schema, held)) or _read_records(
        path, schema, _Fold(schema, held))
    if fold.fault:
        row, message = fold.fault
        with open(path, "r", encoding="utf-8", newline="") as fh:  # re-read for its line
            reader = csv.reader(fh, delimiter=schema.delimiter)
            ends = [(reader.line_num, bool(record)) for record in reader]
        starts = [end + 1 for (end, _), (_, kept) in zip(ends, ends[1:]) if kept]
        raise ParseError(f"{path}:{starts[row]}: {message}")
    if fold.dropped:
        log.info("%s: dropped %d rows containing missing marker %r", path, fold.dropped,
                 schema.missing_marker)
    cols, levels = {}, {}
    for i, (spec, parsed) in enumerate(zip(schema.columns, fold.parsed)):
        if spec in held:  # one column's codes at a time, each block's freed once gathered
            codes, fold.kept[i] = np.concatenate(fold.kept[i]), None
            values = np.array([v for v, _ in parsed], float if spec.kind in NUMERIC_KINDS
                              else np.int64 if spec.kind == "target" else np.int32)
            if spec.kind in CODED_KINDS:  # renumbered to the levels in use before the gather
                levels[spec.name], values = _compact(list(fold.levels[spec.name]), values,
                                                     np.bincount(codes, minlength=len(values)))
            cols[spec.name] = values[codes]
    return Table(projected, cols, dropped_rows=fold.dropped, levels=levels)


class _Fold:
    """A load's state, given by either reader each column's raw strings so far (in code
    order) and one block's codes.  It marks and parses each new string once (an unkept
    coded column's only as the marker or not), drops the block's marker rows, records
    its first fault among the rest, and keeps their codes for the held columns only."""

    def __init__(self, schema: Schema, held: tuple):
        self.schema, self.held, self.rows, self.dropped, self.fault = schema, held, 0, 0, None
        self.levels = {c.name: {} for c in held if c.kind in CODED_KINDS}
        self.parse = [partial(_parse_field, c, levels=self.levels.get(c.name)) if c in held
                      or c.kind not in CODED_KINDS else lambda v: (0, None) for c in schema.columns]
        self.parsed: list[list] = [[] for _ in schema.columns]  # (value, error) per string
        self.status = [np.zeros(0, np.int8) for _ in schema.columns]  # 1 marker, 2 fault
        self.kept = [[np.zeros(0, np.int32)] if c in held else None for c in schema.columns]

    def __call__(self, distinct: list, codes: list) -> None:
        if self.fault:
            return
        for i, strings in enumerate(distinct):
            if new := [v.strip() for v in itertools.islice(strings, len(self.status[i]), None)]:
                self.parsed[i] += map(self.parse[i], new)
                self.status[i] = np.append(self.status[i], [
                    1 if v == self.schema.missing_marker else 2 * (e is not None)
                    for v, (_, e) in zip(new, self.parsed[i][-len(new):])])
        states = [s[c] if s.any() else None for s, c in zip(self.status, codes)]
        drop = reduce(np.logical_or, [s == 1 for s in states if s is not None],
                      np.zeros(len(codes[0]), bool))
        for i, state in enumerate(states):
            bad = np.flatnonzero((state == 2) & ~drop) if state is not None else []
            if len(bad) and (self.fault is None or self.rows + bad[0] < self.fault[0]):
                self.fault = (self.rows + int(bad[0]), self.parsed[i][codes[i][bad[0]]][1])
        keep = np.flatnonzero(~drop) if drop.any() else slice(None)
        for kept, code in zip(self.kept, codes):
            kept is None or kept.append(code[keep])
        self.rows, self.dropped = self.rows + len(drop), self.dropped + int(np.count_nonzero(drop))


def _header_columns(path: Path, header: list[str], schema: Schema) -> list[int]:
    """Each schema column's position in the stripped header."""
    header = [h.strip() for h in header]
    missing = [c.name for c in schema.columns if c.name not in header]
    if missing:
        raise SchemaError(f"{path}: schema columns absent from header: {missing}")
    twice = [c.name for c in schema.columns if header.count(c.name) > 1]
    if twice:
        raise SchemaError(f"{path}: schema columns named more than once in header: {twice}")
    return [header.index(c.name) for c in schema.columns]


def _read_records(path: Path, schema: Schema, fold: _Fold) -> _Fold:
    """``fold`` fed what csv reads, with the first short/long row as its fault."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        collecting = gc.isenabled()
        gc.disable()  # the loop's many acyclic row lists would only trigger collector passes
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file, header required")
            getters = [itemgetter(i) for i in _header_columns(path, header, schema)]
            distinct = [defaultdict(itertools.count().__next__) for _ in schema.columns]
            while chunk := list(itertools.islice(reader, CHUNK_ROWS)):
                if fold.fault:
                    continue  # read on, so that a record csv cannot read still raises
                rows = list(filter(None, chunk))
                short = len(list(itertools.takewhile(len(header).__eq__, map(len, rows))))
                fold(distinct, [np.fromiter(map(codes.__getitem__, map(get, rows[:short])),
                                            np.int32, short)
                                for get, codes in zip(getters, distinct)])
                if short < len(rows) and not fold.fault:
                    fold.fault = (fold.rows, f"expected {len(header)} fields, got {len(rows[short])}")
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            for _ in utf8_lines(path):  # raises, naming the line of the first bad byte
                pass
            raise
        finally:
            if collecting:
                gc.enable()
    return fold


def _read_plain(path: Path, schema: Schema, fold: _Fold | None = None) -> _Fold | None:
    """``fold`` (by default one holding every column) fed a plain file's blocks, else None.

    A block is ``CHUNK_BYTES`` completed to the end of a line; its delimiter
    and newline bytes end the fields.  Each field is read as little-endian
    uint64 words masked to its length (exact, as no NUL byte occurs).  A stable
    radix sort on 16 bits of a mix of those words groups equal fields; a field
    whose words differ from its sorted neighbour's looks up its string's code.
    The columns it does not hold are checked, not coded in full.  A coded one has
    the values ``["", marker]``: a field holding the (non-empty) marker's first
    byte is 1 if it strips to the marker, others 0.  Unless the marker is made
    of ASCII digits, a numeric one codes each field of 1-8 ASCII digits, found
    by one test of its word padded with ``'0'``, as ``"0"``: valid, not the marker;
    after a block where most fail the test (decimals), it codes the rest in full.
    """
    fold = fold or _Fold(schema, schema.columns)
    delim, limit, not_plain = schema.delimiter, csv.field_size_limit(), (b'"', b"\r", b"\0")
    if len(delim) != 1 or delim in '"\r\n\0' or not delim.isascii():
        return None
    marker, skip = schema.missing_marker, {c.name for c in schema.columns if c not in fold.held}
    flag = {name for name in skip if schema[name].kind in CODED_KINDS and marker}
    digit = {name for name in skip if schema[name].kind in NUMERIC_KINDS
             and not (marker.isascii() and marker.isdigit())}
    distinct = [["", marker] if c.name in flag else  # code 0, "0", stands for a digit field
                defaultdict(itertools.count(1).__next__, {"0": 0}) if c.name in digit else
                defaultdict(itertools.count().__next__) for c in schema.columns]
    with open(path, "rb") as fh:
        try:
            line = fh.readline()
            header = line.removesuffix(b"\n").decode().split(delim)
            if not line or len(line) > limit + 1 or any(map(line.__contains__, not_plain)):
                return None
            columns, ncols = _header_columns(path, header, schema), len(header)
            while block := bytearray(fh.read(CHUNK_BYTES) + fh.readline()):
                if not block.endswith(b"\n"):
                    block += b"\n"  # the last line may lack its newline
                block.isascii() or block.decode()  # raises unless the block is UTF-8
                if any(map(block.__contains__, not_plain)):
                    return None
                block += bytes(8)  # so that a word read at any field start stays inside
                buf = np.frombuffer(block, np.uint8)
                newlines = np.count_nonzero(mask := buf == 10)
                mask |= buf == ord(delim)  # each field's end: its delimiter or newline byte
                ends = np.flatnonzero(mask).astype(np.int32)
                rows, last = ends.size // ncols, ends[ncols - 1::ncols]
                lines = np.diff(last, prepend=-1)
                if (ends.size % ncols or newlines != rows or not (buf[last] == 10).all()
                        or lines.min() == 1 or lines.max() > limit + 1):  # blank, or too long
                    return None
                stops = ends.reshape(rows, ncols).T  # ends by column; ends is in row order
                starts = np.empty((ncols, rows), np.int32)  # each field's first byte
                starts[0, 0], starts[0, 1:], starts[1:] = 0, last[:-1] + 1, stops[:-1] + 1
                if flag:  # the fields holding the marker's first byte, as (position, row)
                    first = np.flatnonzero(buf[:-8] == marker.encode()[0]).astype(np.int32)
                    hit = np.unique(np.searchsorted(ends, first))
                    hit, flags = (hit % ncols, hit // ncols), np.zeros((ncols, rows), np.int8)
                    pick = zip(starts[hit].tolist(), stops[hit].tolist())
                    flags[hit] = [block[a:b].decode().strip() == marker for a, b in pick]
                words = np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))  # buf[i:i + 8]
                codes = []
                for c, spec, strings in zip(columns, schema.columns, distinct):
                    size = stops[c] - (start := starts[c].astype(np.intp))  # intp gathers faster
                    if spec.name in flag:
                        codes.append(flags[c])
                    elif spec.name in digit:  # code only the fields that are not 1-8 ASCII digits
                        mask = _WORD_MASKS[np.minimum(size, 8)]
                        word = words[start] & mask | _ZEROS & ~mask
                        digits = (word & _HIGH) | ((word + _SIXES) & _HIGH) >> np.uint64(4)
                        fields = np.flatnonzero((digits != _THREES) | (size == 0) | (size > 8))
                        if 2 * fields.size > rows:  # mostly other fields: code later blocks in full
                            digit.discard(spec.name)
                        codes.append(np.zeros(rows, np.int32))
                        codes[-1][fields] = _code_fields(block, words, start[fields], size[fields],
                                                         strings)
                    else:
                        codes.append(_code_fields(block, words, start, size, strings))
                fold(distinct, codes)
                del block, buf, mask, words, ends, stops, starts, codes  # before the next read
        except UnicodeDecodeError:
            return None
    return fold


def _code_fields(block: bytearray, words: np.ndarray, start: np.ndarray, size: np.ndarray,
                 codes: dict) -> np.ndarray:
    """The code in ``codes`` of each field at ``start``, ``size`` bytes long, of ``block``."""
    if not size.size:
        return np.zeros(0, np.int32)
    keys = [_WORD_MASKS[np.clip(size - k, 0, 8)]
            & words[np.minimum(start + k, len(words) - 1) if k else start]
            for k in range(0, max(int(size.max()), 1), 8)]
    mixed = reduce(lambda m, key: (m ^ key) * _MIX, keys, np.uint64(0))
    order = (mixed >> np.uint64(48)).astype(np.uint16).argsort(kind="stable")
    ordered = (keys.pop()[order] for _ in range(len(keys)))  # one sorted word at a time
    new = np.append(True, reduce(np.logical_or, (k[1:] != k[:-1] for k in ordered)))
    pick = zip(start[order[new]].tolist(), size[order[new]].tolist())
    code = np.fromiter((codes[block[a:a + n].decode()] for a, n in pick), np.int32)
    out = np.empty(len(size), np.int32)
    out[order] = np.repeat(code, np.diff(np.flatnonzero(new), append=len(size)))
    return out


def _parse_field(spec: ColumnSpec, value: str, levels: dict | None) -> tuple:
    """A stripped field's typed value (for categoricals a level index) and its error or None."""
    if spec.kind in NUMERIC_KINDS:
        try:
            x = float(value)
        except ValueError:
            return 0, f"column {spec.name!r}: not a number: {value!r}"
        if not math.isfinite(x):
            return 0, f"column {spec.name!r}: not a finite number: {value!r}"
        return x, None
    if spec.kind != "target":
        return levels.setdefault(value, len(levels)), None
    if spec.positive_label is not None or value in ("0", "1"):
        return int(value == spec.positive_label if spec.positive_label is not None else value), None
    return 0, (f"target {spec.name!r} value {value!r} is not 0/1 "
               f"and the schema names no positive_label")


def cell_rows(key: np.ndarray, size: int) -> list[np.ndarray]:
    """The ascending row index of each value 0..size-1 of the integer ``key``: one stable
    sort of the key, narrowed to the smallest type holding ``size`` so that numpy
    sorts it by radix, split at the value counts."""
    key = np.asarray(key).astype(np.min_scalar_type(size), copy=False)
    order, ends = np.argsort(key, kind="stable"), np.cumsum(np.bincount(key, minlength=size))
    return [order[start:end] for start, end in zip([0, *ends[:-1].tolist()], ends.tolist())]


# ---------------------------------------------------------------------------
# Thresholds
# ---------------------------------------------------------------------------

@dataclass
class Thresholds:
    """Privilege cutoff and effort threshold(s) parameterizing the notions.

    ``effort`` maps a scope cell key to the mean effort in that cell:
    ``()`` for global scope, ``(group,)`` for per_group,
    ``(category, group)`` for per_category_group.
    """

    privilege_cutoff: float | None = None
    p: float | None = None
    realized_fraction: float | None = None
    effort_scope: str | None = None
    effort: dict[tuple, float] = field(default_factory=dict)
    fallbacks: list[str] = field(default_factory=list)

    def effort_at(self, cell: tuple) -> float:
        """Effort threshold for a cell, trimming the key to the stored scope."""
        if self.effort_scope == "global":
            return self.effort[()]
        if self.effort_scope == "per_group":
            return self.effort[cell[-1:]]
        return self.effort[cell]


def privilege_threshold(table: Table, p: float, column: str | None = None) -> Thresholds:
    """Smallest observed value whose tail {x >= v} holds at most p% of rows.

    The realized privileged fraction is recorded; under heavy ties it can sit
    strictly below p/100.
    """
    if not 0 < p < 100:
        raise ValueError(f"p must lie in (0, 100), got {p}")
    column = table.schema.tagged_name("privilege", column)
    x = table.column(column)
    if table.rows == 0:
        raise DegenerateThresholdError("empty table")
    xs = np.sort(x)
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])  # first position of each value
    if len(starts) < 2:
        raise DegenerateThresholdError(
            f"column {column!r} is constant; privileged set would be everything"
        )
    fracs = (table.rows - starts) / table.rows
    hits = np.flatnonzero(fracs <= p / 100.0)
    if hits.size:
        return Thresholds(privilege_cutoff=float(xs[starts[hits[0]]]), p=p,
                          realized_fraction=float(fracs[hits[0]]))
    raise DegenerateThresholdError(
        f"column {column!r}: no observed cutoff reaches a top fraction <= {p}% "
        f"(smallest attainable tail is {fracs[-1]:.4f})"
    )


def effort_threshold(
    table: Table,
    scope: str,
    column: str | None = None,
    category_column: str | None = None,
) -> Thresholds:
    """Mean effort per scope cell; cells with < 2 rows inherit the parent mean.

    Scope chain: per_category_group cells fall back to the per_group mean of
    their group, per_group cells fall back to the global mean.
    """
    if scope not in EFFORT_SCOPES:
        raise ValueError(f"unknown effort scope {scope!r}")
    column = table.schema.tagged_name("effort", column)
    if table.rows == 0:
        raise SchemaError("cannot compute effort thresholds on an empty table")
    x = table.column(column)
    global_mean = float(np.mean(x))
    if scope == "global":
        return Thresholds(effort_scope=scope, effort={(): global_mean})

    prot = table.schema.protected
    if prot is None:
        raise SchemaError(f"effort scope {scope!r} needs a protected column")

    fallbacks: list[str] = []

    def cell_mean(rows, parent_mean, label, parent):
        cell = x[rows]
        if len(cell) >= MIN_CELL_ROWS:
            return float(np.mean(cell))
        fallbacks.append(f"{label}: {len(cell)} rows, using {parent} mean")
        return parent_mean

    names, groups = table.levels(prot.name), table.codes(prot.name)
    group_means = {g: cell_mean(rows, global_mean, f"group {g!r}", "global")
                   for g, rows in zip(names, cell_rows(groups, len(names)))}
    if scope == "per_group":
        return Thresholds(effort_scope=scope, effort={(g,): m for g, m in group_means.items()},
                          fallbacks=fallbacks)

    if category_column is None:
        raise SchemaError("per_category_group scope needs a category column")
    categories = table.levels(category_column)
    key = table.codes(category_column) * len(names) + groups
    effort = {(a, g): cell_mean(rows, group_means[g], f"cell ({a!r}, {g!r})", "group")
              for (a, g), rows in zip(itertools.product(categories, names),
                                      cell_rows(key, len(categories) * len(names)))}
    return Thresholds(effort_scope=scope, effort=effort, fallbacks=fallbacks)


# ---------------------------------------------------------------------------
# Feature encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Design:
    """An encoded feature matrix of ``shape`` (rows, width) kept without its one-hot zeros.

    ``numeric`` (rows x m) holds the standardized columns at positions
    ``numeric_cols``.  The categoricals are kept per distinct tuple of level
    codes: row i holds tuple ``combo[i]``, and each ``(codes, cols)`` in
    ``coded`` gives tuple u a 1 in column ``cols[codes[u]]``, or none when
    its code is ``len(cols)`` (a level unseen at fit).  ``dense()`` is the
    full matrix X; ``matvec``, ``rmatvec`` and ``gram`` give X @ w, X^T r and
    X^T diag(s) X; with a tuple per row they cost one pass more than per-row codes.
    """

    numeric: np.ndarray
    numeric_cols: np.ndarray
    coded: tuple[tuple[np.ndarray, np.ndarray], ...]
    combo: np.ndarray
    shape: tuple[int, int]

    @property
    def tuples(self) -> int:
        """The number of distinct code tuples; 1 (every row alike) without categoricals."""
        return len(self.coded[0][0]) if self.coded else 1

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[:, self.numeric_cols] = self.numeric
        for codes, cols in self.coded:
            hit = np.flatnonzero(codes[self.combo] < len(cols))
            out[hit, cols[codes[self.combo[hit]]]] = 1.0
        return out

    def matvec(self, w: np.ndarray) -> np.ndarray:
        part = np.zeros(self.tuples)
        for codes, cols in self.coded:
            part += np.append(w[cols], 0.0)[codes]
        return self.numeric @ w[self.numeric_cols] + part[self.combo]

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape[1])
        out[self.numeric_cols] = r @ self.numeric
        per_tuple = np.bincount(self.combo, r, self.tuples)
        for codes, cols in self.coded:
            out[cols] = np.bincount(codes, per_tuple, len(cols) + 1)[:-1]
        return out

    def gram(self, s: np.ndarray) -> np.ndarray:
        out = np.zeros((self.shape[1], self.shape[1]))
        t, scaled, square = np.bincount(self.combo, s, self.tuples), [], []
        for x in self.numeric.T:  # the passes over the rows; s * x is their one temporary
            sx = s * x
            scaled.append(np.bincount(self.combo, sx, self.tuples))
            square.append(sx @ self.numeric)
        for i, (codes, cols) in enumerate(self.coded):  # one side, halved diagonal
            size, rows = len(cols) + 1, cols[:, None]
            out[cols, cols] = 0.5 * np.bincount(codes, t, size)[:-1]
            out[rows, self.numeric_cols] = np.array(
                [np.bincount(codes, sx, size)[:-1] for sx in scaled]).reshape(-1, len(cols)).T
            for codes_b, cols_b in self.coded[:i]:
                size_b = len(cols_b) + 1
                pair = np.bincount(codes * size_b + codes_b, t, size * size_b)
                out[rows, cols_b] = pair.reshape(size, size_b)[:-1, :-1]
        out += out.T
        out[np.ix_(self.numeric_cols, self.numeric_cols)] += np.reshape(square, (len(square),) * 2)
        return out

    def permuted(self, cols: list[int], perm: np.ndarray) -> "Design":
        """A copy whose numeric columns at positions ``cols`` take rows ``perm``."""
        numeric = self.numeric_cols.tolist()
        if not set(cols) <= set(numeric):
            raise EncodingError(f"only numeric columns can be permuted, not {sorted(cols)}")
        k, block = [numeric.index(c) for c in cols], self.numeric.copy()
        block[:, k] = self.numeric[np.ix_(perm, k)]
        return replace(self, numeric=block)


def as_design(features) -> Design:
    """``features`` if it is a Design, else a 2-D array taken as its numeric block."""
    if isinstance(features, Design):
        return features
    X = np.asarray(features, dtype=np.float64)
    return Design(X, np.arange(X.shape[1]), (), np.zeros(len(X), np.intp), X.shape)


@dataclass
class FeatureEncoder:
    """One-hot + standardization encoder fitted on training-split statistics.

    ``feature_map`` lists, per output column, the source column and the level
    it indicates (None for standardized numeric columns).  ``transform``
    returns these columns as a ``Design``, whose one-hot columns are kept as
    the level codes of each distinct tuple of them.
    """

    feature_map: list[tuple[str, str | None]]
    levels: dict[str, list[str]]
    means: dict[str, float]
    sds: dict[str, float]
    include_protected: bool

    @property
    def width(self) -> int:
        return len(self.feature_map)

    @classmethod
    def fit(cls, table: Table, train_mask: np.ndarray | None = None,
            include_protected: bool = False) -> "FeatureEncoder":
        rows = _row_index(train_mask)
        feature_map: list[tuple[str, str | None]] = []
        levels: dict[str, list[str]] = {}
        means: dict[str, float] = {}
        sds: dict[str, float] = {}
        for spec in table.schema.columns:
            if spec.kind == "target":
                continue
            if spec.kind == "protected" and not include_protected:
                continue
            if spec.kind in NUMERIC_KINDS:
                col = table.column(spec.name)[rows]
                mu = float(np.mean(col)) if len(col) else 0.0
                sd = float(np.std(col)) if len(col) else 0.0
                if sd == 0.0:
                    log.warning("column %r is constant on the training split; "
                                "it encodes to zeros", spec.name)
                    sd = 1.0
                means[spec.name] = mu
                sds[spec.name] = sd
                feature_map.append((spec.name, None))
            else:
                lv = list(map(table.levels(spec.name).__getitem__,
                              np.unique(table.codes(spec.name)[rows])))
                if len(lv) < 2:
                    log.warning("categorical column %r has %d level(s) on the "
                                "training split; dropped", spec.name, len(lv))
                    continue
                levels[spec.name] = lv
                for v in lv:
                    feature_map.append((spec.name, v))
        return cls(feature_map, levels, means, sds, include_protected)

    def transform(self, table: Table, mask: np.ndarray | None = None) -> Design:
        """The ``mask`` rows (default: all) of ``table`` as a Design.  Per row it keeps one key
        of all its codes, and reads each tuple's codes from the table at one of its rows."""
        for name, level in self.feature_map:
            kind = table.schema[name].kind
            if kind not in (NUMERIC_KINDS if level is None else CODED_KINDS):
                raise SchemaError(f"encoder 'feature_map' entry [{name!r}, {level!r}] names "
                                  f"a {kind} column")
        rows = _row_index(mask)
        n = table.rows if mask is None else len(rows)
        numeric = [j for j, (_, level) in enumerate(self.feature_map) if level is None]
        block = np.empty((n, len(numeric)))
        for k, (name, _) in enumerate(map(self.feature_map.__getitem__, numeric)):
            block[:, k] = (table.column(name)[rows] - self.means[name]) / self.sds[name]
        lookups = []  # (column, its code per table level, its output columns)
        key = np.zeros(n, np.int64)  # each row's mixed-radix key of the codes so far
        for name in dict.fromkeys(name for name, level in self.feature_map if level is not None):
            lv = self.levels[name]
            lookups.append((name, np.array([lv.index(v) if v in lv else len(lv)
                                            for v in table.levels(name)], np.intp),
                            np.array([self.feature_map.index((name, v)) for v in lv])))
            if (int(key.max(initial=0)) + 1) * (len(lv) + 1) >= 2 ** 63:  # renumber, not overflow
                key = np.unique(key, return_inverse=True)[1]
            key *= len(lv) + 1
            key += lookups[-1][1][table.codes(name)[rows]]
        distinct, combo = np.unique(key, return_inverse=True)
        row = np.empty(len(distinct), np.intp)
        row[combo] = np.arange(n) if mask is None else rows  # a table row of each tuple
        coded = tuple((to_code[table.codes(name)[row]], cols) for name, to_code, cols in lookups)
        return Design(block, np.array(numeric, np.intp), coded, combo, (n, self.width))


def encode_features(
    table: Table,
    train_mask: np.ndarray | None = None,
    include_protected: bool = False,
) -> tuple[Design, FeatureEncoder]:
    """Encode the whole table; statistics come from train_mask rows only."""
    enc = FeatureEncoder.fit(table, train_mask, include_protected)
    return enc.transform(table), enc


def stratified_split(table: Table, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (train, test) masks stratified by (protected group, target)."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must lie in (0, 1)")
    prot = table.schema.protected
    y = table.target
    if prot is not None:
        names, strata = table.levels(prot.name), table.codes(prot.name) * 2 + y
        key = lambda s: f"{names[s // 2]}|{s % 2}"  # noqa: E731
    else:
        names, strata, key = [None], y, str
    rng = np.random.default_rng(seed)
    test = np.zeros(table.rows, dtype=bool)
    parts = cell_rows(strata, 2 * len(names))
    # strata in the order of their "group|target" key strings; an empty one draws nothing
    for s in sorted(range(len(parts)), key=key):
        idx = parts[s]
        rng.shuffle(idx)
        test[idx[:int(round(len(idx) * test_fraction))]] = True
    return ~test, test
