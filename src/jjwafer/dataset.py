"""On-disk dataset container: plain-text and JSON readers/writers.

One dataset file holds everything measured on one wafer: capacitance cells,
forward I-V sweeps, junction resistances, and breakdown ramps.  The text
format is line-oriented so that a corrupt line can be reported by number:

    format jjwafer-dataset 1
    units area=um2 c=fF r=MOhm len=um v=V i=A step=V rate=V/s
    wafer label=ref etch_s=0.0 rows=14 cols=14
    meta seed=42
    cap 0 3 50.0 1.23456
    cap 0 4 50.0 X
    iv 6 6 25.0 3 0.01:1.2e-12 0.02:2.5e-12 0.03:3.9e-12
    res 5.0 10.0 0.12 218.7
    ramp 6 6 25.0 0.01 0.07 3 0.01:1e-12 0.02:2.1e-12 0.03:3.4e-12

Rules: the format line comes first; a units line must precede the first data
record and must declare the canonical units exactly (datasets in other units
are rejected, not converted); `#` starts a comment; blank lines are ignored.
A capacitance value of `X` marks a probed-but-dead cell.  `meta` values may
contain spaces; everything else is whitespace-delimited.  The JSON format
carries the same payload as one object, one key per record field.

In memory, an IVRecord or RampRecord holds its v and i as array('d'), 8
bytes a value.  Every assignment, the constructor's too, converts what it
is given (a list, a tuple, a numpy array, ints) and keeps an array('d') as
it is; a str, None, a complex or a nested element raises TypeError.
Records are equal when their values are.  Ramps and sweeps that step along
one staircase share one v array, from the generator and from either reader,
while each record holds its own currents.  So to change a record's v,
assign it a new series rather than writing into the shared one.

Both readers only parse, raising DatasetFormatError for syntax and type
faults, and hand every record to one checker (_Checker), which the writers
run too.  Its rules, the same for both formats:

* die indices are ints in [0, MAX_GRID) (a JSON bool is not an int)
* every other number is finite, and > 0 except a capacitance reading
* v and i have equal length >= 2, v strictly increases in finite steps, and
  ramp voltages advance in constant steps of step_v (transport.SERIES_RULES)
* no two cap records share a die and an area
* wafer rows/cols, when present, are integers in [1, MAX_GRID], and every
  die lies inside them
* wafer and meta entries survive the text format (_check_attrs)

The checker applies the scalar, duplicate-cell and extent rules as records
arrive, and the series rules per block: it queues the sweeps and ramps,
flushes the queue once it holds _FLUSH_SERIES (256) of them, and judges each
flush stacked by kind and length in _judged, the one judging pass that
ramp_blocks makes for analyze() too; a block of records that share one
staircase stacks it as one row.  So no reader or writer holds more than one
flush's blocks.  The block rules (transport.sweep_faults,
breakdown.ramp_faults) are the series rules' one implementation, and give
each series the code of the first rule it breaks, which words its error.
Errors are still raised in file order: the checker flushes the queue before
any later error propagates.  Errors carry the 1-based line number (text) or
name the record, e.g. "ramp record 3" (JSON).  A byte that is not UTF-8 is a
DatasetFormatError on its line.  load_dataset reads a text file a line at a
time and never holds its text; its lines break where str.splitlines()
breaks the text that text mode reads, so it reads a file as loads_text
reads that text.  It decodes a regular JSON file's text from a read-only map
of it, so the file's bytes are not copied next to its text, and holds the
text only until json.loads has decoded it.  The text reader parses a series
straight into arrays; json.loads converts each v and i list to an array as
it decodes the record, so its float lists die record by record.

Writers are atomic: content goes to a temp file in the target directory
which is then renamed over the destination.  Each format's writer is a
generator of pieces, a text line or a JSON record each: dumps_text and
dumps_json join them, and save_dataset streams them to the temp file in
batches of about 1 MB, so no file is held whole.  A fault met while
streaming removes the temp file and leaves the destination as it was.

Floats are written with repr(), which round-trips exactly, so
load(save(ds)) == ds field for field.  Before they write anything, both
writers run ds through the checker as loads_json does, after the JSON
reader's type rule on each scalar (_check_dataset): each refuses what
loads_json refuses of the JSON text of ds, with the same error, so every
file either one writes reads back.  Each writer formats a voltage staircase
once: a v with the bits of the v before it reuses its text, as equal bits
format alike (-0.0 == 0.0, yet their bits and text differ).  dumps_text
writes repr(float(x)) per value.  dumps_json writes the layout of
json.dumps(payload, sort_keys=True, indent=1) itself: records in sorted key
order, finite floats and ints with their repr, and a series with one call
of json's C encoder, which formats floats as the indent=1 encoder does;
every other value goes through that encoder, re-indented.
"""

from __future__ import annotations

import json
import math
import mmap
import operator
import os
import stat
import tempfile
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from itertools import chain, compress, repeat

import numpy as np

from .breakdown import RampTrace, ramp_faults
from .capacitance import WaferMap
from .errors import (
    DatasetError,
    DatasetFormatError,
    DatasetSchemaError,
    DatasetUnitError,
)
from .geometry import JunctionGeometry
from .resistance import ResistanceRecord
from .transport import IVCurve, series_message, sweep_faults

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MAX_GRID",
    "CANONICAL_UNITS",
    "CapRecord",
    "IVRecord",
    "ResRecordRow",
    "RampRecord",
    "DatasetFile",
    "save_dataset",
    "load_dataset",
    "loads_text",
    "dumps_text",
    "loads_json",
    "dumps_json",
    "cap_areas",
    "cap_wafer_map",
    "iv_curves",
    "ramp_traces",
    "ramp_blocks",
    "resistance_records",
    "ground_truth",
]

FORMAT_NAME = "jjwafer-dataset"
FORMAT_VERSION = 1
MAX_GRID = 4096  # dies per wafer row or column

CANONICAL_UNITS = {
    "area": "um2",
    "c": "fF",
    "r": "MOhm",
    "len": "um",
    "v": "V",
    "i": "A",
    "step": "V",
    "rate": "V/s",
}


@dataclass
class CapRecord:
    row: int
    col: int
    area_um2: float
    c_ff: float | None  # None marks a probed cell that gave no reading


def _float64(x) -> array:
    """x as an array('d'): itself if it is one, else converted, with
    TypeError for what array('d', ...) refuses (a str, None, a complex or a
    nested element) and for bytes, which it would read as raw doubles."""
    if type(x) is array and x.typecode == "d":
        return x
    if isinstance(x, (bytes, bytearray)):
        raise TypeError(f"a series must hold numbers, got {type(x).__name__}")
    if isinstance(x, np.ndarray):
        x = x.tolist()  # Python numbers, so a complex one is refused
    return array("d", x)


class _Series:
    """The v and i of a record, held as array('d'): every assignment, the
    constructor's too, converts the series it is given."""

    def __setattr__(self, name, value):
        if name == "v" or name == "i":
            value = _float64(value)
        object.__setattr__(self, name, value)


@dataclass
class IVRecord(_Series):
    row: int
    col: int
    area_um2: float
    v: array
    i: array


@dataclass
class ResRecordRow:
    w_top_um: float
    w_bot_um: float
    h_um: float
    r_mohm: float


@dataclass
class RampRecord(_Series):
    row: int
    col: int
    area_um2: float
    step_v: float
    rate_v_per_s: float
    v: array
    i: array


@dataclass
class DatasetFile:
    """Parsed dataset: wafer attributes, free-form metadata, four record lists."""

    wafer: dict[str, str] = field(default_factory=dict)
    meta: dict[str, str] = field(default_factory=dict)
    cap: list[CapRecord] = field(default_factory=list)
    iv: list[IVRecord] = field(default_factory=list)
    res: list[ResRecordRow] = field(default_factory=list)
    ramp: list[RampRecord] = field(default_factory=list)

    @property
    def label(self) -> str:
        return self.wafer.get("label", "")


# --------------------------------------------------------------------- schema

# The record dataclasses are the schema: fields in text column order, field
# names as JSON keys, and the annotation picks each field's kind, named by the
# JSON type a file must hold; _Checker applies the ranges.  Each kind maps to
# its class, its fields and, in the same order, its scalar fields.
_INDEX = "an integer"            # die row or col, in [0, MAX_GRID)
_POSITIVE = "a number"           # finite and > 0
_READING = "a number or null"    # finite; None marks a dead cell (`X` in text)
_SERIES = "a list of numbers"    # v and i; text writes a count, then v:i pairs
_KINDS = {"int": _INDEX, "float": _POSITIVE, "float | None": _READING,
          "array": _SERIES}
_SCHEMA = {
    kind: (cls, schema, tuple(f for f in schema if f[1] is not _SERIES))
    for kind, cls in (("cap", CapRecord), ("iv", IVRecord), ("res", ResRecordRow),
                      ("ramp", RampRecord))
    for schema in [tuple((f.name, _KINDS[f.type]) for f in fields(cls))]
}


def _fault(cls: type[DatasetError], message: str, where) -> DatasetError:
    """An error located by text line number, or by a label such as
    "ramp record 3" (prefixed to the message, line None)."""
    if isinstance(where, str):
        return cls(f"{where}: {message}")
    return cls(message, line=where)


def _check_attrs(section: str, attrs: dict[str, str], where) -> None:
    """wafer/meta entries must survive the text format, where `#` starts a
    comment, `=` ends a key, whitespace splits wafer tokens, and a meta value
    ends with its line, trailing whitespace stripped."""
    for key, value in attrs.items():
        if (not key or any(ch.isspace() or ch in "=#" for ch in key) or "#" in value
                or (any(ch.isspace() for ch in value) if section == "wafer"
                    else value != value.rstrip() or len(value.splitlines()) > 1)):
            raise _fault(DatasetFormatError, f"{section} entry {key!r}={value!r}: keys "
                         "hold no whitespace, '=' or '#', wafer values no whitespace "
                         "or '#', meta values no '#', newline or trailing "
                         "whitespace", where)


def _grid_limits(wafer: dict[str, str], where) -> tuple[int | None, int | None]:
    """Declared (rows, cols), None where undeclared."""
    limits = wafer.get("rows"), wafer.get("cols")
    for key, raw in zip(("rows", "cols"), limits):
        # int() refuses strings of over 4300 digits
        if raw is not None and not (raw.isdecimal() and len(raw) < 10
                                    and 1 <= int(raw) <= MAX_GRID):
            raise _fault(DatasetSchemaError, f"{key} must be an integer in "
                         f"1..{MAX_GRID}, got {raw!r}", where)
    return tuple(None if raw is None else int(raw) for raw in limits)


def _check_extent(limits, top) -> None:
    """Every die lies inside the declared grid; top holds the largest row and
    col index seen, each with where it was seen."""
    for axis, limit, (index, where) in zip(("row", "col"), limits, top):
        if limit is not None and index >= limit:
            raise _fault(DatasetSchemaError, f"die {axis} {index} lies outside "
                         f"the declared grid of {limit} {axis}s", where)


def _index_fault(name: str, index: int, where) -> DatasetError:
    return _fault(DatasetSchemaError, f"die indices must be >= 0 and < {MAX_GRID}, "
                  f"got {name} {index}", where)


_FLUSH_SERIES = 256  # series _Checker queues before it flushes them


class _Checker:
    """The schema's value rules, fed one dataset in file order by a reader
    or a writer's gate, and used as a context manager around that feed.

    The series rules wait in a queue for flush(), which runs once the queue
    holds _FLUSH_SERIES series, before a DatasetError leaves the with block,
    and from finish(), which the block calls when it ends without one."""

    def __init__(self):
        self.limits: tuple[int | None, int | None] = (None, None)
        self.top = [(-1, None), (-1, None)]  # largest row and col, and where
        self.cells: set[tuple[int, int, float]] = set()
        self.series: list[tuple[str, object, object]] = []  # (kind, rec, where)

    def __enter__(self) -> _Checker:
        return self

    def __exit__(self, cls, exc, tb) -> None:
        if cls is None:
            self.finish()
        elif issubclass(cls, DatasetError):
            self.flush()  # a series fault met earlier comes first

    def wafer(self, wafer: dict[str, str], where) -> None:
        _check_attrs("wafer", wafer, where)
        self.limits = _grid_limits(wafer, where)

    def record(self, kind: str, rec, where) -> None:
        # a writer's gate hands in ints and np.float64: name them as floats
        for name, ftype in _SCHEMA[kind][2]:
            x = getattr(rec, name)
            if ftype is _INDEX:
                if not 0 <= x < MAX_GRID:
                    raise _index_fault(name, x, where)
            elif ftype is _POSITIVE or ftype is _READING and x is not None:
                if not math.isfinite(x):
                    raise _fault(DatasetFormatError, f"{name} must be finite, "
                                 f"got {float(x)!r}", where)
                if ftype is _POSITIVE and not x > 0.0:
                    raise _fault(DatasetSchemaError, f"{name} must be positive, "
                                 f"got {float(x)!r}", where)
        if kind == "res":
            return
        for axis, index in enumerate((rec.row, rec.col)):
            if index > self.top[axis][0]:
                self.top[axis] = (index, where)
        if kind == "cap":
            cell = (rec.row, rec.col, rec.area_um2)
            if cell in self.cells:
                raise _fault(DatasetSchemaError, f"duplicate cap record for die "
                             f"({rec.row}, {rec.col}) at area "
                             f"{float(rec.area_um2)!r}", where)
            self.cells.add(cell)
            return
        self.series.append((kind, rec, where))
        if len(self.series) >= _FLUSH_SERIES:
            self.flush()

    def flush(self) -> None:
        """Apply the series rules to the queued records, a block per kind and
        length; the first faulty one in file order raises its rule's error."""
        queue, self.series = self.series, []
        codes = np.zeros(len(queue), dtype=int)
        for kind in ("iv", "ramp"):
            at = np.flatnonzero([entry[0] == kind for entry in queue])
            found = np.zeros(at.size, dtype=int)
            for _ in _judged(kind, [queue[k][1] for k in at], found):
                pass  # one block at a time, so no two are held at once
            codes[at] = found
        if faulty := np.flatnonzero(codes).tolist():
            _, rec, where = queue[faulty[0]]
            raise _fault(DatasetSchemaError,
                         series_message(codes[faulty[0]], len(rec.v)), where)

    def finish(self) -> None:
        self.flush()
        _check_extent(self.limits, self.top)


_V, _I = operator.attrgetter("v"), operator.attrgetter("i")
_STEP_V = operator.attrgetter("step_v")
_ROW, _COL = operator.attrgetter("row"), operator.attrgetter("col")


def _stack(records: list, codes: np.ndarray):
    """The series of the records stacked by length, ascending: yields (rows,
    v, i), rows the positions in records of the rows of the (rows, length)
    float block i, copied from the series' buffers.  v is a block like i, or
    one (1, length) row when every record of the length shares one v array,
    which the series rules and the callers broadcast.  Records whose v and i
    differ in length get fault code 1 in codes first; only records whose
    code is 0 are stacked."""
    n = len(records)
    sizes = np.fromiter(map(len, map(_V, records)), int, n)
    codes[sizes != np.fromiter(map(len, map(_I, records)), int, n)] = 1
    for size in sorted(set(sizes[codes == 0].tolist())):
        take = (sizes == size) & (codes == 0)
        rows = np.flatnonzero(take)
        group = list(compress(records, take))
        vs = list(map(_V, group))
        shared = len(set(map(id, vs))) == 1
        v = np.array(vs[0] if shared else vs).reshape(1 if shared else rows.size, size)
        yield rows, v, np.array(list(map(_I, group))).reshape(rows.size, size)


def _judged(kind: str, records: list, codes: np.ndarray):
    """_stack's blocks of records, each yielded once the fault code of each
    of its rows under the series rules of kind (sweep_faults, or ramp_faults
    against each ramp's step_v, taken unconverted) is in codes."""
    step_v = np.array(list(map(_STEP_V, records))) if kind == "ramp" else None
    for rows, v, i in _stack(records, codes):
        codes[rows] = (sweep_faults(v, i) if kind == "iv"
                       else ramp_faults(v, i, step_v[rows]))
        yield rows, v, i


# ---------------------------------------------------------------- text format

def _text_tokens(rec, schema, memo: list):
    for name, ftype in schema:
        x = getattr(rec, name)
        if ftype is _INDEX:
            yield str(x)
        elif ftype is not _SERIES:
            yield "X" if x is None else repr(float(x))
        elif name == "v":
            # memo holds the previous series' v bits and its "repr:" prefixes,
            # which a ramp on the same staircase reuses: equal bits format alike
            if (bits := x.tobytes()) != memo[0]:
                memo[:] = bits, [repr(u) + ":" for u in x]
            yield f"{len(x)} " + " ".join(map(operator.add, memo[1], map(repr, rec.i)))


def _text_lines(ds: DatasetFile) -> Iterator[str]:
    """The text of ds, a line per piece."""
    yield f"format {FORMAT_NAME} {FORMAT_VERSION}\n"
    yield "units " + " ".join(f"{k}={v}" for k, v in CANONICAL_UNITS.items()) + "\n"
    if ds.wafer:
        yield "wafer " + " ".join(f"{k}={v}" for k, v in ds.wafer.items()) + "\n"
    for key, value in ds.meta.items():
        yield f"meta {key}={value}\n"
    memo = [None, None]  # see _text_tokens
    for kind, (_, schema, _) in _SCHEMA.items():
        for rec in getattr(ds, kind):
            yield " ".join([kind, *_text_tokens(rec, schema, memo)]) + "\n"


def dumps_text(ds: DatasetFile) -> str:
    _check_dataset(ds)
    return "".join(_text_lines(ds))


def _parse(cast: type, tok: str, what: str, line: int):
    try:
        return cast(tok)
    except ValueError:
        kind = _INDEX if cast is int else _POSITIVE
        raise DatasetFormatError(f"{what} must be {kind}, got {tok!r}", line=line) from None


def _parse_pairs(toks: list[str], npts: int, line: int,
                 memo: list) -> tuple[array, array]:
    """v and i of one series.  memo holds the previous series' v tokens and
    their array: ramps step along one programmed staircase, so most series
    repeat the v tokens of the one before and share its array."""
    if len(toks) != npts:
        raise DatasetFormatError(
            f"expected {npts} v:i pairs, found {len(toks)}", line=line
        )
    flat = ":".join(toks).split(":") if toks else []
    # 2 * npts values with a colon in every token: exactly one colon in each
    if len(flat) != 2 * npts or not all(map(operator.contains, toks, repeat(":"))):
        bad = next(tok for tok in toks if tok.count(":") != 1)
        raise DatasetFormatError(f"malformed v:i pair {bad!r}", line=line)
    v_toks = flat[0::2]
    try:
        if v_toks != memo[0]:
            memo[:] = v_toks, array("d", map(float, v_toks))
        return memo[1], array("d", map(float, flat[1::2]))
    except ValueError:
        for k, x in enumerate(flat):  # name the first bad token in file order
            _parse(float, x, "vi"[k % 2], line)
        raise


def _text_record(kind: str, toks: list[str], line: int, memo: list):
    cls, schema, scalars = _SCHEMA[kind]
    n, series = len(scalars), ()
    if n < len(schema) and len(toks) > n:  # a count, then v:i pairs
        npts = _parse(int, toks[n], "point count", line)
        series = _parse_pairs(toks[n + 1:], npts, line, memo)
    elif n < len(schema):
        raise DatasetFormatError(f"{kind} record too short", line=line)
    elif len(toks) != n:
        raise DatasetFormatError(f"{kind} record needs {n} fields, got {len(toks)}",
                                 line=line)
    # the series fields come last, so the values go in positionally
    return cls(*[None if ftype is _READING and tok == "X" else
                 _parse(int if ftype is _INDEX else float, tok, name, line)
                 for (name, ftype), tok in zip(scalars, toks)], *series)


def loads_text(text: str) -> DatasetFile:
    return _load_lines(text.splitlines())


def _load_lines(lines: Iterable[str]) -> DatasetFile:
    """The text reader on the lines str.splitlines() makes of a text."""
    with _Checker() as check:
        return _read_text(lines, check)


def _read_text(lines: Iterable[str], check: _Checker) -> DatasetFile:
    ds = DatasetFile()
    memo = [None, None]  # the last series' v tokens and array, see _parse_pairs
    seen_format = False
    seen_units = False
    seen_wafer = False
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        if not seen_format:
            if kind != "format":
                raise DatasetFormatError(
                    f"first line must be the format declaration, got {kind!r}",
                    line=line_no,
                )
            toks = rest.split()
            if len(toks) != 2 or toks[0] != FORMAT_NAME:
                raise DatasetFormatError(
                    f"unrecognized format declaration {rest!r}", line=line_no
                )
            version = _parse(int, toks[1], "format version", line_no)
            if version != FORMAT_VERSION:
                raise DatasetFormatError(
                    f"unsupported format version {version}", line=line_no
                )
            seen_format = True
            continue
        if kind == "format":
            raise DatasetFormatError("duplicate format line", line=line_no)
        if kind == "units":
            if seen_units:
                raise DatasetFormatError("duplicate units line", line=line_no)
            declared = {}
            for tok in rest.split():
                key, sep, value = tok.partition("=")
                if not sep:
                    raise DatasetFormatError(f"malformed unit {tok!r}", line=line_no)
                declared[key] = value
            for key, want in CANONICAL_UNITS.items():
                got = declared.pop(key, None)
                if got is None:
                    raise DatasetUnitError(f"missing unit declaration for {key!r}",
                                           line=line_no)
                if got != want:
                    raise DatasetUnitError(
                        f"unit for {key!r} must be {want!r}, got {got!r}; "
                        "convert before ingest", line=line_no
                    )
            if declared:
                extra = ", ".join(sorted(declared))
                raise DatasetUnitError(f"unknown unit keys: {extra}", line=line_no)
            seen_units = True
            continue
        if kind == "wafer":
            if seen_wafer:
                raise DatasetFormatError("duplicate wafer line", line=line_no)
            for tok in rest.split():
                key, sep, value = tok.partition("=")
                if not sep or not key:
                    raise DatasetFormatError(f"malformed wafer attribute {tok!r}",
                                             line=line_no)
                ds.wafer[key] = value
            check.wafer(ds.wafer, line_no)
            seen_wafer = True
            continue
        if kind == "meta":
            key, sep, value = rest.partition("=")
            if not sep:
                raise DatasetFormatError(f"malformed meta line {rest!r}", line=line_no)
            _check_attrs("meta", {key: value}, line_no)
            ds.meta[key] = value
            continue
        if not seen_units:
            raise DatasetUnitError(
                "units line must precede the first data record", line=line_no
            )
        if kind not in _SCHEMA:
            raise DatasetSchemaError(f"unknown record type {kind!r}", line=line_no)
        rec = _text_record(kind, rest.split(), line_no, memo)
        check.record(kind, rec, line_no)
        getattr(ds, kind).append(rec)
    if not seen_format:
        raise DatasetFormatError("empty dataset: missing format declaration", line=1)
    return ds


# ---------------------------------------------------------------- json format

_NUMBERS = {float, int}


def _json_text(x, newline: str) -> str:
    """x as json.dumps(..., sort_keys=True, indent=1) lays it out when it
    starts on a line that newline (a newline and that line's indent) opens."""
    cls = type(x)
    if cls is float and math.isfinite(x):
        return float.__repr__(x)
    if cls is int:
        return int.__repr__(x)
    if x is None:
        return "null"
    # no JSON string holds a raw newline, so every one here is an indent
    return json.dumps(x, sort_keys=True, indent=1).replace("\n", newline)


def _json_series(x, newline: str, memo: list | None) -> str:
    """A v or i series as _json_text lays out its list of floats, which
    json's C encoder formats as the indent=1 encoder does.  memo, passed for
    v, holds the previous v's bits and text, which a ramp on the same
    staircase reuses: equal bits format alike."""
    if memo is not None and (bits := x.tobytes()) == memo[0]:
        return memo[1]
    inner = newline + " "
    text = (f"[{inner}{json.dumps(x.tolist())[1:-1].replace(', ', ',' + inner)}{newline}]"
            if x else "[]")
    if memo is not None:
        memo[:] = bits, text
    return text


def _json_records(records: list, schema) -> Iterator[str]:
    """The text of a record list, a record per piece."""
    names = sorted(name for name, _ in schema)
    keys = [f'"{name}": ' for name in names]
    # each series field, with the memo _json_series keeps for v
    series = {name: [None, None] if name == "v" else None
              for name, ftype in schema if ftype is _SERIES}
    opening = "["  # the first record takes no comma
    for rec in records:
        fields = [key + (_json_series(x, "\n   ", series[name]) if name in series
                         else _json_text(x, "\n   "))
                  for key, name, x in zip(keys, names, map(getattr, repeat(rec), names))]
        yield opening + "\n  {\n   " + ",\n   ".join(fields) + "\n  }"
        opening = ","
    yield "[]" if opening == "[" else "\n ]"


def _json_lines(ds: DatasetFile) -> Iterator[str]:
    """The JSON text of ds, a record per piece."""
    head = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "units": CANONICAL_UNITS,
        "wafer": ds.wafer,
        "meta": ds.meta,
    }
    opening = "{"
    for key in sorted([*head, *_SCHEMA]):
        yield f'{opening}\n "{key}": '
        if key in head:
            yield _json_text(head[key], "\n ")
        else:
            yield from _json_records(getattr(ds, key), _SCHEMA[key][1])
        opening = ","
    yield "\n}\n"


def dumps_json(ds: DatasetFile) -> str:
    _check_dataset(ds)
    return "".join(_json_lines(ds))


_MISSING = object()  # the value of a key a JSON record lacks


def _json_value(x, name: str, ftype: str, where: str):
    if x is _MISSING:
        raise DatasetSchemaError(f"{where}: missing key {name!r}")
    try:
        if ftype is _INDEX:
            if type(x) is int:
                return x
        elif ftype is _SERIES:
            if type(x) is array:  # see _json_payload
                return x
        elif type(x) is int or isinstance(x, float):  # not a bool
            return float(x)
        elif ftype is _READING and x is None:
            return None
    except OverflowError:
        pass
    raise DatasetFormatError(f"{where}: {name} must be {ftype}, got {x!r}")


def loads_json(text: str) -> DatasetFile:
    return _json_dataset(_json_payload(text))


def _json_payload(text: str):
    """json.loads' values, with every v and i list of plain numbers made an
    array('d') as it is decoded, so the decoder's float lists die record by
    record, and a v with the bits of the v before it made that v's array."""

    memo = [None, None]  # the last v's bits and array, shared by a v of equal bits

    def series(obj: dict) -> dict:
        for name in ("v", "i"):
            x = obj.get(name)
            if type(x) is list and set(map(type, x)) <= _NUMBERS:
                try:
                    x = array("d", x)
                except OverflowError:  # an int beyond float: _json_value names it
                    continue
                if name == "v":
                    if (bits := x.tobytes()) == memo[0]:
                        x = memo[1]
                    else:
                        memo[:] = bits, x
                obj[name] = x
        return obj

    try:
        return json.loads(text, object_hook=series)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None


def _json_dataset(payload) -> DatasetFile:
    if not isinstance(payload, dict):
        raise DatasetFormatError("top-level JSON value must be an object")
    if payload.get("format") != FORMAT_NAME:
        raise DatasetFormatError(f"unrecognized format {payload.get('format')!r}")
    if payload.get("version") != FORMAT_VERSION:
        raise DatasetFormatError(f"unsupported format version {payload.get('version')!r}")
    units = payload.get("units")
    if units != CANONICAL_UNITS:
        raise DatasetUnitError(
            f"units must equal {CANONICAL_UNITS!r}; convert before ingest"
        )
    with _Checker() as check:
        wafer, meta = payload.get("wafer", {}), payload.get("meta", {})
        _json_head(wafer, meta, check)
        ds = DatasetFile(dict(wafer), dict(meta))
        for kind, (cls, schema, _) in _SCHEMA.items():
            records = payload.get(kind, [])
            if not isinstance(records, list):
                raise DatasetFormatError(f"{kind!r} must be a list of records")
            for idx, raw in enumerate(records):
                where = f"{kind} record {idx}"
                if not isinstance(raw, dict):
                    raise DatasetFormatError(f"{where}: must be an object")
                rec = cls(**{name: _json_value(raw.get(name, _MISSING), name, ftype, where)
                             for name, ftype in schema})
                check.record(kind, rec, where)
                getattr(ds, kind).append(rec)
    return ds


def _json_head(wafer, meta, check: _Checker) -> None:
    """loads_json's rules on the wafer and meta entries."""
    for section, attrs in (("wafer", wafer), ("meta", meta)):
        if not isinstance(attrs, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in attrs.items()
        ):
            raise DatasetSchemaError(f"{section!r} must map strings to strings")
    check.wafer(wafer, "wafer")
    _check_attrs("meta", meta, "meta")


def _check_dataset(ds: DatasetFile) -> None:
    """The writers' gate: raise what loads_json raises for the JSON text of
    ds, before anything is written.  Each record's scalars meet the JSON
    reader's type rule (_json_value) before the checker's value rules."""
    with _Checker() as check:
        # entries in the key order of the JSON text
        _json_head(*(dict(sorted(attrs.items())) for attrs in (ds.wafer, ds.meta)), check)
        for kind, (_, _, scalars) in _SCHEMA.items():
            for n, rec in enumerate(getattr(ds, kind)):
                where = f"{kind} record {n}"
                for name, ftype in scalars:
                    _json_value(getattr(rec, name), name, ftype, where)
                check.record(kind, rec, where)


# ------------------------------------------------------------------------ io

_BATCH_CHARS = 1 << 20  # about 1 MB of text per write


def atomic_write_text(path: str, pieces: Iterable[str]) -> None:
    """Write the concatenated pieces via a same-directory temp file and
    rename, so readers never see a half-written file.  The pieces are joined
    and written in batches of _BATCH_CHARS or more, so a large text is never
    held whole.  If a piece fails, the temp file goes and path is untouched."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            batch, size = [], 0
            for piece in pieces:
                batch.append(piece)
                size += len(piece)
                if size >= _BATCH_CHARS:
                    handle.write("".join(batch))
                    batch, size = [], 0
            handle.write("".join(batch))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(ds: DatasetFile, path: str, fmt: str | None = None) -> None:
    if fmt is None:
        fmt = "json" if str(path).endswith(".json") else "text"
    if fmt not in ("text", "json"):
        raise ValueError(f"fmt must be 'text' or 'json', got {fmt!r}")
    _check_dataset(ds)
    atomic_write_text(path, _text_lines(ds) if fmt == "text" else _json_lines(ds))


def _undecodable(exc: UnicodeDecodeError, line: int) -> DatasetFormatError:
    return DatasetFormatError(f"not UTF-8 text: {exc.reason} "
                              f"(byte 0x{exc.object[exc.start]:02x})", line=line)


def _file_lines(raws: Iterable[bytes]) -> Iterator[str]:
    """The lines str.splitlines() makes of the UTF-8 text of raws, a file's
    bytes split after each newline byte, decoded one byte line at a time.
    The lines break where text mode's universal newlines and then
    splitlines() break the whole text: only a newline byte ends a byte
    line, so no \\r\\n pair or UTF-8 sequence is cut.  An undecodable byte
    raises DatasetFormatError on its line."""
    line_no = 0
    for raw in raws:
        try:
            lines = raw.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            # the byte lies on the line after those that end before it
            before = raw[:exc.start].decode("utf-8") + "x"
            raise _undecodable(exc, line_no + len(before.splitlines())) from None
        line_no += len(lines)
        yield from lines


def _read_json_text(handle, head: list[bytes]) -> str:
    """The text that text mode reads from the open binary file handle, of
    which the byte lines head have been read.  A regular file is decoded
    straight from a read-only map of it, so its bytes are not copied onto the
    heap beside its text.  An undecodable byte raises DatasetFormatError on
    its line, counted as json counts lines."""
    info = os.fstat(handle.fileno())
    try:
        if stat.S_ISREG(info.st_mode) and info.st_size:
            with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
                text = str(mapped, "utf-8")
        else:  # no map of a pipe or an empty file
            text = (b"".join(head) + handle.read()).decode("utf-8")
    except UnicodeDecodeError as exc:
        before = exc.object[:exc.start]
        breaks = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise _undecodable(exc, breaks + 1) from None
    # the universal newlines of text mode
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def load_dataset(path: str) -> DatasetFile:
    """The dataset in the file at path, in the format its first character
    that is not whitespace tells ('{' for JSON, else text).  The text reader
    parses the file a line at a time, never holding its text; the JSON
    reader decodes the whole text with one json.loads."""
    with open(path, "rb") as handle:
        head, first = [], ""  # the byte lines read to tell the format
        for raw in handle:
            head.append(raw)
            # an undecodable byte ends the look; the reader locates it
            if first := raw.decode("utf-8", "replace").lstrip():
                break
        if first.startswith("{"):
            return _json_dataset(_json_payload(_read_json_text(handle, head)))
        return _load_lines(_file_lines(chain(head, handle)))


# -------------------------------------------------------- record materializers

def cap_areas(ds: DatasetFile) -> list[float]:
    """Distinct capacitor pad areas present, ascending [um^2]."""
    return sorted({rec.area_um2 for rec in ds.cap})


def _grid_shape(ds: DatasetFile) -> tuple[int, int]:
    """Declared rows/cols, each inferred from the dies when undeclared."""
    limits = _grid_limits(ds.wafer, "wafer")
    top = [(max(map(get, chain(ds.cap, ds.iv, ds.ramp)), default=-1), None)
           for get in (_ROW, _COL)]
    _check_extent(limits, top)
    shape = tuple(index + 1 if limit is None else limit
                  for limit, (index, _) in zip(limits, top))
    if 0 in shape:
        raise DatasetSchemaError("cannot infer grid shape: no die-addressed records")
    return shape


def cap_wafer_map(ds: DatasetFile, area_um2: float) -> WaferMap:
    """WaferMap of the capacitance cells probed at one pad area."""
    rows, cols = _grid_shape(ds)
    values = np.full((rows, cols), np.nan)
    probed = np.zeros((rows, cols), dtype=bool)
    found = False
    for rec in ds.cap:
        if rec.area_um2 != area_um2:
            continue
        found = True
        if rec.row < 0 or rec.col < 0:  # numpy would count it from the far edge
            name = "row" if rec.row < 0 else "col"
            raise _index_fault(name, getattr(rec, name), None)
        probed[rec.row, rec.col] = True
        if rec.c_ff is not None:
            values[rec.row, rec.col] = rec.c_ff
    if not found:
        raise DatasetSchemaError(f"no cap records at area {area_um2!r}")
    return WaferMap(values=values, probed=probed, area_um2=area_um2,
                    label=ds.label, units="fF")


# a curve or trace gets copies of its record's series, so no stage writes
# into a record and no view pins a record's array to its length

def iv_curves(ds: DatasetFile) -> list[IVCurve]:
    return [
        IVCurve(v=np.array(rec.v), i=np.array(rec.i), area_um2=rec.area_um2,
                die=(rec.row, rec.col), label=ds.label)
        for rec in ds.iv
    ]


def ramp_traces(ds: DatasetFile) -> list[RampTrace]:
    return [RampTrace(v=np.array(rec.v), i=np.array(rec.i), area_um2=rec.area_um2,
                      die=(rec.row, rec.col), step_v=rec.step_v,
                      rate_v_per_s=rec.rate_v_per_s) for rec in ds.ramp]


def ramp_blocks(ds: DatasetFile) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The ramps stacked by length: for each length, in ascending order, the
    file positions of its ramps and their v and i as (ramps, steps) blocks,
    v one (1, steps) row when those ramps share one staircase array.

    Every ramp is held to RampTrace's rules at once (breakdown.ramp_faults
    and a positive area).  A dataset with a faulty ramp raises what
    ramp_traces raises: RampTrace's error for the first one in file order.
    """
    records = ds.ramp
    codes = np.zeros(len(records), dtype=int)
    try:
        areas = map(operator.attrgetter("area_um2"), records)
        small = ~np.fromiter(map(operator.gt, areas, repeat(0.0)), bool, len(records))
        blocks = list(_judged("ramp", records, codes))
    except (TypeError, ValueError, OverflowError):
        ramp_traces(ds)  # entries that do not stack: RampTrace names the first
        raise
    if faulty := np.flatnonzero(codes | small).tolist():
        rec, code = records[faulty[0]], codes[faulty[0]]
        raise ValueError(series_message(code, len(rec.v)) if code else
                         f"area_um2 must be positive, got {rec.area_um2}")
    return blocks


def resistance_records(ds: DatasetFile) -> list[ResistanceRecord]:
    return [
        ResistanceRecord(
            geometry=JunctionGeometry(w_top=rec.w_top_um, w_bot=rec.w_bot_um,
                                      h=rec.h_um),
            r_mohm=rec.r_mohm,
        )
        for rec in ds.res
    ]


def ground_truth(ds: DatasetFile) -> dict | None:
    """Generator ground-truth snapshot, if this dataset carries one."""
    blob = ds.meta.get("ground_truth")
    if blob is None:
        return None
    try:
        return json.loads(blob)
    except json.JSONDecodeError:
        raise DatasetSchemaError("ground_truth metadata is not valid JSON") from None
