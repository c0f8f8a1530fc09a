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

Both readers only parse, raising DatasetFormatError for syntax and type
faults, and hand every record to one checker (_Checker).  Its rules, the
same for both formats:

* die indices are ints in [0, MAX_GRID) (a JSON bool is not an int)
* every other number is finite, and > 0 except a capacitance reading
* v and i have equal length >= 2, and v strictly increases
  (transport.sweep_arrays, which IVCurve and RampTrace apply too)
* ramp voltages advance in constant steps of step_v
  (breakdown.check_ramp_steps, which RampTrace applies too; ramp_blocks
  applies both rules to a wafer's ramps at once, through breakdown.ramp_faults)
* no two cap records share a die and an area
* wafer rows/cols, when present, are integers in [1, MAX_GRID], and every
  die lies inside them
* wafer and meta entries survive the text format (_check_attrs)

Errors carry the 1-based line number (text) or name the record, e.g.
"ramp record 3" (JSON).  Writers are atomic: content goes to a temp file in
the target directory which is then renamed over the destination.

Floats are written with repr(), which round-trips exactly, so
load(save(ds)) == ds field for field.
"""

from __future__ import annotations

import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass, field, fields
from itertools import chain, compress, repeat

import numpy as np

from .breakdown import RampTrace, check_ramp_steps, ramp_faults
from .capacitance import WaferMap
from .errors import (
    DatasetError,
    DatasetFormatError,
    DatasetSchemaError,
    DatasetUnitError,
)
from .geometry import JunctionGeometry
from .resistance import ResistanceRecord
from .transport import IVCurve, sweep_arrays

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


@dataclass
class IVRecord:
    row: int
    col: int
    area_um2: float
    v: list[float]
    i: list[float]


@dataclass
class ResRecordRow:
    w_top_um: float
    w_bot_um: float
    h_um: float
    r_mohm: float


@dataclass
class RampRecord:
    row: int
    col: int
    area_um2: float
    step_v: float
    rate_v_per_s: float
    v: list[float]
    i: list[float]


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
# type a reader must produce; _Checker applies the ranges.
_INDEX = "an integer"            # die row or col, in [0, MAX_GRID)
_POSITIVE = "a number"           # finite and > 0
_READING = "a number or null"    # finite; None marks a dead cell (`X` in text)
_SERIES = "a list of numbers"    # v and i; text writes a count, then v:i pairs
_KINDS = {"int": _INDEX, "float": _POSITIVE, "float | None": _READING,
          "list[float]": _SERIES}
_SCHEMA = {
    kind: (cls, tuple((f.name, _KINDS[f.type]) for f in fields(cls)))
    for kind, cls in (("cap", CapRecord), ("iv", IVRecord), ("res", ResRecordRow),
                      ("ramp", RampRecord))
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


class _Checker:
    """The schema's value rules, fed one dataset in file order by a reader."""

    def __init__(self):
        self.limits: tuple[int | None, int | None] = (None, None)
        self.top = [(-1, None), (-1, None)]  # largest row and col, and where
        self.cells: set[tuple[int, int, float]] = set()

    def wafer(self, wafer: dict[str, str], where) -> None:
        _check_attrs("wafer", wafer, where)
        self.limits = _grid_limits(wafer, where)

    def record(self, kind: str, rec, where) -> None:
        for name, ftype in _SCHEMA[kind][1]:
            x = getattr(rec, name)
            if ftype is _INDEX:
                if not 0 <= x < MAX_GRID:
                    raise _fault(DatasetSchemaError, f"die indices must be >= 0 "
                                 f"and < {MAX_GRID}, got {name} {x}", where)
            elif ftype is _POSITIVE or ftype is _READING and x is not None:
                if not math.isfinite(x):
                    raise _fault(DatasetFormatError, f"{name} must be finite, "
                                 f"got {x!r}", where)
                if ftype is _POSITIVE and not x > 0.0:
                    raise _fault(DatasetSchemaError, f"{name} must be positive, "
                                 f"got {x!r}", where)
        if kind == "res":
            return
        for axis, index in enumerate((rec.row, rec.col)):
            if index > self.top[axis][0]:
                self.top[axis] = (index, where)
        if kind == "cap":
            cell = (rec.row, rec.col, rec.area_um2)
            if cell in self.cells:
                raise _fault(DatasetSchemaError, f"duplicate cap record for die "
                             f"({rec.row}, {rec.col}) at area {rec.area_um2!r}",
                             where)
            self.cells.add(cell)
            return
        try:
            v, _ = sweep_arrays(rec.v, rec.i)
            if kind == "ramp":
                check_ramp_steps(v, rec.step_v)
        except ValueError as exc:
            raise _fault(DatasetSchemaError, str(exc), where) from None

    def finish(self) -> None:
        _check_extent(self.limits, self.top)


# ---------------------------------------------------------------- text format

def _fmt(x: float) -> str:
    return repr(float(x))


def _pairs(v: list[float], i: list[float]) -> str:
    # map/zip/join run per value in C; each value is still repr(float(x))
    return " ".join(map(":".join, zip(map(repr, map(float, v)), map(repr, map(float, i)))))


def _text_tokens(rec, schema, kind: str, n: int):
    for name, ftype in schema:
        x = getattr(rec, name)
        if ftype is _INDEX:
            yield str(x)
        elif ftype is not _SERIES:
            yield "X" if x is None else _fmt(x)
        elif name == "v":
            if len(x) != len(rec.i):
                raise _fault(DatasetSchemaError, f"v and i differ in length "
                             f"({len(x)} vs {len(rec.i)})", f"{kind} record {n}")
            yield f"{len(x)} {_pairs(x, rec.i)}"


def dumps_text(ds: DatasetFile) -> str:
    _check_attrs("wafer", ds.wafer, None)
    _check_attrs("meta", ds.meta, None)
    lines = [f"format {FORMAT_NAME} {FORMAT_VERSION}"]
    lines.append("units " + " ".join(f"{k}={v}" for k, v in CANONICAL_UNITS.items()))
    if ds.wafer:
        lines.append("wafer " + " ".join(f"{k}={v}" for k, v in ds.wafer.items()))
    lines.extend(f"meta {key}={value}" for key, value in ds.meta.items())
    for kind, (_, schema) in _SCHEMA.items():
        for n, rec in enumerate(getattr(ds, kind)):
            lines.append(" ".join([kind, *_text_tokens(rec, schema, kind, n)]))
    return "\n".join(lines) + "\n"


def _parse(cast: type, tok: str, what: str, line: int):
    try:
        return cast(tok)
    except ValueError:
        kind = _INDEX if cast is int else _POSITIVE
        raise DatasetFormatError(f"{what} must be {kind}, got {tok!r}", line=line) from None


def _parse_pairs(toks: list[str], npts: int, line: int) -> tuple[list[float], list[float]]:
    if len(toks) != npts:
        raise DatasetFormatError(
            f"expected {npts} v:i pairs, found {len(toks)}", line=line
        )
    flat = ":".join(toks).split(":") if toks else []
    # 2 * npts values with a colon in every token: exactly one colon in each
    if len(flat) != 2 * npts or not all(":" in tok for tok in toks):
        bad = next(tok for tok in toks if tok.count(":") != 1)
        raise DatasetFormatError(f"malformed v:i pair {bad!r}", line=line)
    try:
        values = list(map(float, flat))
    except ValueError:
        values = [_parse(float, x, "vi"[k % 2], line) for k, x in enumerate(flat)]
    return values[0::2], values[1::2]


def _text_record(kind: str, toks: list[str], line: int):
    cls, schema = _SCHEMA[kind]
    scalars = [f for f in schema if f[1] is not _SERIES]
    n, values = len(scalars), {}
    if n < len(schema) and len(toks) > n:  # a count, then v:i pairs
        npts = _parse(int, toks[n], "point count", line)
        values["v"], values["i"] = _parse_pairs(toks[n + 1:], npts, line)
    elif n < len(schema):
        raise DatasetFormatError(f"{kind} record too short", line=line)
    elif len(toks) != n:
        raise DatasetFormatError(f"{kind} record needs {n} fields, got {len(toks)}",
                                 line=line)
    for (name, ftype), tok in zip(scalars, toks):
        values[name] = None if ftype is _READING and tok == "X" else \
            _parse(int if ftype is _INDEX else float, tok, name, line)
    return cls(**values)


def loads_text(text: str) -> DatasetFile:
    ds = DatasetFile()
    check = _Checker()
    seen_format = False
    seen_units = False
    seen_wafer = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
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
        rec = _text_record(kind, rest.split(), line_no)
        check.record(kind, rec, line_no)
        getattr(ds, kind).append(rec)
    if not seen_format:
        raise DatasetFormatError("empty dataset: missing format declaration", line=1)
    check.finish()
    return ds


# ---------------------------------------------------------------- json format

def dumps_json(ds: DatasetFile) -> str:
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "units": CANONICAL_UNITS,
        "wafer": ds.wafer,
        "meta": ds.meta,
    }
    for kind, (_, schema) in _SCHEMA.items():
        payload[kind] = [{name: getattr(rec, name) for name, _ in schema}
                         for rec in getattr(ds, kind)]
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _json_value(rec: dict, name: str, ftype: str, where: str):
    if name not in rec:
        raise DatasetSchemaError(f"{where}: missing key {name!r}")
    x = rec[name]
    try:
        if ftype is _INDEX:
            if type(x) is int:
                return x
        elif ftype is _SERIES:
            if type(x) is list:
                types = set(map(type, x))
                if types <= {float}:
                    return x
                if types <= {int, float}:
                    return list(map(float, x))
        elif type(x) in (int, float):
            return float(x)
        elif ftype is _READING and x is None:
            return None
    except OverflowError:
        pass
    raise DatasetFormatError(f"{where}: {name} must be {ftype}, got {x!r}")


def loads_json(text: str) -> DatasetFile:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
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
    ds = DatasetFile()
    check = _Checker()
    for section in ("wafer", "meta"):
        attrs = payload.get(section, {})
        if not isinstance(attrs, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in attrs.items()
        ):
            raise DatasetSchemaError(f"{section!r} must map strings to strings")
        setattr(ds, section, dict(attrs))
    check.wafer(ds.wafer, "wafer")
    _check_attrs("meta", ds.meta, "meta")
    for kind, (cls, schema) in _SCHEMA.items():
        records = payload.get(kind, [])
        if not isinstance(records, list):
            raise DatasetFormatError(f"{kind!r} must be a list of records")
        for idx, raw in enumerate(records):
            where = f"{kind} record {idx}"
            if not isinstance(raw, dict):
                raise DatasetFormatError(f"{where}: must be an object")
            rec = cls(**{name: _json_value(raw, name, ftype, where)
                         for name, ftype in schema})
            check.record(kind, rec, where)
            getattr(ds, kind).append(rec)
    check.finish()
    return ds


# ------------------------------------------------------------------------ io

def atomic_write_text(path: str, data: str) -> None:
    """Write via a same-directory temp file and rename, so readers never see
    a half-written file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(ds: DatasetFile, path: str, fmt: str | None = None) -> None:
    if fmt is None:
        fmt = "json" if str(path).endswith(".json") else "text"
    if fmt == "text":
        atomic_write_text(path, dumps_text(ds))
    elif fmt == "json":
        atomic_write_text(path, dumps_json(ds))
    else:
        raise ValueError(f"fmt must be 'text' or 'json', got {fmt!r}")


def load_dataset(path: str, fmt: str | None = None) -> DatasetFile:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if fmt is None:
        head = text.lstrip()
        fmt = "json" if head.startswith("{") else "text"
    if fmt == "text":
        return loads_text(text)
    if fmt == "json":
        return loads_json(text)
    raise ValueError(f"fmt must be 'text' or 'json', got {fmt!r}")


# -------------------------------------------------------- record materializers

def cap_areas(ds: DatasetFile) -> list[float]:
    """Distinct capacitor pad areas present, ascending [um^2]."""
    return sorted({rec.area_um2 for rec in ds.cap})


def _grid_shape(ds: DatasetFile) -> tuple[int, int]:
    """Declared rows/cols, each inferred from the dies when undeclared."""
    limits = _grid_limits(ds.wafer, "wafer")
    dies = [*ds.cap, *ds.iv, *ds.ramp]
    top = [(max((r.row for r in dies), default=-1), None),
           (max((r.col for r in dies), default=-1), None)]
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
        probed[rec.row, rec.col] = True
        if rec.c_ff is not None:
            values[rec.row, rec.col] = rec.c_ff
    if not found:
        raise DatasetSchemaError(f"no cap records at area {area_um2!r}")
    return WaferMap(values=values, probed=probed, area_um2=area_um2,
                    label=ds.label, units="fF")


def iv_curves(ds: DatasetFile) -> list[IVCurve]:
    return [
        IVCurve(v=np.asarray(rec.v), i=np.asarray(rec.i), area_um2=rec.area_um2,
                die=(rec.row, rec.col), label=ds.label)
        for rec in ds.iv
    ]


_V, _I = operator.attrgetter("v"), operator.attrgetter("i")


def _ramp_trace(rec: RampRecord) -> RampTrace:
    return RampTrace(v=np.asarray(rec.v), i=np.asarray(rec.i), area_um2=rec.area_um2,
                     die=(rec.row, rec.col), step_v=rec.step_v,
                     rate_v_per_s=rec.rate_v_per_s)


def ramp_traces(ds: DatasetFile) -> list[RampTrace]:
    return list(map(_ramp_trace, ds.ramp))


def ramp_blocks(ds: DatasetFile) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The ramps stacked by length: for each length, in ascending order, the
    file positions of its ramps and their v and i as (ramps, steps) blocks.

    Every ramp is held to RampTrace's rules at once (breakdown.ramp_faults
    and a positive area).  A dataset with a faulty ramp raises what
    ramp_traces raises: RampTrace's error for the first one in file order.
    """
    records = ds.ramp
    n = len(records)
    try:
        sizes = np.fromiter(map(len, map(_V, records)), int, n)
        faulty = sizes != np.fromiter(map(len, map(_I, records)), int, n)
        areas = map(operator.attrgetter("area_um2"), records)
        faulty |= ~np.fromiter(map(operator.gt, areas, repeat(0.0)), bool, n)
        # unconverted, so a step_v RampTrace cannot use fails here too
        step_v = np.array(list(map(operator.attrgetter("step_v"), records)))
        blocks = []
        for size in sorted(set(sizes[~faulty].tolist())):
            take = (sizes == size) & ~faulty
            rows = np.flatnonzero(take)
            group = list(compress(records, take))
            v, i = (np.fromiter(chain.from_iterable(map(get, group)), float,
                                rows.size * size).reshape(rows.size, size)
                    for get in (_V, _I))
            faulty[rows] = ramp_faults(v, i, step_v[rows])
            blocks.append((rows, v, i))
    except (TypeError, ValueError, OverflowError):
        ramp_traces(ds)  # entries that do not stack: RampTrace names the first
        raise
    for rec in compress(records, faulty):  # RampTrace names the first fault
        _ramp_trace(rec)
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
