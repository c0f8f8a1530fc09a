"""The readers' fast paths against the rules they stand in for.

* the series rules run per block, yet a file with several faults raises what
  a record-by-record check raises: the first fault in file order, series
  faults included, in both codecs, wherever the checker's flushes cut the
  file into blocks
* the text reader parses each voltage staircase once and shares its array
  with the series after it that repeat its v tokens; every record still
  gets currents of its own
* load_dataset reads a text file a line at a time, yet gives what
  loads_text gives for the file's text: the same dataset, or the same error
  class, message and line
* transport.sweep_faults and breakdown.ramp_faults name, row by row, the
  fault that the scalar series rules, kept here as the oracle, name
"""

import itertools
import json
import math
import os
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jjwafer import dataset
from jjwafer.breakdown import ramp_faults
from jjwafer.dataset import (
    DatasetFile,
    dumps_json,
    dumps_text,
    load_dataset,
    loads_json,
    loads_text,
)
from jjwafer.errors import DatasetError, DatasetFormatError, DatasetSchemaError
from jjwafer.synthetic import WaferSpec, generate_wafer
from jjwafer.transport import series_message, sweep_faults
from test_dataset import ramp_records


def scalar_message(v, i, step_v=None):
    """The oracle: the series rules as the package applied them to one
    series before the block rules became their only implementation
    (transport.sweep_arrays, then breakdown.check_ramp_steps for a ramp's
    step_v).  The message of the first rule broken, or None."""
    v = np.asarray(v, dtype=float)
    i = np.asarray(i, dtype=float)
    if v.ndim != 1 or v.shape != i.shape:
        return "v and i must be 1-D arrays of equal length"
    if v.size < 2:
        return f"a sweep needs at least 2 points, got {v.size}"
    if not (np.isfinite(v).all() and np.isfinite(i).all()):
        return "v and i must be finite"
    with np.errstate(over="ignore"):  # a step of finite voltages may overflow
        steps = np.diff(v)
    if not (steps > 0.0).all():
        return "v must be strictly increasing"
    if not np.isfinite(steps).all():
        return "v must advance in finite steps"
    if step_v is None:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        mean = steps.mean()
        if (np.max(np.abs(steps - mean)) > 0.01 * mean
                or abs(mean - step_v) > 0.01 * step_v):
            return "ramp voltages must advance in constant steps of step_v (within 1%)"
    return None


class PerRecordChecker(dataset._Checker):
    """The reference: the oracle's series rules applied to each record as it
    arrives, so it never holds a queue to flush, whatever the cadence."""

    def record(self, kind, rec, where):
        super().record(kind, rec, where)
        if self.series:
            self.series.pop()
            message = scalar_message(rec.v, rec.i, rec.step_v if kind == "ramp" else None)
            if message is not None:
                raise dataset._fault(DatasetSchemaError, message, where)

    def flush(self):
        pass


def _outcome(loads, text):
    try:
        return "accepted", dumps_json(loads(text))
    except DatasetError as exc:
        return type(exc).__name__, str(exc)


def _both(loads, text, monkeypatch):
    """What the reader gives for text, and what the reference gives."""
    got = _outcome(loads, text)
    with monkeypatch.context() as patch:
        patch.setattr(dataset, "_Checker", PerRecordChecker)
        want = _outcome(loads, text)
    return got, want


# short ramps keep the files small; ramps of two lengths make two blocks
BASES = [generate_wafer(WaferSpec(rows=3, cols=3 + k % 2, seed=k, ramp_v_max=0.3,
                                  cap_areas_um2=(25.0, 100.0), n_iv_dies=2 + k % 2,
                                  defect_density_cm2=5.5e5)).dataset
         for k in range(4)]
for base in BASES:
    base.meta.clear()
    base.ramp[0].v, base.ramp[0].i = base.ramp[0].v[:-4], base.ramp[0].i[:-4]


def _text_fault(lines, rng):
    """Break one line of a text dataset: a series, scalar or format fault."""
    data = [k for k, line in enumerate(lines) if line.split(" ", 1)[0] in dataset._SCHEMA]
    series = [k for k in data if lines[k].startswith(("iv ", "ramp "))]
    fault = rng.choice(["nan_i", "falling", "uneven", "short", "area", "row", "c_nan",
                        "res_zero", "bad_i", "count", "unknown", "dup_cap", "extent"])
    if fault in ("nan_i", "falling", "uneven", "short", "bad_i", "count"):
        k = rng.choice(series)
        toks = lines[k].split(" ")
        n = len(dataset._SCHEMA[toks[0]][2]) + 1
        pairs = [tok.split(":") for tok in toks[n + 1:]]
        if len(pairs) < 2 or not all(len(pair) == 2 for pair in pairs):
            return  # an earlier fault left no pairs to break
        j = rng.randrange(len(pairs) - 1)
        if fault == "nan_i":
            pairs[j][1] = "nan"
        elif fault == "falling":
            pairs[j][0], pairs[j + 1][0] = pairs[j + 1][0], pairs[j][0]
        elif fault == "uneven":
            pairs[j][0] = repr(float(pairs[j][0]) + 0.003)
        elif fault == "short":
            pairs, toks[n] = pairs[:1], "1"
        elif fault == "bad_i":
            pairs[j][1] = "abc"
        else:
            toks[n] = str(len(pairs) + 1)
        lines[k] = " ".join(toks[:n + 1] + [":".join(pair) for pair in pairs])
        return
    k = rng.choice(data)
    toks = lines[k].split(" ")
    if fault == "unknown":
        lines.insert(k, "spam 1 2")
    elif fault == "dup_cap":
        caps = [c for c in data if lines[c].startswith("cap ")]
        c = rng.choice(caps)
        lines.insert(rng.randrange(c + 1, len(lines) + 1), lines[c])
    elif fault == "extent":
        lines[2] += " rows=1"
    elif toks[0] == "res" or fault == "res_zero":
        if toks[0] == "res":
            toks[rng.randrange(1, 5)] = "0.0"
            lines[k] = " ".join(toks)
    elif fault == "c_nan":
        if toks[0] == "cap":
            toks[4] = "nan"
            lines[k] = " ".join(toks)
    else:
        toks[3 if fault == "area" else 1] = "-5.0" if fault == "area" else "5000"
        lines[k] = " ".join(toks)


def _json_fault(payload, rng):
    """Break one record of a JSON payload: a series, scalar or format fault."""
    fault = rng.choice(["nan_i", "falling", "uneven", "unequal", "empty", "area", "row",
                        "str", "drop", "dup_cap", "extent"])
    if fault in ("nan_i", "falling", "uneven", "unequal", "empty"):
        rec = rng.choice(payload[rng.choice(["iv", "ramp"])])
        if not (isinstance(rec.get("v"), list) and isinstance(rec.get("i"), list)
                and len(rec["v"]) == len(rec["i"]) > 1):
            return  # an earlier fault left no series to break
        j = rng.randrange(len(rec["v"]) - 1)
        if fault == "nan_i":
            rec["i"][j] = math.nan
        elif fault == "falling":
            rec["v"][j], rec["v"][j + 1] = rec["v"][j + 1], rec["v"][j]
        elif fault == "uneven":
            rec["v"][j] += 0.003
        elif fault == "unequal":
            rec["i"].pop()
        else:
            rec["v"], rec["i"] = [], []
        return
    if fault == "extent":
        payload["wafer"]["rows"] = "1"
        return
    kind = rng.choice(["cap", "iv", "res", "ramp"])
    records = payload[kind]
    k = rng.randrange(len(records))
    if fault == "dup_cap":
        records = payload["cap"]
        records.insert(rng.randrange(k, len(records) + 1), dict(records[k]))
        return
    name = rng.choice(sorted(records[k]))
    if fault == "drop":
        del records[k][name]
    else:
        records[k][name] = {"area": -5.0, "row": 5000, "str": "x"}[fault]


def _multi_fault_text(seed, rng):
    lines = dumps_text(BASES[seed % len(BASES)]).splitlines()
    for _ in range(rng.randint(1, 3)):
        _text_fault(lines, rng)
    return "\n".join(lines) + "\n"


# flushes after every series, every other one and every third one cut the
# files at every boundary; each file holds fewer series than the default
CADENCES = [dataset._FLUSH_SERIES, 1, 2, 3]


@pytest.mark.parametrize("codec", ["text", "json"])
def test_multi_fault_files_raise_what_a_per_record_check_raises(codec, monkeypatch):
    outcomes = set()
    for seed, cadence in itertools.product(range(150), CADENCES):
        monkeypatch.setattr(dataset, "_FLUSH_SERIES", cadence)
        rng = random.Random(seed)
        base = BASES[seed % len(BASES)]
        if codec == "text":
            got, want = _both(loads_text, _multi_fault_text(seed, rng), monkeypatch)
        else:
            payload = json.loads(dumps_json(base))
            for _ in range(rng.randint(1, 3)):
                _json_fault(payload, rng)
            got, want = _both(loads_json, json.dumps(payload), monkeypatch)
        assert got == want, (seed, cadence)
        outcomes.add(got[1].split(": ")[-1][:24])
    # the files reach series, scalar and format faults alike
    assert {"v must be strictly incre", "v and i must be finite",
            "ramp voltages must advan"} <= outcomes
    assert len(outcomes) > 10


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(ramp_records(), min_size=1, max_size=8), st.sampled_from(CADENCES))
def test_ramps_raise_what_a_per_record_check_raises(records, cadence):
    ds = DatasetFile(ramp=records)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "_FLUSH_SERIES", cadence)
        # the formatters behind the writers' gate write any record
        for loads, lines in ((loads_text, dataset._text_lines),
                             (loads_json, dataset._json_lines)):
            got, want = _both(loads, "".join(lines(ds)), patch)
            assert got == want


def _edge_texts():
    """Text files at the edges of line splitting and format detection."""
    text = dumps_text(BASES[1])
    lines = text.splitlines(keepends=True)
    ramp = next(k for k, line in enumerate(lines) if line.startswith("ramp "))
    cap = next(k for k, line in enumerate(lines) if line.startswith("cap "))
    edges = {"crlf": text.replace("\n", "\r\n"), "cr": text.replace("\n", "\r"),
             "cr-then-crlf": text.replace("\n", "\r", 3).replace("\n", "\r\n"),
             "no-final-newline": text.rstrip("\n"), "empty": "",
             "blank-only": " \n\t\r\n\u3000\n",
             "blank-before": "\n  \n\t\r\n\x0c\u3000\n" + text}
    # line breaks to str.splitlines alone, inside a record line and at its end
    for ch in ("\x0c", "\x85", "\u2028"):
        for where, k, at in (("ramp-mid", ramp, 40), ("ramp-end", ramp, -1),
                             ("cap-mid", cap, 4)):
            broken = lines.copy()
            broken[k] = broken[k][:at] + ch + broken[k][at:]
            edges[f"{ord(ch):x}-{where}"] = "".join(broken)
    return edges


def test_load_dataset_reads_a_file_as_loads_text_reads_its_text(tmp_path):
    texts = {f"seed{seed}": _multi_fault_text(seed, random.Random(seed))
             for seed in range(150)}
    texts.update(_edge_texts())
    outcomes = set()
    for name, text in texts.items():
        path = tmp_path / "w.dat"
        path.write_bytes(text.encode())
        got, want = _outcome(load_dataset, str(path)), _outcome(loads_text, text)
        assert got == want, name
        outcomes.add(want[0])
    assert outcomes == {"accepted", "DatasetFormatError", "DatasetSchemaError"}
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd to name a pipe by")
    for name in ("crlf", "85-ramp-mid", "empty"):
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, texts[name].encode())
            os.close(write_end)
            got = _outcome(load_dataset, f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert got == _outcome(loads_text, texts[name]), name


RAMP_LINE = "ramp 0 {col} 25.0 0.01 0.07 {n} {pairs}"


def _ramp_line(col, v_toks, i_toks=None):
    pairs = " ".join(f"{v}:{i}" for v, i in zip(v_toks, i_toks or CURRENTS))
    return RAMP_LINE.format(col=col, n=len(v_toks), pairs=pairs)


def _read(*lines):
    return loads_text("format jjwafer-dataset 1\n"
                      "units area=um2 c=fF r=MOhm len=um v=V i=A step=V rate=V/s\n"
                      + "".join(line + "\n" for line in lines))


STAIR = ["0.01", "0.02", "0.03", "0.04"]
CURRENTS = ["1e-12", "2e-12", "3e-12", "4e-12", "5e-12"]


@pytest.mark.parametrize("second", [
    ["0.010", "0.02", "0.03", "0.04"],    # the same staircase, spelled otherwise
    ["0.01", "0.02", "0.03", "0.0401"],   # one token differs
    ["0.01", "0.02", "0.03"],             # shorter
    ["0.01", "0.02", "0.03", "0.04", "0.05"],  # longer
    STAIR,                                # a repeat
])
def test_each_series_gets_the_floats_of_its_own_tokens(second):
    ds = _read(_ramp_line(0, STAIR, CURRENTS), _ramp_line(1, second, CURRENTS),
               _ramp_line(2, STAIR, CURRENTS))
    assert [list(rec.v) for rec in ds.ramp] == [[float(t) for t in toks]
                                                for toks in (STAIR, second, STAIR)]
    assert [list(rec.i) for rec in ds.ramp] == [[float(t) for t in CURRENTS[:len(toks)]]
                                                for toks in (STAIR, second, STAIR)]


def test_an_iv_sweep_between_ramps_keeps_both_staircases():
    sweep = "iv 0 3 25.0 3 0.1:1e-9 0.3:2e-9 0.7:5e-9"
    ds = _read(_ramp_line(0, STAIR, CURRENTS), sweep, _ramp_line(1, STAIR, CURRENTS),
               sweep)
    assert [list(rec.v) for rec in ds.ramp] == [[0.01, 0.02, 0.03, 0.04]] * 2
    assert [list(rec.v) for rec in ds.iv] == [[0.1, 0.3, 0.7]] * 2


def test_a_bad_current_on_a_repeated_staircase_names_its_token():
    with pytest.raises(DatasetFormatError) as refused:
        _read(_ramp_line(0, STAIR, CURRENTS),
              _ramp_line(1, STAIR, ["1e-12", "2e-12", "abc", "4e-12"]))
    assert str(refused.value) == "line 4: i must be a number, got 'abc'"
    # a bad v token before it in the same line is named first
    with pytest.raises(DatasetFormatError) as refused:
        _read(_ramp_line(0, STAIR, CURRENTS),
              _ramp_line(1, ["0.01", "0.0x", "0.03", "0.04"],
                         ["1e-12", "2e-12", "abc", "4e-12"]))
    assert str(refused.value) == "line 4: v must be a number, got '0.0x'"


def test_records_sharing_a_staircase_share_its_array_and_own_their_currents():
    ds = _read(*(_ramp_line(col, STAIR, CURRENTS) for col in range(3)))
    assert ds.ramp[0].v is ds.ramp[1].v is ds.ramp[2].v
    ds.ramp[1].i[0] = 99.0
    ds.ramp[1].v = [99.0, 0.02, 0.03, 0.04, 1.0]
    assert [list(rec.v) for rec in ds.ramp] == [[0.01, 0.02, 0.03, 0.04],
                                                [99.0, 0.02, 0.03, 0.04, 1.0],
                                                [0.01, 0.02, 0.03, 0.04]]
    assert [rec.i[0] for rec in ds.ramp] == [1e-12, 99.0, 1e-12]
    assert ds.ramp[0].v is ds.ramp[2].v


def test_a_later_reader_call_shares_nothing_with_an_earlier_one():
    first = _read(_ramp_line(0, STAIR, CURRENTS))
    first.ramp[0].v[0] = 99.0
    assert list(_read(_ramp_line(0, STAIR, CURRENTS)).ramp[0].v) == [0.01, 0.02, 0.03, 0.04]


@pytest.mark.parametrize("first, later, message", [
    ("nan_i", "area", "v and i must be finite"),
    ("area", "nan_i", "area_um2 must be positive, got -5.0"),
    ("falling", "bad_i", "v must be strictly increasing"),
    ("bad_i", "falling", "i must be a number, got 'abc'"),
    ("uneven", "extent", "ramp voltages must advance in constant steps of step_v "
                         "(within 1%)"),
])
def test_the_first_fault_in_file_order_wins(first, later, message):
    lines = [_ramp_line(col, STAIR, CURRENTS) for col in range(4)]
    for col, fault in ((1, first), (2, later)):
        toks = lines[col].split(" ")
        if fault == "area":
            toks[3] = "-5.0"
        elif fault == "nan_i":
            toks[8] = "0.02:nan"
        elif fault == "bad_i":
            toks[8] = "0.02:abc"
        elif fault == "falling":
            toks[8], toks[9] = "0.03:2e-12", "0.02:3e-12"
        elif fault == "uneven":
            toks[8] = "0.023:2e-12"
        lines[col] = " ".join(toks)
    if "extent" in (first, later):
        lines.append("wafer rows=1 cols=1")  # a die lies outside: seen at the end
    with pytest.raises(DatasetError) as refused:
        _read(*lines)
    assert refused.value.bare_message == message
    assert refused.value.line == 4  # the second ramp, the first fault


# values that trip each part of the rule: non-finite ones, ties (0.0 twice),
# and finite neighbours whose difference overflows to inf
values = st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.5, 1e-300, -1.7e308, 1.7e308,
                          math.nan, math.inf, -math.inf])


@st.composite
def blocks(draw):
    rows, points = draw(st.integers(1, 6)), draw(st.sampled_from([0, 1, 2, 2, 3, 5]))
    grid = st.lists(st.lists(values, min_size=points, max_size=points),
                    min_size=rows, max_size=rows)
    v = np.array(draw(grid), dtype=float).reshape(rows, points)
    if draw(st.booleans()):  # mostly increasing rows, so valid ones occur
        v = np.sort(v, axis=1)
    i = np.array(draw(grid), dtype=float).reshape(rows, points)
    if draw(st.booleans()):
        i = np.nan_to_num(i)
    return v, i


def _messages(codes, points):
    return [series_message(code, points) if code else None for code in codes.tolist()]


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(blocks(), st.sampled_from([0.01, 1.0, 2.5, -1.0]))
def test_the_block_rules_name_the_fault_the_scalar_rules_name(block, step):
    v, i = block
    points = v.shape[1]
    assert _messages(sweep_faults(v, i), points) == [
        scalar_message(v_row, i_row) for v_row, i_row in zip(v, i)]
    assert _messages(ramp_faults(v, i, np.full(len(i), step)), points) == [
        scalar_message(v_row, i_row, step) for v_row, i_row in zip(v, i)]


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(blocks(), st.sampled_from([0.01, 1.0, 2.5, -1.0]))
def test_a_shared_staircase_row_gets_the_verdicts_of_its_block(block, step):
    v, i = block
    row, step_v = v[:1], np.full(len(i), step)
    full = np.repeat(row, len(i), axis=0)
    assert sweep_faults(row, i).tolist() == sweep_faults(full, i).tolist()
    assert ramp_faults(row, i, step_v).tolist() == ramp_faults(full, i, step_v).tolist()
