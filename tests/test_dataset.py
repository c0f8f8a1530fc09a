"""Dataset container: text/JSON round trips, eager validation, materializers."""

import copy
import json
import math
import os
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jjwafer.breakdown import RampTrace
from jjwafer.capacitance import WaferMap
from jjwafer.dataset import (
    CANONICAL_UNITS,
    CapRecord,
    DatasetFile,
    IVRecord,
    RampRecord,
    ResRecordRow,
    atomic_write_text,
    cap_areas,
    cap_wafer_map,
    dumps_json,
    dumps_text,
    ground_truth,
    iv_curves,
    load_dataset,
    loads_json,
    loads_text,
    ramp_blocks,
    ramp_traces,
    resistance_records,
    save_dataset,
)
from jjwafer.errors import (
    DatasetFormatError,
    DatasetSchemaError,
    DatasetUnitError,
)
from jjwafer.report import analyze
from jjwafer.synthetic import WaferSpec, generate_wafer, preset_spec
from jjwafer.transport import IVCurve

HEADER = ("format jjwafer-dataset 1\n"
          "units area=um2 c=fF r=MOhm len=um v=V i=A step=V rate=V/s\n")


def sample_dataset():
    return DatasetFile(
        wafer={"label": "ref", "rows": "3", "cols": "3"},
        meta={"note": "hello world", "seed": "42"},
        cap=[
            CapRecord(row=0, col=0, area_um2=25.0, c_ff=0.1 + 0.2),
            CapRecord(row=0, col=1, area_um2=25.0, c_ff=None),
            CapRecord(row=0, col=0, area_um2=100.0, c_ff=1.0 / 3.0),
        ],
        iv=[IVRecord(row=1, col=1, area_um2=25.0,
                     v=[0.01, 0.02, 0.03], i=[1.2e-12, 2.5e-12, 3.9e-12])],
        res=[ResRecordRow(w_top_um=5.0, w_bot_um=10.0, h_um=0.12, r_mohm=218.7)],
        ramp=[RampRecord(row=1, col=1, area_um2=25.0, step_v=0.01,
                         rate_v_per_s=0.07,
                         v=[0.01, 0.02, 0.03], i=[1e-12, 2.1e-12, 3.4e-12])],
    )


# --- round trips ---


def test_text_round_trip_is_exact():
    ds = sample_dataset()
    assert loads_text(dumps_text(ds)) == ds


def test_json_round_trip_is_exact():
    ds = sample_dataset()
    assert loads_json(dumps_json(ds)) == ds


def test_round_trip_preserves_awkward_floats():
    ds = sample_dataset()
    ds.cap[0].c_ff = 1.23456789e-300
    back = loads_text(dumps_text(ds))
    assert back.cap[0].c_ff == 1.23456789e-300
    assert back.cap[2].c_ff == 1.0 / 3.0


def test_synthetic_wafer_survives_both_formats():
    ds = generate_wafer(WaferSpec(rows=6, cols=6, seed=9)).dataset
    assert loads_text(dumps_text(ds)) == ds
    assert loads_json(dumps_json(ds)) == ds


def test_save_load_with_format_sniffing(tmp_path):
    ds = sample_dataset()
    text_path = str(tmp_path / "w.dat")
    json_path = str(tmp_path / "w.json")
    save_dataset(ds, text_path)
    save_dataset(ds, json_path)
    with open(json_path) as fh:
        assert fh.read().lstrip().startswith("{")
    assert load_dataset(text_path) == ds
    assert load_dataset(json_path) == ds
    with pytest.raises(ValueError):
        save_dataset(ds, text_path, fmt="xml")


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "out.dat")
    atomic_write_text(path, ["pay", "load\n"])
    with open(path) as fh:
        assert fh.read() == "payload\n"
    assert os.listdir(tmp_path) == ["out.dat"]


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
@pytest.mark.parametrize("dumps", [dumps_text, dumps_json])
def test_load_dataset_reads_what_text_mode_reads(tmp_path, newline, dumps):
    path = tmp_path / "w.dat"
    path.write_bytes(dumps(sample_dataset()).replace("\n", newline).encode())
    assert load_dataset(str(path)) == sample_dataset()
    # a fault is located on the line text mode puts it on
    path.write_bytes(newline.join(["{", '"format": 1,', "}"]).encode())
    with pytest.raises(DatasetFormatError) as refused:
        load_dataset(str(path))
    with pytest.raises(json.JSONDecodeError) as decoded:
        json.loads(path.read_text(encoding="utf-8"))
    assert refused.value.line == decoded.value.lineno == 3


def test_load_dataset_reads_empty_files_and_pipes(tmp_path):
    path = tmp_path / "empty.dat"
    path.write_bytes(b"")
    with pytest.raises(DatasetFormatError, match="empty dataset"):
        load_dataset(str(path))
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd to name a pipe by")
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, dumps_text(sample_dataset()).encode())
        os.close(write_end)
        assert load_dataset(f"/dev/fd/{read_end}") == sample_dataset()
    finally:
        os.close(read_end)


@pytest.mark.parametrize("dumps", [dumps_text, dumps_json])
def test_load_dataset_refuses_a_byte_that_is_not_utf8_on_its_line(tmp_path, dumps):
    path = tmp_path / "w.dat"
    data = dumps(sample_dataset()).encode()
    path.write_bytes(data[:300] + b"\xff\xfe")
    with pytest.raises(DatasetFormatError) as refused:
        load_dataset(str(path))
    assert refused.value.line == data[:300].count(b"\n") + 1
    assert refused.value.bare_message == "not UTF-8 text: invalid start byte (byte 0xff)"
    # a cut UTF-8 sequence on a line of its own after a CRLF
    cut = data.index(b"\n", 300)
    path.write_bytes(data[:cut] + b"\r\n\xe2\x80\n" + data[cut + 1:])
    with pytest.raises(DatasetFormatError) as refused:
        load_dataset(str(path))
    assert refused.value.line == data[:cut].count(b"\n") + 2
    assert refused.value.bare_message == ("not UTF-8 text: invalid continuation byte "
                                          "(byte 0xe2)")
    if dumps is dumps_text:  # read a line at a time: the first fault in the file wins
        path.write_bytes(data.replace(b"dataset 1", b"dataset 2", 1) + b"\xff")
        with pytest.raises(DatasetFormatError, match="^line 1: unsupported format version 2$"):
            load_dataset(str(path))


# --- series held as float64 ---


@pytest.mark.parametrize("given", [[0.5, 1.5, 2.5], (0.5, 1.5, 2.5), np.array([0.5, 1.5, 2.5]),
                                   [0, 1, 2], np.arange(3), [np.float64(0.5), 1, True]])
def test_records_convert_their_series_to_float64(given):
    want = [float(x) for x in given]
    for rec in (IVRecord(0, 0, 25.0, given, given),
                RampRecord(0, 0, 25.0, 0.01, 0.07, v=given, i=given)):
        for series in (rec.v, rec.i):
            assert type(series) is array and series.typecode == "d"
            assert series.tolist() == want
            assert all(type(x) is float for x in series)


def test_records_keep_the_arrays_they_are_handed():
    v, i = array("d", [0.01, 0.02]), array("d", [1e-12, 2e-12])
    rec = RampRecord(0, 0, 25.0, 0.01, 0.07, v, i)
    assert rec.v is v and rec.i is i


@pytest.mark.parametrize("bad", ["0.25", None, 0.5, [0.5, 1j], np.array([0.5, 1j]),
                                 [[0.5], [1.5]], np.array([[0.5], [1.5]]), [0.5, None],
                                 [0.5, "1.5"], b"\0" * 16])
def test_records_refuse_series_of_other_than_numbers(bad):
    with pytest.raises(TypeError):
        IVRecord(0, 0, 25.0, bad, [1.0, 2.0])
    with pytest.raises(TypeError):
        RampRecord(0, 0, 25.0, 0.01, 0.07, [0.01, 0.02], bad)


def test_a_series_assigned_after_construction_is_converted():
    ds = generate_wafer(WaferSpec(rows=5, cols=5, seed=1)).dataset
    for rec in [*ds.ramp, *ds.iv]:
        rec.v, rec.i = list(rec.v), np.array(rec.i)
        assert type(rec.v) is type(rec.i) is array
    assert loads_text(dumps_text(ds)) == ds
    assert loads_json(dumps_json(ds)) == ds
    staircase = ds.ramp[1].v
    ds.ramp[0].v = staircase  # an array('d') is kept, so the two share it
    assert ds.ramp[0].v is staircase
    for bad in ("0.25", None, [0.5, 1j]):
        with pytest.raises(TypeError):
            ds.ramp[0].i = bad


@pytest.mark.parametrize("dumps, loads", [(dumps_text, loads_text), (dumps_json, loads_json)])
def test_read_records_share_one_staircase_and_own_their_currents(dumps, loads):
    ds = loads(dumps(generate_wafer(WaferSpec(rows=5, cols=5, seed=1)).dataset))
    for kind in ("ramp", "iv"):
        records = getattr(ds, kind)
        first, second = records[:2]
        assert {type(x) for x in (first.v, first.i, second.v, second.i)} == {array}
        # one v object per staircase per reader call
        assert len({id(rec.v) for rec in records}) == 1, kind
        first.i[1] = -1.0
        assert second.i[1] != -1.0, kind
        first.v = [-1.0, *first.v[1:]]
        assert type(first.v) is array and second.v[1] != -1.0, kind


def _two_ramp_lengths():
    ds = generate_wafer(WaferSpec(rows=6, cols=6, seed=3, defect_density_cm2=5.5e5)).dataset
    for rec in ds.ramp[::2]:
        rec.v, rec.i = rec.v[:200], rec.i[:200]
    return ds


@pytest.mark.parametrize("make", [lambda: generate_wafer(preset_spec("etch20", 4)).dataset,
                                  _two_ramp_lengths], ids=["preset", "two-lengths"])
def test_stages_and_materializers_leave_the_records_as_they_were(make):
    ds = make()
    before = copy.deepcopy(ds)
    rep = analyze(ds)
    assert rep.n_ramps == len(ds.ramp) and not rep.stage_errors
    # what they hand out is the caller's to write into
    for rows, v, i in ramp_blocks(ds):
        v[:], i[:] = -1.0, -1.0
    for curve in [*iv_curves(ds), *ramp_traces(ds)]:
        curve.v[:], curve.i[:] = -1.0, -1.0
    assert ds == before


# --- text parser validation ---


def test_format_line_must_come_first():
    with pytest.raises(DatasetFormatError, match="format declaration"):
        loads_text("units area=um2\n")
    with pytest.raises(DatasetFormatError, match="empty"):
        loads_text("\n# only a comment\n")
    with pytest.raises(DatasetFormatError, match="version"):
        loads_text("format jjwafer-dataset 2\n")
    with pytest.raises(DatasetFormatError, match="unrecognized"):
        loads_text("format other-format 1\n")
    with pytest.raises(DatasetFormatError, match="duplicate format"):
        loads_text(HEADER + "format jjwafer-dataset 1\n")


def test_units_must_precede_data_and_match_canon():
    with pytest.raises(DatasetUnitError, match="precede"):
        loads_text("format jjwafer-dataset 1\ncap 0 0 25.0 500.0\n")
    bad = HEADER.replace("c=fF", "c=pF")
    with pytest.raises(DatasetUnitError, match="convert before ingest"):
        loads_text(bad + "cap 0 0 25.0 500.0\n")
    with pytest.raises(DatasetUnitError, match="missing unit"):
        loads_text("format jjwafer-dataset 1\nunits area=um2\n")
    with pytest.raises(DatasetUnitError, match="unknown unit"):
        loads_text(HEADER.rstrip() + " temp=K\n")


def test_comments_blanks_and_placeholders():
    text = (HEADER
            + "\n"
            + "# wafer-level remark\n"
            + "cap 0 0 25.0 X  # died under probe\n"
            + "cap 0 1 25.0 512.5\n")
    ds = loads_text(text)
    assert ds.cap[0].c_ff is None
    assert ds.cap[1].c_ff == 512.5


def test_meta_values_may_contain_spaces():
    ds = loads_text(HEADER + "meta note=all dies re-probed twice\n")
    assert ds.meta["note"] == "all dies re-probed twice"


def test_duplicate_cap_cell_is_rejected_with_line_number():
    text = (HEADER
            + "cap 0 0 25.0 500.0\n"
            + "cap 0 0 25.0 501.0\n")
    with pytest.raises(DatasetSchemaError, match="duplicate cap") as exc_info:
        loads_text(text)
    exc = exc_info.value
    assert exc.line == 4
    assert str(exc).startswith("line 4: ")
    assert not exc.bare_message.startswith("line")


def test_nonincreasing_voltages_rejected():
    text = HEADER + "iv 0 0 25.0 3 0.01:1e-12 0.03:2e-12 0.02:3e-12\n"
    with pytest.raises(DatasetSchemaError, match="strictly increasing"):
        loads_text(text)


def test_ramp_step_constancy_enforced():
    text = HEADER + "ramp 0 0 25.0 0.01 0.07 3 0.01:1e-12 0.02:2e-12 0.06:3e-12\n"
    with pytest.raises(DatasetSchemaError, match="constant steps"):
        loads_text(text)
    # 1% waviness is tolerated
    ok = HEADER + "ramp 0 0 25.0 0.01 0.07 3 0.01:1e-12 0.02:2e-12 0.03005:3e-12\n"
    assert loads_text(ok).ramp[0].v[-1] == 0.03005


def test_malformed_records_report_their_line():
    cases = [
        ("cap 0 0 25.0\n", DatasetFormatError, "4 fields"),
        ("cap 0 0 25.0 abc\n", DatasetFormatError, "number"),
        ("cap -1 0 25.0 1.0\n", DatasetSchemaError, ">= 0"),
        ("cap 0 0 -25.0 1.0\n", DatasetSchemaError, "positive"),
        ("iv 0 0 25.0 2 0.01:1e-12\n", DatasetFormatError, "pairs"),
        ("iv 0 0 25.0 2 0.01:1e-12 0.02\n", DatasetFormatError, "malformed v:i"),
        ("iv 0 0 25.0 1 0.01:1e-12\n", DatasetSchemaError, "at least 2"),
        ("res 5.0 10.0 0.12\n", DatasetFormatError, "4 fields"),
        ("res 5.0 10.0 0.12 nan\n", DatasetFormatError, "finite"),
        ("spam 1 2 3\n", DatasetSchemaError, "unknown record"),
        ("iv -1 0 25.0 2 0.01:1e-12 0.02:2e-12\n", DatasetSchemaError, ">= 0"),
        ("cap 5 0 25.0 1.0\nwafer rows=2 cols=2\n", DatasetSchemaError,
         "outside the declared"),
        ("ramp 0 0 25.0 0.01 0.07 4 0.01:1e-12 0.01991:2e-12 0.02982:3e-12 "
         "0.03991:4e-12\n", DatasetSchemaError, "constant steps"),
        ("wafer rows=abc cols=3\n", DatasetSchemaError, "rows"),
        ("wafer rows=3 cols=0\n", DatasetSchemaError, "cols"),
    ]
    for payload, err, pattern in cases:
        with pytest.raises(err, match=pattern) as exc_info:
            loads_text(HEADER + payload)
        assert exc_info.value.line == 3


def test_writer_rejects_unserializable_keys():
    ds = sample_dataset()
    ds.wafer["label"] = "has space"
    with pytest.raises(DatasetFormatError):
        dumps_text(ds)
    ds = sample_dataset()
    ds.meta["note"] = "line1\nline2"
    with pytest.raises(DatasetFormatError, match="newline"):
        dumps_text(ds)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_writers_refuse_unequal_series_before_writing(tmp_path, fmt):
    ds = generate_wafer(WaferSpec(rows=5, cols=5, seed=1)).dataset
    ds.ramp[0].i.pop()
    path = tmp_path / "w.dat"
    with pytest.raises(DatasetSchemaError,
                       match=r"^ramp record 0: v and i differ in length \(300 vs 299\)$"):
        save_dataset(ds, str(path), fmt=fmt)
    assert not path.exists()
    ds.ramp[0].i.append(0.0)
    ds.iv[2].v = [*ds.iv[2].v, 3.0]  # rebound: the sweeps share one v
    with pytest.raises(DatasetSchemaError,
                       match=r"^iv record 2: v and i differ in length \(62 vs 61\)$"):
        save_dataset(ds, str(path), fmt=fmt)
    assert not path.exists()


# --- json parser validation ---


def _payload(**records):
    base = {"format": "jjwafer-dataset", "version": 1, "units": dict(CANONICAL_UNITS),
            "wafer": {}, "meta": {}, "cap": [], "iv": [], "res": [], "ramp": []}
    base.update(records)
    return json.dumps(base)


def test_json_validation():
    with pytest.raises(DatasetFormatError, match="invalid JSON"):
        loads_json("{not json")
    with pytest.raises(DatasetFormatError, match="object"):
        loads_json("[1, 2]")
    with pytest.raises(DatasetFormatError, match="format"):
        loads_json('{"format": "other", "version": 1}')
    with pytest.raises(DatasetUnitError, match="convert"):
        units = dict(CANONICAL_UNITS, c="pF")
        loads_json(_payload(units=units))
    with pytest.raises(DatasetSchemaError, match="missing key"):
        loads_json(_payload(cap=[{"col": 0, "area_um2": 25.0, "c_ff": 1.0}]))
    cell = {"row": 0, "col": 0, "area_um2": 25.0, "c_ff": 1.0}
    with pytest.raises(DatasetSchemaError, match="duplicate"):
        loads_json(_payload(cap=[cell, dict(cell)]))
    ramp = {"row": 0, "col": 0, "area_um2": 25.0, "step_v": 0.01,
            "rate_v_per_s": 0.07, "v": [0.01, 0.02, 0.06], "i": [1e-12, 2e-12, 3e-12]}
    with pytest.raises(DatasetSchemaError, match="ramp record 0"):
        loads_json(_payload(ramp=[ramp]))
    iv = {"row": 0, "col": 0, "area_um2": 25.0, "v": [0.02, 0.01], "i": [1e-12, 2e-12]}
    with pytest.raises(DatasetSchemaError, match="strictly increasing"):
        loads_json(_payload(iv=[iv]))
    with pytest.raises(DatasetSchemaError, match="iv record 0: die indices must be >= 0"):
        loads_json(_payload(iv=[dict(iv, row=-1, v=[0.01, 0.02])]))
    ramp.update(v=[0.01, 0.02, 0.03])
    for key, value, err, pattern in [
        ("row", -1, DatasetSchemaError, ">= 0"),
        ("col", True, DatasetFormatError, "col must be an integer"),
        ("area_um2", -5, DatasetSchemaError, "area_um2 must be positive"),
        ("rate_v_per_s", -2, DatasetSchemaError, "rate_v_per_s must be positive"),
    ]:
        with pytest.raises(err, match=pattern):
            loads_json(_payload(ramp=[dict(ramp, **{key: value})]))
    with pytest.raises(DatasetSchemaError, match="ramp record 0: .*constant steps"):
        loads_json(_payload(ramp=[dict(ramp, v=[0.01, 0.01991, 0.02982, 0.03991],
                                       i=[1e-12, 2e-12, 3e-12, 4e-12])]))
    with pytest.raises(DatasetSchemaError, match="cap record 0: .*outside the declared"):
        loads_json(_payload(wafer={"rows": "2", "cols": "2"},
                            cap=[dict(cell, row=5)]))
    for rows in ("abc", "0"):
        with pytest.raises(DatasetSchemaError, match="wafer: rows"):
            loads_json(_payload(wafer={"rows": rows, "cols": "3"}))


# --- materializers ---


def test_cap_areas_and_wafer_map():
    ds = sample_dataset()
    assert cap_areas(ds) == [25.0, 100.0]
    m = cap_wafer_map(ds, 25.0)
    assert isinstance(m, WaferMap)
    assert m.values.shape == (3, 3)
    assert m.probed[0, 0] and m.probed[0, 1] and not m.probed[1, 1]
    assert m.values[0, 0] == 0.1 + 0.2
    assert np.isnan(m.values[0, 1])
    assert m.n_probed == 2 and m.n_valid == 1
    with pytest.raises(DatasetSchemaError, match="no cap records"):
        cap_wafer_map(ds, 50.0)


def test_wafer_map_rejects_out_of_grid_dies():
    ds = sample_dataset()
    ds.cap.append(CapRecord(row=5, col=0, area_um2=25.0, c_ff=1.0))
    with pytest.raises(DatasetSchemaError, match="outside the declared"):
        cap_wafer_map(ds, 25.0)


def test_wafer_map_infers_shape_when_undeclared():
    ds = sample_dataset()
    ds.wafer = {}
    ds.cap.append(CapRecord(row=3, col=2, area_um2=25.0, c_ff=2.0))
    assert cap_wafer_map(ds, 25.0).values.shape == (4, 3)


def test_record_materializers():
    ds = sample_dataset()
    curves = iv_curves(ds)
    assert len(curves) == 1 and isinstance(curves[0], IVCurve)
    assert curves[0].die == (1, 1)
    assert curves[0].label == "ref"
    traces = ramp_traces(ds)
    assert len(traces) == 1 and isinstance(traces[0], RampTrace)
    assert traces[0].step_v == 0.01
    recs = resistance_records(ds)
    assert len(recs) == 1
    assert recs[0].geometry.w_top == 5.0 and recs[0].r_mohm == 218.7


def test_ground_truth_blob():
    ds = sample_dataset()
    assert ground_truth(ds) is None
    ds.meta["ground_truth"] = '{"answer": 42}'
    assert ground_truth(ds) == {"answer": 42}
    ds.meta["ground_truth"] = "{broken"
    with pytest.raises(DatasetSchemaError, match="not valid JSON"):
        ground_truth(ds)


RAMP_FAULTS = ("uneven", "decreasing", "flat", "nan_v", "inf_i", "short_i",
               "step_v", "area")


@st.composite
def ramp_records(draw):
    """Ramps of 0 to 6 steps, most of them valid, some breaking one rule."""
    n = draw(st.integers(0, 6))
    step = draw(st.sampled_from([0.01, 0.02]))
    v = (step * np.arange(1, n + 1)).tolist()
    i = np.geomspace(1e-10, 1e-3, n).tolist()
    area, step_v = 25.0, step
    fault = draw(st.sampled_from((None,) * 4 + RAMP_FAULTS))
    k = draw(st.integers(0, max(n - 1, 0)))
    if fault == "uneven" and n:
        v[k] += step * draw(st.sampled_from([0.005, 0.015, 0.3]))
    elif fault == "decreasing" and n > 1:
        v[k], v[-1 - k] = v[-1 - k], v[k]
    elif fault == "flat":  # in constant steps of 0, which only v's rise refuses
        v, step_v = [1.0] * n, 0.0
    elif fault == "nan_v" and n:
        v[k] = math.nan
    elif fault == "inf_i" and n:
        i[k] = -math.inf
    elif fault == "short_i":
        i = i[:-1]
    elif fault == "step_v":
        step_v = step * draw(st.sampled_from([0.995, 1.02, -1.0]))
    elif fault == "area":
        area = draw(st.sampled_from([0.0, -25.0, math.nan]))
    return RampRecord(row=0, col=0, area_um2=area, step_v=step_v,
                      rate_v_per_s=0.07, v=v, i=i)


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(ramp_records(), min_size=1, max_size=8))
def test_ramp_blocks_hold_every_ramp_to_the_rules_of_ramp_traces(records):
    ds = DatasetFile(ramp=records)
    try:
        traces = ramp_traces(ds)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            ramp_blocks(ds)
        assert str(refused.value) == str(exc)
        return
    blocks = ramp_blocks(ds)
    assert sorted(row for rows, _, _ in blocks for row in rows.tolist()) == \
        list(range(len(records)))
    assert [v.shape[1] for _, v, _ in blocks] == sorted({len(r.v) for r in records})
    for rows, v, i in blocks:
        for row, v_row, i_row in zip(rows.tolist(), v, i):
            assert np.array_equal(v_row, traces[row].v)
            assert np.array_equal(i_row, traces[row].i)


@pytest.mark.parametrize("name, value", [("step_v", "0.01"), ("step_v", None),
                                         ("area_um2", "25"), ("area_um2", None)])
def test_ramps_that_do_not_stack_raise_what_ramp_traces_raises(name, value):
    # an in-memory ramp whose scalar is not a number; the readers refuse it
    ds = generate_wafer(WaferSpec(rows=5, cols=5, seed=1)).dataset
    setattr(ds.ramp[2], name, value)
    with pytest.raises(TypeError) as expected:  # numpy's UFuncTypeError for "0.01"
        ramp_traces(ds)
    for refuse in (ramp_blocks, analyze):
        with pytest.raises(TypeError) as refused:
            refuse(ds)
        assert (type(refused.value), str(refused.value)) == \
            (expected.type, str(expected.value))
