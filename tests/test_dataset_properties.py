"""Property tests of the dataset schema, derandomized so every run is the same.

* the text and JSON codecs accept and reject the same datasets, valid ones
  and near misses that break one schema rule once
* whatever either writer writes reads back equal through its reader, and
  through the other codec after that
* analyze() and both renderers run on every dataset a reader accepted
* one CLI run over good files and near misses reports each file as if it
  ran alone, and exits with the worst file's code
* cap_maps and cap_wafer_map build the maps, and refuse the datasets, that
  a loop over the records per area builds and refuses
"""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jjwafer import dataset as dataset_module
from jjwafer.capacitance import WaferMap
from jjwafer.cli import main
from jjwafer.dataset import (
    MAX_GRID,
    CapRecord,
    DatasetFile,
    IVRecord,
    RampRecord,
    ResRecordRow,
    cap_areas,
    cap_maps,
    cap_wafer_map,
    dumps_json,
    dumps_text,
    loads_json,
    loads_text,
)
from jjwafer.errors import DatasetError, DatasetSchemaError
from jjwafer.report import AnalysisConfig, analyze, render_json, render_text
from jjwafer.synthetic import WaferSpec, generate_wafer

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25,
                    suppress_health_check=[HealthCheck.too_slow])
GRID = 4  # largest generated rows and cols

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
readings = st.none() | finite
sweeps = st.lists(finite, min_size=2, max_size=8, unique=True).map(sorted)
# ramp voltages: one staircase shared by the wafer's ramps, as on a prober
staircases = st.builds(lambda step, first, n: [step * k for k in range(first, first + n)],
                       st.floats(1e-6, 1e3), st.integers(-50, 50), st.integers(2, 30))
leakage, breakdown = st.floats(0.0, 1e-9), st.floats(1e-6, 1.0)
# a fixed alphabet keeps Hypothesis from building its unicode tables
ascii_words = "".join(chr(c) for c in range(33, 127) if chr(c) not in "#=")
keys = st.text(st.sampled_from(ascii_words), min_size=1, max_size=6)
wafer_attrs = st.dictionaries(keys.filter(lambda k: k not in ("rows", "cols")),
                              st.text(st.sampled_from(ascii_words + "="), max_size=6),
                              max_size=3)
# meta values hold inner spaces, '=', non-ASCII letters and spaces, anything but '#'
meta_attrs = st.dictionaries(keys, st.text(st.sampled_from(
    ascii_words + "= \t\u00a0\u3000\u00b5\u03a9\U0001f600"), max_size=10).map(str.rstrip),
    max_size=3)


@st.composite
def datasets(draw):
    rows, cols = draw(st.integers(1, GRID)), draw(st.integers(1, GRID))
    row_at, col_at = st.integers(0, rows - 1), st.integers(0, cols - 1)
    wafer = draw(wafer_attrs)
    if draw(st.booleans()):
        wafer.update(rows=str(rows), cols=str(cols))
    areas = draw(st.lists(positive, min_size=1, max_size=3, unique=True))
    cells = draw(st.lists(st.tuples(row_at, col_at, st.sampled_from(areas)),
                          unique=True, max_size=12))
    ds = DatasetFile(wafer=wafer, meta=draw(meta_attrs),
                     cap=[CapRecord(r, c, a, draw(readings)) for r, c, a in cells])
    for _ in range(draw(st.integers(0, 3))):
        v = draw(sweeps)
        ds.iv.append(IVRecord(draw(row_at), draw(col_at), draw(positive), v,
                              [draw(finite) for _ in v]))
    for _ in range(draw(st.integers(0, 4))):
        ds.res.append(ResRecordRow(*(draw(positive) for _ in range(4))))
    v = draw(staircases)
    jump_at = st.integers(0, len(v))
    for _ in range(draw(st.integers(0, 14))):
        if draw(st.booleans()):  # a jump from a leakage to a breakdown current
            jump = draw(jump_at)
            i = [draw(leakage)] * jump + [draw(breakdown)] * (len(v) - jump)
        else:
            i = [draw(finite) for _ in v]
        ds.ramp.append(RampRecord(draw(row_at), draw(col_at), draw(positive),
                                  (v[-1] - v[0]) / (len(v) - 1), draw(positive),
                                  list(v), i))
    return ds


def _ramp(**fields):
    base = dict(row=0, col=0, area_um2=25.0, step_v=0.01, rate_v_per_s=0.07,
                v=[0.01, 0.02, 0.03], i=[1e-12, 2e-12, 1e-3])
    return RampRecord(**{**base, **fields})


def _iv(**fields):
    base = dict(row=0, col=0, area_um2=25.0, v=[0.01, 0.02], i=[1e-12, 2e-12])
    return IVRecord(**{**base, **fields})


def _cap(**fields):
    return CapRecord(**{**dict(row=0, col=0, area_um2=25.0, c_ff=1.0), **fields})


def _res(**fields):
    base = dict(w_top_um=5.0, w_bot_um=10.0, h_um=0.12, r_mohm=218.7)
    return ResRecordRow(**{**base, **fields})


def _add(kind, rec):
    return lambda ds: getattr(ds, kind).append(rec)


def _duplicate_cap(ds):
    ds.cap.extend([_cap(row=GRID, area_um2=7.0)] * 2)


def _outside_grid(ds):
    ds.wafer.update(rows="1", cols="1")
    ds.cap.append(_cap(row=0, col=1, area_um2=7.0))


# each breaks one rule of the schema once
NEAR_MISSES = {
    "negative row": _add("cap", _cap(row=-1)),
    "negative col": _add("iv", _iv(col=-1)),
    "row past the largest grid": _add("ramp", _ramp(row=MAX_GRID)),
    "bool index": _add("cap", _cap(col=True)),
    "float index": _add("ramp", _ramp(row=1.0)),
    "zero area": _add("cap", _cap(area_um2=0.0)),
    "negative area": _add("iv", _iv(area_um2=-5.0)),
    "infinite area": _add("ramp", _ramp(area_um2=math.inf)),
    "nan reading": _add("cap", _cap(c_ff=math.nan)),
    "infinite reading": _add("cap", _cap(c_ff=-math.inf)),
    "zero step": _add("ramp", _ramp(step_v=0.0)),
    "negative rate": _add("ramp", _ramp(rate_v_per_s=-2.0)),
    "zero resistance": _add("res", _res(r_mohm=0.0)),
    "negative width": _add("res", _res(w_bot_um=-10.0)),
    "nan height": _add("res", _res(h_um=math.nan)),
    "one point": _add("iv", _iv(v=[0.01], i=[1e-12])),
    "no points": _add("ramp", _ramp(v=[], i=[])),
    "flat voltage": _add("iv", _iv(v=[0.01, 0.01])),
    "falling voltage": _add("ramp", _ramp(v=[0.03, 0.02, 0.01])),
    "nan voltage": _add("iv", _iv(v=[0.01, math.nan])),
    "infinite current": _add("ramp", _ramp(i=[1e-12, math.inf, 1e-3])),
    "uneven steps": _add("ramp", _ramp(v=[0.01, 0.02, 0.06])),
    "uneven steps near the declared one": _add(
        "ramp", _ramp(v=[0.01, 0.01991, 0.02982, 0.03991], i=[1e-12] * 4)),
    "steps unlike the declared one": _add("ramp", _ramp(v=[0.02, 0.04, 0.06])),
    "duplicate cap cell": _duplicate_cap,
    "die outside the grid": _outside_grid,
    "rows not an integer": lambda ds: ds.wafer.update(rows="abc"),
    "zero cols": lambda ds: ds.wafer.update(cols="0"),
    "rows past the largest grid": lambda ds: ds.wafer.update(rows=str(MAX_GRID + 1)),
    "wafer key with '='": lambda ds: ds.wafer.update({"a=b": "1"}),
    "wafer value with a space": lambda ds: ds.wafer.update(label="a b"),
    "meta value with '#'": lambda ds: ds.meta.update(note="lot #3"),
    "meta value with a newline": lambda ds: ds.meta.update(note="a\nb"),
    "meta value with trailing space": lambda ds: ds.meta.update(note="a "),
    "meta key with a tab": lambda ds: ds.meta.update({"a\tb": "1"}),
}


def _through(codec, ds):
    """ds written and read back by one codec, or None if either side refused."""
    dumps, loads = codec
    try:
        return loads(dumps(ds))
    except DatasetError:
        return None


TEXT, JSON = (dumps_text, loads_text), (dumps_json, loads_json)


def _broken(ds, miss):
    broken = replace(ds, wafer=dict(ds.wafer), meta=dict(ds.meta), cap=list(ds.cap),
                     iv=list(ds.iv), res=list(ds.res), ramp=list(ds.ramp))
    NEAR_MISSES[miss](broken)
    return broken


# a dataset of one record per kind, which the near misses break
TINY = DatasetFile(wafer={"label": "w"}, meta={"note": "x"}, cap=[_cap()], iv=[_iv()],
                   res=[_res()], ramp=[_ramp()])


def test_both_codecs_refuse_every_near_miss():
    assert _through(TEXT, TINY) == _through(JSON, TINY) == TINY
    for miss in NEAR_MISSES:
        assert _through(TEXT, _broken(TINY, miss)) is None, miss
        assert _through(JSON, _broken(TINY, miss)) is None, miss


@PROPERTY
@given(datasets(), st.sampled_from(sorted(NEAR_MISSES)))
def test_codecs_round_trip_and_reject_the_same_near_misses(ds, miss):
    via_text, via_json = _through(TEXT, ds), _through(JSON, ds)
    assert via_text == via_json == ds
    assert _through(JSON, via_text) == _through(TEXT, via_json) == ds
    assert _through(TEXT, _broken(ds, miss)) is None
    assert _through(JSON, _broken(ds, miss)) is None


# a small synthetic wafer on which every stage runs to a result
WAFER = generate_wafer(WaferSpec(rows=5, cols=5, seed=1)).dataset


@st.composite
def perturbed_wafers(draw):
    """WAFER pushed toward the edges of each stage: scaled readings, a ramp
    staircase shifted down to negative voltages, ramps that all break at one
    step."""
    c_scale, i_scale = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
    r_scale = draw(st.floats(0.0, 1e3, exclude_min=True))
    shift = draw(st.integers(-400, 100)) * WAFER.ramp[0].step_v
    jump = draw(st.none() | st.integers(0, len(WAFER.ramp[0].v)))
    ramp = []
    for rec in WAFER.ramp:
        i = rec.i if jump is None else [1e-12] * jump + [1e-3] * (len(rec.v) - jump)
        ramp.append(replace(rec, v=[x + shift for x in rec.v], i=i))
    return replace(
        WAFER,
        cap=[replace(rec, c_ff=None if rec.c_ff is None else rec.c_ff * c_scale)
             for rec in WAFER.cap],
        iv=[replace(rec, i=[x * i_scale for x in rec.i]) for rec in WAFER.iv],
        res=[replace(rec, r_mohm=rec.r_mohm * r_scale) for rec in WAFER.res],
        ramp=ramp,
    )


@PROPERTY
@given(datasets() | perturbed_wafers(), st.sampled_from([None, 0.5, 4.4]))
def test_analyze_runs_on_every_accepted_dataset(ds, t_ox_nm):
    report = analyze(loads_text(dumps_text(ds)), config=AnalysisConfig(t_ox_nm=t_ox_nm))
    render_text(report)
    render_json(report)


def test_overflowing_cap_spread_skips_the_area_without_a_warning():
    # found by the property above: the sample sd of these two readings
    # overflows, which numpy reported only as a RuntimeWarning and an inf spread
    ds = DatasetFile(wafer={"rows": "1", "cols": "2"}, cap=[
        CapRecord(0, 0, 1.0, 1.8961503816218355e+154), CapRecord(0, 1, 1.0, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = analyze(loads_text(dumps_text(ds)), stages=("cap",))
        render_text(report)
        render_json(report)
    assert report.cap_by_area == ()
    assert [note.split(" (")[0] for note in report.notes] == ["cap: area 1 um2 skipped"]
    assert "overflow" in report.notes[0]


def _json_file(ds):
    """ds in the JSON format as it stands, which the JSON writer refuses to
    write for a near miss."""
    payload = json.loads(dumps_json(DatasetFile()))
    payload.update(wafer=ds.wafer, meta=ds.meta)
    for kind in ("cap", "iv", "res", "ramp"):
        payload[kind] = [vars(rec) for rec in getattr(ds, kind)]
    return json.dumps(payload, default=list)


def test_cli_reports_each_file_as_if_it_ran_alone(tmp_path, capsys):
    # near misses go out in the JSON format; WAFER analyzes cleanly (exit 0),
    # TINY with stage errors (exit 2)
    bad = []
    for k, miss in enumerate(sorted(NEAR_MISSES)):
        path = tmp_path / f"miss{k}.json"
        path.write_text(_json_file(_broken(TINY, miss)))
        bad.append(str(path))
    good = {str(tmp_path / "wafer.jjw"): WAFER, str(tmp_path / "tiny.jjw"): TINY}
    for path, ds in good.items():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dumps_text(ds))
    wafer, tiny = good
    paths = bad[:10] + [wafer] + bad[10:] + [tiny]

    alone = {}
    for path in paths:
        code = main(["analyze", "all", path])
        alone[path] = (code, capsys.readouterr())
    assert {alone[p][0] for p in bad} == {1}
    assert (alone[wafer][0], alone[tiny][0]) == (0, 2)

    assert main(["analyze", "all", *paths]) == max(code for code, _ in alone.values())
    captured = capsys.readouterr()
    assert captured.out == "".join(f"== {p} ==\n{alone[p][1].out}" for p in good)
    assert captured.err == "".join(alone[p][1].err for p in bad)
    for path in bad:
        err = alone[path][1].err
        assert err.startswith(f"jjwafer: error: {path}: ") and err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_cli_reports_the_files_beside_one_that_is_not_utf8(tmp_path, capsys):
    # 300 bytes of a valid file, then bytes that no UTF-8 text holds
    bad = []
    for ext, dumps in (("jjw", dumps_text), ("json", dumps_json)):
        path = tmp_path / f"bad.{ext}"
        path.write_bytes(dumps(WAFER).encode()[:300] + b"\xff\xfe")
        bad.append(str(path))
    good = str(tmp_path / "wafer.jjw")
    with open(good, "w", encoding="utf-8") as handle:
        handle.write(dumps_text(WAFER))
    paths = [bad[0], good, bad[1]]

    alone = {}
    for path in paths:
        code = main(["analyze", "all", path])
        alone[path] = (code, capsys.readouterr())
    assert [alone[p][0] for p in paths] == [1, 0, 1]

    assert main(["analyze", "all", *paths]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"== {good} ==\n{alone[good][1].out}"
    assert captured.err == "".join(alone[p][1].err for p in bad)
    for path in bad:
        err = alone[path][1].err
        assert err.startswith(f"jjwafer: error: {path}: line ") and err.count("\n") == 1
        assert "not UTF-8 text" in err
    assert "Traceback" not in captured.err


def _loop_wafer_map(ds, area_um2):
    """cap_wafer_map as one loop over the records per area: the oracle of
    cap_maps and cap_wafer_map."""
    rows, cols = dataset_module._grid_shape(ds)
    values = np.full((rows, cols), np.nan)
    probed = np.zeros((rows, cols), dtype=bool)
    found = False
    for rec in ds.cap:
        if rec.area_um2 != area_um2:
            continue
        found = True
        if rec.row < 0 or rec.col < 0:
            name = "row" if rec.row < 0 else "col"
            raise dataset_module._index_fault(name, getattr(rec, name), None)
        probed[rec.row, rec.col] = True
        if rec.c_ff is not None:
            values[rec.row, rec.col] = rec.c_ff
    if not found:
        raise DatasetSchemaError(f"no cap records at area {area_um2!r}")
    return WaferMap(values=values, probed=probed, area_um2=area_um2,
                    label=ds.label, units="fF")


@st.composite
def cap_cases(draw):
    """A dataset of datasets(), whose iv and ramp dies may widen an inferred
    grid, with up to two cap cells added at any area: one with a negative
    index, or one past the grid, which widens an undeclared grid for every
    area and lies outside a declared one."""
    ds = draw(datasets())
    for cell in draw(st.lists(st.sampled_from(["negative", "past"]), max_size=2)):
        present = [rec.area_um2 for rec in ds.cap]
        area = draw(st.sampled_from(present) | positive if present else positive)
        if cell == "negative":
            row, col = draw(st.sampled_from([(-1, 0), (0, -1), (-1, -1)]))
            row, col = row * draw(st.integers(1, GRID)), col * draw(st.integers(1, GRID))
            ds.cap.insert(draw(st.integers(0, len(ds.cap))),
                          CapRecord(row, col, area, draw(readings)))
        else:
            ds.cap.append(CapRecord(int(ds.wafer.get("rows", GRID)), 0, area,
                                    draw(readings)))
    return ds


def _outcome(build, *args):
    """What build returns, or the class and message of what it raises."""
    try:
        return build(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert got == want
        return
    if isinstance(want, WaferMap):
        got, want = {None: got}, {None: want}
    assert list(got) == list(want)
    for mine, oracle in zip(got.values(), want.values()):
        assert np.array_equal(mine.values, oracle.values, equal_nan=True)
        assert np.array_equal(mine.probed, oracle.probed)
        assert type(mine.area_um2) is float and mine.area_um2 == oracle.area_um2
        assert (mine.label, mine.units) == (oracle.label, oracle.units)


@settings(PROPERTY, max_examples=200)
@given(cap_cases(), positive)
def test_cap_maps_match_a_loop_over_the_records(ds, absent):
    areas = cap_areas(ds)
    _assert_same(_outcome(cap_maps, ds),
                 _outcome(lambda: {a: _loop_wafer_map(ds, a) for a in areas}))
    for area in (*areas, absent):
        _assert_same(_outcome(cap_wafer_map, ds, area), _outcome(_loop_wafer_map, ds, area))


def test_cap_maps_refuse_a_grid_that_only_negative_indices_would_infer():
    # numpy would refuse the shape (-2, 1) with a message naming no record
    ds = DatasetFile(cap=[_cap(row=-3)])
    for build, args in ((cap_maps, ()), (cap_wafer_map, (25.0,)), (cap_wafer_map, (1.0,))):
        with pytest.raises(DatasetSchemaError, match="cannot infer grid shape"):
            build(ds, *args)
