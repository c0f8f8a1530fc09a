"""The dataset writers against the straightforward writers they replaced.

* dumps_text formats each voltage staircase once and reuses its text for the
  series after it that repeat it; dumps_json writes the indent=1 layout
  itself and lets the C encoder write series of plain numbers.  Both, and
  save_dataset, which streams the same pieces to disk, write what the
  reference writers below write, byte for byte, on in-memory datasets with
  edge values and on the benchmark's 56x56 wafer.  On the generated preset
  wafers they write what the reference writers wrote, recorded as SHA-256
  digests in written_sha256.json, which
  `PYTHONPATH=src python tests/test_dataset_writers.py` prints again from
  the reference writers (in about a minute)
* every writer refuses what loads_json refuses of the JSON text of a
  dataset, with its error class and message, and writes what reads back
  equal through both readers otherwise; the reference writers run the same
  gate first
* save_dataset refuses a dataset before it creates its temp file, and a
  fault met while streaming leaves no temp file; either way the destination
  keeps its bytes
* both readers and both writers refuse a sweep whose finite voltages step
  by more than the largest float, so analyze() never sees one
* `jjwafer simulate` writes what the writers write for the same spec
"""

import copy
import errno
import hashlib
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jjwafer import dataset
from jjwafer.cli import EXIT_OK, main
from jjwafer.dataset import (
    CapRecord,
    DatasetFile,
    IVRecord,
    RampRecord,
    ResRecordRow,
    dumps_json,
    dumps_text,
    loads_json,
    loads_text,
    save_dataset,
)
from jjwafer.errors import DatasetError, DatasetFormatError, DatasetSchemaError
from jjwafer.report import analyze
from jjwafer.synthetic import PRESET_NAMES, WaferSpec, generate_wafer, preset_spec

# ---------------------------------------------------------------- references


def reference_text(ds):
    """dumps_text as it was: every value formatted where it stands, on
    whatever ds holds."""
    lines = [f"format {dataset.FORMAT_NAME} {dataset.FORMAT_VERSION}"]
    units = dataset.CANONICAL_UNITS.items()
    lines.append("units " + " ".join(f"{k}={v}" for k, v in units))
    if ds.wafer:
        lines.append("wafer " + " ".join(f"{k}={v}" for k, v in ds.wafer.items()))
    lines.extend(f"meta {key}={value}" for key, value in ds.meta.items())
    for kind, (_, schema, _) in dataset._SCHEMA.items():
        for rec in getattr(ds, kind):
            toks = [kind]
            for name, ftype in schema:
                x = getattr(rec, name)
                if ftype is dataset._INDEX:
                    toks.append(str(x))
                elif ftype is not dataset._SERIES:
                    toks.append("X" if x is None else repr(float(x)))
                elif name == "v":
                    pairs = " ".join(f"{float(a)!r}:{float(b)!r}" for a, b in zip(x, rec.i))
                    toks.append(f"{len(x)} {pairs}")
            lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def reference_json_text(ds):
    """dumps_json as it was: json's pure-Python indent=1 encoder throughout,
    on whatever ds holds."""
    payload = {
        "format": dataset.FORMAT_NAME,
        "version": dataset.FORMAT_VERSION,
        "units": dataset.CANONICAL_UNITS,
        "wafer": ds.wafer,
        "meta": ds.meta,
    }
    for kind, (_, schema, _) in dataset._SCHEMA.items():
        payload[kind] = [{name: getattr(rec, name) for name, _ in schema}
                         for rec in getattr(ds, kind)]
    return json.dumps(payload, sort_keys=True, indent=1, default=list) + "\n"


def gated(write):
    """write after the writers' gate, which refuses what loads_json refuses."""
    def gated_write(ds):
        dataset._check_dataset(ds)
        return write(ds)
    return gated_write


reference_dumps_text, reference_dumps_json = gated(reference_text), gated(reference_json_text)


def saved(fmt):
    """A writer that returns what save_dataset writes in fmt."""
    def save(ds):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "w.dat")
            try:
                save_dataset(ds, path, fmt)
            except BaseException:
                assert os.listdir(tmp) == []  # no temp file, no destination
                raise
            assert os.listdir(tmp) == ["w.dat"]
            with open(path, "rb") as handle:
                return handle.read().decode("utf-8")
    save.__name__ = f"save_dataset_{fmt}"
    return save


# each reference writer, and the writers that must write what it writes
WRITERS = [(reference_dumps_text, (dumps_text, saved("text"))),
           (reference_dumps_json, (dumps_json, saved("json")))]

# ------------------------------------------------------ in-memory edge values

SUBNORMAL, LARGEST = 5e-324, 1.7976931348623157e308
edge_floats = st.sampled_from([0.0, -0.0, 0.1, 1.0 / 3.0, -2.5, 1e-12, SUBNORMAL,
                               2.2250738585072014e-308 / 3, LARGEST, -LARGEST,
                               math.nan, math.inf, -math.inf])
# the values a record may carry in memory, though no reader returns most
scalars = (edge_floats
           | st.sampled_from([0, 7, -3, 2**53 + 1, True, False, None, "0.25"])
           | edge_floats.map(np.float64))
# the values a series may be given; a record holds them as float64
elements = (edge_floats | st.sampled_from([0, 7, -3, 2**53 + 1, True, False])
            | edge_floats.map(np.float64))
# control characters, quotes, backslashes and non-ASCII; some trip the text
# writer's attribute rule, which both writers must then agree on
strings = st.text(st.sampled_from(["a", "Z", "0", "\u0000", '"', "'", "\\", "/", "µ",
                                   "Ω", "\U0001f600", "=", "#", " ", "\n"]), max_size=5)


def _with_zeros_negated(v):
    return [-0.0 if type(x) is float and x == 0.0 else x for x in v]


def _with_ints(v):
    return [int(x) if type(x) is float and x.is_integer() else x for x in v]


def _as_given(how, staircase):
    """staircase shared, copied, or equal to it yet formatted apart."""
    return {"shared": staircase, "copy": list(staircase), "tuple": tuple(staircase),
            "zeros": _with_zeros_negated(staircase), "ints": _with_ints(staircase)}[how]


@st.composite
def series(draw, staircase):
    """v and i of one record: mostly the wafer's staircase, shared, copied or
    equal to it yet formatted apart; sometimes a series of its own."""
    how = draw(st.sampled_from(["shared", "copy", "zeros", "ints", "tuple", "own", "own"]))
    if how == "own":
        v = draw(st.lists(elements, max_size=6))
    else:
        v = _as_given(how, staircase)
    i = draw(st.lists(elements if draw(st.booleans()) else edge_floats,
                      min_size=len(v), max_size=len(v)))
    return v, i


@st.composite
def edge_datasets(draw):
    # through zero or not: copies with negated zeros differ in sign, and
    # copies with ints differ in type where no zero stops the memo
    staircase = draw(st.lists(edge_floats, min_size=1, max_size=6)) + draw(
        st.sampled_from([[0.0, 1.0, 2.0], [1.0, 2.0]]))
    scalar = lambda: draw(scalars)  # noqa: E731
    indices = st.integers(0, 60) | st.sampled_from([True, np.int64(3)])
    index = lambda: draw(indices)  # noqa: E731
    ds = DatasetFile(wafer=draw(st.dictionaries(strings, strings, max_size=3)),
                     meta=draw(st.dictionaries(strings, strings, max_size=3)))
    for _ in range(draw(st.integers(0, 3))):
        ds.cap.append(CapRecord(index(), index(), scalar(), scalar()))
    for _ in range(draw(st.integers(0, 2))):
        ds.iv.append(IVRecord(index(), index(), scalar(), *draw(series(staircase))))
    for _ in range(draw(st.integers(0, 2))):
        ds.res.append(ResRecordRow(scalar(), scalar(), scalar(), scalar()))
    for _ in range(draw(st.integers(0, 5))):
        ds.ramp.append(RampRecord(index(), index(), scalar(), scalar(), scalar(),
                                  *draw(series(staircase))))
    return ds


# edge values that the writers' gate lets through
positives = st.sampled_from([0.1, 1.0 / 3.0, 1e-12, SUBNORMAL, 2.2250738585072014e-308 / 3,
                             LARGEST, 7, 2**53 + 1])
positives = positives | positives.map(np.float64)
finite_elements = elements.filter(math.isfinite)
readings = st.none() | finite_elements.filter(lambda x: type(x) is not bool)
# wafer and meta entries that the text format holds
held = st.text(st.sampled_from(["a", "Z", "0", "\u0000", '"', "'", "\\", "/", "µ", "Ω",
                                "\U0001f600"]), max_size=5)


@st.composite
def passing_edge_datasets(draw):
    """Datasets of edge values that every writer writes: the series of each
    kind step along one staircase given in each of the ways series() gives
    it, their currents at the ends of the float range."""
    step = draw(st.sampled_from([0.25, 1.0, 1e-3]))
    first = draw(st.sampled_from([0.0, -2.5, 1.0 / 3.0, 7.0]))
    staircase = [first + step * k for k in range(draw(st.integers(2, 6)))]
    hows = st.sampled_from(["shared", "copy", "zeros", "ints", "tuple"])

    def series_():
        v = _as_given(draw(hows), staircase)
        return v, draw(st.lists(finite_elements, min_size=len(v), max_size=len(v)))

    index, positive = st.integers(0, 60), lambda: draw(positives)  # noqa: E731
    cells = st.tuples(index, index, positives)
    ds = DatasetFile(wafer=draw(st.dictionaries(held.filter(bool), held, max_size=3)),
                     meta=draw(st.dictionaries(held.filter(bool), held, max_size=3)))
    for row, col, area in draw(st.lists(cells, max_size=3,
                                        unique_by=lambda c: (c[0], c[1], float(c[2])))):
        ds.cap.append(CapRecord(row, col, area, draw(readings)))
    for _ in range(draw(st.integers(0, 2))):
        ds.iv.append(IVRecord(draw(index), draw(index), positive(), *series_()))
    for _ in range(draw(st.integers(0, 2))):
        ds.res.append(ResRecordRow(positive(), positive(), positive(), positive()))
    for _ in range(draw(st.integers(0, 5))):
        ds.ramp.append(RampRecord(draw(index), draw(index), positive(),
                                  draw(st.sampled_from([step, np.float64(step)])),
                                  positive(), *series_()))
    return ds


def _outcome(write, ds):
    try:
        return "written", write(ds)
    except DatasetError as exc:
        return type(exc).__name__, str(exc)
    except (TypeError, ValueError, OverflowError) as exc:
        # a value no writer can format: the same class of error, though the
        # text writer may name another bad element than its reference did
        return type(exc).__name__, None


@settings(derandomize=True, database=None, deadline=None, max_examples=600,
          suppress_health_check=[HealthCheck.too_slow])
@given(edge_datasets() | passing_edge_datasets())
def test_writers_write_what_the_reference_writers_write(ds):
    for reference, writers in WRITERS:
        want = _outcome(reference, ds)
        for write in writers:
            assert _outcome(write, ds) == want, write.__name__


def test_edge_datasets_reach_the_fast_paths():
    # a dataset the gate passes: equal staircases that format apart, and
    # currents at the ends of the float range
    staircase, steps = [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]
    ds = DatasetFile(wafer={"label": 'q"\\µ\u0000'}, ramp=[
        RampRecord(0, 0, 25.0, 1.0, 0.07, v, [1e-12, SUBNORMAL, -LARGEST, True])
        for v in (staircase, list(staircase), _with_zeros_negated(staircase),
                  staircase, steps, _with_ints(steps))])
    for reference, writers in WRITERS:
        want = reference(ds)
        for write in writers:
            assert write(ds) == want, write.__name__
    assert "4 0.0:1e-12 1.0:5e-324 2.0:-1.7976931348623157e+308 3.0:1.0" in dumps_text(ds)
    assert "4 -0.0:1e-12 1.0:5e-324" in dumps_text(ds)
    assert '"v": [\n    1.0,\n    2.0,\n' in dumps_json(ds)
    assert ' "label": "q\\"\\\\\\u00b5\\u0000"\n' in dumps_json(ds)


# each writer, and the reader of what it writes
READ_BACK = [(dumps_text, loads_text), (saved("text"), loads_text),
             (dumps_json, loads_json), (saved("json"), loads_json)]


def _refused_or_read_back(write, read, ds):
    try:
        written = write(ds)
    except DatasetError as exc:
        return type(exc), str(exc)
    return read(written)


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(edge_datasets() | passing_edge_datasets())
def test_writers_refuse_what_loads_json_refuses_or_write_what_reads_back(ds):
    # loads_json of the JSON text of ds, written without the gate
    try:
        want = loads_json(reference_json_text(ds))
    except DatasetError as exc:
        want = type(exc), str(exc)
    except TypeError:  # json writes no np.int64: the writers refuse it alike
        want = None
    got = [_refused_or_read_back(write, read, ds) for write, read in READ_BACK]
    if want is None:
        assert got == [got[0]] * len(got) and got[0][0] is DatasetFormatError
    else:
        assert got == [want] * len(got)


def _faulty_wafer(fault):
    """A 5x5 wafer with one fault that the writers used to write."""
    ds = generate_wafer(WaferSpec(rows=5, cols=5, seed=1)).dataset
    if fault == "nan reading":
        ds.cap[4].c_ff = math.nan
    elif fault == "rate not a number":
        ds.ramp[3].rate_v_per_s = "x"
    elif fault == "negative die index":
        ds.iv[1].col = -1
    elif fault == "duplicate cap cell":
        ds.cap.append(copy.copy(ds.cap[7]))
    elif fault == "die outside the grid":
        ds.ramp[2].row = 5
    elif fault == "falling voltage":
        ds.iv[0].v = ds.iv[0].v[::-1]
    else:  # an uneven ramp step
        ds.ramp[1].v = [*ds.ramp[1].v[:-1], ds.ramp[1].v[-1] + 0.5 * ds.ramp[1].step_v]
    return ds


@pytest.mark.parametrize("fault", ["nan reading", "rate not a number", "negative die index",
                                   "duplicate cap cell", "die outside the grid",
                                   "falling voltage", "uneven step"])
def test_writers_refuse_a_faulty_wafer_as_loads_json_does(tmp_path, monkeypatch, fault):
    ds = _faulty_wafer(fault)
    with pytest.raises(DatasetError) as read:
        loads_json(reference_json_text(ds))
    made, mkstemp = [], tempfile.mkstemp
    monkeypatch.setattr(tempfile, "mkstemp", lambda *a, **k: made.append(1) or mkstemp(*a, **k))
    path = str(tmp_path / "w.dat")
    for write in (dumps_text, dumps_json, lambda ds: save_dataset(ds, path, "text"),
                  lambda ds: save_dataset(ds, path, "json")):
        with pytest.raises(DatasetError) as refused:
            write(ds)
        assert (type(refused.value), str(refused.value)) == (read.type, str(read.value))
    assert made == [] and os.listdir(tmp_path) == []


# -------------------------------------------------------- generated datasets


with open(os.path.join(os.path.dirname(__file__), "written_sha256.json")) as _table:
    # format -> preset -> the digest of each seed 0-59's dataset, as written
    # by the reference writers
    WRITTEN_SHA256 = json.load(_table)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_digests():
    return {fmt: {preset: [_sha256(reference(generate_wafer(preset_spec(preset, seed)).dataset))
                           for seed in range(60)] for preset in PRESET_NAMES}
            for fmt, reference in (("text", reference_dumps_text),
                                   ("json", reference_dumps_json))}


def test_generated_wafers_are_written_as_before(preset_corpus):
    preset, datasets = preset_corpus
    for seed, ds in enumerate(datasets):
        for fmt, write in (("text", dumps_text), ("json", dumps_json)):
            assert _sha256(write(ds)) == WRITTEN_SHA256[fmt][preset][seed], (preset, seed, fmt)


def test_large_wafer_is_written_as_before():
    # the 56x56 etch30 wafer of the benchmark, 2 098 ramps on one staircase
    spec = preset_spec("etch30", seed=7, rows=56, cols=56,
                       mask_radius=4 * math.sqrt(42.5), defect_density_cm2=5.5e5)
    ds = generate_wafer(spec).dataset
    assert len(ds.ramp) == 2098
    for reference, writers in WRITERS:
        want = reference(ds)
        for write in writers:
            assert write(ds) == want, write.__name__


# ------------------------------------------------------------- refusals


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("fault", ["unequal series", "wafer entry", "mid-stream"])
def test_a_failed_save_leaves_the_destination_as_it_was(tmp_path, monkeypatch, fmt, fault):
    # 14x14: 1.2 MB of text, 1.7 MB of JSON, so a batch is on disk before
    # the last ramp's fault
    ds = generate_wafer(WaferSpec(seed=1)).dataset
    if fault == "unequal series":
        ds.ramp[3].i.pop()
        error = DatasetSchemaError
    elif fault == "wafer entry":
        ds.wafer["label"] = "has space"
        error = DatasetFormatError
    else:  # the disk fills up after the last piece
        pieces = getattr(dataset, f"_{fmt}_lines")

        def filling(ds):
            yield from pieces(ds)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(dataset, f"_{fmt}_lines", filling)
        error = OSError
    made, mkstemp = [], tempfile.mkstemp

    def counted_mkstemp(*args, **kwargs):
        made.append(mkstemp(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "mkstemp", counted_mkstemp)
    path = tmp_path / "w.dat"
    path.write_bytes(b"earlier bytes\n")
    with pytest.raises(error):
        save_dataset(ds, str(path), fmt)
    assert path.read_bytes() == b"earlier bytes\n"
    assert os.listdir(tmp_path) == ["w.dat"]
    # a refusal comes before the temp file; a fault met streaming removes it
    assert len(made) == (fault == "mid-stream")


@pytest.mark.parametrize("section, entries", [("wafer", {"label": "has space"}),
                                              ("meta", {"note": "a # b"})])
def test_json_writer_refuses_the_entries_the_json_reader_refuses(section, entries):
    ds = DatasetFile(cap=[CapRecord(0, 0, 25.0, 1.0)])
    payload = json.loads(dumps_json(ds))
    payload[section] = entries
    with pytest.raises(DatasetFormatError) as read:
        loads_json(json.dumps(payload))
    setattr(ds, section, entries)
    with pytest.raises(DatasetFormatError) as written:
        dumps_json(ds)
    assert (str(written.value), written.value.line) == (str(read.value), read.value.line)


@pytest.mark.parametrize("kind", ["iv", "ramp"])
def test_readers_refuse_a_step_that_overflows(kind):
    ds = generate_wafer(WaferSpec(rows=5, cols=5, seed=1)).dataset
    rec = getattr(ds, kind)[1]
    rec.v, rec.i = [-1.7e308, 1.7e308], [1e-12, 2e-12]
    text = reference_text(ds)
    line = [n for n, rest in enumerate(text.splitlines(), 1)
            if rest.startswith(kind + " ")][1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetSchemaError) as refused:
            loads_text(text)
        assert (refused.value.line, refused.value.bare_message) == (
            line, "v must advance in finite steps")
        refusal = f"^{kind} record 1: v must advance in finite steps$"
        with pytest.raises(DatasetSchemaError, match=refusal):
            loads_json(reference_json_text(ds))
        for dumps in (dumps_text, dumps_json):  # and the writers with it
            with pytest.raises(DatasetSchemaError, match=refusal):
                dumps(ds)
        # in memory, analyze() meets the same refusal and no overflow warning
        with pytest.raises(ValueError, match="v must advance in finite steps"):
            analyze(ds)


# ------------------------------------------------------------------------ CLI


@pytest.mark.parametrize("name, dumps", [("w.jjw", dumps_text), ("w.json", dumps_json)])
def test_cli_simulate_writes_what_the_writers_write(tmp_path, capsys, name, dumps):
    out = tmp_path / name
    argv = ["simulate", "--preset", "etch20", "--seed", "3", "--out", str(out)]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    want = dumps(generate_wafer(preset_spec("etch20", seed=3)).dataset)
    assert out.read_text(encoding="utf-8") == want


if __name__ == "__main__":
    print(json.dumps(reference_digests(), indent=1))
