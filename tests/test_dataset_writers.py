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
* save_dataset refuses a dataset before it creates its temp file, and a
  fault met while streaming leaves no temp file; either way the destination
  keeps its bytes
* both readers refuse a sweep whose finite voltages step by more than the
  largest float, so analyze() never sees one
* `jjwafer simulate` writes what the writers write for the same spec
"""

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


def reference_dumps_text(ds):
    """dumps_text as it was: every value formatted where it stands."""
    dataset._check_attrs("wafer", ds.wafer, None)
    dataset._check_attrs("meta", ds.meta, None)
    lines = [f"format {dataset.FORMAT_NAME} {dataset.FORMAT_VERSION}"]
    units = dataset.CANONICAL_UNITS.items()
    lines.append("units " + " ".join(f"{k}={v}" for k, v in units))
    if ds.wafer:
        lines.append("wafer " + " ".join(f"{k}={v}" for k, v in ds.wafer.items()))
    lines.extend(f"meta {key}={value}" for key, value in ds.meta.items())
    for kind, (_, schema, _) in dataset._SCHEMA.items():
        for n, rec in enumerate(getattr(ds, kind)):
            toks = [kind]
            for name, ftype in schema:
                x = getattr(rec, name)
                if ftype is dataset._INDEX:
                    toks.append(str(x))
                elif ftype is not dataset._SERIES:
                    toks.append("X" if x is None else repr(float(x)))
                elif name == "v":
                    if len(x) != len(rec.i):
                        raise dataset._fault(
                            DatasetSchemaError, f"v and i differ in length "
                            f"({len(x)} vs {len(rec.i)})", f"{kind} record {n}")
                    pairs = " ".join(f"{float(a)!r}:{float(b)!r}" for a, b in zip(x, rec.i))
                    toks.append(f"{len(x)} {pairs}")
            lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def reference_dumps_json(ds):
    """dumps_json as it was: json's pure-Python indent=1 encoder throughout,
    after the refusals of wafer and meta entries that loads_json makes."""
    dataset._check_attrs("wafer", ds.wafer, "wafer")
    dataset._check_attrs("meta", ds.meta, "meta")
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


@st.composite
def series(draw, staircase):
    """v and i of one record: mostly the wafer's staircase, shared, copied or
    equal to it yet formatted apart; sometimes a series of its own."""
    how = draw(st.sampled_from(["shared", "copy", "zeros", "ints", "tuple", "own", "own"]))
    if how == "own":
        v = draw(st.lists(elements, max_size=6))
    else:
        v = {"shared": staircase, "copy": list(staircase), "tuple": tuple(staircase),
             "zeros": _with_zeros_negated(staircase),
             "ints": _with_ints(staircase)}[how]
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
@given(edge_datasets())
def test_writers_write_what_the_reference_writers_write(ds):
    for reference, writers in WRITERS:
        want = _outcome(reference, ds)
        for write in writers:
            assert _outcome(write, ds) == want, write.__name__


def test_edge_datasets_reach_the_fast_paths():
    staircase, steps = [-0.0, 0.0, SUBNORMAL, LARGEST], [1.0, 2.0, 3.0, 4.0]
    ds = DatasetFile(wafer={"label": 'q"\\µ\u0000'}, ramp=[
        RampRecord(0, 0, 25.0, 0.01, 0.07, v, [1e-12, math.nan, -math.inf, True])
        for v in (staircase, list(staircase), _with_zeros_negated(staircase),
                  [0.0, 0.0, SUBNORMAL, LARGEST], steps, _with_ints(steps))])
    for reference, writers in WRITERS:
        want = reference(ds)
        for write in writers:
            assert write(ds) == want, write.__name__
    assert "-0.0:1e-12 -0.0:nan 5e-324:-inf" in dumps_text(ds)
    assert '"v": [\n    1.0,\n    2.0,\n' in dumps_json(ds)
    assert ' "label": "q\\"\\\\\\u00b5\\u0000"\n' in dumps_json(ds)


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


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_generated_wafers_are_written_as_before(preset):
    for seed in range(60):
        ds = generate_wafer(preset_spec(preset, seed)).dataset
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
    else:
        ds.ramp[-1].area_um2 = 1j  # neither float() nor json formats it
        error = TypeError
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
    text = dumps_text(ds)
    line = [n for n, rest in enumerate(text.splitlines(), 1)
            if rest.startswith(kind + " ")][1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetSchemaError) as refused:
            loads_text(text)
        assert (refused.value.line, refused.value.bare_message) == (
            line, "v must advance in finite steps")
        with pytest.raises(DatasetSchemaError,
                           match=f"^{kind} record 1: v must advance in finite steps$"):
            loads_json(dumps_json(ds))
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
