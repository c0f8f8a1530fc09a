"""Every report byte of the preset corpus, pinned by digest.

report_sha256.json holds the SHA-256 of render_text and render_json of

* each preset's wafers of seeds 0-59 under the default config, and of seeds
  0-9 under stages ("iv",), ("bkd", "cap"), and ("iv", "bkd") with
  t_ox_nm=4.0
* the benchmark's 56x56 etch30 wafer of seed 7 at 5.5e5 defects/cm2, under
  the same four runs

and of every file one `jjwafer report --out` writes for each preset's seed-0
wafer, which must be the same bytes from text and from JSON input.  A change that moves
report bytes on purpose prints the table again with
`PYTHONPATH=src python tests/test_report_digests.py > tests/report_sha256.json`
and names the fields that moved.

render_json writes floats at full repr, so its last digits may follow the
numpy build: its digests are checked under the numpy version the table
records and skipped under any other.  render_text prints six significant
digits and is checked everywhere.
"""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest

from jjwafer.cli import EXIT_OK, main
from jjwafer.dataset import save_dataset
from jjwafer.report import AnalysisConfig, AreaStats, WaferReport, analyze, render_json, \
    render_text
from jjwafer.synthetic import PRESET_NAMES, generate_wafer, preset_spec

# run -> (stages, config, how many of the corpus' seeds it covers)
RUNS = {
    "default": (None, None, 60),
    "iv": (("iv",), None, 10),
    "bkd cap": (("bkd", "cap"), None, 10),
    "iv bkd, t_ox_nm=4.0": (("iv", "bkd"), AnalysisConfig(t_ox_nm=4.0), 10),
}
RENDERS = {"text": render_text, "json": render_json}
WAFER56 = preset_spec("etch30", seed=7, rows=56, cols=56,
                      mask_radius=4 * math.sqrt(42.5), defect_density_cm2=5.5e5)


def _sha256(data):
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def run_reports(datasets):
    """run -> the reports of its share of datasets"""
    return {run: [analyze(ds, config, stages) for ds in datasets[:n]]
            for run, (stages, config, n) in RUNS.items()}


def render_digests(reports, fmt):
    return {run: [_sha256(RENDERS[fmt](rep)) for rep in reps] for run, reps in reports.items()}


def cli_digests(work, fmt):
    """file name -> digest of every file one `jjwafer report --out` writes
    for each preset's seed-0 wafer, read from files in fmt.  A file is named
    after its preset; etch30's keeps the name w its row was first pinned under."""
    paths = []
    for preset in PRESET_NAMES:
        stem = "w" if preset == "etch30" else preset
        paths.append(os.path.join(work, f"{stem}.jjw" if fmt == "text" else f"{stem}.json"))
        save_dataset(generate_wafer(preset_spec(preset, 0)).dataset, paths[-1], fmt)
    out = os.path.join(work, "out")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["report", *paths, "--out", out]) == EXIT_OK
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as handle:
            digests[name] = _sha256(handle.read())
    return digests


def report_digests():
    """The whole table, from scratch."""
    corpora = {preset: run_reports([generate_wafer(preset_spec(preset, seed)).dataset
                                    for seed in range(60)])
               for preset in PRESET_NAMES}
    corpora["wafer56"] = run_reports([generate_wafer(WAFER56).dataset])
    table = {"numpy": np.__version__}
    for fmt in RENDERS:
        table[fmt] = {name: render_digests(reports, fmt) for name, reports in corpora.items()}
    with tempfile.TemporaryDirectory() as work:
        table["cli"] = cli_digests(work, "text")
    return table


@functools.cache
def pinned():
    # read at first use, so the __main__ route can print over the file
    with open(os.path.join(os.path.dirname(__file__), "report_sha256.json")) as table:
        return json.load(table)


def _skip_json_off_its_numpy(fmt):
    if fmt == "json" and np.__version__ != pinned()["numpy"]:
        pytest.skip(f"render_json writes full-repr floats; its digests were recorded "
                    f"under numpy {pinned()['numpy']}, not {np.__version__}")


@pytest.fixture(scope="module")
def preset_reports(preset_corpus):
    preset, datasets = preset_corpus
    return preset, run_reports(datasets)


@pytest.mark.parametrize("fmt", sorted(RENDERS))
def test_preset_reports_render_as_before(preset_reports, fmt):
    _skip_json_off_its_numpy(fmt)
    preset, reports = preset_reports
    want = pinned()[fmt][preset]
    for run, digests in render_digests(reports, fmt).items():
        for seed, (got, digest) in enumerate(zip(digests, want[run], strict=True)):
            assert got == digest, (preset, run, seed, fmt)


@pytest.fixture(scope="module")
def wafer56_reports():
    return run_reports([generate_wafer(WAFER56).dataset])


@pytest.mark.parametrize("fmt", sorted(RENDERS))
def test_large_wafer_reports_render_as_before(wafer56_reports, fmt):
    _skip_json_off_its_numpy(fmt)
    assert render_digests(wafer56_reports, fmt) == pinned()[fmt]["wafer56"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_report_writes_as_before(tmp_path, fmt):
    # grid cells print 17 digits of the input's own values, and the report is
    # the text render, so this row holds under any numpy
    assert cli_digests(str(tmp_path), fmt) == pinned()["cli"]


def _plain(value):
    if isinstance(value, tuple):
        return all(map(_plain, value))
    return value is None or type(value) in (bool, int, float, str)


def test_report_fields_are_plain_python_values(preset_reports):
    # exactly float: a numpy scalar prints as np.float64(...) in repr(report)
    preset, reports = preset_reports
    for run, reps in reports.items():
        for seed, rep in enumerate(reps):
            for obj in (rep, *rep.cap_by_area):
                assert isinstance(obj, (WaferReport, AreaStats))
                for field in dataclasses.fields(obj):
                    if field.name != "cap_by_area":
                        value = getattr(obj, field.name)
                        assert _plain(value), (preset, run, seed, field.name, value)


if __name__ == "__main__":
    print(json.dumps(report_digests(), indent=1))
