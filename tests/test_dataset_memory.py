"""Memory the dataset layer holds, by tracemalloc.

On the 28x28 etch30 wafer below (536 ramps; 4.35 MB of text, 6.11 MB of
JSON), save_dataset streams the file in batches instead of holding its text,
and load_dataset holds a file's text once, decoded from a map of the file,
then its lines or its JSON values, not the text as well, releasing each line
as it parses it.  Peaks in MB above what was allocated before the call and,
for a load, above the dataset it returns, on CPython 3.11 (streaming writers
and releasing reader / their predecessors):

    save_dataset text    3.22 / 8.93    load_dataset text    4.46 / 9.27
    save_dataset json    3.23 / 12.43   load_dataset json    6.29 / 11.29

Each bound sits between the two.  Since records hold their series as
float64 arrays, the saves peak as before and the loads 5.50 (text) and 6.30
(JSON) MB above a dataset less than half as large: 8.91 and 9.63 MB in all,
down from 11.51 and 17.04.  Read into a bytes object and then decoded, the
JSON file's bytes and text together would peak 8.89 MB above the dataset.

The dataset itself, what generate_wafer and load_dataset keep, in MB with
float64 series / with lists of floats:

    generate_wafer       3.22 / 6.80
    load_dataset text    3.40 / 7.05
    load_dataset json    3.33 / 10.75

KEPT_MB sits between the two on each line.

Since the ramps of a wafer share one staircase array and the text reader
reads the file a line at a time, generate_wafer keeps 2.69 MB (3.96 with a
staircase copy per ramp), and the text load peaks 1.77 MB above the
2.14 MB dataset it keeps (5.50 above 3.41 while it held the whole text and
its lines).  GENERATED_MB and STREAMED_MB sit between the two, each well
above the first; STREAMED_MB also lies below the 4.35 MB text alone.

Since the checker flushes its series queue every 256 series, the text load
peaks 0.92 MB above its dataset (1.77 while it stacked every ramp at the
end), and the JSON load still 6.31.  The writers now run the same checker
before they write: the check alone peaks 0.95 MB (1.78 without the
flushes), below the 3.22 MB at which both saves still peak as they stream.
"""

import gc
import math
import tracemalloc

import pytest

from jjwafer.dataset import load_dataset, save_dataset
from jjwafer.synthetic import generate_wafer, preset_spec

MB = 1 << 20
BOUND_MB = {("save", "text"): 6.0, ("save", "json"): 6.0,
            ("load", "text"): 7.0, ("load", "json"): 8.5}
KEPT_MB = 5.0
GENERATED_MB = 3.2  # 19 % above 2.69 MB
STREAMED_MB = 3.0   # 70 % above 1.77 MB
SPEC28 = preset_spec("etch30", seed=7, rows=28, cols=28, mask_radius=2 * math.sqrt(42.5))


@pytest.fixture(scope="module")
def wafer28():
    ds = generate_wafer(SPEC28).dataset
    assert len(ds.ramp) == 536
    return ds


def _traced(fn, *args):
    """fn's result, its peak in MB above what remains allocated after it, and
    what remains in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - current) / MB, current / MB


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_save_holds_a_batch_not_the_file(tmp_path, wafer28, fmt):
    _, peak, _ = _traced(save_dataset, wafer28, str(tmp_path / "w.dat"), fmt)
    assert peak < BOUND_MB["save", fmt]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_load_holds_the_text_or_its_parse_not_both(tmp_path, wafer28, fmt):
    path = str(tmp_path / "w.dat")
    save_dataset(wafer28, path, fmt)
    back, peak, kept = _traced(load_dataset, path)
    assert back == wafer28
    assert peak < BOUND_MB["load", fmt]
    assert kept < KEPT_MB


def test_a_generated_wafer_keeps_its_series_as_float64():
    ds, _, kept = _traced(lambda: generate_wafer(SPEC28).dataset)
    assert len(ds.ramp) == 536
    assert kept < KEPT_MB


def test_a_generated_wafer_keeps_one_staircase():
    ds, _, kept = _traced(lambda: generate_wafer(SPEC28).dataset)
    assert len(ds.ramp) == 536
    assert kept < GENERATED_MB


def test_the_text_load_holds_a_line_not_the_text(tmp_path, wafer28):
    path = str(tmp_path / "w.dat")
    save_dataset(wafer28, path, "text")
    back, peak, _ = _traced(load_dataset, path)
    assert back == wafer28
    assert peak < STREAMED_MB
