"""Memory the dataset layer holds beyond the dataset itself, by tracemalloc.

On the 28x28 etch30 wafer below (536 ramps; 4.35 MB of text, 6.11 MB of
JSON), save_dataset streams the file in batches instead of holding its text,
and load_dataset holds the lines or the JSON values of a file, not the text
as well, releasing each line as it parses it.  Peaks in MB above what was
allocated before the call and, for a load, above the dataset it returns, on
CPython 3.11 (streaming writers and releasing reader / their predecessors):

    save_dataset text    3.22 / 8.93    load_dataset text    4.46 / 9.27
    save_dataset json    3.23 / 12.43   load_dataset json    6.29 / 11.29

Each bound sits between the two.
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


@pytest.fixture(scope="module")
def wafer28():
    spec = preset_spec("etch30", seed=7, rows=28, cols=28, mask_radius=2 * math.sqrt(42.5))
    ds = generate_wafer(spec).dataset
    assert len(ds.ramp) == 536
    return ds


def _traced(fn, *args):
    """fn's result, and its peak in MB above what remains allocated after it."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - current) / MB


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_save_holds_a_batch_not_the_file(tmp_path, wafer28, fmt):
    _, peak = _traced(save_dataset, wafer28, str(tmp_path / "w.dat"), fmt)
    assert peak < BOUND_MB["save", fmt]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_load_holds_the_text_or_its_parse_not_both(tmp_path, wafer28, fmt):
    path = str(tmp_path / "w.dat")
    save_dataset(wafer28, path, fmt)
    back, peak = _traced(load_dataset, path)
    assert back == wafer28
    assert peak < BOUND_MB["load", fmt]
