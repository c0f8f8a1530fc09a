"""The numpy-only solvers: k against a bisection oracle, RA/RA_S on a wafer
whose sidewall sits near the edge of its range, floating-point faults as
analysis errors, and a CLI import that loads nothing beyond numpy and the
standard library and starts no OpenBLAS worker thread."""

import math
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from jjwafer.dataset import iv_curves, resistance_records
from jjwafer.errors import AnalysisError
from jjwafer.geometry import JunctionGeometry
from jjwafer.iv_analysis import fit_k_from_dt, segment_regimes
from jjwafer.report import analyze
from jjwafer.resistance import ResistanceRecord, decompose_resistances
from jjwafer.synthetic import PRESET_NAMES, generate_wafer, preset_spec
from jjwafer.transport import OxideModel, direct_tunneling_current

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _bisect_k(g, t_ox, area):
    """k on the branch k > 1/t_ox at which the forward model's ohmic
    conductance equals g, by bisection until the bracket stops shrinking."""
    def excess(k):
        model = OxideModel(t_ox=t_ox, k=k, eps_r=9.0)
        return math.log(direct_tunneling_current(1.0, area, model)) - math.log(g)

    lo = hi = 1.0 / t_ox
    while excess(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_k_matches_a_bisection_oracle_on_every_preset_sweep(preset):
    spec = preset_spec(preset, seed=0)
    curves = iv_curves(generate_wafer(spec).dataset)
    assert curves
    for curve in curves:
        seg = segment_regimes(curve)
        v, i = seg.v[seg.dt_slice], seg.i[seg.dt_slice]
        g = float(np.sum(v * i) / np.sum(v * v))
        k = fit_k_from_dt(curve, spec.t_ox_nm, segmentation=seg)
        assert k == pytest.approx(_bisect_k(g, spec.t_ox_nm, curve.area_um2), rel=1e-9)


def test_sidewall_leaves_the_range_edge_on_etch30_seed_2():
    # the sidewall signal of this wafer is weak; the joint fit must still
    # find RA_S inside its range instead of parking it at the 1e9 edge
    gen = generate_wafer(preset_spec("etch30", seed=2))
    out = decompose_resistances(resistance_records(gen.dataset))
    assert out.ra == pytest.approx(gen.ground_truth["ra_mohm_um2"], rel=0.02)
    assert out.ra_s < 1e9


@pytest.mark.parametrize("scale", [5e-324, 1e-310, 1e300])
def test_extreme_resistances_raise_an_analysis_error_not_a_warning(scale):
    recs = [
        ResistanceRecord(g, 300.0 * scale / g.top_area())
        for g in (JunctionGeometry(5.0, w) for w in (5.0, 10.0, 20.0, 40.0))
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AnalysisError):
            decompose_resistances(recs)


def test_area_resistance_below_the_range_is_an_error():
    # one subnormal reading drags the fitted RA far below 1e-3 MOhm um^2
    recs = [ResistanceRecord(JunctionGeometry(5.0, w), r)
            for w, r in ((5.0, 1.0), (10.0, 0.5), (20.0, 5e-324), (40.0, 0.2))]
    with pytest.raises(AnalysisError, match="left the range"):
        decompose_resistances(recs)


def test_subnormal_resistance_becomes_a_res_stage_error():
    ds = generate_wafer(preset_spec("ref", seed=0)).dataset
    ds.res[2] = replace(ds.res[2], r_mohm=5e-324)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = analyze(ds, stages=("res",))
    assert report.ra_mohm_um2 is None
    assert [stage for stage, _ in report.stage_errors] == ["res"]


def test_cli_import_loads_only_numpy_and_the_standard_library():
    # any other third-party package would put its import time on every CLI call
    code = ("import sys, numpy; before = set(sys.modules); import jjwafer.cli; "
            "extra = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "extra -= set(sys.stdlib_module_names) | {'numpy', 'jjwafer'}; "
            "assert not extra, sorted(extra)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_import_starts_no_blas_worker_thread():
    # starting an OpenBLAS worker pool costs every short CLI process CPU; no stage needs it
    code = ("import os, jjwafer.cli; tasks = len(os.listdir('/proc/self/task')); "
            "assert tasks == 1, tasks")
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONPATH": str(SRC)},
                   check=True)


def test_a_blas_thread_count_the_user_set_wins():
    code = "import os, jjwafer.cli; assert os.environ['OPENBLAS_NUM_THREADS'] == '2'"
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "2"}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_analyze_does_not_load_numpy_ma():
    # numpy.ma costs about 15 ms to import, once per CLI process
    code = ("import sys; from jjwafer.report import analyze; "
            "from jjwafer.synthetic import generate_wafer, preset_spec; "
            "report = analyze(generate_wafer(preset_spec('etch20', seed=0)).dataset); "
            "assert report.t_ox_nm is not None and not report.stage_errors; "
            "assert 'numpy.ma' not in sys.modules")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
