import warnings

import numpy as np
import pytest

from jjwafer.capacitance import (
    EPS_R_REFERENCE,
    WaferMap,
    dielectric_constant_from,
    fit_capacitance_per_area,
    oxide_thickness_from_ca,
    wafer_statistics,
)
from jjwafer.constants import CONST
from jjwafer.errors import DegenerateDataError, InsufficientDataError


def test_dielectric_constant_from_reference_film():
    eps = dielectric_constant_from(20.0, 4.4)
    assert eps == pytest.approx(9.938799786147586, rel=1e-12)
    # plate capacitor, evaluated by hand in SI: eps_r = (C/A) * t / eps0
    assert eps == pytest.approx(20e-3 * 4.4e-9 / CONST.eps0, rel=1e-12)
    assert EPS_R_REFERENCE == eps
    assert abs(eps - 9.94) < 0.01


def test_thickness_and_dielectric_are_inverse_maps():
    t = oxide_thickness_from_ca(20.0, EPS_R_REFERENCE)
    assert t == pytest.approx(4.4, rel=1e-12)
    for ca in (5.0, 20.0, 28.4):
        assert dielectric_constant_from(ca, oxide_thickness_from_ca(ca, 9.5)) == pytest.approx(9.5, rel=1e-12)


@pytest.mark.parametrize("ca,t", [(0.0, 4.4), (-1.0, 4.4), (20.0, 0.0)])
def test_nonpositive_inputs_rejected(ca, t):
    with pytest.raises(ValueError):
        dielectric_constant_from(ca, t)


def _small_map():
    values = np.array([
        [np.nan, 10.0, 10.5],
        [9.5, np.nan, 10.0],
    ])
    probed = np.array([
        [False, True, True],
        [True, True, True],
    ])
    return WaferMap(values=values, probed=probed, area_um2=25.0, label="w1")


def test_wafer_map_counts_valid_against_probed():
    m = _small_map()
    assert m.shape == (2, 3)
    assert m.n_probed == 5
    assert m.n_valid == 4
    # unprobed cells never carry a value, even if the input array had one
    m2 = WaferMap(values=np.ones((2, 2)), probed=np.array([[True, False], [True, True]]), area_um2=1.0)
    assert np.isnan(m2.values[0, 1])


def test_wafer_statistics_small_map():
    st = wafer_statistics(_small_map())
    vals = np.array([10.0, 10.5, 9.5, 10.0])
    assert st.mean == pytest.approx(vals.mean())
    assert st.sd == pytest.approx(vals.std(ddof=1))
    assert st.rsd_pct == pytest.approx(100.0 * vals.std(ddof=1) / vals.mean())
    assert st.yield_pct == pytest.approx(80.0)
    assert (st.n_valid, st.n_probed) == (4, 5)


def test_wafer_statistics_needs_two_valid_cells():
    m = WaferMap(values=np.array([[1.0, np.nan]]), probed=np.ones((1, 2), bool), area_um2=1.0)
    with pytest.raises(InsufficientDataError):
        wafer_statistics(m)


@pytest.mark.parametrize("cells", [
    [1.8961503816218355e+154, 0.0],   # the squared deviations overflow
    [1.5e308, 1.5e308],               # the sum behind the mean overflows
    [1e100, -1e100, 1e-300],          # 100 * sd / mean overflows
])
def test_wafer_statistics_refuses_overflow_without_a_warning(cells):
    m = WaferMap(values=np.array([cells]), probed=np.ones((1, len(cells)), bool),
                 area_um2=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateDataError, match="overflow"):
            wafer_statistics(m)


def test_wafer_map_validation():
    with pytest.raises(ValueError):
        WaferMap(values=np.ones(4), probed=np.ones(4, bool), area_um2=1.0)
    with pytest.raises(ValueError):
        WaferMap(values=np.ones((2, 2)), probed=np.ones((2, 3), bool), area_um2=1.0)
    with pytest.raises(ValueError):
        WaferMap(values=np.ones((2, 2)), probed=np.ones((2, 2), bool), area_um2=0.0)


def test_capacitance_regression_recovers_slope_and_intercept():
    areas = [1.0, 25.0, 50.0, 100.0, 400.0, 1600.0]
    pts = [(a, 20.0 * a + 3.0) for a in areas]
    fit = fit_capacitance_per_area(pts)
    assert fit.ca_ff_per_um2 == pytest.approx(20.0, rel=1e-12)
    assert fit.intercept_ff == pytest.approx(3.0, rel=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.ca_stderr == pytest.approx(0.0, abs=1e-9)


def test_capacitance_regression_requires_three_distinct_areas():
    with pytest.raises(InsufficientDataError):
        fit_capacitance_per_area([(1.0, 20.0), (2.0, 40.0)])
    with pytest.raises(DegenerateDataError):
        fit_capacitance_per_area([(1.0, 20.0), (1.0, 21.0), (1.0, 19.0)])


@pytest.mark.parametrize("areas", [
    (1.0, 1.0, 2.0), (1.0, 2.0, 3.0), (0.0, -0.0, 1.0, 2.0), (5e-324, 1e-323, 5e-324),
    (1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51, 1.0),
])
def test_capacitance_regression_counts_areas_like_unique(areas):
    pts = [(a, 20.0 * a + 3.0) for a in areas]
    n = np.unique(np.array(areas)).size
    if n < 3:
        with pytest.raises(DegenerateDataError, match=f"got {n}$"):
            fit_capacitance_per_area(pts)
    else:
        fit_capacitance_per_area(pts)


def test_capacitance_regression_refuses_areas_whose_spread_underflows():
    # three distinct areas, but their squared deviations round to zero
    with pytest.raises(DegenerateDataError, match="underflows"):
        fit_capacitance_per_area([(1e-300, 1.0), (2e-300, 2.0), (3e-300, 3.0)])


def test_thickness_from_regression_round_trip():
    pts = [(a, 20.0 * a) for a in (1.0, 25.0, 100.0)]
    fit = fit_capacitance_per_area(pts)
    t = oxide_thickness_from_ca(fit.ca_ff_per_um2, EPS_R_REFERENCE)
    assert t == pytest.approx(4.4, rel=1e-12)
