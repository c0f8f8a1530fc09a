"""Two-path resistance model and the plate/sidewall decomposition."""

import re

import pytest

from jjwafer.geometry import JunctionGeometry
from jjwafer.errors import InsufficientDataError
from jjwafer.resistance import (
    ResistanceRecord,
    decompose_resistances,
    junction_resistance,
    plate_resistance,
)


def test_two_path_resistance_hand_value():
    g = JunctionGeometry(w_top=5.0, w_bot=5.0, h=0.12)
    r = junction_resistance(g, 11e3, 12e3)
    # 1/R = 25/11000 + 1.2/12000 by hand
    assert r == pytest.approx(1.0 / (25.0 / 11e3 + 1.2 / 12e3), rel=1e-12)
    assert r == pytest.approx(421.455938697318, rel=1e-12)


def test_parallel_paths_never_exceed_either_alone():
    g = JunctionGeometry(2.0, 7.0, h=0.12)
    r = junction_resistance(g, 5e3, 8e3)
    r_plate = plate_resistance(g, 5e3)
    r_side = 8e3 / g.sidewall_area()
    assert r < r_plate and r < r_side
    assert 1.0 / r == pytest.approx(1.0 / r_plate + 1.0 / r_side, rel=1e-12)


def test_plate_limit_as_sidewall_resistance_grows():
    g = JunctionGeometry(5.0, 5.0)
    r_plate = plate_resistance(g, 14600.0)
    prev_gap = None
    for ra_s in (1e5, 1e7, 1e9, 1e11):
        gap = abs(junction_resistance(g, 14600.0, ra_s) - r_plate) / r_plate
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 1e-6


def test_plate_limit_as_bottom_layer_thins():
    # shrinking the sidewall strips has the same limit
    r_plate = plate_resistance(JunctionGeometry(5.0, 5.0, h=0.12), 14600.0)
    gaps = []
    for h in (0.12, 0.012, 0.0012, 1.2e-5):
        g = JunctionGeometry(5.0, 5.0, h=h)
        gaps.append(abs(junction_resistance(g, 14600.0, 14600.0) - r_plate) / r_plate)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-4


def test_resistance_record_validation():
    with pytest.raises(ValueError):
        ResistanceRecord(JunctionGeometry(5.0, 5.0), 0.0)
    with pytest.raises(ValueError):
        junction_resistance(JunctionGeometry(1.0, 1.0), -5.0, 1.0)
    with pytest.raises(ValueError):
        plate_resistance(JunctionGeometry(1.0, 1.0), 0.0)


def _series(ra, ra_s, w_tops, w_bots, h=0.12):
    recs = []
    for wt, wb in zip(w_tops, w_bots):
        g = JunctionGeometry(wt, wb, h=h)
        recs.append(ResistanceRecord(g, junction_resistance(g, ra, ra_s)))
    return recs


@pytest.mark.parametrize("ra,ra_s", [
    (14600.621198120174, 14600.621198120174),
    (8200.0, 3100.0),
    (7600.0, 2700.0),
    (6700.0, 2300.0),
])
def test_decomposition_recovers_generating_pair(ra, ra_s):
    recs = _series(ra, ra_s, [5.0] * 4, [5.0, 10.0, 20.0, 40.0]) + _series(
        ra, ra_s, [0.35, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0], [5.0] * 8
    )
    out = decompose_resistances(recs)
    assert out.ra == pytest.approx(ra, rel=1e-9)
    assert out.ra_s == pytest.approx(ra_s, rel=1e-9)
    assert out.max_rel_residual < 1e-9


def test_decomposition_flags_negligible_sidewall():
    recs = _series(9.4e3, 9.4e9, [5.0] * 4 + [2.0] * 2, [5.0, 10.0, 20.0, 40.0, 5.0, 10.0])
    out = decompose_resistances(recs)
    assert out.sidewall_negligible
    assert out.ra == pytest.approx(9.4e3, rel=1e-6)


def test_decomposition_needs_enough_distinct_geometries():
    recs = _series(9e3, 9e3, [5.0, 5.0], [5.0, 5.0])
    with pytest.raises(InsufficientDataError):
        decompose_resistances(recs)


@pytest.mark.parametrize("w_bots,accepted", [
    ((10.0, 20.0, 40.0), True),
    ((10.0, 20.0), False),
    ((10.0, 20.0, 20.0), False),
    ((10.0, 20.0, 20.0 * (1.0 + 1e-13)), False),  # within the distinctness tolerance
])
def test_decomposition_needs_a_constant_w_top_series_of_three_w_bot(w_bots, accepted):
    # the sidewall rows each have their own w_top, so only the w_top = 5 rows
    # can form the series
    recs = _series(8200.0, 3100.0, [5.0] * len(w_bots), w_bots) + _series(
        8200.0, 3100.0, [0.35, 1.0, 2.0], [5.0] * 3
    )
    if accepted:
        out = decompose_resistances(recs)
        assert out.ra == pytest.approx(8200.0, rel=1e-9)
        assert out.ra_s == pytest.approx(3100.0, rel=1e-9)
    else:
        message = "no constant-w_top series with >= 3 distinct w_bot values"
        with pytest.raises(InsufficientDataError, match=re.escape(message)):
            decompose_resistances(recs)
