"""Regime segmentation and window fits on synthetic forward sweeps.

Expected windows and slopes below were computed from the transport models
directly; none of them are guessed.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jjwafer import iv_analysis
from jjwafer.constants import CONST
from jjwafer.dataset import iv_curves
from jjwafer.errors import (
    AnalysisError,
    DegenerateDataError,
    InsufficientDataError,
    NoDTWindowError,
    NoFNWindowError,
    NoRootError,
)
from jjwafer.iv_analysis import (
    _BRIDGE_MAX,
    _MIN_RUN,
    _SMOOTH,
    _START_MARGIN,
    Regime,
    barrier_height_from_fn_slope,
    fit_fn_slope,
    fit_k_from_dt,
    fit_msclc_exponent,
    segment_regimes,
)
from jjwafer.synthetic import PRESET_NAMES, generate_wafer, preset_spec
from jjwafer.transport import (
    IVCurve,
    OxideModel,
    composite_current,
    direct_tunneling_current,
    fn_scale_for_crossover,
    fowler_nordheim_current,
    power_law_current,
)

AREA = 25.0
GRID = np.geomspace(0.01, 2.5, 61)
GRID_RATIO = (2.5 / 0.01) ** (1.0 / 60.0)
REF = OxideModel(t_ox=4.4, k=15.7, eps_r=9.94)


def two_channel_curve(v_cross):
    scale = fn_scale_for_crossover(REF, AREA, v_cross)
    model = OxideModel(t_ox=4.4, k=15.7, eps_r=9.94, fn_scale=scale)
    return IVCurve(GRID, composite_current(GRID, AREA, model), area_um2=AREA)


def ohmic_curve(n=30, v_max=1.0):
    v = np.geomspace(0.01, v_max, n)
    return IVCurve(v, v / 5e8)


# --- window placement on tunneling-only curves ---


def test_two_channel_windows():
    seg = segment_regimes(two_channel_curve(1.0))
    assert seg.breakdown_start is None
    assert seg.n_dropped == 0
    lo, hi = seg.dt_window
    assert lo == pytest.approx(0.01)
    assert hi == pytest.approx(0.6893196729924538)
    assert seg.fn_onset == pytest.approx(0.9960550474146118)


def test_two_channel_k_round_trip():
    iv = two_channel_curve(1.0)
    k = fit_k_from_dt(iv, 4.4, AREA)
    assert k == pytest.approx(15.7, rel=1e-6)
    # area is picked up from the curve when not passed explicitly
    assert fit_k_from_dt(iv, 4.4) == k


def test_two_channel_fn_slope_near_truth():
    # exact slope for the barrier height implied by k = 15.7
    phi = (15.7 / (2.0 * np.sqrt(2.0 * 0.75 * CONST.m_e) / CONST.hbar
                   * 1e-9 * np.sqrt(CONST.e))) ** 2
    true_slope = -CONST.b_fn * 4.4 * phi ** 1.5
    slope, r2 = fit_fn_slope(two_channel_curve(1.0))
    # the first window points sit at the crossover where tunneling still
    # contributes, so the fitted slope is shallower than the pure-channel one
    assert slope == pytest.approx(-165.52072662771394, rel=1e-9)
    assert slope == pytest.approx(true_slope, rel=0.01)
    assert r2 > 0.999


def test_low_crossover_is_not_breakdown():
    # a crossover at 0.35 V gives per-step ratios far above any fixed jump
    # factor; the detector must not fire on it
    seg = segment_regimes(two_channel_curve(0.35))
    assert seg.breakdown_start is None
    assert seg.dt_window[1] == pytest.approx(0.2504945828847108)
    assert seg.fn_onset == pytest.approx(0.330137865339513)


def test_three_channel_labels_track_dominance():
    m_exp, v_c = 2.5, 1.63
    i_dt = direct_tunneling_current(GRID, AREA, REF)
    coeff = direct_tunneling_current(v_c, AREA, REF) / v_c ** m_exp
    i_pl = power_law_current(GRID, coeff, m_exp)
    unit = OxideModel(t_ox=4.4, k=15.7, eps_r=9.94, fn_scale=1.0)
    at_one = (direct_tunneling_current(1.0, AREA, REF)
              + power_law_current(1.0, coeff, m_exp))
    scale = at_one / fowler_nordheim_current(1.0, AREA, unit)
    fn_model = OxideModel(t_ox=4.4, k=15.7, eps_r=9.94, fn_scale=scale)
    i_fn = fowler_nordheim_current(GRID, AREA, fn_model)

    seg = segment_regimes(IVCurve(GRID, i_dt + i_pl + i_fn, area_um2=AREA))
    assert seg.breakdown_start is None
    assert seg.dt_window[1] == pytest.approx(0.27464013582652935)
    assert 0.2 < seg.dt_window[1] <= 0.3
    assert 0.9 <= seg.fn_onset <= 1.1

    dt_pts = seg.labels == Regime.DT
    fn_pts = seg.labels == Regime.FN
    dom_dt = i_dt > 10.0 * (i_pl + i_fn)
    dom_fn = i_fn > 10.0 * (i_dt + i_pl)
    # every point labelled DT really is tunneling-dominated
    assert np.all(dom_dt[dt_pts])
    # the FN window opens at the crossover, before 10x dominance is reached,
    # and dominance arrives within two grid steps of the onset
    assert not np.all(dom_fn[fn_pts])
    assert dom_fn[fn_pts][-1]
    first_dominant = GRID[dom_fn][0]
    assert seg.fn_onset <= first_dominant
    assert first_dominant / seg.fn_onset <= GRID_RATIO ** 2 * (1 + 1e-12)
    assert int(np.sum(seg.labels == Regime.INTERMEDIATE)) == 13


def test_pure_fn_slope_is_exact():
    model = OxideModel(t_ox=4.4, phi=3.14, eps_r=9.94, fn_scale=1.0)
    v = np.geomspace(0.8, 2.5, 40)
    iv = IVCurve(v, fowler_nordheim_current(v, AREA, model), area_um2=AREA)
    seg = segment_regimes(iv, require_dt=False)
    assert seg.dt_slice is None
    assert seg.fn_onset == pytest.approx(0.8)
    slope, r2 = fit_fn_slope(iv, seg)
    assert slope == pytest.approx(-CONST.b_fn * 4.4 * 3.14 ** 1.5, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert barrier_height_from_fn_slope(slope, 4.4) == pytest.approx(3.14, abs=1e-9)


def test_ohmic_curve_is_all_dt():
    seg = segment_regimes(ohmic_curve())
    assert np.all(seg.labels == Regime.DT)
    assert seg.fn_onset is None
    assert seg.breakdown_start is None


def test_cubic_curve_has_no_ohmic_window():
    v = np.geomspace(0.01, 1.0, 30)
    iv = IVCurve(v, 1e-9 * v ** 3)
    with pytest.raises(NoDTWindowError):
        segment_regimes(iv)
    assert segment_regimes(iv, require_dt=False).dt_slice is None


# --- invariances ---


def test_labels_invariant_to_current_scaling():
    iv = two_channel_curve(1.0)
    seg = segment_regimes(iv)
    scaled = IVCurve(GRID, 10.0 * np.asarray(iv.i), area_um2=AREA)
    seg10 = segment_regimes(scaled)
    assert np.array_equal(seg10.labels, seg.labels)
    assert fit_fn_slope(scaled, seg10)[0] == pytest.approx(
        fit_fn_slope(iv, seg)[0], rel=1e-12
    )


def test_k_fit_survives_coarser_sampling():
    iv = two_channel_curve(1.0)
    half = IVCurve(GRID[::2], np.asarray(iv.i)[::2], area_um2=AREA)
    k_full = fit_k_from_dt(iv, 4.4)
    k_half = fit_k_from_dt(half, 4.4)
    assert k_half == pytest.approx(k_full, rel=1e-6)
    assert segment_regimes(half).fn_onset == pytest.approx(0.9960550474146118)


# --- breakdown discrimination on sweeps ---


def test_mid_sweep_jump_is_breakdown():
    v = np.geomspace(0.01, 1.0, 40)
    i = v / 5e8
    i[25:] = i[25:] * 1e4 + 1e-6
    seg = segment_regimes(IVCurve(v, i))
    assert seg.breakdown_start == 25
    assert set(seg.labels[25:].tolist()) == {Regime.BREAKDOWN}
    assert Regime.DT in seg.labels[:25]
    assert seg.dt_window[1] == pytest.approx(0.17012542798525893)


def test_last_point_jump_is_breakdown():
    v = np.geomspace(0.01, 1.0, 40)
    i = v / 5e8
    i[-1] *= 1e4
    seg = segment_regimes(IVCurve(v, i))
    assert seg.breakdown_start == 39


def test_steep_fn_rise_is_not_breakdown():
    model = OxideModel(t_ox=4.4, phi=3.14, eps_r=9.94, fn_scale=1.0)
    v = np.geomspace(0.35, 2.5, 50)
    iv = IVCurve(v, fowler_nordheim_current(v, AREA, model), area_um2=AREA)
    seg = segment_regimes(iv, require_dt=False)
    assert seg.breakdown_start is None
    assert seg.fn_onset == pytest.approx(0.35)


# --- bookkeeping and error paths ---


def test_nonpositive_current_points_are_dropped():
    v = np.geomspace(0.01, 1.0, 30)
    i = v / 5e8
    i[0] = -1e-12
    seg = segment_regimes(IVCurve(v, i))
    assert seg.n_dropped == 1
    assert seg.kept_index[0] == 1
    assert seg.dt_window == pytest.approx((v[1], 1.0))


def test_too_few_usable_points():
    v = np.geomspace(0.01, 1.0, 30)
    with pytest.raises(InsufficientDataError):
        segment_regimes(IVCurve(v[:3], v[:3] / 5e8))


def test_flat_currents_rejected():
    v = np.geomspace(0.01, 1.0, 30)
    with pytest.raises(DegenerateDataError):
        segment_regimes(IVCurve(v, np.full(30, 1e-9)))


def test_k_fit_requires_area():
    with pytest.raises(ValueError, match="area"):
        fit_k_from_dt(ohmic_curve(), 4.4)


def test_k_fit_rejects_excess_conductance():
    v = np.geomspace(0.01, 1.0, 30)
    with pytest.raises(NoRootError, match="maximum"):
        fit_k_from_dt(IVCurve(v, v * 1e20), 4.4, AREA)


@pytest.mark.parametrize("m", [1.0, 2.0, 2.5, 3.7])
def test_msclc_exponent_recovery(m):
    v = np.geomspace(0.01, 1.0, 30)
    iv = IVCurve(v, power_law_current(v, 3e-7, m))
    assert fit_msclc_exponent(iv, (0.02, 0.9)) == pytest.approx(m, abs=1e-9)


def test_msclc_window_validation():
    iv = ohmic_curve()
    with pytest.raises(ValueError):
        fit_msclc_exponent(iv, (0.5, 0.1))
    with pytest.raises(ValueError):
        fit_msclc_exponent(iv, (0.0, 0.5))
    with pytest.raises(InsufficientDataError):
        fit_msclc_exponent(iv, (0.02, 0.025))


def test_fn_slope_requires_window():
    with pytest.raises(NoFNWindowError):
        fit_fn_slope(ohmic_curve())


def test_fn_barrier_height_validation():
    with pytest.raises(ValueError):
        barrier_height_from_fn_slope(0.5, 4.4)
    with pytest.raises(ValueError):
        barrier_height_from_fn_slope(-100.0, 0.0)


# --- array passes against the per-point loops they replaced ---

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def loop_loglog_slopes(v, i):
    """Reference: the clamped 5-point moving mean, one window per point."""
    x = np.log(v)
    y = np.log(i)
    n = x.size
    s = np.empty(n)
    s[1:-1] = (y[2:] - y[:-2]) / (x[2:] - x[:-2])
    s[0] = (y[1] - y[0]) / (x[1] - x[0])
    s[-1] = (y[-1] - y[-2]) / (x[-1] - x[-2])
    half = _SMOOTH // 2
    out = np.empty(n)
    for j in range(n):
        lo = min(max(0, j - half), max(0, n - _SMOOTH))
        hi = min(n, lo + _SMOOTH)
        out[j] = s[lo:hi].mean()
    return out


def loop_bridge_gaps(ok):
    """Reference: fill inner gaps of up to _BRIDGE_MAX points, scanning."""
    out = ok.copy()
    n = out.size
    j = 0
    while j < n:
        if not out[j]:
            end = j
            while end + 1 < n and not out[end + 1]:
                end += 1
            if 0 < j and end + 1 < n and end - j + 1 <= _BRIDGE_MAX:
                out[j : end + 1] = True
            j = end + 1
        else:
            j += 1
    return out


def loop_ohmic_run(ok):
    """Reference: the first True run, kept if long enough and early enough."""
    n = ok.size
    j = 0
    while j < n:
        if ok[j]:
            end = j
            while end + 1 < n and ok[end + 1]:
                end += 1
            if j <= _START_MARGIN and end - j + 1 >= _MIN_RUN:
                return slice(j, end + 1)
            return None
        j += 1
    return None


@st.composite
def sweeps(draw):
    n = draw(st.integers(2, 69))
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    v = 1e-3 * np.cumsum(steps)
    i = np.array(draw(st.lists(st.floats(1e-15, 1e-3), min_size=n, max_size=n)))
    return v, i


@PROPERTY
@given(sweeps())
@example((np.geomspace(0.01, 1.0, 2), np.array([1e-9, 3e-9])))
@example((np.geomspace(0.01, 1.0, 4), np.array([1e-9, 3e-9, 2e-9, 8e-9])))
@example((np.geomspace(0.01, 1.0, 5), np.geomspace(1e-9, 1e-7, 5)))
def test_sliding_mean_equals_the_window_loop(sweep):
    v, i = sweep
    assert iv_analysis._local_loglog_slopes(v, i).tobytes() == \
        loop_loglog_slopes(v, i).tobytes()


def _mask(bits):
    return np.array([c == "1" for c in bits], dtype=bool)


# the cases the run-length passes must get right, written as masks
EDGE_MASKS = [
    "", "1", "0", "101", "1001",                     # fewer than 5 points
    "1" * 12, "0" * 12,                              # every point, no point in band
    "011111", "001111", "0001111",                   # gaps touching the low end
    "111100", "1111000", "1111010",                  # gaps touching the high end
    "0" * _START_MARGIN + "1" * _MIN_RUN + "0",      # run starting at the margin
    "0" * (_START_MARGIN + 1) + "1" * _MIN_RUN,      # one point past it
    "1" * _MIN_RUN, "1" * _MIN_RUN + "0",            # exactly _MIN_RUN points
    "1" * (_MIN_RUN - 1) + "0" + "1" * _MIN_RUN,
    "1" * (_MIN_RUN - 1), "0" + "1" * (_MIN_RUN - 1) + "0",
    "1" + "0" * _BRIDGE_MAX + "1", "1" + "0" * (_BRIDGE_MAX + 1) + "1",
    "11011001110001111",
]


def _mask_examples(test):
    for bits in EDGE_MASKS:
        test = example(_mask(bits))(test)
    return test


masks = st.lists(st.booleans(), max_size=40).map(lambda b: np.array(b, dtype=bool))


@PROPERTY
@given(masks)
@_mask_examples
def test_bridge_gaps_equals_the_scan(ok):
    out = iv_analysis._bridge_gaps(ok)
    assert out.dtype == bool
    assert out.tolist() == loop_bridge_gaps(ok).tolist()


@PROPERTY
@given(masks)
@_mask_examples
def test_ohmic_run_equals_the_scan(ok):
    assert iv_analysis._ohmic_run(ok) == loop_ohmic_run(ok)
    assert iv_analysis._ohmic_run(iv_analysis._bridge_gaps(ok)) == \
        loop_ohmic_run(loop_bridge_gaps(ok))


def _segment(iv):
    try:
        seg = segment_regimes(iv, require_dt=False)
    except AnalysisError as exc:
        return type(exc), str(exc)
    return (seg.v.tobytes(), seg.i.tobytes(), seg.kept_index.tolist(),
            seg.labels.tolist(), seg.labels.dtype, seg.dt_slice, seg.fn_slice,
            seg.breakdown_start, seg.n_dropped)


def test_corpus_segmentation_equals_the_loops(monkeypatch):
    curves = [cur for name in PRESET_NAMES for seed in range(10)
              for cur in iv_curves(generate_wafer(preset_spec(name, seed=seed)).dataset)]
    assert len(curves) == 200
    fast = [_segment(cur) for cur in curves]
    monkeypatch.setattr(iv_analysis, "_local_loglog_slopes", loop_loglog_slopes)
    monkeypatch.setattr(iv_analysis, "_bridge_gaps", loop_bridge_gaps)
    monkeypatch.setattr(iv_analysis, "_ohmic_run", loop_ohmic_run)
    slow = [_segment(cur) for cur in curves]
    # every sweep segments, and both windows occur
    assert {len(f) for f in fast} == {9}
    assert any(f[5] is not None for f in fast) and any(f[6] is not None for f in fast)
    for cur, f, s in zip(curves, fast, slow):
        assert f == s, cur.die
