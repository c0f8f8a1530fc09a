"""Ramp breakdown detection, Weibull statistics and the two-population knee."""

import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jjwafer._fit import fit_line
from jjwafer.breakdown import (
    DEFAULT_RAMP_RATE_V_PER_S,
    DEFAULT_RAMP_STEP_V,
    KneeFit,
    RampTrace,
    WeibullAnalysis,
    critical_defect_density,
    detect_breakdown,
    find_transition,
    first_jumps,
    fit_weibull_shape,
    jump_steps,
    weibull_transform,
)
from jjwafer.errors import InsufficientDataError, NoBreakdownError, NoKneeError
from jjwafer.synthetic import bimodal_field_sample

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                    suppress_health_check=[HealthCheck.too_slow])

RAMP_V = np.arange(1, 251) * 0.01

# mixture matching the reference wafer: 18 of 140 junctions defect-limited
# around 3.2 MV/cm (15% spread), the rest intrinsic at 4.9545 MV/cm (3%)
N_DIES = 140
N_DEFECTIVE = 18
INTRINSIC_MV_CM = 4.954545454545454


def reference_mixture(seed):
    return bimodal_field_sample(
        N_DIES, N_DEFECTIVE / N_DIES, 3.2, 15.0, INTRINSIC_MV_CM, 3.0, seed
    )


# --- ramp detection ---


def test_detect_breakdown_hard():
    i = RAMP_V * 1e-9
    i[217:] = 1e-3
    rec = detect_breakdown(RampTrace(RAMP_V, i, area_um2=25.0))
    assert rec.index == 217
    assert rec.v_bt == RAMP_V[217] == pytest.approx(2.18)
    assert rec.hard


def test_detect_breakdown_soft_recovery():
    i = RAMP_V * 1e-9
    i[217] = 1e-3
    rec = detect_breakdown(RampTrace(RAMP_V, i, area_um2=25.0))
    assert rec.index == 217
    assert not rec.hard


def test_detect_breakdown_none_on_smooth_ramp():
    with pytest.raises(NoBreakdownError):
        detect_breakdown(RampTrace(RAMP_V, RAMP_V * 1e-9, area_um2=25.0))


def test_noise_floor_suppresses_sub_na_flicker():
    # alternating pA-level noise has huge step ratios but stays far below
    # the 1 nA floor; it must not register as breakdown
    i = np.where(np.arange(RAMP_V.size) % 2 == 0, 1e-12, 5e-11)
    trace = RampTrace(RAMP_V, i, area_um2=25.0)
    with pytest.raises(NoBreakdownError):
        detect_breakdown(trace)
    assert detect_breakdown(trace, floor=1e-13).index == 1


def test_jump_factor_can_only_delay_detection():
    i = np.full(RAMP_V.size, 1e-8)
    i[10:] = 2e-7   # 20x step
    i[20:] = 4e-5   # 200x step
    trace = RampTrace(RAMP_V, i, area_um2=25.0)
    indices = [detect_breakdown(trace, jump_factor=jf).index for jf in (5.0, 10.0, 50.0)]
    assert indices == [10, 10, 20]
    assert indices == sorted(indices)


def test_jump_steps_match_the_scalar_rule():
    rng = np.random.default_rng(5)
    for i in (10.0 ** rng.uniform(-13, -3, 60), np.array([1e-12, 1e-3, 1e308, 1e308])):
        x = i.tolist()
        expected = [n for n in range(1, len(x)) if x[n] > 10.0 * max(x[n - 1], 1e-9)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowing threshold is no jump
            assert jump_steps(i, 10.0, 1e-9).tolist() == expected


def ramp_currents(draw, n_steps):
    """One ramp's currents: sub-floor flicker or a smooth leak, then maybe a
    jump, maybe one that recovers, maybe currents whose threshold overflows."""
    kind = draw(st.sampled_from(["flicker", "leak", "jump", "soft", "huge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i = (10.0 ** rng.uniform(-13, -10, n_steps) if kind == "flicker"
         else np.linspace(1e-10, 1e-8, n_steps))
    at = draw(st.integers(1, n_steps - 1))
    if kind in ("jump", "soft"):
        i[at:] *= 10.0 ** draw(st.floats(0.5, 5.0))
        if kind == "soft":
            i[at + 1:] = i[at - 1]
    elif kind == "huge":  # 10 * 1e308 overflows: no jump after these
        i[at - 1:] = draw(st.sampled_from([1e307, 1.7e308, 1e308]))
        i[at:] = 1.7976931348623157e308
    return i


@st.composite
def current_blocks(draw):
    n_steps = draw(st.integers(2, 40))
    rows = draw(st.integers(1, 12))
    return np.array([ramp_currents(draw, n_steps) for _ in range(rows)])


@PROPERTY
@given(current_blocks(), st.sampled_from([1.5, 10.0, 1e3]),
       st.sampled_from([1e-13, 1e-9, 1e-6]))
def test_first_jumps_match_detect_breakdown_row_by_row(block, jump_factor, floor):
    v = DEFAULT_RAMP_STEP_V * np.arange(1, block.shape[1] + 1)
    expected = []
    for i in block:
        try:
            expected.append(detect_breakdown(RampTrace(v, i, area_um2=25.0),
                                             jump_factor, floor).index)
        except NoBreakdownError:
            expected.append(0)
    assert first_jumps(block, jump_factor, floor).tolist() == expected


def test_detect_breakdown_parameter_validation():
    trace = RampTrace(RAMP_V, RAMP_V * 1e-9, area_um2=25.0)
    with pytest.raises(ValueError):
        detect_breakdown(trace, jump_factor=1.0)
    with pytest.raises(ValueError):
        detect_breakdown(trace, floor=0.0)


def test_ramp_trace_validation():
    assert DEFAULT_RAMP_STEP_V == 0.01
    assert DEFAULT_RAMP_RATE_V_PER_S == 0.07
    i = RAMP_V * 1e-9
    with pytest.raises(ValueError, match="constant"):
        RampTrace(RAMP_V ** 1.01, i, area_um2=25.0)
    with pytest.raises(ValueError, match="increasing"):
        RampTrace(RAMP_V[::-1], i, area_um2=25.0)
    with pytest.raises(ValueError, match="at least 2"):
        RampTrace(RAMP_V[:1], i[:1], area_um2=25.0)
    with pytest.raises(ValueError, match="finite"):
        RampTrace(RAMP_V, np.where(np.arange(i.size) == 5, np.nan, i), area_um2=25.0)
    with pytest.raises(ValueError, match="area"):
        RampTrace(RAMP_V, i, area_um2=0.0)


# --- Weibull transform and shape fit ---


def test_weibull_transform_plotting_positions():
    w = weibull_transform(np.linspace(5.0, 3.0, 20))
    assert np.array_equal(w.p, np.arange(1, 21) / 21.0)
    assert np.all(np.diff(w.e) > 0.0)
    assert np.all(np.diff(w.y) > 0.0)


def test_weibull_transform_validation():
    with pytest.raises(InsufficientDataError):
        weibull_transform(np.full(9, 4.0))
    with pytest.raises(ValueError):
        weibull_transform(np.array([1.0] * 9 + [-2.0]))
    with pytest.raises(ValueError):
        weibull_transform(np.array([1.0] * 9 + [np.nan]))


def test_shape_fit_exact_on_quantile_ladder():
    # fields placed exactly at the Weibull quantiles of the plotting
    # positions linearize perfectly
    p = np.arange(1, N_DIES + 1) / (N_DIES + 1.0)
    e = 4.95 * (-np.log(1.0 - p)) ** (1.0 / 40.0)
    shape, scale, r2 = fit_weibull_shape(weibull_transform(e))
    assert shape == pytest.approx(40.0, rel=1e-12)
    assert scale == pytest.approx(4.95, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_shape_fit_on_random_sample_lands_near_truth():
    rng = np.random.default_rng(11)
    e = 4.95 * (-np.log(1.0 - rng.random(N_DIES))) ** (1.0 / 40.0)
    shape, _, _ = fit_weibull_shape(weibull_transform(e))
    assert shape == pytest.approx(36.74260656781177, rel=1e-12)
    assert abs(shape - 40.0) / 40.0 < 0.10


def test_shape_fit_rejects_equal_fields():
    with pytest.raises(InsufficientDataError):
        fit_weibull_shape(weibull_transform(np.full(15, 4.0)))


# --- two-population transition ---


def test_transition_on_reference_mixture():
    kf = find_transition(weibull_transform(reference_mixture(0)))
    # the split lands exactly between the 18 defect draws and the rest
    assert kf.index == N_DEFECTIVE - 1
    assert kf.p_k == pytest.approx(N_DEFECTIVE / (N_DIES + 1.0), abs=1e-12)
    assert kf.e_crit == pytest.approx(4.530584282091773, rel=1e-9)
    assert kf.right_slope > 2.0 * kf.left_slope > 0.0
    assert kf.sse_two < 0.8 * kf.sse_one


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13])
def test_transition_window_across_draws(seed):
    kf = find_transition(weibull_transform(reference_mixture(seed)))
    assert abs(kf.p_k - 0.129) <= 0.04
    assert 4.2 <= kf.e_crit <= 5.0


def test_transition_misses_are_possible():
    # not every finite draw separates cleanly: seed 10 shows no acceptable
    # split at all, seed 14's best split lands high on the intrinsic branch
    with pytest.raises(NoKneeError):
        find_transition(weibull_transform(reference_mixture(10)))
    kf = find_transition(weibull_transform(reference_mixture(14)))
    assert kf.p_k > 0.129 + 0.04


def test_no_knee_on_single_population_ladders():
    p = np.arange(1, N_DIES + 1) / (N_DIES + 1.0)
    gauss = INTRINSIC_MV_CM * (1.0 + 0.03 * np.array([NormalDist().inv_cdf(q) for q in p]))
    weib = INTRINSIC_MV_CM * (-np.log(1.0 - p)) ** (1.0 / 40.0)
    for e in (gauss, weib):
        with pytest.raises(NoKneeError):
            find_transition(weibull_transform(e))


def test_no_knee_on_defect_only_sample():
    rng = np.random.default_rng(5)
    e = np.abs(3.2 * (1.0 + 0.15 * rng.standard_normal(N_DIES)))
    with pytest.raises(NoKneeError):
        find_transition(weibull_transform(e))


def test_transition_needs_twenty_points():
    with pytest.raises(InsufficientDataError):
        find_transition(weibull_transform(np.linspace(3.0, 5.0, 15)))


def test_transition_stable_under_duplication():
    e = reference_mixture(0)
    k1 = find_transition(weibull_transform(e))
    k2 = find_transition(weibull_transform(np.repeat(e, 2)))
    assert abs(k2.p_k - k1.p_k) < 1.0 / (N_DIES + 1.0)


def test_transition_scales_with_field_axis():
    e = reference_mixture(0)
    k1 = find_transition(weibull_transform(e))
    k2 = find_transition(weibull_transform(2.5 * e))
    assert k2.e_crit == pytest.approx(2.5 * k1.e_crit, rel=1e-12)
    assert k2.p_k == k1.p_k


def scanned_transition(w):
    """find_transition as it was: fit_line on every split, in order."""
    e, y, p = w.e, w.y, w.p
    n = e.size
    sse_one = fit_line(e, y).sse
    best = None
    for j in range(4, n - 5):
        lo = fit_line(e[: j + 1], y[: j + 1])
        hi = fit_line(e[j + 1 :], y[j + 1 :])
        sse = lo.sse + hi.sse
        if best is None or sse < best[0]:
            best = (sse, j, lo.slope, hi.slope)
    sse_two, j, slope_lo, slope_hi = best
    if sse_one == 0.0 or sse_two > 0.8 * sse_one:
        raise NoKneeError("two-segment fit does not improve on a single line by "
                          "20%; the population looks homogeneous")
    if not (slope_hi > slope_lo and (slope_lo <= 0.0 or slope_hi >= 2.0 * slope_lo)):
        raise NoKneeError("best split lacks the shallow-tail-to-steep-wall structure "
                          "of a defect-to-intrinsic transition")
    last_left = int(np.searchsorted(e, e[j], side="right") - 1)
    return KneeFit(e_crit=float(e[j + 1]), p_k=float(p[last_left]), index=j,
                   left_slope=slope_lo, right_slope=slope_hi, sse_two=sse_two,
                   sse_one=sse_one)


@st.composite
def weibull_plots(draw):
    """Ranked fields of two-population mixtures, repeated draws and integer
    values, and mirror images: a y profile symmetric about the middle of
    evenly spaced fields, whose mirrored splits tie but for rounding."""
    n = draw(st.integers(20, 400))
    kind = draw(st.sampled_from(["mixture", "repeat", "integers", "mirror"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # 1e130 and 1e-130 lie outside 2**-400 .. 2**400, where every split is scanned
    scale = draw(st.sampled_from([1.0, 2.5, 1e-6, 3e-3, 7e4, 1e12, 1e130, 1e-130]))
    if kind == "mirror":
        half = rng.standard_normal((n + 1) // 2).cumsum()
        return WeibullAnalysis(e=scale * np.linspace(1.0, 2.0, n),
                               p=np.arange(1, n + 1) / (n + 1.0),
                               y=np.concatenate([half, half[::-1][n % 2:]]))
    if kind == "integers":
        e = rng.integers(1, draw(st.integers(2, 40)) + 1, n).astype(float)
    else:
        e = bimodal_field_sample(
            n // 2 if kind == "repeat" else n, draw(st.floats(0.0, 0.5)),
            draw(st.floats(1.0, 4.0)), draw(st.floats(1.0, 30.0)),
            draw(st.floats(4.0, 6.0)), draw(st.floats(0.5, 10.0)), seed)
        if kind == "repeat":
            e = np.repeat(e, draw(st.integers(2, 4)))
    return weibull_transform(scale * e)


@PROPERTY
@given(weibull_plots())
def test_transition_equals_the_scan_of_every_split(w):
    try:
        expected = scanned_transition(w)
    except NoKneeError as exc:
        with pytest.raises(NoKneeError) as refused:
            find_transition(w)
        assert str(refused.value) == str(exc)
        return
    assert find_transition(w) == expected


# --- defect density ---


def test_critical_defect_density_value():
    d = critical_defect_density(0.129, 25.0)
    assert d == pytest.approx(552453.2085185371, rel=1e-12)
    assert d == pytest.approx(-np.log1p(-0.129) / 25e-8, rel=1e-12)
    assert d == pytest.approx(5.53e5, rel=0.01)


def test_critical_defect_density_validation():
    for bad_p in (0.0, 1.0, -0.1, 1.2):
        with pytest.raises(ValueError):
            critical_defect_density(bad_p, 25.0)
    with pytest.raises(ValueError):
        critical_defect_density(0.129, 0.0)
