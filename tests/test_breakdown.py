"""Ramp breakdown detection, Weibull statistics and the two-population knee."""

import warnings
from statistics import NormalDist

import numpy as np
import pytest

from jjwafer.breakdown import (
    DEFAULT_RAMP_RATE_V_PER_S,
    DEFAULT_RAMP_STEP_V,
    RampTrace,
    critical_defect_density,
    detect_breakdown,
    find_transition,
    fit_weibull_shape,
    jump_steps,
    weibull_transform,
)
from jjwafer.errors import InsufficientDataError, NoBreakdownError, NoKneeError
from jjwafer.synthetic import bimodal_field_sample

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
