"""Forward conduction models: values against hand-evaluated formulas."""

import math
import warnings

import numpy as np
import pytest

from jjwafer.capacitance import EPS_R_REFERENCE
from jjwafer.constants import CONST
from jjwafer.errors import UnderflowWarning
from jjwafer.transport import (
    IVCurve,
    OxideModel,
    barrier_height_from_k,
    composite_current,
    composite_didv,
    direct_tunneling_current,
    direct_tunneling_didv,
    fn_scale_for_crossover,
    fowler_nordheim_current,
    fowler_nordheim_didv,
    implied_area_resistance,
    mott_gurney_current,
    mott_gurney_didv,
    power_law_current,
    power_law_didv,
    tunnel_coefficient,
)

REF = OxideModel(t_ox=4.4, k=15.7, eps_r=9.94)


def test_tunnel_coefficient_reference_barrier():
    k = tunnel_coefficient(3.14, beta=1.0, m_rel=0.75)
    assert k == pytest.approx(15.724034322489892, rel=1e-12)
    # hand evaluation of 2 * beta * sqrt(2 * phi * m) / hbar, per nm
    phi_j = 3.14 * CONST.e
    hand = 2.0 * math.sqrt(2.0 * phi_j * 0.75 * CONST.m_e) / CONST.hbar * 1e-9
    assert k == pytest.approx(hand, rel=1e-12)
    assert abs(k - 15.7) < 0.05


def test_tunnel_coefficient_scales_with_beta_and_mass():
    base = tunnel_coefficient(3.14)
    assert tunnel_coefficient(3.14, beta=2.0) == pytest.approx(2.0 * base)
    assert tunnel_coefficient(3.14, m_rel=3.0) == pytest.approx(2.0 * base)


def test_barrier_height_round_trips_with_tunnel_coefficient():
    phi = barrier_height_from_k(15.7)
    assert phi == pytest.approx(3.1304083017754873, rel=1e-12)
    assert tunnel_coefficient(phi) == pytest.approx(15.7, rel=1e-12)
    assert barrier_height_from_k(tunnel_coefficient(2.0)) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -3.14])
def test_nonpositive_barrier_rejected(bad):
    with pytest.raises(ValueError):
        tunnel_coefficient(bad)
    with pytest.raises(ValueError):
        barrier_height_from_k(bad)


def test_oxide_model_completes_missing_parameter():
    m1 = OxideModel(t_ox=4.4, k=15.7)
    assert m1.phi == pytest.approx(3.1304083017754873, rel=1e-12)
    m2 = OxideModel(t_ox=4.4, phi=3.14)
    assert m2.k == pytest.approx(15.724034322489892, rel=1e-12)


def test_oxide_model_defaults_to_the_reference_permittivity():
    # the default is the capacitance calibration itself, not a second copy
    assert OxideModel(t_ox=4.4, k=15.7).eps_r == EPS_R_REFERENCE


def test_oxide_model_rejects_inconsistent_pair():
    with pytest.raises(ValueError, match="inconsistent"):
        OxideModel(t_ox=4.4, k=15.7, phi=3.14)
    with pytest.raises(ValueError):
        OxideModel(t_ox=4.4)  # neither given


def test_direct_tunneling_matches_hand_si_evaluation():
    # i = alpha * k * A * v / t * exp(-k t), alpha = e / (8 beta^2 pi^2 hbar)
    alpha = CONST.e / (8.0 * math.pi**2 * CONST.hbar)
    hand = alpha * 15.7e9 * 25e-12 * 0.1 / 4.4e-9 * math.exp(-15.7 * 4.4)
    assert direct_tunneling_current(0.1, 25.0, REF) == pytest.approx(hand, rel=1e-12)


def test_direct_tunneling_is_linear_in_bias_and_area():
    i1 = direct_tunneling_current(0.05, 25.0, REF)
    assert direct_tunneling_current(0.10, 25.0, REF) == pytest.approx(2.0 * i1, rel=1e-12)
    assert direct_tunneling_current(0.05, 50.0, REF) == pytest.approx(2.0 * i1, rel=1e-12)
    g = direct_tunneling_didv(0.7, 25.0, REF)
    assert g == pytest.approx(i1 / 0.05, rel=1e-12)


def test_direct_tunneling_underflow_returns_zero_with_warning():
    thick = OxideModel(t_ox=60.0, k=15.7)
    with pytest.warns(UnderflowWarning):
        assert direct_tunneling_current(0.1, 25.0, thick) == 0.0


def test_implied_area_resistance_reference_film():
    ra = implied_area_resistance(15.7, 4.4)
    assert ra == pytest.approx(14600.621198120174, rel=1e-12)
    # consistency: v / i of the ohmic channel over one square micron, in MOhm
    v = 0.2
    i = direct_tunneling_current(v, 1.0, REF)
    assert ra == pytest.approx(v / i / 1e6, rel=1e-12)


def test_implied_area_resistance_infinite_on_underflow():
    with pytest.warns(UnderflowWarning):
        assert math.isinf(implied_area_resistance(15.7, 60.0))


def test_mott_gurney_matches_hand_si_evaluation():
    m = OxideModel(t_ox=4.4, k=15.7, eps_r=9.94, mu=1e-10)
    hand = 1.125 * 9.94 * CONST.eps0 * (1e-10 * 1e-4) * 25e-12 / (4.4e-9) ** 3
    assert mott_gurney_current(1.0, 25.0, m) == pytest.approx(hand, rel=1e-12)
    assert mott_gurney_current(2.0, 25.0, m) == pytest.approx(4.0 * hand, rel=1e-12)
    assert mott_gurney_didv(1.0, 25.0, m) == pytest.approx(2.0 * hand, rel=1e-12)


def test_mott_gurney_requires_mobility():
    with pytest.raises(ValueError, match="mobility"):
        mott_gurney_current(1.0, 25.0, REF)


def test_power_law_values_and_derivative():
    v = np.array([-0.5, 0.0, 0.5, 2.0])
    i = power_law_current(v, 3.0, 2.5)
    assert i[0] == 0.0 and i[1] == 0.0
    assert i[2] == pytest.approx(3.0 * 0.5**2.5, rel=1e-12)
    didv = power_law_didv(2.0, 3.0, 2.5)
    assert didv == pytest.approx(2.5 * 3.0 * 2.0**1.5, rel=1e-12)


def test_fowler_nordheim_exact_transform_slope():
    # ln(i/v^2) against 1/v must be affine with slope -b * t_ox * phi^1.5
    m = OxideModel(t_ox=4.4, phi=3.14, fn_scale=1.0)
    va, vb = 0.8, 2.0
    ia = fowler_nordheim_current(va, 25.0, m)
    ib = fowler_nordheim_current(vb, 25.0, m)
    slope = (math.log(ib / vb**2) - math.log(ia / va**2)) / (1.0 / vb - 1.0 / va)
    assert slope == pytest.approx(-CONST.b_fn * 4.4 * 3.14**1.5, rel=1e-12)
    assert slope == pytest.approx(-167.21215817878013, rel=1e-12)


def test_fowler_nordheim_zero_below_zero_bias_and_scales_linearly():
    m = OxideModel(t_ox=4.4, phi=3.14, fn_scale=2.0)
    assert fowler_nordheim_current(-1.0, 25.0, m) == 0.0
    assert fowler_nordheim_current(0.0, 25.0, m) == 0.0
    m1 = OxideModel(t_ox=4.4, phi=3.14, fn_scale=1.0)
    assert fowler_nordheim_current(1.5, 25.0, m) == pytest.approx(
        2.0 * fowler_nordheim_current(1.5, 25.0, m1), rel=1e-12
    )


def test_fn_scale_for_crossover_balances_channels():
    scale = fn_scale_for_crossover(REF, 25.0, 1.0)
    m = OxideModel(t_ox=4.4, k=15.7, eps_r=9.94, fn_scale=scale)
    i_dt = direct_tunneling_current(1.0, 25.0, m)
    i_fn = fowler_nordheim_current(1.0, 25.0, m)
    assert i_fn == pytest.approx(i_dt, rel=1e-12)
    with pytest.raises(ValueError):
        fn_scale_for_crossover(REF, 25.0, 0.0)


def test_composite_is_sum_of_channels():
    scale = fn_scale_for_crossover(REF, 25.0, 1.0)
    m = OxideModel(t_ox=4.4, k=15.7, eps_r=9.94, fn_scale=scale)
    v = np.geomspace(0.02, 2.5, 7)
    np.testing.assert_allclose(
        composite_current(v, 25.0, m),
        direct_tunneling_current(v, 25.0, m) + fowler_nordheim_current(v, 25.0, m),
        rtol=1e-14,
    )


@pytest.mark.parametrize("v", [0.05, 0.5, 1.5])
def test_composite_derivative_matches_finite_difference(v):
    scale = fn_scale_for_crossover(REF, 25.0, 1.0)
    m = OxideModel(t_ox=4.4, k=15.7, eps_r=9.94, fn_scale=scale)
    h = 1e-6 * v
    fd = (composite_current(v + h, 25.0, m) - composite_current(v - h, 25.0, m)) / (2 * h)
    an = composite_didv(v, 25.0, m)
    assert abs(fd - an) / abs(an) < 1e-6


def test_iv_curve_validation():
    with pytest.raises(ValueError):
        IVCurve(np.array([0.2, 0.1]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        IVCurve(np.array([0.1, 0.2]), np.array([1.0, math.inf]))
    with pytest.raises(ValueError):
        IVCurve(np.array([0.1]), np.array([1.0]))
    c = IVCurve([0.1, 0.2], [1e-9, -2e-9], area_um2=25.0)
    assert len(c) == 2  # non-positive currents are kept; analysis filters them


def test_no_spurious_warnings_on_normal_evaluation():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        composite_current(np.geomspace(0.01, 2.5, 61), 25.0, REF)
        fowler_nordheim_didv(np.array([-1.0, 0.5]), 25.0, REF)
