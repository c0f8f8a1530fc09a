import math

import pytest

from jjwafer.constants import (
    CONST,
    DEFAULT_BETA,
    DEFAULT_M_REL,
    direct_tunneling_prefactor,
    field_strength,
    mohm_um2_to_ohm_m2,
    nm_to_m,
    ohm_m2_to_mohm_um2,
    um2_to_m2,
    um_to_m,
)


def test_physical_constants_are_si_2019_values():
    assert CONST.e == 1.602176634e-19
    assert CONST.eps0 == pytest.approx(8.8541878188e-12, rel=1e-12)
    assert CONST.m_e == pytest.approx(9.1093837139e-31, rel=1e-12)
    # hbar = h / 2pi with h exact
    assert CONST.hbar == pytest.approx(6.62607015e-34 / (2 * math.pi), rel=1e-12)
    assert CONST.b_fn == 6.83
    # exact doubles, so no derived quantity moves by a rounding of these
    assert CONST.eps0 == 8.8541878188e-12
    assert CONST.m_e == 9.1093837139e-31
    assert CONST.hbar == 1.0545718176461565e-34


def test_defaults():
    assert DEFAULT_BETA == 1.0
    assert DEFAULT_M_REL == 0.75


def test_length_and_area_conversions():
    assert nm_to_m(1.0) == 1e-9
    assert um_to_m(1.0) == 1e-6
    assert um2_to_m2(1.0) == 1e-12
    assert um2_to_m2(25.0) == pytest.approx(2.5e-11, rel=1e-15)


def test_resistance_area_conversion_round_trip():
    assert ohm_m2_to_mohm_um2(1.0) == pytest.approx(1e6, rel=1e-15)
    for x in (1.0, 14600.0, 3.3e-4):
        assert mohm_um2_to_ohm_m2(ohm_m2_to_mohm_um2(x)) == pytest.approx(x, rel=1e-12)


def test_field_strength_volts_per_nm_to_mv_per_cm():
    # 1 V across 1 nm is 10 MV/cm
    assert field_strength(1.0, 1.0) == pytest.approx(10.0, rel=1e-12)
    assert field_strength(2.18, 4.4) == pytest.approx(4.954545454545454, rel=1e-12)


def test_field_strength_rejects_nonpositive_thickness():
    with pytest.raises(ValueError):
        field_strength(1.0, 0.0)
    with pytest.raises(ValueError):
        field_strength(1.0, -4.4)


def test_direct_tunneling_prefactor_keeps_its_bits():
    # transport and iv_analysis read alpha from here; the expression is the
    # one they wrote out, so no result moves by a rounding
    for beta in (DEFAULT_BETA, 0.5, 1.3):
        assert direct_tunneling_prefactor(beta) == \
            CONST.e / (8.0 * beta**2 * math.pi**2 * CONST.hbar)
