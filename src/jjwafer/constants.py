"""Physical constants and unit conversions for tunnel-junction analysis.

All computations inside this package run in SI units.  Public interfaces use
the bench units common in junction work: oxide thickness in nm, areas in um^2,
capacitance in fF, area-resistance in MOhm*um^2, voltage in V, electric field
in MV/cm, barrier energies in eV, defect densities in defects/cm^2.  Every
boundary crossing goes through one of the named conversion functions below so
that no magic factors appear inline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PhysicalConstants",
    "CONST",
    "DEFAULT_BETA",
    "DEFAULT_M_REL",
    "nm_to_m",
    "m_to_nm",
    "um_to_m",
    "um2_to_m2",
    "um2_to_cm2",
    "ev_to_j",
    "j_to_ev",
    "f_to_ff",
    "ff_per_um2_to_f_per_m2",
    "mohm_um2_to_ohm_m2",
    "ohm_m2_to_mohm_um2",
    "v_per_nm_to_mv_per_cm",
    "tunnel_coefficient",
    "barrier_height_from_k",
    "direct_tunneling_prefactor",
    "field_strength",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2022 values used throughout, plus the field-emission coefficient.

    e and hbar follow from the exact SI 2019 values of e and h (hbar is
    h / 2 pi rounded to a double); m_e and eps0 are the CODATA 2022
    recommended values.

    e      : elementary charge [C]
    hbar   : reduced Planck constant [J s]
    m_e    : electron rest mass [kg]
    eps0   : vacuum permittivity [F/m]
    b_fn   : field-emission exponent coefficient [eV^-3/2 V/nm]
    """

    e: float = 1.602176634e-19
    hbar: float = 1.0545718176461565e-34
    m_e: float = 9.1093837139e-31
    eps0: float = 8.8541878188e-12
    b_fn: float = 6.83


CONST = PhysicalConstants()

# Conventional defaults for Al/AlOx barriers: image-force correction factor
# and relative effective electron mass in the oxide.
DEFAULT_BETA = 1.0
DEFAULT_M_REL = 0.75


# --- named unit conversions (bijective on positive reals) -------------------

def nm_to_m(x):
    return x * 1e-9


def m_to_nm(x):
    return x * 1e9


def um_to_m(x):
    return x * 1e-6


def um2_to_m2(x):
    return x * 1e-12


def um2_to_cm2(x):
    return x * 1e-8


def ev_to_j(x):
    return x * CONST.e


def j_to_ev(x):
    return x / CONST.e


def f_to_ff(x):
    return x * 1e15


def ff_per_um2_to_f_per_m2(x):
    # 1 fF/um^2 = 1e-15 F / 1e-12 m^2
    return x * 1e-3


def mohm_um2_to_ohm_m2(x):
    # 1 MOhm um^2 = 1e6 Ohm * 1e-12 m^2
    return x * 1e-6


def ohm_m2_to_mohm_um2(x):
    return x * 1e6


def v_per_nm_to_mv_per_cm(x):
    # 1 V/nm = 1e9 V/m = 10 MV/cm
    return x * 10.0


# --- derived barrier quantities ---------------------------------------------

def tunnel_coefficient(phi_ev: float, beta: float = DEFAULT_BETA,
                       m_rel: float = DEFAULT_M_REL) -> float:
    """Exponential decay constant of the tunnel barrier, in 1/nm.

    k = 2 * beta * sqrt(2 * phi * m') / hbar with m' = m_rel * m_e.
    For phi = 3.14 eV, beta = 1, m_rel = 0.75 this evaluates to 15.72 1/nm.

    Parameters
    ----------
    phi_ev : barrier height [eV], must be > 0
    beta   : barrier-shape correction factor, must be > 0
    m_rel  : effective mass relative to the electron rest mass, must be > 0
    """
    if phi_ev <= 0.0:
        raise ValueError(f"barrier height must be positive, got {phi_ev} eV")
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if m_rel <= 0.0:
        raise ValueError(f"relative mass must be positive, got {m_rel}")
    k_per_m = 2.0 * beta * math.sqrt(2.0 * ev_to_j(phi_ev) * m_rel * CONST.m_e) / CONST.hbar
    return k_per_m * 1e-9


def barrier_height_from_k(k_per_nm: float, beta: float = DEFAULT_BETA,
                          m_rel: float = DEFAULT_M_REL) -> float:
    """Invert tunnel_coefficient: barrier height [eV] from k [1/nm]."""
    if k_per_nm <= 0.0:
        raise ValueError(f"k must be positive, got {k_per_nm} 1/nm")
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if m_rel <= 0.0:
        raise ValueError(f"relative mass must be positive, got {m_rel}")
    k_per_m = k_per_nm * 1e9
    phi_j = (k_per_m * CONST.hbar / (2.0 * beta)) ** 2 / (2.0 * m_rel * CONST.m_e)
    return j_to_ev(phi_j)


def direct_tunneling_prefactor(beta: float = DEFAULT_BETA) -> float:
    """alpha = e / (8 beta^2 pi^2 hbar) of the ohmic tunneling channel,
    evaluated literally in SI (see the transport module)."""
    return CONST.e / (8.0 * beta**2 * math.pi**2 * CONST.hbar)


def field_strength(v_bt: float, t_ox_nm: float) -> float:
    """Breakdown field [MV/cm] from breakdown voltage [V] and thickness [nm]."""
    if t_ox_nm <= 0.0:
        raise ValueError(f"oxide thickness must be positive, got {t_ox_nm} nm")
    return v_per_nm_to_mv_per_cm(v_bt / t_ox_nm)
