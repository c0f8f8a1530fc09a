"""Forward conduction models for thin-oxide tunnel junctions.

Four mechanisms are modeled, each as an explicit closed form:

* low-voltage direct tunneling, ohmic in v with an exp(-k * t_ox) thickness
  dependence,
* trap-free space-charge-limited conduction (Mott-Gurney), quadratic in v,
* a generic power law i = c * v**m for trap-modified space-charge transport
  (m > 2 signals trap filling),
* field emission through the triangular part of the barrier, with the
  standard exp(-b * t_ox * phi**1.5 / v) voltage dependence.

All model evaluation happens in SI internally; arguments use bench units
(nm, um^2, eV, V).  The direct-tunneling prefactor e / (8 beta^2 pi^2 hbar)
is evaluated literally in SI; its dimensional bookkeeping is unconventional,
but it reproduces measured area-resistances of reference junctions within a
factor of about two, which is the accuracy claimed for it here.

The field-emission expression is a proportionality: fn_scale carries the
unknown prefactor and defaults to 1.  fn_scale_for_crossover calibrates it so
the field-emission channel overtakes direct tunneling at a chosen voltage.
Natural exponential underflow (for example field emission at very small v)
silently returns 0; the parameter-level guard k * t_ox > 700 additionally
emits UnderflowWarning because it usually means mistaken units.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .capacitance import EPS_R_REFERENCE
from .constants import (
    CONST,
    DEFAULT_BETA,
    DEFAULT_M_REL,
    barrier_height_from_k,
    nm_to_m,
    ohm_m2_to_mohm_um2,
    tunnel_coefficient,
    um2_to_m2,
)
from .errors import UnderflowWarning

__all__ = [
    "OxideModel",
    "IVCurve",
    "SERIES_RULES",
    "series_message",
    "sweep_arrays",
    "sweep_faults",
    "direct_tunneling_current",
    "mott_gurney_current",
    "power_law_current",
    "fowler_nordheim_current",
    "composite_current",
    "direct_tunneling_didv",
    "mott_gurney_didv",
    "power_law_didv",
    "fowler_nordheim_didv",
    "composite_didv",
    "implied_area_resistance",
    "fn_scale_for_crossover",
]

# exp(-x) underflow guard threshold for the barrier exponent
_EXP_GUARD = 700.0


@dataclass(frozen=True)
class OxideModel:
    """Barrier parameters of one oxide film.

    t_ox     : oxide thickness [nm]
    k        : tunneling decay constant [1/nm]; derived from phi when omitted
    phi      : barrier height [eV]; derived from k when omitted
    eps_r    : relative permittivity of the oxide
    beta     : barrier-shape correction factor
    m_rel    : relative effective mass
    mu       : carrier mobility [cm^2/(V s)], required only for the
               space-charge-limited model (no default is meaningful)
    fn_scale : dimensionless prefactor of the field-emission proportionality
    """

    t_ox: float
    k: float | None = None
    phi: float | None = None
    eps_r: float = EPS_R_REFERENCE
    beta: float = DEFAULT_BETA
    m_rel: float = DEFAULT_M_REL
    mu: float | None = None
    fn_scale: float = 1.0

    def __post_init__(self):
        if not (self.t_ox > 0.0):
            raise ValueError(f"t_ox must be positive, got {self.t_ox}")
        if not (self.beta > 0.0):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not (self.m_rel > 0.0):
            raise ValueError(f"m_rel must be positive, got {self.m_rel}")
        if not (self.eps_r >= 1.0):
            raise ValueError(f"eps_r must be >= 1, got {self.eps_r}")
        if self.mu is not None and not (self.mu > 0.0):
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not (self.fn_scale >= 0.0):
            raise ValueError(f"fn_scale must be >= 0, got {self.fn_scale}")
        if self.k is None and self.phi is None:
            raise ValueError("provide k, phi, or both")
        if self.k is None:
            object.__setattr__(self, "k", tunnel_coefficient(self.phi, self.beta, self.m_rel))
        elif self.phi is None:
            if not (self.k > 0.0):
                raise ValueError(f"k must be positive, got {self.k}")
            object.__setattr__(self, "phi", barrier_height_from_k(self.k, self.beta, self.m_rel))
        else:
            if not (self.k > 0.0):
                raise ValueError(f"k must be positive, got {self.k}")
            k_implied = tunnel_coefficient(self.phi, self.beta, self.m_rel)
            if abs(k_implied - self.k) > 1e-9 * abs(self.k):
                raise ValueError(
                    f"inconsistent barrier: k={self.k} 1/nm but phi={self.phi} eV "
                    f"implies k={k_implied} 1/nm"
                )


@dataclass(frozen=True)
class IVCurve:
    """A measured or synthesized current-voltage sweep.

    v        : voltages [V], strictly increasing, at least 2 points
    i        : currents [A], finite (non-positive readings are allowed here
               and filtered by the analysis operations)
    area_um2 : junction plate area [um^2], if known
    die      : (row, col) wafer position, if known
    """

    v: np.ndarray
    i: np.ndarray
    area_um2: float | None = None
    die: tuple[int, int] | None = None
    label: str = ""

    def __post_init__(self):
        v, i = sweep_arrays(self.v, self.i)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "i", i)
        if self.area_um2 is not None and not (self.area_um2 > 0.0):
            raise ValueError(f"area_um2 must be positive, got {self.area_um2}")

    def __len__(self):
        return self.v.size


# The series rules in the order they apply: a series is named by the first
# it breaks.  Sweeps keep the first five (sweep_faults), ramps all six.
SERIES_RULES = (
    "v and i must be 1-D arrays of equal length",
    "a sweep needs at least 2 points, got {n}",
    "v and i must be finite",
    "v must be strictly increasing",
    "v must advance in finite steps",
    "ramp voltages must advance in constant steps of step_v (within 1%)",
)


def series_message(code: int, n: int) -> str:
    """The error of fault code (1 + a SERIES_RULES index) on n points."""
    return SERIES_RULES[code - 1].format(n=n)


def sweep_arrays(v, i) -> tuple[np.ndarray, np.ndarray]:
    """v and i as float arrays, held to the series rules of a sweep (else
    ValueError naming the first broken)."""
    v = np.asarray(v, dtype=float)
    i = np.asarray(i, dtype=float)
    code = (1 if v.ndim != 1 or v.shape != i.shape
            else sweep_faults(v[np.newaxis], i[np.newaxis])[0])
    if code:
        raise ValueError(series_message(code, v.size))
    return v, i


def sweep_faults(v: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Per row of a (sweeps, points) block of v and i, 0 if the row keeps
    the series rules, else 1 + the SERIES_RULES index of the first it breaks:
    at least 2 points, finite values, v strictly increasing, in steps that do
    not overflow.  v may be one row that every row of i shares."""
    if v.shape[1] < 2:
        return np.full(len(i), 2)
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(v, axis=1)
        return np.where(np.isfinite(v).all(axis=1) & np.isfinite(i).all(axis=1),
                        np.where((steps > 0.0).all(axis=1),
                                 np.where(np.isfinite(steps).all(axis=1), 0, 5), 4), 3)


def _as_float_array(v):
    arr = np.asarray(v, dtype=float)
    return arr, arr.ndim == 0


def _check_area(area_um2: float):
    if not (area_um2 > 0.0):
        raise ValueError(f"area must be positive, got {area_um2} um^2")


def _dt_conductance_si(area_um2: float, model: OxideModel) -> float:
    """Ohmic conductance of the direct-tunneling channel [A/V]."""
    kt = model.k * model.t_ox
    if kt > _EXP_GUARD:
        warnings.warn(
            f"k*t_ox = {kt:.3g} underflows exp(); returning exact 0",
            UnderflowWarning,
            stacklevel=3,
        )
        return 0.0
    alpha = CONST.e / (8.0 * model.beta**2 * math.pi**2 * CONST.hbar)
    k_m = model.k * 1e9
    return alpha * k_m * um2_to_m2(area_um2) / nm_to_m(model.t_ox) * math.exp(-kt)


def direct_tunneling_current(v, area_um2: float, model: OxideModel):
    """Low-voltage ohmic tunneling current [A].

    i = alpha * k * A * v / t_ox * exp(-k * t_ox), alpha = e / (8 beta^2 pi^2 hbar),
    evaluated in SI.  Returns exact 0 (with UnderflowWarning) when
    k * t_ox > 700.
    """
    _check_area(area_um2)
    varr, scalar = _as_float_array(v)
    out = _dt_conductance_si(area_um2, model) * varr
    return float(out) if scalar else out


def direct_tunneling_didv(v, area_um2: float, model: OxideModel):
    """Analytic di/dv of the direct-tunneling channel [A/V] (constant in v)."""
    _check_area(area_um2)
    varr, scalar = _as_float_array(v)
    out = np.full_like(varr, _dt_conductance_si(area_um2, model))
    return float(out) if scalar else out


def mott_gurney_current(v, area_um2: float, model: OxideModel):
    """Trap-free space-charge-limited current [A], quadratic in v.

    i = (9/8) * A * mu * eps0 * eps_r * v^2 / t_ox^3.  The mobility must be
    set explicitly on the model; there is no defensible default.
    """
    _check_area(area_um2)
    if model.mu is None:
        raise ValueError("space-charge-limited model requires an explicit mobility mu")
    varr, scalar = _as_float_array(v)
    mu_si = model.mu * 1e-4  # cm^2/(V s) -> m^2/(V s)
    coeff = 1.125 * um2_to_m2(area_um2) * mu_si * CONST.eps0 * model.eps_r / nm_to_m(model.t_ox) ** 3
    out = coeff * varr**2
    return float(out) if scalar else out


def mott_gurney_didv(v, area_um2: float, model: OxideModel):
    """Analytic di/dv of the space-charge-limited channel [A/V]."""
    _check_area(area_um2)
    if model.mu is None:
        raise ValueError("space-charge-limited model requires an explicit mobility mu")
    varr, scalar = _as_float_array(v)
    mu_si = model.mu * 1e-4
    coeff = 1.125 * um2_to_m2(area_um2) * mu_si * CONST.eps0 * model.eps_r / nm_to_m(model.t_ox) ** 3
    out = 2.0 * coeff * varr
    return float(out) if scalar else out


def power_law_current(v, prefactor: float, exponent: float):
    """Generic power law i = prefactor * v**exponent for v > 0, else 0.

    Exponent 1 is ohmic, 2 trap-free space-charge flow; exponent > 2 indicates
    trap-filling transport.
    """
    varr, scalar = _as_float_array(v)
    with np.errstate(invalid="ignore"):
        out = np.where(varr > 0.0, prefactor * np.power(varr, exponent), 0.0)
    return float(out) if scalar else out


def power_law_didv(v, prefactor: float, exponent: float):
    """Analytic di/dv of the power law [A/V] for v > 0, else 0."""
    varr, scalar = _as_float_array(v)
    with np.errstate(invalid="ignore"):
        out = np.where(varr > 0.0, exponent * prefactor * np.power(varr, exponent - 1.0), 0.0)
    return float(out) if scalar else out


def _fn_exponent_v(model: OxideModel) -> float:
    """Field-emission exponent scale b * t_ox * phi^1.5 [V]."""
    return CONST.b_fn * model.t_ox * model.phi**1.5


def fowler_nordheim_current(v, area_um2: float, model: OxideModel):
    """Field-emission current (proportionality), 0 for v <= 0.

    i = fn_scale * A * v^2 / (phi * t_ox^2) * exp(-b * t_ox * phi^1.5 / v)
    with A in um^2, phi in eV, t_ox in nm and b = 6.83 eV^-3/2 V/nm, so the
    exponent is dimensionless and fn_scale absorbs all remaining units.
    """
    _check_area(area_um2)
    varr, scalar = _as_float_array(v)
    s = _fn_exponent_v(model)
    pref = model.fn_scale * area_um2 / (model.phi * model.t_ox**2)
    with np.errstate(divide="ignore", over="ignore"):
        expo = np.where(varr > 0.0, -s / np.where(varr > 0.0, varr, 1.0), -np.inf)
        out = np.where(varr > 0.0, pref * varr**2 * np.exp(expo), 0.0)
    return float(out) if scalar else out


def fowler_nordheim_didv(v, area_um2: float, model: OxideModel):
    """Analytic di/dv of the field-emission channel, 0 for v <= 0."""
    _check_area(area_um2)
    varr, scalar = _as_float_array(v)
    s = _fn_exponent_v(model)
    i = fowler_nordheim_current(varr, area_um2, model)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(varr > 0.0, i * (2.0 / varr + s / varr**2), 0.0)
    out = np.where(np.isfinite(out), out, 0.0)
    return float(out) if scalar else out


def composite_current(v, area_um2: float, model: OxideModel):
    """Sum of the direct-tunneling and field-emission channels [A].

    Space-charge-limited flow is deliberately not part of the composite: in
    films this thin the tunneling channels short it out before it could carry
    observable current, so adding it would only mask the two real regimes.
    """
    return direct_tunneling_current(v, area_um2, model) + fowler_nordheim_current(
        v, area_um2, model
    )


def composite_didv(v, area_um2: float, model: OxideModel):
    """Analytic di/dv of the composite model [A/V]."""
    return direct_tunneling_didv(v, area_um2, model) + fowler_nordheim_didv(
        v, area_um2, model
    )


def implied_area_resistance(k_per_nm: float, t_ox_nm: float,
                            beta: float = DEFAULT_BETA) -> float:
    """Area-resistance [MOhm um^2] implied by the ohmic tunneling channel.

    RA = t_ox / (alpha * k * exp(-k * t_ox)) evaluated in SI and converted.
    Returns inf (with UnderflowWarning) when k * t_ox > 700.
    """
    if not (k_per_nm > 0.0):
        raise ValueError(f"k must be positive, got {k_per_nm}")
    if not (t_ox_nm > 0.0):
        raise ValueError(f"t_ox must be positive, got {t_ox_nm}")
    kt = k_per_nm * t_ox_nm
    if kt > _EXP_GUARD:
        warnings.warn(
            f"k*t_ox = {kt:.3g} underflows exp(); implied RA is infinite",
            UnderflowWarning,
            stacklevel=2,
        )
        return math.inf
    alpha = CONST.e / (8.0 * beta**2 * math.pi**2 * CONST.hbar)
    ra_si = nm_to_m(t_ox_nm) / (alpha * k_per_nm * 1e9 * math.exp(-kt))
    return ohm_m2_to_mohm_um2(ra_si)


def fn_scale_for_crossover(model: OxideModel, area_um2: float, v_cross: float) -> float:
    """fn_scale that makes the field-emission channel equal direct tunneling at v_cross.

    Useful when synthesizing curves whose regime change should land at a known
    voltage.  Raises if either channel is zero there (underflow or v_cross <= 0).
    """
    if not (v_cross > 0.0):
        raise ValueError(f"crossover voltage must be positive, got {v_cross}")
    i_dt = direct_tunneling_current(v_cross, area_um2, model)
    unit_model = OxideModel(
        t_ox=model.t_ox, k=model.k, phi=model.phi, eps_r=model.eps_r,
        beta=model.beta, m_rel=model.m_rel, mu=model.mu, fn_scale=1.0,
    )
    i_fn_unit = fowler_nordheim_current(v_cross, area_um2, unit_model)
    if i_dt <= 0.0 or i_fn_unit <= 0.0:
        raise ValueError(
            f"cannot calibrate crossover at {v_cross} V: a channel underflows to 0"
        )
    return i_dt / i_fn_unit
