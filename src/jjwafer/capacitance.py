"""Wafer capacitance maps, plate-capacitor regression, and thickness extraction.

A WaferMap is a rectangular die grid; cells outside the probed (usually
circular) region are unprobed, probed cells either carry a measured value or
are marked invalid (NaN).  Yield is counted against probed cells only.

The capacitance-per-area slope comes from an ordinary least-squares fit of
mean capacitance against junction area, with an intercept.  The intercept
(stray capacitance of pads and wiring) is reported and never subtracted; the
slope is what carries the film information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._fit import fit_line
from .constants import (
    CONST,
    ff_per_um2_to_f_per_m2,
    m_to_nm,
    nm_to_m,
)
from .errors import DegenerateDataError, InsufficientDataError

__all__ = [
    "WaferMap",
    "WaferStats",
    "CapacitanceRegression",
    "wafer_statistics",
    "fit_capacitance_per_area",
    "oxide_thickness_from_ca",
    "dielectric_constant_from",
    "EPS_R_REFERENCE",
]


@dataclass
class WaferMap:
    """One quantity sampled on a die grid.

    values   : 2-D float array; NaN marks cells without a valid value
    probed   : 2-D bool array; False marks cells that were never measured
    area_um2 : junction area the cells refer to
    label    : wafer or sample name
    units    : unit string of the cell values
    """

    values: np.ndarray
    probed: np.ndarray
    area_um2: float
    label: str = ""
    units: str = "fF"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.probed = np.asarray(self.probed, dtype=bool)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        if self.probed.shape != self.values.shape:
            raise ValueError("probed mask must match values shape")
        if not (self.area_um2 > 0.0):
            raise ValueError(f"area_um2 must be positive, got {self.area_um2}")
        # anything unprobed carries no value by definition
        self.values = np.where(self.probed, self.values, np.nan)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def valid_mask(self) -> np.ndarray:
        return self.probed & np.isfinite(self.values)

    def valid_values(self) -> np.ndarray:
        return self.values[self.valid_mask]

    @property
    def n_valid(self) -> int:
        return int(self.valid_mask.sum())

    @property
    def n_probed(self) -> int:
        return int(self.probed.sum())


@dataclass(frozen=True)
class WaferStats:
    mean: float
    sd: float
    rsd_pct: float
    yield_pct: float
    n_valid: int
    n_probed: int


def wafer_statistics(wmap: WaferMap) -> WaferStats:
    """Mean, sample standard deviation, relative spread and yield of a map.

    rsd_pct = 100 * sd / mean (sample sd, ddof=1); yield_pct counts valid
    against probed cells.  Needs at least 2 valid cells.  A zero mean, or a
    mean, sd or rsd_pct beyond the float range, raises DegenerateDataError.
    """
    vals = wmap.valid_values()
    if vals.size < 2:
        raise InsufficientDataError(
            f"need at least 2 valid cells, map has {vals.size}"
        )
    try:
        with np.errstate(over="raise"):
            mean = vals.mean()
            sd = vals.std(ddof=1)
            if mean == 0.0:
                raise DegenerateDataError("mean of valid cells is zero")
            rsd_pct = 100.0 * sd / mean
    except FloatingPointError as exc:
        raise DegenerateDataError(
            f"statistics of valid cells overflow ({exc})"
        ) from exc
    return WaferStats(
        mean=float(mean),
        sd=float(sd),
        rsd_pct=float(rsd_pct),
        yield_pct=100.0 * vals.size / wmap.n_probed,
        n_valid=int(vals.size),
        n_probed=wmap.n_probed,
    )


@dataclass(frozen=True)
class CapacitanceRegression:
    """OLS fit of mean capacitance [fF] against area [um^2]."""

    ca_ff_per_um2: float       # slope
    ca_stderr: float           # standard error of the slope
    intercept_ff: float        # reported, never subtracted
    intercept_stderr: float
    residual_stderr: float
    r2: float
    points: tuple[tuple[float, float], ...] = field(repr=False)


def fit_capacitance_per_area(points) -> CapacitanceRegression:
    """Fit C = (C/A) * A + C0 over (area, mean capacitance) points.

    points: iterable of (area_um2, mean_c_ff).  At least 3 distinct areas are
    required, otherwise the slope and intercept are not separable.
    """
    pts = [(float(a), float(c)) for a, c in points]
    if len(pts) < 3:
        raise InsufficientDataError(f"need at least 3 points, got {len(pts)}")
    n_areas = len({p[0] for p in pts})
    if n_areas < 3:
        raise DegenerateDataError(f"need at least 3 distinct areas, got {n_areas}")
    a = np.array([p[0] for p in pts])
    c = np.array([p[1] for p in pts])
    n = a.size
    line = fit_line(a, c)
    if line.sxx == 0.0:
        raise DegenerateDataError("spread of the areas underflows to zero")
    sigma2 = line.sse / (n - 2)
    return CapacitanceRegression(
        ca_ff_per_um2=line.slope,
        ca_stderr=math.sqrt(sigma2 / line.sxx),
        intercept_ff=line.intercept,
        intercept_stderr=math.sqrt(sigma2 * (1.0 / n + line.xm**2 / line.sxx)),
        residual_stderr=math.sqrt(sigma2),
        r2=line.r2,
        points=tuple(pts),
    )


def oxide_thickness_from_ca(ca_ff_per_um2: float, eps_r: float) -> float:
    """Oxide thickness [nm] from plate capacitance per area [fF/um^2]."""
    if not (ca_ff_per_um2 > 0.0):
        raise ValueError(f"capacitance per area must be positive, got {ca_ff_per_um2}")
    if not (eps_r >= 1.0):
        raise ValueError(f"eps_r must be >= 1, got {eps_r}")
    t_m = eps_r * CONST.eps0 / ff_per_um2_to_f_per_m2(ca_ff_per_um2)
    return m_to_nm(t_m)


def dielectric_constant_from(ca_ff_per_um2: float, t_ox_nm: float) -> float:
    """Relative permittivity from capacitance per area and a known thickness.

    This is the calibration route: measure C/A electrically on a wafer whose
    thickness is known independently (cross-section imaging), then reuse the
    resulting eps_r on wafers where only C/A is available.
    """
    if not (ca_ff_per_um2 > 0.0):
        raise ValueError(f"capacitance per area must be positive, got {ca_ff_per_um2}")
    if not (t_ox_nm > 0.0):
        raise ValueError(f"t_ox must be positive, got {t_ox_nm}")
    return ff_per_um2_to_f_per_m2(ca_ff_per_um2) * nm_to_m(t_ox_nm) / CONST.eps0


# Calibration from the reference film: 20 fF/um^2 at 4.4 nm imaged thickness.
EPS_R_REFERENCE = dielectric_constant_from(20.0, 4.4)
