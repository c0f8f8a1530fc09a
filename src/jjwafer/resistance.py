"""Splitting junction resistance into plate and sidewall area-resistances.

The top electrode sees two parallel conduction paths into the bottom
electrode: the plate overlap (area w_top * w_bot, area-resistance RA) and the
two sidewall strips where it climbs over the bottom-layer edges (area
2 * h * w_top, area-resistance RA_S).  In parallel:

    1/R = w_top * w_bot / RA + 2 * h * w_top / RA_S

so R = RA * RA_S / ((w_bot * RA_S + 2 h RA) * w_top).  When the sidewall is
negligible this reduces to the plate-only form R = RA / (w_top * w_bot).

Extraction is staged the way the measurement series are designed: a series at
constant w_top with varying w_bot gives RA from a through-origin fit of R
against 1/w_bot (plate-only approximation); a second series then gives RA_S
from a one-parameter least-squares fit of the full model with RA held fixed.
Because the plate-only step is biased whenever the sidewall carries current,
decompose_resistances follows the staged estimates with a joint two-parameter
least-squares refit of the full model, which converges to the exact pair on
clean data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares, minimize_scalar

from .errors import InsufficientDataError, NoBracketError
from .geometry import JunctionGeometry

__all__ = [
    "ResistanceRecord",
    "AreaResistances",
    "junction_resistance",
    "plate_resistance",
    "fit_ra",
    "fit_ras",
    "decompose_resistances",
]

RA_S_BRACKET = (1e-3, 1e9)   # MOhm um^2, search range for scalar fits
_DOMINANCE_FACTOR = 10.0


@dataclass(frozen=True)
class ResistanceRecord:
    """One measured junction: geometry plus room-temperature resistance [MOhm]."""

    geometry: JunctionGeometry
    r_mohm: float

    def __post_init__(self):
        if not (self.r_mohm > 0.0):
            raise ValueError(f"resistance must be positive, got {self.r_mohm}")


@dataclass(frozen=True)
class AreaResistances:
    """Result of the plate/sidewall decomposition.

    ra, ra_s  : area-resistances [MOhm um^2]
    ra_staged, ra_s_staged : the single-pass staged estimates before refinement
    sidewall_negligible : True when w_bot * RA_S >= 10 * (2 h RA) for every
        record used, i.e. the plate-only approximation was safe
    n_iterations : model evaluations spent in the joint refinement
    max_rel_residual : worst relative misfit of the final model
    """

    ra: float
    ra_s: float
    ra_staged: float
    ra_s_staged: float
    sidewall_negligible: bool
    n_iterations: int
    max_rel_residual: float


def junction_resistance(g: JunctionGeometry, ra: float, ra_s: float) -> float:
    """Two-path model resistance [MOhm] for geometry g (um), RA/RA_S in MOhm um^2."""
    if not (ra > 0.0):
        raise ValueError(f"RA must be positive, got {ra}")
    if not (ra_s > 0.0):
        raise ValueError(f"RA_S must be positive, got {ra_s}")
    return ra * ra_s / ((g.w_bot * ra_s + 2.0 * g.h * ra) * g.w_top)


def plate_resistance(g: JunctionGeometry, ra: float) -> float:
    """Plate-only limit RA / (w_top * w_bot) [MOhm]."""
    if not (ra > 0.0):
        raise ValueError(f"RA must be positive, got {ra}")
    return ra / (g.w_top * g.w_bot)


def _distinct(values, tol: float = 1e-12) -> int:
    out = []
    for v in sorted(values):
        if not out or v - out[-1] > tol * max(1.0, abs(v)):
            out.append(v)
    return len(out)


def fit_ra(series) -> float:
    """Plate area-resistance RA [MOhm um^2] from a constant-w_top series.

    Through-origin least squares of R against 1/w_bot; the slope times w_top
    is RA.  Requires all records to share w_top and at least 3 distinct w_bot.
    This deliberately uses the plate-only form: it is exact only when the
    sidewall path is negligible, see decompose_resistances for the corrected
    pipeline.
    """
    records = list(series)
    if len(records) < 3:
        raise InsufficientDataError(f"need at least 3 records, got {len(records)}")
    w_tops = {rec.geometry.w_top for rec in records}
    if len(w_tops) != 1:
        raise ValueError(f"series must share w_top, got {sorted(w_tops)}")
    if _distinct(rec.geometry.w_bot for rec in records) < 3:
        raise InsufficientDataError("need at least 3 distinct w_bot values")
    w_top = records[0].geometry.w_top
    x = np.array([1.0 / rec.geometry.w_bot for rec in records])
    r = np.array([rec.r_mohm for rec in records])
    slope = float(np.sum(x * r) / np.sum(x * x))
    return slope * w_top


def _scalar_fit(records, value_of_param, lo: float, hi: float,
                what: str) -> float:
    """Minimize sum of squared residuals over one positive parameter in log space."""
    geoms = [rec.geometry for rec in records]
    r_meas = np.array([rec.r_mohm for rec in records])

    def sse(u: float) -> float:
        p = math.exp(u)
        pred = np.array([value_of_param(g, p) for g in geoms])
        return float(np.sum((pred - r_meas) ** 2))

    lo_u, hi_u = math.log(lo), math.log(hi)
    res = minimize_scalar(sse, bounds=(lo_u, hi_u), method="bounded",
                          options={"xatol": 1e-12, "maxiter": 500})
    u = float(res.x)
    edge = 1e-6 * (hi_u - lo_u)
    if u <= lo_u + edge or u >= hi_u - edge:
        raise NoBracketError(
            f"{what} fit ran to the bracket edge [{lo:g}, {hi:g}] MOhm um^2; "
            "residual is monotone over the bracket"
        )
    return math.exp(u)


def fit_ras(series, ra: float) -> float:
    """Sidewall area-resistance RA_S [MOhm um^2] with RA held fixed.

    One-parameter least squares of the full two-path model over the series
    (typically constant w_bot, varying w_top), solved by bounded scalar
    minimization over [1e-3, 1e9] MOhm um^2 in log space (relative tolerance
    about 1e-8).  Raises NoBracketError when the optimum sits at the bracket
    edge, i.e. the data do not constrain the sidewall.
    """
    records = list(series)
    if len(records) < 2:
        raise InsufficientDataError(f"need at least 2 records, got {len(records)}")
    if not (ra > 0.0):
        raise ValueError(f"RA must be positive, got {ra}")
    return _scalar_fit(
        records,
        lambda g, ras: junction_resistance(g, ra, ras),
        *RA_S_BRACKET,
        what="sidewall area-resistance",
    )


def _largest_series(records, fixed: str, varied: str, n_distinct: int):
    """Largest group of records sharing one `fixed` width (ties to the
    smallest width) with at least n_distinct `varied` widths, else None."""
    groups: dict[float, list] = {}
    for rec in records:
        groups.setdefault(getattr(rec.geometry, fixed), []).append(rec)
    for width in sorted(groups, key=lambda w: (-len(groups[w]), w)):
        group = groups[width]
        if _distinct(getattr(rec.geometry, varied) for rec in group) >= n_distinct:
            return group
    return None


def _pick_series(records):
    """Split records into the RA series (constant w_top, >=3 distinct w_bot)
    and the RA_S series (constant w_bot, varying w_top); falls back to all
    records for the sidewall step."""
    ra_series = _largest_series(records, "w_top", "w_bot", 3)
    if ra_series is None:
        raise InsufficientDataError(
            "no constant-w_top series with >= 3 distinct w_bot values"
        )
    ras_series = _largest_series(records, "w_bot", "w_top", 2) or list(records)
    return ra_series, ras_series


def decompose_resistances(records) -> AreaResistances:
    """Full pipeline: staged RA/RA_S estimates plus a joint refinement.

    The staged step reproduces the series-design extraction: plate-only RA
    from the constant-w_top series, then RA_S with RA held fixed.  The
    staged RA inherits a small systematic bias because the sidewall path is
    not exactly negligible, so a joint two-parameter least-squares fit of
    the full model (log residuals, both parameters in log space, seeded by
    the staged values) follows; on noise-free data it recovers the
    generating pair to machine precision.
    """
    records = list(records)
    ra_series, ras_series = _pick_series(records)
    ra_staged = fit_ra(ra_series)
    try:
        ra_s_staged = fit_ras(ras_series, ra_staged)
    except NoBracketError:
        # no sidewall signal in the data: seed the joint fit at the top of
        # the bracket, where the model is plate-only
        ra_s_staged = RA_S_BRACKET[1]

    geoms = [rec.geometry for rec in records]
    meas = np.array([rec.r_mohm for rec in records])
    log_meas = np.log(meas)

    def residuals(u):
        ra_u, ra_s_u = math.exp(u[0]), math.exp(u[1])
        pred = np.array([junction_resistance(g, ra_u, ra_s_u) for g in geoms])
        return np.log(pred) - log_meas

    lo_u, hi_u = math.log(RA_S_BRACKET[0]), math.log(RA_S_BRACKET[1])
    clip = lambda v: min(max(math.log(v), lo_u), hi_u)
    sol = least_squares(
        residuals, x0=[clip(ra_staged), clip(ra_s_staged)],
        bounds=([lo_u, lo_u], [hi_u, hi_u]),
        xtol=1e-14, ftol=1e-14, gtol=1e-14,
    )
    ra, ra_s = math.exp(float(sol.x[0])), math.exp(float(sol.x[1]))
    iterations = int(sol.nfev)

    pred = np.array([junction_resistance(rec.geometry, ra, ra_s) for rec in records])
    meas = np.array([rec.r_mohm for rec in records])
    max_rel = float(np.max(np.abs(pred - meas) / meas))
    negligible = all(
        rec.geometry.w_bot * ra_s >= _DOMINANCE_FACTOR * 2.0 * rec.geometry.h * ra
        for rec in records
    )
    return AreaResistances(
        ra=ra,
        ra_s=ra_s,
        ra_staged=ra_staged,
        ra_s_staged=ra_s_staged,
        sidewall_negligible=negligible,
        n_iterations=iterations,
        max_rel_residual=max_rel,
    )
