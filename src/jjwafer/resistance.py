"""Splitting junction resistance into plate and sidewall area-resistances.

The top electrode sees two parallel conduction paths into the bottom
electrode: the plate overlap (area w_top * w_bot, area-resistance RA) and the
two sidewall strips where it climbs over the bottom-layer edges (area
2 * h * w_top, area-resistance RA_S).  In parallel:

    1/R = w_top * w_bot / RA + 2 * h * w_top / RA_S

so R = RA * RA_S / ((w_bot * RA_S + 2 h RA) * w_top).  When the sidewall is
negligible this reduces to the plate-only form R = RA / (w_top * w_bot).

The model is linear in the conductances p = (1/RA, 1/RA_S): 1/R = X p with
design rows X = (w_top * w_bot, 2 h w_top).  fit_ras and the joint fit start
from the linear least-squares solution of X p R = 1 (each row scaled by its
measured R, so 1/R is never formed) and refine it by Gauss-Newton in ln p,
which keeps the conductances positive.

Extraction is staged the way the measurement series are designed: a series at
constant w_top with varying w_bot gives RA from a through-origin fit of R
against 1/w_bot (plate-only approximation); a second series then gives RA_S
from a one-parameter least-squares fit of the full model with RA held fixed.
Because the plate-only step is biased whenever the sidewall carries current,
decompose_resistances reports a joint fit of both conductances to all
records, which recovers the exact pair on clean data.

A floating-point fault inside a fit (an overflow, a log of zero) means the
records are beyond what the model can represent; it is raised as a
DegenerateDataError, never returned as an infinite area-resistance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError, NoBracketError
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

RA_S_BRACKET = (1e-3, 1e9)   # MOhm um^2, range of a fitted RA or RA_S
_DOMINANCE_FACTOR = 10.0
_P_MIN = 1.0 / RA_S_BRACKET[1]  # 1/(MOhm um^2), least conductance a fit resolves
_MAX_STEPS = 100             # Gauss-Newton steps per fit
_MIN_STEP = 1e-15            # smallest relative change in p worth trying


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
    ra_staged, ra_s_staged : the staged series estimates, for comparison
        with the joint fit (ra_s_staged is RA_S_BRACKET[1] when the sidewall
        fit found no bracket)
    sidewall_negligible : True when w_bot * RA_S >= 10 * (2 h RA) for every
        record used, i.e. the plate-only approximation was safe
    n_iterations : Gauss-Newton steps taken by the joint fit, plus those of
        the plate-only refit when the sidewall left its range
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


def _finite(fit):
    """Raise numpy floating-point faults inside fit, and report them (and a
    singular linear system) as DegenerateDataError."""
    @functools.wraps(fit)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return fit(*args, **kwargs)
        except (ArithmeticError, np.linalg.LinAlgError) as exc:
            raise DegenerateDataError(
                f"resistance data exceed the two-path model's range ({exc})"
            ) from exc
    return checked


@_finite
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


def _design(records):
    """Design rows X = (w_top w_bot, 2 h w_top) [um^2] and measured R [MOhm]."""
    x = np.array([(rec.geometry.top_area(), rec.geometry.sidewall_area())
                  for rec in records])
    r = np.array([rec.r_mohm for rec in records])
    return x, r


def _log_misfit(g, r):
    """ln(G R), the log of measured over predicted R, and its d/dG."""
    return np.log(g * r), 1.0 / g


def _r_misfit(g, r):
    """1/G - R, predicted minus measured R [MOhm], and its d/dG."""
    return 1.0 / g - r, -1.0 / (g * g)


def _fit_conductances(x, r, misfit, g_fixed=0.0):
    """Positive conductances p of G = g_fixed + x @ p fitted to resistances r.

    The start is the least-squares solution of (g_fixed + x @ p) * r = 1.
    Gauss-Newton on the misfit residuals, in ln p and with step halving,
    refines it until no step lowers the sum of squares.  As soon as an entry
    of p is at or below _P_MIN, p is returned as it is, for the caller to
    judge: the data do not constrain that conductance.  Returns
    (p, steps taken).
    """
    p = np.linalg.lstsq(x * r[:, None], 1.0 - g_fixed * r, rcond=None)[0]
    if not np.all(np.isfinite(p)):
        raise DegenerateDataError("linear start point is not finite")
    if np.any(p <= _P_MIN):
        return p, 0
    rho, dg = misfit(g_fixed + x @ p, r)
    sse = rho @ rho
    for steps in range(_MAX_STEPS):
        jac = dg[:, None] * x * p
        du = np.linalg.solve(jac.T @ jac, -(jac.T @ rho))
        if not np.all(np.isfinite(du)):
            raise DegenerateDataError("Gauss-Newton step is not finite")
        while np.max(np.abs(du)) > _MIN_STEP:
            p_new = p * np.exp(du)
            rho_new, dg_new = misfit(g_fixed + x @ p_new, r)
            if rho_new @ rho_new < sse:
                break
            du = du / 2.0
        else:
            return p, steps
        p, rho, dg, sse = p_new, rho_new, dg_new, rho_new @ rho_new
        if np.any(p <= _P_MIN):
            return p, steps + 1
    return p, _MAX_STEPS


@_finite
def fit_ras(series, ra: float) -> float:
    """Sidewall area-resistance RA_S [MOhm um^2] with RA held fixed.

    Least squares of the R residuals of the full two-path model over the
    series (typically constant w_bot, varying w_top), with 1/RA_S the one
    free conductance.  Raises NoBracketError when the fit leaves
    RA_S_BRACKET, [1e-3, 1e9] MOhm um^2, i.e. the data do not constrain the
    sidewall.
    """
    records = list(series)
    if len(records) < 2:
        raise InsufficientDataError(f"need at least 2 records, got {len(records)}")
    if not (ra > 0.0):
        raise ValueError(f"RA must be positive, got {ra}")
    x, r = _design(records)
    (p_side,), _ = _fit_conductances(x[:, 1:], r, _r_misfit, x[:, 0] / ra)
    lo, hi = RA_S_BRACKET
    if not (1.0 / hi < p_side < 1.0 / lo):
        raise NoBracketError(
            f"sidewall area-resistance fit left the range [{lo:g}, {hi:g}] "
            "MOhm um^2; the data do not constrain it"
        )
    return float(1.0 / p_side)


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


@_finite
def decompose_resistances(records) -> AreaResistances:
    """Staged RA/RA_S estimates plus the joint fit that is reported.

    The staged step reproduces the series-design extraction: plate-only RA
    from the constant-w_top series, then RA_S with RA held fixed.  The
    staged RA inherits a small systematic bias because the sidewall path is
    not exactly negligible, so RA and RA_S come from a joint fit of both
    conductances to every record, on the log residuals of R; on noise-free
    data it recovers the generating pair to machine precision.
    When the joint fit puts RA_S above RA_S_BRACKET[1], the data carry no
    sidewall signal: RA_S is held at that edge, where the model is
    plate-only, and RA is fitted alone.  Any other fit outside RA_S_BRACKET
    raises DegenerateDataError.
    """
    records = list(records)
    ra_series, ras_series = _pick_series(records)
    ra_staged = fit_ra(ra_series)
    try:
        ra_s_staged = fit_ras(ras_series, ra_staged)
    except NoBracketError:
        ra_s_staged = RA_S_BRACKET[1]

    x, r = _design(records)
    p, steps = _fit_conductances(x, r, _log_misfit)
    if p[1] <= _P_MIN:
        (p_plate,), more = _fit_conductances(x[:, :1], r, _log_misfit, x[:, 1] * _P_MIN)
        p, steps = np.array([p_plate, _P_MIN]), steps + more
    lo, hi = RA_S_BRACKET
    if not (p[0] > _P_MIN and np.all(p < 1.0 / lo)):
        raise DegenerateDataError(
            f"area-resistance fit left the range [{lo:g}, {hi:g}] MOhm um^2"
        )
    ra, ra_s = (1.0 / p).tolist()
    max_rel = float(np.max(np.abs(1.0 / ((x @ p) * r) - 1.0)))
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
        n_iterations=steps,
        max_rel_residual=max_rel,
    )
