"""Splitting junction resistance into plate and sidewall area-resistances.

The top electrode sees two parallel conduction paths into the bottom
electrode: the plate overlap (area w_top * w_bot, area-resistance RA) and the
two sidewall strips where it climbs over the bottom-layer edges (area
2 * h * w_top, area-resistance RA_S).  In parallel:

    1/R = w_top * w_bot / RA + 2 * h * w_top / RA_S

so R = RA * RA_S / ((w_bot * RA_S + 2 h RA) * w_top).  When the sidewall is
negligible this reduces to the plate-only form R = RA / (w_top * w_bot).

The model is linear in the conductances p = (1/RA, 1/RA_S): 1/R = X p with
design rows X = (w_top * w_bot, 2 h w_top).  decompose_resistances fits both
conductances jointly to every record: the linear least-squares solution of
X p R = 1 (each row scaled by its measured R, so 1/R is never formed) is the
start, and Gauss-Newton on the log residuals ln(R X p), in ln p, refines it
while keeping the conductances positive.  On noise-free data it recovers the
generating pair to machine precision.

The records must contain a width series: at least one group sharing w_top
with 3 or more distinct w_bot values, so that the plate area varies at fixed
sidewall area.  Without one the fit is refused with InsufficientDataError.

A floating-point fault inside the fit (an overflow, a log of zero) means the
records are beyond what the model can represent; it is raised as a
DegenerateDataError, never returned as an infinite area-resistance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError
from .geometry import JunctionGeometry

__all__ = [
    "ResistanceRecord",
    "AreaResistances",
    "junction_resistance",
    "plate_resistance",
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
    sidewall_negligible : True when w_bot * RA_S >= 10 * (2 h RA) for every
        record used, i.e. the plate-only approximation was safe
    n_iterations : Gauss-Newton steps taken by the joint fit, plus those of
        the plate-only refit when the sidewall left its range
    max_rel_residual : worst relative misfit of the final model
    """

    ra: float
    ra_s: float
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


def _fit_conductances(x, r, g_fixed=0.0):
    """Positive conductances p of G = g_fixed + x @ p fitted to resistances r.

    The start is the least-squares solution of (g_fixed + x @ p) * r = 1.
    Gauss-Newton on the log residuals ln(G r), in ln p and with step
    halving, refines it until no step lowers the sum of squares.  As soon as
    an entry of p is at or below _P_MIN, p is returned as it is, for the
    caller to judge: the data do not constrain that conductance.  Returns
    (p, steps taken).
    """
    p = np.linalg.lstsq(x * r[:, None], 1.0 - g_fixed * r, rcond=None)[0]
    if not np.all(np.isfinite(p)):
        raise DegenerateDataError("linear start point is not finite")
    if np.any(p <= _P_MIN):
        return p, 0
    g = g_fixed + x @ p
    rho = np.log(g * r)
    sse = rho @ rho
    for steps in range(_MAX_STEPS):
        jac = (1.0 / g)[:, None] * x * p
        du = np.linalg.solve(jac.T @ jac, -(jac.T @ rho))
        if not np.all(np.isfinite(du)):
            raise DegenerateDataError("Gauss-Newton step is not finite")
        while np.max(np.abs(du)) > _MIN_STEP:
            p_new = p * np.exp(du)
            g_new = g_fixed + x @ p_new
            rho_new = np.log(g_new * r)
            if rho_new @ rho_new < sse:
                break
            du = du / 2.0
        else:
            return p, steps
        p, g, rho, sse = p_new, g_new, rho_new, rho_new @ rho_new
        if np.any(p <= _P_MIN):
            return p, steps + 1
    return p, _MAX_STEPS


def decompose_resistances(records) -> AreaResistances:
    """RA and RA_S from a joint fit of both conductances to every record.

    The records must hold a constant-w_top series with at least 3 distinct
    w_bot values, else InsufficientDataError.  The fit minimizes the log
    residuals of R; on noise-free data it recovers the generating pair to
    machine precision.  When it puts RA_S above RA_S_BRACKET[1], the data
    carry no sidewall signal: RA_S is held at that edge, where the model is
    plate-only, and RA is fitted alone.  Any other fit outside RA_S_BRACKET,
    and any floating-point fault, raises DegenerateDataError.
    """
    records = list(records)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            series: dict[float, list] = {}
            for rec in records:
                series.setdefault(rec.geometry.w_top, []).append(rec.geometry.w_bot)
            if not any(_distinct(w_bots) >= 3 for w_bots in series.values()):
                raise InsufficientDataError(
                    "no constant-w_top series with >= 3 distinct w_bot values"
                )
            x = np.array([(rec.geometry.top_area(), rec.geometry.sidewall_area())
                          for rec in records])
            r = np.array([rec.r_mohm for rec in records])
            # LAPACK reports a non-finite input on stdout; refuse it first
            if not (np.isfinite(x).all() and np.isfinite(r).all()):
                raise DegenerateDataError("resistance records hold a non-finite "
                                          "junction area or resistance")
            p, steps = _fit_conductances(x, r)
            if p[1] <= _P_MIN:
                (p_plate,), more = _fit_conductances(x[:, :1], r, x[:, 1] * _P_MIN)
                p, steps = np.array([p_plate, _P_MIN]), steps + more
            lo, hi = RA_S_BRACKET
            if not (p[0] > _P_MIN and np.all(p < 1.0 / lo)):
                raise DegenerateDataError(
                    f"area-resistance fit left the range [{lo:g}, {hi:g}] MOhm um^2"
                )
            ra, ra_s = (1.0 / p).tolist()
            max_rel = float(np.max(np.abs(1.0 / ((x @ p) * r) - 1.0)))
            negligible = all(
                rec.geometry.w_bot * ra_s
                >= _DOMINANCE_FACTOR * 2.0 * rec.geometry.h * ra
                for rec in records
            )
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        raise DegenerateDataError(
            f"resistance data exceed the two-path model's range ({exc})"
        ) from exc
    return AreaResistances(
        ra=ra,
        ra_s=ra_s,
        sidewall_negligible=negligible,
        n_iterations=steps,
        max_rel_residual=max_rel,
    )
